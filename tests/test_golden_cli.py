"""The CLI's JSON output on every built-in instance, byte for byte.

`tests/data/golden_cli.json` holds the stdout and exit code of
`verify --seed 42`, `check-condition` and `solve`, each with
`--format json`, for the six built-ins.  A change that moves a verdict,
a constant or an iterate at unit scale shows here.  After an intended
change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from vincl.cli import main
from vincl.instances import builtin_names

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_cli.json"
COMMANDS = {
    "verify": ["verify", "--seed", "42", "--format", "json"],
    "check-condition": ["check-condition", "--format", "json"],
    "solve": ["solve", "--format", "json"],
}


def _run(name: str, command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(COMMANDS[command] + ["--instance", name])
    return {"stdout": out.getvalue(), "exit_code": code}


def _all_runs() -> dict:
    return {name: {command: _run(name, command) for command in COMMANDS}
            for name in builtin_names()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", builtin_names())
def test_cli_output_matches_golden(name, command):
    golden = json.loads(GOLDEN.read_text())
    assert _run(name, command) == golden[name][command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_all_runs(), indent=1, sort_keys=True)
                      + "\n")
