"""Sampled certificate bundles of black-box instances, byte for byte.

`tests/data/golden_blackbox_bundles.json` holds `certify_instance(...)
.to_json()` for example_4_7 lifted to dim 10 and for every built-in, each
with its maps and F given as plain callables, so that every certificate
with a single-valued map takes the sampled path; and for the dim-10 lift
with H, M, S and T opaque as well, which sends the H, M-slot, F and
set-distance certificates through their set-valued sampled forms.  A
change to how the sampled certificates evaluate their maps must leave
every verdict, constant, witness and detail as it was.  After an
intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_bundles.py
"""

import json
import pathlib

import pytest

from test_scale_invariance import PLAN, lift, variant
from vincl.certify import certify_instance
from vincl.instances import builtin_names, example_4_7, get_instance
from vincl.operators import SingletonSetMap

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_blackbox_bundles.json"
LIFTED = "example_4_7_lifted_10"
OPAQUE = "example_4_7_lifted_10_opaque_HMST"


def _opaque(inst):
    """`inst` with H, M, S and T as plain callables; S and T two-valued."""
    return inst.with_(H=lambda a, b, c, d: a + b + c + d,
                      M=lambda u, v: (u - v, u - v + 0.1),
                      S=lambda x: (x, 0.5 * x),
                      T=SingletonSetMap(lambda x: -x))


def _bundle(name: str) -> str:
    if name in (LIFTED, OPAQUE):
        # no range probes: the damped probe is not what this file pins
        inst = variant(lift(example_4_7().instance, 10), 1.0, blackbox=True)
        inst = _opaque(inst) if name == OPAQUE else inst
        return certify_instance(inst, PLAN, rho_grid=[]).to_json()
    named = get_instance(name)
    inst = variant(named.instance, 1.0, blackbox=True)
    return certify_instance(
        inst, PLAN,
        rho_grid=named.expected.get("surjectivity_rho_grid")).to_json()


NAMES = [LIFTED, OPAQUE] + builtin_names()


@pytest.mark.parametrize("name", NAMES)
def test_blackbox_bundle_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert _bundle(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: _bundle(name) for name in NAMES},
                                 indent=1, sort_keys=True) + "\n")
