import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

import vincl
from vincl.cli import (
    EXIT_CONDITION_VIOLATED,
    EXIT_NO_CONVERGENCE,
    EXIT_NON_SURJECTIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY_FAILED,
    main,
)
from vincl.instances import example_4_7
from vincl.operators import dump_instance
from vincl.solver import TRACE_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_instances(capsys):
    code, out, _ = run(capsys, "list-instances")
    assert code == EXIT_OK
    assert "example_4_7" in out
    code, out, _ = run(capsys, "list-instances", "--format", "json")
    assert "example_3_3" in json.loads(out)


def test_solve_converges_exit_zero(capsys):
    code, out, _ = run(capsys, "solve", "--instance", "example_4_7",
                       "--rho", "0.35", "--tol", "1e-10")
    assert code == EXIT_OK
    assert "converged" in out


def test_solve_json_summary(capsys):
    code, out, _ = run(capsys, "solve", "--instance", "example_4_7",
                       "--format", "json", "--tol", "1e-12")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["converged"] is True
    # final tail ratio stays within the rate bound plus slack
    assert summary["observed_rate"] <= summary["theta_rate_bound"] + 0.05


def test_solve_non_surjective_exit_five(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        code, _, err = run(capsys, "solve", "--instance", "example_3_3")
    assert code == EXIT_NON_SURJECTIVE
    assert "single point" in err


def test_solve_divergence_exit_two(capsys, tmp_path):
    # an expanding instance file: F amplifies by -10
    named = example_4_7()
    d_path = tmp_path / "expanding.json"
    from vincl.operators import instance_to_dict
    d = instance_to_dict(named.instance)
    d["F"]["first"] = [[-10.0, 0.0], [0.0, -10.0]]
    d["F"]["second"] = [[0.0, 0.0], [0.0, 0.0]]
    d["rho"] = 1.0
    d_path.write_text(json.dumps(d))
    code, _, err = run(capsys, "solve", "--instance", str(d_path),
                       "--max-iters", "300")
    assert code == EXIT_NO_CONVERGENCE


def test_check_condition_exit_codes(capsys):
    code, out, _ = run(capsys, "check-condition", "--instance",
                       "example_4_7", "--rho", "0.35")
    assert code == EXIT_OK
    assert "satisfied" in out
    code, out, _ = run(capsys, "check-condition", "--instance",
                       "example_4_7", "--rho", "3.8")
    assert code == EXIT_CONDITION_VIOLATED
    assert "violated_radicand" in out


def test_check_condition_human_itemizes_terms(capsys):
    code, out, _ = run(capsys, "check-condition", "--instance",
                       "example_4_7", "--rho", "0.35", "--format", "human")
    assert code == EXIT_OK
    assert "radicand" in out and "tau^q term" in out
    assert "r + rho*m" in out


def test_check_condition_missing_constants(capsys):
    code, _, err = run(capsys, "check-condition", "--instance",
                       "example_3_2")
    assert code == EXIT_PARSE
    assert "sigma" in err


def test_verify_clean_instance_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--instance", "example_4_7",
                       "--seed", "42")
    assert code == EXIT_OK
    bundle = json.loads(out)
    certs = bundle["certificates"]
    assert certs["mixed_lipschitz"]["constant"] == pytest.approx(2.9)
    assert bundle["derived"]["r"] == pytest.approx(2.9)


def test_verify_degenerate_instance_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "--instance", "example_3_3")
    assert code == EXIT_VERIFY_FAILED
    bundle = json.loads(out)
    assert bundle["certificates"]["surjective_H_plus_rhoM"]["verdict"] == "fail"


def test_verify_byte_identical_given_seed(capsys):
    _, out1, _ = run(capsys, "verify", "--instance", "example_4_7",
                     "--seed", "42")
    _, out2, _ = run(capsys, "verify", "--instance", "example_4_7",
                     "--seed", "42")
    assert out1.encode() == out2.encode()


def test_verify_human_format(capsys):
    code, out, _ = run(capsys, "verify", "--instance", "example_4_7",
                       "--format", "human")
    assert code == EXIT_OK
    assert "certificate bundle" in out
    assert "overall: ok" in out


def test_trace_export_writes_versioned_csv(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "trace-export", "--instance", "example_4_7",
                       "--tol", "1e-10", "--output", str(out_path))
    assert code == EXIT_OK
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("schema,n,step,ratio,residual,theta_n,u_0")
    assert lines[1].split(",")[0] == TRACE_SCHEMA
    summary = json.loads(out)
    assert summary["converged"] is True


def test_instance_file_source(capsys, tmp_path):
    path = tmp_path / "inst.json"
    dump_instance(example_4_7().instance, str(path))
    code, out, _ = run(capsys, "check-condition", "--instance", str(path),
                       "--rho", "0.35", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "satisfied"


def test_undefined_rate_reports_no_theta(capsys, tmp_path):
    # r + rho*m = 0 (r = m = 0): the rate is undefined, so theta is
    # absent and the upper side of the condition fails
    inst = example_4_7().instance
    path = tmp_path / "flat.json"
    dump_instance(inst.with_(constants=dataclasses.replace(
        inst.constants, alpha=0.25, beta=0.25, mu1=0.0, mu2=0.0,
        gamma1=-1.0, gamma2=1.0)), str(path))
    code, out, _ = run(capsys, "check-condition", "--instance", str(path),
                       "--format", "json")
    assert code == EXIT_CONDITION_VIOLATED
    rep = json.loads(out)
    assert rep["verdict"] == "violated_upper" and rep["r_plus_rho_m"] == 0.0
    assert rep["theta"] is None and rep["theta_rate_bound"] is None
    code, out, _ = run(capsys, "check-condition", "--instance", str(path))
    assert code == EXIT_CONDITION_VIOLATED
    assert "theta (declared form) = -" in out
    code, out, _ = run(capsys, "solve", "--instance", str(path))
    assert code == EXIT_OK
    assert "theta (declared)   = -" in out
    assert "step-ratio bound   = -" in out


def test_import_and_check_condition_leave_scipy_unloaded():
    # scipy.linalg loads on the first factorization: importing vincl and
    # checking the rate condition factor nothing
    code = "\n".join([
        "import sys",
        "import vincl",
        "assert 'scipy.linalg' not in sys.modules, 'import vincl'",
        "from vincl.cli import main",
        "for argv in (['check-condition', '--instance', 'example_4_7'],",
        "             ['list-instances']):",
        "    assert main(argv) == 0",
        "    assert 'scipy.linalg' not in sys.modules, argv[0]",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(vincl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_unknown_instance_exit_one(capsys):
    code, _, err = run(capsys, "solve", "--instance", "no_such_thing")
    assert code == EXIT_PARSE
    assert "unknown instance" in err


def test_malformed_json_diagnostics(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}')
    code, _, err = run(capsys, "verify", "--instance", str(path))
    assert code == EXIT_PARSE
    assert "line" in err


def test_missing_field_diagnostics(capsys, tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"dim": 2, "rho": 1.0}))
    code, _, err = run(capsys, "verify", "--instance", str(path))
    assert code == EXIT_PARSE
    assert "missing field" in err


def test_solve_with_error_sequence_flags(capsys):
    code, out, _ = run(capsys, "solve", "--instance", "example_4_7",
                       "--error-c0", "0.1", "--error-factor", "0.5",
                       "--format", "json", "--tol", "1e-10")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["converged"] is True
    assert summary["varpi"] == pytest.approx(0.75)


def test_solve_omega_override(capsys):
    code, out, _ = run(capsys, "solve", "--instance", "example_4_7",
                       "--omega", "0.5,0.25", "--format", "json",
                       "--tol", "1e-11")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["converged"] is True
    assert np.linalg.norm(summary["u"]) > 0.1


def test_output_file_atomic_write(capsys, tmp_path):
    out_path = tmp_path / "bundle.json"
    code, _, _ = run(capsys, "verify", "--instance", "example_4_7",
                     "--output", str(out_path))
    assert code == EXIT_OK
    assert json.loads(out_path.read_text())["seed"] == 0
    assert not os.path.exists(str(out_path) + ".tmp")


def test_bad_flag_exit_one(capsys):
    code, _, _ = run(capsys, "solve", "--instance", "example_4_7",
                     "--rho", "not_a_number")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["solve", "--rho", "-1"],
    ["solve", "--tol", "0"],
    ["solve", "--max-iters", "0"],
    ["solve", "--error-c0", "1", "--error-factor", "2"],
    ["solve", "--z0", "1,2,3"],
    ["solve", "--z0", "nan,1"],
    ["solve", "--omega", "1,inf"],
    ["check-condition", "--rho", "-1"],
    ["check-condition", "--rho", "0"],
    ["verify", "--rho-grid=-0.5,1"],
    ["verify", "--rho-grid", "-0.5,1"],
], ids=" ".join)
def test_invalid_values_exit_one_with_message(capsys, argv):
    code, out, err = run(capsys, *argv, "--instance", "example_4_7")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--z0", "--u0", "--omega"])
def test_vector_value_may_begin_with_a_minus_sign(capsys, flag):
    # argparse would take "-1,2" for an option; both forms read the value
    outs = [run(capsys, "solve", "--instance", "example_4_7", "--format",
                "json", *form) for form in ([flag, "-1,2"], [f"{flag}=-1,2"])]
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK and outs[0][2] == ""
