import dataclasses
import json
import math
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
from vincl.operators import dump_instance, instance_to_dict
from vincl.solver import TRACE_SCHEMA, SolverConfig, solve


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
    d = instance_to_dict(named.instance)
    d["F"]["first"] = [[-10.0, 0.0], [0.0, -10.0]]
    d["F"]["second"] = [[0.0, 0.0], [0.0, 0.0]]
    d["rho"] = 1.0
    d_path.write_text(json.dumps(d))
    code, _, err = run(capsys, "solve", "--instance", str(d_path),
                       "--max-iters", "300")
    assert code == EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("argv", [
    ("solve", "--rho", "inf"),
    ("check-condition", "--rho", "inf", "--format", "json"),
    ("verify", "--rho-grid", "inf"),
    ("verify", "--rho-grid", "1,-inf"),
    ("check-condition", "--rho", "nan"),
])
def test_rho_not_finite_and_positive_is_a_config_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--instance", "example_4_7")
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("error: rho must be ")
    assert "Traceback" not in err


def test_huge_rho_violates_the_upper_bound_without_a_traceback():
    # rho^q overflows to inf: the root passes r + rho*m, in a fresh process
    code = ("import sys; from vincl.cli import main; sys.exit(main(["
            "'check-condition', '--instance', 'example_4_7', '--rho', "
            "'1e200', '--format', 'json']))")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(
                              os.path.dirname(os.path.abspath(
                                  vincl.__file__)))))
    assert proc.returncode == EXIT_CONDITION_VIOLATED, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "violated_upper"
    assert "Traceback" not in proc.stderr


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
    # `solve --format csv --output` writes the trace; stdout stays empty
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "solve", "--instance", "example_4_7",
                       "--tol", "1e-10", "--format", "csv",
                       "--output", str(out_path))
    assert code == EXIT_OK and out == ""
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("schema,n,step,ratio,residual,theta_n,u_0")
    assert lines[1].split(",")[0] == TRACE_SCHEMA
    assert text == solve(example_4_7().instance,
                         SolverConfig(z0=np.ones(2), tol=1e-10)).to_csv()
    # the trace-export subcommand is gone: an invalid choice
    assert run(capsys, "trace-export", "--instance", "example_4_7",
               "--output", str(out_path))[0] == EXIT_PARSE


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
    # scipy.linalg loads only to factor a composite of the small dimension
    # or more: importing vincl, checking the rate condition, and verifying
    # and solving every built-in (dims 2 to 8) load numpy alone
    code = "\n".join([
        "import sys",
        "import vincl",
        "assert 'scipy.linalg' not in sys.modules, 'import vincl'",
        "from vincl.cli import main",
        "from vincl.instances import builtin_names",
        "runs = [(['check-condition', '--instance', 'example_4_7'], 0),",
        "        (['list-instances'], 0)]",
        "for name in builtin_names():",
        "    # example_3_3's composite is not surjective: verify fails it,",
        "    # and solve refuses it",
        "    bad = name == 'example_3_3'",
        "    runs.append((['verify', '--instance', name, '--seed', '42'],",
        "                 3 if bad else 0))",
        "    runs.append((['solve', '--instance', name], 5 if bad else 0))",
        "for argv, code in runs:",
        "    assert main(argv) == code, argv",
        "    assert 'scipy.linalg' not in sys.modules, argv",
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


@pytest.mark.parametrize("name", ["alpha1", "beta1", "alpha", "beta", "l1",
                                  "l2"])
def test_verify_refuses_a_non_positive_claimed_constant(name, capsys,
                                                        tmp_path):
    doc = instance_to_dict(example_4_7().instance)
    doc["constants"][name] = 0.0
    path = tmp_path / "zero_constant.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--instance", str(path))
    assert code == EXIT_PARSE
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [err.strip()]
    assert "claimed constant must be > 0" in err and "Traceback" not in err


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


@pytest.mark.parametrize("target", ["a_directory", "missing/x.json"])
def test_an_unwritable_output_exits_one_and_leaves_no_tmp(capsys, tmp_path,
                                                          target):
    # a directory raised IsADirectoryError from os.replace and left
    # a_directory.tmp behind; a missing parent raised FileNotFoundError
    (tmp_path / "a_directory").mkdir()
    code, out, err = run(capsys, "list-instances", "--output",
                         str(tmp_path / target))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [("--tol", "inf"), ("--error-c0", "inf"),
                                  ("--error-c0", "nan")], ids=" ".join)
def test_solve_refuses_a_number_that_is_not_finite(capsys, argv):
    # --tol inf "converged in 1 iterations" with exit 0; a non-finite c0
    # was reported as a non-finite iterate, exit 2
    code, out, err = run(capsys, "solve", "--instance", "example_4_7", *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err and "Traceback" not in err


def test_an_infinite_declared_constant_is_a_config_error(capsys, tmp_path):
    # "tau": 1e400 parses as inf, which certified mixed_lipschitz as pass
    doc = instance_to_dict(example_4_7().instance)
    doc["constants"]["tau"] = "TAU"
    path = tmp_path / "infinite_tau.json"
    path.write_text(json.dumps(doc).replace('"TAU"', "1e400"))
    code, out, err = run(capsys, "verify", "--instance", str(path))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "tau must be finite" in err
    assert "Traceback" not in err


def _file(tmp_path, name, *changes):
    """The path of example_4_7's instance file with `changes` made."""
    doc = instance_to_dict(example_4_7().instance)
    for change in changes:
        change(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# both ended in a traceback: tau^q raised OverflowError, and (-0.1)^2.5
# is complex, which float() refused with a TypeError
@pytest.mark.parametrize("changes", [
    (("constants", "tau", 1e200),),
    (("constants", "alpha1", -0.1), ("q", 2.5)),
], ids=["overflowing tau^q", "complex alpha1^q"])
def test_a_rate_with_no_real_value_refuses_the_condition_not_the_solve(
        capsys, tmp_path, changes):
    path = _file(tmp_path, "rate", *(_set(*c) for c in changes))
    code, out, err = run(capsys, "check-condition", "--instance", path)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: rate condition undefined at rho=0.35")
    assert err.count("\n") == 1
    code, out, err = run(capsys, "solve", "--instance", path,
                         "--format", "json")
    summary = json.loads(out)
    assert code == EXIT_OK and err == "" and summary["converged"] is True
    assert summary["theta_declared"] is None


def test_an_overflowing_certified_alpha1_leaves_derived_empty(capsys,
                                                             tmp_path):
    # alpha1 certifies as 1e200, whose square overflowed in theoretical_r_m;
    # in process, under the suite's error::RuntimeWarning: the cocoercivity
    # certificate's L'L overflowed with a warning and stored a NaN
    path = _file(tmp_path, "big_a",
                 _set("A", "matrix", [[1e200, 0.0], [0.0, 1e200]]))
    code, out, err = run(capsys, "verify", "--instance", path)
    assert code == EXIT_VERIFY_FAILED and err == ""
    bundle = json.loads(out)
    assert bundle["derived"] == {} and "NaN" not in out
    strong = bundle["certificates"]["strongly_mixed_cocoercive"]
    assert strong["verdict"] == "fail" and strong["constant"] == -math.inf


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_an_overflowing_composite_exits_one_without_a_warning(
        capsys, tmp_path, command):
    # H's composite A + B + C + D overflows; numpy warned of it before the
    # array rule refused the inf, which the suite turns into an error
    big = [[1e308, 0.0], [0.0, 1e308]]
    path = _file(tmp_path, "big_ac", _set("A", "matrix", big),
                 _set("C", "matrix", big))
    code, out, err = run(capsys, command, "--instance", path)
    assert code == EXIT_PARSE and out == ""
    assert err == "error: batch has non-finite coordinates\n"


def _set(*path_and_value):
    """A change of an instance dict: the value at the key path."""
    *path, key, value = path_and_value

    def change(d):
        for k in path:
            d = d[k]
        d[key] = value
    return change


# each was taken, or ended in a traceback, before the instance reader
# passed JSON values to the rules unconverted and refused unknown keys
@pytest.mark.parametrize("change, message", [
    (_set("rho", "0.35"), "rho must be a number, got '0.35'"),
    (_set("q", "2"), "q must be a number, got '2'"),
    (_set("c_q", "1"), "c_q must be a number, got '1'"),
    (_set("c_q", 10 ** 400), "c_q must be finite, got 1000"),
    (_set("constants", "tau", True), "tau must be a number, got True"),
    (_set("A", "matrix", 0, 0, math.nan),
     "A.matrix has non-finite coordinates"),
    (_set("omgea", [0.0, 0.0]), "unknown keys: 'omgea'"),
    (_set("constants", "tua", 1.0), "unknown keys: 'constants.tua'"),
    # numpy converted "0.5" and true, so these two loaded and verified with
    # exit 0; an integer past the floats ended in an OverflowError
    # traceback, and no message of a non-finite entry named its key
    (_set("omega", ["0.5", 1]), "omega must hold numbers, got '0.5'"),
    (_set("A", "matrix", 0, 0, True), "A.matrix must hold numbers, got True"),
    (_set("F", "first", 0, 0, 10 ** 400),
     "F.first has non-finite coordinates"),
    (_set("S", {"map": {"matrix": [[1.0, 0.0], [0.0, math.inf]],
                        "offset": [0.0, 0.0]}}),
     "S.map.matrix has non-finite coordinates"),
], ids=["string rho", "string q", "string c_q", "integer past the floats",
        "boolean tau", "nan matrix", "unknown key", "unknown constant",
        "string in omega", "boolean in a matrix", "integer past the floats "
        "in F", "inf in S"])
def test_a_bad_instance_file_exits_one_on_every_command(capsys, tmp_path,
                                                        change, message):
    doc = instance_to_dict(example_4_7().instance)
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "check-condition", "solve"):
        code, out, err = run(capsys, command, "--instance", str(path))
        assert code == EXIT_PARSE and out == "", command
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("grid", ["1,x", "nan", "0.5,inf"])
def test_a_bad_rho_grid_exits_one(capsys, grid):
    # --rho-grid reads as --z0 does, and each node meets the positive rule
    code, out, err = run(capsys, "verify", "--instance", "example_4_7",
                         "--rho-grid", grid)
    assert code == EXIT_PARSE and out == "" and "Traceback" not in err
    assert grid == "1,x" or err.startswith("error: rho must be ")


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


@pytest.mark.parametrize("argv", [("--samples", "-5"), ("--seed", "-3")],
                         ids=" ".join)
@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_negative_sample_count_or_seed_exits_one(capsys, tmp_path, argv,
                                                 sampled):
    # example_4_7 certifies exactly and never read the plan, so exited 0;
    # a nearest-node S takes a sampled certificate, whose draw ended in a
    # numpy traceback
    source = "example_4_7"
    if sampled:
        d = instance_to_dict(example_4_7().instance)
        d["S"] = {"nodes": [[0.0, 0.0], [1.0, 0.0]],
                  "points": [[[0.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]]}
        source = str(tmp_path / "nearest_node_S.json")
        with open(source, "w") as fh:
            json.dump(d, fh)
    code, out, err = run(capsys, "verify", "--instance", source, *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: sample plan ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_from_an_overflowing_u0_exits_two_under_warnings_as_errors():
    # the start-up's K u0 overflowed outside the loop's errstate: numpy
    # warned, and under -W error the warning ended in a traceback, exit 1
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vincl.cli",
         "solve", "--instance", "example_4_7", "--u0", "1e308,1e308"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(vincl.__file__)))))
    assert proc.returncode == EXIT_NO_CONVERGENCE, proc.stderr
    assert proc.stderr == "error: iterate became non-finite\n"


@pytest.mark.parametrize("flag", ["--z0", "--u0", "--omega"])
def test_vector_value_may_begin_with_a_minus_sign(capsys, flag):
    # argparse would take "-1,2" for an option; both forms read the value
    outs = [run(capsys, "solve", "--instance", "example_4_7", "--format",
                "json", *form) for form in ([flag, "-1,2"], [f"{flag}=-1,2"])]
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK and outs[0][2] == ""
