"""The benchmark's workloads: inputs made from a seed, a fixed call list,
and a check of every output.

Each workload is a `build(seed)` that makes its inputs and a
`run_pass(inputs, p)` that makes the workload's calls once, one after the
other, through `Pass.op`.  `Pass.op` times the call, files the time under a
category and runs the output check; a call that raises one of vincl's
errors, or whose output fails its check, counts as failed.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

import numpy as np

import vincl
from lifted import lift

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

VINCL_ERRORS = (vincl.NonSurjectiveError, vincl.ResolventIterationError,
                vincl.DivergenceError, vincl.MissingConstantsError,
                vincl.InsufficientEvidenceError, vincl.EmptySetError)

# constants theoretical_r_m needs, so audit_lipschitz can run
R_M_CONSTANTS = ("mu1", "mu2", "gamma1", "gamma2", "alpha1", "beta1",
                 "alpha", "beta")

SOLVE_TOL = 1e-12
LIFTED_SOLVE_TOL = 1e-6
CONSTANT_RTOL = 1e-9
LIFTED_AUDIT_PAIRS = 16
SWEEP_RHOS = 60
SWEEP_GRID = 8
CLI_TIMEOUT_S = 120


class Pass:
    """One pass over a workload's call list."""

    def __init__(self, tracer=None):
        self.calls = defaultdict(list)   # category -> seconds of each call
        self.counters = Counter()        # counts read from result objects
        self.attempted = 0
        self.failed = 0
        self._tracer = tracer

    def seconds(self, *categories) -> float:
        return float(sum(sum(self.calls[c]) for c in categories))

    def op(self, category, check, fn, *args, **kwargs):
        """Time fn(*args, **kwargs), then check its result."""
        self.attempted += 1
        span = (self._tracer.root(f"bench.{category}") if self._tracer
                else nullcontext())
        try:
            with span:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.calls[category].append(time.perf_counter() - t0)
        except VINCL_ERRORS as exc:
            self._fail(category, fn, [repr(exc)])
            return None
        problems = check(result)
        if problems:
            self._fail(category, fn, problems)
        return result

    def _fail(self, category, fn, problems):
        self.failed += 1
        print(f"check failed [{category} {getattr(fn, '__name__', fn)}]: "
              + "; ".join(problems), file=sys.stderr)


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is
# correct.
# ---------------------------------------------------------------------------

def _close(value, target, rtol=CONSTANT_RTOL) -> bool:
    return value is not None and abs(value - target) <= rtol * (1 + abs(target))


def check_bundle(bundle, expected, sampled=False):
    """Certificates against an `expected` block.

    With `sampled`, a sampled certificate may say "estimated" where the
    block says "pass"; the constants must still agree.
    """
    problems = []
    want = expected.get("certificates", {})
    for key, exp in want.items():
        cert = bundle.certificates.get(key)
        if cert is None:
            problems.append(f"{key}: missing")
            continue
        verdicts = {exp["verdict"]}
        if sampled and cert.method == "sampled" and exp["verdict"] == "pass":
            verdicts = {"estimated"}
        if cert.verdict not in verdicts:
            problems.append(f"{key}: verdict {cert.verdict}")
        if "constant" in exp and not _close(cert.constant, exp["constant"]):
            problems.append(f"{key}: constant {cert.constant} "
                            f"!= {exp['constant']}")
        if "mu" in exp and not _close(cert.details.get("mu"), exp["mu"]):
            problems.append(f"{key}: mu {cert.details.get('mu')}")
        if "image_norm" in exp and not _close(
                (cert.witness or {}).get("image_norm"), exp["image_norm"]):
            problems.append(f"{key}: witness {cert.witness}")
    for key, cert in bundle.certificates.items():
        if key not in want and cert.verdict == "fail":
            problems.append(f"{key}: unexpected fail")
    for key in ("r", "m"):
        if key in expected.get("derived", {}) and not _close(
                bundle.derived.get(key), expected["derived"][key]):
            problems.append(f"derived {key}: {bundle.derived.get(key)}")
    return problems


def check_solve(target=None):
    """Converged, residual within bound, and u within 1000*tol of target."""
    def check(trace):
        problems = []
        if not trace.converged:
            problems.append(trace.message)
        if not trace.final_residual <= trace.residual_bound:
            problems.append(f"residual {trace.final_residual}")
        if target is not None:
            err = float(np.linalg.norm(trace.u_final - target))
            if not err <= 1e3 * trace.tol:
                problems.append(f"|u - target| = {err}")
        return problems
    return check


def check_audit(report):
    if report.passed and report.worst_ratio <= report.bound + 1e-9:
        return []
    return [f"worst ratio {report.worst_ratio} > bound {report.bound}"]


def check_condition(verdict, theta_range=None):
    def check(rep):
        problems = []
        if rep.verdict != verdict:
            problems.append(f"verdict {rep.verdict} != {verdict}")
        if theta_range is not None and not (
                rep.theta is not None
                and theta_range[0] <= rep.theta <= theta_range[1]):
            problems.append(f"theta {rep.theta} outside {theta_range}")
        return problems
    return check


def condition_verdict(inst, rho) -> str:
    """The rate-condition verdict, recomputed from the declared constants."""
    c, q, c_q = inst.constants, inst.space.q, inst.space.c_q
    r = c.mu1 * c.alpha1 ** q - c.mu2 * c.beta1 ** q + c.gamma1 + c.gamma2
    m = c.alpha - c.beta
    radicand = (c.tau ** q + c_q * rho ** q * (c.eps1 * c.l1
                                               + c.eps2 * c.l2) ** q
                - rho * q * (c.sigma + c.delta) * c.tau ** q)
    if radicand < 0:
        return "violated_radicand"
    root = radicand ** (1.0 / q)
    if root <= 0:
        return "violated_lower"
    return "violated_upper" if root >= r + rho * m else "satisfied"


def check_round_trip(inst, rho, z):
    def check(x):
        err = float(np.linalg.norm(vincl.forward(inst, x, rho) - z))
        if err <= 1e-8 * (1 + float(np.linalg.norm(z))):
            return []
        return [f"|forward(resolve(z)) - z| = {err} at rho={rho}"]
    return check


def check_surjective(cert):
    problems = []
    if cert.verdict != "pass":
        problems.append(f"verdict {cert.verdict}: {cert.witness}")
    if any(g["singular"] for g in cert.details.get("grid", [])):
        problems.append("singular grid point")
    if cert.details.get("determinant_positive_roots"):
        problems.append(
            f"roots {cert.details['determinant_positive_roots']}")
    return problems


def solve(p, check, inst, cfg):
    trace = p.op("solve", check, vincl.solve, inst, cfg)
    if trace is not None:
        p.counters["solver.iterations"] += trace.iterations


def certify_instance(p, check, inst, plan, **kwargs):
    bundle = p.op("certify", check, vincl.certify_instance, inst, plan,
                  **kwargs)
    cert = bundle and bundle.certificates.get("surjective_H_plus_rhoM")
    if cert and cert.method == "sampled":
        # rho values the range probes ran on
        p.counters["certify.sampled_rhos"] += len(cert.details["rho_grid"])


# ---------------------------------------------------------------------------
# builtin: every built-in instance, plus two CLI subprocesses
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("verify", ["verify", "--instance", "example_4_7", "--seed", "42"]),
    ("solve", ["solve", "--instance", "example_4_7"]),
)


def run_cli(argv):
    """Run the vincl CLI in a fresh interpreter; (exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "vincl.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def check_cli(name, reference):
    """Exit code 0 and stdout byte-identical to the run's first call."""
    def check(result):
        code, out = result
        reference.setdefault(name, out)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if out != reference[name]:
            problems.append("stdout differs from the first invocation")
        if name == "verify":
            try:
                certs = json.loads(out)["certificates"]
            except (ValueError, KeyError) as exc:
                return problems + [f"unreadable bundle: {exc!r}"]
            failed = [k for k, c in certs.items() if c["verdict"] == "fail"]
            if failed:
                problems.append(f"failed certificates {failed}")
        elif not out.startswith(b"converged"):
            problems.append(out.decode(errors="replace").splitlines()[0])
        return problems
    return check


def build_builtin(seed):
    return {"named": [vincl.get_instance(n) for n in vincl.builtin_names()],
            "plan": vincl.SamplePlan(seed=seed),
            "cli_reference": {}}


def _declares(inst, names):
    return all(getattr(inst.constants, n) is not None for n in names)


def pass_builtin(inputs, p):
    plan = inputs["plan"]
    for named in inputs["named"]:
        inst, exp = named.instance, named.expected
        certify_instance(p, lambda b, e=exp: check_bundle(b, e), inst, plan,
                         rho_grid=exp.get("surjectivity_rho_grid"))
        for cond in exp.get("condition", []):
            p.op("condition",
                 check_condition(cond["verdict"], cond.get("theta_range")),
                 vincl.check_condition_vi, inst, cond["rho"])
        if _declares(inst, R_M_CONSTANTS):
            p.op("audit", check_audit, vincl.audit_lipschitz, inst,
                 vincl.ResolventConfig(rho=inst.rho), plan)
        if "solve" in exp:
            want = exp["solve"]
            target = want.get("target")
            solve(p, check_solve(None if target is None
                                 else np.asarray(target)),
                  inst, vincl.SolverConfig(z0=want["z0"], rho=want["rho"],
                                           tol=SOLVE_TOL))
    for name, argv in CLI_COMMANDS:
        p.op("cli", check_cli(name, inputs["cli_reference"]), run_cli, argv)


# ---------------------------------------------------------------------------
# lifted-400 and blackbox-50: example_4_7 lifted, solved, certified, audited
# ---------------------------------------------------------------------------

def _build_lifted(dim, blackbox):
    def build(seed):
        lifted = lift(vincl.example_4_7(), dim, seed, blackbox=blackbox)
        return {"lifted": lifted, "blackbox": blackbox,
                "z0": lifted.embed(lifted.expected["solve"]["z0"]),
                "plan": vincl.SamplePlan(seed=seed),
                "audit_plan": vincl.SamplePlan(
                    seed=seed, n_pairs=LIFTED_AUDIT_PAIRS,
                    include_lattice=False)}
    return build


def pass_lifted(inputs, p):
    lifted = inputs["lifted"]
    inst, exp = lifted.instance, lifted.expected
    rho = exp["solve"]["rho"]
    solve(p, check_solve(np.zeros(inst.dim)), inst,
          vincl.SolverConfig(z0=inputs["z0"], rho=rho, tol=LIFTED_SOLVE_TOL))
    certify_instance(
        p, lambda b: check_bundle(b, exp, sampled=inputs["blackbox"]),
        inst, inputs["plan"])
    p.op("audit", check_audit, vincl.audit_lipschitz, inst,
         vincl.ResolventConfig(rho=rho), inputs["audit_plan"])


# ---------------------------------------------------------------------------
# rho-sweep-400: one resolve per distinct rho, nothing to amortize
# ---------------------------------------------------------------------------

def build_sweep(seed):
    lifted = lift(vincl.example_4_7(), 400, seed)
    rng = np.random.default_rng([seed, 1])
    return {"inst": lifted.instance,
            "rhos": np.sort(rng.uniform(0.05, 4.0, SWEEP_RHOS)).tolist(),
            "targets": rng.standard_normal((SWEEP_RHOS, 400)),
            "grid": np.sort(rng.uniform(0.05, 4.0, SWEEP_GRID)).tolist()}


def pass_sweep(inputs, p):
    inst = inputs["inst"]
    for rho, z in zip(inputs["rhos"], inputs["targets"]):
        p.op("resolve", check_round_trip(inst, rho, z), vincl.resolve, inst,
             vincl.ResolventConfig(rho=rho), z)
        p.op("condition", check_condition(condition_verdict(inst, rho)),
             vincl.check_condition_vi, inst, rho)
    p.op("certify", check_surjective,
         vincl.certify_generalized_mixed_accretive, inst, inputs["grid"])


WORKLOADS = {
    "builtin": (build_builtin, pass_builtin),
    "lifted-400": (_build_lifted(400, blackbox=False), pass_lifted),
    "blackbox-50": (_build_lifted(50, blackbox=True), pass_lifted),
    "rho-sweep-400": (build_sweep, pass_sweep),
}
