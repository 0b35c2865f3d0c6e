"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

from vincl.certify import SamplePlan, certify_instance
from vincl.instances import example_3_2, example_3_3, example_4_7
from vincl.operators import eval_M_on_point, hausdorff_distance
from vincl.resolvent import (
    NonSurjectiveError,
    ResolventConfig,
    audit_lipschitz,
    resolve,
)
from vincl.solver import (
    GeometricErrors,
    SolverConfig,
    check_condition_vi,
    nadler_select,
    solve,
)
from vincl.space import characteristic_inequality_check, duality_map, inner, norm


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_constant_reproduction_isotropic_instance():
    """Exact-affine certification reproduces (1/4,2), (1/3,1), tau=4,
    alpha=5, beta=7/4 in under a second."""
    t0 = time.perf_counter()
    bundle = certify_instance(example_3_2().instance, SamplePlan(seed=0))
    elapsed = time.perf_counter() - t0
    certs = bundle.certificates
    assert certs["strongly_mixed_cocoercive"].details["mu"] == pytest.approx(0.25, abs=1e-9)
    assert certs["strongly_mixed_cocoercive"].constant == pytest.approx(2.0, abs=1e-9)
    assert certs["relaxed_mixed_cocoercive"].details["mu"] == pytest.approx(1 / 3, abs=1e-9)
    assert certs["relaxed_mixed_cocoercive"].constant == pytest.approx(1.0, abs=1e-9)
    assert certs["mixed_lipschitz"].constant == pytest.approx(4.0, abs=1e-9)
    assert certs["strongly_accretive"].constant == pytest.approx(5.0, abs=1e-9)
    assert certs["relaxed_accretive"].constant == pytest.approx(1.75, abs=1e-9)
    assert all(certs[k].verdict == "pass" for k in
               ("strongly_mixed_cocoercive", "relaxed_mixed_cocoercive",
                "mixed_lipschitz", "strongly_accretive", "relaxed_accretive"))
    assert elapsed < 1.0, f"certification took {elapsed:.3f}s"
    _report(f"1 PASS constants (0.25,2) (1/3,1) tau=4 alpha=5 beta=1.75 "
            f"in {elapsed * 1e3:.0f} ms")


def test_criterion_2_constant_reproduction_main_instance():
    """The full constants block certifies exactly: mu1=10, gamma1=2, mu2=5,
    gamma2=1, alpha1=0.1, tau=2.9, sigma=0.725, delta=0.580, eps1=0.25,
    eps2=0.2, alpha=0.5, beta=0.25, B-Lipschitz at its true slope 0.2,
    r=2.9 and m=0.25."""
    bundle = certify_instance(example_4_7().instance, SamplePlan(seed=0))
    certs = bundle.certificates
    expect = {
        "strongly_mixed_cocoercive": 2.0,
        "relaxed_mixed_cocoercive": 1.0,
        "mixed_lipschitz": 2.9,
        "expansive": 0.1,
        "lipschitz": 0.2,
        "strongly_accretive": 0.5,
        "relaxed_accretive": 0.25,
        "F_strongly_accretive_first": 0.725,
        "F_strongly_accretive_second": 0.580,
        "F_lipschitz_first": 0.25,
        "F_lipschitz_second": 0.2,
    }
    for key, val in expect.items():
        assert certs[key].method == "exact_affine"
        assert certs[key].verdict == "pass", f"{key}: {certs[key].verdict}"
        assert certs[key].constant == pytest.approx(val, abs=1e-9), key
    assert certs["strongly_mixed_cocoercive"].details["mu"] == pytest.approx(10.0, abs=1e-9)
    assert certs["relaxed_mixed_cocoercive"].details["mu"] == pytest.approx(5.0, abs=1e-9)
    assert bundle.derived["r"] == pytest.approx(2.9, abs=1e-9)
    assert bundle.derived["m"] == pytest.approx(0.25, abs=1e-9)
    _report("2 PASS full constants block certified exactly; r=2.9 m=0.25")


def test_criterion_3_condition_and_theta():
    """Rate condition satisfied at rho=0.35 with theta in [0.285, 0.295]
    (checked against an independent one-line evaluation of the formula);
    violated_radicand at rho=3.8."""
    # independent one-line oracle for the limit value
    theta_oracle = (8.41 + 1.0 * 0.35 ** 2 * (0.25 + 0.2) ** 2
                    - 0.35 * 2 * (0.725 + 0.580) * 8.41) ** 0.5 / 2.9875
    assert 0.285 <= theta_oracle <= 0.295

    rep = check_condition_vi(example_4_7().instance, rho=0.35)
    assert rep.verdict == "satisfied"
    assert rep.theta == pytest.approx(theta_oracle, abs=1e-12)
    assert 0.285 <= rep.theta <= 0.295

    rep_big = check_condition_vi(example_4_7().instance, rho=3.8)
    assert rep_big.verdict == "violated_radicand"
    _report(f"3 PASS condition satisfied at rho=0.35 with "
            f"theta={rep.theta:.6f}; violated_radicand at rho=3.8")


def test_criterion_4_resolvent_lipschitz_audit():
    """Worst sampled contraction quotient respects 1/(r+rho*m) on both
    affine instances, each in under five seconds."""
    t0 = time.perf_counter()
    rep47 = audit_lipschitz(example_4_7().instance,
                            ResolventConfig(rho=0.35), SamplePlan(seed=4))
    t47 = time.perf_counter() - t0
    assert rep47.n_pairs >= 512
    assert rep47.bound == pytest.approx(1 / 2.9875, rel=1e-12)
    assert rep47.worst_ratio <= 1 / 2.9875 + 1e-9
    assert rep47.passed and t47 < 5.0

    t0 = time.perf_counter()
    rep32 = audit_lipschitz(example_3_2().instance,
                            ResolventConfig(rho=1.0), SamplePlan(seed=5))
    t32 = time.perf_counter() - t0
    # bound recomputed from the certified constants: r=4, m=3.25
    assert rep32.r == pytest.approx(4.0, abs=1e-12)
    assert rep32.m == pytest.approx(3.25, abs=1e-12)
    assert rep32.worst_ratio <= rep32.bound + 1e-9
    assert rep32.passed and t32 < 5.0
    _report(f"4 PASS audits: worst {rep47.worst_ratio:.6f} <= "
            f"{rep47.bound:.6f} ({t47:.2f}s) and {rep32.worst_ratio:.6f} <= "
            f"{rep32.bound:.6f} ({t32:.2f}s)")


def test_criterion_5_convergence_rate_and_recovery():
    """Homogeneous solve converges with tail step ratios within the
    step-ratio bound + 0.05, and constructed solutions are recovered to
    1e-8 for 20 seeded targets.

    The declared sigma, delta are displacement-normalized, so the literal
    rate formula (theta about 0.2904, criterion 3) does not bound the true
    step ratio (about 0.9159); the bound the derivation actually yields
    uses the H-increment normalization and evaluates to about 0.91799,
    reported as trace.theta_rate_bound.  Ratios are asserted against it.
    """
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    assert trace.converged
    assert np.linalg.norm(trace.u_final) <= 1e-10
    bound = trace.theta_rate_bound
    assert bound == pytest.approx(0.9179916, abs=1e-6)
    ratios = trace.ratios
    assert len(ratios) > 20
    for ratio in ratios[10:]:
        assert ratio <= bound + 0.05

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        u_star = 2.0 * rng.standard_normal(2)
        omega = (np.asarray(inst.F(u_star, u_star))
                 + eval_M_on_point(inst, u_star)[0])
        tr = solve(inst.with_(omega=omega),
                   SolverConfig(z0=[0.0, 0.0], tol=1e-12))
        assert tr.converged
        err = float(np.linalg.norm(tr.u_final - u_star))
        worst = max(worst, err)
        assert err <= 1e-8
    _report(f"5 PASS rate: tail ratio {max(ratios[10:]):.6f} <= "
            f"{bound:.6f}+0.05; 20 recoveries worst error {worst:.2e}")


def test_criterion_6_non_surjectivity_detection():
    """The degenerate composite raises the non-surjective error from the
    resolvent and fails the class certificate with the constant-image
    witness of norm 2."""
    named = example_3_3(trunc_dim=8, n_index=3)
    with warnings.catch_warnings(), pytest.raises(NonSurjectiveError) as exc:
        warnings.simplefilter("error", LinAlgWarning)
        resolve(named.instance, ResolventConfig(rho=1.0), np.zeros(8))
    assert exc.value.defect["image_norm"] == pytest.approx(2.0, abs=1e-12)

    bundle = certify_instance(named.instance, SamplePlan(seed=6),
                              rho_grid=[1.0])
    cert = bundle.certificates["surjective_H_plus_rhoM"]
    assert cert.verdict == "fail"
    assert cert.witness["image_norm"] == pytest.approx(2.0, abs=1e-12)
    assert cert.witness["image_norm"] >= 1.0    # consistent with the bound
    _report("6 PASS degenerate composite detected; witness ||image|| = 2")


def test_criterion_7_error_sequence_robustness():
    """Solve still converges under geometric errors (c0=0.1, factor=0.5),
    the error terms vanish in-trace, and the final residual meets the
    fixed-point bound."""
    inst = example_4_7().instance
    tol = 1e-10
    trace = solve(inst, SolverConfig(
        z0=[1.0, 1.0], tol=tol,
        errors=GeometricErrors(c0=0.1, factor=0.5,
                               direction=np.array([1.0, 0.0]))))
    assert trace.converged
    err_norms = [r.error_norm for r in trace.records]
    assert err_norms[0] > 0
    assert err_norms[-1] <= 1e-12
    assert all(b <= a + 1e-15 for a, b in zip(err_norms, err_norms[1:]))
    bound = 10 * tol * (1 + norm(inst.omega))
    assert trace.final_residual <= bound
    _report(f"7 PASS geometric errors: converged, lim e_n = 0, residual "
            f"{trace.final_residual:.2e} <= {bound:.2e}")


def test_criterion_8_property_suites():
    """Duality pairing identities for q in {2,3,4} on 1000 seeded vectors,
    the smoothness characteristic inequality universally at q=2 c_q=1,
    the Hausdorff triangle inequality on 500 seeded triples, and exact
    nadler membership."""
    for q in (2.0, 3.0, 4.0):
        rng = np.random.default_rng(int(q) * 101)
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(6)
            j = duality_map(x, q)
            nx = norm(x)
            assert inner(x, j) == pytest.approx(nx ** q, rel=1e-12, abs=1e-12)
            assert norm(j) == pytest.approx(nx ** (q - 1), rel=1e-12, abs=1e-12)

    rng = np.random.default_rng(808)
    for _ in range(1000):
        x, y = 4.0 * rng.standard_normal((2, 5))
        assert characteristic_inequality_check(x, y, 2.0, 1.0)

    rng = np.random.default_rng(809)
    for _ in range(500):
        a = rng.standard_normal((rng.integers(1, 6), 3))
        b = rng.standard_normal((rng.integers(1, 6), 3))
        c = rng.standard_normal((rng.integers(1, 6), 3))
        assert (hausdorff_distance(a, b)
                <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12)

    rng = np.random.default_rng(810)
    for _ in range(500):
        pts = [rng.standard_normal(3) for _ in range(rng.integers(1, 7))]
        out = nadler_select(rng.standard_normal(3), pts)
        assert any(out is p or np.array_equal(out, p) for p in pts)
    _report("8 PASS duality/characteristic/Hausdorff/selection sweeps")


def test_criterion_9_cli_determinism():
    """Two CLI runs of verify with the same seed emit byte-identical JSON."""
    cmd = [sys.executable, "-m", "vincl.cli", "verify", "--instance",
           "example_4_7", "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=120)
    r2 = subprocess.run(cmd, capture_output=True, timeout=120)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout) > 100
    json.loads(r1.stdout)       # well-formed
    _report("9 PASS verify --seed 42 byte-identical across runs")
