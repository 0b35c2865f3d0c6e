import dataclasses

import numpy as np
import pytest
from scipy.linalg import lapack

import vincl.operators
import vincl.resolvent
import vincl.solver
import vincl.space
from vincl.instances import builtin_names, example_3_2, example_4_7, get_instance
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    MissingConstantsError,
    eval_H_on_point,
    eval_M_on_point,
    set_values,
)
from vincl.resolvent import ResolventConfig, audit_lipschitz, resolve
from vincl.solver import (
    DivergenceError,
    GeometricErrors,
    SolverConfig,
    TRACE_SCHEMA,
    check_condition_vi,
    contraction_factor_bound,
    nadler_select,
    solve,
    theta,
)
from vincl.space import SpaceConfig


# ---------------------------------------------------------------------------
# the rate condition and theta
# ---------------------------------------------------------------------------

def test_condition_satisfied_at_operative_rho():
    rep = check_condition_vi(example_4_7().instance, rho=0.35)
    assert rep.verdict == "satisfied"
    assert rep.radicand == pytest.approx(0.75227125, abs=1e-9)
    assert 0.285 <= rep.theta <= 0.295
    assert rep.r_plus_rho_m == pytest.approx(2.9875, abs=1e-12)
    assert rep.terms["tau_term"] == pytest.approx(8.41)
    assert rep.terms["coupling_term"] == pytest.approx(0.7 * 1.305 * 8.41)


def test_condition_violated_radicand_at_large_rho():
    rep = check_condition_vi(example_4_7().instance, rho=3.8)
    assert rep.verdict == "violated_radicand"
    assert rep.radicand == pytest.approx(-72.07628, abs=1e-6)
    assert rep.theta is None and rep.root is None


def test_condition_boundary_zero_radicand():
    dim = 2
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.zero(dim), B=AffineMap.zero(dim),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.identity(dim), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(tau=0.0, eps1=0.0, eps2=0.0, l1=1.0, l2=1.0,
                            sigma=0.1, delta=0.1, mu1=1.0, mu2=0.5,
                            gamma1=1.0, gamma2=1.0, alpha1=1.0, beta1=0.5,
                            alpha=1.0, beta=0.5))
    rep = check_condition_vi(inst, rho=1.0)
    assert rep.radicand == pytest.approx(0.0, abs=1e-15)
    assert rep.verdict == "violated_lower"       # not strictly > 0


def test_condition_missing_constants_named():
    with pytest.raises(MissingConstantsError) as exc:
        check_condition_vi(example_3_2().instance, rho=1.0)
    assert "sigma" in exc.value.names or "sigma" in str(exc.value)


def test_theta_limit_and_finite_n():
    inst = example_4_7().instance
    th = theta(inst, 0.35)
    assert th == pytest.approx(0.2903215796870934, abs=1e-9)
    th1 = theta(inst, 0.35, n=1)
    assert th1 > th
    # monotone decreasing toward the limit
    prev = th1
    for n in (2, 5, 10, 100, 1000):
        cur = theta(inst, 0.35, n=n)
        assert cur < prev
        assert cur >= th
        prev = cur
    assert theta(inst, 0.35, n=10 ** 9) == pytest.approx(th, abs=1e-7)


def test_theta_negative_radicand_raises():
    with pytest.raises(ValueError, match="radicand"):
        theta(example_4_7().instance, 3.8)


def test_theta_closed_form_without_F_terms():
    # eps1 = eps2 = 0 collapses the formula to tau*sqrt(1-2*rho*(s+d))/(r+rho*m)
    dim = 2
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.scaling(2.0, dim), B=AffineMap.scaling(-0.5, dim),
        C=AffineMap.identity(dim), D=AffineMap.identity(dim),
        f=AffineMap.scaling(2.0, dim), g=AffineMap.scaling(0.5, dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(tau=3.5, eps1=0.0, eps2=0.0, l1=1.0, l2=1.0,
                            sigma=0.1, delta=0.15, mu1=1.0, mu2=0.5,
                            gamma1=1.0, gamma2=1.0, alpha1=2.0, beta1=0.5,
                            alpha=2.0, beta=0.5))
    rho = 1.0
    s_plus_d = 0.25
    r = 1.0 * 4.0 - 0.5 * 0.25 + 2.0
    m = 1.5
    expected = 3.5 * np.sqrt(1 - 2 * rho * s_plus_d) / (r + rho * m)
    assert theta(inst, rho) == pytest.approx(expected, rel=1e-12)


def _flat_rate(**constants):
    """example_4_7 with r = m = 0 (alpha = beta, mu1 = mu2 = 0, gamma1 =
    -gamma2), so r + rho*m = 0 at every rho; `constants` override more."""
    inst = example_4_7().instance
    flat = dict(alpha=0.25, beta=0.25, mu1=0.0, mu2=0.0, gamma1=-1.0,
                gamma2=1.0)
    return inst.with_(constants=dataclasses.replace(
        inst.constants, **{**flat, **constants}))


@pytest.mark.parametrize("gamma1", [-1.0, -2.0], ids=["zero", "negative"])
def test_rate_is_undefined_where_r_plus_rho_m_is_not_positive(gamma1):
    inst = _flat_rate(gamma1=gamma1)
    for n in (None, 3):
        with pytest.raises(ValueError, match=r"r \+ rho\*m = -?[01]$"):
            theta(inst, n=n)
        assert contraction_factor_bound(inst, n=n) is None
    rep = check_condition_vi(inst)
    assert rep.r_plus_rho_m == gamma1 + 1.0 and rep.root > 0
    assert rep.theta is None and rep.theta_rate_bound is None
    assert rep.verdict == "violated_upper"
    with pytest.raises(ValueError, match=r"r \+ rho\*m = -?[01]$"):
        audit_lipschitz(inst, ResolventConfig(rho=inst.rho))
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    assert trace.converged
    assert trace.theta_declared is None and trace.theta_rate_bound is None
    assert all(rec.theta_n is None for rec in trace.records)


def test_rate_undefined_at_root_zero_is_violated_lower():
    rep = check_condition_vi(_flat_rate(tau=0.0, eps1=0.0, eps2=0.0))
    assert rep.root == 0.0 and rep.r_plus_rho_m == 0.0
    assert rep.theta is None and rep.theta_rate_bound is None
    assert rep.verdict == "violated_lower"


def test_contraction_factor_bound_dominates_true_rate():
    inst = example_4_7().instance
    bound = contraction_factor_bound(inst, 0.35)
    assert bound == pytest.approx(0.9179916317991631, abs=1e-9)
    # true one-step ratio of the affine iteration
    lm = np.asarray(inst.f.matrix) - np.asarray(inst.g.matrix)
    G = 2.9 * np.eye(2) + 0.35 * lm
    T = np.linalg.inv(G) @ ((2.9 - 0.35 * 0.45) * np.eye(2))
    true_rate = max(abs(np.linalg.eigvals(T)))
    assert true_rate <= bound + 1e-12
    assert bound < 1.0


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------

def test_nadler_select_nearest():
    out = nadler_select([0.0, 0.0], [[1.0, 0.0], [3.0, 0.0]])
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_nadler_select_tie_breaks_by_order():
    out = nadler_select([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(out, [1.0, 0.0])
    flipped = nadler_select([0.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(flipped, [-1.0, 0.0])


def test_nadler_select_identity_image():
    u = np.array([0.4, -0.2])
    out = nadler_select(np.zeros(2), [u])
    np.testing.assert_array_equal(out, u)


def test_nadler_select_membership():
    rng = np.random.default_rng(20)
    for _ in range(200):
        pts = [rng.standard_normal(3) for _ in range(rng.integers(1, 6))]
        cur = rng.standard_normal(3)
        out = nadler_select(cur, pts)
        assert any(np.array_equal(out, p) for p in pts)


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

def test_solve_homogeneous_converges_to_zero():
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    assert trace.converged
    assert np.linalg.norm(trace.u_final) <= 1e-10
    bound = trace.theta_rate_bound
    for ratio in trace.ratios[10:]:
        assert ratio <= bound + 0.05


def test_solve_recovers_constructed_solution():
    inst = example_4_7().instance
    rng = np.random.default_rng(21)
    for _ in range(5):
        u_star = rng.standard_normal(2)
        omega = (np.asarray(inst.F(u_star, u_star))
                 + eval_M_on_point(inst, u_star)[0])
        trace = solve(inst.with_(omega=omega),
                      SolverConfig(z0=[0.0, 0.0], tol=1e-12))
        assert trace.converged
        assert np.linalg.norm(trace.u_final - u_star) <= 1e-8


def test_solve_stops_immediately_at_fixed_point():
    inst = example_4_7().instance     # omega = 0, fixed point u = 0, z = 0
    trace = solve(inst, SolverConfig(z0=[0.0, 0.0], tol=1e-10))
    assert trace.converged
    assert trace.iterations == 1
    assert trace.steps[0] <= 1e-10


def test_solve_residual_confirmation():
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-10))
    assert trace.converged
    assert trace.final_residual <= trace.residual_bound


def test_solve_fixed_point_characterization():
    # the converged iterate reproduces itself through one exact update:
    # u = resolve(H(u) - rho*F(v, w) + rho*omega) within 10*tol
    from vincl.operators import eval_H_on_point
    from vincl.resolvent import ResolventConfig, resolve
    inst = example_4_7().instance
    tol = 1e-11
    rng = np.random.default_rng(22)
    for _ in range(3):
        u_star = rng.standard_normal(2)
        omega = (np.asarray(inst.F(u_star, u_star))
                 + eval_M_on_point(inst, u_star)[0])
        inst2 = inst.with_(omega=omega)
        trace = solve(inst2, SolverConfig(z0=[0.0, 0.0], tol=tol))
        assert trace.converged
        rec = trace.records[-1]
        z = (eval_H_on_point(inst2, rec.u) - 0.35 * np.asarray(
             inst2.F(rec.v, rec.w)) + 0.35 * inst2.omega)
        u_back = resolve(inst2, ResolventConfig(rho=0.35), z)
        assert np.linalg.norm(u_back - rec.u) <= 10 * tol


def test_solve_with_geometric_errors():
    inst = example_4_7().instance
    errors = GeometricErrors(c0=0.1, factor=0.5,
                             direction=np.array([1.0, 0.0]))
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-10,
                                     errors=errors))
    assert trace.converged
    assert trace.varpi == pytest.approx(0.75)
    norms = [r.error_norm for r in trace.records]
    assert norms[0] == pytest.approx(0.1)
    assert norms[-1] < 1e-12              # e_n -> 0 observed in-trace
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))
    assert trace.final_residual <= trace.residual_bound


def test_geometric_errors_validation():
    with pytest.raises(ValueError):
        GeometricErrors(c0=0.1, factor=1.0, direction=np.ones(2))
    with pytest.raises(ValueError):
        GeometricErrors(c0=0.1, factor=0.0, direction=np.ones(2))


def test_solve_cauchy_tail_bound():
    # partial sums of steps beyond n are controlled by the measured ratio
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    steps = trace.steps
    theta0 = max(trace.ratios[10:]) + 1e-6
    assert theta0 < 1.0
    n = 15
    tail = sum(steps[n + 1:])
    assert tail <= steps[n] * theta0 / (1.0 - theta0) * (1.0 + 1e-6)


def test_solve_divergence_guard():
    # amplifying pair map makes the iteration expand; the guard must trip
    dim = 2
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.identity(dim), B=AffineMap.zero(dim),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.identity(dim), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(-10.0 * np.eye(dim), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0)
    with pytest.raises(DivergenceError) as exc:
        solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12, max_iters=500))
    assert exc.value.trace.iterations == 21
    assert str(exc.value) == ("step norm grew more than 10x over 20 "
                              "iterations (3.182e+00 -> 2.042e+15)")


def _reference_iterates(inst, z0, rho, n_iters):
    """The iteration with a fresh `resolve` per step and no error terms."""
    rcfg = ResolventConfig(rho=rho)
    u = resolve(inst, rcfg, np.asarray(z0, dtype=float))
    v = nadler_select(u, set_values(inst.S, u))
    w = nadler_select(u, set_values(inst.T, u))
    out = []
    for _ in range(n_iters):
        z = (eval_H_on_point(inst, u) - rho * np.asarray(inst.F(v, w))
             + rho * inst.omega)
        u = resolve(inst, rcfg, z)
        v = nadler_select(v, set_values(inst.S, u))
        w = nadler_select(w, set_values(inst.T, u))
        out.append(u)
    return out


@pytest.mark.parametrize("name", [n for n in builtin_names()
                                  if "solve" in get_instance(n).expected])
def test_solve_matches_per_step_resolve(name):
    named = get_instance(name)
    want = named.expected["solve"]
    trace = solve(named.instance, SolverConfig(z0=want["z0"],
                                               rho=want["rho"], tol=1e-12))
    ref = _reference_iterates(named.instance, want["z0"], want["rho"],
                              trace.iterations)
    for rec, u in zip(trace.records, ref):
        np.testing.assert_allclose(rec.u, u, rtol=0, atol=1e-12)


def _counting(monkeypatch, counts, module, name, owners=()):
    """Count the calls of module.name in counts[name], also through the
    names `owners` imported it under."""
    original = getattr(module, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    for owner in (module, *owners):
        monkeypatch.setattr(owner, name, wrapper)


def test_solve_factors_composite_once(monkeypatch):
    # one LAPACK getrf of the composite, no inverse and no SVD: the
    # symmetric-part bound decides invertibility, and nothing reads a
    # singular value
    counts = {}
    _counting(monkeypatch, counts, lapack, "dgetrf")
    _counting(monkeypatch, counts, lapack, "dgetri")
    _counting(monkeypatch, counts, np.linalg, "svd")
    trace = solve(example_4_7().instance,
                  SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    assert trace.iterations == 282
    assert counts == {"dgetrf": 1, "dgetri": 0, "svd": 0}


def test_solve_checks_each_set_value_once(monkeypatch):
    # per iteration: S and T each checked once, by `set_values`; the
    # remaining as_vector calls check the points and images of H, M and F
    # and the resolvent's z.  H and M are one matvec each on the pencil:
    # no slot map A..D, f or g is called
    counts = {}
    for name in ("as_vector", "as_rows"):
        _counting(monkeypatch, counts, vincl.space, name,
                  (vincl.operators, vincl.resolvent, vincl.solver))
    _counting(monkeypatch, counts, AffineMap, "__call__")
    inst = example_4_7().instance
    solve(inst, SolverConfig(z0=[1.0, 1.0], max_iters=1))   # builds the pencil
    per_run = []
    for n in (10, 20):
        counts.update(dict.fromkeys(counts, 0))
        solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12, max_iters=n))
        per_run.append(dict(counts))
    assert {k: (per_run[1][k] - per_run[0][k]) / 10 for k in counts} == \
        {"as_vector": 8, "as_rows": 2, "__call__": 0}


def test_solve_propagates_unexpected_theta_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a missing constant")
    monkeypatch.setattr(vincl.solver, "_Rate", broken)
    with pytest.raises(ZeroDivisionError):
        solve(example_4_7().instance, SolverConfig(z0=[1.0, 1.0]))


def test_trace_csv_schema_and_determinism():
    inst = example_4_7().instance
    cfg = SolverConfig(z0=[1.0, 1.0], tol=1e-10)
    t1 = solve(inst, cfg).to_csv()
    t2 = solve(inst, cfg).to_csv()
    assert t1 == t2
    header = t1.splitlines()[0].split(",")
    assert header[:6] == ["schema", "n", "step", "ratio", "residual",
                          "theta_n"]
    assert header[6:] == ["u_0", "u_1"]
    first_row = t1.splitlines()[1].split(",")
    assert first_row[0] == TRACE_SCHEMA


def test_trace_theta_n_column_monotone():
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-10))
    th = [r.theta_n for r in trace.records if r.theta_n is not None]
    assert all(b < a for a, b in zip(th, th[1:]))
    limit = theta(inst, 0.35)
    assert all(v >= limit for v in th)


@pytest.mark.parametrize("name", ["example_4_7", "reduction_pair_slots"])
def test_trace_theta_n_is_theta_to_the_bit(name):
    # the loop reads the rate terms once; each record still holds what
    # `theta` gives at n + 1, to the last bit
    named = get_instance(name)
    want = named.expected["solve"]
    trace = solve(named.instance, SolverConfig(z0=want["z0"],
                                               rho=want["rho"], tol=1e-12))
    assert trace.iterations > 10
    for rec in trace.records:
        assert rec.theta_n is not None
        assert rec.theta_n == theta(named.instance, want["rho"], rec.n + 1)


def test_zero_error_sequence_records_zero_norm():
    trace = solve(example_4_7().instance,
                  SolverConfig(z0=[1.0, 1.0], tol=1e-12))
    assert all(type(rec.error_norm) is float and rec.error_norm == 0.0
               for rec in trace.records)


def test_solve_summary_json_fields():
    inst = example_4_7().instance
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-10))
    summary = trace.summary_dict()
    for key in ("converged", "iterations", "final_residual",
                "observed_rate", "theta_declared", "theta_rate_bound"):
        assert key in summary
    assert summary["theta_declared"] == pytest.approx(0.29032157, abs=1e-6)
    assert summary["theta_rate_bound"] == pytest.approx(0.91799163, abs=1e-6)
