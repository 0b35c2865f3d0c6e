import collections
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from test_scale_invariance import lift, variant
import vincl.operators
import vincl.resolvent
import vincl.solver
import vincl.space
from vincl.cli import EXIT_NO_CONVERGENCE, main
from vincl.instances import builtin_names, example_3_2, example_4_7, get_instance
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    ConstantSetMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    MissingConstantsError,
    SingletonSetMap,
    dump_instance,
    eval_H_on_point,
    eval_M_on_point,
    set_values,
    step_composite,
)
from vincl.resolvent import (_SMALL_DIM, Resolvent, ResolventConfig,
                             audit_lipschitz, resolve)
from vincl.solver import (
    DivergenceError,
    GeometricErrors,
    IterationRecord,
    SolverConfig,
    TRACE_SCHEMA,
    check_condition_vi,
    contraction_factor_bound,
    nadler_select,
    solve,
    theta,
)
from vincl.space import NonFiniteError, SpaceConfig, slack


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


def _expanding(gain: float) -> InclusionInstance:
    """u -> u under H and M, F(v, w) = gain * v: for gain < -1 the
    iteration expands."""
    dim = 2
    return InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.identity(dim), B=AffineMap.zero(dim),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.identity(dim), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(gain * np.eye(dim), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0)


def test_solve_divergence_guard():
    # amplifying pair map makes the iteration expand; the guard must trip
    with pytest.raises(DivergenceError) as exc:
        solve(_expanding(-10.0),
              SolverConfig(z0=[1.0, 1.0], tol=1e-12, max_iters=500))
    assert exc.value.trace.iterations == 21
    assert str(exc.value) == ("step norm grew more than 10x over 20 "
                              "iterations (3.182e+00 -> 2.042e+15)")


def test_solve_reports_an_overflowing_iterate_as_divergence(tmp_path):
    # at gain -1e150 the second z overflows before the growth window
    # fills: a DivergenceError with the partial trace, with no numpy
    # warning on the way, and the CLI's exit code 2
    inst = _expanding(-1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError,
                           match="^iterate became non-finite$") as exc:
            solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12,
                                     max_iters=500))
    trace = exc.value.trace
    assert trace.iterations == 1
    assert np.isfinite(trace.u_final).all()
    path = tmp_path / "overflowing.json"
    dump_instance(inst, str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--instance", str(path)]) == EXIT_NO_CONVERGENCE


def test_an_overflowing_step_matrix_ends_solve_as_divergence():
    # F's first matrix times an affine selection's overflows to inf: the
    # composed step's matrix meets the array rule of `AffineMap`, which
    # solve turns into its DivergenceError, with no numpy warning
    big = 1e200 * np.eye(2)
    inst = _expanding(1.0).with_(
        S=SingletonSetMap(AffineMap(big, np.zeros(2))),
        F=AffinePairMap(big, np.zeros((2, 2)), np.zeros(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError,
                           match="^iterate became non-finite$") as exc:
            solve(inst, SolverConfig(z0=[1.0, 1.0]))
    assert exc.value.trace.iterations == 0


def test_black_box_copy_trips_the_divergence_guard_alike():
    # the general step on the chord resolvent grows as the composed one
    with pytest.raises(DivergenceError) as exc:
        solve(variant(_expanding(-10.0), 1.0, blackbox=True),
              SolverConfig(z0=[1.0, 1.0], tol=1e-12, max_iters=500))
    assert exc.value.trace.iterations == 21
    assert str(exc.value) == ("step norm grew more than 10x over 20 "
                              "iterations (3.182e+00 -> 2.042e+15)")


def test_black_box_copy_reports_an_overflowing_iterate_as_divergence():
    inst = variant(_expanding(-1e150), 1.0, blackbox=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError,
                           match="^iterate became non-finite$") as exc:
            solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12,
                                     max_iters=500))
    assert exc.value.trace.iterations == 1
    assert np.isfinite(exc.value.trace.u_final).all()


@pytest.mark.parametrize("blackbox", [False, True],
                         ids=["composed", "general"])
def test_solve_from_an_overflowing_u0_is_divergence(blackbox):
    # the start-up runs under the loop's errstate and its non-finite
    # check: K u0 (composed) or H(u0) (general) overflows, with no numpy
    # warning, and the run ends before its first record.  The composed
    # start-up warned, the general one raised NonFiniteError
    inst = variant(example_4_7().instance, 1.0, blackbox=blackbox)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError,
                           match="^iterate became non-finite$") as exc:
            solve(inst, SolverConfig(z0=[1.0, 1.0], u0=[1e308, 1e308]))
    assert exc.value.trace.iterations == 0
    assert Resolvent(inst, ResolventConfig(rho=inst.rho)).exact != blackbox


def _reference_loop(inst, z0, rho, tol, u0=None, errors=None):
    """The iteration written plainly, with a fresh `resolve` per step and
    H(u_n) and M(f(u_n), g(u_n)) evaluated at each iterate, not taken
    from the resolve: the (z, u, v, w, step, residual) of each step, and
    whether it converged."""
    rcfg = ResolventConfig(rho=rho)
    bound = 10.0 * tol * (1.0 + float(np.linalg.norm(inst.omega)))
    u = (resolve(inst, rcfg, np.asarray(z0, dtype=float)) if u0 is None
         else np.asarray(u0, dtype=float))
    v = nadler_select(u, set_values(inst.S, u))
    w = nadler_select(u, set_values(inst.T, u))
    fvw = np.asarray(inst.F(v, w))
    steps = []
    for n in range(5000):     # solve adds a zero error term as 0.0
        e_n = 0.0 if errors is None else errors.term(n)
        z = eval_H_on_point(inst, u) - rho * fvw + rho * inst.omega + e_n
        u_next = resolve(inst, rcfg, z)
        v = nadler_select(v, set_values(inst.S, u_next))
        w = nadler_select(w, set_values(inst.T, u_next))
        step = float(np.linalg.norm(u_next - u))
        fvw = np.asarray(inst.F(v, w))
        residual = min(float(np.linalg.norm(inst.omega - fvw - m))
                       for m in eval_M_on_point(inst, u_next))
        steps.append((z, u_next, v, w, step, residual))
        u = u_next
        if step <= tol and residual <= bound:
            return steps, True
    return steps, False


def _assert_records_equal(records, steps):
    """Each record's z, u, v, w, step and residual those of the step, to
    the bit."""
    for rec, (z, u, v, w, step, residual) in zip(records, steps):
        for got, want in ((rec.z, z), (rec.u, u), (rec.v, v), (rec.w, w)):
            np.testing.assert_array_equal(got, want)
        assert (rec.step, rec.residual) == (step, residual)


def _assert_records_close(records, steps, omega):
    """Each record's z, u, v, w and residual within `slack` of the norms
    of the step's z, u, v, w and omega."""
    for rec, (z, u, v, w, _, residual) in zip(records, steps):
        scale = sum(np.linalg.norm(x) for x in (z, u, v, w, omega))
        for got, want in ((rec.z, z), (rec.u, u), (rec.v, v), (rec.w, w)):
            assert np.all(np.abs(got - want) <= slack(scale))
        assert abs(rec.residual - residual) <= slack(scale)


def _affine_cases():
    for name in builtin_names():
        named = get_instance(name)
        if "solve" in named.expected:
            want = named.expected["solve"]
            yield name, named.instance, want["z0"], want["rho"]
    yield "example_3_2", example_3_2().instance, [1.0, 1.0], 1.0
    yield "example_4_7_dim_20", lift(example_4_7().instance, 20), \
        np.ones(20), 0.35


@pytest.mark.parametrize("case", list(_affine_cases()),
                         ids=lambda case: case[0])
def test_solve_matches_per_step_resolve(case):
    # on the exact path solve takes H(u_n) = z_n - rho*m_n, which differs
    # from the evaluated H(u_n) by the rounding of the solve, far below
    # the relative tolerance of a verdict
    _, inst, z0, rho = case
    trace = solve(inst, SolverConfig(z0=z0, rho=rho, tol=1e-10))
    steps, converged = _reference_loop(inst, z0, rho, 1e-10)
    assert Resolvent(inst, ResolventConfig(rho=rho)).path == "exact"
    assert trace.converged and converged
    assert trace.iterations == len(steps)
    assert trace.final_residual <= trace.residual_bound
    for rec, (z, u, *_) in zip(trace.records, steps):
        assert np.all(np.abs(rec.z - z) <= slack(np.linalg.norm(z)))
        assert np.all(np.abs(rec.u - u) <= slack(np.linalg.norm(u)))


def _two_member(a, b):
    """A set-valued coupling: M(a, b) = {a - b, (a - b) / 2}."""
    return (a - b, 0.5 * (a - b))


def _counting_maps(inst, calls, names):
    """`inst` with each map in `names` behind a plain callable that counts
    its calls in `calls`, which makes the instance a black box."""
    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    return inst.with_(**{n: counted(n, getattr(inst, n)) for n in names})


def _black_box_cases():
    e47 = example_4_7().instance
    yield "example_4_7_A_f", _counting_maps(
        e47, collections.Counter(), ("A", "f")), [1.0, 1.0], 0.35
    yield "two_member_M", e47.with_(M=_two_member), [1.0, -2.0], 0.35
    for name, inst, z0, rho in _affine_cases():
        yield name, variant(inst, 1.0, blackbox=True), z0, rho


@pytest.mark.parametrize("case", list(_black_box_cases()),
                         ids=lambda case: case[0])
def test_black_box_solve_matches_per_step_resolve_to_the_bit(case):
    # the chord resolve's last residual evaluated H and M at the x it
    # returns, so taking them from it changes no bit
    _, inst, z0, rho = case
    trace = solve(inst, SolverConfig(z0=z0, rho=rho, tol=1e-10))
    steps, converged = _reference_loop(inst, z0, rho, 1e-10)
    assert Resolvent(inst, ResolventConfig(rho=rho)).path == "chord"
    assert trace.converged and converged
    assert trace.iterations == len(steps)
    _assert_records_equal(trace.records, steps)


def test_black_box_solve_calls_the_maps_once_per_resolve_residual():
    # 3 probe evaluations, then one residual per resolve: the initial one
    # and one per iteration.  Evaluating H(u_n) and M at u_(n+1) again
    # in the loop took 462 calls of A and of f
    calls = collections.Counter()
    inst = _counting_maps(example_4_7().instance, calls, ("A", "f", "F"))
    trace = solve(inst, SolverConfig(z0=[1, 1], tol=1e-10))
    assert trace.converged and trace.iterations == 229
    assert calls == {"A": 233, "f": 233, "F": 230}


def _counting(monkeypatch, counts, module, name, owners=(), key=None):
    """Count the calls of module.name in counts[key], key defaulting to
    name, also through the names `owners` imported it under."""
    original = getattr(module, name)
    key = key or name
    counts[key] = 0

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    for owner in (module, *owners):
        monkeypatch.setattr(owner, name, wrapper)


def _solve_counting_factorizations(monkeypatch, inst):
    """solve(inst) from z0 = 1, and the calls it made of numpy's inv, of
    LAPACK getrf and getri and of numpy's svd."""
    counts = {}
    _counting(monkeypatch, counts, np.linalg, "inv")
    _counting(monkeypatch, counts, lapack, "dgetrf")
    _counting(monkeypatch, counts, lapack, "dgetri")
    _counting(monkeypatch, counts, np.linalg, "svd")
    trace = solve(inst, SolverConfig(z0=np.ones(inst.dim), tol=1e-12))
    return trace, counts


def test_solve_factors_composite_once(monkeypatch):
    # one inverse of the dim-2 composite by numpy, no LU, no getri and no
    # SVD: the symmetric-part bound decides invertibility, and nothing
    # reads a singular value
    trace, counts = _solve_counting_factorizations(
        monkeypatch, example_4_7().instance)
    assert trace.iterations == 282
    assert counts == {"inv": 1, "dgetrf": 0, "dgetri": 0, "svd": 0}


def test_solve_factors_a_composite_past_the_small_dimension_once(monkeypatch):
    # at dim 20 one LAPACK getrf takes the inverse's place
    trace, counts = _solve_counting_factorizations(
        monkeypatch, lift(example_4_7().instance, 20))
    assert trace.converged
    assert counts == {"inv": 0, "dgetrf": 1, "dgetri": 0, "svd": 0}


_TWO_POINTS = ConstantSetMap(np.array([[0.0, 0.0], [1.0, -1.0]]))


def _calls_per_iteration(monkeypatch, inst):
    """The calls solve(inst) makes per iteration of as_vector, as_rows and
    the affine maps' and pair maps' `__call__`: those of 20 iterations
    less those of 10, over 10."""
    counts = {}
    for name in ("as_vector", "as_rows"):
        _counting(monkeypatch, counts, vincl.space, name,
                  (vincl.operators, vincl.resolvent, vincl.solver))
    for cls in (AffineMap, AffinePairMap):
        _counting(monkeypatch, counts, cls, "__call__", key=cls.__name__)
    solve(inst, SolverConfig(z0=[1.0, 1.0], max_iters=1))   # builds the pencil
    per_run = []
    for n in (10, 20):
        counts.update(dict.fromkeys(counts, 0))
        solve(inst, SolverConfig(z0=[1.0, 1.0], tol=1e-12, max_iters=n))
        per_run.append(dict(counts))
    return {k: (per_run[1][k] - per_run[0][k]) / 10 for k in counts}


def test_solve_checks_each_set_value_once(monkeypatch):
    # a set-valued S keeps example_4_7 on the general step.  Per
    # iteration: S and T each checked once, by `set_values`; the six
    # as_vector calls check the resolvent's z, the point and image of M
    # and F's two points and image.  H(u_n) comes from the resolve, as
    # z_n - rho*m_n, and M is one matvec on the pencil: no slot map A..D,
    # f or g is called
    inst = example_4_7().instance.with_(S=_TWO_POINTS)
    assert _calls_per_iteration(monkeypatch, inst) == {
        "as_vector": 6, "as_rows": 2, "AffineMap": 0, "AffinePairMap": 1}


@pytest.mark.parametrize("name", ["example_4_7", "reduction_single_slot"])
def test_composed_step_checks_no_vector_and_calls_no_map(monkeypatch, name):
    # identity S and T, or an affine singleton T: a step is the solve of
    # K and matvecs, whose outputs one test for non-finite coordinates
    # covers
    assert _calls_per_iteration(monkeypatch, get_instance(name).instance) \
        == {"as_vector": 0, "as_rows": 0, "AffineMap": 0, "AffinePairMap": 0}


def _path_cases():
    e47 = example_4_7().instance
    yield "identity_selections", e47, True
    yield "affine_singleton_T", get_instance(
        "reduction_single_slot").instance, True
    yield "affine_singleton_S", e47.with_(S=SingletonSetMap(AffineMap(
        np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([0.2, -0.1])))), True
    yield "black_box_F", e47.with_(F=lambda x, y: e47.F(x, y)), False
    yield "set_valued_S", e47.with_(S=_TWO_POINTS), False
    yield "black_box_singleton_S", e47.with_(
        S=SingletonSetMap(lambda x: 0.5 * x)), False
    yield "two_member_M", e47.with_(M=_two_member), False
    # step_composite exists, but the resolvent is a chord one
    yield "black_box_A", e47.with_(A=lambda x: e47.A(x)), False


@pytest.mark.parametrize("case", list(_path_cases()), ids=lambda c: c[0])
def test_solve_composes_the_step_exactly_where_the_instance_allows(
        monkeypatch, case):
    # the general step takes the value sets of S and T at each iterate,
    # the composed step never
    _, inst, composed = case
    counts = {}
    _counting(monkeypatch, counts, vincl.operators, "set_values",
              (vincl.solver,))
    trace = solve(inst, SolverConfig(z0=[1.0, -2.0], tol=1e-10))
    assert trace.converged
    assert counts["set_values"] == (0 if composed
                                    else 2 * (trace.iterations + 1))
    assert (step_composite(inst) is not None and Resolvent(
        inst, ResolventConfig(rho=inst.rho)).exact) == composed


@pytest.mark.parametrize("case", list(_affine_cases()),
                         ids=lambda case: case[0])
def test_composed_solve_matches_the_general_loop_of_a_black_box_copy(case):
    # the copy's plain-callable maps take the general step and the chord
    # resolvent
    _, inst, z0, rho = case
    cfg = SolverConfig(z0=z0, rho=rho, tol=1e-10)
    trace = solve(inst, cfg)
    general = solve(variant(inst, 1.0, blackbox=True), cfg)
    assert trace.converged and general.converged
    assert trace.iterations == general.iterations
    _assert_records_close(
        trace.records, [(r.z, r.u, r.v, r.w, r.step, r.residual)
                        for r in general.records], inst.omega)


def _random_affine(dim, seed, s_affine, t_affine):
    """An affine instance whose step contracts at every rho in [0.5, 2]:
    L_H and L_M are I + 0.05(Q1 + Q2) and I + 0.05(Q3 - Q4), F's matrices
    0.05 Q, and an affine selection 0.9 Q, for orthogonal Qs; so sigma_min
    of K is >= 0.9 (1 + rho) and the step's gain <= 0.85.  Offsets and
    omega are standard normal."""
    rng = np.random.default_rng(seed)

    def q(c):
        return c * np.linalg.qr(rng.standard_normal((dim, dim)))[0]

    def affine(matrix):
        return AffineMap(matrix, rng.standard_normal(dim))

    def selection(is_affine):
        return (SingletonSetMap(affine(q(0.9))) if is_affine
                else IdentitySetMap())

    eye = np.eye(dim)
    return InclusionInstance(
        space=SpaceConfig(dim=dim), A=affine(eye + q(0.05)),
        B=affine(q(0.05)), C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=affine(eye + q(0.05)), g=affine(q(0.05)), H=AdditiveBiSlot(),
        F=AffinePairMap(q(0.05), q(0.05), rng.standard_normal(dim)),
        M=DifferenceCoupling(), S=selection(s_affine),
        T=selection(t_affine), omega=rng.standard_normal(dim), rho=1.0)


def _solve_and_reference_loop(inst, seed, rho, with_u0, with_errors):
    """solve(inst) and `_reference_loop` from a seeded z0, a seeded u0 or
    none and a seeded error sequence or none: the trace and the steps."""
    rng = np.random.default_rng([seed, 1])
    z0 = rng.standard_normal(inst.dim)
    u0 = rng.standard_normal(inst.dim) if with_u0 else None
    errors = (GeometricErrors(c0=0.1, factor=0.5,
                              direction=rng.standard_normal(inst.dim))
              if with_errors else None)
    trace = solve(inst, SolverConfig(z0=z0, rho=rho, tol=1e-10, u0=u0,
                                     errors=errors))
    steps, converged = _reference_loop(inst, z0, rho, 1e-10, u0, errors)
    assert trace.converged and converged
    assert trace.iterations == len(steps)
    return trace, steps


_DRAWS = dict(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
              s_affine=st.booleans(), t_affine=st.booleans(),
              rho=st.floats(0.5, 2.0), with_u0=st.booleans(),
              with_errors=st.booleans())


@settings(max_examples=60, deadline=None)
@given(**_DRAWS)
@example(dim=_SMALL_DIM - 1, seed=1, s_affine=True, t_affine=False, rho=0.5,
         with_u0=True, with_errors=True)
@example(dim=_SMALL_DIM, seed=2, s_affine=False, t_affine=True, rho=2.0,
         with_u0=False, with_errors=True)
def test_composed_step_matches_the_reference_loop(dim, seed, s_affine,
                                                  t_affine, rho, with_u0,
                                                  with_errors):
    # the composed step against the iteration written plainly, across
    # the dimension where numpy's inverse gives way to LU factors
    inst = _random_affine(dim, seed, s_affine, t_affine)
    assert step_composite(inst) is not None
    trace, steps = _solve_and_reference_loop(inst, seed, rho, with_u0,
                                             with_errors)
    _assert_records_close(trace.records, steps, inst.omega)


@settings(max_examples=40, deadline=None)
@given(**_DRAWS)
@example(dim=_SMALL_DIM - 1, seed=1, s_affine=True, t_affine=False, rho=0.5,
         with_u0=True, with_errors=True)
def test_general_step_matches_the_reference_loop_to_the_bit(
        dim, seed, s_affine, t_affine, rho, with_u0, with_errors):
    # the black-box copy takes the general step on the chord resolvent,
    # the start-up from u0 included: the images the resolve holds are the
    # bits the reference loop evaluates
    inst = variant(_random_affine(dim, seed, s_affine, t_affine), 1.0,
                   blackbox=True)
    assert not Resolvent(inst, ResolventConfig(rho=rho)).exact
    trace, steps = _solve_and_reference_loop(inst, seed, rho, with_u0,
                                             with_errors)
    _assert_records_equal(trace.records, steps)


def _records_before_overflow(inst, z0, rho, max_iters):
    """How many steps of the iteration written plainly, as in
    `_reference_loop`, keep z, u, v, w and F(v, w) + m finite: the records
    solve keeps before it raises; None where none overflows."""
    rcfg = ResolventConfig(rho=rho)

    def finite(*vectors):
        return all(np.isfinite(x).all() for x in vectors)

    def images(z, v, w):
        u = resolve(inst, rcfg, z)
        v = nadler_select(v, set_values(inst.S, u))
        w = nadler_select(w, set_values(inst.T, u))
        fvw = np.asarray(inst.F(v, w))
        m = eval_M_on_point(inst, u)[0]
        return u, v, w, fvw, finite(z, u, v, w, fvw + m)

    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u, v, w, fvw, ok = images(z0, z0, z0)
            while ok and n < max_iters:
                z = (eval_H_on_point(inst, u) - rho * fvw
                     + rho * inst.omega)
                u, v, w, fvw, ok = images(z, v, w)
                n += ok
        except NonFiniteError:      # an image the plain loop checks
            ok = False
    return None if ok else n


def _offsets_times(inst, c):
    """`inst` with omega and every offset of its affine maps times c."""
    def times(m):
        return AffineMap(m.matrix, c * m.offset)

    def selection(s):
        return (SingletonSetMap(times(s.map))
                if isinstance(s, SingletonSetMap) else s)
    f = inst.F
    return inst.with_(
        **{k: times(getattr(inst, k)) for k in "ABCDfg"},
        F=AffinePairMap(f.first, f.second, c * f.offset),
        S=selection(inst.S), T=selection(inst.T), omega=c * inst.omega)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       s_affine=st.booleans(), t_affine=st.booleans(),
       rho=st.floats(0.5, 2.0), log_gain=st.floats(40.0, 150.0))
def test_the_finiteness_check_stops_where_the_elementwise_test_does(
        dim, seed, s_affine, t_affine, rho, log_gain):
    # the composed step tests the sum of the squared norms of its vectors
    # first, and each entry only where that sum is not finite.  With F
    # times 10^log_gain the run overflows after as many records as the
    # plain loop keeps; a run whose iterates pass 1e154, so that their
    # squares overflow, does not raise and is 2^520 times the unscaled one
    # to the bit
    inst = _random_affine(dim, seed, s_affine, t_affine)
    z0 = np.random.default_rng([seed, 1]).standard_normal(dim)
    f, gain = inst.F, 10.0 ** log_gain
    expanding = inst.with_(F=AffinePairMap(gain * f.first, gain * f.second,
                                           f.offset))
    want = _records_before_overflow(expanding, z0, rho, 20)
    assert want is not None
    # where an overflow lies within 2^12 of the float maximum, the
    # rounding of each loop decides it: those draws are set aside
    assume(all(_records_before_overflow(_offsets_times(expanding, c),
                                        c * z0, rho, 20) == want
               for c in (2.0 ** -12, 2.0 ** 12)))
    with pytest.raises(DivergenceError, match="^iterate became non-finite$"
                       ) as exc:
        solve(expanding, SolverConfig(z0=z0, rho=rho, max_iters=20))
    assert exc.value.trace.iterations == want

    big = 2.0 ** 520
    cfg = SolverConfig(z0=z0, rho=rho, tol=1e-300, max_iters=8)
    plain = solve(inst, cfg)
    scaled = solve(_offsets_times(inst, big),
                   dataclasses.replace(cfg, z0=big * z0))
    assert scaled.iterations == plain.iterations == 8
    assert max(np.abs(r.z).max() for r in scaled.records) > 1e154
    for rec, ref in zip(scaled.records, plain.records):
        for got, unit in ((rec.z, ref.z), (rec.u, ref.u), (rec.v, ref.v),
                          (rec.w, ref.w)):
            np.testing.assert_array_equal(got, big * unit)


def test_an_iteration_record_is_an_immutable_tuple_of_the_same_fields():
    rec = solve(example_4_7().instance,
                SolverConfig(z0=[1.0, 1.0], max_iters=3)).records[-1]
    assert IterationRecord._fields == (
        "n", "z", "u", "v", "w", "step", "ratio", "residual", "theta_n",
        "error_norm")
    assert all(value is getattr(rec, name)
               for name, value in zip(IterationRecord._fields, rec))
    with pytest.raises(AttributeError):
        rec.step = 0.0
    with pytest.raises(TypeError):
        rec[5] = 0.0


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


def test_general_start_up_from_u0_takes_no_image_of_M():
    # a given u0 stands for R(z0): the start-up takes H(u0) for z_1, and
    # M is called by the resolves alone, never at (f(u0), g(u0))
    inst = variant(example_4_7().instance, 1.0, blackbox=True)
    firsts = []
    inst = inst.with_(M=(lambda m: lambda x, y: firsts.append(
        np.array(x, dtype=float)) or m(x, y))(inst.M))
    u0 = np.array([0.3, -0.7])
    trace = solve(inst, SolverConfig(z0=[1.0, 1.0], u0=u0, max_iters=3))
    assert trace.iterations == 3 and firsts
    at_u0 = np.asarray(inst.f(u0), dtype=float)
    assert not any(np.array_equal(x, at_u0) for x in firsts)
