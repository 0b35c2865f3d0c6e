import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

import vincl.operators
from vincl.certify import SamplePlan
from vincl.instances import example_3_2, example_3_3, example_4_7
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    MissingConstantsError,
)
from vincl.resolvent import (
    _STALL_WINDOW,
    Composite,
    NonSurjectiveError,
    Resolvent,
    ResolventConfig,
    ResolventIterationError,
    audit_lipschitz,
    forward,
    resolve,
    theoretical_r_m,
)
from vincl.space import DimensionMismatchError, NonFiniteError, SpaceConfig


def test_resolve_inverts_forward_image():
    inst = example_3_2().instance
    cfg = ResolventConfig(rho=1.0)
    x_star = np.array([1.0, 2.0])
    z = forward(inst, x_star, rho=1.0)
    np.testing.assert_allclose(resolve(inst, cfg, z), x_star, atol=1e-12)


def test_resolve_zero_maps_to_zero():
    inst = example_4_7().instance
    out = resolve(inst, ResolventConfig(rho=0.35), np.zeros(2))
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-15)


def test_resolve_round_trip_sampled():
    for named in (example_3_2(), example_4_7()):
        inst = named.instance
        cfg = ResolventConfig(rho=inst.rho)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(inst.dim)
            back = resolve(inst, cfg, forward(inst, x))
            assert np.linalg.norm(back - x) <= 1e-9


def test_resolve_single_valued_repeatability():
    inst = example_4_7().instance
    cfg = ResolventConfig(rho=0.35)
    z = np.array([0.3, -0.8])
    a = resolve(inst, cfg, z)
    b = resolve(inst, cfg, z)
    assert np.linalg.norm(a - b) <= 1e-12


def _linear_instance(matrix, slot="A"):
    """Composite H + rho*M = matrix at rho = 1, carried by A (through H)
    or by f (through M); every other map is zero."""
    dim = len(matrix)
    zero = AffineMap.zero(dim)
    maps = dict(A=zero, B=zero, C=zero, D=zero, f=zero, g=zero)
    maps[slot] = AffineMap.linear(matrix)
    return InclusionInstance(
        space=SpaceConfig(dim=dim), H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((dim, dim)), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0, **maps)


def _diagonal_instance(diag):
    """Composite H + rho*M = diag(diag) at rho = 1: A carries it all."""
    return _linear_instance(np.diag(diag))


def _opaque_h(inst):
    """The instance with A..D as black boxes: the composite is no longer
    affine, so resolves take the chord path, on an exact probed model."""
    return inst.with_(**{s: (lambda m: (lambda x: m(x)))(getattr(inst, s))
                         for s in ("A", "B", "C", "D")})


def _nonlinear(inst):
    """The instance with x -> A(x) + 0.1*sin(x) for A: H is not affine,
    so its probed model is not exact, and a chord resolve takes more than
    one step."""
    return inst.with_(A=lambda x: inst.A(x) + 0.1 * np.sin(x))


def test_resolve_degenerate_composite_raises():
    inst = example_3_3().instance
    with warnings.catch_warnings(), pytest.raises(NonSurjectiveError) as exc:
        warnings.simplefilter("error", LinAlgWarning)
        resolve(inst, ResolventConfig(rho=1.0), np.zeros(inst.dim))
    defect = exc.value.defect
    assert defect["kind"] == "zero linear part"
    assert defect["image_norm"] == pytest.approx(2.0, abs=1e-12)


def test_resolve_degenerate_composite_fine_at_other_rho():
    # the degeneracy is specific to rho = 1; elsewhere the composite inverts
    inst = example_3_3().instance
    out = resolve(inst, ResolventConfig(rho=0.5), np.zeros(inst.dim))
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("diag", [
    [1.0, 0.0, 2.0],            # cond infinite: rejected before factoring
    [1.0, 1e-6, 1e-13],         # cond 1e13, above the condition limit
    [1.0, 1e-200, 2.0],         # the norm of the inverse overflows
])
def test_resolve_singular_linear_part_raises(diag):
    inst = _diagonal_instance(diag)
    with warnings.catch_warnings(), pytest.raises(NonSurjectiveError) as exc:
        warnings.simplefilter("error")
        resolve(inst, ResolventConfig(rho=1.0), np.ones(3))
    defect = exc.value.defect
    assert defect["kind"] == "singular linear part"
    assert set(defect) == {"rho", "kind", "description", "null_direction",
                           "cond", "det"}
    assert defect["det"] == pytest.approx(np.prod(diag), abs=1e-20)
    assert abs(defect["null_direction"][int(np.argmin(diag))]) == \
        pytest.approx(1.0)


def test_resolve_cond_1e7_composite_round_trips():
    # |det| = 1e-13 <= 1e-12 * sigma_max^3, but cond 1e7 is within the limit
    diag = np.array([1.0, 1e-6, 1e-7])
    inst = _diagonal_instance(diag)
    z = np.array([0.5, -2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = resolve(inst, ResolventConfig(rho=1.0), z)
    np.testing.assert_allclose(x, z / diag, rtol=1e-14)
    np.testing.assert_allclose(forward(inst, x, rho=1.0), z, rtol=1e-14)


@pytest.mark.parametrize("scale", [7.0, 0.1])
def test_resolve_large_well_conditioned_composite(scale):
    # scale*I at dim 400 has cond 1; its determinant overflows (7^400) or
    # underflows (0.1^400) a float, and the test looks at cond only
    inst = _diagonal_instance(np.full(400, scale))
    z = np.linspace(-1.0, 1.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = resolve(inst, ResolventConfig(rho=1.0), z)
    np.testing.assert_allclose(x, z / scale, rtol=1e-14)


_BATCH = st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
                  min_size=1, max_size=6)


@settings(max_examples=25, deadline=None)
@given(rows=_BATCH)
def test_batched_call_matches_rows(rows):
    inst = example_4_7().instance
    z = np.array(rows)
    for res in (Resolvent(inst, ResolventConfig(rho=0.35)),
                Resolvent(_opaque_h(inst), ResolventConfig(rho=0.35))):
        batch = res(z)
        assert batch.shape == z.shape
        for row, out in zip(z, batch):
            np.testing.assert_allclose(out, res(row), rtol=0, atol=1e-12)
        with pytest.raises(NonFiniteError,
                           match="^batch has non-finite coordinates$"):
            res(np.vstack([z, [np.nan, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 50), rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_exact_resolve_is_lu_solve_to_the_bit(dim, rows, seed):
    # the exact path calls LAPACK getrs on the composite's LU factors,
    # the routine scipy.linalg.lu_solve wraps: a vector and a batch come
    # out as lu_solve's, bit for bit
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
    inst = _linear_instance(matrix).with_(
        A=AffineMap(matrix, rng.standard_normal(dim)))
    resolvent = Resolvent(inst, ResolventConfig(rho=1.0))
    k = Composite(inst.pencil, 1.0)
    z = rng.standard_normal((rows, dim))
    want = scipy.linalg.lu_solve(k.lu[:2], (z - k.offset).T).T
    assert resolvent(z).tobytes() == want.tobytes()
    assert resolvent(z[0]).tobytes() == scipy.linalg.lu_solve(
        k.lu[:2], z[0] - k.offset).tobytes()


def test_resolvent_paths_and_singular_values():
    inst = example_4_7().instance
    exact = Resolvent(inst, ResolventConfig(rho=0.35))
    assert exact.exact
    sv = exact.singular_values
    assert np.all(np.diff(sv) <= 0) and sv[-1] > 0
    assert exact.path == "exact"
    blackbox = inst.with_(A=lambda x: inst.A(x))
    chord = Resolvent(blackbox, ResolventConfig(rho=0.35))
    assert not chord.exact and chord.singular_values is None
    assert chord.path == "chord"
    # example_3_3's composite at rho = 1 has a zero linear part: so has its
    # probed model, and the resolve falls back to the damped step
    zero = example_3_3().instance
    zero = zero.with_(A=lambda x, a=zero.A: a(x))
    damped = Resolvent(zero, ResolventConfig(rho=1.0))
    assert damped.path == "damped" and damped.singular_values is None


_DEFINITE = {"posdef": 1.0, "negdef": -1.0}


def _graded_matrix(dim, cond, seed, kind):
    """U diag(s) V^T, U and V seeded random orthogonal, s from 1 down to
    1/cond in geometric steps; s[-1] = 0 when `kind` is "singular", and
    the zero matrix when it is "zero".  For "posdef" (and "negdef", its
    negative) V = U, and a seeded skew-symmetric part of norm about 1 that
    leaves the last column of U fixed is added: K has the positive
    definite symmetric part U diag(s) U^T, sigma_min(K) = 1/cond, and
    cond(K) is about `cond`."""
    if kind == "zero":
        return np.zeros((dim, dim))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = np.geomspace(1.0, 1.0 / cond, dim)
    if kind == "singular":
        s[-1] = 0.0
    if kind in _DEFINITE:
        w = rng.standard_normal((dim, dim)) / (2.0 * np.sqrt(dim))
        w[-1], w[:, -1] = 0.0, 0.0
        return _DEFINITE[kind] * (u @ (np.diag(s) + w - w.T) @ u.T)
    return (u * s) @ v.T


@settings(max_examples=500, deadline=None)
@given(dim=st.integers(1, 60),
       log_cond=st.one_of(st.floats(0.0, 14.0), st.floats(11.0, 13.0)),
       log_scale=st.one_of(st.floats(-9.0, 9.0), st.floats(-200.0, -190.0),
                           st.floats(190.0, 200.0)),
       kind=st.sampled_from(["graded"] * 6 + ["posdef"] * 3
                            + ["negdef"] * 3 + ["singular", "zero"]),
       slot=st.sampled_from(["A", "f"]),
       seed=st.integers(0, 2**32 - 1))
@example(dim=200, log_cond=11.9, log_scale=3.0, kind="graded", slot="A",
         seed=1)
@example(dim=200, log_cond=12.1, log_scale=-3.0, kind="graded", slot="f",
         seed=2)
@example(dim=400, log_cond=6.0, log_scale=0.0, kind="graded", slot="A",
         seed=3)
@example(dim=400, log_cond=2.0, log_scale=9.0, kind="singular", slot="f",
         seed=4)
@example(dim=3, log_cond=0.0, log_scale=0.0, kind="zero", slot="A", seed=5)
@example(dim=2, log_cond=0.0, log_scale=-200.0, kind="graded", slot="A",
         seed=6)                # ||K||_F underflows, ||K^-1||_F overflows
@example(dim=2, log_cond=0.0, log_scale=200.0, kind="graded", slot="f",
         seed=7)
@example(dim=3, log_cond=0.0, log_scale=-200.0, kind="posdef", slot="A",
         seed=8)
@example(dim=3, log_cond=0.0, log_scale=200.0, kind="negdef", slot="f",
         seed=9)
@example(dim=40, log_cond=12.0, log_scale=-200.0, kind="posdef", slot="f",
         seed=10)
@example(dim=40, log_cond=11.5, log_scale=200.0, kind="negdef", slot="A",
         seed=11)
def test_invertible_matches_the_singular_value_rule(dim, log_cond, log_scale,
                                                    kind, slot, seed):
    # the symmetric-part bound and the LU bracket may only ever say
    # "invertible" where the SVD rule sigma_max > 0 and sigma_max /
    # sigma_min <= 1e12 does; a well-conditioned K takes no SVD, and a
    # definite one no factorization at all
    matrix = 10.0 ** log_scale * _graded_matrix(dim, 10.0 ** log_cond, seed,
                                                kind)
    inst = _linear_instance(matrix, slot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = Composite(inst.pencil, 1.0)
        sv = np.linalg.svd(k.matrix, compute_uv=False)
        rule = bool(sv[-1] > 0 and sv[0] / sv[-1] <= 1e12)
        assert k.invertible is rule
        if kind not in ("singular", "zero") and log_cond <= 3.0:
            assert "sv" not in vars(k)      # settled at every scale
            assert kind not in _DEFINITE or "lu" not in vars(k)
        if rule:
            res = Resolvent(inst, ResolventConfig(rho=1.0))
            assert res.exact
            np.testing.assert_array_equal(res.singular_values, sv)
        else:
            with pytest.raises(NonSurjectiveError) as exc:
                Resolvent(inst, ResolventConfig(rho=1.0))
            assert exc.value.defect == Composite(inst.pencil, 1.0).defect()


def test_invertible_reads_the_singular_values_once_taken():
    # an indefinite symmetric part leaves the pencil's bound inconclusive:
    # the LU bracket decides, unless the singular values were read first
    pencil = _diagonal_instance([1.0, -2.0, 4.0]).pencil
    k = Composite(pencil, 1.0)
    assert k.invertible and "lu" in vars(k) and "sv" not in vars(k)
    k = Composite(pencil, 1.0)
    assert k.cond == 4.0 and k.invertible
    assert "lu" not in vars(k)                      # no LU, no inverse
    # a definite one is settled by the bound, with no factorization
    k = Composite(_diagonal_instance([1.0, 2.0, 4.0]).pencil, 1.0)
    assert k.invertible and not {"lu", "sv"} & set(vars(k))


def test_negative_rho_bounds_the_symmetric_part_from_the_other_side():
    # L_H = I, L_M = diag(1, 3): K = diag(2/3, 0) at rho = -1/3, although
    # lambda_min(sym L_H) + rho * lambda_min(sym L_M) = 2/3
    inst = _linear_instance(np.eye(2)).with_(f=AffineMap.linear(
        np.diag([1.0, 3.0])))
    k = Composite(inst.pencil, -1.0 / 3.0)
    assert not k.invertible and k.defect()["kind"] == "singular linear part"
    k = Composite(inst.pencil, -0.1)                 # diag(0.9, 0.7)
    assert k.invertible and not {"lu", "sv"} & set(vars(k))


def test_pencil_is_assembled_once_per_instance(monkeypatch):
    calls = []
    for name in ("h_composite", "m_composite"):
        original = getattr(vincl.operators, name)
        monkeypatch.setattr(vincl.operators, name,
                            lambda inst, f=original, n=name:
                            calls.append(n) or f(inst))
    inst = example_4_7().instance
    first = Resolvent(inst, ResolventConfig(rho=0.35))
    second = Resolvent(inst, ResolventConfig(rho=2.0))
    assert sorted(calls) == ["h_composite", "m_composite"]
    z = np.array([0.3, -0.8])
    for res, rho in ((first, 0.35), (second, 2.0)):
        np.testing.assert_allclose(forward(inst, res(z), rho), z, atol=1e-12)
    # a new instance derives its own pencil, not its parent's
    doubled = inst.with_(A=AffineMap.linear(2.0 * inst.A.matrix))
    assert doubled.pencil is not inst.pencil
    assert len(calls) == 4
    np.testing.assert_allclose(doubled.pencil.h.matrix,
                               inst.pencil.h.matrix + inst.A.matrix,
                               rtol=0, atol=1e-12)
    x = Resolvent(doubled, ResolventConfig(rho=0.35))(z)
    np.testing.assert_allclose(forward(doubled, x, 0.35), z, atol=1e-12)


def test_damped_fixed_point_agrees_with_exact():
    inst = example_4_7().instance
    exact = Resolvent(inst, ResolventConfig(rho=0.35))
    damped = Resolvent(_opaque_h(inst), ResolventConfig(rho=0.35))
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal(2)
        np.testing.assert_allclose(damped(z), exact(z), atol=1e-10)


def test_damped_fixed_point_iteration_limit():
    inst = _nonlinear(example_4_7().instance)
    cfg = ResolventConfig(rho=0.35, max_inner_iters=2)
    res = Resolvent(inst, cfg)
    with pytest.raises(ResolventIterationError) as exc:
        res(np.array([5.0, 5.0]))
    assert exc.value.last_residual > 0
    assert exc.value.iterations == 2 and res.inner_iterations == 2


def test_inner_iterations_counted():
    inst = _nonlinear(example_4_7().instance)
    chord = Resolvent(inst, ResolventConfig(rho=0.35))
    z = np.array([0.3, -0.8])
    chord(z)
    n = chord.inner_iterations
    assert n > 1
    chord(np.array([z, z]))
    assert chord.inner_iterations == 3 * n
    # the first resolvent probed the instance: dim + 1 evaluations
    assert chord.probe_evaluations == 3
    again = Resolvent(inst, ResolventConfig(rho=2.0))
    again(z)
    assert again.probe_evaluations == 0 and again.inner_iterations > 1
    exact = Resolvent(example_4_7().instance, ResolventConfig(rho=0.35))
    exact(z)
    assert exact.inner_iterations == exact.probe_evaluations == 0


@pytest.mark.parametrize("c", [1e4, 1e6])
def test_chord_resolve_follows_the_scale_of_the_maps(c):
    # example_4_7 with every map times c, as black boxes: the probed model
    # scales with the maps, and the stopping tolerance with z, so z =
    # c*(0.4, 0.9) resolves to the x of c = 1
    inst = example_4_7().instance
    scaled = inst.with_(**{s: (lambda m: (lambda x: c * m(x)))(getattr(
        inst, s)) for s in ("A", "B", "C", "D", "f", "g")})
    z = np.array([0.4, 0.9])
    res = Resolvent(scaled, ResolventConfig(rho=0.35))
    x = res(c * z)
    assert res.path == "chord" and res.inner_iterations <= 3
    np.testing.assert_allclose(x, resolve(inst, ResolventConfig(rho=0.35), z),
                               rtol=0, atol=1e-11)


def test_chord_resolve_of_a_nonlinear_map():
    # A(x) = x + 0.1*sin(x) on R^6 with B..D, f, g zero: the probed model
    # is off by up to 0.2 in slope, and Anderson mixing of the chord steps
    # still reaches the inner tolerance
    dim, zero = 6, AffineMap.zero(6)
    inst = _linear_instance(np.zeros((dim, dim))).with_(
        A=lambda x: x + 0.1 * np.sin(x), f=zero, g=zero)
    res = Resolvent(inst, ResolventConfig(rho=1.0))
    z = np.linspace(-3.0, 3.0, dim)
    x = res(z)
    assert res.path == "chord" and res.inner_iterations > 2
    assert np.linalg.norm(forward(inst, x, 1.0) - z) <= 1e-12


@pytest.mark.parametrize("opaque", [False, True], ids=["exact", "damped"])
@pytest.mark.parametrize("batch", [False, True], ids=["vector", "batch"])
def test_resolvent_checks_the_length_of_z(opaque, batch):
    inst = example_4_7().instance
    res = Resolvent(_opaque_h(inst) if opaque else inst,
                    ResolventConfig(rho=0.35))
    assert res.exact is not opaque
    with pytest.raises(DimensionMismatchError) as exc:
        res(np.ones((3, 4)) if batch else np.ones(4))
    assert str(exc.value) == "dimension mismatch: 2 vs 4 (resolvent)"


@pytest.mark.parametrize("image, error", [
    (lambda x: np.full_like(x, np.nan), ResolventIterationError),
    (lambda x: np.outer(x, x), ValueError),       # not a vector
    (lambda x: np.ones(3), ValueError),           # wrong length
])
def test_damped_map_output_errors(image, error):
    # a non-finite image ends the iteration; malformed output is not
    # mistaken for divergence
    inst = example_4_7().instance.with_(A=image)
    with pytest.raises(error) as exc:
        resolve(inst, ResolventConfig(rho=0.35), np.ones(2))
    assert isinstance(exc.value, ResolventIterationError) == \
        (error is ResolventIterationError)
    if error is ResolventIterationError:
        assert exc.value.iterations == 1
        assert exc.value.last_residual == np.inf


def test_damped_loop_refuses_a_length_1_image():
    # numpy would broadcast B's image to the instance's dim
    inst = _opaque_h(example_4_7().instance).with_(B=lambda x: np.ones(1))
    with pytest.raises(DimensionMismatchError) as exc:
        resolve(inst, ResolventConfig(rho=0.35), np.ones(2))
    assert str(exc.value) == "dimension mismatch: 2 vs 1 (images of A and B)"


def test_damped_resolve_stalls_on_a_zero_linear_part():
    # example_3_3's composite at rho = 1 is the constant map to a point of
    # norm 2: given as black boxes, the residual never moves and the stall
    # test ends the resolve one window in
    inst = example_3_3().instance
    opaque = inst.with_(**{s: (lambda m: (lambda x: m(x)))(getattr(inst, s))
                           for s in ("A", "B", "C", "D", "f", "g")})
    res = Resolvent(opaque, ResolventConfig(rho=1.0))
    with pytest.raises(ResolventIterationError) as exc:
        res(np.zeros(inst.dim))
    assert str(exc.value).startswith("damped fixed-point iteration stalled")
    assert exc.value.iterations == _STALL_WINDOW + 1
    assert exc.value.last_residual == pytest.approx(2.0, abs=1e-12)


def test_theoretical_r_m():
    r, m = theoretical_r_m(example_4_7().instance)
    assert r == pytest.approx(2.9, abs=1e-12)
    assert m == pytest.approx(0.25, abs=1e-12)
    r32, m32 = theoretical_r_m(example_3_2().instance)
    assert r32 == pytest.approx(4.0, abs=1e-12)
    assert m32 == pytest.approx(3.25, abs=1e-12)
    with pytest.raises(MissingConstantsError):
        theoretical_r_m(example_3_3().instance)


def test_audit_bound_holds_on_sampled_pairs():
    inst = example_4_7().instance
    rep = audit_lipschitz(inst, ResolventConfig(rho=0.35),
                          SamplePlan(seed=12))
    assert rep.n_pairs >= 512
    assert rep.bound == pytest.approx(1.0 / 2.9875, rel=1e-12)
    assert rep.worst_ratio <= rep.bound + 1e-9
    assert rep.passed

    rep32 = audit_lipschitz(example_3_2().instance, ResolventConfig(rho=1.0),
                            SamplePlan(seed=13))
    assert rep32.bound == pytest.approx(1.0 / 7.25, rel=1e-12)
    assert rep32.passed


@pytest.mark.parametrize("named, rho", [(example_4_7, 0.35),
                                        (example_3_2, 1.0)])
def test_audit_exact_ratio(named, rho):
    rep = audit_lipschitz(named().instance, ResolventConfig(rho=rho),
                          SamplePlan(seed=12))
    assert rep.worst_ratio <= rep.exact_ratio * (1 + 1e-12)
    assert rep.exact_ratio <= rep.bound + 1e-9
    assert rep.to_dict()["exact_ratio"] == rep.exact_ratio


def test_audit_damped_has_no_exact_ratio():
    rep = audit_lipschitz(_opaque_h(example_4_7().instance),
                          ResolventConfig(rho=0.35),
                          SamplePlan(seed=12, n_pairs=4))
    assert rep.exact_ratio is None
    assert rep.passed


def test_audit_skips_coincident_pairs():
    # a plan whose random pairs may coincide at the lattice boundary still
    # produces a finite worst ratio and a count of used pairs
    inst = example_4_7().instance
    rep = audit_lipschitz(inst, ResolventConfig(rho=0.35),
                          SamplePlan(seed=14, n_pairs=16))
    assert np.isfinite(rep.worst_ratio)
    assert rep.n_pairs > 0


def test_resolvent_config_validation():
    with pytest.raises(ValueError):
        ResolventConfig(rho=0.0)
