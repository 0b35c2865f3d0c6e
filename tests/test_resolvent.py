import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

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
    NonSurjectiveError,
    Resolvent,
    ResolventConfig,
    ResolventIterationError,
    audit_lipschitz,
    forward,
    resolve,
    theoretical_r_m,
)
from vincl.space import SpaceConfig


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


def _diagonal_instance(diag):
    """Composite H + rho*M = diag(diag) at every rho: A carries it all."""
    dim = len(diag)
    zero = AffineMap.zero(dim)
    return InclusionInstance(
        space=SpaceConfig(dim=dim), A=AffineMap.linear(np.diag(diag)),
        B=zero, C=zero, D=zero, f=zero, g=zero, H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((dim, dim)), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0)


def _opaque_h(inst):
    """The instance with A..D as black boxes: the composite is no longer
    affine, so resolves take the damped path; f and g stay affine, so the
    damping step is the one the affine instance gets."""
    return inst.with_(**{s: (lambda m: (lambda x: m(x)))(getattr(inst, s))
                         for s in ("A", "B", "C", "D")})


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
                Resolvent(_opaque_h(inst),
                          ResolventConfig(rho=0.35, inner_tol=1e-10))):
        batch = res(z)
        assert batch.shape == z.shape
        for row, out in zip(z, batch):
            np.testing.assert_allclose(out, res(row), rtol=0, atol=1e-12)


def test_resolvent_paths_and_singular_values():
    inst = example_4_7().instance
    exact = Resolvent(inst, ResolventConfig(rho=0.35))
    assert exact.exact
    sv = exact.singular_values
    assert np.all(np.diff(sv) <= 0) and sv[-1] > 0
    blackbox = inst.with_(A=lambda x: inst.A(x))
    damped = Resolvent(blackbox, ResolventConfig(rho=0.35))
    assert not damped.exact and damped.singular_values is None


def test_damped_fixed_point_agrees_with_exact():
    inst = example_4_7().instance
    exact = Resolvent(inst, ResolventConfig(rho=0.35))
    damped = Resolvent(_opaque_h(inst),
                       ResolventConfig(rho=0.35, inner_tol=1e-13))
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal(2)
        np.testing.assert_allclose(damped(z), exact(z), atol=1e-10)


def test_damped_fixed_point_iteration_limit():
    inst = _opaque_h(example_4_7().instance)
    cfg = ResolventConfig(rho=0.35, max_inner_iters=2, inner_tol=1e-15)
    with pytest.raises(ResolventIterationError) as exc:
        resolve(inst, cfg, np.array([5.0, 5.0]))
    assert exc.value.last_residual > 0


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
    with pytest.raises(ValueError):
        ResolventConfig(rho=1.0, inner_tol=0.0)
