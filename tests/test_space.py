import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_scale_invariance import variant
from vincl.certify import (SamplePlan, certify_expansive, certify_instance,
                           certify_lipschitz, certify_mixed_lipschitz)
from vincl.instances import example_4_7
from vincl.operators import AffineMap, Constants
from vincl.resolvent import ResolventConfig
from vincl.solver import GeometricErrors, SolverConfig
from vincl.space import (
    ConfigError,
    DimensionMismatchError,
    InvalidExponentError,
    SpaceConfig,
    as_vector,
    characteristic_inequality_check,
    duality_map,
    inner,
    norm,
)


def test_inner_direct_sums():
    assert inner([1, 2], [3, 4]) == 11
    assert inner([0, 0], [5, 7]) == 0


def test_inner_unit_basis():
    for k in (2, 5, 9):
        e = np.zeros(k)
        e[0] = 1.0
        assert inner(e, e) == 1.0


def test_inner_dimension_mismatch_names_both_dims():
    with pytest.raises(DimensionMismatchError) as exc:
        inner([1, 2], [1, 2, 3])
    assert exc.value.dims == (2, 3)
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_inner_symmetry_and_bilinearity_sweep():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y, z = rng.standard_normal((3, 6))
        a, b = rng.standard_normal(2)
        assert inner(x, y) == pytest.approx(inner(y, x), rel=1e-12)
        assert inner(a * x + b * y, z) == pytest.approx(
            a * inner(x, z) + b * inner(y, z), rel=1e-10, abs=1e-12)


def test_norm_squared_is_self_inner():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.standard_normal(5)
        assert norm(x) ** 2 == pytest.approx(inner(x, x), rel=1e-12)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan, 1.0])
    with pytest.raises(ValueError):
        as_vector([np.inf, 1.0])
    with pytest.raises(ValueError):
        as_vector([])


def test_duality_map_identity_for_q2():
    np.testing.assert_allclose(duality_map([3.0, 4.0], 2.0), [3.0, 4.0])
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(duality_map(x, 2.0), x)


def test_duality_map_zero_extension():
    np.testing.assert_array_equal(duality_map([0.0, 0.0], 3.0), [0.0, 0.0])


def test_duality_map_q3_on_3_4():
    # ||x|| = 5, so the q=3 dual element is 5*x and <x, J_3 x> = 125 = ||x||^3
    j = duality_map([3.0, 4.0], 3.0)
    np.testing.assert_allclose(j, [15.0, 20.0], rtol=1e-12)
    assert inner([3.0, 4.0], j) == pytest.approx(125.0, rel=1e-12)


def test_duality_map_rejects_small_q():
    for q in (1.0, 0.5, math.inf, math.nan, "3"):
        with pytest.raises(InvalidExponentError):
            duality_map([1.0], q)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_duality_map_pairing_identities(q):
    rng = np.random.default_rng(int(q))
    for _ in range(1000):
        x = 3.0 * rng.standard_normal(5)
        j = duality_map(x, q)
        nx = norm(x)
        assert inner(x, j) == pytest.approx(nx ** q, rel=1e-12, abs=1e-12)
        assert norm(j) == pytest.approx(nx ** (q - 1.0), rel=1e-12, abs=1e-12)


def test_duality_map_homogeneity():
    rng = np.random.default_rng(11)
    for q in (2.0, 2.5, 3.0):
        for _ in range(100):
            x = rng.standard_normal(4)
            t = rng.standard_normal()
            if abs(t) < 1e-3:
                continue
            lhs = duality_map(t * x, q)
            rhs = t * abs(t) ** (q - 2.0) * duality_map(x, q)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_characteristic_inequality_exact_cases():
    assert characteristic_inequality_check([1, 0], [0, 1], 2.0, 1.0)
    # x + y = 0: rhs collapses to zero as well
    assert characteristic_inequality_check([1, 2], [-1, -2], 2.0, 1.0)


def test_characteristic_inequality_random_sweep_q2():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = 4.0 * rng.standard_normal(5)
        y = 4.0 * rng.standard_normal(5)
        assert characteristic_inequality_check(x, y, 2.0, 1.0)


def test_characteristic_inequality_can_fail_for_tiny_cq():
    # with c_q below 1 the q=2 expansion must eventually be violated
    assert not characteristic_inequality_check([1.0, 0.0], [1.0, 0.0], 2.0, 0.1)


def test_space_config_validation():
    cfg = SpaceConfig(dim=3)
    assert cfg.q == 2.0 and cfg.c_q == 1.0
    with pytest.raises(ValueError):
        SpaceConfig(dim=0)
    with pytest.raises(InvalidExponentError):
        SpaceConfig(dim=2, q=1.0)
    with pytest.raises(ValueError):
        SpaceConfig(dim=2, c_q=0.0)


# every place a number enters vincl: (the rule it obeys, a build from it)
_INSTANCE = example_4_7().instance
_SITES = {
    "SpaceConfig.dim": ("count 1", lambda v: SpaceConfig(dim=v)),
    "SpaceConfig.q": ("q", lambda v: SpaceConfig(dim=2, q=v)),
    "SpaceConfig.c_q": ("positive", lambda v: SpaceConfig(dim=2, c_q=v)),
    "SamplePlan.seed": ("count 0", lambda v: SamplePlan(seed=v)),
    "SamplePlan.n_pairs": ("count 0", lambda v: SamplePlan(n_pairs=v)),
    "SamplePlan.scale": ("positive", lambda v: SamplePlan(scale=v)),
    "ResolventConfig.rho": ("positive", lambda v: ResolventConfig(rho=v)),
    "ResolventConfig.max_inner_iters": (
        "count 1", lambda v: ResolventConfig(rho=1.0, max_inner_iters=v)),
    "SolverConfig.tol": ("positive", lambda v: SolverConfig([1.0], tol=v)),
    "SolverConfig.max_iters": (
        "count 1", lambda v: SolverConfig([1.0], max_iters=v)),
    "SolverConfig.rho": ("positive", lambda v: SolverConfig([1.0], rho=v)),
    "GeometricErrors.c0": (
        "real", lambda v: GeometricErrors(c0=v, factor=0.5, direction=[1.0])),
    "GeometricErrors.factor": (
        "factor", lambda v: GeometricErrors(c0=1.0, factor=v, direction=[1.0])),
    "InclusionInstance.rho": ("positive", lambda v: _INSTANCE.with_(rho=v)),
    "certify_lipschitz.claimed": (
        "positive", lambda v: certify_lipschitz(AffineMap.identity(2), v)),
    "certify_expansive.claimed": (
        "positive", lambda v: certify_expansive(AffineMap.identity(2), v)),
    "certify_mixed_lipschitz.claimed": (
        "real", lambda v: certify_mixed_lipschitz(_INSTANCE, v)),
    **{f"Constants.{f.name}": ("real", lambda v, name=f.name: Constants(
        **{name: v})) for f in dataclasses.fields(Constants)},
}


def _accepts(rule, value) -> bool:
    """Whether `rule` takes `value`: counts are integers, not bools, at
    least the stated value; every other number is a finite real, not a
    bool, in the rule's range."""
    if isinstance(value, bool):
        return False
    if rule.startswith("count"):
        return (isinstance(value, (int, np.integer))
                and value >= int(rule.split()[1]))
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        return False
    return {"positive": value > 0, "real": True, "q": value > 1,
            "factor": 0 < value < 1}[rule]


_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 2.5, True, "1",
           np.int64(3), np.float32(0.5)]


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(sorted(_SITES)),
       value=st.one_of(st.sampled_from(_VALUES), st.floats(),
                       st.integers(-3, 3)))
@example(site="Constants.tau", value=math.inf)
@example(site="certify_lipschitz.claimed", value=math.inf)
@example(site="certify_expansive.claimed", value=math.inf)
@example(site="Constants.alpha", value="0.5")
@example(site="GeometricErrors.c0", value="0.1")
@example(site="GeometricErrors.c0", value=math.nan)
@example(site="SolverConfig.tol", value="1e-3")
@example(site="SolverConfig.tol", value=math.inf)
@example(site="ResolventConfig.rho", value="1")
@example(site="SpaceConfig.c_q", value="1")
@example(site="SolverConfig.max_iters", value=2.5)
@example(site="ResolventConfig.max_inner_iters", value=2.5)
@example(site="SpaceConfig.dim", value=2.5)
@example(site="SpaceConfig.q", value=math.inf)
@example(site="SpaceConfig.c_q", value=math.inf)
@example(site="SamplePlan.n_pairs", value=True)
def test_every_number_is_checked_where_it_enters(site, value):
    # a number out of its rule is refused at construction, as ConfigError
    # (InvalidExponentError for q), never as a TypeError from a later
    # comparison, and no number warns; one in it is taken
    rule, build = _SITES[site]
    error = InvalidExponentError if rule == "q" else ConfigError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if _accepts(rule, value):
            build(value)
        else:
            with pytest.raises(error):
                build(value)


def test_records_hold_python_numbers_given_numpy_scalars():
    # each rule returns the number it accepts as a Python float (int for a
    # count), and each record stores that: json writes every record, and
    # a numpy integer seed no longer stops a bundle from serializing
    f32, i64 = np.float32(0.5), np.int64(3)
    records = [
        (SpaceConfig(dim=np.int32(2), q=np.float32(2.5), c_q=f32),
         {"dim": 2, "q": 2.5, "c_q": 0.5}),
        (SamplePlan(seed=i64, n_pairs=np.int32(8), scale=np.int16(2)),
         {"seed": 3, "n_pairs": 8, "scale": 2.0}),
        (ResolventConfig(rho=f32, max_inner_iters=i64),
         {"rho": 0.5, "max_inner_iters": 3}),
        (SolverConfig([1.0], rho=f32, max_iters=i64, tol=np.float16(0.25)),
         {"rho": 0.5, "max_iters": 3, "tol": 0.25}),
        (GeometricErrors(c0=f32, factor=f32, direction=[1.0]),
         {"c0": 0.5, "factor": 0.5}),
        (_INSTANCE.with_(rho=f32), {"rho": 0.5}),
        (Constants(**{f.name: f32 for f in dataclasses.fields(Constants)}),
         {f.name: 0.5 for f in dataclasses.fields(Constants)}),
    ]
    for record, expected in records:
        for name, number in expected.items():
            value = getattr(record, name)
            assert type(value) is type(number) and value == number, name
    for cert in (certify_lipschitz(AffineMap.identity(2), f32),
                 certify_mixed_lipschitz(_INSTANCE, f32)):
        assert json.loads(cert.to_json())["claimed"] == 0.5
    plan = SamplePlan(seed=i64, n_pairs=np.int32(8))
    for inst in (_INSTANCE, variant(_INSTANCE, 1.0, blackbox=True)):
        bundle = json.loads(certify_instance(inst, plan, rho_grid=[])
                            .to_json())
        assert bundle["seed"] == 3
    seeds = [c["details"]["seed"] for c in bundle["certificates"].values()
             if "seed" in c["details"]]
    assert seeds and set(seeds) == {3}
