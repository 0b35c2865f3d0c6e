import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_scale_invariance import variant
from vincl.certify import SamplePlan, certify_instance
from vincl.instances import (builtin_names, example_3_2, example_3_3,
                             example_4_7, get_instance)
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    ConstantSetMap,
    Constants,
    DifferenceCoupling,
    EmptySetError,
    IdentitySetMap,
    InclusionInstance,
    NearestNodeSetMap,
    eval_H_on_images,
    eval_H_on_point,
    eval_H_on_rows,
    eval_M_on_point,
    hausdorff_distance,
    inclusion_residual,
    instance_from_dict,
    instance_to_dict,
    ordering_flags,
)
from vincl.resolvent import forward
from vincl.space import (DimensionMismatchError, NonFiniteError, SpaceConfig,
                         slack)


def test_affine_map_exact_evaluation():
    m = AffineMap(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5]))
    np.testing.assert_array_equal(m([1.0, 1.0]), [3.5, 6.5])


def test_affine_map_linearity_identity():
    rng = np.random.default_rng(0)
    m = AffineMap(rng.standard_normal((3, 3)), rng.standard_normal(3))
    for _ in range(50):
        x, y = rng.standard_normal((2, 3))
        lhs = m(x + y) - m(x) - m(y) + m(np.zeros(3))
        np.testing.assert_allclose(lhs, np.zeros(3), atol=1e-12)


def test_affine_map_shape_validation():
    with pytest.raises(ValueError):
        AffineMap(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        AffineMap(np.zeros((2, 2)), np.zeros(3))


def test_hausdorff_singletons_and_identical_sets():
    assert hausdorff_distance([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
    assert hausdorff_distance([[0.0, 0.0], [1.0, 0.0]],
                              [[0.0, 0.0], [1.0, 0.0]]) == 0.0


def test_hausdorff_asymmetric_covering():
    # brute force over the 2x1 pairings gives 2
    assert hausdorff_distance([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]]) == 2.0


def test_hausdorff_empty_and_mismatch_errors():
    with pytest.raises(EmptySetError):
        hausdorff_distance([], [[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        hausdorff_distance([[1.0, 2.0]], [[1.0, 2.0, 3.0]])


def test_hausdorff_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = rng.standard_normal((rng.integers(1, 5), 3))
        b = rng.standard_normal((rng.integers(1, 5), 3))
        c = rng.standard_normal((rng.integers(1, 5), 3))
        dab = hausdorff_distance(a, b)
        assert dab == pytest.approx(hausdorff_distance(b, a), rel=1e-12)
        assert dab <= (hausdorff_distance(a, c) + hausdorff_distance(c, b)
                       + 1e-12)


def test_hausdorff_matches_cdist_bit_for_bit():
    # the golden bundles pin Hausdorff values computed through
    # scipy.spatial.distance.cdist, which the numpy form replaced
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(2)
    for _ in range(300):
        dim = int(rng.integers(1, 40))
        a, b = (10.0 ** rng.uniform(-5, 5)
                * rng.standard_normal((rng.integers(1, 6), dim))
                for _ in range(2))
        dm = cdist(a, b)
        assert hausdorff_distance(a, b) == max(dm.min(axis=1).max(),
                                               dm.min(axis=0).max())


def test_eval_H_isotropic_instance():
    inst = example_3_2().instance
    # coefficient sum 4 - 3 + 2 + 1 = 4
    np.testing.assert_allclose(eval_H_on_point(inst, [1.0, 1.0]), [4.0, 4.0])
    np.testing.assert_allclose(eval_H_on_point(inst, [0.0, 0.0]), [0.0, 0.0])


def test_eval_H_slope_29_over_10():
    inst = example_4_7().instance
    np.testing.assert_allclose(eval_H_on_point(inst, [1.0, 0.0]), [2.9, 0.0],
                               rtol=1e-12)


def test_eval_H_dimension_mismatch():
    inst = example_3_2().instance
    with pytest.raises(DimensionMismatchError):
        eval_H_on_point(inst, [1.0, 2.0, 3.0])


def _with_H(dim, H):
    ident, zero = AffineMap.identity(dim), np.zeros((dim, dim))
    return InclusionInstance(
        space=SpaceConfig(dim=dim), A=ident, B=ident, C=ident, D=ident,
        f=ident, g=ident, H=H, F=AffinePairMap(zero, zero, np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return ("raised", type(exc))
    return ("returned", out.dtype, out.shape, out.tobytes())


@st.composite
def _tables(draw):
    """Four finite (n, dim) tables; sums of huge entries may overflow."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    entries = st.one_of(st.floats(-10.0, 10.0),
                        st.floats(allow_nan=False, allow_infinity=False))
    return [draw(arrays(float, shape, elements=entries)) for _ in "abcd"]


@settings(max_examples=200, deadline=None)
@given(tables=_tables(), additive=st.booleans())
def test_H_on_rows_matches_the_per_row_images(tables, additive):
    # the whole-table sum of an additive H against one checked call of H
    # per row, bit for bit, or the same error where a row's sum overflows
    H = AdditiveBiSlot() if additive else (
        lambda a, b, c, d: a + b + c + d + 0.1 * np.sin(a))
    inst = _with_H(tables[0].shape[1], H)
    with warnings.catch_warnings():     # an overflow in H's own sum warns
        warnings.simplefilter("ignore", RuntimeWarning)
        per_row = _outcome(lambda *t: np.array(
            [eval_H_on_images(inst, *row) for row in zip(*t)]), *tables)
        assert _outcome(eval_H_on_rows, inst, *tables) == per_row


def test_slot_forms_refuse_images_of_different_lengths():
    # numpy would broadcast the length-1 image against the others
    v, one = np.ones(3), np.ones(1)
    h = AdditiveBiSlot()
    np.testing.assert_array_equal(h(v, v, v, v), 4 * v)
    for k, name in enumerate("BCD", start=1):
        args = [v] * 4
        args[k] = one
        with pytest.raises(DimensionMismatchError) as exc:
            h(*args)
        assert str(exc.value) == \
            f"dimension mismatch: 3 vs 1 (images of A and {name})"
    with pytest.raises(DimensionMismatchError) as exc:
        DifferenceCoupling()(v, one)
    assert str(exc.value) == "dimension mismatch: 3 vs 1 (images of f and g)"


@pytest.mark.parametrize("maps, message", [
    ("ABCD", "2 vs 1 (image of H)"),     # four length-1 images add up
    ("H", "2 vs 1 (image of H)"),
    ("A", "1 vs 2 (images of A and B)"),
    ("fg", "2 vs 1 (image of M)"),
    ("M", "2 vs 1 (image of M)"),
    ("f", "1 vs 2 (images of f and g)"),
])
def test_eval_refuses_an_image_not_of_the_instance_dim(maps, message):
    # a length-1 image: numpy would broadcast it to the instance's dim
    short = {s: (lambda x: np.ones(1)) for s in maps if s in "ABCDfg"}
    if "H" in maps:
        short["H"] = lambda a, b, c, d: np.ones(1)
    if "M" in maps:
        short["M"] = lambda fu, gu: (fu - gu, np.ones(1))
    inst = example_4_7().instance.with_(**short)
    ev = eval_M_on_point if maps in ("fg", "M", "f") else eval_H_on_point
    with pytest.raises(DimensionMismatchError) as exc:
        ev(inst, [1.0, 2.0])
    assert str(exc.value) == f"dimension mismatch: {message}"


@st.composite
def _affine_instance(draw):
    """An affine instance of dim 1-50, each of A..D, f, g scaled by
    1e-6 to 1e6, and a point."""
    dim = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = {}
    for name in "ABCDfg":
        c = 10.0 ** draw(st.floats(-6.0, 6.0))
        maps[name] = AffineMap(c * rng.standard_normal((dim, dim)),
                               c * rng.standard_normal(dim))
    return _with_H(dim, AdditiveBiSlot()).with_(**maps), \
        rng.standard_normal(dim)


def _within_slack(got, want, maps, x):
    """got and want agree within `slack`, whose spread bounds the
    rounding of either: the images |L| |x| + |c| of the maps summed, times
    twice the length of the longest sum."""
    spread = sum(np.abs(m.matrix) @ np.abs(x) + np.abs(m.offset)
                 for m in maps)
    return np.all(np.abs(got - want) <= slack(
        np.abs(want), 2 * (len(x) + len(maps)) * spread))


@settings(max_examples=100, deadline=None)
@given(drawn=_affine_instance())
def test_eval_on_the_pencil_matches_the_slot_maps(drawn):
    # an affine H and M are one matvec each on the pencil: the same value,
    # up to rounding, as the slot maps, and the same errors
    inst, x = drawn
    slots = [inst.A, inst.B, inst.C, inst.D]
    assert inst.pencil.h is not None and inst.pencil.m is not None
    assert _within_slack(eval_H_on_point(inst, x), eval_H_on_images(
        inst, *(m(x) for m in slots)), slots, x)
    (got,), (want,) = eval_M_on_point(inst, x), inst.M(inst.f(x), inst.g(x))
    assert _within_slack(got, want, [inst.f, inst.g], x)
    for ev in (eval_H_on_point, eval_M_on_point):
        with pytest.raises(DimensionMismatchError):
            ev(inst, np.ones(inst.dim + 1))
    # x of the largest finite size along the signs of the row of L with
    # the largest 1-norm: past 2, that row's image overflows
    big = np.finfo(float).max
    for ev, lm in ((eval_H_on_point, inst.pencil.h.matrix),
                   (eval_M_on_point, inst.pencil.m.matrix)):
        row = lm[np.abs(lm).sum(axis=1).argmax()]
        if np.abs(row).sum() > 2:
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError):
                ev(inst, big * np.sign(row))


def test_inclusion_residual_constructed_solution():
    inst = example_4_7().instance
    u_star = np.array([0.7, -1.3])
    omega = (np.asarray(inst.F(u_star, u_star))
             + eval_M_on_point(inst, u_star)[0])
    inst2 = inst.with_(omega=omega)
    rep = inclusion_residual(inst2, u_star, u_star, u_star)
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.memberships_ok

    # perturbing u gives a strictly positive affine residual
    u_off = u_star + np.array([1.0, 0.0])
    rep_off = inclusion_residual(inst2, u_off, u_off, u_off)
    assert rep_off.value > 0.1


def test_inclusion_residual_zero_fixed_point():
    inst = example_3_2().instance  # omega = 0, all maps linear
    rep = inclusion_residual(inst, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert rep.value == pytest.approx(0.0, abs=1e-15)


def test_inclusion_residual_membership_flagging():
    inst = example_4_7().instance
    rep = inclusion_residual(inst, [1.0, 0.0], [2.0, 0.0], [1.0, 0.0])
    assert rep.v_defect == pytest.approx(1.0)
    assert rep.w_defect == pytest.approx(0.0)
    assert not rep.memberships_ok


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_membership_verdict_does_not_depend_on_scale(c):
    # S = T = identity, so S(u) = {u}: a v 10% off u is no member at any
    # scale, and one a rounding off u is
    inst = example_4_7().instance
    u = c * np.array([1.0, -0.5])
    assert not inclusion_residual(inst, u, 1.1 * u, u).memberships_ok
    assert not inclusion_residual(inst, u, u, 1.1 * u).memberships_ok
    assert inclusion_residual(inst, u, (1 + 1e-12) * u, u).memberships_ok


def test_inclusion_residual_lipschitz_along_segments():
    inst = example_4_7().instance
    fp = inst.F
    lm = (np.asarray(inst.f.matrix) - np.asarray(inst.g.matrix))
    lip = (np.linalg.norm(fp.first + fp.second, 2)
           + np.linalg.norm(lm, 2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.standard_normal((2, 2))
        ts = np.linspace(0.0, 1.0, 11)
        vals = []
        for t in ts:
            u = (1 - t) * a + t * b
            vals.append(inclusion_residual(inst, u, u, u).value)
        seg = np.linalg.norm(b - a) / 10.0
        diffs = np.abs(np.diff(vals))
        assert np.all(diffs <= lip * seg + 1e-9)


def test_nearest_node_set_map():
    s = NearestNodeSetMap(nodes=[[0.0, 0.0], [10.0, 0.0]],
                          point_sets=[[[1.0, 1.0]],
                                      [[9.0, 9.0], [8.0, 8.0]]])
    np.testing.assert_array_equal(s([0.2, 0.1])[0], [1.0, 1.0])
    assert len(s([9.5, 0.0])) == 2


def test_constant_set_map_nonempty():
    with pytest.raises(EmptySetError):
        ConstantSetMap(points=())


def test_forward_matches_hand_computation():
    inst = example_4_7().instance
    x = np.array([1.0, 2.0])
    lm = np.asarray(inst.f.matrix) - np.asarray(inst.g.matrix)
    expected = 2.9 * x + 0.35 * (lm @ x)
    np.testing.assert_allclose(forward(inst, x), expected, rtol=1e-12)


def test_ordering_flags():
    c = Constants(alpha=1.0, beta=2.0, mu1=1.0, mu2=0.5, gamma1=1.0,
                  gamma2=-1.0)
    flags = ordering_flags(c)
    assert any("alpha" in f for f in flags)
    assert any("gamma2" in f for f in flags)
    assert not any("mu1" in f for f in flags)
    # the main worked instance itself breaks alpha1 > beta1
    flags47 = ordering_flags(example_4_7().instance.constants)
    assert any("alpha1" in f for f in flags47)


def test_instance_json_round_trip():
    for named in (example_3_2(), example_3_3(), example_4_7()):
        d = instance_to_dict(named.instance)
        text = json.dumps(d)
        back = instance_from_dict(json.loads(text))
        assert back.dim == named.instance.dim
        assert back.rho == named.instance.rho
        np.testing.assert_allclose(back.omega, named.instance.omega)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(back.dim)
            np.testing.assert_allclose(eval_H_on_point(back, x),
                                       eval_H_on_point(named.instance, x),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eval_M_on_point(back, x)[0],
                                       eval_M_on_point(named.instance, x)[0],
                                       rtol=1e-12, atol=1e-12)
        assert back.constants.asdict() == named.instance.constants.asdict()


@pytest.mark.parametrize("name", builtin_names())
@settings(max_examples=15, deadline=None)
@given(log_c=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       number=st.sampled_from([float, np.float32, np.float64]))
def test_an_instance_file_certifies_as_its_instance_to_the_byte(name, log_c,
                                                                number):
    # a built-in with its maps and F times c, its constants and rho given
    # as `number`s, written to JSON and read back; the rules store Python
    # floats, so the instance serializes and its copy is the same problem
    inst = variant(get_instance(name).instance, 10.0 ** log_c)
    inst = inst.with_(rho=number(inst.rho), constants=Constants(**{
        n: number(v) for n, v in inst.constants.asdict().items()
        if v is not None}))
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    plan = SamplePlan(seed=5, n_pairs=16)
    assert (certify_instance(back, plan).to_json()
            == certify_instance(inst, plan).to_json())


@pytest.mark.parametrize("doc", [[1.0, 2.0], "example_4_7", None])
def test_instance_from_dict_refuses_what_is_not_an_object(doc):
    # a JSON file holding a list, a string or null ended in AttributeError
    with pytest.raises(ValueError, match="^an instance is a JSON object, "):
        instance_from_dict(doc)


def test_instance_from_dict_rejects_unknown_modes():
    d = instance_to_dict(example_4_7().instance)
    d["H"] = "multiplicative"
    with pytest.raises(ValueError, match="H mode"):
        instance_from_dict(d)


def test_affine_maps_hold_read_only_copies():
    # an instance caches data derived from its maps (`pencil`), so the maps
    # do not share arrays with the caller and cannot be written to
    matrix, offset = np.eye(2), np.ones(2)
    m = AffineMap(matrix, offset)
    matrix[0, 0], offset[0] = 5.0, 5.0
    assert m.matrix[0, 0] == 1.0 and m.offset[0] == 1.0
    inst = example_4_7().instance
    for array in (inst.A.matrix, inst.f.offset, inst.F.first,
                  inst.F.second, inst.F.offset):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
