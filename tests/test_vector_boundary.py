"""Every vector of the space is checked once, where it enters, by
`space.as_vector` (one vector) or `space.as_rows` (a batch or a value
set): a wrong length raises DimensionMismatchError naming the entry
point, an empty value set EmptySetError.  Each case below once passed
silently or raised a bare numpy error."""

import json

import numpy as np
import pytest

from vincl.certify import (
    SamplePlan,
    certify_generalized_mixed_accretive,
    certify_lipschitz,
    certify_m_slot_accretive,
)
from vincl.cli import EXIT_PARSE, main
from vincl.instances import example_4_7
from vincl.operators import (
    AffinePairMap,
    ConstantSetMap,
    EmptySetError,
    NearestNodeSetMap,
    hausdorff_distance,
    instance_to_dict,
)
from vincl.resolvent import Resolvent, ResolventConfig
from vincl.solver import SolverConfig, nadler_select, solve
from vincl.space import (
    DimensionMismatchError,
    NonFiniteError,
    as_rows,
    as_vector,
    inner,
)


def _sampled_image_of_length_1():
    certify_lipschitz(lambda x: np.array([x.sum()]), 1.0,
                      SamplePlan(n_pairs=8), 10)


def _m_set_empty_at_some_rows():
    inst = example_4_7().instance.with_(
        M=lambda a, b: () if a[0] > 0 else (a - b,))
    certify_m_slot_accretive(inst, "f", 0.5, SamplePlan(seed=0, n_pairs=16))


def _solve_with_an_f_image_of_length_1():
    inst = example_4_7().instance.with_(F=lambda v, w: np.array([0.25 * v[0]]))
    solve(inst, SolverConfig(z0=np.ones(2)))


@pytest.mark.parametrize("case, error, context", [
    (_sampled_image_of_length_1, DimensionMismatchError,
     "10 vs 1 (sampled image for lipschitz)"),
    (_m_set_empty_at_some_rows, EmptySetError, "image of M"),
    (_solve_with_an_f_image_of_length_1, DimensionMismatchError,
     "2 vs 1 (image of F)"),
], ids=["sampled-image-length", "empty-M-set", "solve-F-image-length"])
def test_a_malformed_map_value_raises(case, error, context):
    with pytest.raises(error) as exc:
        case()
    assert context in str(exc.value)


def _instance_file(tmp_path):
    doc = instance_to_dict(example_4_7().instance)
    doc["S"] = {"nodes": [[0, 0]], "points": [[[1.0]]]}
    path = tmp_path / "short_set_value.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "example_4_7", "--error-c0", "0.1",
     "--error-direction", "1"],
    ["solve", "--instance", "{file}"],
    ["verify", "--instance", "{file}"],
], ids=["error-direction-length", "solve-set-value-length",
        "verify-set-value-length"])
def test_cli_refuses_a_wrong_length_vector(argv, tmp_path, capsys):
    file = _instance_file(tmp_path)
    code = main([a.format(file=file) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [err.strip()]
    assert "dimension mismatch" in err and "Traceback" not in err


def _with_opaque_f():
    inst = example_4_7().instance
    return inst.with_(f=lambda x, f=inst.f: f(x))


def test_slot_certificates_sample_without_a_plan():
    # the difference coupling with a black-box f takes the default plan,
    # as every other multi-map certificate does
    inst = _with_opaque_f()
    assert certify_m_slot_accretive(
        inst, "f", inst.constants.alpha).verdict == "estimated"
    assert certify_generalized_mixed_accretive(inst).verdict == "estimated"


_EXACT = Resolvent(example_4_7().instance, ResolventConfig(rho=0.35))


@pytest.mark.parametrize("call, context", [
    (lambda: _EXACT(np.ones(3)), "2 vs 3 (resolvent)"),
    (lambda: _EXACT(np.ones((2, 3))), "2 vs 3 (resolvent)"),
    (lambda: _EXACT.images(np.ones(3)), "2 vs 3 (resolvent)"),
    (lambda: inner([1.0, 2.0], [1.0]), "2 vs 1 (inner)"),
    (lambda: hausdorff_distance([[1.0, 2.0]], [[1.0]]),
     "2 vs 1 (hausdorff_distance)"),
    (lambda: nadler_select([1.0, 2.0], [[1.0]]), "2 vs 1 (nadler_select)"),
    (lambda: AffinePairMap(np.eye(2), np.eye(2), np.ones(3)),
     "2 vs 3 (pair map)"),
    (lambda: AffinePairMap(np.eye(2), np.eye(2), np.ones(2))(
        np.ones(2), np.ones(1)), "2 vs 1 (pair map eval)"),
    (lambda: NearestNodeSetMap([[0.0, 0.0]], [[[1.0]]]),
     "2 vs 1 (grid node point set)"),
    (lambda: as_rows([[1.0, 2.0], [1.0]]), "2 vs 1"),
], ids=["resolvent-vector", "resolvent-batch", "resolvent-images",
        "inner", "hausdorff",
        "nadler-select", "pair-map-offset", "pair-map-eval",
        "nearest-node-points", "ragged-rows"])
def test_each_entry_point_names_itself(call, context):
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    assert str(exc.value) == f"dimension mismatch: {context}"


def test_value_sets_are_finite_and_nonempty():
    with pytest.raises(NonFiniteError):
        NearestNodeSetMap([[0.0, 0.0]], [[[np.nan, 1.0]]])
    with pytest.raises(NonFiniteError):
        ConstantSetMap(points=([0.0, np.inf],))
    with pytest.raises(EmptySetError):
        nadler_select([1.0, 2.0], [])
    with pytest.raises(EmptySetError):
        _EXACT(np.ones((0, 2)))


def test_as_vector_and_as_rows_agree():
    v = as_vector([1.0, 2.0], 2, "here")
    rows = as_rows([v, [3.0, 4.0]], 2, "here")
    assert rows.shape == (2, 2) and rows.dtype == float
    np.testing.assert_array_equal(rows[0], v)
    for bad in ([], [[]], [[[1.0, 2.0]]], [1.0, 2.0]):
        with pytest.raises(ValueError):
            as_rows(bad)
    for k in range(6):          # a NaN or an Inf in any coordinate
        for value in (np.nan, np.inf, -np.inf):
            bad = np.ones((3, 2))
            bad.flat[k] = value
            with pytest.raises(NonFiniteError,
                               match="^batch has non-finite coordinates$"):
                as_rows(bad)
