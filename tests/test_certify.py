import collections
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_scale_invariance import lift, variant
from vincl.certify import (
    InsufficientEvidenceError,
    SamplePlan,
    _det_polynomial_roots,
    certify_d_lipschitz,
    certify_expansive,
    certify_F_properties,
    certify_generalized_mixed_accretive,
    certify_instance,
    certify_lipschitz,
    certify_m_slot_accretive,
    certify_mixed_lipschitz,
    certify_relaxed_accretive,
    certify_strong_accretive,
    certify_symmetric_mixed_cocoercive,
)
from vincl.instances import example_3_2, example_3_3, example_4_7
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    AffinePencil,
    ConstantSetMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    SingletonSetMap,
    negate_map,
)
from vincl.resolvent import _SMALL_DIM, Composite, forward
from vincl.space import ConfigError, NonFiniteError, SpaceConfig


# ---------------------------------------------------------------------------
# strong / relaxed accretivity
# ---------------------------------------------------------------------------

def test_strong_accretive_rotation_coupling():
    cert = certify_strong_accretive(example_3_2().instance.f, 5.0)
    assert cert.verdict == "pass"
    assert cert.method == "exact_affine"
    assert cert.constant == pytest.approx(5.0, abs=1e-12)


def test_strong_accretive_half_slope():
    cert = certify_strong_accretive(example_4_7().instance.f, 0.5)
    assert cert.verdict == "pass"
    assert cert.constant == pytest.approx(0.5, abs=1e-12)


def test_strong_accretive_identity():
    cert = certify_strong_accretive(AffineMap.identity(3), 1.0)
    assert cert.verdict == "pass" and cert.constant == pytest.approx(1.0)


def test_strong_accretive_fail_with_witness():
    cert = certify_strong_accretive(AffineMap.scaling(0.5, 2), 1.0)
    assert cert.verdict == "fail"
    assert cert.witness is not None
    assert cert.witness["lhs"] < cert.witness["rhs"]


def test_relaxed_accretive_g_slots():
    cert = certify_relaxed_accretive(negate_map(example_3_2().instance.g), 7 / 4)
    assert cert.verdict == "pass"
    assert cert.constant == pytest.approx(7 / 4, abs=1e-12)
    cert47 = certify_relaxed_accretive(negate_map(example_4_7().instance.g), 0.25)
    assert cert47.verdict == "pass"
    assert cert47.constant == pytest.approx(0.25, abs=1e-12)


def test_relaxed_accretive_zero_map_any_claim():
    for beta in (0.01, 1.0, 100.0):
        cert = certify_relaxed_accretive(AffineMap.zero(2), beta)
        assert cert.verdict == "pass"


def test_m_slot_certificates_match_direct_ones():
    inst = example_3_2().instance
    cf = certify_m_slot_accretive(inst, "f", inst.constants.alpha)
    cg = certify_m_slot_accretive(inst, "g", inst.constants.beta)
    assert cf.constant == pytest.approx(5.0) and cf.verdict == "pass"
    assert cg.constant == pytest.approx(1.75) and cg.verdict == "pass"


# ---------------------------------------------------------------------------
# mixed cocoercivity / mixed Lipschitz
# ---------------------------------------------------------------------------

def test_symmetric_mixed_cocoercive_isotropic():
    strong, relaxed = certify_symmetric_mixed_cocoercive(example_3_2().instance)
    assert strong.verdict == "pass"
    assert strong.constant == pytest.approx(2.0, abs=1e-12)
    assert strong.details["mu"] == pytest.approx(0.25)
    assert relaxed.verdict == "pass"
    assert relaxed.constant == pytest.approx(1.0, abs=1e-12)
    assert relaxed.details["mu"] == pytest.approx(1 / 3)


def test_symmetric_mixed_cocoercive_small_slopes():
    strong, relaxed = certify_symmetric_mixed_cocoercive(example_4_7().instance)
    assert strong.verdict == "pass" and strong.constant == pytest.approx(2.0)
    assert strong.details["mu"] == pytest.approx(10.0)
    assert relaxed.verdict == "pass" and relaxed.constant == pytest.approx(1.0)
    assert relaxed.details["mu"] == pytest.approx(5.0)


def test_an_overflowing_cocoercive_form_is_taken_in_units_of_its_slot():
    # mu1 L_A'L_A is 1e300 in size, but L_A'L_A alone overflowed, with a
    # warning: the form is taken from L/s in units of s*s, and matches it
    # formed from L_A / 2^520 in units of 2^1040
    inst = example_4_7().instance
    big = 1e155 * np.array([[1.0, 0.5], [0.5, 2.0]])
    inst = inst.with_(A=AffineMap.linear(big), constants=dataclasses.replace(
        inst.constants, mu1=1e-10))
    strong = certify_symmetric_mixed_cocoercive(inst)[0]
    p, r = big / 2.0 ** 520, inst.C.matrix / 2.0 ** 520
    form = 0.5 * (p + r + (p + r).T) / 2.0 ** 520 - 1e-10 * (p.T @ p)
    want = math.ldexp(float(np.linalg.eigvalsh(form)[0]), 1040)
    assert math.isfinite(want) and want < -1e299
    assert strong.verdict == "fail"
    assert strong.constant == pytest.approx(want, rel=1e-12)


def test_mixed_lipschitz_exact_slopes():
    c32 = certify_mixed_lipschitz(example_3_2().instance, 4.0)
    assert c32.verdict == "pass" and c32.constant == pytest.approx(4.0)
    c47 = certify_mixed_lipschitz(example_4_7().instance, 2.9)
    assert c47.verdict == "pass" and c47.constant == pytest.approx(2.9)


def test_mixed_lipschitz_zero_slots():
    dim = 2
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.zero(dim), B=AffineMap.zero(dim),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.identity(dim), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0)
    for tau in (0.1, 5.0):
        assert certify_mixed_lipschitz(inst, tau).verdict == "pass"


# ---------------------------------------------------------------------------
# expansive / Lipschitz
# ---------------------------------------------------------------------------

def test_expansive_and_lipschitz_exact():
    inst = example_4_7().instance
    ce = certify_expansive(inst.A, 0.1)
    assert ce.verdict == "pass" and ce.constant == pytest.approx(0.1)
    cl = certify_lipschitz(inst.B, 0.2)
    assert cl.verdict == "pass" and cl.constant == pytest.approx(0.2)
    ident = AffineMap.identity(2)
    assert certify_expansive(ident, 1.0).verdict == "pass"
    assert certify_lipschitz(ident, 1.0).verdict == "pass"


def test_lipschitz_claim_below_slope_fails():
    cert = certify_lipschitz(example_4_7().instance.B, 0.19)
    assert cert.verdict == "fail"
    assert cert.witness is not None


# ---------------------------------------------------------------------------
# F properties
# ---------------------------------------------------------------------------

def test_F_properties_constants_block():
    certs = certify_F_properties(example_4_7().instance)
    by_prop = {c.property: c for c in certs}
    sigma = by_prop["F_strongly_accretive_first"]
    delta = by_prop["F_strongly_accretive_second"]
    assert sigma.verdict == "pass"
    assert sigma.constant == pytest.approx(0.725, abs=1e-12)
    # the same inequality normalized by the H increment: 0.725 / 2.9^2
    assert sigma.details["constant_vs_H_increment"] == pytest.approx(
        0.725 / 8.41, abs=1e-12)
    assert delta.constant == pytest.approx(0.580, abs=1e-12)
    assert by_prop["F_lipschitz_first"].constant == pytest.approx(0.25)
    assert by_prop["F_lipschitz_second"].constant == pytest.approx(0.2)
    assert all(c.verdict == "pass" for c in certs)


def test_F_first_projection_with_identity_slots():
    # F(x, y) = x against H composed of identity slots: both quotients are 1
    dim = 2
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim),
        A=AffineMap.identity(dim), B=AffineMap.zero(dim),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.identity(dim), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(sigma=1.0, delta=0.0001, eps1=1.0, eps2=0.0001))
    certs = certify_F_properties(inst)
    sigma = certs[0]
    assert sigma.verdict == "pass"
    assert sigma.constant == pytest.approx(1.0, abs=1e-12)
    assert sigma.details["constant_vs_H_increment"] == pytest.approx(1.0,
                                                                     abs=1e-9)


def _orthogonal(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       log_cond=st.one_of(st.floats(0.0, 4.0), st.floats(13.0, 16.0)),
       singular=st.booleans(), log_scale=st.floats(-6.0, 6.0),
       selection=st.sampled_from(["identity", "affine"]),
       affine_m=st.booleans())
@example(dim=_SMALL_DIM, seed=1, log_cond=2.0, singular=False, log_scale=0.0,
         selection="affine", affine_m=True)
@example(dim=_SMALL_DIM - 1, seed=2, log_cond=2.0, singular=True,
         log_scale=3.0, selection="identity", affine_m=False)
def test_F_vs_H_increment_matches_scipy_eigh(dim, seed, log_cond, singular,
                                            log_scale, selection, affine_m):
    # the exact constant_vs_H_increment is min over d of <P d, L_H d> /
    # ||L_H d||^2, P = F_1 L_S: the smallest eigenvalue of the symmetric
    # pencil (sym(P' L_H), L_H' L_H), taken here by scipy's generalized
    # eigh; it is None exactly where L_H is singular or its condition
    # number is past 1e12, the rule of Composite.invertible
    rng = np.random.default_rng(seed)
    s = np.geomspace(1.0, 10.0 ** -log_cond, dim)
    if singular:
        s[rng.integers(dim)] = 0.0
    lh = 10.0 ** log_scale * (_orthogonal(rng, dim) * s) @ _orthogonal(
        rng, dim).T
    first, ls = rng.standard_normal((2, dim, dim))
    zero = AffineMap.zero(dim)
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim), A=AffineMap.linear(lh), B=zero, C=zero,
        D=zero, f=AffineMap.identity(dim),
        g=zero if affine_m else (lambda x: 0.0 * x), H=AdditiveBiSlot(),
        F=AffinePairMap(first, np.zeros((dim, dim)), np.zeros(dim)),
        M=DifferenceCoupling(),
        S=(IdentitySetMap() if selection == "identity"
           else SingletonSetMap(AffineMap.linear(ls))),
        T=IdentitySetMap(), omega=np.zeros(dim), rho=1.0,
        constants=Constants(sigma=0.1, delta=0.1, eps1=1.0, eps2=1.0))
    assert inst.pencil.affine is affine_m
    got = certify_F_properties(inst)[0].details["constant_vs_H_increment"]
    if singular or (dim > 1 and log_cond > 12.0):
        assert got is None
        return
    p = first if selection == "identity" else first @ ls
    ref = scipy.linalg.eigh(0.5 * (p.T @ lh + lh.T @ p), lh.T @ lh,
                            eigvals_only=True)
    # both sides are accurate to about eps * cond(L_H)^2 * max |lambda|
    assert abs(got - ref[0]) <= 1e-6 * float(np.abs(ref).max())


def _root_clusters(roots):
    """The sorted roots, those within 1e-6 of the one before merged."""
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-6 * (1.0 + abs(r)):
            out.append(r)
    return out


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       n_zero=st.integers(0, 3), repeat=st.booleans(),
       rho0=st.sampled_from([None, 0.5, 1.0, 2.0]))
@example(dim=3, seed=1, n_zero=3, repeat=False, rho0=None)   # L_M = 0
@example(dim=4, seed=2, n_zero=2, repeat=True, rho0=1.0)
def test_det_polynomial_roots_match_qz(dim, seed, n_zero, repeat, rho0):
    # L_H = P diag(h) Q and L_M = P diag(m) Q, P and Q orthogonal: det(L_H
    # + rho*L_M) = +-prod(h_i + rho*m_i), whose roots are -h_i / m_i where
    # m_i != 0.  A zero m_i makes L_M singular and a repeated -h_i / m_i
    # a repeated root; the roots, from K0^-1 L_M at rho0 (or at the first
    # invertible scan node), are those of scipy's QZ, eig(L_H, -L_M)
    rng = np.random.default_rng(seed)
    roots = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.1, 3.0, dim)
    if repeat and dim > 1:
        roots[1] = roots[0]
    m = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.5, 2.0, dim)
    h = -roots * m
    zero = rng.permutation(dim)[:n_zero]
    m[zero], h[zero] = 0.0, rng.uniform(0.5, 2.0, len(zero))
    p, q = _orthogonal(rng, dim), _orthogonal(rng, dim)
    lh, lm = (p * h) @ q.T, (p * m) @ q.T
    pencil = AffinePencil(AffineMap.linear(lh), AffineMap.linear(lm))
    k = None
    if rho0 is not None and Composite(pencil, rho0).invertible:
        k = Composite(pencil, rho0)
    got = _det_polynomial_roots(pencil, k)
    expected = _root_clusters(roots[(m != 0.0) & (roots > 0.0)])
    eigs = scipy.linalg.eig(lh, -lm, right=False)
    # QZ leaves a zero m_i an infinite or a huge eigenvalue
    eigs = eigs[np.isfinite(eigs) & (np.abs(eigs) < 1e8)]
    qz = eigs.real[(np.abs(eigs.imag) <= 1e-8 * (1.0 + np.abs(eigs.real)))
                   & (eigs.real > 1e-12)]
    for found in (got, qz):
        found = _root_clusters(found)
        assert len(found) == len(expected)
        np.testing.assert_allclose(found, expected, rtol=1e-7)


# ---------------------------------------------------------------------------
# set-distance Lipschitz
# ---------------------------------------------------------------------------

def test_d_lipschitz_identity_and_constant():
    assert certify_d_lipschitz(IdentitySetMap(), 1.0).verdict == "pass"
    cm = ConstantSetMap(points=([0.0, 1.0], [2.0, 0.0]))
    cert = certify_d_lipschitz(cm, 0.001, SamplePlan(seed=3, n_pairs=64),
                               dim=2)
    assert cert.verdict == "estimated"       # sampled path cannot prove
    assert cert.constant == pytest.approx(0.0, abs=1e-12)


def test_d_lipschitz_doubling_map():
    doubling = SingletonSetMap(AffineMap.scaling(2.0, 2))
    ok = certify_d_lipschitz(doubling, 2.0)
    assert ok.verdict == "pass" and ok.constant == pytest.approx(2.0)
    bad = certify_d_lipschitz(doubling, 1.9)
    assert bad.verdict == "fail"
    assert bad.witness is not None


# ---------------------------------------------------------------------------
# the combined class decision
# ---------------------------------------------------------------------------

def test_generalized_class_passes_on_invertible_composites():
    cert = certify_generalized_mixed_accretive(example_3_2().instance,
                                               rho_grid=[0.5, 1.0, 2.0])
    assert cert.verdict == "pass"
    assert cert.details["determinant_positive_roots"] == []
    cert47 = certify_generalized_mixed_accretive(example_4_7().instance,
                                                 rho_grid=[1.0])
    assert cert47.verdict == "pass"


def test_generalized_class_fails_on_degenerate_composite():
    cert = certify_generalized_mixed_accretive(example_3_3().instance,
                                               rho_grid=[1.0])
    assert cert.verdict == "fail"
    assert cert.witness["image_norm"] == pytest.approx(2.0, abs=1e-12)
    assert 1.0 in cert.details["determinant_positive_roots"]
    # the constant-image defect shows up as ||(H + rho*M)(x)|| = 2 everywhere
    inst = example_3_3().instance
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(inst.dim)
        assert np.linalg.norm(forward(inst, x, rho=1.0)) == pytest.approx(
            2.0, abs=1e-12)


def test_generalized_class_fails_off_grid_via_polynomial():
    cert = certify_generalized_mixed_accretive(example_3_3().instance,
                                               rho_grid=[0.5])
    assert cert.verdict == "fail"


def test_alpha_below_beta_is_the_first_defect_of_an_onto_composite():
    # the slot constants are 0.5 and 0.25, so both claims pass, and the
    # composite is invertible on the grid: alpha < beta is the witness
    inst = example_4_7().instance.with_(
        constants=Constants(alpha=0.2, beta=0.25))
    cert = certify_generalized_mixed_accretive(inst)
    assert cert.verdict == "fail" and not cert.details["alpha_ge_beta"]
    assert cert.witness == {
        "defect": "alpha < beta breaks symmetric accretivity",
        "alpha": 0.2, "beta": 0.25}


@pytest.mark.parametrize("lh", [np.zeros((2, 2)), np.diag([1.0, 0.0])],
                         ids=["zero", "singular"])
def test_the_range_witness_is_the_composite_defect(lh):
    # one record says why H + rho*M is not onto, for `Resolvent` and the
    # certificate alike; a singular part's carries its condition number
    inst = _pencil_instance(lh, np.zeros((2, 2)), 1.0)
    cert = certify_generalized_mixed_accretive(inst, rho_grid=[1.0])
    defect = Composite(inst.pencil, 1.0).defect()
    assert cert.verdict == "fail" and cert.witness == defect
    assert ("cond" in defect) == bool(lh.any())


def _pencil_instance(lh, lm, rho):
    """The affine instance whose composite is K(rho) = lh + rho*lm: A = lh
    and f = lm under the additive H and the difference coupling, the
    other slots zero."""
    dim = len(lh)
    zero = AffineMap.zero(dim)
    return InclusionInstance(
        space=SpaceConfig(dim=dim), A=AffineMap.linear(lh), B=zero, C=zero,
        D=zero, f=AffineMap.linear(lm), g=zero, H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((dim, dim)), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=rho,
        constants=Constants(alpha=0.05, beta=0.05))


def _random_pencil(rng, dim, kind, singular_at=1.0):
    """(L_H, L_M).  "positive": each a Gram matrix / dim plus 0.1 I plus a
    skew part, so sym(L_H + rho*L_M) >= 0.1 I at every rho >= 0;
    "negative": minus that; "indefinite": Gaussian; "singular": Gaussian
    with L_H + singular_at*L_M of rank dim - 1."""
    if kind in ("positive", "negative"):
        a, b, c, d = rng.standard_normal((4, dim, dim))
        sign = 1.0 if kind == "positive" else -1.0
        return (sign * (a @ a.T / dim + 0.1 * np.eye(dim) + b - b.T),
                sign * (c @ c.T / dim + 0.1 * np.eye(dim) + d - d.T))
    lh, lm = rng.standard_normal((2, dim, dim))
    if kind == "singular":
        u, s, vt = np.linalg.svd(lh + singular_at * lm)
        s[-1] = 0.0
        lh = (u * s) @ vt - singular_at * lm
    return lh, lm


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["positive", "negative", "indefinite",
                             "singular"]),
       grid=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                     min_size=1, max_size=4, unique=True),
       declared=st.sampled_from([0.5, 1.0, 1.7]))
@example(dim=_SMALL_DIM, seed=1, kind="indefinite", grid=[0.5, 1.0],
         declared=1.0)
@example(dim=_SMALL_DIM - 1, seed=2, kind="singular", grid=[1.0, 2.0],
         declared=1.7)
@example(dim=_SMALL_DIM, seed=3, kind="negative", grid=[0.25, 3.0],
         declared=0.5)
def test_surjectivity_grid_against_svd(dim, seed, kind, grid, declared):
    # each grid entry's sigma_min_lower bounds sigma_min(K) from below,
    # and is sigma_min itself where sym(K) is indefinite; `singular` is
    # cond > 1e12 of the SVD, and the first singular entry the witness;
    # the constant is sigma_min(K(inst.rho))
    rng = np.random.default_rng(seed)
    inst = _pencil_instance(*_random_pencil(rng, dim, kind, grid[0]),
                            declared)
    lh, lm = inst.pencil.h.matrix, inst.pencil.m.matrix
    cert = certify_generalized_mixed_accretive(inst, rho_grid=grid)
    assert [e["rho"] for e in cert.details["grid"]] == grid
    for entry in cert.details["grid"]:
        k = entry["rho"] * lm + lh
        sv = np.linalg.svd(k, compute_uv=False)
        assert entry["sigma_min_lower"] <= sv[-1] * (1.0 + 1e-12)
        eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
        if eigs[0] < 0.0 < eigs[-1]:
            assert entry["sigma_min_lower"] == sv[-1]
        cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        assert entry["singular"] == bool(cond > 1e12)
    singular = [e["rho"] for e in cert.details["grid"] if e["singular"]]
    if singular:
        assert cert.verdict == "fail" and cert.witness["rho"] == singular[0]
    assert cert.constant == np.linalg.svd(declared * lm + lh,
                                          compute_uv=False)[-1]


def test_definite_grid_takes_one_svd_at_the_declared_rho(monkeypatch):
    # where the Weyl margins show sym(K) definite, a grid entry takes no
    # decomposition: the one values-only SVD is that of K(inst.rho), a
    # grid node or not.  An indefinite pencil takes one per grid rho,
    # the declared rho's reused, and reports the exact sigma_min; this
    # one has positive roots below the grid rho they start from, so K(0)
    # takes one more for the refinement of those roots
    calls = []
    original = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    rng = np.random.default_rng(5)
    dim, grid = 20, [0.5, 1.0, 2.0, 3.0]
    for declared in (1.0, 1.7):
        lh, lm = _random_pencil(rng, dim, "positive")
        calls.clear()
        cert = certify_generalized_mixed_accretive(
            _pencil_instance(lh, lm, declared), rho_grid=grid)
        assert cert.verdict == "pass"
        assert len(calls) == 1
        assert cert.constant == original(declared * lm + lh,
                                         compute_uv=False)[-1]
        for entry in cert.details["grid"]:
            assert 0.0 < entry["sigma_min_lower"] < original(
                entry["rho"] * lm + lh, compute_uv=False)[-1]
    lh, lm = _random_pencil(rng, dim, "indefinite")
    calls.clear()
    cert = certify_generalized_mixed_accretive(
        _pencil_instance(lh, lm, 1.0), rho_grid=grid)
    assert len(calls) == len(grid) + 1
    for entry in cert.details["grid"]:
        assert entry["sigma_min_lower"] == original(
            entry["rho"] * lm + lh, compute_uv=False)[-1]


def test_small_positive_determinant_root_is_kept():
    # det(diag(1, 1e-11) + rho*diag(0, -1)) = 1e-11 - rho: its root is
    # kept to 10 significant digits, not rounded to 10 decimals, 0.0; the
    # certificate's too: K0 at a grid rho gives it as rho0 - 1/mu, with
    # cancellation, and K(0), invertible, as -1/mu0 with none
    lh, lm = np.diag([1.0, 1e-11]), np.diag([0.0, -1.0])
    pencil = AffinePencil(AffineMap.linear(lh), AffineMap.linear(lm))
    assert _det_polynomial_roots(pencil, None) == [1e-11]
    cert = certify_generalized_mixed_accretive(
        _pencil_instance(lh, lm, 1.0))
    assert cert.verdict == "fail"
    assert cert.witness["defect"] == "determinant vanishes at a positive rho"
    assert cert.witness["rho"] == 1e-11
    assert cert.details["determinant_positive_roots"] == [cert.witness["rho"]]


def test_ill_conditioned_k_at_zero_keeps_a_large_root():
    # det(diag(1 - 0.01*rho, 1e-11 + rho)) has roots 100 and -1e-11: K(0),
    # invertible at cond 1e11, would put A0 = diag(-0.01, 1e11) and drop
    # mu0 = -0.01 below the condition limit; the roots come from the best
    # grid composite, and K(0) only refines a root below its rho
    lh, lm = np.diag([1.0, 1e-11]), np.diag([-0.01, 1.0])
    pencil = AffinePencil(AffineMap.linear(lh), AffineMap.linear(lm))
    assert Composite(pencil, 0.0).invertible
    cert = certify_generalized_mixed_accretive(
        _pencil_instance(lh, lm, 1.0))
    assert cert.verdict == "fail"
    assert cert.witness["defect"] == "determinant vanishes at a positive rho"
    assert cert.witness["rho"] == 100.0
    assert cert.details["determinant_positive_roots"] == [100.0]


def test_definite_grid_takes_no_determinant_and_no_factorization(
        monkeypatch):
    # a grid entry holds rho, sigma_min_lower and singular; where the Weyl
    # margins show sym(K) definite it takes no slogdet and no LU, numpy's
    # or LAPACK's
    calls = collections.Counter()
    for module, name in ((np.linalg, "slogdet"), (np.linalg, "inv"),
                         (scipy.linalg.lapack, "dgetrf")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=original,
                            **k: calls.update([_n]) or _f(*a, **k))
    lh, lm = _random_pencil(np.random.default_rng(6), 20, "positive")
    cert = certify_generalized_mixed_accretive(
        _pencil_instance(lh, lm, 1.0), rho_grid=[0.5, 1.0, 2.0, 3.0])
    assert cert.verdict == "pass"
    assert not calls
    for entry in cert.details["grid"]:
        assert set(entry) == {"rho", "sigma_min_lower", "singular"}


@pytest.mark.parametrize("slot,name", [("f", "alpha"), ("g", "beta")])
@pytest.mark.parametrize("claimed", [0.0, -0.5])
def test_m_slot_claim_must_be_positive_under_any_coupling(slot, name,
                                                          claimed):
    # a coupling other than the difference one takes the sampled path,
    # which must refuse a non-positive claim as the exact one does
    inst = example_4_7().instance
    inst = inst.with_(M=lambda a, b: (a - b,), constants=dataclasses.replace(
        inst.constants, **{name: claimed}))
    with pytest.raises(ConfigError, match="claimed constant must be > 0"):
        certify_m_slot_accretive(inst, slot, claimed)
    with pytest.raises(ConfigError, match="claimed constant must be > 0"):
        certify_instance(inst, SamplePlan(seed=1))


# ---------------------------------------------------------------------------
# verdict semantics
# ---------------------------------------------------------------------------

def test_sampled_path_never_passes():
    # wrap an affine map so only the black-box contract is visible
    f = example_3_2().instance.f
    cert = certify_strong_accretive(lambda x: f(x), 5.0,
                                    plan=SamplePlan(seed=5, n_pairs=128),
                                    dim=2)
    assert cert.method == "sampled"
    assert cert.verdict == "estimated"
    assert cert.constant >= 5.0 - 1e-9


def test_sampled_and_exact_paths_agree_on_affine_maps():
    rng = np.random.default_rng(6)
    for _ in range(10):
        mat = rng.standard_normal((3, 3))
        m = AffineMap.linear(mat)
        lam_min = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
        claimed = lam_min - 0.1 if lam_min > 0.2 else 0.05
        exact = None
        try:
            exact = certify_strong_accretive(m, claimed)
        except ValueError:
            continue
        sampled = certify_strong_accretive(lambda x, m=m: m(x), claimed,
                                           plan=SamplePlan(seed=7, n_pairs=64),
                                           dim=3)
        if exact.verdict == "pass":
            assert sampled.verdict == "estimated"
        # a sample is a subset of the exact claim's domain:
        # sampled failure implies exact failure
        if sampled.verdict == "fail":
            assert exact.verdict == "fail"


def test_monotonicity_weaker_claims_still_pass():
    f = example_3_2().instance.f
    for weaker in (4.0, 2.0, 0.5):
        assert certify_strong_accretive(f, weaker).verdict == "pass"
    b = example_4_7().instance.B
    for weaker in (0.2, 0.3, 1.0):
        assert certify_lipschitz(b, weaker).verdict == "pass"


def test_insufficient_evidence_for_blackbox_without_plan():
    with pytest.raises(InsufficientEvidenceError):
        certify_strong_accretive(lambda x: x, 1.0, plan=None, dim=2)
    with pytest.raises(InsufficientEvidenceError):
        certify_strong_accretive(
            lambda x: x, 1.0,
            plan=SamplePlan(n_pairs=0, include_lattice=False), dim=2)


def test_bundle_determinism():
    inst = example_4_7().instance
    b1 = certify_instance(inst, SamplePlan(seed=42))
    b2 = certify_instance(inst, SamplePlan(seed=42))
    assert b1.to_json() == b2.to_json()


# ---------------------------------------------------------------------------
# one table of plan-row images per certify_instance
# ---------------------------------------------------------------------------

COUNTED = ("A", "B", "C", "D", "f", "g", "H", "F")


def _blackbox_lift(wrap):
    """example_4_7's black-box lift to dim 10, each map in COUNTED
    replaced by wrap(name, map)."""
    inst = variant(lift(example_4_7().instance, 10), 1.0, blackbox=True)
    return inst.with_(**{s: wrap(s, getattr(inst, s)) for s in COUNTED})


def test_certify_instance_evaluates_each_map_once_per_plan_row():
    calls = collections.Counter()

    def counted(name, m):
        def call(*args):
            calls[name] += 1
            return m(*args)
        return call
    inst = _blackbox_lift(counted)
    plan = SamplePlan(seed=7, n_pairs=64)
    n = len(plan.arrays(inst.dim)[0])
    bundle = certify_instance(inst, plan, rho_grid=[])   # no range probes
    assert bundle.all_ok()
    for slot in ("A", "B", "C", "D", "f", "g"):
        assert 0 < calls[slot] <= 2 * n, slot    # once per X and Y row
    assert 0 < calls["H"] <= 6 * n   # composed H, then the two halves
    assert 0 < calls["F"] <= 4 * n   # both arguments at identity selections


class _CountedSlots(AdditiveBiSlot):
    calls = 0

    def __call__(self, *images):
        self.calls += 1
        return super().__call__(*images)


def test_certify_instance_sums_an_additive_H_without_calling_it():
    # an additive H is summed over whole image tables, never called per row
    h = _CountedSlots()
    inst = _blackbox_lift(lambda name, m: m).with_(H=h)
    bundle = certify_instance(inst, SamplePlan(seed=7, n_pairs=64),
                              rho_grid=[])       # no range probes
    assert bundle.all_ok() and h.calls == 0


@pytest.mark.parametrize("certify", [
    certify_instance, certify_mixed_lipschitz,
    certify_symmetric_mixed_cocoercive])
def test_an_overflowing_sum_of_images_raises_non_finite(certify):
    # the images of A and C are finite, their sum is not
    def huge(name, m):
        return (lambda x: m(x) + 1e308) if name in "AC" else m
    inst = _blackbox_lift(huge)
    claimed = (inst.constants.tau,) if certify is certify_mixed_lipschitz \
        else ()
    with pytest.raises(NonFiniteError):
        certify(inst, *claimed, plan=SamplePlan(seed=7, n_pairs=16))


class _MapFault(Exception):
    pass


@pytest.mark.parametrize("slot", COUNTED)
def test_a_raising_map_makes_certify_instance_raise(slot):
    def faulty(name, m):
        if name != slot:
            return m
        calls = itertools.count()

        def call(*args):
            if next(calls) == 50:
                raise _MapFault(name)
            return m(*args)
        return call
    inst = _blackbox_lift(faulty)
    with pytest.raises(_MapFault):
        certify_instance(inst, SamplePlan(seed=7, n_pairs=64), rho_grid=[])


@pytest.mark.parametrize("slot", ["A", "H", "F"])
def test_a_map_writing_into_its_argument_raises(slot):
    # the kept rows and images are shared by every certificate in the run,
    # so they are read-only rather than silently changed for the next one
    def writing(name, m):
        if name != slot:
            return m

        def call(x, *rest):
            x *= 1.0
            return m(x, *rest)
        return call
    inst = _blackbox_lift(writing)
    with pytest.raises(ValueError, match="read-only"):
        certify_instance(inst, SamplePlan(seed=7, n_pairs=64), rho_grid=[])


def test_claim_validation():
    with pytest.raises(ValueError):
        certify_strong_accretive(AffineMap.identity(2), -1.0)
    with pytest.raises(ValueError):
        certify_lipschitz(AffineMap.identity(2), 0.0)



@pytest.mark.parametrize("certify, verdict", [
    (lambda m, c, plan: certify_lipschitz(m, c, plan, 2), "estimated"),
    (lambda m, c, plan: certify_strong_accretive(m, c, 2, plan, 2), "fail"),
], ids=["lipschitz", "strongly_accretive"])
def test_a_claim_at_the_float_maximum_is_decided_without_overflow(certify,
                                                                  verdict):
    # the sampled forms shift the quotient by its slack, not the claim, and
    # the accretive form compares per unit of s^q: neither claimed + tol
    # nor claimed * s^q is formed, but for a witness's rhs
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = certify(lambda x: 1.0 * x, big, SamplePlan(n_pairs=8))
        text = cert.to_json()
    assert cert.verdict == verdict
    assert cert.constant == pytest.approx(1.0, rel=1e-12)
    if cert.witness is not None:
        d = np.subtract(cert.witness["x"], cert.witness["y"])
        s_q = float(d @ d)
        assert cert.witness["lhs"] == pytest.approx(s_q, rel=1e-12)
        assert cert.witness["rhs"] == big * s_q
    assert json.loads(text)["witness"] == cert.witness
