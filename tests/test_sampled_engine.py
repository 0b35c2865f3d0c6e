"""The sampled-inequality engine against a per-pair reference loop, the
sample plan's arrays, and the surjectivity certificate's scale invariance."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vincl.certify import (
    InsufficientEvidenceError,
    SamplePlan,
    certify_expansive,
    certify_generalized_mixed_accretive,
    certify_instance,
    certify_lipschitz,
    certify_m_slot_accretive,
    certify_relaxed_accretive,
    certify_strong_accretive,
)
from vincl.instances import example_3_3, example_4_7
from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
)
from vincl.resolvent import Composite, Resolvent, ResolventConfig, forward
from vincl.space import ConfigError, SpaceConfig, duality_map, slack

DIM = 3


# ---------------------------------------------------------------------------
# Reference: the per-pair sample generator and loop the engine replaces
# ---------------------------------------------------------------------------

def reference_triples(plan, dim):
    """(x, y, u) samples drawn one pair at a time, lattice first."""
    out = []
    if plan.include_lattice:
        lat = plan._lattice(dim)
        for i in range(len(lat) - 1):
            out.append((lat[i], lat[i + 1], lat[(i + 2) % len(lat)]))
    rng = np.random.default_rng(plan.seed)
    for _ in range(plan.n_pairs):
        x = plan.scale * rng.standard_normal(dim)
        y = plan.scale * rng.standard_normal(dim)
        u = plan.scale * rng.standard_normal(dim)
        out.append((x, y, u))
    return out


def reference_loop(plan, candidates, upper=False, sign=1):
    """(verdict, witness pair, constant) from a walk over the plan.

    `candidates(x, y, u)` yields (lhs, rhs, tol, quotient, usable) per
    candidate, tol its `slack`; the walk stops at the first violation
    beyond tol.
    """
    best = None
    for x, y, u in reference_triples(plan, DIM):
        for lhs, rhs, tol, quotient, usable in candidates(x, y, u):
            if not usable:
                continue
            if (lhs > rhs + tol) if upper else (lhs < rhs - tol):
                return "fail", (x, y), sign * quotient
            if best is None:
                best = quotient
            best = max(best, quotient) if upper else min(best, quotient)
    return "estimated", None, None if best is None else sign * best


def pairing(a, b, d, scale, claimed, sign, q=2.0, shift=0.0):
    """One candidate of <a - b, J_q(d)> >= shift + sign*claimed*scale^q:
    slack of size |lhs| + |shift| + claimed*scale^q and of spread
    dim (||a|| + ||b||) ||d||^(q-1)."""
    lhs = float(np.dot(a - b, duality_map(d, q)))
    usable = scale >= 1e-12
    quotient = (lhs - shift) / scale ** q if usable else 0.0
    tol = slack(abs(lhs) + abs(shift) + abs(claimed) * scale ** q,
                len(d) * (np.linalg.norm(a) + np.linalg.norm(b))
                * np.linalg.norm(d) ** (q - 1))
    return lhs, shift + sign * claimed * scale ** q, tol, quotient, usable


def accretive_candidates(m, claimed, sign):
    def cands(x, y, u):
        dx = x - y
        yield pairing(m(x), m(y), dx, np.linalg.norm(dx), claimed, sign)
    return cands


def norm_candidates(m, claimed):
    def cands(x, y, u):
        nx = np.linalg.norm(x - y)
        usable = nx >= 1e-12
        ratio = np.linalg.norm(m(x) - m(y)) / nx if usable else 0.0
        spread = (DIM * (np.linalg.norm(m(x)) + np.linalg.norm(m(y))) / nx
                  if usable else 0.0)
        tol = slack(ratio + abs(claimed), spread)
        yield ratio, claimed, tol, ratio, usable
    return cands


def m_slot_candidates(inst, slot, claimed, sign):
    def cands(x, y, u):
        if slot == "f":
            us, vs = inst.M(inst.f(x), u), inst.M(inst.f(y), u)
        else:
            us, vs = inst.M(u, inst.g(x)), inst.M(u, inst.g(y))
        dx = x - y
        for a in us:
            for b in vs:
                yield pairing(a, b, dx, np.linalg.norm(dx), claimed, sign)
    return cands


def assert_same(cert, ref):
    verdict, pair, constant = ref
    assert cert.method == "sampled"
    assert cert.verdict == verdict
    if pair is None:
        assert cert.witness is None
    else:
        np.testing.assert_array_equal(cert.witness["x"], pair[0])
        np.testing.assert_array_equal(cert.witness["y"], pair[1])
    if constant is None:
        assert cert.constant is None
    else:
        assert abs(cert.constant - constant) <= 1e-12 * (1.0 + abs(constant))


# ---------------------------------------------------------------------------
# SamplePlan.arrays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 7, 50])
@pytest.mark.parametrize("lattice", [True, False])
def test_plan_arrays_bit_identical_to_per_pair_draws(dim, lattice):
    plan = SamplePlan(seed=11, n_pairs=40, scale=2.5, include_lattice=lattice)
    x, y, u = plan.arrays(dim)
    ref = reference_triples(plan, dim)
    assert x.shape == y.shape == u.shape == (len(ref), dim)
    for k, (rx, ry, ru) in enumerate(ref):
        assert x[k].tobytes() == np.asarray(rx, dtype=float).tobytes()
        assert y[k].tobytes() == np.asarray(ry, dtype=float).tobytes()
        assert u[k].tobytes() == np.asarray(ru, dtype=float).tobytes()


def test_empty_plan_raises():
    with pytest.raises(InsufficientEvidenceError):
        SamplePlan(n_pairs=0, include_lattice=False).arrays(2)


@pytest.mark.parametrize("fields", [
    {"seed": -3}, {"seed": 1.5}, {"n_pairs": -5}, {"n_pairs": 2.0},
    {"scale": 0.0}, {"scale": -1.0}, {"scale": np.inf}, {"scale": np.nan},
], ids=repr)
def test_sample_plan_refuses_a_bad_field(fields):
    # a negative count or seed reached numpy, which raised ValueError at
    # the first draw, or was never read where no map was sampled
    (name, value), = fields.items()
    with pytest.raises(ConfigError, match=f"^sample plan {name} must be "):
        SamplePlan(**fields)


def test_sample_plan_takes_numpy_integers_and_an_integer_scale():
    plan = SamplePlan(seed=np.int64(3), n_pairs=np.int32(2), scale=1)
    assert (plan.seed, plan.n_pairs, plan.scale) == (3, 2, 1)


# ---------------------------------------------------------------------------
# Engine vs reference loop
# ---------------------------------------------------------------------------

_MATRIX = st.lists(st.floats(-2.0, 2.0), min_size=DIM * DIM,
                   max_size=DIM * DIM).map(
    lambda v: np.array(v).reshape(DIM, DIM))
_OFFSET = st.lists(st.floats(-1.0, 1.0), min_size=DIM, max_size=DIM).map(
    np.array)
_MARGIN = st.sampled_from([-0.3, -0.01, 0.01, 0.3])     # below / above
_PLAN = st.integers(0, 50).map(lambda s: SamplePlan(seed=s, n_pairs=24))


def _opaque(mat, off):
    m = AffineMap(mat, off)
    return lambda x: m(x)


@settings(max_examples=40, deadline=None)
@given(mat=_MATRIX, off=_OFFSET, margin=_MARGIN, plan=_PLAN,
       relaxed=st.booleans())
def test_lower_bound_form_matches_reference(mat, off, margin, plan, relaxed):
    lam = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
    sign = -1 if relaxed else 1
    claimed = sign * lam + margin
    assume(claimed > 0.05)
    m = _opaque(mat, off)
    fn = certify_relaxed_accretive if relaxed else certify_strong_accretive
    cert = fn(m, claimed, plan=plan, dim=DIM)
    assert_same(cert, reference_loop(plan, accretive_candidates(m, claimed, sign),
                                     sign=sign))


@settings(max_examples=40, deadline=None)
@given(mat=_MATRIX, off=_OFFSET, margin=_MARGIN, plan=_PLAN,
       upper=st.booleans())
def test_norm_bound_form_matches_reference(mat, off, margin, plan, upper):
    svals = np.linalg.svd(mat, compute_uv=False)
    claimed = (svals.max() if upper else svals.min()) + margin
    assume(claimed > 0.05)
    m = _opaque(mat, off)
    fn = certify_lipschitz if upper else certify_expansive
    cert = fn(m, claimed, plan=plan, dim=DIM)
    assert_same(cert, reference_loop(plan, norm_candidates(m, claimed),
                                     upper=upper))


def _two_point_coupling(a, b):
    """A set-valued coupling: M(a, b) = {a - b, (a - b) / 2}."""
    return (a - b, 0.5 * (a - b))


def _slot_instance(mat_f, mat_g, off):
    zero = AffineMap.zero(DIM)
    return InclusionInstance(
        space=SpaceConfig(dim=DIM), A=zero, B=zero, C=zero, D=zero,
        f=_opaque(mat_f, off), g=_opaque(mat_g, -off), H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((DIM, DIM)), np.zeros((DIM, DIM)),
                        np.zeros(DIM)),
        M=_two_point_coupling, S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(DIM), rho=1.0)


@settings(max_examples=40, deadline=None)
@given(mat_f=_MATRIX, mat_g=_MATRIX, off=_OFFSET, plan=_PLAN,
       claimed=st.floats(0.05, 2.0), slot=st.sampled_from(["f", "g"]))
def test_m_slot_form_matches_reference(mat_f, mat_g, off, plan, claimed,
                                       slot):
    inst = _slot_instance(mat_f, mat_g, off)
    sign = 1 if slot == "f" else -1
    cert = certify_m_slot_accretive(inst, slot, claimed, plan)
    assert_same(cert, reference_loop(
        plan, m_slot_candidates(inst, slot, claimed, sign), sign=sign))


def test_sampled_failure_reports_first_violating_pair():
    # quotient (dx1^2 + 0.2 dx2^2) / |dx|^2 drops below 0.5 only for pairs
    # that differ mostly along the second axis
    plan = SamplePlan(seed=3, n_pairs=64)
    lin = AffineMap.linear(np.diag([1.0, 0.2]))
    cert = certify_strong_accretive(lambda x: lin(x), 0.5, plan=plan, dim=2)
    x, y, _ = plan.arrays(2)
    d = x - y
    quotients = (d[:, 0] ** 2 + 0.2 * d[:, 1] ** 2) / (d ** 2).sum(axis=1)
    first = int(np.argmax(quotients < 0.5 - 1e-9))
    assert first > 0 and quotients[:first].min() >= 0.5
    assert cert.verdict == "fail"
    assert cert.witness["x"] == x[first].tolist()
    assert cert.witness["y"] == y[first].tolist()
    assert cert.constant == pytest.approx(quotients[first], abs=1e-12)


# ---------------------------------------------------------------------------
# The surjectivity certificate
# ---------------------------------------------------------------------------

def _opaque_instance(named):
    inst = named.instance
    wrap = {s: (lambda m: (lambda x: m(x)))(getattr(inst, s))
            for s in ("A", "B", "C", "D", "f", "g")}
    return inst.with_(F=(lambda F: (lambda x, y: F(x, y)))(inst.F), **wrap)


def test_range_probes_eight_per_rho():
    inst = _opaque_instance(example_4_7())
    grid = [0.25, 0.5, 1.0, 2.0]
    cert = certify_generalized_mixed_accretive(inst, rho_grid=grid,
                                               plan=SamplePlan(seed=1))
    assert cert.method == "sampled" and cert.verdict == "estimated"
    probes = cert.details["range_probes"]
    for rho in grid:
        mine = [p for p in probes if p["rho"] == rho]
        assert len(mine) == 8 and all(p["reached"] for p in mine)


def _diagonal_instance(s, c):
    """Composite diag(s) + rho*c/2*I: H = diag(s) through A, M = f - g =
    c*I/2."""
    dim = len(s)
    zero = AffineMap.zero(dim)
    return InclusionInstance(
        space=SpaceConfig(dim=dim), A=AffineMap.linear(np.diag(s)), B=zero,
        C=zero, D=zero, f=AffineMap.scaling(c, dim),
        g=AffineMap.scaling(0.5 * c, dim), H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((dim, dim)), np.zeros((dim, dim)),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(alpha=c, beta=0.5 * c))


def _scaled_identity_instance(dim, c):
    """Composite c*(1 + rho/2)*I."""
    return _diagonal_instance(np.full(dim, c), c)


def _certify_strict(inst, grid=(0.5, 1.0, 2.0)):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return certify_generalized_mixed_accretive(inst, rho_grid=list(grid))


@settings(max_examples=12, deadline=None)
@given(dim=st.integers(1, 400), log_c=st.floats(-3.0, 3.0))
def test_surjectivity_verdict_is_scale_and_dim_invariant(dim, log_c):
    cert = _certify_strict(_scaled_identity_instance(dim, 10.0 ** log_c))
    assert cert.verdict == "pass"
    assert cert.details["determinant_positive_roots"] == []
    assert not any(g["singular"] for g in cert.details["grid"])


@settings(max_examples=10, deadline=None)
@given(dim=st.integers(1, 400), log_kappa=st.floats(0.0, 6.0),
       log_c=st.floats(-3.0, 3.0))
@example(dim=200, log_kappa=np.log10(2.0), log_c=0.0)
@example(dim=400, log_kappa=np.log10(2.0), log_c=0.0)
def test_spread_diagonal_composites_factor_and_certify(dim, log_kappa, log_c):
    # H's singular values spread over [c, c*kappa], so cond(K) <= kappa at
    # every rho, however small |det K| / sigma_max^dim gets as dim grows
    c = 10.0 ** log_c
    s = c * (10.0 ** log_kappa) ** np.linspace(0.0, 1.0, dim)
    inst = _diagonal_instance(s, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = Resolvent(inst, ResolventConfig(rho=1.0))
    assert res.exact
    x = np.linspace(-1.0, 1.0, dim)
    np.testing.assert_allclose(res(forward(inst, x, rho=1.0)), x,
                               rtol=1e-12, atol=1e-15)
    cert = _certify_strict(inst)
    assert cert.verdict == "pass"
    assert not any(g["singular"] for g in cert.details["grid"])


@pytest.mark.parametrize("dim,c", [(400, 0.1 / 1.5), (20, 0.0075), (400, 7.0)])
def test_small_and_large_composites_pass(dim, c):
    # c*(1 + rho/2) at rho = 1 gives 0.1*I at dim 400 and 0.01125*I at dim 20
    cert = _certify_strict(_scaled_identity_instance(dim, c), grid=(1.0,))
    assert cert.verdict == "pass"
    assert "all rho" not in json.dumps(cert.to_dict())


def test_identically_singular_pencil_has_numeric_witness():
    inst = _scaled_identity_instance(3, 1.0).with_(
        A=AffineMap.zero(3), f=AffineMap.zero(3), g=AffineMap.zero(3),
        constants=Constants(alpha=1.0, beta=0.5))
    cert = certify_generalized_mixed_accretive(inst, rho_grid=[])
    assert cert.verdict == "fail"
    assert cert.details["determinant_positive_roots"] is None
    assert cert.witness["rho"] is None
    assert cert.witness["defect"] == "determinant vanishes at every rho"


def test_diverging_range_probe_fails_the_certificate():
    # K = H + rho*M is -0.5*I at rho = 0.5: negative definite but
    # invertible, so every probe there is reached.  At rho = 1 K = 0, so
    # is the probed model, and the first probe fails at once
    named = example_3_3()
    bundle = certify_instance(_opaque_instance(named))
    cert = bundle.certificates["surjective_H_plus_rhoM"]
    assert cert.method == "sampled" and cert.verdict == "fail"
    assert cert.witness["rho"] == 1.0
    assert cert.witness["defect"] == (
        "range probe failed: no chord model at rho=1.0: the probed linear "
        "model has a zero linear part")
    probes = cert.details["range_probes"]
    assert {"rho": 1.0, "reached": False} in probes
    for rho in {p["rho"] for p in probes}:
        if Composite(named.instance.pencil, rho).invertible:
            assert [p for p in probes if p["rho"] == rho] == \
                [{"rho": rho, "reached": True}] * 8


def _counting_eig(monkeypatch):
    """The calls of numpy's eigvals, the root search's one eigen-solve."""
    calls = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


def test_degenerate_composite_keeps_root_and_witness(monkeypatch):
    # example_3_3's L_H has lambda_min = -1 and lambda_max > 0: the
    # symmetric parts prove nothing, and one eigen-solve, of K0^-1 L_M,
    # finds rho = 1
    eig_calls = _counting_eig(monkeypatch)
    cert = _certify_strict(example_3_3().instance, grid=(1.0,))
    assert cert.verdict == "fail"
    assert cert.witness["image_norm"] == pytest.approx(2.0, abs=1e-12)
    assert cert.details["determinant_positive_roots"] == [1.0]
    assert len(eig_calls) == 1


@pytest.mark.parametrize("opaque", [False, True], ids=["exact", "blackbox"])
def test_nonpositive_grid_rho_is_refused(opaque):
    # the theory's step size is positive: a grid rho <= 0 is a
    # configuration error on both paths, not a verdict
    named = example_4_7()
    inst = _opaque_instance(named) if opaque else named.instance
    for grid in ([-0.5, 1.0], [0.0]):
        with pytest.raises(ConfigError, match="^rho must be > 0, got "):
            certify_generalized_mixed_accretive(inst, rho_grid=grid)
        with pytest.raises(ConfigError):
            certify_instance(inst, SamplePlan(seed=1), rho_grid=grid)


def test_definite_pencil_has_no_roots_without_eig(monkeypatch):
    # example_4_7: lambda_min of sym(L_H) is 2.9 and of sym(L_M) 0.25
    eig_calls = _counting_eig(monkeypatch)
    inst = example_4_7().instance
    cert = _certify_strict(inst)
    assert cert.verdict == "pass"
    assert cert.details["determinant_positive_roots"] == []
    assert eig_calls == []
    (lo_h, _, _), (lo_m, _, _) = inst.pencil.bounds
    assert lo_h == pytest.approx(2.9, rel=1e-12)
    assert lo_m == pytest.approx(0.25, rel=1e-12)
