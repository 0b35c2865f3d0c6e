import collections
import itertools

import numpy as np
import pytest

from test_scale_invariance import lift, variant
from vincl.certify import (
    InsufficientEvidenceError,
    SamplePlan,
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
    ConstantSetMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    SingletonSetMap,
    negate_map,
)
from vincl.resolvent import forward
from vincl.space import NonFiniteError, SpaceConfig


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
    cf = certify_m_slot_accretive(inst, "f")
    cg = certify_m_slot_accretive(inst, "g")
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
    with pytest.raises(NonFiniteError):
        certify(inst, plan=SamplePlan(seed=7, n_pairs=16))


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
