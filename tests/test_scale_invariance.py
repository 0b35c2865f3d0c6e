"""Verdicts do not depend on the scale of the instance.

Every single-valued map and F is multiplied by c, and each declared
constant is rescaled to match: alpha, beta, alpha1, beta1, tau, gamma1,
gamma2, eps1, eps2 by c; mu1, mu2 by 1/c; sigma, delta by c^2; l1, l2
stay.  True claims must keep their verdicts at every c from 1e-9 to 1e9,
and false ones must keep failing.
"""

import dataclasses

import numpy as np
import pytest

from vincl.certify import (
    SamplePlan,
    certify_cocoercive,
    certify_expansive,
    certify_instance,
    certify_lipschitz,
    certify_m_slot_accretive,
    certify_strong_accretive,
)
from vincl.instances import builtin_names, example_4_7, get_instance
from vincl.operators import AffineMap, AffinePairMap
from vincl.resolvent import ResolventConfig, audit_lipschitz
from vincl.solver import SolverConfig, solve

SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)
POWERS = {"alpha": 1, "beta": 1, "alpha1": 1, "beta1": 1, "tau": 1,
          "gamma1": 1, "gamma2": 1, "eps1": 1, "eps2": 1, "mu1": -1,
          "mu2": -1, "sigma": 2, "delta": 2, "l1": 0, "l2": 0}
MAP_SLOTS = ("A", "B", "C", "D", "f", "g")
PLAN = SamplePlan(seed=7, n_pairs=64)


def lift(inst, dim):
    """`inst`, whose offsets are zero, in `dim` coordinates: each matrix m
    becomes Q kron(I, m) Q' for a seeded orthogonal Q."""
    k = dim // inst.dim
    q = np.linalg.qr(np.random.default_rng(dim).standard_normal(
        (dim, dim)))[0]

    def conj(m):
        return q @ np.kron(np.eye(k), m) @ q.T

    zero = np.zeros(dim)
    return inst.with_(
        space=dataclasses.replace(inst.space, dim=dim), omega=zero,
        F=AffinePairMap(conj(inst.F.first), conj(inst.F.second), zero),
        **{s: AffineMap(conj(getattr(inst, s).matrix), zero)
           for s in MAP_SLOTS})


def variant(inst, c, blackbox=False, **factors):
    """`inst` with its maps and F times c, wrapped in plain callables when
    `blackbox`, and its constants rescaled to match; each constant named
    in `factors` is then multiplied by that factor."""
    def one(m):
        scaled = AffineMap(c * m.matrix, c * m.offset)
        return (lambda x: scaled(x)) if blackbox else scaled

    F = AffinePairMap(c * inst.F.first, c * inst.F.second, c * inst.F.offset)
    consts = {n: v * c ** POWERS[n] * factors.get(n, 1.0)
              for n, v in inst.constants.asdict().items() if v is not None}
    return inst.with_(
        F=(lambda x, y: F(x, y)) if blackbox else F,
        constants=dataclasses.replace(inst.constants, **consts),
        **{s: one(getattr(inst, s)) for s in MAP_SLOTS})


def outcome(inst, rho_grid=None):
    bundle = certify_instance(inst, PLAN, rho_grid=rho_grid)
    return {k: (c.verdict, c.method) for k, c in bundle.certificates.items()}


def audit_passes(inst):
    return audit_lipschitz(inst, ResolventConfig(rho=inst.rho),
                           SamplePlan(seed=7, n_pairs=32)).passed


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_verdicts_do_not_depend_on_scale(name):
    named = get_instance(name)
    grid = named.expected.get("surjectivity_rho_grid")
    base = outcome(named.instance, grid)
    for c in SCALES:
        assert outcome(variant(named.instance, c), grid) == base, c


# exact path: example_4_7 lifted; sampled path: its black-box lift at dim
# 10, whose range probes and audit resolve on the chord path
EXACT = [pytest.param(d, {}, None, id=f"exact-{d}") for d in (2, 50, 400)]
SAMPLED = pytest.param(10, {"blackbox": True}, None, id="sampled-10")
CASES = EXACT + [SAMPLED]


@pytest.mark.parametrize("dim,kind,rho_grid", CASES)
def test_lifted_verdicts_do_not_depend_on_scale(dim, kind, rho_grid):
    inst = lift(example_4_7().instance, dim)
    base = outcome(variant(inst, 1.0, **kind), rho_grid)
    assert all(v != "fail" for v, _ in base.values())
    for c in SCALES:
        assert outcome(variant(inst, c, **kind), rho_grid) == base, c


@pytest.mark.parametrize("dim,kind,rho_grid", CASES)
def test_false_claims_fail_at_every_scale(dim, kind, rho_grid):
    inst = lift(example_4_7().instance, dim)
    for c in SCALES:
        wrong = variant(inst, c, alpha=2.0, beta1=0.5, **kind)
        assert certify_m_slot_accretive(
            wrong, "f", plan=PLAN).verdict == "fail", c
        assert certify_lipschitz(wrong.B, wrong.constants.beta1, PLAN,
                                 wrong.dim).verdict == "fail", c


@pytest.mark.parametrize("dim,kind,rho_grid", CASES)
def test_audit_verdict_does_not_depend_on_scale(dim, kind, rho_grid):
    inst = lift(example_4_7().instance, dim)
    for c in SCALES:
        assert audit_passes(variant(inst, c, **kind)), c
        assert not audit_passes(variant(inst, c, alpha=10.0, **kind)), c


@pytest.mark.parametrize("blackbox", [False, True], ids=["exact", "sampled"])
def test_ill_conditioned_claims_at_every_scale(blackbox):
    # strong accretivity and expansiveness 1, cocoercivity 1e-6 (times c):
    # claims 1e-4 past them fail however large the other eigenvalue is
    for c in SCALES:
        m = AffineMap(np.diag([c, 1e6 * c]), np.zeros(2))
        m = (lambda x, m=m: m(x)) if blackbox else m
        for cert, true in ((certify_strong_accretive, c),
                           (certify_expansive, c),
                           (certify_cocoercive, 1e-6 / c)):
            assert cert(m, true, plan=PLAN, dim=2).verdict != "fail", c
            assert cert(m, 1.0001 * true, plan=PLAN,
                        dim=2).verdict == "fail", (cert, c)


def test_offset_moves_no_sampled_verdict():
    # m(x) = 0.2 x + b has Lipschitz and strong accretivity constant 0.2
    # for every offset b
    for b in (0.0, 1e3, 1e9):
        m = AffineMap(0.2 * np.eye(10), np.full(10, b))
        m = (lambda x, m=m: m(x))
        for claimed, verdict in ((0.15, "fail"), (0.25, "estimated")):
            assert certify_lipschitz(m, claimed, PLAN,
                                     10).verdict == verdict, b
            assert certify_strong_accretive(
                m, 0.4 - claimed, plan=PLAN, dim=10).verdict == verdict, b


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6, 1e9])
def test_blackbox_solve_converges_at_every_scale_of_z0_and_omega(c):
    # the black-box resolvent stops at a residual relative to its
    # right-hand side, so the rounding of a large z0 or omega, far above
    # any absolute tolerance, does not stall it
    inst = variant(lift(example_4_7().instance, 10), 1.0, blackbox=True)
    omega = np.linspace(-1.0, 1.0, 10)
    base = solve(inst.with_(omega=omega), SolverConfig(z0=np.ones(10)))
    assert solve(inst, SolverConfig(z0=c * np.ones(10))).converged, c
    trace = solve(inst.with_(omega=c * omega), SolverConfig(z0=np.ones(10)))
    assert trace.converged, c
    np.testing.assert_allclose(trace.u_final, c * base.u_final, rtol=1e-6)
