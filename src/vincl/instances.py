"""Built-in problem instances.

Every instance here is affine, so certification runs on the exact path and
all declared constants are reproduced by matrix analysis.  Each carries an
`expected` block (the regression backbone): certificate constants and
verdicts, rate-condition outcomes, and solve targets, each tagged with the
kind of evidence backing it ("exact-slope" for values attained exactly by
the affine analysis, "derived-arithmetic" for values recomputed from the
defining formulas, "declared" for plain claims).
"""

import numpy as np

from dataclasses import dataclass

from .operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    Constants,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    SingletonSetMap,
)
from .space import SpaceConfig


@dataclass(frozen=True, eq=False)
class NamedInstance:
    name: str
    instance: InclusionInstance
    expected: dict


def _zero_pair(dim: int) -> AffinePairMap:
    z = np.zeros((dim, dim))
    return AffinePairMap(z, z, np.zeros(dim))


def example_3_2() -> NamedInstance:
    """2-D instance with isotropic slot maps 4x, -3x, 2x, x and a
    rotation-scaling coupling M = f - g.

    All declared constants are attained exactly: the (A, C) slots give the
    strong mixed cocoercivity pair (1/4, 2), the (B, D) slots the relaxed
    pair (1/3, 1), the composed map is 4-Lipschitz, and the coupling slots
    are 5-strongly / (7/4)-relaxed accretive.  H + rho*M is invertible for
    every rho > 0.
    """
    dim = 2
    f = AffineMap.linear([[5.0, -2.0 / 3.0], [2.0 / 3.0, 5.0]])
    g = AffineMap.linear([[7.0 / 4.0, 3.0 / 4.0], [-3.0 / 4.0, 7.0 / 4.0]])
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap.scaling(4.0, dim), B=AffineMap.scaling(-3.0, dim),
        C=AffineMap.scaling(2.0, dim), D=AffineMap.identity(dim),
        f=f, g=g, H=AdditiveBiSlot(), F=_zero_pair(dim),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(mu1=0.25, gamma1=2.0, mu2=1.0 / 3.0, gamma2=1.0,
                            alpha=5.0, beta=1.75, alpha1=4.0, beta1=3.0,
                            tau=4.0),
    )
    expected = {
        "certificates": {
            "strongly_mixed_cocoercive": {"constant": 2.0, "mu": 0.25,
                                          "verdict": "pass",
                                          "origin": "exact-slope"},
            "relaxed_mixed_cocoercive": {"constant": 1.0, "mu": 1.0 / 3.0,
                                         "verdict": "pass",
                                         "origin": "exact-slope"},
            "mixed_lipschitz": {"constant": 4.0, "verdict": "pass",
                                "origin": "exact-slope"},
            "strongly_accretive": {"constant": 5.0, "verdict": "pass",
                                   "origin": "exact-slope"},
            "relaxed_accretive": {"constant": 1.75, "verdict": "pass",
                                  "origin": "exact-slope"},
            "expansive": {"constant": 4.0, "verdict": "pass",
                          "origin": "exact-slope"},
            "lipschitz": {"constant": 3.0, "verdict": "pass",
                          "origin": "exact-slope"},
            "surjective_H_plus_rhoM": {"verdict": "pass",
                                       "origin": "derived-arithmetic"},
        },
        "derived": {"r": 4.0, "m": 3.25, "origin": "derived-arithmetic"},
        "surjectivity_rho_grid": [0.5, 1.0, 2.0],
    }
    return NamedInstance("example_3_2", inst, expected)


def example_3_3(trunc_dim: int = 8, n_index: int = 3) -> NamedInstance:
    """Truncated sequence-space instance whose composite degenerates.

    The slot maps are -5x - 7e, 5x + 5e, -3x, 2x + 3e and the coupling
    slots are f = 2x, g = x - e for a designated basis vector e.  At
    rho = 1 the composite H + rho*M has zero linear part and constant
    image 2e, so it is not surjective: the class decision must fail with
    that witness.  The slot accretivity constants (2 strong, 1 relaxed)
    still hold.
    """
    if not 1 <= n_index <= trunc_dim:
        raise ValueError(f"n_index must be in [1, {trunc_dim}], got {n_index}")
    dim = trunc_dim
    e = np.zeros(dim)
    e[n_index - 1] = 1.0
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap(-5.0 * np.eye(dim), -7.0 * e),
        B=AffineMap(5.0 * np.eye(dim), 5.0 * e),
        C=AffineMap.scaling(-3.0, dim),
        D=AffineMap(2.0 * np.eye(dim), 3.0 * e),
        f=AffineMap.scaling(2.0, dim),
        g=AffineMap(np.eye(dim), -e),
        H=AdditiveBiSlot(), F=_zero_pair(dim), M=DifferenceCoupling(),
        S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(alpha=2.0, beta=1.0),
    )
    expected = {
        "certificates": {
            "strongly_accretive": {"constant": 2.0, "verdict": "pass",
                                   "origin": "exact-slope"},
            "relaxed_accretive": {"constant": 1.0, "verdict": "pass",
                                  "origin": "exact-slope"},
            "surjective_H_plus_rhoM": {"verdict": "fail",
                                       "image_norm": 2.0,
                                       "origin": "derived-arithmetic"},
        },
        "surjectivity_rho_grid": [1.0],
    }
    return NamedInstance("example_3_3", inst, expected)


def example_4_7() -> NamedInstance:
    """2-D instance with slot maps x/10, -x/5, 2x, x, rotation couplings,
    pair map F(x, y) = x/4 + y/5 and identity selections.

    The composed map is exactly 2.9x, so every declared constant is an
    exact slope, r = 10*0.01 - 5*0.04 + 3 = 2.9 and m = 0.25.  The rate
    condition holds at rho = 0.35 (theta about 0.2904 with the declared
    sigma, delta as written; the H-increment normalization gives the
    observable step-ratio bound about 0.91799).  At rho = 3.8 the
    radicand is negative.
    """
    dim = 2
    f = AffineMap.linear([[0.5, -4.0 / 3.0], [4.0 / 3.0, 0.5]])
    g = AffineMap.linear([[0.25, -0.75], [0.75, 0.25]])
    F = AffinePairMap(0.25 * np.eye(dim), 0.2 * np.eye(dim), np.zeros(dim))
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap.scaling(0.1, dim), B=AffineMap.scaling(-0.2, dim),
        C=AffineMap.scaling(2.0, dim), D=AffineMap.identity(dim),
        f=f, g=g, H=AdditiveBiSlot(), F=F, M=DifferenceCoupling(),
        S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=0.35,
        constants=Constants(mu1=10.0, gamma1=2.0, mu2=5.0, gamma2=1.0,
                            alpha=0.5, beta=0.25, alpha1=0.1, beta1=0.2,
                            tau=2.9, sigma=0.725, delta=0.580,
                            eps1=0.25, eps2=0.2, l1=1.0, l2=1.0),
    )
    expected = {
        "certificates": {
            "strongly_mixed_cocoercive": {"constant": 2.0, "mu": 10.0,
                                          "verdict": "pass",
                                          "origin": "exact-slope"},
            "relaxed_mixed_cocoercive": {"constant": 1.0, "mu": 5.0,
                                         "verdict": "pass",
                                         "origin": "exact-slope"},
            "mixed_lipschitz": {"constant": 2.9, "verdict": "pass",
                                "origin": "exact-slope"},
            "strongly_accretive": {"constant": 0.5, "verdict": "pass",
                                   "origin": "exact-slope"},
            "relaxed_accretive": {"constant": 0.25, "verdict": "pass",
                                  "origin": "exact-slope"},
            "expansive": {"constant": 0.1, "verdict": "pass",
                          "origin": "exact-slope"},
            "lipschitz": {"constant": 0.2, "verdict": "pass",
                          "origin": "exact-slope"},
            "F_strongly_accretive_first": {"constant": 0.725,
                                           "verdict": "pass",
                                           "origin": "exact-slope"},
            "F_strongly_accretive_second": {"constant": 0.580,
                                            "verdict": "pass",
                                            "origin": "exact-slope"},
            "F_lipschitz_first": {"constant": 0.25, "verdict": "pass",
                                  "origin": "exact-slope"},
            "F_lipschitz_second": {"constant": 0.2, "verdict": "pass",
                                   "origin": "exact-slope"},
            "d_lipschitz_S": {"constant": 1.0, "verdict": "pass",
                              "origin": "exact-slope"},
            "d_lipschitz_T": {"constant": 1.0, "verdict": "pass",
                              "origin": "exact-slope"},
            "surjective_H_plus_rhoM": {"verdict": "pass",
                                       "origin": "derived-arithmetic"},
        },
        "derived": {"r": 2.9, "m": 0.25, "origin": "derived-arithmetic"},
        "condition": [
            {"rho": 0.35, "verdict": "satisfied",
             "theta_range": [0.285, 0.295], "origin": "derived-arithmetic"},
            {"rho": 3.8, "verdict": "violated_radicand",
             "origin": "derived-arithmetic"},
        ],
        "solve": {"rho": 0.35, "z0": [1.0, 1.0], "target": [0.0, 0.0],
                  "origin": "derived-arithmetic"},
    }
    return NamedInstance("example_4_7", inst, expected)


def _reduction_pair_slots() -> NamedInstance:
    """Degenerate shape with the second slot pair zeroed (C = D = 0),
    exercising the two-slot special case of the bifunction."""
    dim = 2
    rot = np.array([[0.0, -0.5], [0.5, 0.0]])
    g = AffineMap.linear([[0.5, 0.2], [-0.2, 0.5]])
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap.scaling(3.0, dim), B=AffineMap.linear(rot),
        C=AffineMap.zero(dim), D=AffineMap.zero(dim),
        f=AffineMap.scaling(2.0, dim), g=g,
        H=AdditiveBiSlot(),
        F=AffinePairMap(0.1 * np.eye(dim), 0.1 * np.eye(dim), np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=0.5,
        constants=Constants(mu1=0.3, gamma1=0.3, mu2=0.2, gamma2=0.05,
                            alpha=2.0, beta=0.5, alpha1=3.0, beta1=0.5,
                            tau=float(np.linalg.norm(3 * np.eye(2) + rot, 2)),
                            sigma=0.1, delta=0.1, eps1=0.1, eps2=0.1,
                            l1=1.0, l2=1.0),
    )
    expected = {
        "certificates": {
            "surjective_H_plus_rhoM": {"verdict": "pass",
                                       "origin": "derived-arithmetic"},
        },
        "solve": {"rho": 0.5, "z0": [1.0, -1.0], "origin": "constructed"},
    }
    return NamedInstance("reduction_pair_slots", inst, expected)


def _reduction_single_slot() -> NamedInstance:
    """Shape of the plain inclusion 0 in t(u) + N(u): the pair map returns
    its second argument, T carries the single-valued t, and the coupling
    reduces to the one-slot map N (g = 0).
    """
    dim = 2
    n_mat = np.array([[1.5, -0.4], [0.4, 1.5]])
    t_map = AffineMap(np.array([[0.8, 0.0], [0.0, 0.6]]),
                      np.array([0.3, -0.2]))
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap.scaling(2.0, dim), B=AffineMap.scaling(-0.3, dim),
        C=AffineMap.identity(dim), D=AffineMap.scaling(0.5, dim),
        f=AffineMap.linear(n_mat), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(np.zeros((dim, dim)), np.eye(dim), np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(),
        T=SingletonSetMap(t_map),
        omega=np.zeros(dim), rho=1.0,
        constants=Constants(alpha=1.5, beta=0.1),
    )
    expected = {
        "equivalent_residual": {"map_t": True, "origin": "derived-arithmetic"},
        "solve": {"rho": 1.0, "z0": [0.5, 0.5], "origin": "constructed"},
    }
    return NamedInstance("reduction_single_slot", inst, expected)


def _reduction_scaled_coupling(lam: float = 2.5) -> NamedInstance:
    """Coupling scaled by a factor lam (M = lam*N): resolving at rho is the
    same as resolving the unscaled coupling at rho*lam, which the
    round-trip oracle verifies."""
    dim = 2
    n_mat = np.array([[1.2, 0.5], [-0.5, 1.2]])
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim, q=2.0, c_q=1.0),
        A=AffineMap.scaling(2.0, dim), B=AffineMap.scaling(-0.3, dim),
        C=AffineMap.identity(dim), D=AffineMap.scaling(0.5, dim),
        f=AffineMap.linear(lam * n_mat), g=AffineMap.zero(dim),
        H=AdditiveBiSlot(),
        F=AffinePairMap(0.05 * np.eye(dim), 0.05 * np.eye(dim),
                        np.zeros(dim)),
        M=DifferenceCoupling(), S=IdentitySetMap(), T=IdentitySetMap(),
        omega=np.zeros(dim), rho=0.4,
        constants=Constants(alpha=lam * 1.2, beta=0.1),
    )
    expected = {
        "scaling": {"lam": lam, "base_matrix": n_mat.tolist(),
                    "origin": "derived-arithmetic"},
        "solve": {"rho": 0.4, "z0": [1.0, 0.0], "origin": "constructed"},
    }
    return NamedInstance("reduction_scaled_coupling", inst, expected)


def reduction_constructors() -> list:
    """Instances wiring the degenerate shapes the general problem subsumes."""
    return [_reduction_pair_slots(), _reduction_single_slot(),
            _reduction_scaled_coupling()]


_BUILTINS = {
    "example_3_2": example_3_2,
    "example_3_3": example_3_3,
    "example_4_7": example_4_7,
    "reduction_pair_slots": _reduction_pair_slots,
    "reduction_single_slot": _reduction_single_slot,
    "reduction_scaled_coupling": _reduction_scaled_coupling,
}


def builtin_names() -> list:
    return sorted(_BUILTINS)


def get_instance(name: str) -> NamedInstance:
    """Look up a built-in instance by name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin instance {name!r}; "
                       f"available: {', '.join(builtin_names())}") from None
