"""The proximal-point mapping R(z) = (H((A,B),(C,D)) + rho*M(f,g))^(-1)(z).

A `Resolvent` is prepared once per (instance, rho).  For affine instances
the composite is a dense linear system, LU-factored once and solved per
call; black-box operators fall back to a damped fixed-point iteration.
`audit_lipschitz` checks the theoretical contraction bound

    ||R(u) - R(v)|| <= ||u - v|| / (r + rho*m),
    r = mu1*alpha1^q - mu2*beta1^q + gamma1 + gamma2,   m = alpha - beta,

against the worst observed quotient over a seeded sample.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import (
    InclusionInstance,
    eval_H_on_point,
    eval_M_on_point,
    h_composite,
    m_composite,
)
from .space import as_vector

_COND_LIMIT = 1e12
_DET_FLOOR = 1e-12


class NonSurjectiveError(RuntimeError):
    """The composite H + rho*M cannot reach the requested point.

    Carries a `defect` dict describing the failure (zero or singular
    linear part, the constant image point when there is one).
    """

    def __init__(self, message: str, defect: dict | None = None):
        super().__init__(message)
        self.defect = defect or {}


class ResolventIterationError(RuntimeError):
    """The damped fixed-point solver did not reach the inner tolerance."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class ResolventConfig:
    """How to invert the composite.

    solver
        "exact_affine" forces the dense solve, "damped_fixed_point" the
        iterative fallback, "auto" picks the exact path when the instance
        is affine.
    """

    rho: float
    solver: str = "auto"
    max_inner_iters: int = 20000
    inner_tol: float = 1e-12

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not self.inner_tol > 0:
            raise ValueError(f"inner_tol must be > 0, got {self.inner_tol}")
        if self.solver not in ("auto", "exact_affine", "damped_fixed_point"):
            raise ValueError(f"unknown solver {self.solver!r}")


def forward(inst: InclusionInstance, x, rho: float | None = None) -> np.ndarray:
    """Forward image H((Ax,Bx),(Cx,Dx)) + rho * m(x), m(x) in M(f(x), g(x)).

    With a multi-point M the member closest to the H value's scale is not
    well-defined; the first member is used, which is exact for every
    single-valued coupling.
    """
    rho = inst.rho if rho is None else rho
    hx = eval_H_on_point(inst, x)
    m_vals = eval_M_on_point(inst, x)
    return hx + rho * m_vals[0]


def _composite_parts(inst: InclusionInstance, rho: float):
    hc, mc = h_composite(inst), m_composite(inst)
    if hc is None or mc is None:
        return None
    return hc.matrix + rho * mc.matrix, hc.offset + rho * mc.offset


def _invertible(sv: np.ndarray) -> bool:
    """Whether a composite H + rho*M with singular values `sv` (largest
    first) is invertible: sigma_max > 0, cond <= _COND_LIMIT and
    |det| > _DET_FLOOR * sigma_max^dim, the last in logs (log|det| is the
    sum of the log singular values), so it holds at any dim and scale.
    `Resolvent` and the surjectivity certificate both decide with it.
    """
    nrm, low = float(sv[0]), float(sv[-1])
    if not (nrm > 0 and low > 0 and nrm / low <= _COND_LIMIT):
        return False
    return float(np.sum(np.log(sv))) > np.log(_DET_FLOOR) + len(sv) * np.log(nrm)


def _det(matrix: np.ndarray) -> float:
    """det(matrix) from slogdet: inf where it overflows, without a warning."""
    sign, log_abs = np.linalg.slogdet(matrix)
    with np.errstate(over="ignore"):
        return float(sign * np.exp(log_abs))


def _factor_composite(matrix: np.ndarray, offset: np.ndarray, rho: float):
    """LU factors and singular values of the composite `matrix`.

    The composite is decided by `_invertible` before it is factored, so a
    singular composite is never handed to `lu_factor`.

    Raises NonSurjectiveError, with a `defect` dict, otherwise.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    if _invertible(sv):
        return scipy.linalg.lu_factor(matrix, check_finite=False), sv
    nrm = float(sv[0])
    if nrm <= 1e-12:
        defect = {"rho": rho,
                  "kind": "zero linear part",
                  "description": "the composite image is the single point "
                                 f"{offset.tolist()}",
                  "image_point": offset.tolist(),
                  "image_norm": float(np.linalg.norm(offset))}
    else:
        cond = nrm / float(sv[-1]) if sv[-1] > 0 else np.inf
        defect = {"rho": rho,
                  "kind": "singular linear part",
                  "description": "the composite image is a proper affine "
                                 "subspace",
                  "null_direction": np.linalg.svd(matrix)[2][-1].tolist(),
                  "cond": None if np.isinf(cond) else cond,
                  "det": _det(matrix)}
    raise NonSurjectiveError(
        f"composite H + rho*M is not invertible at rho={rho}: "
        f"{defect['description']}", defect)


def _damping(inst: InclusionInstance, rho: float) -> float:
    tau = inst.constants.tau
    mc = m_composite(inst)
    if tau is not None and mc is not None:
        lip_m = float(np.linalg.norm(mc.matrix, 2))
        return 1.0 / (tau + rho * lip_m)
    return 0.1


class Resolvent:
    """R = (H((A,B),(C,D)) + rho*M(f,g))^(-1) of one instance at one rho.

    Built once and applied many times.  On the exact path the constructor
    assembles the affine composite K, decides its invertibility and
    LU-factors it, so each call is a triangular solve; on the damped path
    it fixes the step size of the fixed-point iteration.  A call takes a
    vector or an `(n, dim)` batch of rows and returns the same shape.

    `singular_values` holds those of K, largest first, on the exact path
    (so `1 / singular_values[-1]` is R's exact Lipschitz constant) and is
    None on the damped path.

    Raises
    ------
    NonSurjectiveError
        From the constructor, if the affine composite is (numerically)
        singular, so some z lie outside the range.
    ValueError
        From the constructor, if `cfg.solver` is "exact_affine" and the
        instance has no affine realization of the composite.
    ResolventIterationError
        From a call, if the damped fixed-point fallback stalls above
        `inner_tol`.
    """

    def __init__(self, inst: InclusionInstance, cfg: ResolventConfig):
        self.inst, self.cfg = inst, cfg
        self.singular_values = None
        parts = _composite_parts(inst, cfg.rho)
        if parts is None and cfg.solver == "exact_affine":
            raise ValueError("exact_affine solver requires affine "
                             "realizations of H, A..D, f, g and the "
                             "difference coupling")
        if parts is not None and cfg.solver in ("auto", "exact_affine"):
            matrix, self._offset = parts
            self._lu, self.singular_values = _factor_composite(
                matrix, self._offset, cfg.rho)
        else:
            self._lam = _damping(inst, cfg.rho)

    @property
    def exact(self) -> bool:
        """Whether calls solve the factored composite directly."""
        return self.singular_values is not None

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim == 2:
            if not np.all(np.isfinite(z)):
                raise ValueError("batch has non-finite coordinates")
            if not self.exact:
                return np.array([self(row) for row in z]).reshape(z.shape)
            return scipy.linalg.lu_solve(self._lu, (z - self._offset).T,
                                         check_finite=False).T
        zv = as_vector(z)
        if self.exact:
            return scipy.linalg.lu_solve(self._lu, zv - self._offset,
                                         check_finite=False)
        return _resolve_damped(self.inst, self.cfg, zv, self._lam)


def resolve(inst: InclusionInstance, cfg: ResolventConfig, z) -> np.ndarray:
    """Solve H((Ax,Bx),(Cx,Dx)) + rho * m(x) = z for x.

    A one-off `Resolvent(inst, cfg)(z)`; build the `Resolvent` once to
    apply the same resolvent many times.  Raises what `Resolvent` raises.
    """
    return Resolvent(inst, cfg)(z)


def _resolve_damped(inst: InclusionInstance, cfg: ResolventConfig,
                    z: np.ndarray, lam: float) -> np.ndarray:
    x = np.array(z, dtype=float)
    last = np.inf
    for _ in range(cfg.max_inner_iters):
        hx = eval_H_on_point(inst, x)
        m_vals = eval_M_on_point(inst, x)
        # target the selection that minimizes the current residual
        residuals = [hx + cfg.rho * m - z for m in m_vals]
        norms = [float(np.linalg.norm(r)) for r in residuals]
        k = int(np.argmin(norms))
        last = norms[k]
        if last <= cfg.inner_tol:
            return x
        x = x - lam * residuals[k]
        if not np.all(np.isfinite(x)):
            raise ResolventIterationError(
                "damped fixed-point iteration diverged to non-finite values",
                last)
    raise ResolventIterationError(
        f"damped fixed-point iteration exceeded {cfg.max_inner_iters} "
        f"iterations (last residual {last:.3e} > {cfg.inner_tol:.3e})", last)


def theoretical_r_m(inst: InclusionInstance):
    """(r, m) of the contraction bound, from the declared constants."""
    c = inst.constants
    got = c.require("mu1", "mu2", "gamma1", "gamma2", "alpha1", "beta1",
                    "alpha", "beta")
    q = inst.space.q
    r = (got["mu1"] * got["alpha1"] ** q - got["mu2"] * got["beta1"] ** q
         + got["gamma1"] + got["gamma2"])
    m = got["alpha"] - got["beta"]
    return float(r), float(m)


@dataclass(frozen=True)
class AuditReport:
    """Observed resolvent contraction versus the theoretical bound.

    `exact_ratio` is the exact worst quotient 1/sigma_min(H + rho*M) on
    the exact path and None on the damped path.
    """

    rho: float
    r: float
    m: float
    bound: float
    worst_ratio: float
    worst_pair: dict | None
    n_pairs: int
    passed: bool
    exact_ratio: float | None = None

    def to_dict(self) -> dict:
        return {
            "rho": self.rho, "r": self.r, "m": self.m, "bound": self.bound,
            "worst_ratio": self.worst_ratio, "worst_pair": self.worst_pair,
            "n_pairs": self.n_pairs, "passed": self.passed,
            "exact_ratio": self.exact_ratio,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def audit_lipschitz(inst: InclusionInstance, cfg: ResolventConfig,
                    plan=None) -> AuditReport:
    """Check ||R(u)-R(v)|| <= ||u-v|| / (r + rho*m) over sampled pairs.

    Pairs with u = v are skipped (the quotient is vacuous there).  The
    resolvent is prepared once and applied to all u, then all v, as two
    batches.
    """
    from .certify import SamplePlan
    plan = plan or SamplePlan()
    r, m = theoretical_r_m(inst)
    bound = 1.0 / (r + cfg.rho * m)
    resolvent = Resolvent(inst, cfg)
    u, v, _ = plan.arrays(inst.dim)
    du = np.linalg.norm(u - v, axis=1)
    keep = du >= 1e-12
    u, v, du = u[keep], v[keep], du[keep]
    worst, worst_pair = -np.inf, None
    if du.size:
        ratios = np.linalg.norm(resolvent(u) - resolvent(v), axis=1) / du
        k = int(np.argmax(ratios))
        worst = float(ratios[k])
        worst_pair = {"u": u[k].tolist(), "v": v[k].tolist(), "ratio": worst}
    exact_ratio = (None if resolvent.singular_values is None
                   else float(1.0 / resolvent.singular_values[-1]))
    passed = bool(worst <= bound + 1e-9)
    return AuditReport(rho=cfg.rho, r=r, m=m, bound=float(bound),
                       worst_ratio=worst, worst_pair=worst_pair,
                       n_pairs=int(du.size), passed=passed,
                       exact_ratio=exact_ratio)
