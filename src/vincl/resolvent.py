"""The proximal-point mapping R(z) = (H((A,B),(C,D)) + rho*M(f,g))^(-1)(z).

A `Resolvent` is prepared once per (instance, rho).  For affine instances
the composite is a dense linear system, LU-factored once and solved per
call; black-box operators fall back to a damped fixed-point iteration
under Anderson mixing.
`audit_lipschitz` checks the theoretical contraction bound

    ||R(u) - R(v)|| <= ||u - v|| / (r + rho*m),
    r = mu1*alpha1^q - mu2*beta1^q + gamma1 + gamma2,   m = alpha - beta,

against the worst observed quotient over a seeded sample.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .operators import (
    InclusionInstance,
    JsonRecord,
    eval_H_on_point,
    eval_M_on_point,
)
from .space import (DEGENERATE, ConfigError, NonFiniteError, as_rows,
                    as_vector, slack)

_COND_LIMIT = 1e12
_EPS = np.finfo(float).eps
# Anderson mixing on the damped path: the number of (iterate, residual)
# differences it keeps, and the one-iteration residual growth that
# clears them
_ANDERSON_MEMORY = 5
_RESTART_GROWTH = 1e3
# the stall test: a damped resolve fails when its best residual is not
# below _STALL_FACTOR times its best of _STALL_WINDOW iterations before
_STALL_FACTOR = 0.5
_STALL_WINDOW = 100


class NonSurjectiveError(RuntimeError):
    """The composite H + rho*M cannot reach the requested point.

    Carries a `defect` dict describing the failure (zero or singular
    linear part, the constant image point when there is one).
    """

    def __init__(self, message: str, defect: dict | None = None):
        super().__init__(message)
        self.defect = defect or {}


class ResolventIterationError(RuntimeError):
    """The damped fixed-point solver did not reach the inner tolerance.

    `last_residual` is the residual norm of the last completed iteration
    (inf if none completed) and `iterations` the number of iterations run,
    the one that raised included.
    """

    def __init__(self, message: str, last_residual: float, iterations: int):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


@dataclass(frozen=True)
class ResolventConfig:
    """How to invert the composite at step size `rho`.

    The instance decides the path (see `Resolvent`); the damped path
    stops at residual `inner_tol` or after `max_inner_iters` iterations.
    """

    rho: float
    max_inner_iters: int = 20000
    inner_tol: float = 1e-12

    def __post_init__(self):
        if not self.rho > 0:
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        if not self.inner_tol > 0:
            raise ConfigError(f"inner_tol must be > 0, got {self.inner_tol}")


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


class Composite:
    """K = H + rho*M of an affine instance at one rho: x -> matrix @ x +
    offset, from the instance's `AffinePencil`.

    `invertible` is the one test of whether H + rho*M is invertible, for
    `Resolvent` and the surjectivity certificate: sigma_max > 0 and
    cond <= 1e12, which neither a scaling of K nor its dimension moves.
    The first conclusive route decides: the pencil's symmetric-part bound
    (`_definite`, no factorization), then, until `sv` has been read, the
    LU factors (`_cond_bound`), then the singular values.  `lu`, `sv`
    (largest first), `cond` = sigma_max / sigma_min (None where
    infinite), `det` and the null direction of a singular `defect` are
    each computed on first access.
    """

    def __init__(self, pencil, rho: float):
        self.pencil, self.rho = pencil, rho
        self.matrix = rho * pencil.m.matrix
        self.matrix += pencil.h.matrix
        self.offset = pencil.h.offset + rho * pencil.m.offset

    @functools.cached_property
    def lu(self):
        """(lu, piv, info) of LAPACK getrf, as in `scipy.linalg.lu_factor`,
        but an exactly zero pivot (info > 0) raises no warning."""
        return lapack.dgetrf(self.matrix)

    @functools.cached_property
    def sv(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    @functools.cached_property
    def cond(self) -> float | None:
        low = float(self.sv[-1])
        cond = float(self.sv[0]) / low if low > 0 else np.inf
        return None if np.isinf(cond) else cond

    @functools.cached_property
    def invertible(self) -> bool:
        if self._definite() or ("sv" not in self.__dict__
                                and self._cond_bound() <= _COND_LIMIT):
            return True
        return self.cond is not None and self.cond <= _COND_LIMIT

    def _definite(self) -> bool:
        """Whether Weyl's inequality on the pencil's `bounds` puts every
        eigenvalue of sym(K) on one side of 0, farther than slack(f), f =
        ||L_H||_F + |rho|*||L_M||_F >= sigma_max.  Their least distance
        from 0 is at most sigma_min, as |x^T K x| <= ||K x|| for a unit
        x, so this settles cond up to about 1e9."""
        (lo_h, hi_h, fro_h), (lo_m, hi_m, fro_m) = self.pencil.bounds
        rho = self.rho
        low = lo_h + min(rho * lo_m, rho * hi_m)
        high = hi_h + max(rho * lo_m, rho * hi_m)
        return max(low, -high) > slack(fro_h + abs(rho) * fro_m)

    def _cond_bound(self) -> float:
        """An upper bound on cond_2(K) from the LU factors, inf where they
        give none: b*(1 + dim*eps*b), b = ||K||_F * ||K^-1||_F >= cond_2(K)
        (Golub & Van Loan, "Matrix Computations", section 2.3), the second
        factor covering the rounding of the computed inverse.  The norms
        are of K and K^-1 scaled by 1/max|K| and max|K|, so that no square
        under- or overflows."""
        lu, piv, info = self.lu
        if info != 0:
            return math.inf
        dim, scale = lu.shape[0], float(np.abs(self.matrix).max())
        inverse, info = lapack.dgetri(
            lu, piv, lwork=int(lapack.dgetri_lwork(dim)[0]))
        # an overflow, or 0 * inf, leaves b non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            b = float(np.linalg.norm(self.matrix / scale)
                      * np.linalg.norm(inverse * scale))
        if info != 0 or not math.isfinite(b):
            return math.inf
        return b * (1.0 + dim * _EPS * b)

    @functools.cached_property
    def det(self) -> float:
        """det(matrix) from slogdet: inf where it overflows, without a
        warning."""
        sign, log_abs = np.linalg.slogdet(self.matrix)
        with np.errstate(over="ignore"):
            return float(sign * np.exp(log_abs))

    def defect(self) -> dict | None:
        """None when K is invertible.  Otherwise why H + rho*M is not onto:
        a zero linear part (sigma_max within `slack` of ||H|| + |rho|*||M||;
        the image is the single point `offset`) or a singular one (the
        image is a proper affine subspace; `null_direction` is the right
        singular vector of sigma_min)."""
        if self.invertible:
            return None
        h, m = (np.linalg.norm(part.matrix, 2)
                for part in (self.pencil.h, self.pencil.m))
        if self.sv[0] <= slack(h + abs(self.rho) * m):
            return {"rho": self.rho,
                    "kind": "zero linear part",
                    "description": "the composite image is the single point "
                                   f"{self.offset.tolist()}",
                    "image_point": self.offset.tolist(),
                    "image_norm": float(np.linalg.norm(self.offset))}
        return {"rho": self.rho,
                "kind": "singular linear part",
                "description": "the composite image is a proper affine "
                               "subspace",
                "null_direction": np.linalg.svd(self.matrix)[2][-1].tolist(),
                "cond": self.cond,
                "det": self.det}


def _damping(tau: float | None, mc, rho: float) -> float:
    if tau is not None and mc is not None:
        lip_m = float(np.linalg.norm(mc.matrix, 2))
        return 1.0 / (tau + rho * lip_m)
    return 0.1


class Resolvent:
    """R = (H((A,B),(C,D)) + rho*M(f,g))^(-1) of one instance at one rho.

    Built once and applied many times.  The instance decides the path.
    When H is additive, M the difference coupling and A..D, f, g affine,
    the constructor forms the composite K as a `Composite` from the
    instance's cached `AffinePencil`, decides its invertibility
    (`Composite.invertible`) and keeps its LU factors, so each call is a
    triangular solve.  Black-box
    maps take the damped path: the constructor fixes the step size of a
    fixed-point iteration that each call runs.  A call takes a vector or
    an `(n, dim)` batch of rows and returns the same shape.

    `singular_values` holds those of K, largest first, on the exact path
    (so `1 / singular_values[-1]` is R's exact Lipschitz constant), from
    one values-only SVD taken on first access, and is None on the damped
    path.  `inner_iterations` is the running total of damped iterations
    over every call that returned or raised `ResolventIterationError`; it
    stays 0 on the exact path.

    Raises
    ------
    NonSurjectiveError
        From the constructor, if the affine composite is (numerically)
        singular, so some z lie outside the range.
    NonFiniteError
        From a call whose vector, or batch, has a NaN or Inf coordinate.
    DimensionMismatchError
        From a call whose vector, or batch row, is not of the instance's
        dimension.
    EmptySetError
        From a call on a batch of no rows.
    ResolventIterationError
        From a call on the damped path, if the iteration stalls above
        `inner_tol`, runs out of iterations, or its residual or a map
        image becomes non-finite.
    """

    def __init__(self, inst: InclusionInstance, cfg: ResolventConfig):
        self.inst, self.cfg = inst, cfg
        self._composite = self._lu = None
        self.inner_iterations = 0
        pencil = inst.pencil
        if not pencil.affine:
            self._lam = _damping(inst.constants.tau, pencil.m, cfg.rho)
            return
        k = Composite(pencil, cfg.rho)
        defect = k.defect()
        if defect is not None:
            raise NonSurjectiveError(
                f"composite H + rho*M is not invertible at rho={cfg.rho}: "
                f"{defect['description']}", defect)
        self._composite, self._lu, self._offset = k, k.lu[:2], k.offset

    @property
    def exact(self) -> bool:
        """Whether calls solve the LU-factored composite directly."""
        return self._lu is not None

    @property
    def singular_values(self) -> np.ndarray | None:
        """K's singular values on the exact path, else None."""
        return None if self._composite is None else self._composite.sv

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        batch = z.ndim == 2
        zv = (as_rows if batch else as_vector)(z, self.inst.dim, "resolvent")
        if self.exact:      # a batch's rows are the columns of the rhs
            return scipy.linalg.lu_solve(self._lu, (zv - self._offset).T,
                                         check_finite=False).T
        if batch:
            return np.array([self(row) for row in zv])
        try:
            x, iterations = _resolve_damped(self.inst, self.cfg, zv,
                                            self._lam)
        except ResolventIterationError as exc:
            self.inner_iterations += exc.iterations
            raise
        self.inner_iterations += iterations
        return x


def resolve(inst: InclusionInstance, cfg: ResolventConfig, z) -> np.ndarray:
    """Solve H((Ax,Bx),(Cx,Dx)) + rho * m(x) = z for x.

    A one-off `Resolvent(inst, cfg)(z)`; build the `Resolvent` once to
    apply the same resolvent many times.  Raises what `Resolvent` raises.
    """
    return Resolvent(inst, cfg)(z)


def _resolve_damped(inst: InclusionInstance, cfg: ResolventConfig,
                    z: np.ndarray, lam: float):
    """R(z) by the damped iteration g(x) = x - lam*r(x), r(x) = H(x) +
    rho*m - z with m the member of M(f(x), g(x)) of the smallest residual,
    under type-II Anderson mixing (Walker & Ni, "Anderson acceleration for
    fixed-point iterations", SIAM J. Numer. Anal. 49, 2011); returns (x,
    the number of iterations run).

    The history holds up to `_ANDERSON_MEMORY` differences dX, dR of
    consecutive iterates and residuals.  gamma minimizes ||r - dR @ gamma||
    and x <- x - lam*r - (dX - lam*dR) @ gamma, the plain step when the
    history is empty.  The history is cleared when the selected member
    changes or the residual grows more than `_RESTART_GROWTH`-fold in one
    iteration.  A difference along which the composite is flatter than
    1 / (lam * _COND_LIMIT), beyond the condition limit for the slope 1/lam
    the step assumes, is left out: there dR is rounding noise, and mixing
    it would leap to where the maps' images cancel to rounding.

    The iteration stops at residual `inner_tol`.  It raises
    `ResolventIterationError` when the residual, a map image or x becomes
    non-finite, when the best residual is not below `_STALL_FACTOR` times
    the best of `_STALL_WINDOW` iterations before, and after
    `max_inner_iters` iterations.  Images go through `eval_H_on_point` and
    `eval_M_on_point`, so malformed map output raises their errors.
    """
    x = np.array(z, dtype=float)
    last = np.inf
    dx, dr = deque(maxlen=_ANDERSON_MEMORY), deque(maxlen=_ANDERSON_MEMORY)
    best = deque(maxlen=_STALL_WINDOW + 1)      # best residual, per iteration
    prev = None                                 # (x, r, member, residual)
    # a diverging iterate overflows; the checks below turn the inf it
    # leaves in the residual, a map image or x into ResolventIterationError
    with np.errstate(over="ignore"):
        for n in range(1, cfg.max_inner_iters + 1):
            try:
                hx = eval_H_on_point(inst, x)
                members = eval_M_on_point(inst, x)
            except NonFiniteError:
                raise ResolventIterationError(
                    "damped fixed-point iteration diverged: a map image is "
                    "non-finite", last, n) from None
            residuals = [hx + cfg.rho * m - z for m in members]
            norms = [float(np.linalg.norm(r)) for r in residuals]
            # target the selection that minimizes the current residual
            k = int(np.argmin(norms)) if len(norms) > 1 else 0
            r, last = residuals[k], norms[k]
            if last <= cfg.inner_tol:
                return x, n
            if not math.isfinite(last):
                raise ResolventIterationError(
                    "damped fixed-point iteration diverged to non-finite "
                    "values", last, n)
            best.append(min(last, best[-1]) if best else last)
            if len(best) == best.maxlen and best[-1] > _STALL_FACTOR * best[0]:
                raise ResolventIterationError(
                    f"damped fixed-point iteration stalled: residual "
                    f"{best[-1]:.3e} not below {_STALL_FACTOR} x "
                    f"{best[0]:.3e} within {_STALL_WINDOW} iterations", last,
                    n)
            if prev is not None:
                px, pr, pk, plast = prev
                if k != pk or last > _RESTART_GROWTH * plast:
                    dx.clear()
                    dr.clear()
                else:
                    step_x, step_r = x - px, r - pr
                    if (np.linalg.norm(step_r) * lam * _COND_LIMIT
                            > np.linalg.norm(step_x)):
                        dx.append(step_x)
                        dr.append(step_r)
            prev = x, r, k, last
            x = x - lam * r
            if dr:
                dR = np.column_stack(dr)
                gamma = np.linalg.lstsq(dR, r, rcond=None)[0]
                x = x - (np.column_stack(dx) - lam * dR) @ gamma
            if not np.isfinite(x).all():
                raise ResolventIterationError(
                    "damped fixed-point iteration diverged to non-finite "
                    "values", last, n)
    raise ResolventIterationError(
        f"damped fixed-point iteration exceeded {cfg.max_inner_iters} "
        f"iterations (last residual {last:.3e} > {cfg.inner_tol:.3e})", last,
        cfg.max_inner_iters)


def theoretical_r_m(inst: InclusionInstance, constants=None):
    """(r, m) of the contraction bound, from the declared constants, or
    from `constants`, a mapping of the same names, when given."""
    got = constants or inst.constants.require(
        "mu1", "mu2", "gamma1", "gamma2", "alpha1", "beta1", "alpha", "beta")
    q = inst.space.q
    r = (got["mu1"] * got["alpha1"] ** q - got["mu2"] * got["beta1"] ** q
         + got["gamma1"] + got["gamma2"])
    m = got["alpha"] - got["beta"]
    return float(r), float(m)


@dataclass(frozen=True)
class AuditReport(JsonRecord):
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


def audit_lipschitz(inst: InclusionInstance, cfg: ResolventConfig,
                    plan=None) -> AuditReport:
    """Check ||R(u)-R(v)|| <= ||u-v|| / (r + rho*m) over sampled pairs.

    Pairs with u = v are skipped (the quotient is vacuous there).  The
    resolvent is prepared once and applied to all u, then all v, as two
    batches.  The audit passes when the worst quotient is within
    `slack(worst + bound)` of the bound.
    """
    from .certify import SamplePlan
    plan = plan or SamplePlan()
    r, m = theoretical_r_m(inst)
    bound = 1.0 / (r + cfg.rho * m)
    resolvent = Resolvent(inst, cfg)
    u, v, _ = plan.arrays(inst.dim)
    du = np.linalg.norm(u - v, axis=1)
    keep = du >= DEGENERATE
    u, v, du = u[keep], v[keep], du[keep]
    worst, worst_pair = -np.inf, None
    if du.size:
        ratios = np.linalg.norm(resolvent(u) - resolvent(v), axis=1) / du
        k = int(np.argmax(ratios))
        worst = float(ratios[k])
        worst_pair = {"u": u[k].tolist(), "v": v[k].tolist(), "ratio": worst}
    exact_ratio = (None if resolvent.singular_values is None
                   else float(1.0 / resolvent.singular_values[-1]))
    passed = bool(worst <= bound + slack(worst + bound))
    return AuditReport(rho=cfg.rho, r=r, m=m, bound=float(bound),
                       worst_ratio=worst, worst_pair=worst_pair,
                       n_pairs=int(du.size), passed=passed,
                       exact_ratio=exact_ratio)
