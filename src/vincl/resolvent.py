"""The proximal-point mapping R(z) = (H((A,B),(C,D)) + rho*M(f,g))^(-1)(z).

A `Resolvent` is prepared once per (instance, rho).  For affine instances
the composite is a dense linear system, shown invertible by Weyl margins
or singular values, factored once and solved per call.  Black-box
operators are resolved by chord steps (Kelley, "Iterative Methods for
Linear and Nonlinear Equations", SIAM 1995, ch. 5) on a linear model of
the composite, probed once per instance, under Anderson mixing; where the
probe gives no invertible model, a resolve raises at once.
`audit_lipschitz` checks the theoretical contraction bound

    ||R(u) - R(v)|| <= ||u - v|| / (r + rho*m),
    r = mu1*alpha1^q - mu2*beta1^q + gamma1 + gamma2,   m = alpha - beta,

as the expansive bound ||Kx - Ky|| >= (r + rho*m)||x - y|| of K = H + rho*M
on seeded samples, for R(Kx) = x.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .operators import (
    InclusionInstance,
    JsonRecord,
    eval_H_on_point,
    eval_M_on_point,
)
from .space import (RESOLVE_TOL, NonFiniteError, as_rows, as_vector,
                    check_count, check_positive, slack, store)

_COND_LIMIT = 1e12
_EPS = np.finfo(float).eps
# below this dimension a composite is factored by numpy (`np.linalg.inv`),
# which spares each process the scipy import that a small factorization
# does not repay; at and above it by scipy's LAPACK getrf, for its speed
# on large matrices (at dim 400, getrf takes about a quarter of inv's time).
# The built-ins (dims 2 to 8) fall below it, blackbox-50 and the dim-400
# workloads above; any cut from 9 to 50 splits them the same way
_SMALL_DIM = 16
# the number of (iterate, step) differences Anderson mixing keeps
_ANDERSON_MEMORY = 5
# the stall test: a black-box resolve fails when its best residual is not
# below _STALL_FACTOR times its best of _STALL_WINDOW iterations before
_STALL_FACTOR = 0.5
_STALL_WINDOW = 100
# a black-box resolve also stops at this * eps * (||H(x)|| + rho*||m|| +
# ||z||): its residual is rounded at that scale
_FLOOR_FACTOR = 8


class NonSurjectiveError(RuntimeError):
    """The composite H + rho*M cannot reach the requested point.

    Carries a `defect` dict describing the failure (zero or singular
    linear part, the constant image point when there is one).
    """

    def __init__(self, message: str, defect: dict | None = None):
        super().__init__(message)
        self.defect = defect or {}


class ResolventIterationError(RuntimeError):
    """The black-box iteration did not reach its stopping tolerance.

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

    The instance decides the path (see `Resolvent`); a black-box resolve
    of z stops at residual `RESOLVE_TOL * max(1, ||z||)`, or at the
    residual's rounding floor where that is larger, or after
    `max_inner_iters` iterations, which must be >= 1.
    """

    rho: float
    max_inner_iters: int = 20000

    def __post_init__(self):
        store(self, rho=check_positive(self.rho), max_inner_iters=check_count(
            self.max_inner_iters, "max_inner_iters", 1))


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
    """K = H + rho*M of an affine instance, or of a probed linear model, at
    one rho: x -> matrix @ x + offset, from an `AffinePencil`.

    `invertible` is the one test of whether H + rho*M is invertible, for
    `Resolvent` and the surjectivity certificate: K is not `zero` and
    cond <= 1e12, which neither a scaling of K nor its dimension moves.
    Two routes decide it: the pencil's Weyl `margins`, with no
    factorization, settle every K whose symmetric part they show
    definite; any other K is decided by `zero` and its singular values.
    K is factored once, by the dimension: below `_SMALL_DIM` rows
    (`small`) into its `inverse` by numpy, otherwise into `lu` by LAPACK
    getrf, which loads scipy.  `inverse` or `lu`, `sv` (largest first),
    `cond` = sigma_max / sigma_min (None where infinite) and the null
    direction of a singular `defect` are each computed on first access.
    """

    def __init__(self, pencil, rho: float):
        self.pencil, self.rho = pencil, rho
        self.matrix = rho * pencil.m.matrix
        self.matrix += pencil.h.matrix
        self.offset = pencil.h.offset + rho * pencil.m.offset
        self.small = self.matrix.shape[0] < _SMALL_DIM

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """K^-1 from `np.linalg.inv`, the factorization of a `small` K;
        raises LinAlgError where LU meets an exactly zero pivot."""
        return np.linalg.inv(self.matrix)

    @functools.cached_property
    def lu(self):
        """(lu, piv, info) of LAPACK getrf, as in `scipy.linalg.lu_factor`,
        but an exactly zero pivot (info > 0) raises no warning: the
        factorization of a K that is not `small`."""
        from scipy.linalg import lapack     # loads scipy on first use
        return lapack.dgetrf(self.matrix)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b, b a vector or the columns of a matrix: `inverse.dot(b)`
        for a `small` K, else the LAPACK getrs on `lu` that
        `scipy.linalg.lu_solve` wraps, without the wrapper."""
        if self.small:
            return self.inverse.dot(b)
        from scipy.linalg import lapack
        x, info = lapack.dgetrs(*self.lu[:2], b)
        if info != 0:
            raise ValueError(f"getrs: illegal value in argument {-info}")
        return x

    @functools.cached_property
    def sv(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    @functools.cached_property
    def cond(self) -> float | None:
        low = float(self.sv[-1])
        cond = float(self.sv[0]) / low if low > 0 else np.inf
        return None if np.isinf(cond) else cond

    @functools.cached_property
    def zero(self) -> bool:
        """Whether K is zero up to rounding, ||K||_F <= slack(||L_H||_F +
        |rho|*||L_M||_F) from `bounds`: what H and rho*M leave where they
        cancel is noise, however well conditioned, and the image a point."""
        (_, _, fro_h), (_, _, fro_m) = self.pencil.bounds
        # ||K||_F as max|K| * ||K / max|K|||_F: no square under- or overflows
        scale = float(np.abs(self.matrix).max())
        unit = float(np.linalg.norm(self.matrix / (scale or 1.0)))
        return scale * unit <= slack(fro_h + abs(self.rho) * fro_m)

    @functools.cached_property
    def invertible(self) -> bool:
        # a Weyl margin > slack(f), f = ||L_H||_F + |rho|*||L_M||_F >=
        # sigma_max, bounds sigma_min from below, as |x^T K x| <= ||K x||
        # for a unit x: this settles cond up to about 1e9
        if max(self.pencil.margins(self.rho)) > 0:
            return True
        return (not self.zero and self.cond is not None
                and self.cond <= _COND_LIMIT)

    def defect(self) -> dict | None:
        """None when K is invertible.  Otherwise why H + rho*M is not onto:
        a zero linear part (`zero`; the image is the single point
        `offset`) or a singular one (the image is a proper affine
        subspace; `null_direction` is the right singular vector of
        sigma_min)."""
        if self.invertible:
            return None
        if self.zero:
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
                "cond": self.cond}


def _exact_composite(pencil, rho: float) -> Composite:
    """The `Composite` of an affine pencil at rho, or NonSurjectiveError
    carrying its `defect` where it is not invertible."""
    k = Composite(pencil, rho)
    defect = k.defect()
    if defect is not None:
        raise NonSurjectiveError(
            f"composite H + rho*M is not invertible at rho={rho}"
            f": {defect['description']}", defect)
    return k


class Resolvent:
    """R = (H((A,B),(C,D)) + rho*M(f,g))^(-1) of one instance at one rho.

    Built once and applied many times; a call takes a vector or an `(n,
    dim)` batch of rows and returns the same shape.  `path` says how calls
    resolve: "exact" when H is additive, M the difference coupling and
    A..D, f, g affine; the constructor forms the composite K as a
    `Composite` of the instance's `AffinePencil`, decides its
    invertibility and keeps it, factored, as `composite` (None on the
    chord path), so a call is one product with the inverse (below
    `_SMALL_DIM`) or a triangular solve.
    Otherwise "chord": a call runs `_resolve_chord` with J = J_H +
    rho*J_M of the instance's probed model (`AffinePencil.probed`, taken
    on the first call), or raises `ResolventIterationError` before any
    residual is evaluated where the probe met a non-finite image or J
    fails `Composite.invertible`.

    `inner_iterations` totals the residual evaluations of the calls that
    returned or raised `ResolventIterationError`, `probe_evaluations` the
    evaluations of H and M this resolvent spent on the probe (dim + 1, or
    0 where the instance had been probed); both stay 0 on the exact path.

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
        From a call on the chord path, if there is no chord model, or the
        iteration stalls above its stopping tolerance, runs out of
        iterations, or its residual or a map image becomes non-finite.
    ValueError
        From a call on the chord path whose probe meets a malformed map
        image (the error `eval_H_on_point` or `eval_M_on_point` raises).
    """

    def __init__(self, inst: InclusionInstance, cfg: ResolventConfig):
        self.inst, self.cfg = inst, cfg
        self.inner_iterations = self.probe_evaluations = 0
        self.composite = (_exact_composite(inst.pencil, cfg.rho)
                          if inst.pencil.affine else None)

    @property
    def exact(self) -> bool:
        """Whether calls solve the factored composite directly."""
        return self.composite is not None

    @property
    def path(self) -> str:
        return "exact" if self.exact else "chord"

    @functools.cached_property
    def _chord(self) -> Composite:
        """J = J_H + rho*J_M of the instance's probed model; raises
        ResolventIterationError where the probe met a non-finite image or
        J is not invertible."""
        pencil, rho = self.inst.pencil, self.cfg.rho
        before = pencil.probe_evaluations
        try:    # a malformed image raises, and is probed again next call
            model = pencil.probed
        finally:
            self.probe_evaluations += pencil.probe_evaluations - before
        if model is None:
            reason = "a map image is non-finite at a probe point"
        else:
            k = Composite(model, rho)
            if k.invertible:
                return k
            reason = ("the probed linear model has a "
                      f"{'zero' if k.zero else 'singular'} linear part")
        raise ResolventIterationError(f"no chord model at rho={rho}: {reason}",
                                      math.inf, 0)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        batch = z.ndim == 2
        zv = (as_rows if batch else as_vector)(z, self.inst.dim, "resolvent")
        k = self.composite
        if k is not None:   # a batch's rows are the columns of the rhs
            return k.solve((zv - k.offset).T).T
        if batch:
            return np.array([self._chord_images(row)[0] for row in zv])
        return self._chord_images(zv)[0]

    def images(self, z):
        """(x, H(x), M(f(x), g(x))) for x = R(z), one vector z: the images
        a resolve of z holds, for an iteration that needs them at x.

        On the chord path they are the images the last residual evaluated
        at x, the bits `eval_H_on_point` and `eval_M_on_point` return
        there.  On the exact path M is the difference coupling, so single-
        valued: its member m is one pencil matvec, and H(x) is z - rho*m,
        the evaluated H(x) up to the rounding of the solve.  Checks and
        raises as a call on a vector does."""
        zv = as_vector(z, self.inst.dim, "resolvent")
        k = self.composite
        if k is None:
            return self._chord_images(zv)
        x = k.solve(zv - k.offset)
        members = eval_M_on_point(self.inst, x)
        return x, zv - self.cfg.rho * members[0], members

    def _chord_images(self, zv: np.ndarray):
        """`_resolve_chord` of the checked vector zv, its iterations added
        to `inner_iterations`: (x, H(x), the members of M at x)."""
        try:
            x, iterations, hx, members = _resolve_chord(
                self.inst, self.cfg, zv, self._chord)
        except ResolventIterationError as exc:
            self.inner_iterations += exc.iterations
            raise
        self.inner_iterations += iterations
        return x, hx, members


def resolve(inst: InclusionInstance, cfg: ResolventConfig, z) -> np.ndarray:
    """Solve H((Ax,Bx),(Cx,Dx)) + rho * m(x) = z for x.

    A one-off `Resolvent(inst, cfg)(z)`; build the `Resolvent` once to
    apply the same resolvent many times.  Raises what `Resolvent` raises.
    """
    return Resolvent(inst, cfg)(z)


def _norm(v: np.ndarray) -> float:
    """||v||, finite for every finite v: the plain norm, or max|v| times
    that of v / max|v| where its squares overflow.  For use under
    np.errstate(over="ignore")."""
    out = float(np.linalg.norm(v))
    if out == math.inf:
        scale = float(np.abs(v).max())
        if scale < math.inf:
            out = scale * float(np.linalg.norm(v / scale))
    return out


def _resolve_chord(inst: InclusionInstance, cfg: ResolventConfig,
                   z: np.ndarray, chord: Composite):
    """R(z) by the iteration g(x) = x - p(x), p(x) = J^(-1) r(x), from x =
    J^(-1)(z - c), where J with offset c is the `Composite` `chord` of a
    linear model and r(x) = H(x) + rho*m - z, m the member of M(f(x),
    g(x)) of the smallest residual, under type-II Anderson mixing (Walker
    & Ni, "Anderson acceleration for fixed-point iterations", SIAM J.
    Numer. Anal. 49, 2011); returns (x, the number of iterations run, one
    residual evaluation each, H(x), the members of M(f(x), g(x))).

    The history holds up to `_ANDERSON_MEMORY` differences dX, dP of
    consecutive iterates and steps.  gamma minimizes ||p - dP @ gamma||
    and x <- x - p - (dX - dP) @ gamma, the plain step when the history
    is empty.  The history is cleared when the selected member changes.
    A difference with ||dP|| below ||dX|| / _COND_LIMIT, beyond the
    condition limit for the unit slope the step assumes, is left out:
    there dP is rounding noise, and mixing it would leap to where the
    maps' images cancel to rounding.

    The iteration stops at residual tol = RESOLVE_TOL * max(1, ||z||):
    relative to the right-hand side, as in Kelley's termination rule, but
    absolute below a unit z, whose H(x) and rho*m may be much larger than
    z and round accordingly.  Where they are larger still, it stops at
    the rounding floor of the residual, _FLOOR_FACTOR * eps * (||H(x)|| +
    rho*||m|| + ||z||), the spread of the subtraction it performs, when
    that is finite.  These norms are taken by `_norm`, so a finite vector
    past about 1e154 keeps a finite norm.  It raises
    `ResolventIterationError` when the residual, a map image or x becomes
    non-finite, when the best residual is not below `_STALL_FACTOR` times
    the best of `_STALL_WINDOW` iterations before, and after
    `max_inner_iters` iterations.  Images go through `eval_H_on_point`
    and `eval_M_on_point`, so malformed map output raises their errors.
    """
    x = chord.solve(z - chord.offset)
    dx, dp = deque(maxlen=_ANDERSON_MEMORY), deque(maxlen=_ANDERSON_MEMORY)
    best = deque(maxlen=_STALL_WINDOW + 1)      # best residual, per iteration
    prev = None                                 # (x, p, member)
    # a diverging iterate overflows; the checks below turn the inf it
    # leaves in the residual, a map image or x into ResolventIterationError
    with np.errstate(over="ignore"):
        z_norm = _norm(z)
        last, tol = np.inf, RESOLVE_TOL * max(1.0, z_norm)
        for n in range(1, cfg.max_inner_iters + 1):
            try:
                hx = eval_H_on_point(inst, x)
                members = eval_M_on_point(inst, x)
            except NonFiniteError:
                raise ResolventIterationError(
                    "chord iteration diverged: a map image is non-finite",
                    last, n) from None
            residuals = [hx + cfg.rho * m - z for m in members]
            norms = [_norm(r) for r in residuals]
            # target the selection that minimizes the current residual
            k = int(np.argmin(norms)) if len(norms) > 1 else 0
            r, last = residuals[k], norms[k]
            if last <= tol:
                return x, n, hx, members
            if not math.isfinite(last):
                raise ResolventIterationError(
                    "chord iteration diverged to non-finite values", last, n)
            floor = _FLOOR_FACTOR * _EPS * (
                _norm(hx) + cfg.rho * _norm(members[k]) + z_norm)
            if last <= floor < math.inf:    # norms near 1e308 add to inf
                return x, n, hx, members
            best.append(min(last, best[-1]) if best else last)
            if len(best) == best.maxlen and best[-1] > _STALL_FACTOR * best[0]:
                raise ResolventIterationError(
                    f"chord iteration stalled: residual {best[-1]:.3e} not "
                    f"below {_STALL_FACTOR} x {best[0]:.3e} within "
                    f"{_STALL_WINDOW} iterations", last, n)
            p = chord.solve(r)
            if prev is not None and k != prev[2]:
                dx.clear()
                dp.clear()
            elif prev is not None:
                step_x, step_p = x - prev[0], p - prev[1]
                if np.linalg.norm(step_p) * _COND_LIMIT > np.linalg.norm(
                        step_x):
                    dx.append(step_x)
                    dp.append(step_p)
            prev = x, p, k
            x = x - p
            if dp:
                dP = np.column_stack(dp)
                gamma = np.linalg.lstsq(dP, p, rcond=None)[0]
                x = x - (np.column_stack(dx) - dP) @ gamma
            if not np.isfinite(x).all():
                raise ResolventIterationError(
                    "chord iteration diverged to non-finite values", last, n)
    raise ResolventIterationError(
        f"chord iteration exceeded {cfg.max_inner_iters} iterations (last "
        f"residual {last:.3e} > {tol:.3e})", last, cfg.max_inner_iters)


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
    """The observed contraction of R versus the bound (`audit_lipschitz`)."""

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
    """Check ||R(u)-R(v)|| <= ||u-v|| / (r + rho*m) on u = Kx, v = Ky over
    the plan rows x, y: the expansive bound of K = H + rho*M, decided by
    `certify`'s sampled-inequality engine.  `worst_pair` is its witness,
    `worst_ratio` 1 over its constant (inf where that is 0), `exact_ratio`
    1/sigma_min(K) on the exact path.  u and v are `forward` images, one
    matrix product each on the exact path: nothing is resolved or probed.
    Raises ValueError where r + rho*m <= 0, as there is no bound there,
    and NonSurjectiveError as `Resolvent` does."""
    from .certify import SamplePlan, _images_of, _norms, _ratio_form
    r, m = theoretical_r_m(inst)
    denom = r + cfg.rho * m
    if not denom > 0:
        raise ValueError(f"the bound 1/(r + rho*m) needs r + rho*m > 0; at "
                         f"rho={cfg.rho} r + rho*m = {denom:.6g}")
    prop = "resolvent_lipschitz"
    table = _images_of(plan or SamplePlan(), inst.dim, inst)
    x, y, _ = table.rows(prop)
    exact_ratio = None
    if inst.pencil.affine:
        k = _exact_composite(inst.pencil, cfg.rho)
        u, v = (rows @ k.matrix.T + k.offset for rows in (x, y))
        exact_ratio = float(1.0 / k.sv[-1])
    else:
        u, v = (as_rows([forward(inst, row, cfg.rho) for row in rows],
                        inst.dim, f"forward image for {prop}")
                for rows in (x, y))
    cert, n_pairs = _ratio_form(prop, denom, table.plan, x, y, _norms(u - v),
                                _norms(u) + _norms(v), upper=False)
    constant = cert.constant
    worst = (-math.inf if constant is None
             else math.inf if constant == 0 else 1.0 / constant)
    return AuditReport(rho=cfg.rho, r=r, m=m, bound=1.0 / denom,
                       worst_ratio=worst, worst_pair=cert.witness,
                       n_pairs=n_pairs, passed=cert.verdict != "fail",
                       exact_ratio=exact_ratio)
