"""The proximal-point iteration for the inclusion problem.

One step of the scheme, from the current z:

    u_n = R(z_n)                      (resolvent of H + rho*M)
    v_n = nearest point of S(u_n) to v_(n-1)
    w_n = nearest point of T(u_n) to w_(n-1)
    z_(n+1) = H((Au_n, Bu_n), (Cu_n, Du_n)) - rho*F(v_n, w_n)
              + rho*omega + e_n

with an error term e_n -> 0 whose increments are geometrically summable.
H(u_n) and M(f(u_n), g(u_n)) are the images the resolve of z_n holds
(`Resolvent.images`).  On the exact path H(u_n) = z_n - rho*m_n, so

    z_(n+1) = z_n + rho*(omega - Phi(u_n)) + e_n,
    Phi(u) = F(Su, Tu) + M(f(u), g(u)),

whose fixed point zeroes the evaluated inclusion residual ||omega -
Phi(u)|| whatever the rounding of the solve.  `solve` runs one step
function, z_n -> (u_n, v_n, w_n, residual, z_(n+1) - e_n), the start-up
included: where S and T are single-valued affine selections and F is
affine, the composed one, the solve of K = H + rho*M and one matvec with
Phi's matrix, which `step_composite` assembles once; else the general one.
The per-step contraction factor predicted by the theory is

    theta_n = (1/(r + rho*m)) * (tau^q + c_q*rho^q*(eps1*l1*k + eps2*l2*k)^q
              - rho*q*(sigma + delta)*tau^q)^(1/q),     k = 1 + 1/n,

with theta its n -> infinity limit.  `theta` evaluates this formula with
the instance's declared constants exactly as written.  Note the declared
sigma, delta of the worked instances are normalized against ||x-y||^q
while the contraction derivation consumes constants normalized against
the H increment; `contraction_factor_bound` applies that renormalization
(sigma/tau^q, delta/tau^q) and is the bound observed step ratios actually
respect.  Both values are reported wherever rates are summarized.
"""

import csv
import io
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import (
    InclusionInstance,
    JsonRecord,
    MissingConstantsError,
    eval_H_on_point,
    selection_parts,
    set_values,
    step_composite,
)
from .resolvent import Resolvent, ResolventConfig, theoretical_r_m
from .space import (ConfigError, NonFiniteError, as_rows, as_vector,
                    check_count, check_positive, power, store)

TRACE_SCHEMA = "vincl.trace.v1"


class DivergenceError(RuntimeError):
    """Sustained step growth; the partial trace is attached."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


# ---------------------------------------------------------------------------
# Error sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricErrors:
    """e_n = c0 * factor^n * direction, factor in (0, 1).

    Increment sums satisfy sum_j ||e_j - e_(j-1)|| * varpi^(-j) < infinity
    for every varpi in (factor, 1); the recorded varpi is (1 + factor)/2.
    """

    c0: float
    factor: float
    direction: np.ndarray

    def __post_init__(self):
        store(self, c0=check_positive(self.c0, "c0", None),
              factor=check_positive(self.factor, "factor", None))
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(f"factor must be in (0, 1), got {self.factor}")
        store(self, direction=as_vector(self.direction))

    @property
    def varpi(self) -> float:
        return 0.5 * (1.0 + self.factor)

    def term(self, n: int) -> np.ndarray:
        return self.c0 * self.factor ** n * self.direction


# ---------------------------------------------------------------------------
# theta and the two-sided rate condition
# ---------------------------------------------------------------------------

class _Rate:
    """The rate formula at one rho from the declared constants: its
    n-independent terms, read once, and theta_n from them.

    `renormalized` divides sigma, delta by tau^q, the H-increment
    normalization; (sigma/tau^q + delta/tau^q) * tau^q = sigma + delta, so
    the tau^q of the coupling term cancels.  The rate is undefined, and
    `theta` None, where the radicand is not >= 0 or r + rho*m is not > 0.
    """

    def __init__(self, inst: InclusionInstance, rho: float | None):
        rho = check_positive(inst.rho if rho is None else rho)
        got = inst.constants.require("sigma", "delta")
        self.r, self.m = theoretical_r_m(inst)
        got.update(inst.constants.require("tau", "eps1", "eps2", "l1", "l2"))
        q = self.q = inst.space.q
        self.rho, self.denom = rho, self.r + rho * self.m
        self.tau_term = power(got["tau"], q)
        self._c_rho = inst.space.c_q * power(rho, q)
        self._e1, self._e2 = got["eps1"] * got["l1"], got["eps2"] * got["l2"]
        self._coupling_renormalized = rho * q * (got["sigma"] + got["delta"])
        self.coupling_term = self._coupling_renormalized * self.tau_term

    def error_term(self, n: int | None) -> float:
        k = 1.0 + 1.0 / n if n is not None else 1.0
        return self._c_rho * power(self._e1 * k + self._e2 * k, self.q)

    def root(self, n: int | None, renormalized: bool = False):
        """(radicand, its q-th root or None where it is not >= 0)."""
        radicand = self.tau_term + self.error_term(n) - (
            self._coupling_renormalized if renormalized
            else self.coupling_term)
        return radicand, radicand ** (1.0 / self.q) if radicand >= 0 else None

    def theta(self, n: int | None, renormalized: bool = False):
        """theta_n, the limit theta for n None; None where undefined."""
        root = self.root(n, renormalized)[1]
        return (None if root is None or not self.denom > 0
                else float(root / self.denom))


def theta(inst: InclusionInstance, rho: float | None = None,
          n: int | None = None) -> float:
    """Contraction factor formula with the declared constants as written.

    theta_n when `n` is given, the limit theta otherwise.  Raises
    ValueError where the formula is undefined: a negative radicand (the
    condition is broken) or r + rho*m <= 0.
    """
    rate = _Rate(inst, rho)
    value = rate.theta(n)
    if value is None:
        raise ValueError(
            f"the rate formula needs radicand >= 0 and r + rho*m > 0; at "
            f"rho={rate.rho} the radicand is {rate.root(n)[0]:.6g} and "
            f"r + rho*m = {rate.denom:.6g}")
    return value


def contraction_factor_bound(inst: InclusionInstance,
                             rho: float | None = None,
                             n: int | None = None) -> float | None:
    """theta with sigma, delta renormalized to the H-increment scale.

    Declared displacement-normalized constants are divided by tau^q before
    entering the coupling term, which is the normalization the step-bound
    derivation consumes.  This is the bound observed ratios satisfy.
    Returns None where the renormalized radicand is negative or
    r + rho*m <= 0.
    """
    return _Rate(inst, rho).theta(n, renormalized=True)


@dataclass(frozen=True)
class ConditionReport(JsonRecord):
    """Breakdown of the two-sided rate condition

    0 < (tau^q + c_q*rho^q*(eps1*l1 + eps2*l2)^q
         - rho*q*(sigma+delta)*tau^q)^(1/q) < r + rho*m.
    """

    rho: float
    q: float
    c_q: float
    radicand: float
    root: float | None
    r: float
    m: float
    r_plus_rho_m: float
    theta: float | None
    theta_rate_bound: float | None
    terms: dict
    verdict: str   # satisfied | violated_radicand | violated_lower | violated_upper

    @property
    def satisfied(self) -> bool:
        return self.verdict == "satisfied"


def check_condition_vi(inst: InclusionInstance,
                       rho: float | None = None) -> ConditionReport:
    """Evaluate the rate condition with the declared constants.

    Verdicts: "violated_radicand" (negative radicand), "violated_lower"
    (root not strictly positive), "violated_upper" (root >= r + rho*m),
    else "satisfied".  Missing constants raise MissingConstantsError
    naming them; a rho that is not a finite number > 0, or constants that
    leave the radicand or r + rho*m nan, raise ConfigError.
    """
    rate = _Rate(inst, rho)
    rad, root = rate.root(None)
    denom = rate.denom
    if math.isnan(rad) or math.isnan(denom):
        raise ConfigError(
            f"rate condition undefined at rho={rate.rho}: radicand {rad:.6g}, "
            f"r + rho*m {denom:.6g} (a q-th power overflows or is not real)")
    if root is None:
        verdict = "violated_radicand"
    elif root <= 0.0:
        verdict = "violated_lower"
    elif root >= denom:
        verdict = "violated_upper"
    else:
        verdict = "satisfied"
    terms = {"tau_term": rate.tau_term, "error_term": rate.error_term(None),
             "coupling_term": rate.coupling_term, "radicand": rad}
    return ConditionReport(
        rate.rho, inst.space.q, inst.space.c_q, rad,
        None if root is None else float(root), rate.r, rate.m, float(denom),
        rate.theta(None), rate.theta(None, renormalized=True), terms,
        verdict)


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------

def nadler_select(current, target_set) -> np.ndarray:
    """Nearest point of `target_set` to `current`, ties to the lowest index.

    For current in the previous image set, the selected point moves by at
    most the Hausdorff distance between the consecutive image sets, which
    is within the (1 + 1/(n+1)) selection slack the scheme allows.
    """
    cur = as_vector(current)
    return _nearest(cur, as_rows(target_set, cur.shape[0], "nadler_select"))


def _nearest(cur: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """`nadler_select` on a checked vector and value set."""
    if len(pts) == 1:
        return pts[0]
    return pts[int(np.argmin([np.linalg.norm(p - cur) for p in pts]))]


# ---------------------------------------------------------------------------
# Solve trace
# ---------------------------------------------------------------------------

class IterationRecord(NamedTuple):
    """One step of `solve`: an immutable tuple of these fields."""

    n: int
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    step: float | None
    ratio: float | None
    residual: float
    theta_n: float | None
    error_norm: float


@dataclass
class SolveTrace:
    """Per-iteration records plus convergence summary."""

    records: list = field(default_factory=list)
    converged: bool = False
    rho: float = 0.0
    tol: float = 0.0
    final_residual: float = math.inf
    residual_bound: float = math.inf
    observed_rate: float | None = None
    theta_declared: float | None = None
    theta_rate_bound: float | None = None
    varpi: float | None = None
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def u_final(self) -> np.ndarray:
        return self.records[-1].u

    @property
    def steps(self) -> list:
        return [r.step for r in self.records if r.step is not None]

    @property
    def ratios(self) -> list:
        return [r.ratio for r in self.records if r.ratio is not None]

    def summary_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "rho": self.rho,
            "tol": self.tol,
            "final_residual": self.final_residual,
            "residual_bound": self.residual_bound,
            "observed_rate": self.observed_rate,
            "theta_declared": self.theta_declared,
            "theta_rate_bound": self.theta_rate_bound,
            "varpi": self.varpi,
            "u": self.records[-1].u.tolist() if self.records else None,
            "message": self.message,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        kwargs.setdefault("indent", 2)
        return json.dumps(self.summary_dict(), **kwargs)

    def to_csv(self) -> str:
        """Versioned CSV: schema, n, step, ratio, residual, theta_n, u_*."""
        dim = self.records[0].u.shape[0] if self.records else 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (["schema", "n", "step", "ratio", "residual", "theta_n"]
                  + [f"u_{i}" for i in range(dim)])
        writer.writerow(header)
        for rec in self.records:
            writer.writerow(
                [TRACE_SCHEMA, rec.n,
                 "" if rec.step is None else repr(rec.step),
                 "" if rec.ratio is None else repr(rec.ratio),
                 repr(rec.residual),
                 "" if rec.theta_n is None else repr(rec.theta_n)]
                + [repr(float(c)) for c in rec.u])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    z0 is the starting point of the z recursion; u0 defaults to the
    resolvent of z0.  `errors=None` is the zero error sequence.
    """

    z0: np.ndarray
    rho: float | None = None
    max_iters: int = 5000
    tol: float = 1e-10
    errors: GeometricErrors | None = None
    u0: np.ndarray | None = None

    def __post_init__(self):
        store(self, tol=check_positive(self.tol, "tol"),
              max_iters=check_count(self.max_iters, "max_iters", 1),
              rho=None if self.rho is None else check_positive(self.rho),
              z0=as_vector(self.z0),
              u0=None if self.u0 is None else as_vector(self.u0))


def _norm(x: np.ndarray) -> float:
    """||x|| of a 1-D float array, as `np.linalg.norm` computes it for
    one, without its dispatch."""
    return math.sqrt(x.dot(x))


def _composed_step(inst: InclusionInstance, k, phi, rho: float):
    """The composed step: no map of the instance is called, the residual
    is ||omega - Phi(u)|| and t = z + rho*(omega - Phi(u)).  A given u
    stands for R(z), and z is then K u."""
    (ls, cs), (lt, ct) = (selection_parts(s) for s in (inst.S, inst.T))
    omega = inst.omega

    def step(z, u=None, v=None, w=None):
        if u is None:
            u = k.solve(z - k.offset)
        else:
            z = k.matrix.dot(u) + k.offset
        image = phi.matrix.dot(u) + phi.offset
        v = u if ls is None else ls.dot(u) + cs
        w = u if lt is None else lt.dot(u) + ct
        gap = omega - image
        gap_sq = gap.dot(gap)
        # no map checked its image: one test covers them all.  A nan or
        # inf entry of z, u, v, w or the image (so of the gap) leaves the
        # sum of squares non-finite, so the elementwise test runs only
        # then, or where finite squares overflow
        total = z.dot(z) + u.dot(u) + gap_sq
        if ls is not None:
            total += v.dot(v)
        if lt is not None:
            total += w.dot(w)
        if not math.isfinite(total):
            finite = np.isfinite((z, u, image, v, w)).ravel()
            if not finite[finite.argmin()]:
                raise NonFiniteError("non-finite iterate")
        return u, v, w, math.sqrt(gap_sq), z + rho * gap
    return step


def _general_step(inst: InclusionInstance, resolvent, rho: float):
    """The general step, the maps taken to be deterministic functions: v
    and w are the points of S(u) and T(u) nearest the last ones, or u.  F
    is called once; its image at (v, w) serves the residual, min over m in
    M(f(u), g(u)) of ||omega - F(v, w) - m||, and t = H(u) - rho*F(v, w) +
    rho*omega.  H and M are called only by the resolve, whose images at u
    serve them too; a given u stands for R(z) and takes H at u alone, as
    its residual, nan, goes unused."""
    omega, rho_omega = inst.omega, rho * inst.omega

    def step(z, u=None, v=None, w=None):
        if u is None:
            u, hu, members = resolvent.images(z)
        else:
            hu, members = eval_H_on_point(inst, u), ()
        v = _nearest(u if v is None else v, set_values(inst.S, u))
        w = _nearest(u if w is None else w, set_values(inst.T, u))
        fvw = as_vector(inst.F(v, w), inst.dim, "image of F")
        residual = min((_norm(omega - fvw - m) for m in members),
                       default=math.nan)
        return u, v, w, residual, hu - rho * fvw + rho_omega
    return step


def solve(inst: InclusionInstance, cfg: SolverConfig) -> SolveTrace:
    """Run the iteration until the step norm falls below `tol` and the
    inclusion residual confirms the fixed point (<= 10*tol*(1+||omega||)),
    or `max_iters` is exhausted.

    Raises
    ------
    DimensionMismatchError
        When z0, u0, the error direction or an image of F is not of the
        instance's dimension.
    DivergenceError
        On sustained step growth (>10x over a 20-iteration window), or
        where an iterate or an image of the maps becomes non-finite, at
        the start-up too; the partial trace rides on the exception.
    NonSurjectiveError, ResolventIterationError
        Propagated from the resolvent.
    """
    rho = inst.rho if cfg.rho is None else cfg.rho
    resolvent = Resolvent(inst, ResolventConfig(rho=rho))
    trace = SolveTrace(rho=rho, tol=cfg.tol)
    try:
        rate = _Rate(inst, rho)
    except MissingConstantsError:
        rate = None
    else:
        trace.theta_declared = rate.theta(None)
        trace.theta_rate_bound = rate.theta(None, renormalized=True)
    if cfg.errors is not None:
        trace.varpi = cfg.errors.varpi
    with np.errstate(over="ignore"):    # inf for an omega past 1e154
        res_bound = 10.0 * cfg.tol * (1.0 + float(np.linalg.norm(inst.omega)))
    trace.residual_bound = res_bound

    z = as_vector(cfg.z0, inst.dim, "z0")
    u0 = (None if cfg.u0 is None
          else np.array(as_vector(cfg.u0, inst.dim, "u0")))
    if cfg.errors is not None:
        as_vector(cfg.errors.direction, inst.dim, "error direction")
    prev_step = None
    # the divergence guard compares each step with the one 20 steps back
    window = deque(maxlen=21)

    # a diverging iterate overflows, and the check of the inf it leaves in
    # z, an iterate, an image or the composed step's matrix ends the run; a
    # composed step's matvec or a map's inf - inf makes a NaN of an inf,
    # which the check refuses too
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            phi = step_composite(inst) if resolvent.exact else None
            take_step = (_general_step(inst, resolvent, rho) if phi is None else
                         _composed_step(inst, resolvent.composite, phi, rho))
            u, v, w, _, t = take_step(z, u0)
            for n in range(cfg.max_iters):
                # a zero error still adds 0.0: it turns a -0.0 of z into +0.0
                e_n = cfg.errors.term(n) if cfg.errors is not None else 0.0
                z = t + e_n
                u_next, v, w, residual, t = take_step(z, None, v, w)
                step = _norm(u_next - u)
                ratio = (step / prev_step
                         if prev_step is not None and prev_step > 0 else None)
                trace.records.append(IterationRecord(
                    n, z, u_next, v, w, step, ratio, residual,
                    None if rate is None else rate.theta(n + 1),
                    0.0 if cfg.errors is None else _norm(e_n)))

                window.append(step)
                if (len(window) > 20 and step > 10.0 * window[0]
                        and step > cfg.tol):
                    raise DivergenceError(
                        f"step norm grew more than 10x over 20 iterations "
                        f"({window[0]:.3e} -> {step:.3e})", trace)

                u = u_next
                prev_step = step if step > 0 else prev_step
                if step <= cfg.tol and residual <= res_bound:
                    trace.converged = True
                    trace.message = f"converged after {n + 1} iterations"
                    break
            else:
                trace.message = (f"not converged within {cfg.max_iters} "
                                 f"iterations")
        except NonFiniteError:
            raise DivergenceError("iterate became non-finite", trace) from None

    trace.final_residual = trace.records[-1].residual
    trace.observed_rate = max(trace.ratios[-10:], default=None)
    return trace
