"""The proximal-point iteration for the inclusion problem.

One step of the scheme, from the current z:

    u_n = R(z_n)                      (resolvent of H + rho*M)
    v_n = nearest point of S(u_n) to v_(n-1)
    w_n = nearest point of T(u_n) to w_(n-1)
    z_(n+1) = H((Au_n, Bu_n), (Cu_n, Du_n)) - rho*F(v_n, w_n)
              + rho*omega + e_n

with an error term e_n -> 0 whose increments are geometrically summable.
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
from dataclasses import asdict, dataclass, field

import numpy as np

from .operators import (
    InclusionInstance,
    _write_atomic,
    eval_H_on_point,
    inclusion_residual,
    set_values,
)
from .resolvent import Resolvent, ResolventConfig, theoretical_r_m
from .space import as_vector

TRACE_SCHEMA = "vincl.trace.v1"
_INNER_TOL = 1e-13      # damped-path tolerance of the resolvent `solve` builds


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
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")
        object.__setattr__(self, "direction", as_vector(self.direction))

    @property
    def varpi(self) -> float:
        return 0.5 * (1.0 + self.factor)

    def term(self, n: int) -> np.ndarray:
        return self.c0 * self.factor ** n * self.direction


# ---------------------------------------------------------------------------
# theta and the two-sided rate condition
# ---------------------------------------------------------------------------

def _rate(inst: InclusionInstance, rho: float | None, n: int | None,
          renormalized: bool):
    """The rate formula's terms, radicand and q-th root (None when the
    radicand is negative), with rho, r and m.

    `renormalized` divides sigma, delta by tau^q, the H-increment
    normalization; (sigma/tau^q + delta/tau^q) * tau^q = sigma + delta, so
    the tau^q of the coupling term cancels.
    """
    rho = inst.rho if rho is None else rho
    got = inst.constants.require("sigma", "delta")
    r, m = theoretical_r_m(inst)
    got.update(inst.constants.require("tau", "eps1", "eps2", "l1", "l2"))
    q, c_q = inst.space.q, inst.space.c_q
    k = 1.0 + 1.0 / n if n is not None else 1.0
    tau_term = got["tau"] ** q
    err_term = c_q * rho ** q * (got["eps1"] * got["l1"] * k
                                 + got["eps2"] * got["l2"] * k) ** q
    sigma_delta = got["sigma"] + got["delta"]
    coupling_term = rho * q * sigma_delta * tau_term
    terms = {"tau_term": tau_term, "error_term": err_term,
             "coupling_term": coupling_term,
             "radicand": tau_term + err_term - coupling_term}
    radicand = terms["radicand"]
    if renormalized:
        radicand = tau_term + err_term - rho * q * sigma_delta
    root = radicand ** (1.0 / q) if radicand >= 0 else None
    return rho, terms, radicand, root, r, m


def theta(inst: InclusionInstance, rho: float | None = None,
          n: int | None = None) -> float:
    """Contraction factor formula with the declared constants as written.

    theta_n when `n` is given, the limit theta otherwise.  Raises
    ValueError when the radicand is negative (the condition is broken).
    """
    rho, _, radicand, root, r, m = _rate(inst, rho, n, renormalized=False)
    if root is None:
        raise ValueError(f"negative radicand {radicand:.6g}: the "
                         "rate formula is undefined at this rho")
    return float(root / (r + rho * m))


def contraction_factor_bound(inst: InclusionInstance,
                             rho: float | None = None,
                             n: int | None = None) -> float | None:
    """theta with sigma, delta renormalized to the H-increment scale.

    Declared displacement-normalized constants are divided by tau^q before
    entering the coupling term, which is the normalization the step-bound
    derivation consumes.  This is the bound observed ratios satisfy.
    Returns None when the renormalized radicand is negative.
    """
    rho, _, _, root, r, m = _rate(inst, rho, n, renormalized=True)
    return None if root is None else float(root / (r + rho * m))


@dataclass(frozen=True)
class ConditionReport:
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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def check_condition_vi(inst: InclusionInstance,
                       rho: float | None = None) -> ConditionReport:
    """Evaluate the rate condition with the declared constants.

    Verdicts: "violated_radicand" (negative radicand), "violated_lower"
    (root not strictly positive), "violated_upper" (root >= r + rho*m),
    else "satisfied".  Missing constants raise MissingConstantsError
    naming them.
    """
    rho, terms, rad, root, r, m = _rate(inst, rho, None, renormalized=False)
    denom = r + rho * m
    if root is None:
        verdict = "violated_radicand"
    elif root <= 0.0:
        verdict = "violated_lower"
    elif root >= denom:
        verdict = "violated_upper"
    else:
        verdict = "satisfied"
    return ConditionReport(
        rho, inst.space.q, inst.space.c_q, rad,
        None if root is None else float(root), r, m, float(denom),
        None if root is None else float(root / denom),
        contraction_factor_bound(inst, rho), terms, verdict)


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
    pts = [as_vector(p) for p in target_set]
    if not pts:
        from .operators import EmptySetError
        raise EmptySetError("nadler_select: empty target set")
    dists = [float(np.linalg.norm(p - cur)) for p in pts]
    return pts[int(np.argmin(dists))]


# ---------------------------------------------------------------------------
# Solve trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
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

    def to_csv(self, path: str | None = None) -> str:
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
        text = buf.getvalue()
        if path is not None:
            _write_atomic(path, text)
        return text


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
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        object.__setattr__(self, "z0", as_vector(self.z0))
        if self.u0 is not None:
            object.__setattr__(self, "u0", as_vector(self.u0))


def _or_none(fn, *args):
    """fn(*args), or None on ValueError (missing constants, negative
    radicand)."""
    try:
        return fn(*args)
    except ValueError:
        return None


def solve(inst: InclusionInstance, cfg: SolverConfig) -> SolveTrace:
    """Run the iteration until the step norm falls below `tol` and the
    inclusion residual confirms the fixed point (<= 10*tol*(1+||omega||)),
    or `max_iters` is exhausted.

    Raises
    ------
    DivergenceError
        On sustained step growth (>10x over a 20-iteration window); the
        partial trace rides on the exception.
    NonSurjectiveError, ResolventIterationError
        Propagated from the resolvent.
    """
    rho = inst.rho if cfg.rho is None else cfg.rho
    resolvent = Resolvent(inst, ResolventConfig(rho=rho,
                                                inner_tol=_INNER_TOL))
    trace = SolveTrace(rho=rho, tol=cfg.tol)
    trace.theta_declared = _or_none(theta, inst, rho, None)
    trace.theta_rate_bound = _or_none(contraction_factor_bound, inst, rho)
    if cfg.errors is not None:
        trace.varpi = cfg.errors.varpi
    res_bound = 10.0 * cfg.tol * (1.0 + float(np.linalg.norm(inst.omega)))
    trace.residual_bound = res_bound

    z = np.array(cfg.z0, dtype=float)
    u = resolvent(z) if cfg.u0 is None else np.array(cfg.u0)
    v = nadler_select(u, set_values(inst.S, u))
    w = nadler_select(u, set_values(inst.T, u))
    prev_step = None
    # the divergence guard compares each step with the one 20 steps back
    window = deque(maxlen=21)

    for n in range(cfg.max_iters):
        e_n = cfg.errors.term(n) if cfg.errors is not None else np.zeros(inst.dim)
        z_next = (eval_H_on_point(inst, u) - rho * as_vector(inst.F(v, w))
                  + rho * inst.omega + e_n)
        u_next = resolvent(z_next)
        v_next = nadler_select(v, set_values(inst.S, u_next))
        w_next = nadler_select(w, set_values(inst.T, u_next))
        step = float(np.linalg.norm(u_next - u))
        ratio = (step / prev_step) if (prev_step is not None and prev_step > 0) else None
        res = inclusion_residual(inst, u_next, v_next, w_next)
        trace.records.append(IterationRecord(
            n=n, z=z_next, u=u_next, v=v_next, w=w_next, step=step,
            ratio=ratio, residual=res.value,
            theta_n=_or_none(theta, inst, rho, n + 1),
            error_norm=float(np.linalg.norm(e_n))))

        if not np.all(np.isfinite(u_next)):
            raise DivergenceError("iterate became non-finite", trace)
        window.append(step)
        if len(window) > 20 and step > 10.0 * window[0] and step > cfg.tol:
            raise DivergenceError(
                f"step norm grew more than 10x over 20 iterations "
                f"({window[0]:.3e} -> {step:.3e})", trace)

        z, u, v, w = z_next, u_next, v_next, w_next
        prev_step = step if step > 0 else prev_step
        if step <= cfg.tol and res.value <= res_bound:
            trace.converged = True
            trace.final_residual = res.value
            trace.message = f"converged after {n + 1} iterations"
            break
    else:
        trace.final_residual = trace.records[-1].residual if trace.records else math.inf
        trace.message = f"not converged within {cfg.max_iters} iterations"

    tail = trace.ratios[-10:]
    if tail:
        trace.observed_rate = float(max(tail))
    return trace
