"""Certification of operator-property constants.

Each certificate verifies (or estimates) one defining inequality of the
operator zoo: strong/relaxed accretivity, (relaxed) cocoercivity, Lipschitz
and expansive bounds, the mixed cocoercivity of the four-slot bifunction,
the pair-map accretivity/Lipschitz constants, set-distance Lipschitz
constants, and the surjectivity of H + rho*M.

Two evidence paths:

* exact_affine - matrix analysis (eigenvalues of symmetric parts, singular
  values, generalized eigenvalue pencils).  Can return verdict "pass".
* sampled - the inequality is checked on a deterministic seeded sample.
  A finite sample cannot prove a universally quantified inequality, so
  this path returns at most "estimated" (or "fail" with the violating
  pair as witness).

Inequality checks ignore violations smaller than 1e-9 * (1 + |rhs|).
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .operators import (
    AffineMap,
    IdentitySetMap,
    InclusionInstance,
    SingletonSetMap,
    affine_parts,
    eval_H_on_point,
    h_composite,
    hausdorff_distance,
    is_additive,
    is_difference_coupling,
    m_composite,
    negate_map,
    pair_affine_parts,
    set_values,
)
from .space import duality_map, as_vector

_ABS_TOL = 1e-9


class InsufficientEvidenceError(ValueError):
    """A non-affine map was certified with an empty sample plan."""


def _slack(rhs: float) -> float:
    return _ABS_TOL * (1.0 + abs(rhs))


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample generator: a fixed lattice plus seeded pairs.

    The lattice contributes signed unit vectors, the origin, and scaled
    axis sums; the remainder are seeded standard-normal draws scaled by
    `scale`.  Identical (seed, n_pairs, scale) yield identical samples.
    """

    seed: int = 0
    n_pairs: int = 512
    scale: float = 3.0
    include_lattice: bool = True

    def _lattice(self, dim: int):
        eye = np.eye(dim)
        pts = [np.zeros(dim)]
        for i in range(dim):
            pts.append(eye[i])
            pts.append(-eye[i])
            pts.append(self.scale * eye[i])
        for i in range(min(dim, 4)):
            for j in range(i + 1, min(dim, 4)):
                pts.append(eye[i] + eye[j])
                pts.append(self.scale * (eye[i] - eye[j]))
        return pts

    def pairs(self, dim: int):
        """Yield (x, y) sample pairs."""
        for x, y, _ in self.triples(dim):
            yield x, y

    def triples(self, dim: int):
        """Yield (x, y, u) samples; u varies the fixed slots of H and F."""
        count = 0
        if self.include_lattice:
            lat = self._lattice(dim)
            for i in range(len(lat) - 1):
                yield lat[i], lat[i + 1], lat[(i + 2) % len(lat)]
                count += 1
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_pairs):
            x = self.scale * rng.standard_normal(dim)
            y = self.scale * rng.standard_normal(dim)
            u = self.scale * rng.standard_normal(dim)
            yield x, y, u
            count += 1
        if count == 0:
            raise InsufficientEvidenceError(
                "sample plan produced no samples (empty lattice and n_pairs=0)")


@dataclass(frozen=True)
class Certificate:
    """Outcome of one property check.

    constant
        The certified constant on the exact path, or the best value the
        samples support on the sampled path.
    verdict
        "pass" (exact analysis confirms the claim), "fail" (disproved,
        witness populated), or "estimated" (sampled, no violation found).
    """

    property: str
    constant: float | None
    claimed: float | None
    method: str                     # "exact_affine" | "sampled"
    verdict: str                    # "pass" | "fail" | "estimated"
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "constant": self.constant,
            "claimed": self.claimed,
            "method": self.method,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def _witness_pair(x, y, lhs, rhs) -> dict:
    return {"x": np.asarray(x).tolist(), "y": np.asarray(y).tolist(),
            "lhs": float(lhs), "rhs": float(rhs)}


def _map_dim(m, plan_dim=None):
    if isinstance(m, AffineMap):
        return m.dim
    if plan_dim is None:
        raise ValueError("dim required for a black-box map")
    return plan_dim


# ---------------------------------------------------------------------------
# Accretivity family for single-valued maps
# ---------------------------------------------------------------------------

def _lower_bound_cert(m, claimed, q, plan, dim, prop, sign):
    """Shared engine for strong (sign=+1) / relaxed (sign=-1) accretivity.

    Checks <m(x)-m(y), J_q(x-y)> >= sign * claimed * ||x-y||^q.  The
    reported constant is the tight bound: the infimum of the quotient
    <dm, J_q(dx)> / ||dx||^q (times `sign` for the relaxed form, so that
    the constant is the smallest valid relaxation parameter).
    """
    parts = affine_parts(m)
    if parts is not None:
        # <L d, J_q(d)> / ||d||^q = <L d, d> / ||d||^2 for every q > 1
        # in the inner-product realization.
        lam_min = float(np.linalg.eigvalsh(_sym(parts[0])).min())
        constant = lam_min if sign > 0 else -lam_min
        ok = (lam_min >= sign * claimed - _ABS_TOL)
        witness = None
        if not ok:
            vecs = np.linalg.eigh(_sym(parts[0]))[1]
            d = vecs[:, 0]
            witness = _witness_pair(d, np.zeros_like(d), lam_min, sign * claimed)
        return Certificate(prop, constant, claimed, "exact_affine",
                           "pass" if ok else "fail", witness,
                           {"eig_min_sym": lam_min, "q": q})
    if plan is None:
        raise InsufficientEvidenceError(
            f"{prop}: non-affine map requires a sample plan")
    dim = _map_dim(m, dim)
    best = np.inf
    for x, y in plan.pairs(dim):
        dx = np.asarray(x) - np.asarray(y)
        nx = np.linalg.norm(dx)
        if nx < 1e-12:
            continue
        lhs = float(np.dot(as_vector(m(x)) - as_vector(m(y)),
                           duality_map(dx, q)))
        rhs = sign * claimed * nx ** q
        if lhs < rhs - _slack(rhs):
            return Certificate(prop, lhs / nx ** q * (1 if sign > 0 else -1),
                               claimed, "sampled", "fail",
                               _witness_pair(x, y, lhs, rhs), {"q": q})
        best = min(best, lhs / nx ** q)
    constant = best if sign > 0 else -best
    return Certificate(prop, float(constant), claimed, "sampled", "estimated",
                       None, {"q": q, "seed": plan.seed})


def certify_strong_accretive(m, claimed: float, q: float = 2.0,
                             plan: SamplePlan | None = None,
                             dim: int | None = None,
                             prop: str = "strongly_accretive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= claimed * ||x-y||^q.

    Exact path (affine map): constant is the smallest eigenvalue of the
    symmetric part of the linear matrix.
    """
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _lower_bound_cert(m, claimed, q, plan, dim, prop, +1)


def certify_relaxed_accretive(m, claimed: float, q: float = 2.0,
                              plan: SamplePlan | None = None,
                              dim: int | None = None,
                              prop: str = "relaxed_accretive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||x-y||^q.

    Exact path: constant is minus the most negative eigenvalue of the
    symmetric part (the smallest valid relaxation constant).
    """
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _lower_bound_cert(m, claimed, q, plan, dim, prop, -1)


def _pencil_min(num: np.ndarray, den: np.ndarray):
    """min over d != 0 of (d' num d) / (d' den d); None if den is singular."""
    try:
        vals = scipy.linalg.eigh(num, den, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return None
    return float(vals.min())


def certify_cocoercive(m, claimed: float, q: float = 2.0,
                       plan: SamplePlan | None = None,
                       dim: int | None = None,
                       prop: str = "cocoercive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= claimed * ||m(x)-m(y)||^q."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _cocoercive_cert(m, claimed, q, plan, dim, prop, +1)


def certify_relaxed_cocoercive(m, claimed: float, q: float = 2.0,
                               plan: SamplePlan | None = None,
                               dim: int | None = None,
                               prop: str = "relaxed_cocoercive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||m(x)-m(y)||^q."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _cocoercive_cert(m, claimed, q, plan, dim, prop, -1)


def _cocoercive_cert(m, claimed, q, plan, dim, prop, sign):
    parts = affine_parts(m)
    if parts is not None and q == 2.0:
        lin = parts[0]
        ratio = _pencil_min(_sym(lin), lin.T @ lin)
        if ratio is not None:
            constant = ratio if sign > 0 else -ratio
            ok = ratio >= sign * claimed - _ABS_TOL
            witness = None if ok else {"pencil_min": ratio,
                                       "required": sign * claimed}
            return Certificate(prop, constant, claimed, "exact_affine",
                               "pass" if ok else "fail", witness, {"q": q})
        # singular linear part: fall through to sampling
    if plan is None:
        raise InsufficientEvidenceError(
            f"{prop}: no exact path available and no sample plan")
    dim = _map_dim(m, dim)
    best = np.inf
    for x, y in plan.pairs(dim):
        dm = as_vector(m(x)) - as_vector(m(y))
        nm = np.linalg.norm(dm)
        dx = np.asarray(x) - np.asarray(y)
        if nm < 1e-12 or np.linalg.norm(dx) < 1e-12:
            continue
        lhs = float(np.dot(dm, duality_map(dx, q)))
        rhs = sign * claimed * nm ** q
        if lhs < rhs - _slack(rhs):
            return Certificate(prop, lhs / nm ** q * (1 if sign > 0 else -1),
                               claimed, "sampled", "fail",
                               _witness_pair(x, y, lhs, rhs), {"q": q})
        best = min(best, lhs / nm ** q)
    constant = best if sign > 0 else -best
    return Certificate(prop, float(constant) if np.isfinite(best) else None,
                       claimed, "sampled", "estimated", None,
                       {"q": q, "seed": plan.seed})


# ---------------------------------------------------------------------------
# Norm bounds: Lipschitz and expansive
# ---------------------------------------------------------------------------

def _norm_bound_cert(m, claimed, plan, dim, prop, upper):
    parts = affine_parts(m)
    if parts is not None:
        svals = np.linalg.svd(parts[0], compute_uv=False)
        constant = float(svals.max() if upper else svals.min())
        ok = constant <= claimed + _ABS_TOL if upper else constant >= claimed - _ABS_TOL
        witness = None
        if not ok:
            u_, s_, vt = np.linalg.svd(parts[0])
            d = vt[0] if upper else vt[-1]
            witness = _witness_pair(d, np.zeros_like(d), constant, claimed)
        return Certificate(prop, constant, claimed, "exact_affine",
                           "pass" if ok else "fail", witness,
                           {"singular_values": svals.tolist()})
    if plan is None:
        raise InsufficientEvidenceError(
            f"{prop}: non-affine map requires a sample plan")
    dim = _map_dim(m, dim)
    best = -np.inf if upper else np.inf
    for x, y in plan.pairs(dim):
        dx = np.asarray(x) - np.asarray(y)
        nx = np.linalg.norm(dx)
        if nx < 1e-12:
            continue
        ratio = float(np.linalg.norm(as_vector(m(x)) - as_vector(m(y))) / nx)
        bad = ratio > claimed + _slack(claimed) if upper else ratio < claimed - _slack(claimed)
        if bad:
            return Certificate(prop, ratio, claimed, "sampled", "fail",
                               _witness_pair(x, y, ratio, claimed), {})
        best = max(best, ratio) if upper else min(best, ratio)
    return Certificate(prop, float(best) if np.isfinite(best) else None,
                       claimed, "sampled", "estimated", None,
                       {"seed": plan.seed})


def certify_lipschitz(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None,
                      prop: str = "lipschitz") -> Certificate:
    """Check ||m(x)-m(y)|| <= claimed * ||x-y||; exact = largest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound_cert(m, claimed, plan, dim, prop, upper=True)


def certify_expansive(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None,
                      prop: str = "expansive") -> Certificate:
    """Check ||m(x)-m(y)|| >= claimed * ||x-y||; exact = smallest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound_cert(m, claimed, plan, dim, prop, upper=False)


# ---------------------------------------------------------------------------
# Mixed cocoercivity and mixed Lipschitz of the four-slot bifunction
# ---------------------------------------------------------------------------

def _mixed_pair_exact(inst, slot_maps, mu, gamma, sign_mu, prop):
    """Exact check of <(P+R)d, d> >= sign_mu*mu*||Pd||^2 + gamma*||d||^2."""
    p_parts = affine_parts(slot_maps[0])
    r_parts = affine_parts(slot_maps[1])
    lp, lr = p_parts[0], r_parts[0]
    shifted = _sym(lp + lr) - sign_mu * mu * (lp.T @ lp)
    gamma_hat = float(np.linalg.eigvalsh(shifted).min())
    ok = gamma_hat >= gamma - _ABS_TOL
    witness = None
    if not ok:
        d = np.linalg.eigh(shifted)[1][:, 0]
        witness = _witness_pair(d, np.zeros_like(d), gamma_hat, gamma)
    return Certificate(prop, gamma_hat, gamma, "exact_affine",
                       "pass" if ok else "fail", witness,
                       {"mu": mu, "q": inst.space.q})


def _mixed_pair_sampled(inst, which, mu, gamma, sign_mu, prop, plan):
    q = inst.space.q
    best = np.inf
    for x, y, u in plan.triples(inst.dim):
        dx = np.asarray(x) - np.asarray(y)
        nx = np.linalg.norm(dx)
        if nx < 1e-12:
            continue
        if which == "AC":
            hx = inst.H(inst.A(x), u, inst.C(x), u)
            hy = inst.H(inst.A(y), u, inst.C(y), u)
            dslot = as_vector(inst.A(x)) - as_vector(inst.A(y))
        else:
            hx = inst.H(u, inst.B(x), u, inst.D(x))
            hy = inst.H(u, inst.B(y), u, inst.D(y))
            dslot = as_vector(inst.B(x)) - as_vector(inst.B(y))
        lhs = float(np.dot(as_vector(hx) - as_vector(hy), duality_map(dx, q)))
        rhs = sign_mu * mu * np.linalg.norm(dslot) ** q + gamma * nx ** q
        if lhs < rhs - _slack(rhs):
            return Certificate(prop, None, gamma, "sampled", "fail",
                               _witness_pair(x, y, lhs, rhs),
                               {"mu": mu, "q": q})
        best = min(best, (lhs - sign_mu * mu * np.linalg.norm(dslot) ** q)
                   / nx ** q)
    return Certificate(prop, float(best) if np.isfinite(best) else None,
                       gamma, "sampled", "estimated", None,
                       {"mu": mu, "q": q, "seed": plan.seed})


def certify_symmetric_mixed_cocoercive(inst: InclusionInstance,
                                       plan: SamplePlan | None = None):
    """Certify the two halves of symmetric mixed cocoercivity of H.

    Returns (strong, relaxed):

    * strong: <H((Ax,u),(Cx,u)) - H((Ay,u),(Cy,u)), J_q(x-y)>
              >= mu1*||Ax-Ay||^q + gamma1*||x-y||^q
    * relaxed: the (B, D) version with rhs -mu2*||Bx-By||^q + gamma2*||x-y||^q

    The certified constant in each certificate is the best gamma the
    evidence supports for the claimed mu (reported in details["mu"]).
    """
    c = inst.constants
    got = c.require("mu1", "gamma1", "mu2", "gamma2")
    exact_ok = (is_additive(inst.H) and inst.space.q == 2.0
                and all(affine_parts(m) is not None
                        for m in (inst.A, inst.B, inst.C, inst.D)))
    if exact_ok:
        strong = _mixed_pair_exact(inst, (inst.A, inst.C), got["mu1"],
                                   got["gamma1"], +1,
                                   "strongly_mixed_cocoercive")
        relaxed = _mixed_pair_exact(inst, (inst.B, inst.D), got["mu2"],
                                    got["gamma2"], -1,
                                    "relaxed_mixed_cocoercive")
        return strong, relaxed
    plan = plan or SamplePlan()
    strong = _mixed_pair_sampled(inst, "AC", got["mu1"], got["gamma1"], +1,
                                 "strongly_mixed_cocoercive", plan)
    relaxed = _mixed_pair_sampled(inst, "BD", got["mu2"], got["gamma2"], -1,
                                  "relaxed_mixed_cocoercive", plan)
    return strong, relaxed


def certify_mixed_lipschitz(inst: InclusionInstance,
                            claimed: float | None = None,
                            plan: SamplePlan | None = None) -> Certificate:
    """Check ||H(..x..) - H(..y..)|| <= tau * ||x-y|| for the composed H.

    Exact path: operator 2-norm of the composite linear map.
    """
    if claimed is None:
        claimed = inst.constants.require("tau")["tau"]
    hc = h_composite(inst)
    if hc is not None:
        return _norm_bound_cert(hc, claimed, None, inst.dim, "mixed_lipschitz",
                                upper=True)
    plan = plan or SamplePlan()
    return _norm_bound_cert(lambda x: eval_H_on_point(inst, x), claimed, plan,
                            inst.dim, "mixed_lipschitz", upper=True)


# ---------------------------------------------------------------------------
# Pair-map F properties
# ---------------------------------------------------------------------------

def _set_map_affine(s, dim):
    """Affine single-valued realization of a set-valued map, or None."""
    if isinstance(s, IdentitySetMap):
        return AffineMap.identity(dim)
    if isinstance(s, SingletonSetMap) and affine_parts(s.map) is not None:
        return s.map
    return None


def _f_accretive_cert(inst, arg, claimed, plan, prop):
    """Strong accretivity of F in one argument against the H increment.

    The defining inequality normalizes by ||dH||^q; the worked-instance
    constants are stated against ||u-v||^q.  Both quotients are certified:
    `constant` carries the displacement-normalized value and
    details["constant_vs_H_increment"] the H-increment-normalized one.
    """
    q = inst.space.q
    hc = h_composite(inst)
    fp = pair_affine_parts(inst.F)
    sel = _set_map_affine(inst.S if arg == "first" else inst.T, inst.dim)
    if hc is not None and fp is not None and sel is not None and q == 2.0:
        lf = fp[0] if arg == "first" else fp[1]
        lh, ls = hc.matrix, affine_parts(sel)[0]
        num = _sym(ls.T @ lf.T @ lh)
        vs_disp = float(np.linalg.eigvalsh(num).min())
        vs_h = _pencil_min(num, lh.T @ lh)
        ok = vs_disp >= claimed - _ABS_TOL
        witness = None
        if not ok:
            d = np.linalg.eigh(num)[1][:, 0]
            witness = _witness_pair(d, np.zeros_like(d), vs_disp, claimed)
        return Certificate(prop, vs_disp, claimed, "exact_affine",
                           "pass" if ok else "fail", witness,
                           {"constant_vs_H_increment": vs_h, "q": q})
    plan = plan or SamplePlan()
    best_disp, best_h = np.inf, np.inf
    for u, v, w_aux in plan.triples(inst.dim):
        du = np.asarray(u) - np.asarray(v)
        nu = np.linalg.norm(du)
        if nu < 1e-12:
            continue
        dh = eval_H_on_point(inst, u) - eval_H_on_point(inst, v)
        nh = np.linalg.norm(dh)
        sel_u = set_values(inst.S if arg == "first" else inst.T, u)
        sel_v = set_values(inst.S if arg == "first" else inst.T, v)
        for p1 in sel_u:
            for p2 in sel_v:
                if arg == "first":
                    df = as_vector(inst.F(p1, w_aux)) - as_vector(inst.F(p2, w_aux))
                else:
                    df = as_vector(inst.F(w_aux, p1)) - as_vector(inst.F(w_aux, p2))
                lhs = float(np.dot(df, duality_map(dh, q))) if nh > 0 else 0.0
                rhs = claimed * nu ** q
                if lhs < rhs - _slack(rhs):
                    return Certificate(prop, lhs / nu ** q, claimed, "sampled",
                                       "fail", _witness_pair(u, v, lhs, rhs),
                                       {"q": q})
                best_disp = min(best_disp, lhs / nu ** q)
                if nh > 1e-12:
                    best_h = min(best_h, lhs / nh ** q)
    return Certificate(prop, float(best_disp) if np.isfinite(best_disp) else None,
                       claimed, "sampled", "estimated", None,
                       {"constant_vs_H_increment":
                        float(best_h) if np.isfinite(best_h) else None,
                        "q": q, "seed": plan.seed})


def _f_lipschitz_cert(inst, arg, claimed, plan, prop):
    fp = pair_affine_parts(inst.F)
    if fp is not None:
        lin = fp[0] if arg == "first" else fp[1]
        return _norm_bound_cert(AffineMap.linear(lin), claimed, None,
                                inst.dim, prop, upper=True)
    plan = plan or SamplePlan()
    best = -np.inf
    for x, y, w_aux in plan.triples(inst.dim):
        dx = np.asarray(x) - np.asarray(y)
        nx = np.linalg.norm(dx)
        if nx < 1e-12:
            continue
        if arg == "first":
            df = as_vector(inst.F(x, w_aux)) - as_vector(inst.F(y, w_aux))
        else:
            df = as_vector(inst.F(w_aux, x)) - as_vector(inst.F(w_aux, y))
        ratio = float(np.linalg.norm(df) / nx)
        if ratio > claimed + _slack(claimed):
            return Certificate(prop, ratio, claimed, "sampled", "fail",
                               _witness_pair(x, y, ratio, claimed), {})
        best = max(best, ratio)
    return Certificate(prop, float(best) if np.isfinite(best) else None,
                       claimed, "sampled", "estimated", None,
                       {"seed": plan.seed})


def certify_F_properties(inst: InclusionInstance,
                         plan: SamplePlan | None = None):
    """Certify sigma, delta (strong accretivity of F against the H
    increment, via selections from S and T) and eps1, eps2 (argument-wise
    Lipschitz constants of F).  Returns four certificates in that order.
    """
    got = inst.constants.require("sigma", "delta", "eps1", "eps2")
    return [
        _f_accretive_cert(inst, "first", got["sigma"], plan,
                          "F_strongly_accretive_first"),
        _f_accretive_cert(inst, "second", got["delta"], plan,
                          "F_strongly_accretive_second"),
        _f_lipschitz_cert(inst, "first", got["eps1"], plan,
                          "F_lipschitz_first"),
        _f_lipschitz_cert(inst, "second", got["eps2"], plan,
                          "F_lipschitz_second"),
    ]


# ---------------------------------------------------------------------------
# Set-valued maps
# ---------------------------------------------------------------------------

def certify_d_lipschitz(set_map, claimed: float,
                        plan: SamplePlan | None = None,
                        dim: int | None = None,
                        prop: str = "d_lipschitz") -> Certificate:
    """Check D(G(x), G(y)) <= claimed * ||x-y|| in the Hausdorff metric."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    if isinstance(set_map, IdentitySetMap):
        ok = 1.0 <= claimed + _ABS_TOL
        return Certificate(prop, 1.0, claimed, "exact_affine",
                           "pass" if ok else "fail",
                           None if ok else {"identity_slope": 1.0}, {})
    if isinstance(set_map, SingletonSetMap) and affine_parts(set_map.map) is not None:
        return _norm_bound_cert(set_map.map, claimed, None, dim, prop,
                                upper=True)
    if plan is None:
        raise InsufficientEvidenceError(
            "d_lipschitz: non-affine set map requires a sample plan")
    if dim is None:
        raise ValueError("dim required for a black-box set-valued map")
    best = -np.inf
    for x, y in plan.pairs(dim):
        nx = np.linalg.norm(np.asarray(x) - np.asarray(y))
        if nx < 1e-12:
            continue
        d = hausdorff_distance(set_values(set_map, x), set_values(set_map, y))
        ratio = d / nx
        if ratio > claimed + _slack(claimed):
            return Certificate(prop, ratio, claimed, "sampled", "fail",
                               _witness_pair(x, y, ratio, claimed), {})
        best = max(best, ratio)
    return Certificate(prop, float(best) if np.isfinite(best) else None,
                       claimed, "sampled", "estimated", None,
                       {"seed": plan.seed})


# ---------------------------------------------------------------------------
# M-slot accretivity and the combined class decision
# ---------------------------------------------------------------------------

def certify_m_slot_accretive(inst: InclusionInstance, slot: str,
                             claimed: float | None = None,
                             plan: SamplePlan | None = None) -> Certificate:
    """Accretivity of M through one composed slot.

    slot="f": <u - v, J_q(x-y)> >= alpha*||x-y||^q for u in M(f(x), w),
    v in M(f(y), w).  slot="g": the relaxed version over M(w, g(.)).
    For the difference coupling these reduce to the slot map itself
    (f, resp. -g), which keeps the exact path available.
    """
    q = inst.space.q
    if slot == "f":
        if claimed is None:
            claimed = inst.constants.require("alpha")["alpha"]
        if is_difference_coupling(inst.M):
            return certify_strong_accretive(inst.f, claimed, q, plan,
                                            inst.dim)
        return _m_slot_sampled(inst, "f", claimed, q,
                               plan or SamplePlan(), "strongly_accretive", +1)
    if slot == "g":
        if claimed is None:
            claimed = inst.constants.require("beta")["beta"]
        if is_difference_coupling(inst.M):
            return certify_relaxed_accretive(negate_map(inst.g), claimed, q,
                                             plan, inst.dim)
        return _m_slot_sampled(inst, "g", claimed, q,
                               plan or SamplePlan(), "relaxed_accretive", -1)
    raise ValueError(f"slot must be 'f' or 'g', got {slot!r}")


def _m_slot_sampled(inst, slot, claimed, q, plan, prop, sign):
    best = np.inf
    for x, y, w in plan.triples(inst.dim):
        dx = np.asarray(x) - np.asarray(y)
        nx = np.linalg.norm(dx)
        if nx < 1e-12:
            continue
        if slot == "f":
            us = inst.M(inst.f(x), w)
            vs = inst.M(inst.f(y), w)
        else:
            us = inst.M(w, inst.g(x))
            vs = inst.M(w, inst.g(y))
        jq = duality_map(dx, q)
        for uu in us:
            for vv in vs:
                lhs = float(np.dot(as_vector(uu) - as_vector(vv), jq))
                rhs = sign * claimed * nx ** q
                if lhs < rhs - _slack(rhs):
                    return Certificate(prop, None, claimed, "sampled", "fail",
                                       _witness_pair(x, y, lhs, rhs), {"q": q})
                best = min(best, lhs / nx ** q)
    constant = best if sign > 0 else -best
    return Certificate(prop, float(constant) if np.isfinite(best) else None,
                       claimed, "sampled", "estimated", None,
                       {"q": q, "seed": plan.seed})


def _det_polynomial_roots(lh: np.ndarray, lm: np.ndarray):
    """Positive real roots of rho -> det(lh + rho*lm).

    det(lh + rho*lm) = 0 exactly when rho is a generalized eigenvalue of
    the pencil (lh, -lm), which handles repeated roots and singular lm
    robustly (infinite eigenvalues are discarded).
    """
    dim = lh.shape[0]
    nodes = np.linspace(0.0, max(1.0, dim), dim + 1)
    vals = np.array([np.linalg.det(lh + t * lm) for t in nodes])
    if np.allclose(vals, 0.0, atol=1e-14):
        return ["all rho (determinant identically zero)"]
    if np.linalg.norm(lm) == 0.0:
        return []
    eigs = scipy.linalg.eig(lh, -lm, right=False)
    out = []
    for lam in eigs:
        if not np.isfinite(lam):
            continue
        if abs(lam.imag) <= 1e-8 * (1.0 + abs(lam.real)) and lam.real > 1e-12:
            out.append(float(lam.real))
    return sorted(set(round(r, 10) for r in out))


def certify_generalized_mixed_accretive(inst: InclusionInstance,
                                        rho_grid=None,
                                        plan: SamplePlan | None = None) -> Certificate:
    """Decide the combined accretivity class of M for this instance.

    Part (i): M is symmetric accretive through (f, g) -- the strong and
    relaxed slot certificates plus alpha >= beta.  Part (ii): H + rho*M is
    surjective; for affine instances the composite linear map must be
    invertible on the rho grid, and the determinant (a polynomial in rho)
    must have no positive real root.  The witness on failure carries the
    defect, e.g. a constant affine image and its norm.
    """
    c = inst.constants
    got = c.require("alpha", "beta")
    if rho_grid is None:
        rho_grid = sorted({0.5, 1.0, 2.0, inst.rho})
    cert_f = certify_m_slot_accretive(inst, "f", got["alpha"], plan)
    cert_g = certify_m_slot_accretive(inst, "g", got["beta"], plan)
    symmetric_ok = got["alpha"] >= got["beta"] - _ABS_TOL
    details = {
        "alpha_certificate": cert_f.to_dict(),
        "beta_certificate": cert_g.to_dict(),
        "alpha_ge_beta": bool(symmetric_ok),
        "rho_grid": [float(r) for r in rho_grid],
    }
    hc, mc = h_composite(inst), m_composite(inst)
    if hc is not None and mc is not None:
        lh, lm = hc.matrix, mc.matrix
        grid_info, witness, surj_ok = [], None, True
        min_sv = np.inf
        for rho in rho_grid:
            comp = lh + rho * lm
            off = hc.offset + rho * mc.offset
            nrm = float(np.linalg.norm(comp, 2))
            det = float(np.linalg.det(comp))
            cond = float(np.linalg.cond(comp)) if nrm > 0 else np.inf
            sv_min = float(np.linalg.svd(comp, compute_uv=False).min())
            min_sv = min(min_sv, sv_min)
            singular = (nrm == 0.0 or cond > 1e12
                        or abs(det) <= 1e-12 * nrm ** inst.dim)
            grid_info.append({"rho": float(rho), "det": det,
                              "cond": None if np.isinf(cond) else cond,
                              "singular": bool(singular)})
            if singular and surj_ok:
                surj_ok = False
                if nrm <= 1e-12:
                    witness = {"rho": float(rho),
                               "defect": "zero linear part: image is a single point",
                               "image_point": off.tolist(),
                               "image_norm": float(np.linalg.norm(off))}
                else:
                    null = np.linalg.svd(comp)[2][-1]
                    witness = {"rho": float(rho),
                               "defect": "singular linear part: image is a proper affine subspace",
                               "null_direction": null.tolist(),
                               "image_norm": None}
        pos_roots = _det_polynomial_roots(lh, lm)
        details["grid"] = grid_info
        details["determinant_positive_roots"] = pos_roots
        if pos_roots and surj_ok:
            surj_ok = False
            witness = {"rho": pos_roots[0],
                       "defect": "determinant vanishes at a positive rho",
                       "image_norm": None}
        part_i_ok = (cert_f.verdict != "fail" and cert_g.verdict != "fail"
                     and symmetric_ok)
        if not symmetric_ok and witness is None:
            witness = {"defect": "alpha < beta breaks symmetric accretivity",
                       "alpha": got["alpha"], "beta": got["beta"]}
        if cert_f.verdict == "fail" and witness is None:
            witness = cert_f.witness
        if cert_g.verdict == "fail" and witness is None:
            witness = cert_g.witness
        exact_slots = (cert_f.method == "exact_affine"
                       and cert_g.method == "exact_affine")
        if surj_ok and part_i_ok:
            verdict = "pass" if exact_slots else "estimated"
        else:
            verdict = "fail"
        return Certificate("surjective_H_plus_rhoM",
                           float(min_sv) if np.isfinite(min_sv) else None,
                           None, "exact_affine", verdict, witness, details)
    # black-box composite: probe the range on the sample lattice
    from .resolvent import ResolventConfig, resolve, NonSurjectiveError, ResolventIterationError
    plan = plan or SamplePlan()
    probes, witness, ok = [], None, True
    for rho in rho_grid:
        cfg = ResolventConfig(rho=float(rho), solver="damped_fixed_point")
        for x, _, _ in plan.triples(inst.dim):
            try:
                resolve(inst, cfg, x)
                probes.append({"rho": float(rho), "reached": True})
            except (NonSurjectiveError, ResolventIterationError) as exc:
                ok = False
                witness = {"rho": float(rho), "target": np.asarray(x).tolist(),
                           "defect": f"range probe failed: {exc}"}
                probes.append({"rho": float(rho), "reached": False})
                break
            if len(probes) >= 8:
                break
    details["range_probes"] = probes
    part_i_ok = (cert_f.verdict != "fail" and cert_g.verdict != "fail"
                 and symmetric_ok)
    verdict = "estimated" if (ok and part_i_ok) else "fail"
    if witness is None and not part_i_ok:
        witness = (cert_f.witness or cert_g.witness
                   or {"defect": "alpha < beta"})
    return Certificate("surjective_H_plus_rhoM", None, None, "sampled",
                       verdict, witness, details)


# ---------------------------------------------------------------------------
# Whole-instance battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateBundle:
    """All certificates the instance's declared constants support."""

    certificates: dict
    ordering_flags: tuple
    derived: dict
    seed: int

    def all_ok(self) -> bool:
        return not any(c.verdict == "fail" for c in self.certificates.values())

    def failures(self):
        return {k: c for k, c in self.certificates.items()
                if c.verdict == "fail"}

    def to_dict(self) -> dict:
        return {
            "certificates": {k: c.to_dict()
                             for k, c in sorted(self.certificates.items())},
            "ordering_flags": list(self.ordering_flags),
            "derived": self.derived,
            "seed": self.seed,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)


def certify_instance(inst: InclusionInstance,
                     plan: SamplePlan | None = None,
                     rho_grid=None) -> CertificateBundle:
    """Run every certificate the declared constants make possible.

    The derived block reports r = mu1*alpha1^q - mu2*beta1^q + gamma1 +
    gamma2 and m = alpha - beta, evaluated from the certified constants
    (claimed mu's, certified slopes) when all ingredients are present.
    """
    from .operators import ordering_flags as _flags
    plan = plan or SamplePlan()
    c = inst.constants
    q = inst.space.q
    certs = {}
    if c.alpha is not None:
        certs["strongly_accretive"] = certify_m_slot_accretive(inst, "f",
                                                               c.alpha, plan)
    if c.beta is not None:
        certs["relaxed_accretive"] = certify_m_slot_accretive(inst, "g",
                                                              c.beta, plan)
    if None not in (c.mu1, c.gamma1, c.mu2, c.gamma2):
        strong, relaxed = certify_symmetric_mixed_cocoercive(inst, plan)
        certs["strongly_mixed_cocoercive"] = strong
        certs["relaxed_mixed_cocoercive"] = relaxed
    if c.tau is not None:
        certs["mixed_lipschitz"] = certify_mixed_lipschitz(inst, c.tau, plan)
    if c.alpha1 is not None:
        certs["expansive"] = certify_expansive(inst.A, c.alpha1, plan,
                                               inst.dim)
    if c.beta1 is not None:
        certs["lipschitz"] = certify_lipschitz(inst.B, c.beta1, plan,
                                               inst.dim)
    if None not in (c.sigma, c.delta, c.eps1, c.eps2):
        fs = certify_F_properties(inst, plan)
        certs["F_strongly_accretive_first"] = fs[0]
        certs["F_strongly_accretive_second"] = fs[1]
        certs["F_lipschitz_first"] = fs[2]
        certs["F_lipschitz_second"] = fs[3]
    if c.l1 is not None:
        certs["d_lipschitz_S"] = certify_d_lipschitz(inst.S, c.l1, plan,
                                                     inst.dim)
    if c.l2 is not None:
        certs["d_lipschitz_T"] = certify_d_lipschitz(inst.T, c.l2, plan,
                                                     inst.dim)
    if c.alpha is not None and c.beta is not None:
        certs["surjective_H_plus_rhoM"] = certify_generalized_mixed_accretive(
            inst, rho_grid, plan)
    derived = {}
    needed = ("mu1", "mu2", "gamma1", "gamma2", "alpha", "beta")
    if all(getattr(c, n) is not None for n in needed):
        alpha1 = certs["expansive"].constant if "expansive" in certs else c.alpha1
        beta1 = certs["lipschitz"].constant if "lipschitz" in certs else c.beta1
        gamma1 = certs.get("strongly_mixed_cocoercive")
        gamma2 = certs.get("relaxed_mixed_cocoercive")
        g1 = gamma1.constant if gamma1 is not None else c.gamma1
        g2 = gamma2.constant if gamma2 is not None else c.gamma2
        alpha = certs.get("strongly_accretive")
        beta = certs.get("relaxed_accretive")
        a = alpha.constant if alpha is not None and alpha.constant is not None else c.alpha
        b = beta.constant if beta is not None and beta.constant is not None else c.beta
        if alpha1 is not None and beta1 is not None:
            derived["r"] = float(c.mu1 * alpha1 ** q - c.mu2 * beta1 ** q
                                 + g1 + g2)
            derived["m"] = float(a - b)
    return CertificateBundle(certificates=certs,
                             ordering_flags=tuple(_flags(c)),
                             derived=derived, seed=plan.seed)
