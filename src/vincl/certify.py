"""Certification of operator-property constants.

Each certificate verifies (or estimates) one defining inequality of the
operator zoo: strong/relaxed accretivity, (relaxed) cocoercivity, Lipschitz
and expansive bounds, the mixed cocoercivity of the four-slot bifunction,
the pair-map accretivity/Lipschitz constants, set-distance Lipschitz
constants, and the surjectivity of H + rho*M.

Two evidence paths:

* exact_affine - matrix analysis (eigenvalues of symmetric parts, singular
  values, generalized eigenvalue pencils).  Can return verdict "pass".
* sampled - the inequality is checked on a deterministic seeded sample,
  the rows of `SamplePlan.arrays`.  Each certificate evaluates the maps it
  needs once per sample point and forms one array each of lhs, rhs and
  quotient, one entry per candidate: a sample row, or a (row, u, v) choice
  of set values.  One engine, `_sampled_cert`, turns these into the
  certificate.  A finite sample cannot prove a universally quantified
  inequality, so this path returns at most "estimated" (or "fail" with the
  first violating pair in plan order as witness).

Inequality checks ignore violations smaller than 1e-9 * (1 + |rhs|).
"""

import functools
import json
from dataclasses import asdict, dataclass, field

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
from .resolvent import (
    NonSurjectiveError,
    ResolventConfig,
    ResolventIterationError,
    _det,
    _invertible,
    resolve,
)

_ABS_TOL = 1e-9
_DEGENERATE = 1e-12     # sample pairs closer than this carry no evidence
_RANGE_PROBES = 8       # black-box range probes per rho


class InsufficientEvidenceError(ValueError):
    """A non-affine map was certified with an empty sample plan."""


def _slack(rhs):
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

    def arrays(self, dim: int):
        """(X, Y, U), each of shape (n, dim): row i is the i-th sample.

        Lattice rows come first (consecutive lattice points, u two steps
        on, wrapping), then `n_pairs` seeded rows; u varies the fixed
        slots of H and F.  Raises InsufficientEvidenceError when the plan
        has no samples.
        """
        blocks = []
        if self.include_lattice:
            lat = np.array(self._lattice(dim))
            blocks.append(np.stack(
                [lat[:-1], lat[1:], np.roll(lat, -2, axis=0)[:-1]], axis=1))
        rng = np.random.default_rng(self.seed)
        blocks.append(self.scale * rng.standard_normal((self.n_pairs, 3, dim)))
        xyu = np.concatenate(blocks)
        if not len(xyu):
            raise InsufficientEvidenceError(
                "sample plan produced no samples (empty lattice and n_pairs=0)")
        return xyu[:, 0], xyu[:, 1], xyu[:, 2]

    def pairs(self, dim: int):
        """Iterate over the (x, y) rows of `arrays`."""
        x, y, _ = self.arrays(dim)
        return zip(x, y)

    def triples(self, dim: int):
        """Iterate over the (x, y, u) rows of `arrays`."""
        return zip(*self.arrays(dim))


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
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def _witness_pair(x, y, lhs, rhs) -> dict:
    return {"x": np.asarray(x).tolist(), "y": np.asarray(y).tolist(),
            "lhs": float(lhs), "rhs": float(rhs)}


def _verdict(witness) -> str:
    return "pass" if witness is None else "fail"


def _min_eig(sym: np.ndarray, required: float):
    """Smallest eigenvalue of `sym`, and a witness when it is below
    `required`: its eigenvector paired with the origin."""
    lam = float(np.linalg.eigvalsh(sym).min())
    if lam >= required - _ABS_TOL:
        return lam, None
    d = np.linalg.eigh(sym)[1][:, 0]
    return lam, _witness_pair(d, np.zeros_like(d), lam, required)


# ---------------------------------------------------------------------------
# The sampled-inequality engine
# ---------------------------------------------------------------------------

def _sampled_cert(prop, claimed, plan, x, y, lhs, rhs, quotient, keep,
                  upper=False, sign=1.0, details=None) -> Certificate:
    """Decide lhs >= rhs (lhs <= rhs when `upper`) on every candidate.

    Entry k of the 1-D arrays is one candidate, in plan order, with sample
    pair x[k], y[k]; candidates outside the mask `keep` are skipped.  The
    first violation (beyond `_slack(rhs)`) is the witness and its quotient
    the constant; otherwise the constant is the smallest (largest when
    `upper`) kept quotient, or None.  Constants are reported times `sign`.
    """
    rhs = np.broadcast_to(rhs, lhs.shape)
    slack = _slack(rhs)
    bad = keep & ((lhs > rhs + slack) if upper else (lhs < rhs - slack))
    details = dict(details or {})
    if bad.any():
        k = int(np.argmax(bad))
        return Certificate(prop, sign * float(quotient[k]), claimed, "sampled",
                           "fail", _witness_pair(x[k], y[k], lhs[k], rhs[k]),
                           details)
    kept = quotient[keep]
    constant = None
    if kept.size:
        constant = sign * float(kept.max() if upper else kept.min())
    details["seed"] = plan.seed
    return Certificate(prop, constant, claimed, "sampled", "estimated", None,
                       details)


def _stack(vectors, dim: int) -> np.ndarray:
    """The finite vectors `vectors` as the rows of one (k, dim) array."""
    out = np.array(list(vectors), dtype=float)
    if not len(out):
        return np.empty((0, dim))
    if out.ndim != 2 or out.shape[1] == 0 or not np.isfinite(out).all():
        raise ValueError("map values must be finite 1-D vectors of one "
                         f"length (stacked shape {out.shape})")
    return out


def _set_differences(us, vs):
    """Every a - b with a in us[i], b in vs[i] ((k_i, dim) arrays), in
    (i, a, b) order, and the row index i of each."""
    diffs = [(a[:, None] - b[None]).reshape(-1, a.shape[1])
             for a, b in zip(us, vs)]
    rows = np.repeat(np.arange(len(diffs)), [len(d) for d in diffs])
    return np.concatenate(diffs), rows


def _norms(d: np.ndarray) -> np.ndarray:
    return np.linalg.norm(d, axis=1)


def _dual_dots(a: np.ndarray, d: np.ndarray, nd: np.ndarray, q: float):
    """<a_k, J_q(d_k)> for each row k, with J_q(d) = ||d||^(q-2) d."""
    return np.einsum("ij,ij->i", a, d) * np.where(nd > 0, nd, 1.0) ** (q - 2.0)


def _ratio(num, den, keep) -> np.ndarray:
    """num / den where `keep`, 0 elsewhere."""
    return np.divide(num, den, out=np.zeros(len(num)), where=keep)


def _plan_arrays(plan, dim, prop):
    """`plan.arrays(dim)` for a map with no exact path."""
    if plan is None:
        raise InsufficientEvidenceError(
            f"{prop}: no exact path available and no sample plan")
    if dim is None:
        raise ValueError("dim required for a black-box map")
    return plan.arrays(dim)


def _map_samples(m, plan, dim, prop):
    """Sample rows X, Y and the increments m(X) - m(Y) of a map."""
    dim = m.dim if isinstance(m, AffineMap) else dim
    x, y, _ = _plan_arrays(plan, dim, prop)
    return x, y, _stack(map(m, x), dim) - _stack(map(m, y), dim)


def _accretive_form(prop, claimed, plan, x, y, dm, q, sign=1, shift=0.0,
                    dual=None, scale=None, details=None):
    """<dm, J_q(d)> >= shift + sign*claimed*s^q, where d is `dual` (x - y
    by default) and s is `scale` (||x - y|| by default).  The quotient is
    (lhs - shift) / s^q, reported times `sign`; candidates with x = y or
    s = 0 are skipped."""
    dx = x - y
    nx = _norms(dx)
    d = dx if dual is None else dual
    s = nx if scale is None else scale
    keep = (nx >= _DEGENERATE) & (s >= _DEGENERATE)
    lhs = _dual_dots(dm, d, _norms(d), q)
    sq = s ** q
    return _sampled_cert(prop, claimed, plan, x, y, lhs,
                         shift + sign * claimed * sq,
                         _ratio(lhs - shift, sq, keep), keep, sign=sign,
                         details=details or {"q": q})


def _ratio_form(prop, claimed, plan, x, y, num, upper):
    """num / ||x-y|| <= claimed (>= unless `upper`), num a distance of
    images; the quotient is the lhs itself."""
    nx = _norms(x - y)
    keep = nx >= _DEGENERATE
    ratio = _ratio(num, nx, keep)
    return _sampled_cert(prop, claimed, plan, x, y, ratio, claimed, ratio,
                         keep, upper=upper)


# ---------------------------------------------------------------------------
# Accretivity family for single-valued maps
# ---------------------------------------------------------------------------

def _accretive(m, claimed, q, plan, dim, prop, sign):
    """Strong (sign=+1) / relaxed (sign=-1) accretivity.

    Checks <m(x)-m(y), J_q(x-y)> >= sign * claimed * ||x-y||^q.  The
    reported constant is the tight bound: the infimum of the quotient
    <dm, J_q(dx)> / ||dx||^q (times `sign` for the relaxed form, so that
    the constant is the smallest valid relaxation parameter).
    """
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    parts = affine_parts(m)
    if parts is not None:
        # <L d, J_q(d)> / ||d||^q = <L d, d> / ||d||^2 for every q > 1
        # in the inner-product realization.
        lam_min, witness = _min_eig(_sym(parts[0]), sign * claimed)
        return Certificate(prop, sign * lam_min, claimed, "exact_affine",
                           _verdict(witness), witness,
                           {"eig_min_sym": lam_min, "q": q})
    x, y, dm = _map_samples(m, plan, dim, prop)
    return _accretive_form(prop, claimed, plan, x, y, dm, q, sign)


def certify_strong_accretive(m, claimed: float, q: float = 2.0,
                             plan: SamplePlan | None = None,
                             dim: int | None = None,
                             prop: str = "strongly_accretive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= claimed * ||x-y||^q.

    Exact path (affine map): constant is the smallest eigenvalue of the
    symmetric part of the linear matrix.
    """
    return _accretive(m, claimed, q, plan, dim, prop, +1)


def certify_relaxed_accretive(m, claimed: float, q: float = 2.0,
                              plan: SamplePlan | None = None,
                              dim: int | None = None,
                              prop: str = "relaxed_accretive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||x-y||^q.

    Exact path: constant is minus the most negative eigenvalue of the
    symmetric part (the smallest valid relaxation constant).
    """
    return _accretive(m, claimed, q, plan, dim, prop, -1)


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
    return _cocoercive(m, claimed, q, plan, dim, prop, +1)


def certify_relaxed_cocoercive(m, claimed: float, q: float = 2.0,
                               plan: SamplePlan | None = None,
                               dim: int | None = None,
                               prop: str = "relaxed_cocoercive") -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||m(x)-m(y)||^q."""
    return _cocoercive(m, claimed, q, plan, dim, prop, -1)


def _cocoercive(m, claimed, q, plan, dim, prop, sign):
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    parts = affine_parts(m)
    if parts is not None and q == 2.0:
        lin = parts[0]
        ratio = _pencil_min(_sym(lin), lin.T @ lin)
        if ratio is not None:
            witness = (None if ratio >= sign * claimed - _ABS_TOL
                       else {"pencil_min": ratio, "required": sign * claimed})
            return Certificate(prop, sign * ratio, claimed, "exact_affine",
                               _verdict(witness), witness, {"q": q})
        # singular linear part: fall through to sampling
    x, y, dm = _map_samples(m, plan, dim, prop)
    return _accretive_form(prop, claimed, plan, x, y, dm, q, sign,
                           scale=_norms(dm))


# ---------------------------------------------------------------------------
# Norm bounds: Lipschitz and expansive
# ---------------------------------------------------------------------------

def _norm_bound(m, claimed, plan, dim, prop, upper):
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
    x, y, dm = _map_samples(m, plan, dim, prop)
    return _ratio_form(prop, claimed, plan, x, y, _norms(dm), upper)


def certify_lipschitz(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None,
                      prop: str = "lipschitz") -> Certificate:
    """Check ||m(x)-m(y)|| <= claimed * ||x-y||; exact = largest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound(m, claimed, plan, dim, prop, upper=True)


def certify_expansive(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None,
                      prop: str = "expansive") -> Certificate:
    """Check ||m(x)-m(y)|| >= claimed * ||x-y||; exact = smallest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound(m, claimed, plan, dim, prop, upper=False)


# ---------------------------------------------------------------------------
# Mixed cocoercivity and mixed Lipschitz of the four-slot bifunction
# ---------------------------------------------------------------------------

def certify_symmetric_mixed_cocoercive(inst: InclusionInstance,
                                       plan: SamplePlan | None = None):
    """Certify the two halves of symmetric mixed cocoercivity of H.

    Returns (strong, relaxed):

    * strong: <H((Ax,u),(Cx,u)) - H((Ay,u),(Cy,u)), J_q(x-y)>
              >= mu1*||Ax-Ay||^q + gamma1*||x-y||^q
    * relaxed: the (B, D) version with rhs -mu2*||Bx-By||^q + gamma2*||x-y||^q

    The certified constant in each certificate is the best gamma the
    evidence supports for the claimed mu (reported in details["mu"]).
    Exact path: the smallest eigenvalue of sym(P + R) -/+ mu*P'P for the
    slot pair (P, R).
    """
    got = inst.constants.require("mu1", "gamma1", "mu2", "gamma2")
    q, dim = inst.space.q, inst.dim
    halves = (("strongly_mixed_cocoercive", inst.A, inst.C, got["mu1"],
               got["gamma1"], +1, lambda p, r, u: inst.H(p, u, r, u)),
              ("relaxed_mixed_cocoercive", inst.B, inst.D, got["mu2"],
               got["gamma2"], -1, lambda p, r, u: inst.H(u, p, u, r)))
    exact = (is_additive(inst.H) and q == 2.0
             and all(affine_parts(m) is not None
                     for m in (inst.A, inst.B, inst.C, inst.D)))
    if not exact:
        plan = plan or SamplePlan()
        x, y, u = plan.arrays(dim)
    certs = []
    for prop, p, r, mu, gamma, sign_mu, h in halves:
        if exact:
            lp = p.matrix
            gamma_hat, witness = _min_eig(
                _sym(lp + r.matrix) - sign_mu * mu * (lp.T @ lp), gamma)
            certs.append(Certificate(prop, gamma_hat, gamma, "exact_affine",
                                     _verdict(witness), witness,
                                     {"mu": mu, "q": q}))
            continue
        px, py = _stack(map(p, x), dim), _stack(map(p, y), dim)
        hx = _stack(map(h, px, _stack(map(r, x), dim), u), dim)
        hy = _stack(map(h, py, _stack(map(r, y), dim), u), dim)
        certs.append(_accretive_form(
            prop, gamma, plan, x, y, hx - hy, q, +1,
            shift=sign_mu * mu * _norms(px - py) ** q,
            details={"mu": mu, "q": q}))
    return tuple(certs)


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
        return _norm_bound(hc, claimed, None, inst.dim, "mixed_lipschitz",
                           upper=True)
    return _norm_bound(functools.partial(eval_H_on_point, inst), claimed,
                       plan or SamplePlan(), inst.dim, "mixed_lipschitz",
                       upper=True)


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


def certify_F_properties(inst: InclusionInstance,
                         plan: SamplePlan | None = None):
    """Certify sigma, delta (strong accretivity of F against the H
    increment, via selections from S and T) and eps1, eps2 (argument-wise
    Lipschitz constants of F).  Returns four certificates in that order.

    The accretivity inequality normalizes by ||dH||^q; the worked-instance
    constants are stated against ||u-v||^q.  Both quotients are certified:
    `constant` carries the displacement-normalized value and
    details["constant_vs_H_increment"] the H-increment-normalized one.
    The sampled path evaluates H once per sample point for both arguments.
    """
    got = inst.constants.require("sigma", "delta", "eps1", "eps2")
    q, dim = inst.space.q, inst.dim
    hc, fp = h_composite(inst), pair_affine_parts(inst.F)
    plan = plan or SamplePlan()
    samples = functools.cache(lambda: plan.arrays(dim))

    @functools.cache
    def h_increments():
        h = functools.partial(eval_H_on_point, inst)
        x, y, _ = samples()
        return _stack(map(h, x), dim) - _stack(map(h, y), dim)

    args = (("first", inst.S, got["sigma"], got["eps1"],
             lambda p, w: inst.F(p, w)),
            ("second", inst.T, got["delta"], got["eps2"],
             lambda p, w: inst.F(w, p)))
    accretive, lipschitz = [], []
    for k, (arg, set_map, claimed, eps, f) in enumerate(args):
        prop = f"F_strongly_accretive_{arg}"
        sel = _set_map_affine(set_map, dim)
        if hc is not None and fp is not None and sel is not None and q == 2.0:
            lh = hc.matrix
            num = _sym(affine_parts(sel)[0].T @ fp[k].T @ lh)
            vs_disp, witness = _min_eig(num, claimed)
            accretive.append(Certificate(
                prop, vs_disp, claimed, "exact_affine", _verdict(witness),
                witness, {"constant_vs_H_increment": _pencil_min(num, lh.T @ lh),
                          "q": q}))
        else:
            x, y, w = samples()
            df, rows = _set_differences(*(
                [_stack((f(p, wi) for p in set_values(set_map, zi)), dim)
                 for zi, wi in zip(z, w)] for z in (x, y)))
            x, y, dh = x[rows], y[rows], h_increments()[rows]
            cert = _accretive_form(prop, claimed, plan, x, y, df, q, dual=dh)
            if cert.verdict != "fail":
                nh = _norms(dh)
                vs_h = (_norms(x - y) >= _DEGENERATE) & (nh > _DEGENERATE)
                cert.details["constant_vs_H_increment"] = (float(_ratio(
                    _dual_dots(df, dh, nh, q), nh ** q, vs_h)[vs_h].min())
                    if vs_h.any() else None)
            accretive.append(cert)
        prop = f"F_lipschitz_{arg}"
        if fp is not None:
            lipschitz.append(_norm_bound(AffineMap.linear(fp[k]), eps, None,
                                         dim, prop, upper=True))
        else:
            x, y, w = samples()
            df = _stack(map(f, x, w), dim) - _stack(map(f, y, w), dim)
            lipschitz.append(_ratio_form(prop, eps, plan, x, y, _norms(df),
                                         upper=True))
    return accretive + lipschitz


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
        return _norm_bound(set_map.map, claimed, None, dim, prop, upper=True)
    x, y, _ = _plan_arrays(plan, dim, prop)
    dist = np.array([hausdorff_distance(set_values(set_map, xi),
                                        set_values(set_map, yi))
                     for xi, yi in zip(x, y)])
    return _ratio_form(prop, claimed, plan, x, y, dist, upper=True)


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
    if slot not in ("f", "g"):
        raise ValueError(f"slot must be 'f' or 'g', got {slot!r}")
    q, dim = inst.space.q, inst.dim
    name = "alpha" if slot == "f" else "beta"
    if claimed is None:
        claimed = inst.constants.require(name)[name]
    if is_difference_coupling(inst.M):
        if slot == "f":
            return certify_strong_accretive(inst.f, claimed, q, plan, dim)
        return certify_relaxed_accretive(negate_map(inst.g), claimed, q,
                                         plan, dim)
    plan = plan or SamplePlan()
    x, y, w = plan.arrays(dim)
    slot_map = inst.f if slot == "f" else inst.g

    def values(z):
        """The value sets M(slot_map(z), w) (M(w, slot_map(z)) for g)."""
        s = _stack(map(slot_map, z), dim)
        return [_stack(inst.M(si, wi) if slot == "f" else inst.M(wi, si), dim)
                for si, wi in zip(s, w)]

    du, rows = _set_differences(values(x), values(y))
    prop, sign = (("strongly_accretive", +1) if slot == "f"
                  else ("relaxed_accretive", -1))
    return _accretive_form(prop, claimed, plan, x[rows], y[rows], du, q, sign)


def _det_polynomial_roots(lh: np.ndarray, lm: np.ndarray, nonzero: bool):
    """Positive real roots of rho -> det(lh + rho*lm), or None when the
    determinant vanishes identically.

    The determinant has degree at most dim in rho, so it is not the zero
    polynomial once the composite is invertible at one of dim + 1 distinct
    nodes (or at any rho, which the caller asserts with `nonzero`); the
    scan stops at the first such node.  det(lh + rho*lm) = 0
    exactly when rho is a generalized eigenvalue of the pencil (lh, -lm),
    which handles repeated roots and singular lm robustly (infinite
    eigenvalues are discarded).
    """
    dim = lh.shape[0]
    if not (nonzero or any(
            _invertible(np.linalg.svd(lh + t * lm, compute_uv=False))
            for t in np.linspace(0.0, max(1.0, dim), dim + 1))):
        return None
    if np.linalg.norm(lm) == 0.0:
        return []
    eigs = scipy.linalg.eig(lh, -lm, right=False)
    eigs = eigs[np.isfinite(eigs)]
    real = ((np.abs(eigs.imag) <= 1e-8 * (1.0 + np.abs(eigs.real)))
            & (eigs.real > 1e-12))
    return sorted(set(round(float(r), 10) for r in eigs.real[real]))


def _affine_range_defect(hc, mc, rho_grid, details):
    """Part (ii) for an affine composite: the first defect found (or
    None) and the smallest singular value over the grid."""
    lh, lm = hc.matrix, mc.matrix
    grid, witness, min_sv = [], None, np.inf
    for rho in rho_grid:
        comp = lh + rho * lm
        sv = np.linalg.svd(comp, compute_uv=False)
        nrm = float(sv[0])
        cond = nrm / float(sv[-1]) if sv[-1] > 0 else np.inf
        min_sv = min(min_sv, float(sv[-1]))
        singular = not _invertible(sv)
        grid.append({"rho": float(rho), "det": _det(comp),
                     "cond": None if np.isinf(cond) else cond,
                     "singular": singular})
        if not singular or witness is not None:
            continue
        if nrm <= 1e-12:
            off = hc.offset + rho * mc.offset
            witness = {"rho": float(rho),
                       "defect": "zero linear part: image is a single point",
                       "image_point": off.tolist(),
                       "image_norm": float(np.linalg.norm(off))}
        else:
            witness = {"rho": float(rho),
                       "defect": "singular linear part: image is a proper affine subspace",
                       "null_direction": np.linalg.svd(comp)[2][-1].tolist(),
                       "image_norm": None}
    roots = _det_polynomial_roots(
        lh, lm, nonzero=not all(g["singular"] for g in grid))
    details["grid"] = grid
    details["determinant_positive_roots"] = roots
    if witness is None and roots is None:
        witness = {"rho": None, "defect": "determinant vanishes at every rho",
                   "image_norm": None}
    if witness is None and roots:
        witness = {"rho": roots[0],
                   "defect": "determinant vanishes at a positive rho",
                   "image_norm": None}
    return witness, (float(min_sv) if np.isfinite(min_sv) else None)


def _probed_range_defect(inst, rho_grid, plan, details):
    """Part (ii) for a black-box composite: a damped resolve must reach
    the first sample points at each grid rho.  Returns the defect of the
    last failed probe, or None."""
    targets = (plan or SamplePlan()).arrays(inst.dim)[0][:_RANGE_PROBES]
    probes, witness = [], None
    for rho in rho_grid:
        cfg = ResolventConfig(rho=float(rho), solver="damped_fixed_point")
        for x in targets:
            try:
                resolve(inst, cfg, x)
                probes.append({"rho": float(rho), "reached": True})
            except (NonSurjectiveError, ResolventIterationError) as exc:
                witness = {"rho": float(rho), "target": x.tolist(),
                           "defect": f"range probe failed: {exc}"}
                probes.append({"rho": float(rho), "reached": False})
                break
    details["range_probes"] = probes
    return witness


def certify_generalized_mixed_accretive(inst: InclusionInstance,
                                        rho_grid=None,
                                        plan: SamplePlan | None = None) -> Certificate:
    """Decide the combined accretivity class of M for this instance.

    Part (i): M is symmetric accretive through (f, g) -- the strong and
    relaxed slot certificates plus alpha >= beta.  Part (ii): H + rho*M is
    surjective; for affine instances the composite linear map must be
    invertible on the rho grid (by the test `Resolvent` applies), and the
    determinant (a polynomial in rho) must neither vanish identically nor
    have a positive real root.  Black-box composites are probed instead:
    a damped resolve must reach the first 8 sample points at each grid
    rho.  The witness on failure carries the first defect: of part (ii),
    then alpha < beta, then the slot certificates' witnesses.
    """
    got = inst.constants.require("alpha", "beta")
    return _surjectivity_cert(
        inst, rho_grid, plan,
        certify_m_slot_accretive(inst, "f", got["alpha"], plan),
        certify_m_slot_accretive(inst, "g", got["beta"], plan))


def _surjectivity_cert(inst, rho_grid, plan, cert_f, cert_g) -> Certificate:
    """`certify_generalized_mixed_accretive` given the alpha and beta slot
    certificates."""
    got = inst.constants.require("alpha", "beta")
    if rho_grid is None:
        rho_grid = sorted({0.5, 1.0, 2.0, inst.rho})
    symmetric_ok = got["alpha"] >= got["beta"] - _ABS_TOL
    details = {
        "alpha_certificate": cert_f.to_dict(),
        "beta_certificate": cert_g.to_dict(),
        "alpha_ge_beta": bool(symmetric_ok),
        "rho_grid": [float(r) for r in rho_grid],
    }
    hc, mc = h_composite(inst), m_composite(inst)
    if hc is not None and mc is not None:
        method = "exact_affine"
        witness, constant = _affine_range_defect(hc, mc, rho_grid, details)
    else:
        method, constant = "sampled", None
        witness = _probed_range_defect(inst, rho_grid, plan, details)
    ok = (witness is None and symmetric_ok and cert_f.verdict != "fail"
          and cert_g.verdict != "fail")
    if not symmetric_ok and witness is None:
        witness = {"defect": "alpha < beta breaks symmetric accretivity",
                   "alpha": got["alpha"], "beta": got["beta"]}
    witness = witness or cert_f.witness or cert_g.witness
    exact = method == cert_f.method == cert_g.method == "exact_affine"
    verdict = ("pass" if exact else "estimated") if ok else "fail"
    return Certificate("surjective_H_plus_rhoM", constant, None, method,
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
        certs.update((cert.property, cert) for cert in
                     certify_symmetric_mixed_cocoercive(inst, plan))
    if c.tau is not None:
        certs["mixed_lipschitz"] = certify_mixed_lipschitz(inst, c.tau, plan)
    if c.alpha1 is not None:
        certs["expansive"] = certify_expansive(inst.A, c.alpha1, plan,
                                               inst.dim)
    if c.beta1 is not None:
        certs["lipschitz"] = certify_lipschitz(inst.B, c.beta1, plan,
                                               inst.dim)
    if None not in (c.sigma, c.delta, c.eps1, c.eps2):
        certs.update((cert.property, cert) for cert in
                     certify_F_properties(inst, plan))
    if c.l1 is not None:
        certs["d_lipschitz_S"] = certify_d_lipschitz(inst.S, c.l1, plan,
                                                     inst.dim)
    if c.l2 is not None:
        certs["d_lipschitz_T"] = certify_d_lipschitz(inst.T, c.l2, plan,
                                                     inst.dim)
    if c.alpha is not None and c.beta is not None:
        certs["surjective_H_plus_rhoM"] = _surjectivity_cert(
            inst, rho_grid, plan, certs["strongly_accretive"],
            certs["relaxed_accretive"])
    # certified constants where there are some, declared ones otherwise
    sources = {"mu1": None, "mu2": None, "alpha1": "expansive",
               "beta1": "lipschitz", "gamma1": "strongly_mixed_cocoercive",
               "gamma2": "relaxed_mixed_cocoercive",
               "alpha": "strongly_accretive", "beta": "relaxed_accretive"}
    v = {}
    for n, key in sources.items():
        cert = certs.get(key)
        v[n] = (getattr(c, n) if cert is None or cert.constant is None
                else cert.constant)
    derived = {}
    if None not in v.values():
        derived["r"] = float(v["mu1"] * v["alpha1"] ** q
                             - v["mu2"] * v["beta1"] ** q
                             + v["gamma1"] + v["gamma2"])
        derived["m"] = float(v["alpha"] - v["beta"])
    return CertificateBundle(certificates=certs,
                             ordering_flags=tuple(_flags(c)),
                             derived=derived, seed=plan.seed)
