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
  the rows of `SamplePlan.arrays`.  Each certificate reads the images of
  the plan rows under the maps it needs and forms one array each of lhs,
  rhs and quotient, one entry per candidate: a sample row, or a (row, u,
  v) choice of set values.  One engine, `_sampled_cert`, turns these into
  the certificate.  A finite sample cannot prove a universally quantified
  inequality, so this path returns at most "estimated" (or "fail" with the
  first violating pair in plan order as witness).

Inside `certify_instance` the certificates share one table of plan-row
images (`_PlanImages`).  Instance maps are assumed to be deterministic
functions, so each of A..D, f and g is called at most once per X row and
once per Y row, an additive H is summed over whole image tables (any
other H is called once per row), and F is called once per row and
argument where the selection S (or T) is the identity.

Every comparison ignores violations up to `space.slack(size, spread)`,
size |lhs| + |rhs| and spread dim times: the largest |eigenvalue| or
singular value of the analysed matrix (exact), (||m(x)|| + ||m(y)||)
||d||^(q-1) for a pairing <m(x) - m(y), J_q(d)>, or those image norms over
||x - y|| for a ratio (sampled).  So no verdict depends on the scale of
the maps, their offsets or their conditioning.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    AffineMap,
    IdentitySetMap,
    InclusionInstance,
    JsonRecord,
    SingletonSetMap,
    affine_parts,
    eval_H_on_rows,
    hausdorff_distance,
    is_difference_coupling,
    negate_map,
    pair_affine_parts,
    set_values,
)
from .resolvent import (
    Composite,
    Resolvent,
    ResolventConfig,
    ResolventIterationError,
    theoretical_r_m,
)
from .space import DEGENERATE, ConfigError, as_rows, slack

_RANGE_PROBES = 8       # black-box range probes per rho
_REAL_ROOT = 1e-8       # pencil eigenvalues with |imag| <= this*(1+|real|)
_POSITIVE_ROOT = 1e-12  # real ones above this are positive roots of det


class InsufficientEvidenceError(ValueError):
    """A non-affine map was certified with an empty sample plan."""


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


@dataclass(frozen=True)
class Certificate(JsonRecord):
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


def _witness_pair(x, y, lhs, rhs) -> dict:
    return {"x": np.asarray(x).tolist(), "y": np.asarray(y).tolist(),
            "lhs": float(lhs), "rhs": float(rhs)}


def _exact_cert(prop, claimed, value, spread, witness, details, sign=1,
                upper=False) -> Certificate:
    """The exact certificate of value >= sign*claimed (<= when `upper`) up
    to `slack(|value| + |claimed|, spread)`, with constant sign*value;
    `witness()` is called only when the comparison fails."""
    required, tol = sign * claimed, slack(abs(value) + abs(claimed), spread)
    ok = value <= required + tol if upper else value >= required - tol
    return Certificate(prop, sign * value, claimed, "exact_affine",
                       "pass" if ok else "fail", None if ok else witness(),
                       details)


def _min_eig(sym: np.ndarray, required: float):
    """The smallest eigenvalue of `sym`, dim times the largest |.| one, and
    a witness builder: the smallest one's eigenvector and the origin."""
    vals = np.linalg.eigvalsh(sym)
    lam = float(vals[0])

    def witness():
        d = np.linalg.eigh(sym)[1][:, 0]
        return _witness_pair(d, np.zeros_like(d), lam, required)
    return lam, len(vals) * float(max(-vals[0], vals[-1])), witness


# ---------------------------------------------------------------------------
# The sampled-inequality engine
# ---------------------------------------------------------------------------

def _sampled_cert(prop, claimed, plan, x, y, lhs, rhs, tol, quotient, keep,
                  upper=False, sign=1.0, details=None) -> Certificate:
    """Decide lhs >= rhs (lhs <= rhs when `upper`) on every candidate.

    Entry k of the 1-D arrays is one candidate, in plan order, with sample
    pair x[k], y[k] and `tol[k]` its `slack`; candidates outside the mask
    `keep` are skipped.  The first violation beyond `tol` is the witness
    and its quotient the constant; otherwise the constant is the smallest
    (largest when `upper`) kept quotient, or None.  Constants are reported
    times `sign`.
    """
    rhs = np.broadcast_to(rhs, lhs.shape)
    bad = keep & ((lhs > rhs + tol) if upper else (lhs < rhs - tol))
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


def _norms(d: np.ndarray) -> np.ndarray:
    return np.linalg.norm(d, axis=1)


def _set_differences(us, vs):
    """Every a - b with a in us[i], b in vs[i] ((k_i, dim) arrays), in
    (i, a, b) order, with ||a|| + ||b|| and the row index i of each."""
    na, nb = (np.split(_norms(np.concatenate(s)),
                       np.cumsum([len(v) for v in s])[:-1]) for s in (us, vs))
    diffs = [(a[:, None] - b[None]).reshape(-1, a.shape[1])
             for a, b in zip(us, vs)]
    mags = [(a[:, None] + b[None]).ravel() for a, b in zip(na, nb)]
    rows = np.repeat(np.arange(len(diffs)), [len(d) for d in diffs])
    return np.concatenate(diffs), np.concatenate(mags), rows


def _dual_dots(a: np.ndarray, d: np.ndarray, nd: np.ndarray, q: float):
    """<a_k, J_q(d_k)> for each row k, with J_q(d) = ||d||^(q-2) d."""
    return np.einsum("ij,ij->i", a, d) * np.where(nd > 0, nd, 1.0) ** (q - 2.0)


def _ratio(num, den, keep) -> np.ndarray:
    """num / den where `keep`, 0 elsewhere."""
    return np.divide(num, den, out=np.zeros(len(num)), where=keep)


class _PlanImages:
    """The plan rows of one certification run and their images.

    `certify_instance` builds one and passes it where the certificate
    functions take a plan; each of them, called alone, wraps its plan in
    a table of its own (`_images_of`).  The rows are `plan.arrays(dim)`,
    made when a certificate first needs them; a map's images take one
    call per X row and one per Y row.  Instance maps are taken to be
    deterministic functions, so what more than one certificate reads is
    kept and reused: the images of the slot maps A..D and the increments
    and image norms of the composed H.
    """

    def __init__(self, plan, dim, inst=None):
        self.plan, self.dim, self.inst = plan, dim, inst
        self._kept = {}

    def _keep(self, key, make):
        """make(), a tuple of arrays, made once and kept read-only: the
        maps receive views of these rows and images, so a map that writes
        into its argument raises instead of changing what later
        certificates read."""
        if key not in self._kept:
            kept = make()
            for a in kept:
                a.flags.writeable = False
            self._kept[key] = kept
        return self._kept[key]

    def rows(self, prop):
        """`plan.arrays(dim)`, (X, Y, U), for a map with no exact path."""
        if self.plan is None:
            raise InsufficientEvidenceError(
                f"{prop}: no exact path available and no sample plan")
        if self.dim is None:
            raise ValueError("dim required for a black-box map")
        return self._keep("rows", lambda: self.plan.arrays(self.dim))

    def images(self, m, prop):
        """m(X) and m(Y) as (n, dim) arrays, kept when m is one of the
        instance's slot maps A..D."""
        x, y, _ = self.rows(prop)

        def make():
            context = f"sampled image for {prop}"
            return (as_rows(map(m, x), self.dim, context),
                    as_rows(map(m, y), self.dim, context))
        slot = next((s for s in "ABCD" if self.inst is not None
                     and getattr(self.inst, s) is m), None)
        return make() if slot is None else self._keep(slot, make)

    def h_increments(self, prop):
        """H(X) - H(Y) and ||H(X)|| + ||H(Y)|| for the composed map
        x -> H((Ax, Bx), (Cx, Dx)), formed from the images of A..D."""
        def make():
            images = [self.images(getattr(self.inst, s), prop) for s in "ABCD"]
            hx, hy = (eval_H_on_rows(self.inst, *row) for row in zip(*images))
            return hx - hy, _norms(hx) + _norms(hy)
        return self._keep("H", make)


def _images_of(plan, dim, inst=None) -> _PlanImages:
    """`plan` when it is a run's table already, else a new table of its
    rows."""
    if isinstance(plan, _PlanImages):
        return plan
    return _PlanImages(plan, dim, inst)


def _map_samples(m, plan, dim, prop):
    """The sample plan, rows X, Y, the increments m(X) - m(Y) of a map and
    the image norms ||m(X)|| + ||m(Y)||."""
    table = _images_of(plan, m.dim if isinstance(m, AffineMap) else dim)
    x, y, _ = table.rows(prop)
    mx, my = table.images(m, prop)
    return table.plan, x, y, mx - my, _norms(mx) + _norms(my)


def _accretive_form(prop, claimed, plan, x, y, dm, mag, q, sign=1,
                    shift=0.0, dual=None, scale=None, details=None):
    """<dm, J_q(d)> >= shift + sign*claimed*s^q, with d `dual` (x - y by
    default), s `scale` (||x - y|| by default) and dm an increment of
    images whose norms add up to `mag`.  The quotient is (lhs - shift) /
    s^q, reported times `sign`; candidates with x = y or s = 0 are skipped."""
    dx = x - y
    nx = _norms(dx)
    d = dx if dual is None else dual
    s = nx if scale is None else scale
    keep = (nx >= DEGENERATE) & (s >= DEGENERATE)
    nd = _norms(d)
    lhs = _dual_dots(dm, d, nd, q)
    sq = s ** q
    tol = slack(np.abs(lhs) + np.abs(shift) + abs(claimed) * sq,
                d.shape[1] * mag * nd ** (q - 1.0))
    return _sampled_cert(prop, claimed, plan, x, y, lhs,
                         shift + sign * claimed * sq, tol,
                         _ratio(lhs - shift, sq, keep), keep, sign=sign,
                         details=details or {"q": q})


def _ratio_form(prop, claimed, plan, x, y, num, mag, upper):
    """num / ||x-y|| <= claimed (>= unless `upper`), num a distance of
    images whose norms add up to `mag`; the quotient is the lhs itself."""
    nx = _norms(x - y)
    keep = nx >= DEGENERATE
    ratio = _ratio(num, nx, keep)
    tol = slack(ratio + abs(claimed), x.shape[1] * _ratio(mag, nx, keep))
    return _sampled_cert(prop, claimed, plan, x, y, ratio, claimed, tol,
                         ratio, keep, upper=upper)


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
        lam, size, witness = _min_eig(_sym(parts[0]), sign * claimed)
        return _exact_cert(prop, claimed, lam, size, witness,
                           {"eig_min_sym": lam, "q": q}, sign)
    plan, x, y, dm, mag = _map_samples(m, plan, dim, prop)
    return _accretive_form(prop, claimed, plan, x, y, dm, mag, q, sign)


def certify_strong_accretive(m, claimed: float, q: float = 2.0,
                             plan: SamplePlan | None = None,
                             dim: int | None = None) -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= claimed * ||x-y||^q.

    Exact path (affine map): constant is the smallest eigenvalue of the
    symmetric part of the linear matrix.
    """
    return _accretive(m, claimed, q, plan, dim, "strongly_accretive", +1)


def certify_relaxed_accretive(m, claimed: float, q: float = 2.0,
                              plan: SamplePlan | None = None,
                              dim: int | None = None) -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||x-y||^q.

    Exact path: constant is minus the most negative eigenvalue of the
    symmetric part (the smallest valid relaxation constant).
    """
    return _accretive(m, claimed, q, plan, dim, "relaxed_accretive", -1)


def _pencil(num: np.ndarray, den: np.ndarray):
    """The smallest stationary value of (d' num d) / (d' den d) and dim
    times the largest |.| one, pencil eigenvalues; None if den is singular."""
    import scipy.linalg     # scipy loads on first use
    try:
        vals = scipy.linalg.eigh(num, den, eigvals_only=True)
    except np.linalg.LinAlgError:   # scipy.linalg.LinAlgError is this class
        return None
    return float(vals[0]), len(vals) * float(max(-vals[0], vals[-1]))


def certify_cocoercive(m, claimed: float, q: float = 2.0,
                       plan: SamplePlan | None = None,
                       dim: int | None = None) -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= claimed * ||m(x)-m(y)||^q."""
    return _cocoercive(m, claimed, q, plan, dim, "cocoercive", +1)


def certify_relaxed_cocoercive(m, claimed: float, q: float = 2.0,
                               plan: SamplePlan | None = None,
                               dim: int | None = None) -> Certificate:
    """Check <m(x)-m(y), J_q(x-y)> >= -claimed * ||m(x)-m(y)||^q."""
    return _cocoercive(m, claimed, q, plan, dim, "relaxed_cocoercive",
                       -1)


def _cocoercive(m, claimed, q, plan, dim, prop, sign):
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    parts = affine_parts(m)
    if parts is not None and q == 2.0:
        lin = parts[0]
        pencil = _pencil(_sym(lin), lin.T @ lin)
        if pencil is not None:
            ratio, spread = pencil
            return _exact_cert(
                prop, claimed, ratio, spread,
                lambda: {"pencil_min": ratio, "required": sign * claimed},
                {"q": q}, sign)
        # singular linear part: fall through to sampling
    plan, x, y, dm, mag = _map_samples(m, plan, dim, prop)
    return _accretive_form(prop, claimed, plan, x, y, dm, mag, q, sign,
                           scale=_norms(dm))


# ---------------------------------------------------------------------------
# Norm bounds: Lipschitz and expansive
# ---------------------------------------------------------------------------

def _norm_bound(m, claimed, plan, dim, prop, upper):
    parts = affine_parts(m)
    if parts is not None:
        svals = np.linalg.svd(parts[0], compute_uv=False)
        constant = float(svals.max() if upper else svals.min())

        def witness():
            d = np.linalg.svd(parts[0])[2][0 if upper else -1]
            return _witness_pair(d, np.zeros_like(d), constant, claimed)
        return _exact_cert(prop, claimed, constant,
                           len(svals) * svals.max(), witness,
                           {"singular_values": svals.tolist()}, upper=upper)
    plan, x, y, dm, mag = _map_samples(m, plan, dim, prop)
    return _ratio_form(prop, claimed, plan, x, y, _norms(dm), mag, upper)


def certify_lipschitz(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None) -> Certificate:
    """Check ||m(x)-m(y)|| <= claimed * ||x-y||; exact = largest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound(m, claimed, plan, dim, "lipschitz", upper=True)


def certify_expansive(m, claimed: float, plan: SamplePlan | None = None,
                      dim: int | None = None) -> Certificate:
    """Check ||m(x)-m(y)|| >= claimed * ||x-y||; exact = smallest singular value."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    return _norm_bound(m, claimed, plan, dim, "expansive", upper=False)


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
               got["gamma1"], +1, lambda p, r, u: (p, u, r, u)),
              ("relaxed_mixed_cocoercive", inst.B, inst.D, got["mu2"],
               got["gamma2"], -1, lambda p, r, u: (u, p, u, r)))
    exact = inst.pencil.h is not None and q == 2.0
    if not exact:
        table = _images_of(plan or SamplePlan(), dim, inst)
    certs = []
    for prop, p, r, mu, gamma, sign_mu, slots in halves:
        if exact:
            lp = p.matrix
            certs.append(_exact_cert(prop, gamma, *_min_eig(
                _sym(lp + r.matrix) - sign_mu * mu * (lp.T @ lp), gamma),
                {"mu": mu, "q": q}))
            continue
        x, y, u = table.rows(prop)
        (px, py), (rx, ry) = table.images(p, prop), table.images(r, prop)
        hx = eval_H_on_rows(inst, *slots(px, rx, u))
        hy = eval_H_on_rows(inst, *slots(py, ry, u))
        certs.append(_accretive_form(
            prop, gamma, table.plan, x, y, hx - hy, _norms(hx) + _norms(hy), q,
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
    prop, hc = "mixed_lipschitz", inst.pencil.h
    if hc is not None:
        return _norm_bound(hc, claimed, None, inst.dim, prop, upper=True)
    table = _images_of(plan or SamplePlan(), inst.dim, inst)
    x, y, _ = table.rows(prop)
    dh, mag = table.h_increments(prop)
    return _ratio_form(prop, claimed, table.plan, x, y, _norms(dh), mag,
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
    The sampled path forms H once per sample point for both arguments
    (`eval_H_on_rows`), and calls F once per sample point and argument
    where the selection is the identity.
    """
    got = inst.constants.require("sigma", "delta", "eps1", "eps2")
    q, dim = inst.space.q, inst.dim
    hc, fp = inst.pencil.h, pair_affine_parts(inst.F)
    table = _images_of(plan or SamplePlan(), dim, inst)
    args = (("first", inst.S, got["sigma"], got["eps1"],
             lambda p, w: inst.F(p, w)),
            ("second", inst.T, got["delta"], got["eps2"],
             lambda p, w: inst.F(w, p)))
    accretive, lipschitz = [], []
    for k, (arg, set_map, claimed, eps, f) in enumerate(args):
        prop = f"F_strongly_accretive_{arg}"

        @functools.cache
        def f_increments():
            """The increments f(X, W) - f(Y, W) of F in this argument and
            the image norms ||f(X, W)|| + ||f(Y, W)||."""
            x, y, w = table.rows(prop)
            fx = as_rows(map(f, x, w), dim, "image of F")
            fy = as_rows(map(f, y, w), dim, "image of F")
            return fx - fy, _norms(fx) + _norms(fy)

        sel = _set_map_affine(set_map, dim)
        if hc is not None and fp is not None and sel is not None and q == 2.0:
            lh = hc.matrix
            num = _sym(affine_parts(sel)[0].T @ fp[k].T @ lh)
            vs_h = _pencil(num, lh.T @ lh)
            accretive.append(_exact_cert(prop, claimed, *_min_eig(
                num, claimed), {"constant_vs_H_increment":
                                None if vs_h is None else vs_h[0], "q": q}))
        else:
            x, y, w = table.rows(prop)
            if isinstance(set_map, IdentitySetMap):
                df, mag = f_increments()
                dh = table.h_increments(prop)[0]
            else:
                df, mag, rows = _set_differences(*(
                    [as_rows((f(p, wi) for p in set_values(set_map, zi)),
                             dim, "image of F")
                     for zi, wi in zip(z, w)] for z in (x, y)))
                x, y = x[rows], y[rows]
                dh = table.h_increments(prop)[0][rows]
            cert = _accretive_form(prop, claimed, table.plan, x, y, df, mag,
                                   q, dual=dh)
            if cert.verdict != "fail":
                nh = _norms(dh)
                vs_h = (_norms(x - y) >= DEGENERATE) & (nh > DEGENERATE)
                cert.details["constant_vs_H_increment"] = (float(_ratio(
                    _dual_dots(df, dh, nh, q), nh ** q, vs_h)[vs_h].min())
                    if vs_h.any() else None)
            accretive.append(cert)
        prop = f"F_lipschitz_{arg}"
        if fp is not None:
            lipschitz.append(_norm_bound(AffineMap.linear(fp[k]), eps, None,
                                         dim, prop, upper=True))
        else:
            x, y, _ = table.rows(prop)
            df, mag = f_increments()
            lipschitz.append(_ratio_form(prop, eps, table.plan, x, y,
                                         _norms(df), mag, upper=True))
    return accretive + lipschitz


# ---------------------------------------------------------------------------
# Set-valued maps
# ---------------------------------------------------------------------------

def certify_d_lipschitz(set_map, claimed: float,
                        plan: SamplePlan | None = None,
                        dim: int | None = None) -> Certificate:
    """Check D(G(x), G(y)) <= claimed * ||x-y|| in the Hausdorff metric."""
    if not claimed > 0:
        raise ValueError(f"claimed constant must be > 0, got {claimed}")
    prop = "d_lipschitz"
    if isinstance(set_map, IdentitySetMap):
        return _exact_cert(prop, claimed, 1.0, 0.0,
                           lambda: {"identity_slope": 1.0}, {}, upper=True)
    if isinstance(set_map, SingletonSetMap) and affine_parts(set_map.map) is not None:
        return _norm_bound(set_map.map, claimed, None, dim, prop, upper=True)
    table = _images_of(plan, dim)
    x, y, _ = table.rows(prop)
    sets = [(set_values(set_map, xi), set_values(set_map, yi))
            for xi, yi in zip(x, y)]
    return _ratio_form(
        prop, claimed, table.plan, x, y,
        np.array([hausdorff_distance(a, b) for a, b in sets]),
        np.array([max(map(np.linalg.norm, a)) + max(map(np.linalg.norm, b))
                  for a, b in sets]), upper=True)


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
    plan = plan or SamplePlan()
    if is_difference_coupling(inst.M):
        if slot == "f":
            return certify_strong_accretive(inst.f, claimed, q, plan, dim)
        return certify_relaxed_accretive(negate_map(inst.g), claimed, q,
                                         plan, dim)
    prop, sign = (("strongly_accretive", +1) if slot == "f"
                  else ("relaxed_accretive", -1))
    table = _images_of(plan, dim, inst)
    x, y, w = table.rows(prop)

    def values(s):
        """The value sets M(s_i, w_i) (M(w_i, s_i) for g) of slot images s."""
        return [as_rows(inst.M(si, wi) if slot == "f" else inst.M(wi, si),
                        dim, "image of M") for si, wi in zip(s, w)]

    du, mag, rows = _set_differences(*map(values, table.images(
        inst.f if slot == "f" else inst.g, prop)))
    return _accretive_form(prop, claimed, table.plan, x[rows], y[rows], du,
                           mag, q, sign)


def _det_polynomial_roots(pencil, nonzero: bool):
    """Positive real roots of rho -> det(lh + rho*lm), the linear parts of
    `pencil`, or None when the determinant vanishes identically.  There
    are none when sym(lh + rho*lm) is definite at every rho >= 0, which
    Weyl's inequality shows from the pencil's `bounds`: lambda_min of
    sym(lh) above slack(||lh||_F) and of sym(lm) at least slack(||lm||_F),
    or the same for -lh and -lm.

    The determinant has degree at most dim in rho, so it is not the zero
    polynomial once the composite is invertible at one of dim + 1 distinct
    nodes (or at any rho, which the caller asserts with `nonzero`); the
    scan stops at the first such node.  det(lh + rho*lm) = 0
    exactly when rho is a generalized eigenvalue of the pencil (lh, -lm),
    which handles repeated roots and singular lm robustly (infinite
    eigenvalues are discarded).
    """
    lh, lm = pencil.h.matrix, pencil.m.matrix
    dim = lh.shape[0]
    if not (nonzero or any(
            Composite(pencil, t).invertible
            for t in np.linspace(0.0, max(1.0, dim), dim + 1))):
        return None
    if np.linalg.norm(lm) == 0.0:
        return []
    (lo_h, hi_h, fro_h), (lo_m, hi_m, fro_m) = pencil.bounds
    if any(h > slack(fro_h) and m >= slack(fro_m)
           for h, m in ((lo_h, lo_m), (-hi_h, -hi_m))):
        return []
    import scipy.linalg
    eigs = scipy.linalg.eig(lh, -lm, right=False)
    eigs = eigs[np.isfinite(eigs)]
    real = ((np.abs(eigs.imag) <= _REAL_ROOT * (1.0 + np.abs(eigs.real)))
            & (eigs.real > _POSITIVE_ROOT))
    return sorted(set(round(float(r), 10) for r in eigs.real[real]))


def _range_witness(defect: dict) -> dict:
    """The certificate's witness for a `Composite.defect`."""
    if defect["kind"] == "zero linear part":
        return {"rho": defect["rho"],
                "defect": "zero linear part: image is a single point",
                "image_point": defect["image_point"],
                "image_norm": defect["image_norm"]}
    return {"rho": defect["rho"],
            "defect": "singular linear part: image is a proper affine subspace",
            "null_direction": defect["null_direction"],
            "image_norm": None}


def _affine_range_defect(pencil, rho_grid, details):
    """Part (ii) for an affine composite: the first defect found (or
    None) and the smallest singular value over the grid."""
    grid, witness, min_sv = [], None, np.inf
    for rho in rho_grid:
        k = Composite(pencil, float(rho))
        min_sv = min(min_sv, float(k.sv[-1]))
        grid.append({"rho": k.rho, "det": k.det, "cond": k.cond,
                     "singular": not k.invertible})
        if witness is None and not k.invertible:
            witness = _range_witness(k.defect())
    roots = _det_polynomial_roots(
        pencil, nonzero=not all(g["singular"] for g in grid))
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
    """Part (ii) for a black-box composite: a black-box resolve must
    reach the first sample points at each grid rho.  Returns the defect
    of the first failed probe, or None."""
    targets = _images_of(plan or SamplePlan(), inst.dim, inst).rows(
        "surjective_H_plus_rhoM")[0][:_RANGE_PROBES]
    probes, witness = [], None
    for rho in rho_grid:
        resolvent = Resolvent(inst, ResolventConfig(rho=float(rho)))
        for x in targets:
            try:
                resolvent(x)
                probes.append({"rho": float(rho), "reached": True})
            except ResolventIterationError as exc:
                witness = witness or {"rho": float(rho), "target": x.tolist(),
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
    invertible on the rho grid, decided by `Composite` as in `Resolvent`
    (K not zero and cond <= 1e12), and the determinant (a polynomial
    in rho) must neither vanish identically nor have a positive real
    root; it has none, and no pencil eigenvalues are computed, when the
    smallest eigenvalues of sym(L_H), sym(L_M) are > 0 and >= 0 (or the
    largest ones < 0 and <= 0).  Black-box composites are probed
    instead: a resolve (chord or damped `Resolvent` path) must reach the
    first 8 sample points at each grid rho.  The witness on failure
    carries the first defect: of part (ii), then alpha < beta, then the
    slot certificates' witnesses.  A grid rho <= 0 raises ConfigError.
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
    for rho in rho_grid:
        if not rho > 0:
            raise ConfigError(f"rho must be > 0, got {rho}")
    symmetric_ok = got["alpha"] >= got["beta"] - slack(
        abs(got["alpha"]) + abs(got["beta"]))
    details = {
        "alpha_certificate": cert_f.to_dict(),
        "beta_certificate": cert_g.to_dict(),
        "alpha_ge_beta": bool(symmetric_ok),
        "rho_grid": [float(r) for r in rho_grid],
    }
    if inst.pencil.affine:
        method = "exact_affine"
        witness, constant = _affine_range_defect(inst.pencil, rho_grid,
                                                 details)
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
class CertificateBundle(JsonRecord):
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

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return super().to_json(**kwargs)


def certify_instance(inst: InclusionInstance,
                     plan: SamplePlan | None = None,
                     rho_grid=None) -> CertificateBundle:
    """Run every certificate the declared constants make possible.

    The derived block reports `theoretical_r_m`'s r and m, evaluated from
    the certified constants (claimed mu's, certified slopes) when all
    ingredients are present.  The certificates share one table of the
    plan rows' images (`_PlanImages`), dropped on return.
    """
    from .operators import ordering_flags as _flags
    plan = plan or SamplePlan()
    table = _PlanImages(plan, inst.dim, inst)
    c = inst.constants
    certs = {}
    if c.alpha is not None:
        certs["strongly_accretive"] = certify_m_slot_accretive(inst, "f",
                                                               c.alpha, table)
    if c.beta is not None:
        certs["relaxed_accretive"] = certify_m_slot_accretive(inst, "g",
                                                              c.beta, table)
    if None not in (c.mu1, c.gamma1, c.mu2, c.gamma2):
        certs.update((cert.property, cert) for cert in
                     certify_symmetric_mixed_cocoercive(inst, table))
    if c.tau is not None:
        certs["mixed_lipschitz"] = certify_mixed_lipschitz(inst, c.tau, table)
    if c.alpha1 is not None:
        certs["expansive"] = certify_expansive(inst.A, c.alpha1, table,
                                               inst.dim)
    if c.beta1 is not None:
        certs["lipschitz"] = certify_lipschitz(inst.B, c.beta1, table,
                                               inst.dim)
    if None not in (c.sigma, c.delta, c.eps1, c.eps2):
        certs.update((cert.property, cert) for cert in
                     certify_F_properties(inst, table))
    for name, set_map, lip in (("S", inst.S, c.l1), ("T", inst.T, c.l2)):
        if lip is not None:
            certs[f"d_lipschitz_{name}"] = certify_d_lipschitz(
                set_map, lip, table, inst.dim)
    if c.alpha is not None and c.beta is not None:
        certs["surjective_H_plus_rhoM"] = _surjectivity_cert(
            inst, rho_grid, table, certs["strongly_accretive"],
            certs["relaxed_accretive"])
    # certified constants where there are some, declared ones otherwise
    sources = {"mu1": None, "mu2": None, "alpha1": "expansive",
               "beta1": "lipschitz", "gamma1": "strongly_mixed_cocoercive",
               "gamma2": "relaxed_mixed_cocoercive",
               "alpha": "strongly_accretive", "beta": "relaxed_accretive"}
    got = {n: getattr(certs.get(key), "constant", None)
           for n, key in sources.items()}
    v = {n: getattr(c, n) if x is None else x for n, x in got.items()}
    derived = ({} if None in v.values()
               else dict(zip(("r", "m"), theoretical_r_m(inst, v))))
    return CertificateBundle(certificates=certs,
                             ordering_flags=tuple(_flags(c)),
                             derived=derived, seed=plan.seed)
