"""Operator algebra for the inclusion problem.

The problem datum is: find u (and selections v in S(u), w in T(u)) with

    omega  in  F(v, w) + M(f(u), g(u)),

where A, B, C, D, f, g are single-valued maps, H is a four-slot bifunction
evaluated on (Ax, Bx, Cx, Dx), F is a two-argument map, M couples the two
composed slots f(u), g(u), and S, T are set-valued maps with finite value
sets.  All the worked instances are affine; affine realizations are stored
explicitly so that certification and the resolvent can use exact matrix
analysis, with black-box callables as the general fallback.
"""

import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .space import (EmptySetError, NonFiniteError, SpaceConfig, as_rows,
                    as_vector, check_positive, slack, store)


# ---------------------------------------------------------------------------
# Single-valued maps
# ---------------------------------------------------------------------------

def _frozen(a, check, dim: int, context: str) -> np.ndarray:
    """A read-only copy of `check(a, dim, context)`, `as_rows` for a
    matrix and `as_vector` for an offset: a map's parts are finite, and
    stay what the data cached from them was derived from."""
    a = np.array(check(a, dim, context))
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> matrix @ x + offset, with the parts exposed for exact analysis."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix, as_rows, len(self.matrix), "affine map")
        store(self, matrix=m,
              offset=_frozen(self.offset, as_vector, len(m), "affine map"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        return (self.matrix @ as_vector(x, self.dim, "affine map eval")
                + self.offset)

    @classmethod
    def linear(cls, matrix) -> "AffineMap":
        return cls(matrix, np.zeros(len(matrix)))

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls.linear(np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "AffineMap":
        return cls.linear(np.zeros((dim, dim)))

    @classmethod
    def scaling(cls, c: float, dim: int) -> "AffineMap":
        return cls.linear(c * np.eye(dim))


def affine_parts(m):
    """Return (matrix, offset) when `m` has an exact affine realization."""
    if isinstance(m, AffineMap):
        return m.matrix, m.offset
    return None


def negate_map(m):
    """The map x -> -m(x), keeping the affine realization when present."""
    parts = affine_parts(m)
    if parts is not None:
        return AffineMap(-parts[0], -parts[1])
    return lambda x: -m(x)


# ---------------------------------------------------------------------------
# Four-slot bifunction H, pair map F, coupling M, set-valued S/T
# ---------------------------------------------------------------------------

class AdditiveBiSlot:
    """H((a, b), (c, d)) = a + b + c + d, the additive slot combination,
    of four images of one length."""

    additive = True

    def __call__(self, a, b, c, d) -> np.ndarray:
        a = as_vector(a)
        n = a.shape[0]
        return (a + as_vector(b, n, "images of A and B")
                + as_vector(c, n, "images of A and C")
                + as_vector(d, n, "images of A and D"))

    def __repr__(self):
        return "AdditiveBiSlot()"


def is_additive(h) -> bool:
    return bool(getattr(h, "additive", False))


@dataclass(frozen=True, eq=False)
class AffinePairMap:
    """F(x, y) = first @ x + second @ y + offset."""

    first: np.ndarray
    second: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        p = _frozen(self.first, as_rows, len(self.first), "pair map")
        q = _frozen(self.second, as_rows, len(p), "pair map")
        if q.shape != p.shape:
            raise ValueError(f"pair-map matrices must be congruent, got "
                             f"{p.shape} and {q.shape}")
        store(self, first=p, second=q,
              offset=_frozen(self.offset, as_vector, len(p), "pair map"))

    @property
    def dim(self) -> int:
        return self.first.shape[0]

    def __call__(self, x, y) -> np.ndarray:
        return (self.first @ as_vector(x, self.dim, "pair map eval")
                + self.second @ as_vector(y, self.dim, "pair map eval")
                + self.offset)


def pair_affine_parts(f):
    """Return (first, second, offset) when F is exactly affine."""
    if isinstance(f, AffinePairMap):
        return f.first, f.second, f.offset
    return None


class DifferenceCoupling:
    """M(fu, gu) = {fu - gu}: single-valued difference of the two slots,
    of one length."""

    f_minus_g = True

    def __call__(self, fu, gu):
        fu = as_vector(fu)
        return (fu - as_vector(gu, fu.shape[0], "images of f and g"),)

    def __repr__(self):
        return "DifferenceCoupling()"


def is_difference_coupling(m) -> bool:
    return bool(getattr(m, "f_minus_g", False))


class IdentitySetMap:
    """S(x) = {x}."""

    def __call__(self, x):
        return (x,)

    def __repr__(self):
        return "IdentitySetMap()"


@dataclass(frozen=True, eq=False)
class SingletonSetMap:
    """S(x) = {m(x)} for a single-valued map m."""

    map: object

    def __call__(self, x):
        return (self.map(x),)


@dataclass(frozen=True, eq=False)
class ConstantSetMap:
    """S(x) = a fixed finite point set, independent of x."""

    points: np.ndarray                # (k, dim)

    def __post_init__(self):
        store(self, points=as_rows(self.points, context="constant set map"))

    def __call__(self, x):
        return self.points


@dataclass(frozen=True, eq=False)
class NearestNodeSetMap:
    """Piecewise-constant set map: the point set attached to the nearest node.

    Realizes the instance-file convention of explicit point lists per grid
    node.  Ties go to the lowest node index.
    """

    nodes: np.ndarray                 # (k, dim)
    point_sets: tuple                 # k entries, each a (m_i, dim) array

    def __post_init__(self):
        nodes = as_rows(self.nodes, context="grid nodes")
        sets_ = tuple(as_rows(s, nodes.shape[1], "grid node point set")
                      for s in self.point_sets)
        if nodes.shape[0] != len(sets_):
            raise ValueError("one point set per node required")
        store(self, nodes=nodes, point_sets=sets_)

    def __call__(self, x):
        xv = as_vector(x, self.nodes.shape[1], "nearest node")
        d = np.linalg.norm(self.nodes - xv[None, :], axis=1)
        return self.point_sets[int(np.argmin(d))]


def set_values(set_map, x):
    """The finite value set of a set-valued map at the vector x, as the
    rows of one (k, len(x)) array: the one check of a set map's values."""
    return as_rows(set_map(x), len(x), "value of a set-valued map")


# ---------------------------------------------------------------------------
# Declared property constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constants:
    """Named operator-property constants attached to an instance.

    mu1, gamma1   strong mixed cocoercivity of H through the (A, C) slots
    mu2, gamma2   relaxed mixed cocoercivity of H through the (B, D) slots
    alpha, beta   strong / relaxed accretivity of M through f / g
    alpha1        expansiveness of A
    beta1         Lipschitz constant of B
    tau           mixed Lipschitz constant of the composed H
    sigma, delta  strong accretivity of F (first / second argument)
    eps1, eps2    Lipschitz constants of F (first / second argument)
    l1, l2        set-distance Lipschitz constants of S / T
    """

    mu1: float | None = None
    gamma1: float | None = None
    mu2: float | None = None
    gamma2: float | None = None
    alpha: float | None = None
    beta: float | None = None
    alpha1: float | None = None
    beta1: float | None = None
    tau: float | None = None
    sigma: float | None = None
    delta: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    l1: float | None = None
    l2: float | None = None

    def __post_init__(self):
        # <= 0 is flagged by `ordering_flags`
        store(self, **{name: check_positive(value, name, None) for name, value
                       in self.asdict().items() if value is not None})

    def asdict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def require(self, *names) -> dict:
        """Return the named constants, raising if any are missing."""
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise MissingConstantsError(missing)
        return {n: getattr(self, n) for n in names}


class MissingConstantsError(ValueError):
    """An operation needed declared constants that the instance lacks."""

    def __init__(self, names):
        super().__init__(f"missing declared constants: {', '.join(names)}")
        self.names = tuple(names)


def ordering_flags(c: Constants) -> list:
    """Violations of the resolvent-theorem hypotheses on the constants.

    Checks alpha > beta, mu1 > mu2, alpha1 > beta1, gamma1, gamma2 > 0,
    and positivity of every other declared constant, on whichever
    constants are declared.  Violations are reported, not fatal, except
    alpha, beta, alpha1, beta1, l1 or l2 <= 0, under any coupling: there
    `certify_instance` raises ConfigError.
    """
    flags = []
    pairs = [("alpha", "beta"), ("mu1", "mu2"), ("alpha1", "beta1")]
    for hi, lo in pairs:
        a, b = getattr(c, hi), getattr(c, lo)
        if a is not None and b is not None and not a > b:
            flags.append(f"{hi} <= {lo} ({a} <= {b})")
    for f in fields(c):
        v = getattr(c, f.name)
        if v is not None and not v > 0:
            flags.append(f"{f.name} <= 0 ({v})")
    return flags


# ---------------------------------------------------------------------------
# The full problem datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InclusionInstance:
    """Everything needed to state and solve one inclusion problem.

    An instance and its maps are immutable values (the maps deterministic
    functions), so data derived from them is cached: on the instance
    (`pencil`), or for one call (`certify._PlanImages`).  `with_` makes a
    new instance, which derives its own."""

    space: SpaceConfig
    A: object
    B: object
    C: object
    D: object
    f: object
    g: object
    H: object
    F: object
    M: object
    S: object
    T: object
    omega: np.ndarray
    rho: float
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        store(self, omega=as_vector(self.omega, self.space.dim, "omega"),
              rho=check_positive(self.rho))

    @property
    def dim(self) -> int:
        return self.space.dim

    @functools.cached_property
    def pencil(self) -> "AffinePencil":
        """The affine composites of H and M, assembled on first use."""
        return AffinePencil(h_composite(self), m_composite(self), self)

    def with_(self, **kwargs) -> "InclusionInstance":
        return replace(self, **kwargs)


def eval_H_on_point(inst: InclusionInstance, x) -> np.ndarray:
    """Evaluate the composed bifunction H((A(x), B(x)), (C(x), D(x))):
    one matvec `L_H x + c_H` where `inst.pencil.h` holds the affine
    composite, else the four slot maps and H.

    Raises DimensionMismatchError, naming the map, when x or H's image is
    not of the instance's dimension."""
    xv = as_vector(x, inst.dim, "eval_H_on_point")
    h = inst.pencil.h
    if h is not None:
        return as_vector(h.matrix @ xv + h.offset, inst.dim, "image of H")
    return eval_H_on_images(inst, inst.A(xv), inst.B(xv), inst.C(xv),
                            inst.D(xv))


def eval_H_on_images(inst: InclusionInstance, a, b, c, d) -> np.ndarray:
    """H((a, b), (c, d)) for images a..d of one point under A..D;
    DimensionMismatchError when H's image is not of the instance's
    dimension."""
    return as_vector(inst.H(a, b, c, d), inst.dim, "image of H")


def eval_H_on_rows(inst: InclusionInstance, a, b, c, d) -> np.ndarray:
    """`eval_H_on_images` of each row of the (n, dim) tables a..d, as one
    (n, dim) array; an additive H is one sum of the tables, to the bits of
    the per-row sums, where an overflow raises NonFiniteError."""
    if is_additive(inst.H):
        with np.errstate(over="ignore"):    # as_rows refuses the inf left
            rows = a + b + c + d
    else:
        rows = map(functools.partial(eval_H_on_images, inst), a, b, c, d)
    return as_rows(rows, inst.dim, "image of H")


def h_composite(inst: InclusionInstance):
    """Affine realization of x -> H((Ax, Bx), (Cx, Dx)), or None.

    Exact only when H is the additive slot combination and all four slot
    maps are affine.
    """
    if not is_additive(inst.H):
        return None
    parts = [affine_parts(m) for m in (inst.A, inst.B, inst.C, inst.D)]
    if any(p is None for p in parts):
        return None
    with np.errstate(over="ignore"):    # AffineMap refuses an overflow
        return AffineMap(sum(p[0] for p in parts), sum(p[1] for p in parts))


def m_composite(inst: InclusionInstance):
    """Affine realization of x -> the element of M(f(x), g(x)), or None."""
    if not is_difference_coupling(inst.M):
        return None
    fp, gp = affine_parts(inst.f), affine_parts(inst.g)
    if fp is None or gp is None:
        return None
    with np.errstate(over="ignore"):    # AffineMap refuses an overflow
        return AffineMap(fp[0] - gp[0], fp[1] - gp[1])


def selection_parts(set_map):
    """(L, c) of a set map whose one value is L x + c: (None, None) for an
    `IdentitySetMap`, whose value is x itself, the parts of the map of a
    `SingletonSetMap` of an `AffineMap`; None for any other set map."""
    if isinstance(set_map, IdentitySetMap):
        return None, None
    if isinstance(set_map, SingletonSetMap):
        return affine_parts(set_map.map)
    return None


def step_composite(inst: InclusionInstance):
    """Affine realization of u -> F(Su, Tu) + M(f(u), g(u)), or None.

    L = F1 L_S + F2 L_T + L_M with offset F1 c_S + F2 c_T + c_F + c_M.
    Exact only when `inst.pencil.m` exists, F is an `AffinePairMap` and S
    and T each have `selection_parts`; an identity selection adds its
    F matrix as it is, so the assembly is O(dim^2) with no product.
    """
    m, fp = inst.pencil.m, pair_affine_parts(inst.F)
    selections = [selection_parts(s) for s in (inst.S, inst.T)]
    if m is None or fp is None or None in selections:
        return None
    matrix, offset = m.matrix.copy(), m.offset + fp[2]
    for pair, (ls, cs) in zip(fp[:2], selections):
        matrix += pair if ls is None else pair @ ls
        if cs is not None:
            offset += pair @ cs
    return AffineMap(matrix, offset)


class AffinePencil:
    """The affine composites of one instance, `h`: x -> H((Ax, Bx), (Cx,
    Dx)) and `m`: x -> M(f(x), g(x)), each None where `h_composite` or
    `m_composite` finds none; `InclusionInstance.pencil` holds one.

    `bounds`, taken on first use: (lambda_min, lambda_max) of sym(L) and
    ||L||_F for L = L_H, then L = L_M, from L / max|L| so that no square
    under- or overflows; `margins` turns them into Weyl's inequality.

    `probed`, taken on first use by a black-box resolve: the pencil of
    the linear model J_H x + H(0), J_M x + m(0) (m the first member of M),
    whose columns are forward differences at the unit vectors; exact for
    affine maps.  dim + 1 evaluations of H and M (`probe_evaluations`);
    None when an image or a difference is non-finite, and a malformed
    image raises what `eval_H_on_point` or `eval_M_on_point` raises.
    """

    def __init__(self, h, m, inst: InclusionInstance | None = None):
        self.h, self.m, self._inst = h, m, inst
        self.affine = h is not None and m is not None
        self.probe_evaluations = 0

    @functools.cached_property
    def bounds(self):
        out = []
        for mat in (self.h.matrix, self.m.matrix):
            scale = float(np.abs(mat).max()) or 1.0
            unit = mat / scale
            eigs = np.linalg.eigvalsh(0.5 * (unit + unit.T))
            out.append((float(eigs[0]) * scale, float(eigs[-1]) * scale,
                        float(np.linalg.norm(unit)) * scale))
        return tuple(out)

    def margins(self, rho: float):
        """How far Weyl's inequality on `bounds` puts the eigenvalues of
        sym(L_H + rho*L_M) above 0, then below 0, less slack(||L_H||_F +
        |rho|*||L_M||_F): it is definite where a margin is > 0.  Each
        margin is linear in rho >= 0."""
        (lo_h, hi_h, fro_h), (lo_m, hi_m, fro_m) = self.bounds
        tol = slack(fro_h + abs(rho) * fro_m)
        return (lo_h + min(rho * lo_m, rho * hi_m) - tol,
                -hi_h - max(rho * lo_m, rho * hi_m) - tol)

    @functools.cached_property
    def probed(self) -> "AffinePencil | None":
        inst, h, m = self._inst, [], []
        # a map overflowing at a unit vector leaves an inf, refused below
        with np.errstate(over="ignore"):
            try:
                for x in np.vstack([np.zeros(inst.dim), np.eye(inst.dim)]):
                    self.probe_evaluations += 1
                    h.append(eval_H_on_point(inst, x))
                    m.append(eval_M_on_point(inst, x)[0])
                jh, jm = (as_rows(np.subtract(v[1:], v[0])).T for v in (h, m))
            except NonFiniteError:
                return None
        return AffinePencil(AffineMap(jh, h[0]), AffineMap(jm, m[0]))


def eval_M_on_point(inst: InclusionInstance, x):
    """The finite value set M(f(x), g(x)): the one member `L_M x + c_M`
    where `inst.pencil.m` holds the affine composite, else M of the images
    of f and g.  DimensionMismatchError when x or a member is not of the
    instance's dimension."""
    xv = as_vector(x, inst.dim, "eval_M_on_point")
    m = inst.pencil.m
    if m is not None:
        return (as_vector(m.matrix @ xv + m.offset, inst.dim, "image of M"),)
    vals = inst.M(inst.f(xv), inst.g(xv))
    out = tuple(as_vector(v, inst.dim, "image of M") for v in vals)
    if not out:
        raise EmptySetError(f"M(f(x), g(x)) empty at x={xv}")
    return out


# ---------------------------------------------------------------------------
# Hausdorff distance and the inclusion residual
# ---------------------------------------------------------------------------

def hausdorff_distance(set_a, set_b) -> float:
    """Hausdorff distance between two nonempty finite point sets.

    max( max_a min_b ||a-b||, max_b min_a ||a-b|| ); exact for finite sets.
    """
    a = as_rows(set_a, context="hausdorff_distance")
    b = as_rows(set_b, a.shape[1], "hausdorff_distance")
    # squares summed coordinate by coordinate, as cdist does, to its bits
    diff = (a[:, None, :] - b[None, :, :]).transpose(2, 0, 1)
    dm = np.sqrt(sum(col * col for col in diff))
    return float(max(dm.min(axis=1).max(), dm.min(axis=0).max()))


def _set_defect(point: np.ndarray, pts: np.ndarray):
    """(the distance of `point` to the rows `pts`, whether it is within
    `slack` of the norms of `point` and of its nearest row)."""
    dists = np.linalg.norm(pts - point, axis=1)
    k = int(np.argmin(dists))
    return float(dists[k]), bool(dists[k] <= slack(
        np.linalg.norm(point) + np.linalg.norm(pts[k])))


@dataclass(frozen=True)
class ResidualReport:
    """Inclusion residual plus selection-membership diagnostics.

    value
        min over m in M(f(u), g(u)) of ||omega - F(v, w) - m||.
    v_defect, w_defect
        Distances of v to S(u) and w to T(u); nonzero values flag that the
        supplied selections are off the set-valued images.
    memberships_ok
        Whether each defect is within `slack` of the norms of the point
        and of its nearest member, so that no scale of the maps moves it.
    """

    value: float
    v_defect: float
    w_defect: float
    memberships_ok: bool


def inclusion_residual(inst: InclusionInstance, u, v, w) -> ResidualReport:
    """How far (u, v, w) is from solving omega in F(v, w) + M(f(u), g(u)).

    Membership of v in S(u) and w in T(u) is measured, not enforced:
    violations are reported in the result, and the residual value is
    computed regardless.
    """
    uv, vv, wv = as_vector(u), as_vector(v), as_vector(w)
    m_vals = eval_M_on_point(inst, uv)
    target = inst.omega - as_vector(inst.F(vv, wv))
    value = min(float(np.linalg.norm(target - m)) for m in m_vals)
    v_defect, v_ok = _set_defect(vv, set_values(inst.S, uv))
    w_defect, w_ok = _set_defect(wv, set_values(inst.T, uv))
    return ResidualReport(value=value, v_defect=v_defect, w_defect=w_defect,
                          memberships_ok=v_ok and w_ok)


# ---------------------------------------------------------------------------
# Instance file format
# ---------------------------------------------------------------------------

def _map_to_dict(m, name):
    parts = affine_parts(m)
    if parts is None:
        raise ValueError(f"map {name!r} has no affine realization; "
                         "only affine instances serialize")
    return {"matrix": parts[0].tolist(), "offset": parts[1].tolist()}


def _map_from_dict(d):
    return AffineMap(d["matrix"], d["offset"])


def _set_map_to_obj(s, name):
    if isinstance(s, IdentitySetMap):
        return "identity"
    if isinstance(s, NearestNodeSetMap):
        return {"nodes": s.nodes.tolist(),
                "points": [ps.tolist() for ps in s.point_sets]}
    if isinstance(s, SingletonSetMap):
        return {"map": _map_to_dict(s.map, name)}
    raise ValueError(f"set-valued map {name!r} does not serialize")


def _set_map_from_obj(obj, name):
    if obj == "identity":
        return IdentitySetMap()
    if isinstance(obj, dict) and "nodes" in obj:
        return NearestNodeSetMap(obj["nodes"], obj["points"])
    if isinstance(obj, dict) and "map" in obj:
        return SingletonSetMap(_map_from_dict(obj["map"]))
    raise ValueError(f"unrecognized set-valued map spec for {name!r}: {obj!r}")


def instance_to_dict(inst: InclusionInstance) -> dict:
    """Serialize an affine instance to the documented JSON structure."""
    if not is_additive(inst.H):
        raise ValueError("only the additive H mode serializes")
    if not is_difference_coupling(inst.M):
        raise ValueError("only the f-minus-g M mode serializes")
    fp = pair_affine_parts(inst.F)
    if fp is None:
        raise ValueError("F has no affine realization; cannot serialize")
    consts = {k: v for k, v in inst.constants.asdict().items() if v is not None}
    return {
        "dim": inst.dim,
        "q": inst.space.q,
        "c_q": inst.space.c_q,
        "rho": inst.rho,
        "omega": inst.omega.tolist(),
        **{s: _map_to_dict(getattr(inst, s), s) for s in "ABCDfg"},
        "H": "additive",
        "M": "f-minus-g",
        "F": {"first": fp[0].tolist(), "second": fp[1].tolist(),
              "offset": fp[2].tolist()},
        "S": _set_map_to_obj(inst.S, "S"),
        "T": _set_map_to_obj(inst.T, "T"),
        "constants": consts,
    }


def _check_arrays(obj, key: str = "", in_array: bool = False) -> None:
    """Refuse an entry of a JSON array of the instance document that is
    not a finite JSON number (a string, a boolean, null, an object), with
    a ValueError naming its key; numpy would convert "0.5" and true."""
    if isinstance(obj, dict) and not in_array:
        for k, v in obj.items():
            _check_arrays(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for item in obj:
            _check_arrays(item, key, True)
    elif in_array and (isinstance(obj, bool)
                       or not isinstance(obj, (int, float))):
        raise ValueError(f"{key} must hold numbers, got {obj!r}")
    elif in_array and not abs(obj) <= sys.float_info.max:   # nan too
        raise ValueError(f"{key} has non-finite coordinates")


def instance_from_dict(d: dict) -> InclusionInstance:
    """Parse the instance JSON structure.  Each value goes as it is to
    the constructor that checks it, so a number must be a JSON number, and
    so must each entry of an array.

    Raises KeyError / ValueError with the offending field named, so the
    CLI can surface parse diagnostics; one ValueError names every key,
    at the top level or in "constants", that the structure does not have.
    """
    if not isinstance(d, dict):
        raise ValueError(f"an instance is a JSON object, not {type(d).__name__}")
    keys = {"dim", "q", "c_q", "rho", "omega", "constants", *"ABCDfgHMFST"}
    consts, names = d.get("constants", {}), {f.name for f in fields(Constants)}
    unknown = sorted(set(d) - keys) + sorted(
        f"constants.{k}" for k in set(consts) - names)
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(map(repr, unknown))}")
    _check_arrays(d)
    if d.get("H", "additive") != "additive":
        raise ValueError(f"unsupported H mode: {d.get('H')!r}")
    if d.get("M", "f-minus-g") != "f-minus-g":
        raise ValueError(f"unsupported M mode: {d.get('M')!r}")
    space = SpaceConfig(dim=d["dim"], q=d.get("q", 2.0), c_q=d.get("c_q", 1.0))
    fobj = d["F"]
    return InclusionInstance(
        space=space, **{s: _map_from_dict(d[s]) for s in "ABCDfg"},
        H=AdditiveBiSlot(), M=DifferenceCoupling(),
        F=AffinePairMap(fobj["first"], fobj["second"],
                        fobj.get("offset", np.zeros(space.dim))),
        S=_set_map_from_obj(d.get("S", "identity"), "S"),
        T=_set_map_from_obj(d.get("T", "identity"), "T"),
        omega=d.get("omega", np.zeros(space.dim)), rho=d["rho"],
        constants=Constants(**consts))



def load_instance(path: str) -> InclusionInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def dump_instance(inst: InclusionInstance, path: str) -> None:
    _write_atomic(path, json.dumps(instance_to_dict(inst), indent=2,
                                   sort_keys=True) + "\n")


class JsonRecord:
    """`to_dict` and sorted-key `to_json` of a dataclass result record."""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` via a temporary file and `os.replace`, so
    `path` never holds a partial write."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:            # a failed write or replace leaves no tmp behind
        if os.path.isfile(tmp):
            os.remove(tmp)
