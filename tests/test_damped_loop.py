"""The black-box resolvent against a reference written plainly: it
probes the chord model, then keeps every iterate, step and selected
member in lists and takes the Anderson history and the stall test from
them.  Same iterates bit for bit, and the same error (type, message, last
residual, iteration count) when a map returns a NaN, an Inf, a 2-D, an
empty or a wrong-length image, or M an empty set, during the probe or
the loop, when the probe gives no invertible model, when the residual
stalls and when the iteration runs out.  Then, on random affine
instances given as black boxes, the chord result against the exact
resolvent, also past the scale where the squares of its norms
overflow."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePencil,
    AffinePairMap,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    eval_H_on_point,
    eval_M_on_point,
)
from vincl.resolvent import (
    _ANDERSON_MEMORY,
    _COND_LIMIT,
    _SMALL_DIM,
    _STALL_FACTOR,
    _STALL_WINDOW,
    Composite,
    Resolvent,
    ResolventConfig,
    ResolventIterationError,
)
from vincl.space import RESOLVE_TOL, NonFiniteError, SpaceConfig, as_rows

SLOTS = ("A", "B", "C", "D", "f", "g")


def reference_probe(inst, rho):
    """The chord model's J = J_H + rho*J_M as a `Composite`, from forward
    differences at 0 and the unit vectors.  A malformed image raises its
    own error; a non-finite image or difference, or a J that is not
    invertible, raises ResolventIterationError with no iteration run."""
    hs, ms = [], []
    reason = "a map image is non-finite at a probe point"
    with np.errstate(over="ignore"):
        try:
            for x in [np.zeros(inst.dim)] + list(np.eye(inst.dim)):
                hs.append(eval_H_on_point(inst, x))
                ms.append(eval_M_on_point(inst, x)[0])
            jh = as_rows([h - hs[0] for h in hs[1:]]).T
            jm = as_rows([m - ms[0] for m in ms[1:]]).T
        except NonFiniteError:
            jh = None
    if jh is not None:
        k = Composite(AffinePencil(AffineMap(jh, hs[0]),
                                   AffineMap(jm, ms[0])), rho)
        if k.invertible:
            return k
        part = "zero" if k.zero else "singular"
        reason = f"the probed linear model has a {part} linear part"
    raise ResolventIterationError(f"no chord model at rho={rho}: {reason}",
                                  math.inf, 0)


def reference_norm(v):
    """||v||: the plain norm, or, where the squares of a finite v
    overflow, max|v| times the norm of v / max|v|."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(v))
    if plain < math.inf or not np.all(np.isfinite(v)):
        return plain
    scale = float(np.max(np.abs(v)))
    return scale * float(np.linalg.norm(v / scale))


def reference_resolve(inst, cfg, z):
    """The probe, then the chord loop under Anderson mixing, from the full
    record of the run; it also returns and raises with the number of
    iterations run."""
    chord = reference_probe(inst, cfg.rho)
    if len(chord.matrix) < _SMALL_DIM:      # numpy's inverse, else LU
        inverse = np.linalg.inv(chord.matrix)

        def chord_solve(b):
            return inverse.dot(b)
    else:
        def chord_solve(b):
            return scipy.linalg.lu_solve(chord.lu[:2], b)
    name = "chord iteration"
    x = chord_solve(z - chord.offset)
    last, tol = np.inf, RESOLVE_TOL * max(1.0, reference_norm(z))
    xs, ps, ks, norms_seen = [], [], [], []
    kept = []                   # i where (x_i, x_i+1) joined the history
    start = 0                   # the first iterate of the current history
    with np.errstate(over="ignore"):
        for n in range(1, cfg.max_inner_iters + 1):
            try:
                hx = eval_H_on_point(inst, x)
                m_vals = eval_M_on_point(inst, x)
            except NonFiniteError:
                raise ResolventIterationError(
                    f"{name} diverged: a map image is non-finite", last,
                    n) from None
            residuals = [hx + cfg.rho * m - z for m in m_vals]
            norms = [reference_norm(r) for r in residuals]
            k = int(np.argmin(norms))
            r, last = residuals[k], norms[k]
            if last <= tol:
                return x, n
            if not math.isfinite(last):
                raise ResolventIterationError(
                    f"{name} diverged to non-finite values", last, n)
            # the rounding floor of the residual's subtraction
            spread = (reference_norm(hx)
                      + cfg.rho * reference_norm(m_vals[k])
                      + reference_norm(z))
            if last <= 8 * np.finfo(float).eps * spread < math.inf:
                return x, n
            norms_seen.append(last)
            if n > _STALL_WINDOW:
                now = min(norms_seen)
                before = min(norms_seen[:-_STALL_WINDOW])
                if now > _STALL_FACTOR * before:
                    raise ResolventIterationError(
                        f"{name} stalled: residual {now:.3e} not below "
                        f"{_STALL_FACTOR} x {before:.3e} within "
                        f"{_STALL_WINDOW} iterations", last, n)
            p = chord_solve(r)
            if ks and k != ks[-1]:
                start = len(xs)
            elif ks and (np.linalg.norm(p - ps[-1]) * _COND_LIMIT
                         > np.linalg.norm(x - xs[-1])):
                kept.append(len(xs) - 1)
            xs.append(x)
            ps.append(p)
            ks.append(k)
            pairs = [i for i in kept if i >= start][-_ANDERSON_MEMORY:]
            dx = [xs[i + 1] - xs[i] for i in pairs]
            dp = [ps[i + 1] - ps[i] for i in pairs]
            x = x - p
            if dp:
                gamma = np.linalg.lstsq(np.column_stack(dp), p,
                                        rcond=None)[0]
                x = x - (np.column_stack(dx)
                         - np.column_stack(dp)) @ gamma
            if not np.all(np.isfinite(x)):
                raise ResolventIterationError(
                    f"{name} diverged to non-finite values", last, n)
    raise ResolventIterationError(
        f"{name} exceeded {cfg.max_inner_iters} iterations (last residual "
        f"{last:.3e} > {tol:.3e})", last, cfg.max_inner_iters)


def resolve_black_box(inst, cfg, z):
    """One call of a fresh `Resolvent`: (x, its residual evaluations)."""
    resolvent = Resolvent(inst, cfg)
    return resolvent(z), resolvent.inner_iterations


def _fault(kind, v):
    v = np.asarray(v, dtype=float)
    if kind == "nan":
        return np.full_like(v, np.nan)
    if kind in ("inf", "-inf"):
        out = v.copy()
        out[0] = float(kind)
        return out
    if kind == "2d":
        return np.outer(v, v)
    if kind == "empty":
        return np.array([])
    if kind == "long":
        return np.append(v, 1.0)
    assert kind == "list"              # well-formed, converted like before
    return v.tolist()


class _Faulty:
    """Calls `fn`, but returns a faulty image on given calls."""

    def __init__(self, fn, faults):
        self.fn, self.faults, self.calls = fn, faults, 0

    def __call__(self, *args):
        self.calls += 1
        out = self.fn(*args)
        kind = self.faults.get(self.calls)
        if kind is None:
            return out
        if isinstance(out, tuple):          # a member of M, or no member
            return () if kind == "emptyset" else \
                out[:-1] + (_fault(kind, out[-1]),)
        return _fault(kind, out)


def _black_box(seed, dim, scale, additive, two_valued, faults,
               cancel_at=None):
    """A random affine instance with its maps wrapped as callables; H is
    optionally non-additive and M optionally two-valued.  `faults` maps a
    slot to {call number: fault kind}.  With `cancel_at` a rho, g's matrix
    makes the linear part of A + B + C + D + rho*(f - g) zero, so the
    composite's images cancel down to rounding."""
    rng = np.random.default_rng(seed)
    maps = {s: AffineMap(scale * rng.standard_normal((dim, dim)),
                         rng.standard_normal(dim)) for s in SLOTS}
    if cancel_at is not None:
        total = sum(maps[s].matrix for s in "ABCD")
        maps["g"] = AffineMap(maps["f"].matrix + total / cancel_at,
                              maps["g"].offset)
    shift = rng.standard_normal(dim)
    H = AdditiveBiSlot() if additive else \
        (lambda a, b, c, d: a + b + c + d + 0.1 * np.sin(a))
    M = (lambda fu, gu: (fu - gu, fu - gu + shift)) if two_valued else \
        DifferenceCoupling()
    ops = {s: (lambda m: (lambda x: m(x)))(m) for s, m in maps.items()}
    ops["H"], ops["M"] = H, M
    for slot, at in faults.items():
        ops[slot] = _Faulty(ops[slot], at)
    zero = np.zeros((dim, dim))
    return InclusionInstance(
        space=SpaceConfig(dim=dim), F=AffinePairMap(zero, zero, np.zeros(dim)),
        S=IdentitySetMap(), T=IdentitySetMap(), omega=np.zeros(dim),
        rho=1.0, **ops)


def _outcome(fn, *args):
    try:
        x, n = fn(*args)
    except Exception as exc:                       # compared, not swallowed
        last = getattr(exc, "last_residual", None)
        return ("raised", type(exc), str(exc), repr(last),
                getattr(exc, "iterations", None))
    return ("returned", x.tobytes(), x.dtype, x.shape, n)


_FAULT = st.tuples(
    st.sampled_from(SLOTS + ("H", "M")), st.integers(1, 8),
    st.sampled_from(("nan", "inf", "-inf", "2d", "empty", "long", "list",
                     "emptyset")))


_EXAMPLE = dict(seed=0, dim=1, scale=0.3, rho=1.0, iters=25, cancel=False)
_LOOP = 3       # at dim 1 the probe makes calls 1 and 2 of each map
_LONG_RUN = _STALL_WINDOW + 20


@settings(max_examples=300, deadline=None)
# a length-2 image of A through a non-additive H: H's image is too long
@example(additive=False, two_valued=False, faults=[("A", _LOOP, "long")],
         **_EXAMPLE)
# a length-2 image of f against g's length-1 image, in the probe
@example(additive=True, two_valued=False, faults=[("f", 2, "long")],
         **_EXAMPLE)
# a 2-D image of A before a NaN image of B: A's error comes first
@example(additive=True, two_valued=False,
         faults=[("A", _LOOP, "2d"), ("B", _LOOP, "nan")], **_EXAMPLE)
# NaN in H's image before an empty M in the probe, which leaves no chord
# model, and an empty M alone in the loop
@example(additive=False, two_valued=True,
         faults=[("H", 2, "nan"), ("M", 2, "emptyset")], **_EXAMPLE)
@example(additive=True, two_valued=True, faults=[("M", _LOOP, "emptyset")],
         **_EXAMPLE)
# zero matrices: J = 0 leaves no chord model, and the call raises before
# any residual
@example(additive=True, two_valued=False, faults=[],
         **{**_EXAMPLE, "scale": 0.0, "iters": _LONG_RUN})
# a composite that cancels to rounding: the probed J is rounding noise,
# and no chord model is built on it
@example(additive=True, two_valued=False, faults=[],
         **{**_EXAMPLE, "dim": 3, "scale": 1.0, "iters": _LONG_RUN,
            "cancel": True})
# maps scaled by 1e4: the probed model follows the scale
@example(additive=True, two_valued=False, faults=[],
         **{**_EXAMPLE, "dim": 2, "scale": 1e4})
# at the small dimension: J is LU-factored, not inverted
@example(additive=False, two_valued=True, faults=[],
         **{**_EXAMPLE, "dim": _SMALL_DIM, "scale": 1.0})
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       scale=st.sampled_from([0.0, 0.3, 1.0, 1e4, 1e80, 1e160]),
       additive=st.booleans(), two_valued=st.booleans(),
       rho=st.floats(0.1, 2.0), iters=st.sampled_from([25, _LONG_RUN]),
       cancel=st.booleans(), faults=st.lists(_FAULT, max_size=2))
def test_damped_loop_matches_reference(seed, dim, scale, additive,
                                       two_valued, rho, iters, cancel,
                                       faults):
    cfg = ResolventConfig(rho=rho, max_inner_iters=iters)
    at = {}
    for slot, call, kind in faults:
        if (slot == "H" and additive) or (slot == "M" and not two_valued):
            continue                  # built-in forms: no separate call
        if kind == "emptyset" and slot != "M":
            kind = "nan"
        at.setdefault(slot, {})[call] = kind
    z = np.random.default_rng(seed + 1).standard_normal(dim)

    def run(loop):
        inst = _black_box(seed, dim, scale, additive, two_valued, at,
                          rho if cancel else None)
        return _outcome(loop, inst, cfg, z)

    assert run(resolve_black_box) == run(reference_resolve)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_opposite_infinities_raise_the_non_finite_image_error(action):
    # A and B return +inf and -inf in one coordinate at the first
    # iteration (the probe makes calls 1 to 3 at dim 2): A's image ends
    # the iteration before the two are summed (inf - inf would warn
    # "invalid value"), with that warning raised or not
    faults = {"A": {4: "inf"}, "B": {4: "-inf"}}
    cfg = ResolventConfig(rho=0.5, max_inner_iters=10)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        got, ref = (_outcome(loop, _black_box(3, 2, 1.0, True, False, faults),
                             cfg, np.ones(2))
                    for loop in (resolve_black_box, reference_resolve))
    assert got == ref
    assert got[1] is ResolventIterationError and got[4] == 1
    assert got[3] == repr(math.inf)         # no iteration completed


def _affine_and_black_box(seed, dim, kind, rho):
    """A random affine instance whose composite K = H + rho*M is "general"
    (a Gaussian matrix), "negative" (negative definite symmetric part) or
    "positive" definite, the last two with a skew part, split over A..D, f
    and g at random; the same instance with those maps as black boxes; and
    K."""
    rng = np.random.default_rng(seed)
    g, s = rng.standard_normal((2, dim, dim))
    if kind == "general":
        k = g
    else:
        sign = -1.0 if kind == "negative" else 1.0
        k = sign * (g @ g.T / dim + 0.1 * np.eye(dim)) + (s - s.T) / 2
    mats = dict(zip(("B", "C", "D", "f", "g"),
                    rng.standard_normal((5, dim, dim))))
    mats["A"] = k - mats["B"] - mats["C"] - mats["D"] \
        - rho * (mats["f"] - mats["g"])
    maps = {n: AffineMap(m, rng.standard_normal(dim)) for n, m in mats.items()}
    zero = np.zeros((dim, dim))
    inst = InclusionInstance(
        space=SpaceConfig(dim=dim), H=AdditiveBiSlot(), M=DifferenceCoupling(),
        F=AffinePairMap(zero, zero, np.zeros(dim)), S=IdentitySetMap(),
        T=IdentitySetMap(), omega=np.zeros(dim), rho=rho, **maps)
    opaque = inst.with_(**{n: (lambda m: (lambda x: m(x)))(m)
                           for n, m in maps.items()})
    return inst, opaque, k


_KINDS = ("general", "negative", "positive")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 50),
       kind=st.sampled_from(_KINDS), rho=st.floats(0.1, 2.0))
# dims past the Anderson memory, where a fixed damped step failed on
# indefinite K
@example(seed=1, dim=6, kind="general", rho=1.0)
@example(seed=2, dim=8, kind="negative", rho=0.5)
@example(seed=3, dim=8, kind="general", rho=1.5)
@example(seed=4, dim=12, kind="negative", rho=1.0)
@example(seed=6, dim=12, kind="general", rho=0.3)
@example(seed=6, dim=50, kind="general", rho=1.0)
@example(seed=6, dim=50, kind="negative", rho=1.0)
@example(seed=7, dim=50, kind="positive", rho=2.0)
# slot images that cancel: RESOLVE_TOL * max(1, ||z||) lay below the
# rounding floor of the residual, and the chord iteration stalled
@example(seed=44, dim=36, kind="general", rho=2.0)
@example(seed=10010, dim=19, kind="general", rho=2.0)
@example(seed=28131, dim=45, kind="general", rho=1.0)
@example(seed=12, dim=38, kind="general", rho=2.0)
@example(seed=110792, dim=1, kind="general", rho=2.0)
def test_damped_resolve_matches_exact_within_inner_tol(seed, dim, kind, rho):
    # the chord step on the probed model solves an affine K, definite or
    # not, at any dimension: every resolve of an invertible,
    # well-conditioned K converges, and a residual below the stopping
    # tolerance tol = RESOLVE_TOL * max(1, ||z||) puts x within
    # tol / sigma_min(K) of the exact solution; a stop at the residual's
    # rounding floor instead is within `slack` of it
    inst, opaque, k = _affine_and_black_box(seed, dim, kind, rho)
    sv = np.linalg.svd(k, compute_uv=False)
    assume(sv[0] <= 1e3 * sv[-1])
    cfg = ResolventConfig(rho=rho)
    exact, damped = Resolvent(inst, cfg), Resolvent(opaque, cfg)
    assert exact.exact and damped.path == "chord"   # K passed the exact test
    z = np.random.default_rng(seed + 1).standard_normal((3, dim))
    xd, xe = damped(z), exact(z)
    tol = RESOLVE_TOL * np.maximum(1.0, np.linalg.norm(z, axis=1))
    slack = 1e-12 * (1.0 + np.linalg.norm(xe, axis=1))
    assert np.all(np.linalg.norm(xd - xe, axis=1) <= tol / sv[-1] + slack)


def test_a_composite_cancelling_to_rounding_has_no_chord_model():
    # the probed J is rounding noise (entries of at most about 4e-16,
    # against about 3 in J_H) and happens to be well conditioned: it is
    # zero to the rule `defect` applies, so no chord model is built on it,
    # and a call raises after the dim + 1 probe evaluations, before any
    # residual
    inst = _black_box(0, 3, 1.0, True, False, {"A": {}}, cancel_at=1.0)
    resolvent = Resolvent(inst, ResolventConfig(rho=1.0))
    assert resolvent.path == "chord"
    with pytest.raises(ResolventIterationError) as exc:
        resolvent(np.ones(3))
    assert str(exc.value) == ("no chord model at rho=1.0: the probed linear "
                              "model has a zero linear part")
    assert exc.value.iterations == 0 and exc.value.last_residual == math.inf
    assert inst.A.calls == resolvent.probe_evaluations == 4
    assert resolvent.inner_iterations == 0
    k = Composite(inst.pencil.probed, 1.0)
    assert k.zero and not k.invertible
    assert k.defect()["kind"] == "zero linear part"


@pytest.mark.parametrize("c", [1e152, 1e160])
def test_black_box_resolve_past_the_overflow_of_its_norms(c):
    # a draw whose slot images cancel, with every map and z times c: past
    # about 1e154 the squares of ||H(x)||, ||m||, ||z|| and the residual
    # overflow, yet the rounding floor and the stop keep their finite
    # values, so the resolve neither stalls nor warns
    inst, opaque, _ = _affine_and_black_box(44, 36, "general", 2.0)
    cfg = ResolventConfig(rho=2.0)
    z = np.random.default_rng(45).standard_normal(36)
    big = opaque.with_(**{s: (lambda m: (lambda x: c * m(x)))(getattr(
        inst, s)) for s in SLOTS})
    want = Resolvent(opaque, cfg)(z)
    np.testing.assert_allclose(Resolvent(big, cfg)(c * z), want,
                               rtol=1e-12, atol=0)
