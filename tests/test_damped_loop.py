"""The damped resolvent loop against a reference loop that validates
every map image with `as_vector` through `eval_H_on_point` and
`eval_M_on_point`: same iterates bit for bit, and the same error (type,
message, last residual, iteration count) when a map returns a NaN, an
Inf, a 2-D, an empty or a wrong-length image, or M an empty set."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vincl.operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    DifferenceCoupling,
    IdentitySetMap,
    InclusionInstance,
    eval_H_on_point,
    eval_M_on_point,
)
from vincl.resolvent import (
    ResolventConfig,
    ResolventIterationError,
    _resolve_damped,
)
from vincl.space import NonFiniteError, SpaceConfig

SLOTS = ("A", "B", "C", "D", "f", "g")


def reference_resolve_damped(inst, cfg, z, lam):
    """The damped loop with every image checked by `as_vector`; it also
    returns and raises with the number of iterations run."""
    x = np.array(z, dtype=float)
    last = np.inf
    with np.errstate(over="ignore"):
        for n in range(1, cfg.max_inner_iters + 1):
            try:
                hx = eval_H_on_point(inst, x)
                m_vals = eval_M_on_point(inst, x)
            except NonFiniteError:
                raise ResolventIterationError(
                    "damped fixed-point iteration diverged: a map image "
                    "is non-finite", last, n) from None
            residuals = [hx + cfg.rho * m - z for m in m_vals]
            norms = [float(np.linalg.norm(r)) for r in residuals]
            k = int(np.argmin(norms))
            last = norms[k]
            if last <= cfg.inner_tol:
                return x, n
            x = x - lam * residuals[k]
            if not (math.isfinite(last) and np.all(np.isfinite(x))):
                raise ResolventIterationError(
                    "damped fixed-point iteration diverged to non-finite "
                    "values", last, n)
    raise ResolventIterationError(
        f"damped fixed-point iteration exceeded {cfg.max_inner_iters} "
        f"iterations (last residual {last:.3e} > {cfg.inner_tol:.3e})", last,
        cfg.max_inner_iters)


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


def _black_box(seed, dim, scale, additive, two_valued, faults):
    """A random affine instance with its maps wrapped as callables; H is
    optionally non-additive and M optionally two-valued.  `faults` maps a
    slot to {call number: fault kind}."""
    rng = np.random.default_rng(seed)
    maps = {s: AffineMap(scale * rng.standard_normal((dim, dim)),
                         rng.standard_normal(dim)) for s in SLOTS}
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
    st.sampled_from(SLOTS + ("H", "M")), st.integers(1, 4),
    st.sampled_from(("nan", "inf", "-inf", "2d", "empty", "long", "list",
                     "emptyset")))


_EXAMPLE = dict(seed=0, dim=1, scale=0.3, rho=1.0, lam=0.5, tol=1e-12)


@settings(max_examples=300, deadline=None)
# a length-2 image of A broadcast through H into the dim-1 iterate
@example(additive=False, two_valued=False, faults=[("A", 1, "long")],
         **_EXAMPLE)
# a 2-D image of A before a NaN image of B: A's error comes first
@example(additive=True, two_valued=False,
         faults=[("A", 2, "2d"), ("B", 2, "nan")], **_EXAMPLE)
# NaN in H's image before an empty M, and an empty M alone
@example(additive=False, two_valued=True,
         faults=[("H", 2, "nan"), ("M", 2, "emptyset")], **_EXAMPLE)
@example(additive=True, two_valued=True, faults=[("M", 3, "emptyset")],
         **_EXAMPLE)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       scale=st.sampled_from([0.3, 1.0, 1e80, 1e160]),
       additive=st.booleans(), two_valued=st.booleans(),
       rho=st.floats(0.1, 2.0), lam=st.floats(0.01, 0.5),
       tol=st.sampled_from([1e-12, 1e-3, 10.0]),
       faults=st.lists(_FAULT, max_size=2))
def test_damped_loop_matches_reference(seed, dim, scale, additive,
                                       two_valued, rho, lam, tol, faults):
    cfg = ResolventConfig(rho=rho, max_inner_iters=25, inner_tol=tol)
    at = {}
    for slot, call, kind in faults:
        if (slot == "H" and additive) or (slot == "M" and not two_valued):
            continue                  # built-in forms: no separate call
        if kind == "emptyset" and slot != "M":
            kind = "nan"
        at.setdefault(slot, {})[call] = kind
    z = np.random.default_rng(seed + 1).standard_normal(dim)

    def run(loop):
        inst = _black_box(seed, dim, scale, additive, two_valued, at)
        return _outcome(loop, inst, cfg, z, lam)

    assert run(_resolve_damped) == run(reference_resolve_damped)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_opposite_infinities_raise_the_non_finite_image_error(action):
    # A and B return +inf and -inf in one coordinate: the reference stops
    # at A's image, _resolve_damped sums them first (inf - inf warns
    # "invalid value"); with that warning raised or not, the error is the
    # same
    faults = {"A": {2: "inf"}, "B": {2: "-inf"}}
    cfg = ResolventConfig(rho=0.5, max_inner_iters=10)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        got, ref = (_outcome(loop, _black_box(3, 2, 1.0, True, False, faults),
                             cfg, np.ones(2), 0.1)
                    for loop in (_resolve_damped, reference_resolve_damped))
    assert got == ref
    assert got[1] is ResolventIterationError and got[4] == 2
