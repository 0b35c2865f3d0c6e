"""Inner-product space primitives.

Vectors are plain 1-D float64 numpy arrays, validated at the boundary by
:func:`as_vector`.  The generalized duality map is realized by its
inner-product-space closed form ``J_q(x) = ||x||^(q-2) * x``, which pairs a
vector with a dual element of norm ``||x||^(q-1)`` such that
``<x, J_q(x)> = ||x||^q``.  For q = 2 the map is the identity.
"""

from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9          # the relative tolerance of every verdict; see `slack`
DEGENERATE = 1e-12      # sample pairs closer than this carry no evidence
RESOLVE_TOL = 1e-13     # black-box resolves of z stop at this * max(1, ||z||)


def slack(size, spread=0.0):
    """REL_TOL * |size| + eps * |spread|, elementwise: the violation a
    comparison ignores as rounding.  `size` is the magnitude of the numbers
    compared, `spread` that of the operands rounded before a subtraction
    cancelled them.  Both scale with the maps, so no verdict does."""
    return REL_TOL * np.abs(size) + np.finfo(float).eps * np.abs(spread)


class ConfigError(ValueError):
    """A configuration value (rho, a tolerance, a count) out of range, or
    an instance source that names no instance or cannot be read."""


class DimensionMismatchError(ValueError):
    """Two vectors (or a vector and an operator) of different dimensions."""

    def __init__(self, dim_x: int, dim_y: int, context: str = ""):
        msg = f"dimension mismatch: {dim_x} vs {dim_y}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.dims = (dim_x, dim_y)


class InvalidExponentError(ValueError):
    """Smoothness exponent q must be > 1."""


class NonFiniteError(ValueError):
    """A vector with NaN or Inf coordinates."""


class EmptySetError(ValueError):
    """A set-valued map produced (or was given) an empty value set."""


def as_vector(x, dim: int | None = None, context: str = "") -> np.ndarray:
    """Coerce `x` to a finite 1-D float64 array, of length `dim` when
    given: the one check of a vector of the space.

    Raises
    ------
    ValueError
        If the input is not 1-D or is empty; NonFiniteError (a ValueError)
        if it contains NaN/Inf; DimensionMismatchError(dim, len, context)
        if its length is not `dim` (numpy would broadcast a length-1
        vector against a longer one).
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("empty vector")
    # argmin finds a False if there is one, without the Python-level
    # `ndarray.all`; a dot product would be faster but warns on overflow
    finite = np.isfinite(v)
    if not finite[finite.argmin()]:
        raise NonFiniteError("vector has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(dim, v.shape[0], context)
    return v


def as_rows(vectors, dim: int | None = None, context: str = "") -> np.ndarray:
    """The batch form of `as_vector`: `vectors` as the rows of one finite
    (k, dim) float64 array, with the same errors, and EmptySetError when
    there are none."""
    rows = vectors if isinstance(vectors, np.ndarray) else list(vectors)
    if not len(rows):
        raise EmptySetError(f"empty set of vectors ({context})" if context
                            else "empty set of vectors")
    try:
        out = np.asarray(rows, dtype=float)
    except ValueError:          # rows of different lengths
        out = None
    if out is None or out.ndim != 2 or out.shape[1] == 0:
        n = dim
        for row in rows:        # the first malformed row raises
            n = as_vector(row, n, context).shape[0]
    if not np.isfinite(out).all():
        raise NonFiniteError("batch has non-finite coordinates")
    if dim is not None and out.shape[1] != dim:
        raise DimensionMismatchError(dim, out.shape[1], context)
    return out


@dataclass(frozen=True)
class SpaceConfig:
    """Ambient-space parameters.

    dim
        Dimension of the space.
    q
        Smoothness exponent, q > 1.
    c_q
        Constant of the characteristic inequality
        ``||x+y||^q <= ||x||^q + q<y, J_q(x)> + c_q ||y||^q``.
        For q = 2 in an inner-product space c_q = 1 makes the inequality
        an exact expansion, hence the default.
    """

    dim: int
    q: float = 2.0
    c_q: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.q > 1.0:
            raise InvalidExponentError(f"q must be > 1, got {self.q}")
        if not self.c_q > 0.0:
            raise ValueError(f"c_q must be > 0, got {self.c_q}")


def inner(x, y) -> float:
    """Euclidean inner product sum_i x_i * y_i."""
    xv = as_vector(x)
    return float(np.dot(xv, as_vector(y, xv.shape[0], "inner")))


def norm(x) -> float:
    """Euclidean norm ||x|| = sqrt(<x, x>)."""
    return float(np.linalg.norm(as_vector(x)))


def duality_map(x, q: float) -> np.ndarray:
    """Generalized duality map ``J_q(x) = ||x||^(q-2) * x``.

    Extended continuously by J_q(0) = 0.  Satisfies
    ``<x, J_q(x)> = ||x||^q`` and ``||J_q(x)|| = ||x||^(q-1)``.

    Raises
    ------
    InvalidExponentError
        If q <= 1.
    """
    if not q > 1.0:
        raise InvalidExponentError(f"q must be > 1, got {q}")
    xv = as_vector(x)
    n = np.linalg.norm(xv)
    if n == 0.0:
        return np.zeros_like(xv)
    return n ** (q - 2.0) * xv


def characteristic_inequality_check(x, y, q: float, c_q: float) -> bool:
    """Check ``||x+y||^q <= ||x||^q + q<y, J_q(x)> + c_q ||y||^q``.

    Violations within `slack` of the size of the right-hand terms,
    ``||x||^q + q|<y, J_q(x)>| + c_q ||y||^q``, are floating-point slack.
    For q = 2, c_q = 1 the two sides are equal exactly, so the check always
    succeeds.
    """
    xv = as_vector(x)
    yv = as_vector(y, xv.shape[0], "characteristic inequality")
    lhs = float(np.linalg.norm(xv + yv)) ** q
    nx, pair, ny = (norm(xv) ** q, q * float(np.dot(yv, duality_map(xv, q))),
                    c_q * norm(yv) ** q)
    return bool(lhs <= nx + pair + ny + slack(nx + abs(pair) + ny))
