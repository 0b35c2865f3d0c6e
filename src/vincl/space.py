"""Inner-product space primitives.

Vectors are plain 1-D float64 numpy arrays, validated at the boundary by
:func:`as_vector`.  The generalized duality map is realized by its
inner-product-space closed form ``J_q(x) = ||x||^(q-2) * x``, which pairs a
vector with a dual element of norm ``||x||^(q-1)`` such that
``<x, J_q(x)> = ||x||^q``.  For q = 2 the map is the identity.
"""

from dataclasses import dataclass

import numpy as np


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


def as_vector(x) -> np.ndarray:
    """Coerce `x` to a finite 1-D float64 array.

    Raises
    ------
    ValueError
        If the input is not 1-D or is empty; NonFiniteError (a ValueError)
        if it contains NaN/Inf.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(v).all():
        raise NonFiniteError("vector has non-finite coordinates")
    return v


def _check_dims(x: np.ndarray, y: np.ndarray, context: str = "") -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(x.shape[0], y.shape[0], context)


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
    xv, yv = as_vector(x), as_vector(y)
    _check_dims(xv, yv, "inner")
    return float(np.dot(xv, yv))


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


def characteristic_inequality_check(x, y, q: float, c_q: float,
                                    rtol: float = 1e-9) -> bool:
    """Check ``||x+y||^q <= ||x||^q + q<y, J_q(x)> + c_q ||y||^q``.

    Violations smaller than ``rtol * (1 + |rhs|)`` are treated as
    floating-point slack.  For q = 2, c_q = 1 the two sides are equal
    exactly, so the check always succeeds.
    """
    xv, yv = as_vector(x), as_vector(y)
    _check_dims(xv, yv, "characteristic inequality")
    lhs = float(np.linalg.norm(xv + yv)) ** q
    rhs = (norm(xv) ** q + q * float(np.dot(yv, duality_map(xv, q)))
           + c_q * norm(yv) ** q)
    return lhs <= rhs + rtol * (1.0 + abs(rhs))
