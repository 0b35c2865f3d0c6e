"""The lifted family: a small affine instance copied into a large space.

`lift(named, dim, seed)` replaces every matrix `m` of the instance by
`Q kron(I_k, m) Q^T`, with `k = dim / named.dim` diagonal copies and `Q` a
seeded random orthogonal matrix.  Orthogonal conjugation of block-diagonal
copies keeps eigenvalues of symmetric parts, singular values and
generalized eigenvalues, so every declared constant and the `expected`
block of the small instance stay exact.

With `blackbox=True` the single-valued maps A..D, f, g and the pair map F
are wrapped in plain Python callables: vincl then finds no affine
realization and takes its sampled certificate and damped resolvent paths.
"""

from dataclasses import dataclass

import numpy as np

from vincl import (
    AffineMap,
    AffinePairMap,
    IdentitySetMap,
    InclusionInstance,
    NamedInstance,
    SingletonSetMap,
    SpaceConfig,
)

MAP_SLOTS = ("A", "B", "C", "D", "f", "g")


@dataclass(frozen=True, eq=False)
class Lifted:
    """A lifted instance with the basis that embeds base-space vectors."""

    name: str
    instance: InclusionInstance
    expected: dict
    basis: np.ndarray
    copies: int

    def embed(self, x) -> np.ndarray:
        """Norm-preserving image of a base-space vector: Q tile(x) / sqrt(k)."""
        return self.basis @ np.tile(np.asarray(x, dtype=float),
                                    self.copies) / np.sqrt(self.copies)


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix from a seeded Gaussian QR."""
    z = np.random.default_rng(seed).standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def _opaque_map(m):
    return lambda x: m(x)


def _opaque_pair(F):
    return lambda x, y: F(x, y)


def lift(named: NamedInstance, dim: int, seed: int,
         blackbox: bool = False) -> Lifted:
    inst = named.instance
    if dim % inst.dim:
        raise ValueError(f"dim {dim} is not a multiple of {inst.dim}")
    k = dim // inst.dim
    q = random_orthogonal(dim, seed)
    eye = np.eye(k)

    def conj(mat):
        return q @ np.kron(eye, mat) @ q.T

    def vec(v):
        return q @ np.tile(v, k)

    def lift_map(m):
        lifted = AffineMap(conj(m.matrix), vec(m.offset))
        return _opaque_map(lifted) if blackbox else lifted

    def lift_set_map(s):
        if isinstance(s, IdentitySetMap):
            return s
        if isinstance(s, SingletonSetMap) and isinstance(s.map, AffineMap):
            return SingletonSetMap(lift_map(s.map))
        raise ValueError(f"cannot lift set-valued map {s!r}")

    F = AffinePairMap(conj(inst.F.first), conj(inst.F.second),
                      vec(inst.F.offset))
    lifted = inst.with_(
        space=SpaceConfig(dim=dim, q=inst.space.q, c_q=inst.space.c_q),
        F=_opaque_pair(F) if blackbox else F,
        S=lift_set_map(inst.S), T=lift_set_map(inst.T),
        omega=vec(inst.omega),
        **{slot: lift_map(getattr(inst, slot)) for slot in MAP_SLOTS})
    suffix = "-blackbox" if blackbox else ""
    return Lifted(f"{named.name}@{dim}{suffix}", lifted, named.expected,
                  q, k)
