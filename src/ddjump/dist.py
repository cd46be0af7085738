"""Sparse probability mass functions on the integer lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KeyRangeError


class LatticeKeys:
    """Int64 keys for the lattice points of a box.

    The box is the smallest one that holds every row of the given point
    sets.  A point's key is its mixed-radix index in the box, first
    coordinate most significant (``np.ravel_multi_index`` in C order), so
    sorted keys list their points in canonical order (lexicographic, first
    coordinate major).  A box with more points than int64 can number raises
    ``KeyRangeError``.
    """

    def __init__(self, *point_sets):
        rows = np.concatenate([np.asarray(p, dtype=np.int64) for p in point_sets])
        self.lo = rows.min(axis=0)
        # Python ints, so an over-wide box cannot wrap before it is caught
        self.shape = tuple(int(b) - int(a) + 1 for a, b in zip(self.lo, rows.max(axis=0)))
        if math.prod(self.shape) > np.iinfo(np.int64).max:
            raise KeyRangeError(
                f"a lattice box of shape {self.shape} has too many points for int64 keys"
            )

    def encode(self, points):
        """Keys of the rows of ``points``; every row must lie in the box."""
        offsets = np.asarray(points, dtype=np.int64) - self.lo
        return np.ravel_multi_index(tuple(offsets.T), self.shape)

    def decode(self, keys):
        """The (n, d) int64 points of ``keys``."""
        return np.stack(np.unravel_index(keys, self.shape), axis=-1) + self.lo


@dataclass(frozen=True)
class LatticeDistribution:
    """Probability mass on distinct lattice points, canonically sorted."""

    support: np.ndarray  # (n, d) int64
    mass: np.ndarray  # (n,) float, nonnegative, sums to 1

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=float)
        if support.ndim != 2 or len(support) != len(mass):
            raise ValueError("support and mass must be parallel")
        if not np.isfinite(mass).all():
            raise ValueError("non-finite mass")
        if np.any(mass < 0):
            raise ValueError("negative mass")
        if abs(mass.sum() - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    @staticmethod
    def from_points(points, weights=None):
        """Aggregate possibly repeated lattice points into a pmf."""
        codec = LatticeKeys(points)
        uniq, inverse = np.unique(codec.encode(points), return_inverse=True)
        if weights is None:
            m = np.bincount(inverse, minlength=len(uniq)).astype(float)
        else:
            m = np.bincount(inverse, weights=np.asarray(weights, dtype=float), minlength=len(uniq))
        return LatticeDistribution(codec.decode(uniq), m / m.sum())

    @staticmethod
    def point_mass(x):
        x = np.asarray(x, dtype=np.int64).reshape(1, -1)
        return LatticeDistribution(x, np.array([1.0]))

    def __len__(self):
        return len(self.mass)
