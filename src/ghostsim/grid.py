"""Uniform 1-D grids, composite trapezoid weights and the banded row reduction.

Every integral in the package (state normalization, arm energies, the
coincidence amplitude) is a dot product with a grid's trapezoid weights;
the one 2-D quadrature, over the ridge R(x - x') of the two-photon state, is
the banded row reduction :func:`reduce_rows`.  Grids are closed intervals
that contain both endpoints; the step is defined by ``n_points - 1`` panels
so that symmetric windows place their endpoints exactly.

When the steps are in a small integer ratio, dx = p h and dx' = q h, the
differences x_i - x'_j of a block lie on one lattice d0 + h k of at most
p * rows + q * columns nodes: R is sampled once on it and the block read as
a strided view; on other grids R is evaluated entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgumentError

__all__ = [
    "Grid1D",
    "MAX_NODES",
    "make_grid",
    "reduce_rows",
]

# most rows reduced per block; bounds the block's memory
_ROW_CHUNK = 512

# dx / dx' is matched to p / q with q <= _MAX_RATIO_TERM, up to _RATIO_RTOL
_MAX_RATIO_TERM = 64
_RATIO_RTOL = 1e-13

# most nodes a grid may hold; bounds its samples, weights and reductions
MAX_NODES = 1 << 22


@dataclass(frozen=True)
class Grid1D:
    """Uniform closed-interval sampling lattice, lengths in mm."""

    center: float
    half_width: float
    n_points: int

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def samples(self) -> np.ndarray:
        x = self.lo + self.step * np.arange(self.n_points)
        # pin the endpoints exactly; linspace-style roundoff would break
        # symmetry assertions downstream
        x[-1] = self.hi
        return x

    def sample(self, i: int) -> float:
        if i < 0 or i >= self.n_points:
            raise InvalidArgumentError(f"sample index {i} outside [0, {self.n_points})")
        if i == self.n_points - 1:
            return self.hi
        return self.lo + i * self.step

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def make_grid(center: float, half_width: float, n_points: int) -> Grid1D:
    """A grid over MAX_NODES nodes is refused before anything is allocated."""
    if not (n_points <= MAX_NODES):
        raise InvalidArgumentError(f"{n_points} grid nodes exceed the budget of {MAX_NODES}")
    if not np.isfinite(center):
        raise InvalidArgumentError(f"grid center must be finite, got {center}")
    if not (half_width > 0.0) or not np.isfinite(half_width):
        raise InvalidArgumentError(f"half_width must be > 0, got {half_width}")
    if int(n_points) != n_points or n_points < 2:
        raise InvalidArgumentError(f"n_points must be an integer >= 2, got {n_points}")
    return Grid1D(float(center), float(half_width), int(n_points))


def _lattice(gx: Grid1D, gxp: Grid1D):
    """(p, q, h) with gx.step = p h and gxp.step = q h, or None."""
    for q in range(1, _MAX_RATIO_TERM + 1):
        p = round(q * gx.step / gxp.step)
        if p and abs(q * gx.step / p - gxp.step) <= _RATIO_RTOL * gxp.step:
            return p, q, gx.step / p
    return None


def _block(ridge, x, xp, idx, j0: int, j1: int, lattice) -> np.ndarray:
    """R(x_i - x'_j) on the rows idx (ascending) and columns j0..j1-1: on a
    lattice (p, q, h), R(x[idx[0]] - x'[j1-1] + h k) at k = p (i - idx[0]) +
    q (j1-1 - j), when that takes fewer samples than the block has entries."""
    cols = j1 - j0
    if lattice is not None:
        p, q, h = lattice
        rows = int(idx[-1] - idx[0]) + 1
        n = p * (rows - 1) + q * (cols - 1) + 1
        if n < idx.size * cols:
            r = np.asarray(ridge(x[idx[0]] - xp[j1 - 1] + h * np.arange(n)))
            s = r.strides[0]
            view = as_strided(r[q * (cols - 1) :], (rows, cols), (p * s, -q * s))
            return view[idx - idx[0]]
    return ridge(x[idx, np.newaxis] - xp[np.newaxis, j0:j1])


def reduce_rows(
    ridge: Callable[[np.ndarray], np.ndarray],
    left: np.ndarray,
    gx: Grid1D,
    gxp: Grid1D,
    band: float = np.inf,
) -> np.ndarray:
    """v(x'_j) = sum_i left_i R(x_i - x'_j) on gxp, for a difference kernel R.

    Only rows where ``left`` is nonzero are reduced, and for a block of them
    only the columns within ``band`` of some row in it: the caller vouches
    that R is negligible for |d| > band (``inf`` takes every column).  A
    block holds at most _ROW_CHUNK consecutive nonzero rows spanning at most
    ``band`` in x, so its column window is at most three band widths wide.

    A complex ``left`` is reduced as a stacked (re, im) pair, so a real
    ridge block is never cast to complex.  The result is complex.
    """
    left = np.asarray(left)
    parts = np.stack([left.real, left.imag]) if np.iscomplexobj(left) else left[np.newaxis]
    x = gx.samples()
    xp = gxp.samples()
    lattice = _lattice(gx, gxp)
    nz = np.flatnonzero(left)
    xs = x[nz]
    acc = np.zeros((parts.shape[0], gxp.n_points), dtype=complex)
    i = 0
    while i < nz.size:
        end = min(i + _ROW_CHUNK, int(np.searchsorted(xs, xs[i] + band, side="right")))
        j0 = int(np.searchsorted(xp, xs[i] - band, side="left"))
        j1 = int(np.searchsorted(xp, xs[end - 1] + band, side="right"))
        if j0 < j1:
            idx = nz[i:end]
            acc[:, j0:j1] += parts[:, idx] @ _block(ridge, x, xp, idx, j0, j1, lattice)
        i = end
    return acc[0] + 1j * acc[1] if acc.shape[0] == 2 else acc[0]
