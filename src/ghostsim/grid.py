"""Uniform 1-D grids, composite trapezoid weights and the banded row reduction.

Every integral in the package (state normalization, arm energies, the
coincidence amplitude) is a dot product with a grid's trapezoid weights;
the one 2-D quadrature, over the two-photon kernel, is the banded row
reduction :func:`reduce_rows`.  Grids are closed intervals that contain both
endpoints; the step is defined by ``n_points - 1`` panels so that symmetric
windows place their endpoints exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Grid1D",
    "make_grid",
    "reduce_rows",
    "Table2D",
]

# most kernel rows evaluated per block; bounds the block's memory
_ROW_CHUNK = 512


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
    if not np.isfinite(center):
        raise InvalidArgumentError(f"grid center must be finite, got {center}")
    if not (half_width > 0.0) or not np.isfinite(half_width):
        raise InvalidArgumentError(f"half_width must be > 0, got {half_width}")
    if int(n_points) != n_points or n_points < 2:
        raise InvalidArgumentError(f"n_points must be an integer >= 2, got {n_points}")
    return Grid1D(float(center), float(half_width), int(n_points))


def reduce_rows(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    left: np.ndarray,
    gx: Grid1D,
    gxp: Grid1D,
    band: float = np.inf,
) -> np.ndarray:
    """v(x'_j) = sum_i left_i kernel(x_i, x'_j) on gxp.

    Only rows where ``left`` is nonzero are evaluated, and for a block of
    them only the columns within ``band`` of some row in it: the caller
    vouches that the kernel is negligible for |x - x'| > band (``inf``
    evaluates every column).  A block holds at most _ROW_CHUNK consecutive
    nonzero rows spanning at most ``band`` in x, so its column window is at
    most three band widths wide.

    A complex ``left`` is reduced as a stacked (re, im) pair, so a real
    kernel block is never cast to complex.  The result is complex.
    """
    left = np.asarray(left)
    parts = np.stack([left.real, left.imag]) if np.iscomplexobj(left) else left[np.newaxis]
    x = gx.samples()
    xp = gxp.samples()
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
            block = kernel(x[idx, np.newaxis], xp[np.newaxis, j0:j1])
            acc[:, j0:j1] += parts[:, idx] @ block
        i = end
    return acc[0] + 1j * acc[1] if acc.shape[0] == 2 else acc[0]


class Table2D:
    """Bilinear interpolation of a complex table on a grid cross-product,
    with zero extension outside the domain."""

    def __init__(self, gx: Grid1D, gxp: Grid1D, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (gx.n_points, gxp.n_points):
            raise InvalidArgumentError(
                f"table shape {values.shape} does not match grids "
                f"({gx.n_points}, {gxp.n_points})"
            )
        self.gx = gx
        self.gxp = gxp
        self.values = values

    def __call__(self, x, xp) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        x, xp = np.broadcast_arrays(x, xp)
        fx = (x - self.gx.lo) / self.gx.step
        fy = (xp - self.gxp.lo) / self.gxp.step
        inside = (fx >= 0) & (fx <= self.gx.n_points - 1) & (fy >= 0) & (fy <= self.gxp.n_points - 1)
        fx = np.clip(fx, 0.0, self.gx.n_points - 1)
        fy = np.clip(fy, 0.0, self.gxp.n_points - 1)
        i = np.minimum(fx.astype(int), self.gx.n_points - 2)
        j = np.minimum(fy.astype(int), self.gxp.n_points - 2)
        tx = fx - i
        ty = fy - j
        v = (
            self.values[i, j] * (1 - tx) * (1 - ty)
            + self.values[i + 1, j] * tx * (1 - ty)
            + self.values[i, j + 1] * (1 - tx) * ty
            + self.values[i + 1, j + 1] * tx * ty
        )
        return np.where(inside, v, 0.0 + 0.0j)
