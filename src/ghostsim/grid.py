"""Uniform 1-D grids, complex sampled fields and composite trapezoid quadrature.

Every integral in the package (state normalization, arm energies, the
coincidence amplitude) is reduced to these primitives; the integrals over
the two-photon kernel go through the banded row reduction
:func:`reduce_rows`.  Grids are closed intervals that contain both
endpoints; the step is defined by ``n_points - 1`` panels so that symmetric
windows place their endpoints exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError

__all__ = [
    "Grid1D",
    "ComplexField1D",
    "make_grid",
    "integrate",
    "integrate2d",
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

    def refined(self) -> "Grid1D":
        """Same interval with every panel halved (nodes nest)."""
        return Grid1D(self.center, self.half_width, 2 * self.n_points - 1)


def make_grid(center: float, half_width: float, n_points: int) -> Grid1D:
    if not np.isfinite(center):
        raise InvalidArgumentError(f"grid center must be finite, got {center}")
    if not (half_width > 0.0) or not np.isfinite(half_width):
        raise InvalidArgumentError(f"half_width must be > 0, got {half_width}")
    if int(n_points) != n_points or n_points < 2:
        raise InvalidArgumentError(f"n_points must be an integer >= 2, got {n_points}")
    return Grid1D(float(center), float(half_width), int(n_points))


@dataclass(frozen=True)
class ComplexField1D:
    """Complex-valued function sampled on a Grid1D."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NumericDomainError(
                f"non-finite field value at x={self.grid.sample(bad)}",
                where=(self.grid.sample(bad),),
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, f: Callable[[np.ndarray], np.ndarray], grid: Grid1D) -> "ComplexField1D":
        return cls(grid, np.asarray(f(grid.samples()), dtype=complex))


def integrate(f: ComplexField1D) -> complex:
    """Composite trapezoid estimate of the integral over the grid interval.

    Linear in the samples and exact for affine integrands.
    """
    return complex(np.dot(f.grid.trapezoid_weights(), f.values))


def integrate2d(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gx: Grid1D,
    gxp: Grid1D,
    chunk: int = 256,
) -> complex:
    """Tensor-product trapezoid estimate of a 2-D integral.

    ``kernel`` must broadcast over arrays: it is called with column/row
    vectors of x and x' and returns the full block.  Evaluation is chunked
    over x to bound memory.  A non-finite kernel value aborts the integral.
    """
    x = gx.samples()
    xp = gxp.samples()[np.newaxis, :]
    wx = gx.trapezoid_weights()
    wxp = gxp.trapezoid_weights()
    total = 0.0 + 0.0j
    for i0 in range(0, gx.n_points, chunk):
        xs = x[i0 : i0 + chunk, np.newaxis]
        block = np.asarray(kernel(xs, xp), dtype=complex)
        if not np.all(np.isfinite(block.real)) or not np.all(np.isfinite(block.imag)):
            bi, bj = np.argwhere(~np.isfinite(block))[0]
            raise NumericDomainError(
                f"non-finite kernel value at (x={x[i0 + bi]}, xp={xp[0, bj]})",
                where=(float(x[i0 + bi]), float(xp[0, bj])),
            )
        total += complex(wx[i0 : i0 + chunk] @ block @ wxp)
    return total


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
