"""Uniform 1-D grids, composite trapezoid weights and the banded row reduction.

Every 1-D integral in the package is a dot product with a grid's trapezoid
weights; the one 2-D quadrature, over the ridge R(x - x') of the two-photon
state, is :func:`reduce_rows`.  Grids are closed intervals whose step is
defined by ``n_points - 1`` panels.  The reduction runs over segments of
nonzero rows and leaves every column farther than the ridge band from them
exactly 0; on grids whose steps are in a small integer ratio a segment is
one FFT correlation on the lattice of differences x_i - x'_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Grid1D",
    "MAX_NODES",
    "check_width",
    "make_grid",
    "reduce_rows",
]

# most rows of a segment evaluated entry by entry; bounds its memory
_ROW_CHUNK = 512

# most fine-lattice nodes a correlated segment spans; with the kernel length
# it bounds the transform length
_SEGMENT = 1 << 14

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

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def run(self, i0: int, i1: int) -> Grid1D:
        """Nodes i0..i1-1 (at least two) as a grid, the grid itself when
        that is every node.  Its nodes are the grid's to a few ulps, and
        exactly where the nodes and step are short binary fractions (as on
        the default grids)."""
        if i1 - i0 == self.n_points:
            return self
        # the end nodes as samples() rounds them, without sampling every node
        lo = self.lo + self.step * i0
        hi = self.lo + self.step * (i1 - 1) if i1 < self.n_points else self.hi
        return Grid1D(0.5 * (lo + hi), 0.5 * (hi - lo), i1 - i0)


def check_width(w: float, what: str) -> None:
    """Refuse a width w unless w > 0 and w^2 is finite and nonzero, so that
    exp(-x^2 / w^2) and the energies that scale with w^2 stay in range."""
    if not (w > 0.0):
        raise InvalidArgumentError(f"{what} must be > 0, got {w}")
    square = float(w) * float(w)
    if not (0.0 < square < np.inf):
        raise InvalidArgumentError(
            f"{what} = {w:g} mm has square {square:g}, outside the floating-point range"
        )


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


def _segments(xs: np.ndarray, rows: int, span: float, gap: float):
    """(start, end) index pairs into the ascending xs: runs of at most
    ``rows`` entries spanning at most ``span``, broken where consecutive
    entries lie more than ``gap`` apart."""
    breaks = [*(np.flatnonzero(np.diff(xs) > gap) + 1).tolist(), xs.size]
    i = 0
    for stop in breaks:
        while i < stop:
            end = min(stop, i + rows, int(np.searchsorted(xs, xs[i] + span, side="right")))
            yield i, end
            i = end


def _fft_size(n: int) -> int:
    """Smallest 2^a, 3 * 2^a or 5 * 2^a that is >= n."""
    return min(m << (-(-n // m) - 1).bit_length() for m in (1, 3, 5))


def _correlate(ridge, parts, x, xp, idx, j0: int, j1: int, lattice, band: float):
    """sum_i parts[:, i] R(x_i - x'_j) over the rows idx (ascending) for the
    columns j0..j1-1, as one FFT correlation on the lattice (p, q, h).

    With k = p (i - idx[0]) - q (j - j0), x_i - x'_j = d0 + h k and
    d0 = x[idx[0]] - x'[j0]: the rows sit on the fine lattice at stride p,
    R is sampled once on the k where |d0 + h k| <= band, and column j is
    the correlation at fine offset q (j - j0)."""
    p, q, h = lattice
    cols = j1 - j0
    m = p * (idx - idx[0])
    d0 = float(x[idx[0]] - xp[j0])
    k_lo = int(max(-q * (cols - 1), np.ceil((-band - d0) / h)))
    k_hi = int(min(m[-1], np.floor((band - d0) / h)))
    if k_hi - k_lo + 1 > MAX_NODES:
        raise InvalidArgumentError(
            f"the ridge kernel needs {k_hi - k_lo + 1} samples, over the budget of "
            f"{MAX_NODES}; bound the ridge width or use smaller grids"
        )
    out = np.zeros((parts.shape[0], cols), dtype=complex)
    if k_lo > k_hi:
        return out
    kernel = np.asarray(ridge(d0 + h * np.arange(k_lo, k_hi + 1)))
    rows = np.zeros((parts.shape[0], int(m[-1]) + 1))
    rows[:, m] = parts[:, idx]
    # full linear convolution of the rows with the reversed kernel: entry n
    # holds sum_m rows[m] R(d0 + h (k_hi - n + m)), column j sits at
    # n = k_hi + q (j - j0)
    n = rows.shape[1] + kernel.size - 1
    size = _fft_size(n)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if np.isrealobj(kernel) else (np.fft.fft, np.fft.ifft)
    conv = ifft(fft(rows, size) * fft(kernel[::-1], size), size)
    c0 = max(0, -(k_hi // q))
    c1 = min(cols, (n - 1 - k_hi) // q + 1)
    if c0 < c1:
        out[:, c0:c1] = conv[:, k_hi + q * c0 : k_hi + q * (c1 - 1) + 1 : q]
    return out


def reduce_rows(
    ridge: Callable[[np.ndarray], np.ndarray],
    left: np.ndarray,
    gx: Grid1D,
    gxp: Grid1D,
    band: float = np.inf,
) -> np.ndarray:
    """v(x'_j) = sum_i left_i R(x_i - x'_j) on gxp, for a difference kernel R.

    Only rows where ``left`` is nonzero are reduced, in segments: a gap of
    more than 2 ``band`` between nonzero rows starts a new one.  Each
    segment writes only the columns within ``band`` of its first and last
    rows; the caller vouches that R is negligible for |d| > band (``inf``
    takes every column).  Columns farther than ``band`` from every nonzero
    row are therefore exactly 0.

    On a lattice (dx = p h, dx' = q h) a segment spans at most _SEGMENT
    fine nodes and is one FFT correlation with R sampled once where
    |d| <= band; a kernel of more than MAX_NODES samples is refused.  On
    other grids a segment holds at most _ROW_CHUNK rows spanning at most
    ``band`` (at most MAX_NODES entries in all) and R is evaluated entry by
    entry.

    A complex ``left`` is reduced as a stacked (re, im) pair, so a real
    ridge is never cast to complex.  The result is complex.
    """
    left = np.asarray(left)
    parts = np.stack([left.real, left.imag]) if np.iscomplexobj(left) else left[np.newaxis]
    x = gx.samples()
    xp = gxp.samples()
    lattice = _lattice(gx, gxp)
    nz = np.flatnonzero(left)
    xs = x[nz]
    acc = np.zeros((parts.shape[0], gxp.n_points), dtype=complex)
    if lattice is None:
        chunk, span = max(1, min(_ROW_CHUNK, MAX_NODES // gxp.n_points)), band
    else:
        chunk, span = nz.size, _SEGMENT * lattice[2]
    for i, end in _segments(xs, chunk, span, 2.0 * band):
        j0 = int(np.searchsorted(xp, xs[i] - band, side="left"))
        j1 = int(np.searchsorted(xp, xs[end - 1] + band, side="right"))
        if j0 < j1:
            idx = nz[i:end]
            if lattice is None:
                acc[:, j0:j1] += parts[:, idx] @ ridge(x[idx, np.newaxis] - xp[np.newaxis, j0:j1])
            else:
                acc[:, j0:j1] += _correlate(ridge, parts, x, xp, idx, j0, j1, lattice, band)
    return acc[0] + 1j * acc[1] if acc.shape[0] == 2 else acc[0]
