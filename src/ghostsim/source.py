"""Two-photon wavefunction models.

The Gaussian source

    phi(x, x') = C * exp(-(x^2 + x'^2) / a^2) * exp(-(x - x')^2 / b^2)

is the default model: ``a`` sets the source size, ``b`` the entanglement
width.  Arbitrary externally computed wavefunctions can be supplied as
bilinear-interpolated tables.

A state is an unnormalized kernel times one scalar amplitude ``c_norm``.
:func:`normalize` computes the quadrature of |kernel|^2 and sets ``c_norm``;
:meth:`TwoPhotonState.reduce` applies ``c_norm`` once to the reduced vector,
so no evaluator is ever wrapped.  Both integrals go through the banded row
reduction :func:`ghostsim.grid.reduce_rows`.  The Gaussian kernel is real
and a ridge of width ``b`` about x = x': since its envelope
exp(-(x^2 + x'^2) / a^2) is at most 1, every entry with

    |x - x'| > b * sqrt(ln(1 / RIDGE_EPS))   (about 6.44 b)

is below RIDGE_EPS times the kernel peak and is not evaluated; |phi|^2 is a
ridge of width b / sqrt(2).  Tabulated and matched states have no ridge
(``ridge_width`` is infinite) and take the same reduction over every
column.  The closed-form Gaussian norm lives in :mod:`ghostsim.analytic` and
is used only for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf, isfinite, log, sqrt
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError, TruncationError
from .grid import Grid1D, Table2D, make_grid, reduce_rows

__all__ = [
    "TwoPhotonState",
    "gaussian_wavefunction",
    "normalize",
    "tabulated_wavefunction",
    "default_certification_grid",
]

# |phi|^2 at the window edge must be below this fraction of the peak for a
# grid to count as covering the support
EDGE_FRACTION = 1e-8

NORM_TOL = 1e-6

# kernel entries below this fraction of the kernel peak are dropped from the
# banded reduction; see the module docstring for the band it implies
RIDGE_EPS = 1e-18


def _band(ridge_width: float) -> float:
    """Half-width in |x - x'| outside which a kernel bounded by
    peak * exp(-(x - x')^2 / ridge_width^2) is below RIDGE_EPS * peak."""
    return ridge_width * sqrt(log(1.0 / RIDGE_EPS))


@dataclass(frozen=True)
class TwoPhotonState:
    """The entangled-pair wavefunction phi(x, x') = c_norm * kernel(x, x').

    ``kernel`` broadcasts over numpy arrays.  ``ridge_width`` w states that
    |kernel(x, x')| <= peak * exp(-(x - x')^2 / w^2), with ``inf`` for a
    kernel without a ridge.  ``norm_certified`` records that |phi|^2
    integrates to 1 (within ``NORM_TOL``) on the certification grids stored
    in the descriptor.
    """

    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    norm_certified: bool
    descriptor: dict
    c_norm: complex = 1.0
    ridge_width: float = inf

    def evaluate(self, x, xp) -> np.ndarray:
        """phi(x, x'), broadcast over numpy arrays."""
        return self.c_norm * self.kernel(x, xp)

    def reduce(self, left: np.ndarray, gx: Grid1D, gxp: Grid1D) -> np.ndarray:
        """sum_x left(x) phi(x, x') on gxp, over the nonzero entries of left."""
        rows = reduce_rows(self.kernel, left, gx, gxp, _band(self.ridge_width))
        return self.c_norm * rows

    def scaled(self, factor: complex) -> "TwoPhotonState":
        return replace(self, c_norm=factor * self.c_norm, norm_certified=False)


def gaussian_wavefunction(a: float, b: float) -> TwoPhotonState:
    """Unnormalized Gaussian source (amplitude constant C = 1)."""
    if not (a > 0.0):
        raise InvalidArgumentError(f"source size a must be > 0, got {a}")
    if not (b > 0.0):
        raise InvalidArgumentError(f"entanglement width b must be > 0, got {b}")

    def kernel(x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        # the exponent is built in place on its one block-sized temporary
        e = x - xp
        e *= e
        e /= -(b**2)
        e -= x**2 / a**2
        e -= xp**2 / a**2
        return np.exp(e)

    return TwoPhotonState(
        kernel=kernel,
        norm_certified=False,
        descriptor={"kind": "gaussian", "a_mm": float(a), "b_mm": float(b)},
        ridge_width=float(b),
    )


def default_certification_grid(a: float, b: float) -> Grid1D:
    """Window [-4a, 4a] with a step fine enough to resolve the (x - x')
    entanglement ridge of width ~b."""
    half_width = 4.0 * a
    n = int(np.ceil(2.0 * half_width / (b / 6.0))) + 1
    return make_grid(0.0, half_width, max(n, 257))


def _norm_integral(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> float:
    def abs2(x, xp):
        return np.abs(state.kernel(x, xp)) ** 2

    band = _band(state.ridge_width / sqrt(2.0))
    rows = reduce_rows(abs2, gx.trapezoid_weights(), gx, gxp, band)
    return abs(state.c_norm) ** 2 * float((rows @ gxp.trapezoid_weights()).real)


def _check_support_coverage(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> None:
    x = gx.samples()
    xp = gxp.samples()
    # sample the four boundary lines and the diagonal through the bulk
    edges = [
        np.abs(state.evaluate(np.full_like(xp, gx.lo), xp)),
        np.abs(state.evaluate(np.full_like(xp, gx.hi), xp)),
        np.abs(state.evaluate(x, np.full_like(x, gxp.lo))),
        np.abs(state.evaluate(x, np.full_like(x, gxp.hi))),
    ]
    edge_peak = max(float(e.max()) for e in edges)
    bulk = np.abs(state.evaluate(x, np.linspace(gxp.lo, gxp.hi, x.size)))
    peak = float(bulk.max())
    if peak == 0.0:
        return  # zero norm is reported separately
    if edge_peak**2 > EDGE_FRACTION * peak**2:
        raise TruncationError(
            f"wavefunction not negligible at the grid boundary: |phi|^2 edge/peak "
            f"= {edge_peak**2 / peak**2:.3e} > {EDGE_FRACTION:.0e}"
        )


def normalize(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> TwoPhotonState:
    """Rescale so that the quadrature of |phi|^2 over (gx, gxp) equals 1.

    A non-finite norm (a NaN or inf kernel value, or an overflowing
    quadrature) is a numeric error.  The returned state carries
    ``norm_certified=True`` and the rescaled
    amplitude ``c_norm``, which its descriptor records next to the
    certification grids.
    """
    _check_support_coverage(state, gx, gxp)
    norm = _norm_integral(state, gx, gxp)
    if not isfinite(norm):
        raise NumericDomainError(f"wavefunction norm {norm} on the given grids is not finite")
    if norm <= 0.0:
        raise InvalidArgumentError("wavefunction has zero norm on the given grids")
    c_norm = state.c_norm / sqrt(norm)
    descriptor = dict(state.descriptor)
    descriptor["c_norm"] = c_norm
    descriptor["certification"] = {
        "gx": (gx.center, gx.half_width, gx.n_points),
        "gxp": (gxp.center, gxp.half_width, gxp.n_points),
    }
    return replace(state, c_norm=c_norm, norm_certified=True, descriptor=descriptor)


def tabulated_wavefunction(gx: Grid1D, gxp: Grid1D, values: np.ndarray) -> TwoPhotonState:
    """Wavefunction given by samples on a grid cross-product.

    Bilinear interpolation inside the domain, zero outside.  Not
    norm-certified until :func:`normalize` is applied.
    """
    table = Table2D(gx, gxp, values)
    return TwoPhotonState(
        kernel=table,
        norm_certified=False,
        descriptor={"kind": "tabulated", "shape": (gx.n_points, gxp.n_points)},
    )
