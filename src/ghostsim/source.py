"""Two-photon wavefunction models.

A state is phi(x, x') = c_norm * f(x) * g(x') * R(x - x'): two envelopes, a
ridge that depends only on x - x' and one scalar amplitude ``c_norm``.  The
Gaussian source, the default model, has f = g = exp(-x^2 / a^2) and
R(d) = exp(-d^2 / b^2): ``a`` sets the source size, ``b`` the entanglement
width.  A separable state, such as the validation suite's matched state, has
R = 1 (``ridge`` is None).

:func:`normalize` sets ``c_norm`` from the quadrature of |phi|^2 and records
its grids as the state's ``certification``; :meth:`TwoPhotonState.reduce`
applies ``c_norm`` once to the reduced vector.  Both
fold f into the left vector, reduce R with :func:`ghostsim.grid.reduce_rows`
(a plain sum when R = 1) and multiply the result by g.  When the grid steps
are in a small integer ratio, as on every grid the package builds, that
reduction is an FFT correlation on the lattice of differences x_i - x'_j,
one per segment of nonzero rows, with R sampled once per segment (a real
transform for the real |R|^2 and weights of the norm).  R values with
|d| > b * sqrt(ln(1 / RIDGE_EPS)) (about 6.44 b) are below RIDGE_EPS times
its peak and are not evaluated, and a column of the result farther than that
from every nonzero row is exactly 0; |R|^2 has width b / sqrt(2).  A ridge
with no width bound (``ridge_width = inf``) whose kernel would exceed
MAX_NODES samples is refused with InvalidArgumentError.  The closed-form
Gaussian norm in :mod:`ghostsim.analytic` is used only for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf, isfinite, log, sqrt
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError, TruncationError
from .grid import MAX_NODES, Grid1D, check_width, make_grid, reduce_rows

__all__ = [
    "TwoPhotonState",
    "gaussian_wavefunction",
    "normalize",
    "default_certification_grid",
]

# |phi|^2 at the window edge must be below this fraction of the peak for a
# grid to count as covering the support
EDGE_FRACTION = 1e-8

NORM_TOL = 1e-6

# ridge values below this fraction of the ridge peak are dropped from the
# banded reduction; see the module docstring for the band it implies
RIDGE_EPS = 1e-18


def _band(ridge_width: float) -> float:
    """|d| beyond which R <= peak * exp(-d^2 / ridge_width^2) is below RIDGE_EPS * peak."""
    return ridge_width * sqrt(log(1.0 / RIDGE_EPS))


def _times(envelope: Callable, values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """values * envelope(grid nodes), evaluated only where values is nonzero."""
    nz = np.flatnonzero(values)
    e = envelope(grid.samples()[nz])
    out = np.zeros(values.shape, dtype=np.result_type(values, e))
    out[nz] = values[nz] * e
    return out


@dataclass(frozen=True)
class TwoPhotonState:
    """The entangled-pair wavefunction phi(x, x') = c_norm * f(x) * g(x') * R(x - x').

    ``f``, ``g`` and ``ridge`` (R, or None for R = 1) broadcast over numpy
    arrays; |R(d)| <= peak * exp(-d^2 / ridge_width^2) and |f(x)|, |g(x)|
    <= peak * exp(-x^2 / envelope_width^2) (``inf``: no bound).
    ``certification`` holds the grids (gx, gxp) on which |phi|^2 integrates
    to 1 within ``NORM_TOL``; None until :func:`normalize` sets it.
    """

    f: Callable
    g: Callable
    c_norm: complex = 1.0
    ridge: Callable | None = None
    ridge_width: float = inf
    envelope_width: float = inf
    certification: tuple[Grid1D, Grid1D] | None = None

    def evaluate(self, x, xp) -> np.ndarray:
        """phi(x, x'), broadcast over numpy arrays."""
        x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
        phi = self.c_norm * self.f(x) * self.g(xp)
        return phi if self.ridge is None else phi * self.ridge(x - xp)

    def reduce(self, left: np.ndarray, gx: Grid1D, gxp: Grid1D) -> np.ndarray:
        """sum_x left(x) phi(x, x') on gxp: f folded into left, R reduced over
        its nonzero entries (a plain sum when R = 1), then times g."""
        left = _times(self.f, left, gx)
        if self.ridge is None:
            rows = np.full(gxp.n_points, left.sum())
        else:
            rows = reduce_rows(self.ridge, left, gx, gxp, _band(self.ridge_width))
        return self.c_norm * _times(self.g, rows, gxp)

    def scaled(self, factor: complex) -> "TwoPhotonState":
        return replace(self, c_norm=factor * self.c_norm, certification=None)


def gaussian_wavefunction(a: float, b: float) -> TwoPhotonState:
    """Unnormalized Gaussian source (amplitude constant C = 1)."""
    check_width(a, "source size a")
    check_width(b, "entanglement width b")

    def envelope(x):
        return np.exp(np.square(x) / -(a * a))

    def ridge(d):
        return np.exp(np.square(d) / -(b * b))

    return TwoPhotonState(
        f=envelope, g=envelope, ridge=ridge, ridge_width=float(b), envelope_width=float(a)
    )


def default_certification_grid(a: float, b: float) -> Grid1D:
    """Window [-4a, 4a] with a step fine enough to resolve the (x - x')
    entanglement ridge of width ~b, refused over MAX_NODES nodes."""
    half_width = 4.0 * a
    n = np.ceil(2.0 * half_width / (b / 6.0)) + 1.0
    if not (n <= MAX_NODES):
        raise InvalidArgumentError(
            f"the certification grid for source.a_mm = {a:g}, source.b_mm = {b:g} needs "
            f"{n:.3g} nodes, over the budget of {MAX_NODES}; lower a_mm or raise b_mm"
        )
    return make_grid(0.0, half_width, max(int(n), 257))


def _norm_integral(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> float:
    def abs2(fn):
        return None if fn is None else lambda s: np.abs(fn(s)) ** 2

    density = replace(
        state, f=abs2(state.f), g=abs2(state.g), ridge=abs2(state.ridge),
        ridge_width=state.ridge_width / sqrt(2.0), c_norm=abs(state.c_norm) ** 2,
    )
    rows = density.reduce(gx.trapezoid_weights(), gx, gxp)
    return float((rows @ gxp.trapezoid_weights()).real)


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

    A non-finite norm (a NaN or inf envelope or ridge value, or an
    overflowing quadrature) is a numeric error.  The returned state carries
    the rescaled amplitude ``c_norm`` and ``certification=(gx, gxp)``.
    """
    _check_support_coverage(state, gx, gxp)
    norm = _norm_integral(state, gx, gxp)
    if not isfinite(norm):
        raise NumericDomainError(f"wavefunction norm {norm} on the given grids is not finite")
    if norm <= 0.0:
        raise InvalidArgumentError("wavefunction has zero norm on the given grids")
    return replace(state, c_norm=state.c_norm / sqrt(norm), certification=(gx, gxp))
