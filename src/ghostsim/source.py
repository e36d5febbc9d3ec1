"""Two-photon wavefunction models.

A state is phi(x, x') = c_norm * f(x) * g(x') * R(x - x'): two envelopes, a
ridge that depends only on x - x' and one scalar amplitude ``c_norm``.  The
Gaussian source has f = g = exp(-x^2 / a^2) and R(d) = exp(-d^2 / b^2): ``a``
sets the source size, ``b`` the entanglement width.  A separable state has
R = 1 (``ridge`` is None).

:func:`normalize` sets ``c_norm`` from the quadrature of |phi|^2 and records
its grids' ends as the state's ``extent``; it first refuses a grid that does
not resolve the ridge of |phi|^2 by :func:`check_ridge_step`, the rule that
:class:`ghostsim.correlator.CorrelatorSetup` applies to the state's ridge.
:func:`gaussian_wavefunction` needs no quadrature: its ``c_norm`` is the
closed form, its extent is [-4a, 4a] in x and x', outside which |phi|^2
is below e^-32 of its peak, and its ``band``, the x' frequencies that the
amplitude's strided sum must resolve, is the closed form of its Gaussians.
Every other state must be normalized explicitly.  Both :func:`normalize` and
:meth:`TwoPhotonState.reduce` fold f into the left vector, reduce R with
:func:`ghostsim.grid.reduce_rows` over the band where R is above RIDGE_EPS
of its peak, and multiply the result by g; :func:`normalize` then takes the
sum over x' with :meth:`ghostsim.grid.Grid1D.integrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import hypot, inf, isfinite, log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError, TruncationError
from .grid import BAND_EPS, Grid1D, check_width, reduce_rows

__all__ = [
    "TwoPhotonState",
    "gaussian_wavefunction",
    "normalize",
]

# |phi|^2 at the window edge must be below this fraction of the peak for a
# grid to count as covering the support
EDGE_FRACTION = 1e-8

# ridge values below this fraction of the ridge peak are dropped from the
# banded reduction; _band gives the band it implies (about 6.44 b)
RIDGE_EPS = 1e-18


# on a lattice of step h the trapezoid sum of the ridge exp(-d^2 / b^2) is
# off its integral by at most 2 exp(-pi^2 b^2 / h^2), at any offset (Poisson
# summation); a step of at most RIDGE_STEPS * b keeps that below 1e-6
RIDGE_STEPS = pi / sqrt(log(2.0 / 1e-6))


def _band(ridge_width: float) -> float:
    """|d| beyond which R <= peak * exp(-d^2 / ridge_width^2) is below RIDGE_EPS * peak."""
    return ridge_width * sqrt(log(1.0 / RIDGE_EPS))


def check_ridge_step(g: Grid1D, width: float, what: str, remedy: str) -> None:
    """Refuse a grid whose step exceeds RIDGE_STEPS times the ridge width
    ``width`` (named by ``what``), before anything is sampled: its sums
    over the ridge would not resolve it."""
    if g.step > RIDGE_STEPS * width:
        raise InvalidArgumentError(
            f"the grid step {g.step:.4g} mm exceeds {RIDGE_STEPS:.3g} of the "
            f"{what} {width:g} mm and does not resolve the ridge; {remedy}"
        )


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
    arrays; |R(d)| <= peak * exp(-d^2 / ridge_width^2) (``inf``: no bound).
    ``extent`` holds the intervals ((lo, hi) in x, (lo, hi) in x') over which
    |phi|^2 integrates to 1; None until the state is known to be unit-norm.
    ``band`` bounds the spatial frequencies in x' of sum_x left(x) phi(x, x')
    for any left, the ridge's band plus g's, each where its spectrum falls
    below BAND_EPS of its peak (``inf``: no bound, which keeps every x' node
    in the amplitude's sum).
    """

    f: Callable
    g: Callable
    c_norm: complex = 1.0
    ridge: Callable | None = None
    ridge_width: float = inf
    extent: tuple[tuple[float, float], tuple[float, float]] | None = None
    band: float = inf

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


def gaussian_wavefunction(a: float, b: float) -> TwoPhotonState:
    """The Gaussian source, unit-norm by its closed-form ``c_norm`` over its
    extent [-4a, 4a] in x and x'.  A width that is not > 0, or whose square
    leaves the floating-point range, is refused.  The spectrum of
    exp(-d^2 / w^2) is below BAND_EPS of its peak beyond sqrt(ln(1 / BAND_EPS))
    / (pi w), so the state's ``band`` is that for the ridge (w = b) plus
    that for g (w = a)."""
    check_width(a, "source size a")
    check_width(b, "entanglement width b")

    def envelope(x):
        return np.exp(np.square(x) / -(a * a))

    def ridge(d):
        return np.exp(np.square(d) / -(b * b))

    # int int |phi / c_norm|^2 = pi a^2 b / (2 hypot(b, sqrt(2) a)), inverted in
    # a form that stays finite and positive for every width check_width admits
    c_norm = sqrt(2.0 * hypot(b, sqrt(2.0) * a) / pi) / (a * sqrt(b))
    extent = (-4.0 * a, 4.0 * a)
    band = sqrt(log(1.0 / BAND_EPS)) / pi * (1.0 / b + 1.0 / a)
    return TwoPhotonState(envelope, envelope, c_norm, ridge, float(b), (extent, extent), band)


def _norm_integral(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> float:
    def abs2(fn):
        return None if fn is None else lambda s: np.abs(fn(s)) ** 2

    density = replace(
        state, f=abs2(state.f), g=abs2(state.g), ridge=abs2(state.ridge),
        ridge_width=state.ridge_width / sqrt(2.0), c_norm=abs(state.c_norm) ** 2,
    )
    rows = density.reduce(gx.trapezoid_weights(), gx, gxp)
    return float(gxp.integrate(rows).real)


def _check_support_coverage(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> None:
    x = gx.samples()
    xp = gxp.samples()
    # sample the four boundary lines, and for the peak of a separable state
    # the envelopes' grid maxima; with a ridge, the diagonal through the
    # bulk, the line x' = x over the grids' overlap, where the ridge peaks
    # whether or not the grids share a centre, and the lines through the
    # nodes where |f| and |g| peak, where the envelopes do
    edges = [
        np.abs(state.evaluate(np.full_like(xp, gx.lo), xp)),
        np.abs(state.evaluate(np.full_like(xp, gx.hi), xp)),
        np.abs(state.evaluate(x, np.full_like(x, gxp.lo))),
        np.abs(state.evaluate(x, np.full_like(x, gxp.hi))),
    ]
    edge_peak = max(float(e.max()) for e in edges)
    if state.ridge is None:
        peak = abs(state.c_norm) * float(np.abs(state.f(x)).max() * np.abs(state.g(xp)).max())
    else:
        lo, hi = max(gx.lo, gxp.lo), min(gx.hi, gxp.hi)
        s = np.linspace(lo, hi, x.size if lo <= hi else 0)
        xf = np.full_like(xp, x[np.argmax(np.abs(state.f(x)))])
        xg = np.full_like(x, xp[np.argmax(np.abs(state.g(xp)))])
        lines = ((x, np.linspace(gxp.lo, gxp.hi, x.size)), (s, s), (xf, xp), (x, xg))
        peak = max(float(np.abs(state.evaluate(*line)).max(initial=0.0)) for line in lines)
    if peak == 0.0:
        return  # zero norm is reported separately
    if edge_peak**2 > EDGE_FRACTION * peak**2:
        raise TruncationError(
            f"wavefunction not negligible at the grid boundary: |phi|^2 edge/peak "
            f"= {edge_peak**2 / peak**2:.3e} > {EDGE_FRACTION:.0e}"
        )


def normalize(state: TwoPhotonState, gx: Grid1D, gxp: Grid1D) -> TwoPhotonState:
    """Rescale so that the quadrature of |phi|^2 over (gx, gxp) equals 1.

    A grid whose step exceeds RIDGE_STEPS times the ridge width of |phi|^2,
    ``ridge_width`` / sqrt(2), is refused first, naming the grid: its
    quadrature would miss the ridge (on 129 nodes over [-8, 8] the Gaussian
    source of a = 2, b = 0.05 would get a c_norm 29% low).  A non-finite
    norm (a NaN or inf envelope or ridge value, or an overflowing
    quadrature) is a numeric error.  The returned state carries
    the rescaled amplitude ``c_norm`` and the grids' ends as its ``extent``.
    """
    for g, name in ((gx, "gx"), (gxp, "gxp")):
        check_ridge_step(g, state.ridge_width / sqrt(2.0), "|phi|^2 ridge width", f"refine {name}")
    _check_support_coverage(state, gx, gxp)
    norm = _norm_integral(state, gx, gxp)
    if not isfinite(norm):
        raise NumericDomainError(f"wavefunction norm {norm} on the given grids is not finite")
    if norm <= 0.0:
        raise InvalidArgumentError("wavefunction has zero norm on the given grids")
    extent = ((gx.lo, gx.hi), (gxp.lo, gxp.hi))
    return replace(state, c_norm=state.c_norm / sqrt(norm), extent=extent)
