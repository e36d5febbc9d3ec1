"""Coincidence amplitude, rate, second moment, quantum fluctuation and SNR.

For a unit-norm two-photon state the coincidence rate is

    G2(x_r, x_t) = | int int dx dx' phi(x, x') h_t(x_t, x) h_r(x_r, x') |^2

and the second moment of the coincidence operator factorizes into

    <S^2> = G2 * int dx |h_t(x_t, x)|^2 * int dx' |h_r(x_r, x')|^2,

so the fluctuation is Delta G2 = sqrt(<S^2> - G2^2) and SNR = G2 / Delta G2.
Averaging over N independently generated pairs divides the fluctuation by
sqrt(N) and multiplies the SNR by sqrt(N).

All integrals are tensor-product trapezoid sums on the setup's grids.  The
inner integral u(x') = int dx phi(x, x') h_t(x_t, x) is the state's row
reduction (:meth:`ghostsim.source.TwoPhotonState.reduce`) of phi = c_norm
f(x) g(x') R(x - x'): f is folded into the test-arm vector, R reduced over
its nonzero rows (for the Gaussian only within its ridge band, as one FFT
correlation per segment of rows on the lattice of differences), then g and
``c_norm`` applied.  Columns farther than the band from every nonzero row
are left exactly 0, and an unbounded ridge whose kernel would need more than
``grid.MAX_NODES`` samples is refused before it is sampled.

The amplitude A = sum_j w_j u_j h_r(x_r, x'_j) has no term where
u_j = 0, so the reference arm is sampled only on the reference window: the
smallest run of x' nodes holding every nonzero of u, which for a compact
object is the ridge band about its support.  Skipping the other nodes drops
exact zeros, not small values.  Arm energies still integrate over all of
gxp.  The statistics are computed for every x_r of a scan at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NormalizationViolationError, NumericDomainError
from .grid import Grid1D
from .optics import ImpulseResponse
from .source import TwoPhotonState

__all__ = [
    "CorrelatorSetup",
    "PointStatistics",
    "amplitude",
    "arm_energy",
    "noise_from_moments",
    "snr_from_moments",
    "point_statistics",
]

# radicand more negative than this fraction of its scale signals a broken
# normalization rather than roundoff
RADICAND_CLAMP = 1e-12


@dataclass(frozen=True)
class CorrelatorSetup:
    """Immutable bundle of state, arm kernels and quadrature grids.

    gx discretizes the test-arm source coordinate x, gxp the reference-arm
    source coordinate x'.  The state must carry a certification (see
    :func:`ghostsim.source.normalize`) whose grids gx and gxp cover.
    """

    state: TwoPhotonState
    h_t: ImpulseResponse
    h_r: ImpulseResponse
    gx: Grid1D
    gxp: Grid1D

    def __post_init__(self):
        object.__setattr__(self, "_inner_cache", {})
        if self.state.certification is None:
            raise InvalidArgumentError(
                "correlator requires a norm-certified two-photon state"
            )
        for g, cert in zip((self.gx, self.gxp), self.state.certification):
            if g.lo > cert.lo or g.hi < cert.hi:
                raise InvalidArgumentError(
                    "quadrature grids must cover the state's certification domain"
                )

    def with_reference_arm(self, h_r: ImpulseResponse) -> "CorrelatorSetup":
        """This setup with reference arm h_r.

        u(x') depends only on the state, h_t, gx and gxp, so the new setup
        shares this one's memoized inner integrals and reference windows.
        """
        other = replace(self, h_r=h_r)
        object.__setattr__(other, "_inner_cache", self._inner_cache)
        return other

    def _memoized(self, kind: str, x_t: float, compute):
        key = (kind, float(x_t))
        if key not in self._inner_cache:
            self._inner_cache[key] = compute()
        return self._inner_cache[key]

    def _left_vector(self, x_t: float) -> np.ndarray:
        """Trapezoid-weighted test-arm samples over gx."""
        return self.gx.trapezoid_weights() * self.h_t.sample_in(x_t, self.gx)

    def inner_integral(self, x_t: float) -> np.ndarray:
        """u(x') = int dx phi(x, x') h_t(x_t, x), sampled on gxp.

        Only the grid rows where the test-arm samples are nonzero
        contribute, which makes compact objects cheap, and a Gaussian source
        only within its ridge band.  Memoized per x_t (the expensive factor
        of every scan point shares it).
        """
        return self._memoized(
            "u", x_t, lambda: self.state.reduce(self._left_vector(x_t), self.gx, self.gxp)
        )

    def reference_window(self, x_t: float) -> tuple:
        """(window, v): the gxp nodes j0..j1-1 that hold every nonzero of
        u(x') as a Grid1D, and v = (gxp trapezoid weights * u)[j0:j1].

        The window's own trapezoid weights would halve its end nodes, where
        u is nonzero, so v carries gxp's.  A single nonzero is widened by a
        neighbour (a grid needs two nodes; there u = 0).  An all-zero u
        gives window None and an empty v.  Memoized per x_t.
        """
        return self._memoized("window", x_t, lambda: self._window(self.inner_integral(x_t)))

    def _window(self, u: np.ndarray) -> tuple:
        nz = np.flatnonzero(u)
        if nz.size == 0:
            return None, u[:0]
        j0, j1 = int(nz[0]), int(nz[-1]) + 1
        if j1 - j0 == 1:
            j0, j1 = (j0, j1 + 1) if j1 < self.gxp.n_points else (j0 - 1, j1)
        v = (self.gxp.trapezoid_weights() * u)[j0:j1]
        if j1 - j0 == self.gxp.n_points:
            return self.gxp, v
        lo, hi = self.gxp.sample(j0), self.gxp.sample(j1 - 1)
        return Grid1D(0.5 * (lo + hi), 0.5 * (hi - lo), j1 - j0), v


@dataclass(frozen=True)
class PointStatistics:
    """All scalar quantities at one (x_t, x_r) scan point."""

    x_t: float
    x_r: float
    amplitude: complex
    g2: float
    i_t: float
    i_r: float
    second_moment: float
    noise: float
    snr: float


def amplitude(setup: CorrelatorSetup, x_t: float, x_r: float) -> complex:
    """Coincidence amplitude A(x_r, x_t) = v . h_r(x_r, window) over the
    reference window; exactly 0, with no sampling, where u(x') vanishes
    everywhere.  A non-finite amplitude is a numeric error.
    """
    window, v = setup.reference_window(x_t)
    if window is None:
        return 0j
    a = complex(np.dot(v, setup.h_r.sample_in(x_r, window)))
    if not np.isfinite(a.real) or not np.isfinite(a.imag):
        raise NumericDomainError(f"non-finite amplitude at (x_t={x_t}, x_r={x_r})")
    return a


def arm_energy(h: ImpulseResponse, x_out: float, g: Grid1D) -> float:
    """Quadrature of |h(x_out, .)|^2 over g; a scan checks it against
    ``h.energy``."""
    a2 = h.sample_abs2_in(x_out, g)  # before the weights: a lower peak memory
    return float(np.dot(g.trapezoid_weights(), a2))


def noise_from_moments(g2, moment2):
    """Delta G2 = sqrt(<S^2> - G2^2) with a roundoff clamp, elementwise.

    A radicand below -RADICAND_CLAMP times its scale is a normalization or
    truncation failure, not noise; the first such entry is reported."""
    g2 = np.asarray(g2, dtype=float)
    radicand = moment2 - g2 * g2
    scale = moment2 + g2 * g2
    broken = np.flatnonzero(radicand < -RADICAND_CLAMP * scale)
    if broken.size:
        k = broken[0]
        raise NormalizationViolationError(
            f"variance radicand {np.ravel(radicand)[k]:.6e} below the clamp window "
            f"(-{RADICAND_CLAMP:.0e} * {np.ravel(scale)[k]:.6e}); the state is not "
            f"unit-norm or the quadrature window truncates it"
        )
    return np.sqrt(np.maximum(radicand, 0.0))


def snr_from_moments(g2, dg2):
    """SNR = G2 / Delta G2, elementwise; 0 where there is no signal, +inf
    where the fluctuation vanishes with signal present (G2 >= 0)."""
    g2 = np.asarray(g2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g2 == 0.0, 0.0, g2 / dg2)[()]


def point_statistics(
    setup: CorrelatorSetup,
    x_t: float,
    x_r: float,
    i_t: float | None = None,
    i_r: float | None = None,
) -> PointStatistics:
    """Evaluate every per-point quantity, reusing precomputed arm energies
    when the caller has them cached."""
    a = amplitude(setup, x_t, x_r)
    if i_t is None:
        i_t = arm_energy(setup.h_t, x_t, setup.gx)
    if i_r is None:
        i_r = arm_energy(setup.h_r, x_r, setup.gxp)
    g2, m2, dg2, snr = (float(c[0]) for c in _statistics(x_t, x_r, a, i_t, i_r))
    return PointStatistics(
        x_t=float(x_t),
        x_r=float(x_r),
        amplitude=a,
        g2=g2,
        i_t=i_t,
        i_r=i_r,
        second_moment=m2,
        noise=dg2,
        snr=snr,
    )


def _statistics(x_t: float, x_r, a, i_t: float, i_r: float) -> tuple:
    """(G2, <S^2>, Delta G2, SNR) as arrays over x_r, from the amplitudes
    at those points and the arm energies.

    A non-finite G2, I_t, I_r, <S^2> or Delta G2 is a numeric error naming
    the first x_r where one occurs: an overflowing arm or state must not
    reach the output as inf or NaN.
    """
    x_r, a = np.atleast_1d(x_r, a)
    # hypot rounds as abs(complex) does; np.abs differs in the last bit
    g2 = np.hypot(a.real, a.imag) ** 2
    m2 = g2 * i_t * i_r
    dg2 = noise_from_moments(g2, m2)
    names = ("G2", "I_t", "I_r", "<S^2>", "Delta G2")
    values = np.broadcast_arrays(g2, i_t, i_r, m2, dg2)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=0)))
        q = int(np.argmin(finite[:, k]))
        raise NumericDomainError(
            f"non-finite {names[q]} = {values[q][k]} at (x_t={x_t}, x_r={x_r[k]})"
        )
    return g2, m2, dg2, snr_from_moments(g2, dg2)
