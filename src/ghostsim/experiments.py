"""Scan and sweep drivers: reference-detector scans of G2 / noise / SNR and
aperture sweeps quantifying the resolution-versus-noise trade-off.

The reference scan holds the test detector fixed (x_t = 0 by default) and
records every per-point statistic along a range of reference positions,
normalized by the maximum of G2 the way the published curves are.  The
aperture sweep reruns the scan for a list of hard-aperture sizes and
summarizes peak SNR, peak positions, two-slit contrast and the amplitude of
the normalized averaged noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt

import numpy as np

from .correlator import CorrelatorSetup, _statistics, amplitude, arm_energy
from .errors import InvalidArgumentError, NumericDomainError, UndefinedContrastError
from .grid import Grid1D, make_grid
from .optics import ImpulseResponse, rect_pupil, two_f_arm
from .source import TwoPhotonState, default_certification_grid, normalize

__all__ = [
    "ScanConfig",
    "CorrelationResult",
    "SweepSummary",
    "build_setup",
    "scan_reference",
    "contrast_metric",
    "find_peaks",
    "aperture_sweep",
    "DEFAULT_N_X",
    "DEFAULT_N_XP",
    "DEFAULT_WINDOW_MM",
]

# Default quadrature grids for the x (test-arm) and x' (reference-arm)
# source coordinates.  The x step must resolve the entanglement width b
# across the slits (the inner integral varies on that scale); the x' step
# must resolve both the chirp of the 2f arm and the narrow pupil-transform
# lobes of wide apertures.  These counts hold every scanned quantity stable
# to <1e-4 under grid doubling for the double-slit configurations; only the
# grid nodes inside the object support enter the inner integral, so the
# large x count stays cheap.
DEFAULT_N_X = 65537
DEFAULT_N_XP = 16385
DEFAULT_WINDOW_MM = 8.0

# largest relative offset of an arm-energy quadrature from the arm's exact
# energy: <S^2> = G2 I_t I_r carries the offset into Delta G2 and the SNR
ENERGY_RTOL = 1e-2

# peak detection: local maxima above this fraction of the global maximum,
# separated by at least this many grid points
_PEAK_FLOOR = 0.2
_PEAK_SEPARATION = 3


@dataclass(frozen=True)
class ScanConfig:
    """A reference scan: built correlator setup plus scan geometry."""

    setup: CorrelatorSetup
    x_t: float = 0.0
    xr_min: float = -2.0
    xr_max: float = 2.0
    n_xr: int = 201
    n_pairs: int = 10000

    def __post_init__(self):
        for name in ("x_t", "xr_min", "xr_max"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidArgumentError(
                    f"scan {name} must be finite, got {getattr(self, name)}"
                )
        if not (self.xr_max > self.xr_min):
            raise InvalidArgumentError(
                f"degenerate x_r range [{self.xr_min}, {self.xr_max}]"
            )
        if self.n_xr < 2:
            raise InvalidArgumentError(f"scan needs n_xr >= 2, got {self.n_xr}")
        if int(self.n_pairs) != self.n_pairs or self.n_pairs < 1:
            raise InvalidArgumentError(f"n_pairs must be an integer >= 1, got {self.n_pairs}")


@dataclass(frozen=True)
class CorrelationResult:
    """A reference scan as arrays over its x_r points, plus the values that
    normalize its columns."""

    x_r: np.ndarray
    g2: np.ndarray
    noise: np.ndarray
    snr: np.ndarray
    flags: tuple
    g2_max: float
    n_pairs: int

    def columns(self) -> dict:
        """All emitted columns keyed by the CSV header names."""
        g2 = self.g2
        dg2 = self.noise
        gmax = self.g2_max if self.g2_max > 0.0 else 1.0
        rootn = sqrt(self.n_pairs)
        return {
            "x_r_mm": self.x_r,
            "g2": g2,
            "g2_norm": g2 / gmax,
            "dg2": dg2,
            "dg2_norm": dg2 / gmax,
            "dg2_avg_norm": dg2 / (rootn * gmax),
            "snr": self.snr,
            "snr_avg": self.snr * rootn,
            "flags": np.array(self.flags, dtype=object),
        }


@dataclass(frozen=True)
class SweepSummary:
    """Scan summary for one aperture size."""

    aperture_mm: float
    peak_snr: float
    peak_positions_mm: tuple
    contrast: float
    noise_amplitude: float


def build_setup(
    state: TwoPhotonState,
    h_t: ImpulseResponse,
    h_r: ImpulseResponse,
    n_x: int = DEFAULT_N_X,
    n_xp: int = DEFAULT_N_XP,
    window_mm: float = DEFAULT_WINDOW_MM,
) -> CorrelatorSetup:
    """Normalize the state (if needed) and assemble a correlator setup.

    An uncertified state with a finite ``envelope_width`` a and
    ``ridge_width`` b, such as the Gaussian source, is certified on
    ``default_certification_grid(a, b)``, the window [-4a, 4a]; the
    quadrature window is widened to cover the certification grids when
    necessary.
    """
    if state.certification is None:
        a, b = state.envelope_width, state.ridge_width
        if not (isfinite(a) and isfinite(b)):
            raise InvalidArgumentError(
                "states without finite envelope and ridge widths must be normalized "
                "explicitly before building a setup"
            )
        cert = default_certification_grid(a, b)
        state = normalize(state, cert, cert)
    for cert in state.certification:
        window_mm = max(window_mm, cert.half_width)
    gx = make_grid(0.0, window_mm, n_x)
    gxp = make_grid(0.0, window_mm, n_xp)
    return CorrelatorSetup(state=state, h_t=h_t, h_r=h_r, gx=gx, gxp=gxp)


def _gated_energy(h: ImpulseResponse, x_out: float, g: Grid1D, arm: str, n_key: str) -> float:
    """arm_energy(h, x_out, g), refused unless it lies within ENERGY_RTOL of
    the arm's exact energy: a grid that truncates or does not resolve the
    arm biases <S^2> by as much.  A non-finite value is a numeric error."""
    e, exact = arm_energy(h, x_out, g), h.energy
    if not (np.isfinite(e) and np.isfinite(exact)):
        raise NumericDomainError(f"non-finite {arm} energy {e} at {x_out:g} mm (exact {exact})")
    if not abs(e - exact) <= ENERGY_RTOL * exact:
        raise InvalidArgumentError(
            f"{arm} energy at {x_out:g} mm: the grid (step {g.step:.4g} mm, window "
            f"+/-{g.half_width:g} mm) captures {e / exact:.4g} of the exact energy "
            f"{exact:.6g} (tolerance {ENERGY_RTOL:g}); raise numerics.{n_key} or adjust "
            f"numerics.window_mm"
        )
    return e


def scan_reference(config: ScanConfig) -> CorrelationResult:
    """Evaluate every per-point statistic along the x_r scan.

    The arm energies do not depend on the detector positions, so I_t is the
    gx quadrature at x_t and I_r the x' quadrature at the middle x_r.  Each
    is checked against the arm's exact energy, and so is the x' quadrature
    at xr_min, xr_max and half an x' step off the middle, where an x' grid
    that does not resolve the reference arm gives another value.  Scan
    points share the memoized inner integral.
    """
    setup = config.setup
    xr = np.linspace(config.xr_min, config.xr_max, config.n_xr)
    x_mid = float(xr[config.n_xr // 2])

    i_t = _gated_energy(setup.h_t, config.x_t, setup.gx, "test-arm", "n_x")
    i_r = _gated_energy(setup.h_r, x_mid, setup.gxp, "reference-arm", "n_xp")
    for x_probe in (config.xr_min, config.xr_max, x_mid + 0.5 * setup.gxp.step):
        _gated_energy(setup.h_r, x_probe, setup.gxp, "reference-arm", "n_xp")

    a = np.array([amplitude(setup, config.x_t, x_r) for x_r in map(float, xr)])
    g2, _, dg2, snr = _statistics(config.x_t, xr, a, i_t, i_r)
    return CorrelationResult(
        x_r=xr,
        g2=g2,
        noise=dg2,
        snr=snr,
        flags=tuple("zero_g2" if g == 0.0 else "" for g in g2),
        g2_max=float(g2.max()),
        n_pairs=config.n_pairs,
    )


def find_peaks(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of local maxima above _PEAK_FLOOR of the global maximum,
    separated by at least _PEAK_SEPARATION grid points.

    Ties and conflicts are resolved toward larger value, then smaller |x|.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.max() <= 0.0:
        return []
    floor = _PEAK_FLOOR * y.max()
    candidates = [
        i
        for i in range(1, y.size - 1)
        if y[i] >= y[i - 1] and y[i] > y[i + 1] and y[i] >= floor
    ]
    # greedy non-maximum suppression
    candidates.sort(key=lambda i: (-y[i], abs(x[i])))
    kept: list[int] = []
    for i in candidates:
        if all(abs(i - j) >= _PEAK_SEPARATION for j in kept):
            kept.append(i)
    kept.sort()
    return kept


def contrast_metric(result: CorrelationResult) -> float:
    """(peak - valley) / (peak + valley) between the two dominant maxima.

    peak is the mean of the two largest local maxima, valley the G2 value
    closest to the midpoint of their positions.
    """
    if result.x_r.size < 3:
        raise UndefinedContrastError("contrast needs at least 3 scan points")
    x = result.x_r
    g2 = result.g2
    peaks = find_peaks(x, g2)
    if len(peaks) < 2:
        raise UndefinedContrastError(
            f"contrast needs two distinct maxima, found {len(peaks)}"
        )
    top = sorted(peaks, key=lambda i: (-g2[i], abs(x[i])))[:2]
    mid = 0.5 * (x[top[0]] + x[top[1]])
    valley = g2[int(np.argmin(np.abs(x - mid)))]
    peak = 0.5 * (g2[top[0]] + g2[top[1]])
    return max((peak - valley) / (peak + valley), 0.0)


def aperture_sweep(base: ScanConfig, apertures, lam: float, f: float) -> list[SweepSummary]:
    """Rerun the reference scan for each aperture size D and summarize.

    Each scan's reference arm is ``two_f_arm(lam, f, rect_pupil(D))`` in
    place of the base setup's.  Every aperture's setup shares the base
    setup's inner integral u(x'), which does not depend on the reference
    arm.
    """
    apertures = list(apertures)
    if not apertures:
        raise InvalidArgumentError("aperture sweep needs at least one aperture")
    for D in apertures:
        if not (D > 0.0):
            raise InvalidArgumentError(f"aperture sizes must be > 0, got {D}")
    summaries = []
    for D in apertures:
        h_r = two_f_arm(lam, f, rect_pupil(float(D)))
        config = replace(base, setup=base.setup.with_reference_arm(h_r))
        result = scan_reference(config)
        summaries.append(summarize(result, float(D)))
    return summaries


def summarize(result: CorrelationResult, aperture_mm: float) -> SweepSummary:
    cols = result.columns()
    g2 = result.g2
    peaks = find_peaks(result.x_r, g2)
    top = sorted(peaks, key=lambda i: (-g2[i], abs(result.x_r[i])))[:2]
    peak_positions = tuple(sorted(float(result.x_r[i]) for i in top))
    peak_snr = float(cols["snr_avg"][int(np.argmax(g2))])
    return SweepSummary(
        aperture_mm=aperture_mm,
        peak_snr=peak_snr,
        peak_positions_mm=peak_positions,
        contrast=contrast_metric(result),
        noise_amplitude=float(cols["dg2_avg_norm"].max()),
    )
