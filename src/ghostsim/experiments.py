"""Scan and sweep drivers: reference-detector scans of G2 / noise / SNR and
aperture sweeps quantifying the resolution-versus-noise trade-off.

The reference scan holds the test detector fixed at its setup's x_t (0 by
default) and records every per-point statistic along a range of reference
positions, normalized by the maximum of G2 the way the published curves
are; its amplitudes come from one ``amplitude`` call over every x_r, and
it gates only the reference-arm energy: the setup holds the gated I_t.  A
scan pairs a correlator setup with its reference arm, so the aperture sweep
reruns the scan on one setup, one inner integral and one I_t, for a list of
hard-aperture sizes and summarizes peak SNR, peak positions, two-slit
contrast and the amplitude of the normalized averaged noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from .correlator import CorrelatorSetup, amplitude, coincidence_statistics, gated_energy
from .errors import InvalidArgumentError
from .grid import MAX_NODES, make_grid
from .optics import ImpulseResponse, rect_pupil, two_f_arm
from .source import TwoPhotonState

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
# to <1e-4 under grid doubling for the double-slit configurations; the test
# arm is sampled only on the run of x nodes that meets a compact object's
# support (4303 of 65537 for the fig2 slits), so the large x count stays
# cheap.
DEFAULT_N_X = 65537
DEFAULT_N_XP = 16385
DEFAULT_WINDOW_MM = 8.0

# peak detection: local maxima above this fraction of the global maximum,
# separated by at least this many grid points
_PEAK_FLOOR = 0.2
_PEAK_SEPARATION = 3


@dataclass(frozen=True)
class ScanConfig:
    """A reference scan: built correlator setup, reference arm and scan
    geometry; the test-detector position x_t is the setup's."""

    setup: CorrelatorSetup
    h_r: ImpulseResponse
    xr_min: float = -2.0
    xr_max: float = 2.0
    n_xr: int = 201
    n_pairs: int = 10000
    x_t = property(lambda self: self.setup.x_t)

    def __post_init__(self):
        for name in ("xr_min", "xr_max"):
            if not np.isfinite(value := getattr(self, name)):
                raise InvalidArgumentError(f"scan {name} must be finite, got {value}")
        if not (self.xr_max > self.xr_min):
            raise InvalidArgumentError(
                f"degenerate x_r range [{self.xr_min}, {self.xr_max}]"
            )
        # range tests before int(), which raises on NaN and inf
        if not (2 <= self.n_xr <= MAX_NODES) or int(self.n_xr) != self.n_xr:
            raise InvalidArgumentError(
                f"n_xr must be an integer in [2, {MAX_NODES}], got {self.n_xr}"
            )
        object.__setattr__(self, "n_xr", int(self.n_xr))  # np.linspace needs an int
        if not (1 <= self.n_pairs < np.inf) or int(self.n_pairs) != self.n_pairs:
            raise InvalidArgumentError(f"n_pairs must be an integer >= 1, got {self.n_pairs}")


@dataclass(frozen=True)
class CorrelationResult:
    """A reference scan as arrays over its x_r points, plus the pair count
    that averages its noise."""

    x_r: np.ndarray
    g2: np.ndarray
    noise: np.ndarray
    snr: np.ndarray
    n_pairs: int

    def columns(self) -> dict:
        """All emitted columns keyed by the CSV header names; G2 is
        normalized by its maximum (1 for an all-zero scan), and a point
        where G2 = 0 is flagged ``zero_g2``."""
        g2 = self.g2
        dg2 = self.noise
        gmax = float(g2.max()) or 1.0
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
            "flags": np.where(g2 == 0.0, "zero_g2", "").astype(object),
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
    n_x: int = DEFAULT_N_X,
    n_xp: int = DEFAULT_N_XP,
    window_mm: float = DEFAULT_WINDOW_MM,
    x_t: float = 0.0,
) -> CorrelatorSetup:
    """Assemble a correlator setup for a norm-certified state, test arm and
    test-detector position x_t.

    The quadrature window, centred on 0, is widened to cover the state's
    extent when necessary; ``CorrelatorSetup`` refuses a state without an
    extent, grids that do not resolve its ridge and, for the Fourier test
    arm, an x_t beyond the x grid's Nyquist limit.
    """
    for lo, hi in state.extent or ():
        window_mm = max(window_mm, -lo, hi)
    gx = make_grid(0.0, window_mm, n_x)
    gxp = make_grid(0.0, window_mm, n_xp)
    return CorrelatorSetup(state=state, h_t=h_t, gx=gx, gxp=gxp, x_t=x_t)


def scan_reference(config: ScanConfig) -> CorrelationResult:
    """Evaluate every per-point statistic along the x_r scan.

    The arm energies do not depend on the detector positions, so I_t is the
    setup's and I_r the x' quadrature at the middle x_r.  ``gated_energy``
    checks I_r against the arm's exact energy, as it does the x' quadratures
    at xr_min, xr_max and half an x' step off the middle, where an x' grid
    that does not resolve the reference arm gives another value.  The
    amplitudes at every x_r come from one ``amplitude`` call on the setup's
    reference window.
    """
    setup, h_r = config.setup, config.h_r
    xr = np.linspace(config.xr_min, config.xr_max, config.n_xr)
    x_mid = float(xr[config.n_xr // 2])

    probes = (x_mid, config.xr_min, config.xr_max, x_mid + 0.5 * setup.gxp.step)
    i_r, *_ = (gated_energy(h_r, x, setup.gxp, "reference-arm", "n_xp") for x in probes)

    a = amplitude(setup, h_r, xr)
    g2, _, dg2, snr = coincidence_statistics(setup.x_t, xr, a, setup.i_t, i_r)
    return CorrelationResult(x_r=xr, g2=g2, noise=dg2, snr=snr, n_pairs=config.n_pairs)


def find_peaks(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of local maxima above _PEAK_FLOOR of the global maximum,
    separated by at least _PEAK_SEPARATION grid points, largest first.

    An end node is a maximum against its one neighbour.  Ties and conflicts
    are resolved toward larger value, then smaller |x|.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0 or y.max() <= 0.0:
        return []
    # rising on the left, falling on the right and above the floor
    peak = np.r_[True, y[1:] >= y[:-1]] & np.r_[y[:-1] > y[1:], True]
    candidates = np.flatnonzero(peak & (y >= _PEAK_FLOOR * y.max())).tolist()
    # greedy non-maximum suppression
    candidates.sort(key=lambda i: (-y[i], abs(x[i])))
    kept: list[int] = []
    for i in candidates:
        if all(abs(i - j) >= _PEAK_SEPARATION for j in kept):
            kept.append(i)
    return kept


def contrast_metric(result: CorrelationResult) -> float:
    """(peak - valley) / (peak + valley) between the two dominant maxima.

    peak is the mean of the two largest local maxima, valley the G2 value
    closest to the midpoint of their positions.  A scan with fewer than two
    maxima has contrast 0: its slits are not resolved.
    """
    x = result.x_r
    g2 = result.g2
    top = find_peaks(x, g2)[:2]
    if len(top) < 2:
        return 0.0
    mid = 0.5 * (x[top[0]] + x[top[1]])
    valley = g2[int(np.argmin(np.abs(x - mid)))]
    peak = 0.5 * (g2[top[0]] + g2[top[1]])
    return max((peak - valley) / (peak + valley), 0.0)


def aperture_sweep(base: ScanConfig, apertures, lam: float, f: float) -> list[SweepSummary]:
    """Rerun the reference scan for each aperture size D and summarize.

    Each scan's reference arm is ``two_f_arm(lam, f, rect_pupil(D))`` in
    place of the base scan's; every arm is built, and a bad D refused,
    before the first scan.  Every aperture runs on the base setup, so all
    share its inner integral u(x'), which does not depend on the reference
    arm.
    """
    arms = [(D, two_f_arm(lam, f, rect_pupil(D))) for D in map(float, apertures)]
    if not arms:
        raise InvalidArgumentError("aperture sweep needs at least one aperture")
    return [summarize(scan_reference(replace(base, h_r=h_r)), D) for D, h_r in arms]


def summarize(result: CorrelationResult, aperture_mm: float) -> SweepSummary:
    cols = result.columns()
    top = find_peaks(result.x_r, result.g2)[:2]
    peak_positions = tuple(sorted(float(result.x_r[i]) for i in top))
    peak_snr = float(cols["snr_avg"][top[0]]) if top else 0.0
    return SweepSummary(
        aperture_mm=aperture_mm,
        peak_snr=peak_snr,
        peak_positions_mm=peak_positions,
        contrast=contrast_metric(result),
        noise_amplitude=float(cols["dg2_avg_norm"].max()),
    )
