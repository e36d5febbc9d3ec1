"""Entangled-photon ghost imaging simulator: coincidence rate, quantum noise
and signal-to-noise ratio for configurable optical arms."""

from .correlator import CorrelatorSetup, amplitude, arm_energy, coincidence_statistics
from .errors import (
    ConfigError,
    GhostSimError,
    InvalidArgumentError,
    NormalizationViolationError,
    NumericDomainError,
    TruncationError,
)
from .experiments import (
    CorrelationResult,
    ScanConfig,
    SweepSummary,
    aperture_sweep,
    build_setup,
    contrast_metric,
    scan_reference,
)
from .grid import Grid1D, make_grid
from .optics import (
    ImpulseResponse,
    Pupil,
    Transmission,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    rect_pupil,
    tabulated_pupil,
    tabulated_transmission,
    two_f_arm,
)
from .source import TwoPhotonState, gaussian_wavefunction, normalize

__version__ = "0.1.0"
