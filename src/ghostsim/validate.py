"""Built-in self-validation suite.

Runs the analytic oracles against the quadrature code paths without any
configuration file: Gaussian normalization constants, the closed-form arm
energies, the all-Gaussian coincidence amplitude and the Cauchy-Schwarz
bound on the variance radicand.  Each check reports pass/fail; the suite is
what the ``validate`` CLI command executes.

``corrupt_norm_factor`` is a fault-injection hook for exercising the
failure path: it multiplies the scalar amplitude ``c_norm`` of every
certified state (the Gaussian sources as constructed, the matched states
after normalization) while keeping the certificate, which a correct build
must detect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .correlator import CorrelatorSetup, amplitude, arm_energy, coincidence_statistics
from .errors import NormalizationViolationError
from .experiments import build_setup
from .grid import make_grid
from .optics import (
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    rect_pupil,
    two_f_arm,
)
from .source import TwoPhotonState, gaussian_wavefunction, normalize

__all__ = ["CheckResult", "run_validation_suite"]

LAMBDA_MM = 650e-6
F_MM = 100.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _corrupt(state: TwoPhotonState, factor: float) -> TwoPhotonState:
    return replace(state, c_norm=factor * state.c_norm)


def _check_gaussian_normalization(corrupt: float) -> CheckResult:
    rng = np.random.default_rng(20240501)
    errors = []
    for _ in range(10):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(1.0))))
        state = _corrupt(gaussian_wavefunction(a, b), corrupt)
        # the amplitude at the origin is the effective normalization constant
        c_actual = float(np.abs(state.evaluate(0.0, 0.0)))
        c_ref = analytic.gaussian_norm_constant(a, b)
        errors.append(abs(c_actual - c_ref) / c_ref)
    worst = np.max(errors)  # NaN-propagating, unlike max(): a NaN error fails
    return CheckResult(
        "gaussian_normalization",
        bool(worst < 1e-6),
        f"max relative c_norm error {worst:.3e} over 10 random (a, b) (tol 1e-6)",
    )


def rect_energy_grid(D: float):
    """Quadrature grid of 4 nodes per sinc lobe of the pupil transform of a
    hard aperture on the suite's 2f arm, covering enough sinc tail for
    <1e-4 truncation.  |P|^2 is band-limited, so its trapezoid sum is exact
    at that density; the truncated tail is the whole error."""
    lobe = 2.0 * LAMBDA_MM * F_MM / D
    half = 2500.0 * lobe
    n = int(np.ceil(2.0 * half / (lobe / 4.0))) + 1
    return make_grid(0.0, half, n)


def _check_arm_energies(corrupt: float) -> CheckResult:
    del corrupt  # arm energies do not involve the state
    w, d = 0.05, 1.0
    h_t = fourier_arm(LAMBDA_MM, F_MM, double_slit(w, d))
    slit_ref = analytic.double_slit_arm_energy(w, LAMBDA_MM, F_MM)
    slit_err = abs(arm_energy(h_t, 0.0, make_grid(0.0, 0.7, 4097)) - slit_ref) / slit_ref

    # numpy reductions, unlike max() and min(), keep a NaN energy
    apertures = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    arms = [two_f_arm(LAMBDA_MM, F_MM, rect_pupil(D)) for D in apertures]
    energies = np.array([arm_energy(h, 0.0, rect_energy_grid(D)) for h, D in zip(arms, apertures)])
    refs = analytic.rect_two_f_arm_energy(apertures, LAMBDA_MM, F_MM)
    worst_rect = np.max(np.abs(energies - refs) / refs)
    ratios = energies / apertures
    lin_err = (ratios.max() - ratios.min()) / ratios[0]

    ok = bool(slit_err < 1e-6 and worst_rect < 1e-4 and lin_err < 1e-4)
    return CheckResult(
        "analytic_arm_energies",
        ok,
        f"slit rel err {slit_err:.3e} (tol 1e-6); rect rel err {worst_rect:.3e}, "
        f"linearity spread {lin_err:.3e} (tol 1e-4)",
    )


def _check_all_gaussian_amplitude(corrupt: float) -> CheckResult:
    a, b = 2.0, 0.2
    w_obj, sigma = 0.5, 2.0
    state = _corrupt(gaussian_wavefunction(a, b), corrupt)
    h_t = fourier_arm(LAMBDA_MM, F_MM, gaussian_transmission(w_obj))
    h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(sigma))
    setup = build_setup(state, h_t, 8193, 16385, 8.0)
    c_norm = analytic.gaussian_norm_constant(a, b)
    worst = 0.0
    for v in np.linspace(-1.0, 1.0, 21):
        num = amplitude(setup, h_r, 0.0, float(v))
        ref = analytic.all_gaussian_amplitude(
            a, b, c_norm, w_obj, sigma, LAMBDA_MM, F_MM, 0.0, float(v)
        )
        worst = max(worst, abs(num - ref) / abs(ref))
    return CheckResult(
        "all_gaussian_amplitude",
        worst < 1e-6,
        f"max relative amplitude error {worst:.3e} over 21-point scan (tol 1e-6)",
    )


def _matched_state(h_t, h_r, x_t: float, x_r: float, gx, gxp, corrupt: float):
    """State proportional to conj(h_t h_r): the Cauchy-Schwarz equality case,
    separable with f = conj h_t(x_t, .), g = conj h_r(x_r, .) and R = 1."""
    raw = TwoPhotonState(
        f=lambda x: np.conj(h_t.evaluate(x_t, x)),
        g=lambda xp: np.conj(h_r.evaluate(x_r, xp)),
    )
    return _corrupt(normalize(raw, gx, gxp), corrupt)


def _check_cauchy_schwarz(corrupt: float, n_setups: int = 20) -> CheckResult:
    rng = np.random.default_rng(20240502)
    failures = []
    worst = 0.0
    n_matched = max(2, n_setups // 10)
    for k in range(n_setups):
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(0.05, 0.5)
        window = max(8.0, 4.0 * a)
        gx = make_grid(0.0, window, 2049)
        gxp = make_grid(0.0, window, 4097)
        h_t = fourier_arm(LAMBDA_MM, F_MM, gaussian_transmission(rng.uniform(0.1, 1.0)))
        matched = k >= n_setups - n_matched
        if matched:
            # hard-aperture tails decay too slowly for the matched state's
            # support check; use a soft pupil there
            h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(rng.uniform(0.5, 4.0)))
            x_t = 0.0
            x_r = float(rng.uniform(-0.5, 0.5))
            state = _matched_state(h_t, h_r, x_t, x_r, gx, gxp, corrupt)
        else:
            if k % 2 == 0:
                h_r = two_f_arm(LAMBDA_MM, F_MM, rect_pupil(rng.uniform(1.0, 10.0)))
            else:
                h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(rng.uniform(0.5, 4.0)))
            state = _corrupt(gaussian_wavefunction(a, b), corrupt)
            x_t = float(rng.uniform(-0.2, 0.2))
            x_r = float(rng.uniform(-1.0, 1.0))
        setup = CorrelatorSetup(state=state, h_t=h_t, gx=gx, gxp=gxp)
        try:
            a = amplitude(setup, h_r, x_t, x_r)
            i_t, i_r = arm_energy(h_t, x_t, gx), arm_energy(h_r, x_r, gxp)
            g2, m2 = (float(c[0]) for c in coincidence_statistics(x_t, x_r, a, i_t, i_r)[:2])
            radicand = m2 - g2**2
            scale = m2 + g2**2
            if scale > 0.0 and radicand < 0.0:
                worst = min(worst, radicand / scale)
        except NormalizationViolationError as exc:
            failures.append(f"setup {k}: {exc}")
    detail = (
        failures[0]
        if failures
        else f"{n_setups} randomized setups, worst negative radicand fraction {worst:.3e}"
    )
    return CheckResult("cauchy_schwarz_radicand", not failures, detail)


def run_validation_suite(corrupt_norm_factor: float = 1.0) -> list[CheckResult]:
    """Run every built-in check and return their results."""
    return [
        _check_gaussian_normalization(corrupt_norm_factor),
        _check_arm_energies(corrupt_norm_factor),
        _check_all_gaussian_amplitude(corrupt_norm_factor),
        _check_cauchy_schwarz(corrupt_norm_factor),
    ]
