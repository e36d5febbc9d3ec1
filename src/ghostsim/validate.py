"""Built-in self-validation suite.

Runs the analytic oracles against the quadrature code paths without any
configuration file: Gaussian normalization constants (the source's closed
form and, independently, the norm quadrature on a grid the check builds),
the closed-form arm energies, the all-Gaussian coincidence amplitude and the
Cauchy-Schwarz bound on the variance radicand.  Each check returns (passed,
detail); the suite, which the ``validate`` CLI command executes, reports a
check that raises a ghostsim error as failed with the error as its detail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import analytic, correlator
from .correlator import CorrelatorSetup, amplitude, arm_energy, coincidence_statistics
from .errors import GhostSimError
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
# randomized setups of the Cauchy-Schwarz check, the last tenth matched
_N_SETUPS = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _norm_grid(a: float, b: float):
    """The Gaussian source's extent [-4a, 4a] at a step of at most b / 6,
    which resolves the ridge, and at least 257 nodes."""
    n = int(np.ceil(8.0 * a / (b / 6.0))) + 1
    return make_grid(0.0, 4.0 * a, max(n, 257))


def _check_gaussian_normalization() -> tuple[bool, str]:
    rng = np.random.default_rng(20240501)
    errors = []
    for _ in range(10):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(1.0))))
        # the constructor's closed form and, independently, the quadrature of
        # |phi|^2 on the norm grid, started from c_norm = 1
        state = gaussian_wavefunction(a, b)
        grid = _norm_grid(a, b)
        quadrature = normalize(replace(state, c_norm=1.0), grid, grid)
        c_ref = analytic.gaussian_norm_constant(a, b)
        errors += [abs(s.c_norm - c_ref) / c_ref for s in (state, quadrature)]
    worst = np.max(errors)  # NaN-propagating, unlike max(): a NaN error fails
    detail = f"max relative c_norm error {worst:.3e} over 10 random (a, b) (tol 1e-6)"
    return bool(worst < 1e-6), detail


def rect_energy_grid(D: float):
    """Quadrature grid of 4 nodes per sinc lobe of the pupil transform of a
    hard aperture on the suite's 2f arm, covering enough sinc tail for
    <1e-4 truncation.  |P|^2 is band-limited, so its trapezoid sum is exact
    at that density; the truncated tail is the whole error."""
    lobe = 2.0 * LAMBDA_MM * F_MM / D
    half = 2500.0 * lobe
    n = int(np.ceil(2.0 * half / (lobe / 4.0))) + 1
    return make_grid(0.0, half, n)


def _check_arm_energies() -> tuple[bool, str]:
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
    return ok, (
        f"slit rel err {slit_err:.3e} (tol 1e-6); rect rel err {worst_rect:.3e}, "
        f"linearity spread {lin_err:.3e} (tol 1e-4)"
    )


def _check_all_gaussian_amplitude() -> tuple[bool, str]:
    a, b, w_obj, sigma = 2.0, 0.2, 0.5, 2.0
    h_t = fourier_arm(LAMBDA_MM, F_MM, gaussian_transmission(w_obj))
    h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(sigma))
    setup = build_setup(gaussian_wavefunction(a, b), h_t, 8193, 16385, 8.0)
    x_r = np.linspace(-1.0, 1.0, 21)
    num = amplitude(setup, h_r, x_r)
    ref = analytic.all_gaussian_amplitude(
        a, b, analytic.gaussian_norm_constant(a, b), w_obj, sigma, LAMBDA_MM, F_MM, 0.0, x_r
    )
    worst = np.max(np.abs(num - ref) / np.abs(ref))
    detail = f"max relative amplitude error {worst:.3e} over 21-point scan (tol 1e-6)"
    return bool(worst < 1e-6), detail


def _matched_state(h_t, h_r, x_t: float, x_r: float, gx, gxp):
    """State proportional to conj(h_t h_r): the Cauchy-Schwarz equality case,
    separable with f = conj h_t(x_t, .), g = conj h_r(x_r, .) and R = 1."""
    raw = TwoPhotonState(
        f=lambda x: np.conj(h_t.evaluate(x_t, x)),
        g=lambda xp: np.conj(h_r.evaluate(x_r, xp)),
    )
    return normalize(raw, gx, gxp)


def _check_cauchy_schwarz() -> tuple[bool, str]:
    rng = np.random.default_rng(20240502)
    g2, m2 = np.empty(_N_SETUPS), np.empty(_N_SETUPS)
    n_matched = max(2, _N_SETUPS // 10)
    for k in range(_N_SETUPS):
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(0.05, 0.5)
        window = max(8.0, 4.0 * a)
        gx = make_grid(0.0, window, 2049)
        gxp = make_grid(0.0, window, 4097)
        h_t = fourier_arm(LAMBDA_MM, F_MM, gaussian_transmission(rng.uniform(0.1, 1.0)))
        if k >= _N_SETUPS - n_matched:
            # hard-aperture tails decay too slowly for the matched state's
            # support check; use a soft pupil there
            h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(rng.uniform(0.5, 4.0)))
            x_t = 0.0
            x_r = float(rng.uniform(-0.5, 0.5))
            state = _matched_state(h_t, h_r, x_t, x_r, gx, gxp)
        else:
            if k % 2 == 0:
                h_r = two_f_arm(LAMBDA_MM, F_MM, rect_pupil(rng.uniform(1.0, 10.0)))
            else:
                h_r = two_f_arm(LAMBDA_MM, F_MM, gaussian_pupil(rng.uniform(0.5, 4.0)))
            state = gaussian_wavefunction(a, b)
            x_t = float(rng.uniform(-0.2, 0.2))
            x_r = float(rng.uniform(-1.0, 1.0))
        try:
            setup = CorrelatorSetup(state=state, h_t=h_t, gx=gx, gxp=gxp, x_t=x_t)
            a = amplitude(setup, h_r, x_r)
            i_t, i_r = setup.i_t, arm_energy(h_r, x_r, gxp)
            g2[k], m2[k] = (c[0] for c in coincidence_statistics(x_t, x_r, a, i_t, i_r)[:2])
        except GhostSimError as exc:  # name the setup in the suite's FAIL row
            raise type(exc)(f"setup {k}: {exc}") from exc
    radicand, scale = m2 - g2**2, m2 + g2**2
    worst = np.min(np.divide(radicand, scale, out=np.zeros(_N_SETUPS), where=scale > 0), initial=0)
    detail = f"{_N_SETUPS} randomized setups, worst negative radicand fraction {worst:.3e}"
    return bool(worst >= -correlator.RADICAND_CLAMP), detail


def run_validation_suite() -> list[CheckResult]:
    """Run every built-in check and return their results; a check that
    raises a ghostsim error fails with the error as its detail."""
    # looked up at call time, so that wrappers installed on the module's
    # check functions see every call
    checks = {
        "gaussian_normalization": _check_gaussian_normalization,
        "analytic_arm_energies": _check_arm_energies,
        "all_gaussian_amplitude": _check_all_gaussian_amplitude,
        "cauchy_schwarz_radicand": _check_cauchy_schwarz,
    }
    results = []
    for name, check in checks.items():
        try:
            passed, detail = check()
        except GhostSimError as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(name, passed, detail))
    return results
