"""Acceptance gate: end-to-end checks of the published configuration.

Each test covers one numbered criterion and prints a [PASS]/[FAIL] line
directly to the terminal (bypassing capture) so a full run reads as a
seven-line scorecard.
"""

from __future__ import annotations

import subprocess
import sys
import time
from math import sqrt

import numpy as np
import pytest

from ghostsim import (
    CorrelatorSetup,
    build_setup,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    gaussian_wavefunction,
    rect_pupil,
    scan_reference,
    two_f_arm,
    validate,
)
from ghostsim.cli import preset_path
from ghostsim.config import build_scan_config, load_config
from ghostsim.experiments import contrast_metric, find_peaks
from ghostsim.validate import (
    _check_all_gaussian_amplitude,
    _check_arm_energies,
    _check_cauchy_schwarz,
    _check_gaussian_normalization,
)
from helpers import scaled_arm, statistics_at, validate_with_corrupt_states

LAM = 650e-6
F = 100.0


def report(capsys, number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {detail}")


@pytest.fixture(scope="module")
def fig2_scan():
    config = build_scan_config(load_config(preset_path("fig2")))
    start = time.perf_counter()
    result = scan_reference(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig3_scan():
    config = build_scan_config(load_config(preset_path("fig3")))
    return scan_reference(config)


@pytest.fixture(scope="module")
def fig2_scan_doubled():
    data = load_config(preset_path("fig2"))
    data["numerics"]["n_x"] = 2 * data["numerics"]["n_x"] - 1
    data["numerics"]["n_xp"] = 2 * data["numerics"]["n_xp"] - 1
    from ghostsim.config import resolve_config

    return scan_reference(build_scan_config(resolve_config(data)))


def test_criterion_1_two_slit_scan(fig2_scan, capsys):
    result, elapsed = fig2_scan
    cols = result.columns()
    peaks = find_peaks(result.x_r, result.g2)
    positions = sorted(float(result.x_r[i]) for i in peaks)
    peak_snr = float(cols["snr_avg"][int(np.argmax(result.g2))])
    ok = (
        len(peaks) == 2
        and abs(positions[0] + 0.5) <= 0.05
        and abs(positions[1] - 0.5) <= 0.05
        and 2.0 <= peak_snr <= 8.0
        and elapsed < 60.0
    )
    report(
        capsys,
        1,
        ok,
        f"{len(peaks)} peaks at {positions} mm, averaged SNR {peak_snr:.3f} "
        f"(band [2, 8]), scan {elapsed:.1f} s (budget 60 s)",
    )
    assert ok


def test_criterion_2_aperture_tradeoff(fig2_scan, fig3_scan, capsys):
    wide, _ = fig2_scan
    narrow = fig3_scan
    noise_wide = float(wide.columns()["dg2_avg_norm"].max())
    noise_narrow = float(narrow.columns()["dg2_avg_norm"].max())
    ratio = noise_wide / noise_narrow
    c_wide = contrast_metric(wide)
    c_narrow = contrast_metric(narrow)
    ok = 1.4 <= ratio <= 3.0 and c_narrow < c_wide
    report(
        capsys,
        2,
        ok,
        f"noise-amplitude ratio D10/D2 = {ratio:.3f} (band [1.4, 3.0]), "
        f"contrast {c_narrow:.4f} (D=2) < {c_wide:.4f} (D=10)",
    )
    assert ok


def test_criterion_3_variance_bound_suite(capsys, monkeypatch):
    # five times the suite's randomized setups
    monkeypatch.setattr(validate, "_N_SETUPS", 100)
    passed, detail = _check_cauchy_schwarz()
    assert detail.startswith("100 randomized setups")
    report(capsys, 3, passed, detail)
    assert passed


def test_criterion_4_analytic_oracles(capsys):
    checks = [
        _check_gaussian_normalization(),
        _check_arm_energies(),
        _check_all_gaussian_amplitude(),
    ]
    ok = all(passed for passed, _ in checks)
    report(capsys, 4, ok, "; ".join(detail for _, detail in checks))
    assert ok


def test_criterion_5_exact_laws(fig2_scan, capsys):
    state = gaussian_wavefunction(2.0, 0.2)
    h_t = fourier_arm(LAM, F, gaussian_transmission(0.5))
    h_r = two_f_arm(LAM, F, gaussian_pupil(2.0))
    setup = build_setup(state, h_t, n_x=2049, n_xp=4097)
    base = statistics_at(setup, h_r, 0.3).snr
    rng = np.random.default_rng(20240503)
    drift = 0.0
    for _ in range(20):
        c_t = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        c_r = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        rescaled = CorrelatorSetup(
            state=setup.state,
            h_t=scaled_arm(setup.h_t, c_t),
            gx=setup.gx,
            gxp=setup.gxp,
        )
        snr = statistics_at(rescaled, scaled_arm(h_r, c_r), 0.3).snr
        drift = max(drift, abs(snr - base) / base)
    # averaging N independent pairs: the emitted columns of the fig2 scan
    result, _ = fig2_scan
    cols = result.columns()
    rootn = sqrt(result.n_pairs)
    averaging_exact = np.array_equal(cols["snr_avg"], cols["snr"] * rootn) and np.array_equal(
        cols["dg2_avg_norm"], cols["dg2"] / (rootn * result.g2.max())
    )
    ok = drift <= 1e-10 and averaging_exact
    report(
        capsys,
        5,
        ok,
        f"SNR drift over 20 arm rescalings {drift:.3e} (tol 1e-10); "
        f"averaging laws exact in the fig2 columns (N = {result.n_pairs}): {averaging_exact}",
    )
    assert ok


def test_criterion_6_grid_stability(fig2_scan, fig2_scan_doubled, capsys):
    result, _ = fig2_scan
    doubled = fig2_scan_doubled
    worst = 0.0
    for coarse, fine in (
        (result.g2, doubled.g2),
        (result.noise, doubled.noise),
        (result.snr, doubled.snr),
    ):
        # points many orders of magnitude below the curve maximum carry only
        # cancellation residue, so the comparison scale never drops below a
        # fixed fraction of the column maximum
        floor = 1e-9 * max(np.max(np.abs(coarse)), np.max(np.abs(fine)))
        scale = np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), floor)
        worst = max(worst, float(np.max(np.abs(fine - coarse) / scale)))

    ok = worst < 1e-4
    report(capsys, 6, ok, f"grid-doubling drift {worst:.3e} (tol 1e-4)")
    assert ok


def test_criterion_7_validate_exit_codes(capsys):
    clean = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "validate"], capture_output=True, text=True
    )
    corrupt = validate_with_corrupt_states(2.0)
    ok = clean.returncode == 0 and corrupt.returncode == 1
    report(
        capsys,
        7,
        ok,
        f"validate exit {clean.returncode} (want 0), "
        f"corrupted-normalization exit {corrupt.returncode} (want 1)",
    )
    assert ok
