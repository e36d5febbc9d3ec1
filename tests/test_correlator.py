"""Coincidence amplitude, second moment, fluctuation and SNR laws."""

from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

from ghostsim import (
    CorrelatorSetup,
    InvalidArgumentError,
    NormalizationViolationError,
    NumericDomainError,
    ScanConfig,
    TwoPhotonState,
    amplitude,
    aperture_sweep,
    arm_energy,
    build_setup,
    coincidence_statistics,
    correlator,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    gaussian_wavefunction,
    make_grid,
    optics,
    rect_pupil,
    scan_reference,
    tabulated_pupil,
    tabulated_transmission,
    two_f_arm,
    validate,
)
from ghostsim.analytic import all_gaussian_amplitude, gaussian_norm_constant
from ghostsim.cli import preset_path
from ghostsim.config import build_scan_config, load_config
from ghostsim.correlator import gated_energy
from ghostsim.optics import _BLOCK_ENTRIES, Transmission
from ghostsim.source import RIDGE_STEPS
from ghostsim.validate import run_validation_suite
from helpers import (
    corrupt_validation_states,
    scaled_arm,
    statistics_at,
    validate_with_corrupt_states,
)

LAM = 650e-6
F = 100.0


def small_gaussian_setup(w_obj=0.5, sigma=2.0, a=2.0, b=0.2, n_x=4097, n_xp=8193, x_t=0.0):
    """(setup, h_r): an all-Gaussian setup and its reference arm."""
    state = gaussian_wavefunction(a, b)
    h_t = fourier_arm(LAM, F, gaussian_transmission(w_obj))
    h_r = two_f_arm(LAM, F, gaussian_pupil(sigma))
    setup = CorrelatorSetup(
        state=state,
        h_t=h_t,
        gx=make_grid(0.0, 8.0, n_x),
        gxp=make_grid(0.0, 8.0, n_xp),
        x_t=x_t,
    )
    return setup, h_r


def test_opaque_object_gives_zero_signal():
    setup, h_r = small_gaussian_setup(n_x=257, n_xp=257)
    dark = Transmission(evaluate=lambda x: np.zeros_like(np.asarray(x, dtype=float)), energy=0.0)
    setup = replace(setup, h_t=fourier_arm(LAM, F, dark))
    np.testing.assert_array_equal(amplitude(setup, h_r, 0.3), [0.0])
    stats = statistics_at(setup, h_r, 0.3)
    assert stats.g2 == 0.0
    assert stats.snr == 0.0


def test_separable_state_amplitude_factorizes():
    g = make_grid(0.0, 4.0, 1025)

    state = TwoPhotonState(
        f=lambda x: np.exp(-(x**2)) + 0j,
        g=lambda xp: np.exp(-(xp**2) / 2.0),
        extent=((-4.0, 4.0), (-4.0, 4.0)),
    )
    h_t = fourier_arm(LAM, F, gaussian_transmission(1.0))
    h_r = two_f_arm(LAM, F, gaussian_pupil(1.0))
    x_t, x_r = 0.05, -0.2
    setup = CorrelatorSetup(state=state, h_t=h_t, gx=g, gxp=g, x_t=x_t)
    w = g.trapezoid_weights()
    x = g.samples()
    left = complex(np.dot(w, np.exp(-(x**2)) * h_t.sample_in(x_t, g)))
    right = complex(np.dot(w, np.exp(-(x**2) / 2.0) * h_r.evaluate(x_r, x)))
    assert amplitude(setup, h_r, x_r)[0] == pytest.approx(left * right, rel=1e-12)


def test_amplitude_matches_all_gaussian_closed_form():
    a, b, w_obj, sigma = 2.0, 0.2, 0.5, 2.0
    setup, h_r = small_gaussian_setup(w_obj=w_obj, sigma=sigma, a=a, b=b)
    c = gaussian_norm_constant(a, b)
    x_r = np.linspace(-1.0, 1.0, 21)
    num = amplitude(setup, h_r, x_r)
    ref = all_gaussian_amplitude(a, b, c, w_obj, sigma, LAM, F, 0.0, x_r)
    assert num == pytest.approx(ref, rel=1e-6)


def test_scan_parity_for_symmetric_setup():
    state = gaussian_wavefunction(2.0, 0.05)
    setup = CorrelatorSetup(
        state=state,
        h_t=fourier_arm(LAM, F, double_slit(0.05, 1.0)),
        gx=make_grid(0.0, 8.0, 8193),
        gxp=make_grid(0.0, 8.0, 8193),
    )
    h_r = two_f_arm(LAM, F, rect_pupil(10.0))
    x_r = np.array([0.2, 0.5, 1.1])
    plus = abs(amplitude(setup, h_r, x_r)) ** 2
    minus = abs(amplitude(setup, h_r, -x_r)) ** 2
    assert plus == pytest.approx(minus, rel=1e-8)


def test_separable_and_direct_methods_agree():
    # reference: the dense double sum of w_i h_t(x_t, x_i) phi(x_i, x'_j)
    # w'_j h_r(x_r, x'_j) over every node pair, with no band and no window
    # and h_r the pointwise kernel
    setup, h_r = small_gaussian_setup(n_x=513, n_xp=1025, x_t=0.1)
    x, xp = setup.gx.samples(), setup.gxp.samples()
    phi = setup.state.evaluate(x[:, np.newaxis], xp[np.newaxis, :])
    left = setup.gx.trapezoid_weights() * setup.h_t.sample_in(0.1, setup.gx)
    for x_r in (-0.4, 0.0, 0.7):
        right = setup.gxp.trapezoid_weights() * h_r.evaluate(x_r, xp)
        direct = complex((left[:, np.newaxis] * phi * right[np.newaxis, :]).sum())
        assert amplitude(setup, h_r, x_r)[0] == pytest.approx(direct, rel=1e-10)


def test_second_moment_factorization():
    setup, h_r = small_gaussian_setup(n_x=1025, n_xp=2049)
    stats = statistics_at(setup, h_r, 0.2)
    assert stats.second_moment == pytest.approx(stats.g2 * stats.i_t * stats.i_r, rel=1e-14)
    assert stats.noise == pytest.approx(
        sqrt(stats.second_moment - stats.g2**2), rel=1e-12
    )
    assert stats.snr == pytest.approx(stats.g2 / stats.noise, rel=1e-12)


def test_snr_invariant_under_arm_rescaling():
    setup, h_r = small_gaussian_setup(n_x=1025, n_xp=2049)
    base = statistics_at(setup, h_r, 0.3).snr
    rng = np.random.default_rng(13)
    for _ in range(20):
        c_t = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        c_r = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        scaled = CorrelatorSetup(
            state=setup.state,
            h_t=scaled_arm(setup.h_t, c_t),
            gx=setup.gx,
            gxp=setup.gxp,
        )
        snr = statistics_at(scaled, scaled_arm(h_r, c_r), 0.3).snr
        assert snr == pytest.approx(base, rel=1e-10)


def test_matched_state_saturates_the_bound():
    # phi proportional to conj(h_t h_r) makes <S^2> equal (G2)^2
    g = make_grid(0.0, 6.0, 2049)
    h_t = fourier_arm(LAM, F, gaussian_transmission(0.8))
    h_r = two_f_arm(LAM, F, gaussian_pupil(1.5))
    x_t, x_r = 0.0, 0.1
    state = validate._matched_state(h_t, h_r, x_t, x_r, g, g)
    setup = CorrelatorSetup(state=state, h_t=h_t, gx=g, gxp=g, x_t=x_t)
    stats = statistics_at(setup, h_r, x_r)
    assert stats.noise <= 1e-5 * stats.g2
    radicand = stats.second_moment - stats.g2**2
    assert abs(radicand) <= 1e-10 * (stats.second_moment + stats.g2**2)


def test_random_setups_respect_variance_bound():
    rng = np.random.default_rng(99)
    for _ in range(5):
        shape = dict(
            w_obj=rng.uniform(0.2, 1.0),
            sigma=rng.uniform(0.5, 3.0),
            a=rng.uniform(1.0, 2.0),
            b=rng.uniform(0.1, 0.5),
        )
        x_t, x_r = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-1.0, 1.0))
        setup, h_r = small_gaussian_setup(**shape, n_x=1025, n_xp=2049, x_t=x_t)
        stats = statistics_at(setup, h_r, x_r)
        radicand = stats.second_moment - stats.g2**2
        scale = stats.second_moment + stats.g2**2
        assert radicand >= -1e-12 * scale


def noise_and_snr(a, i_t=1.0, i_r=1.0):
    """(Delta G2, SNR) for real amplitudes a at x_r = 0, 1, ..."""
    a = np.asarray(a, dtype=float)
    return coincidence_statistics(0.0, np.arange(a.size), a, i_t, i_r)[2:]


def test_noise_from_moments_clamp_and_violation():
    # with I_t I_r = 1 the radicand is G2 (1 - G2): a roundoff-sized
    # negative clamps to 0, a larger one is a normalization failure
    assert noise_and_snr([1.0], 1.0 - 1e-14)[0] == 0.0
    with pytest.raises(NormalizationViolationError):
        noise_and_snr([sqrt(2.0)], 0.5)
    # elementwise over arrays; the first broken entry is reported
    np.testing.assert_array_equal(noise_and_snr([0.0, 1.0, 2.0], 4.0)[0], [0.0, sqrt(3.0), 0.0])
    with pytest.raises(NormalizationViolationError, match=r"radicand -1.200000e\+01 "):
        noise_and_snr([1.0, 2.0, 3.0])


def test_snr_edge_cases():
    # 0 without signal, +inf when the fluctuation vanishes with signal present
    snr = noise_and_snr([0.0, 1.0, 2.0], 4.0)[1]
    np.testing.assert_array_equal(snr, [0.0, 1.0 / sqrt(3.0), np.inf])
    # <S^2> = 2 (G2)^2 gives unit SNR
    g2 = 3.7
    assert noise_and_snr([sqrt(g2)], 2.0 * g2)[1][0] == pytest.approx(1.0, rel=1e-12)


def test_scan_statistics_match_point_statistics():
    # the scan's columns come from one array evaluation over every x_r; each
    # must equal coincidence_statistics evaluated at its point alone, and
    # the amplitudes of the scan's blocks those of each point alone to
    # rounding (a block's matrix-vector product sums in another order)
    setup, h_r = slit_setup(make_grid(0.0, 8.0, 4097))
    config = ScanConfig(setup=setup, h_r=h_r, xr_min=-1.0, xr_max=1.0, n_xr=21)
    result = scan_reference(config)
    # the scan's I_t is the setup's, summed over the test arm's run; over the
    # whole x grid the zeros beyond the run change numpy's pairwise summation
    # tree, so the two agree to rounding, not bit for bit
    i_t = setup.i_t
    assert abs(i_t - arm_energy(setup.h_t, 0.0, setup.gx)) <= 4e-16 * i_t
    i_r = arm_energy(h_r, 0.0, setup.gxp)
    a = amplitude(setup, h_r, result.x_r)
    alone = np.concatenate([amplitude(setup, h_r, x) for x in map(float, result.x_r)])
    assert np.abs(alone - a).max() <= 1e-14 * np.abs(a).max()
    points = [coincidence_statistics(0.0, x, a_x, i_t, i_r) for x, a_x in zip(result.x_r, a)]
    g2, _, noise, snr = (np.concatenate(c) for c in zip(*points))
    np.testing.assert_array_equal(result.g2, g2)
    np.testing.assert_array_equal(result.noise, noise)
    np.testing.assert_array_equal(result.snr, snr)


def test_statistics_name_the_first_non_finite_point():
    x_r = np.array([0.0, 0.5, 1.0, 1.5])
    with np.errstate(over="ignore", invalid="ignore"):
        # G2 overflows at x_r = 1.0, <S^2> at x_r = 0.5
        with pytest.raises(NumericDomainError, match=r"<S\^2> = inf at \(x_t=0.0, x_r=0.5\)"):
            coincidence_statistics(0.0, x_r, np.array([1.0, 1e100, 1e200, 0.0]), 1e150, 1.0)
        with pytest.raises(NumericDomainError, match=r"I_r = nan at \(x_t=0.0, x_r=0.0\)"):
            coincidence_statistics(0.0, x_r, np.ones(4), 1.0, np.nan)


def test_setup_requires_certified_state():
    # a state without an extent is not known to be unit-norm
    raw = replace(gaussian_wavefunction(1.0, 0.2), extent=None)
    g = make_grid(0.0, 4.0, 257)
    with pytest.raises(InvalidArgumentError, match="norm-certified"):
        CorrelatorSetup(
            state=raw,
            h_t=fourier_arm(LAM, F, gaussian_transmission(0.5)),
            gx=g,
            gxp=g,
        )


def test_setup_grids_must_cover_certification_domain():
    state = gaussian_wavefunction(2.0, 0.2)  # unit-norm over the extent [-8, 8]
    small = make_grid(0.0, 4.0, 257)
    with pytest.raises(InvalidArgumentError, match="must cover the state's extent"):
        CorrelatorSetup(
            state=state,
            h_t=fourier_arm(LAM, F, gaussian_transmission(0.5)),
            gx=small,
            gxp=small,
        )


@pytest.mark.parametrize("key", ["n_x", "n_xp"])
def test_grid_step_over_ridge_steps_widths_is_refused(key):
    # a step of RIDGE_STEPS * b is accepted and the next float above it
    # refused, on either grid, before anything is sampled; the other grid
    # is fine.  2^11 * step is exact, so the 4097-node grid has that step
    b = 0.01
    state = gaussian_wavefunction(0.25, b)  # extent [-1, 1]
    h_t = fourier_arm(LAM, F, gaussian_transmission(0.2))
    fine = make_grid(0.0, 1.0, 4097)
    edge = RIDGE_STEPS * b
    for step in (edge, np.nextafter(edge, np.inf)):
        coarse = make_grid(0.0, 2048.0 * step, 4097)
        assert coarse.step == step
        grids = {"gx": coarse, "gxp": fine} if key == "n_x" else {"gx": fine, "gxp": coarse}
        if step == edge:
            assert np.abs(CorrelatorSetup(state, h_t, **grids).v).max() > 0.0
            continue
        h_refused = replace(h_t, _sample_in=None)  # sampling it would raise
        with pytest.raises(InvalidArgumentError) as exc:
            CorrelatorSetup(state, h_refused, **grids)
        msg = str(exc.value)
        assert f"grid step {step:.4g} mm" in msg and f"width {b:g} mm" in msg
        assert msg.endswith(f"raise numerics.{key}")


def test_corrupted_certified_state_scales_the_inner_integral():
    # the validation suite's fault injection keeps the extent and scales
    # c_norm; the banded reduction must carry that factor through
    a, b = 2.0, 0.2
    clean = gaussian_wavefunction(a, b)
    corrupt = replace(clean, c_norm=2.0 * clean.c_norm)
    assert corrupt.extent == clean.extent == ((-8.0, 8.0), (-8.0, 8.0))
    assert corrupt.c_norm == 2.0 * clean.c_norm
    h_t = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    g, gp = make_grid(0.0, 8.0, 8193), make_grid(0.0, 8.0, 2049)
    u_clean = CorrelatorSetup(state=clean, h_t=h_t, gx=g, gxp=gp).inner_integral()
    u_corrupt = CorrelatorSetup(state=corrupt, h_t=h_t, gx=g, gxp=gp).inner_integral()
    assert np.abs(u_clean).max() > 0.0
    np.testing.assert_allclose(u_corrupt, 2.0 * u_clean, rtol=1e-15, atol=0.0)


def test_validation_suite_fails_under_corrupted_normalization(monkeypatch):
    corrupt_validation_states(monkeypatch.setattr, 2.0)
    results = {r.name: r.passed for r in run_validation_suite()}
    assert not results["gaussian_normalization"]
    assert not results["all_gaussian_amplitude"]
    assert not results["cauchy_schwarz_radicand"]


def test_normalization_check_fails_on_a_nan_error(monkeypatch):
    # a NaN amplitude makes every c_norm error NaN; max() would keep 0
    corrupt_validation_states(monkeypatch.setattr, float("nan"))
    passed, detail = validate._check_gaussian_normalization()
    assert passed is False
    assert "nan" in detail


def test_arm_energy_check_fails_on_a_nan_rect_energy(monkeypatch):
    # one NaN among the five rect energies, where max() and min() over a
    # list skip it
    nan_grid = validate.rect_energy_grid(6.0)
    monkeypatch.setattr(
        validate,
        "arm_energy",
        lambda h, x_out, g: float("nan") if g == nan_grid else arm_energy(h, x_out, g),
    )
    passed, detail = validate._check_arm_energies()
    assert passed is False
    assert "rect rel err nan" in detail and "linearity spread nan" in detail


def test_validate_reports_a_check_that_raises_as_a_fail_row():
    # a NaN c_norm makes amplitude() raise inside two checks: each is a FAIL
    # row and the suite runs on, exit 1 rather than 3
    proc = validate_with_corrupt_states(float("nan"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    rows = proc.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == [
        "[FAIL] gaussian_normalization",
        "[PASS] analytic_arm_energies",
        "[FAIL] all_gaussian_amplitude",
        "[FAIL] cauchy_schwarz_radicand",
    ]
    assert "non-finite amplitude" in rows[2]


def test_cauchy_schwarz_check_fails_on_a_radicand_beyond_the_clamp(monkeypatch):
    # statistics whose radicand <S^2> - G2^2 is -1/3 of its scale, far
    # below -RADICAND_CLAMP, make the check's row FAIL
    def broken(x_t, x_r, a, i_t, i_r):
        one = np.ones(np.size(x_r))
        return one, 0.5 * one, 0.0 * one, one

    monkeypatch.setattr(validate, "coincidence_statistics", broken)
    results = {r.name: r for r in run_validation_suite()}
    check = results["cauchy_schwarz_radicand"]
    assert check.passed is False
    assert check.detail.endswith("worst negative radicand fraction -3.333e-01")


def slit_setup(gxp):
    """(setup, h_r): the fig2 double slit on x' grid gxp, and a 10 mm rect
    pupil."""
    setup = CorrelatorSetup(
        state=gaussian_wavefunction(2.0, 0.05),
        h_t=fourier_arm(LAM, F, double_slit(0.05, 1.0)),
        gx=make_grid(0.0, 8.0, 8193),
        gxp=gxp,
    )
    return setup, two_f_arm(LAM, F, rect_pupil(10.0))


def tabulated_object_setup():
    # raised-cosine object on [-0.15, 0.65] and a chirped soft pupil table
    g = make_grid(0.25, 0.4, 81)
    bump = 0.5 * (1.0 + np.cos(np.pi * (g.samples() - 0.25) / 0.4))
    gp = make_grid(0.0, 5.0, 201)
    xp = gp.samples()
    pupil = tabulated_pupil(gp, np.exp(-(xp**2) / 4.0 + 0.3j * xp**2))
    setup = CorrelatorSetup(
        state=gaussian_wavefunction(2.0, 0.05),
        h_t=fourier_arm(LAM, F, tabulated_transmission(g, bump)),
        gx=make_grid(0.0, 8.0, 8193),
        gxp=make_grid(0.0, 8.0, 4097),
    )
    return setup, two_f_arm(LAM, F, pupil)


def _nonzero_run(u):
    nz = np.flatnonzero(u)
    return int(nz[0]), int(nz[-1]) + 1


def _assert_window_matches_full_grid(setup, h_r, xr):
    """Amplitudes over the reference window, in blocks of x_r rows, against
    the pointwise kernel summed over every gxp node, to 1e-13 of their
    maximum."""
    wu = setup.gxp.trapezoid_weights() * setup.inner_integral()
    full = np.dot(h_r.evaluate(np.expand_dims(xr, -1), setup.gxp.samples()), wu)
    got = amplitude(setup, h_r, xr)
    assert np.abs(full).max() > 0.0
    assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()


# the default x' grid (dyadic step), and an off-centre grid whose step is not
@pytest.mark.parametrize("gxp", [make_grid(0.0, 8.0, 16385), make_grid(0.13, 8.2, 3001)])
def test_reference_window_is_the_nonzero_run_of_u(gxp):
    setup, _ = slit_setup(gxp)
    u = setup.inner_integral()
    j0, j1 = _nonzero_run(u)
    # the slits' ridge band, |x'| <= 0.85 mm, not the whole 16 mm window
    assert 0 < j0 and j1 < gxp.n_points and (j1 - j0) * gxp.step < 1.8
    window, v = setup.window, setup.v
    x = gxp.samples()
    assert window.n_points == j1 - j0
    assert np.abs(window.samples() - x[j0:j1]).max() <= 4 * np.finfo(float).eps * np.abs(x).max()
    if gxp.n_points == 16385:
        np.testing.assert_array_equal(window.samples(), x[j0:j1])
    # gxp's weights, not the window's, which would halve the end nodes
    np.testing.assert_array_equal(v, (gxp.trapezoid_weights() * u)[j0:j1])


def test_fig2_reference_window_holds_the_slits_ridge_band():
    # u(x') is exactly 0 farther than the ridge band from both slits, so the
    # fig2 window is nodes 7325..9059 of 16385
    setup = build_scan_config(load_config(preset_path("fig2"))).setup
    window = setup.window
    x = setup.gxp.samples()
    assert window.n_points == 1735
    assert (window.lo, window.hi) == (x[7325], x[9059])


def test_amplitude_blocks_bound_the_scan_memory():
    # 4001 x_r on the fig2 window of 1735 nodes, which the amplitude sums
    # at stride 12, over 146 nodes: one block of every row would hold
    # 4001 * 146 complex samples, 9.3 MB
    scan = build_scan_config(load_config(preset_path("fig2")))
    assert correlator._strided(scan.setup, scan.h_r)[0].n_points == 146
    x_r = np.linspace(-2.0, 2.0, 4001)
    tracemalloc.start()
    try:
        a = amplitude(scan.setup, scan.h_r, x_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (4001,) and np.abs(a).max() > 0.0
    assert peak < 4e6


def test_non_finite_amplitude_names_its_x_r():
    # one NaN sample in the middle of a block of the strided window: the
    # error names that x_r, not the first x_r of its block
    setup, h_r = slit_setup(make_grid(0.0, 8.0, 4097))
    x_r = np.linspace(-1.0, 1.0, 301)
    rows = _BLOCK_ENTRIES // correlator._strided(setup, h_r)[0].n_points
    k = rows + rows // 2
    assert rows >= 3 and k < x_r.size

    def poisoned(x, grid, v):
        return np.where(x == x_r[k], np.nan, h_r.apply_in(x, grid, v))

    with pytest.raises(NumericDomainError, match=re.escape(f"(x_t=0.0, x_r={x_r[k]})")):
        amplitude(setup, replace(h_r, apply_in=poisoned), x_r)


def test_a_nan_x_r_in_a_rect_table_block_is_a_numeric_error():
    # the two-row block takes the rect pupil's table, as every block does;
    # the NaN row must reach the guard, not index the table
    setup, h_r = slit_setup(make_grid(0.0, 8.0, 4097))
    with pytest.raises(NumericDomainError, match=re.escape("(x_t=0.0, x_r=nan)")):
        amplitude(setup, h_r, [0.0, np.nan])


def test_one_row_blocks_take_the_rect_table(monkeypatch):
    # a Gaussian object on the default grids, and on +/- 8.3 mm, whose
    # samples round the nodes lo + j h: u(x') has no exact zeros, so the
    # window holds more than _BLOCK_ENTRIES / 2 nodes and, for a state
    # without a band, whose amplitude sums every window node, each block
    # one row, which the rect pupil's table computes with no np.sinc call
    # on either grid
    state = replace(gaussian_wavefunction(2.0, 0.05), band=np.inf)
    h_r = two_f_arm(LAM, F, rect_pupil(10.0))
    x_r = np.linspace(-1.0, 1.0, 11)

    def no_sinc(*args, **kwargs):
        raise AssertionError("np.sinc called for a one-row block")

    for window_mm in (8.0, 8.3):
        setup = build_setup(
            state, fourier_arm(LAM, F, gaussian_transmission(0.5)), window_mm=window_mm
        )
        assert _BLOCK_ENTRIES // setup.window.n_points == 1
        xp = setup.window.samples()
        full = np.array([h_r.evaluate(x, xp) @ setup.v for x in x_r])
        with monkeypatch.context() as m:
            m.setattr(np, "sinc", no_sinc)
            got = amplitude(setup, h_r, x_r)
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()


def test_a_fig2_scan_builds_one_angle_table(monkeypatch):
    # the amplitude over the reference window, strided by 12 to 146 nodes,
    # takes the rect pupil's table, built once per apply call, not once per
    # run of its 2 runs of rows; the four I_r probes on the whole x' grid
    # split their row's angles by sqrt(n) and build none.  A 5-aperture
    # sweep builds one per aperture, on the window at its own stride
    calls, angle_table = [], optics._angle_table

    def counted(g, c):
        calls.append(g)
        return angle_table(g, c)

    monkeypatch.setattr(optics, "_angle_table", counted)
    cfg = load_config(preset_path("fig2"))
    config = build_scan_config(cfg)
    scan_reference(config)
    window = config.setup.window
    assert calls == [window.run(0, 145 * 12 + 1, 12)]
    assert -(-config.n_xr // (_BLOCK_ENTRIES // 146)) == 2
    calls.clear()
    lam, f = cfg["reference_arm"]["lambda_nm"] * 1e-6, cfg["reference_arm"]["f_mm"]
    apertures = [2.0, 4.0, 6.0, 8.0, 10.0]
    aperture_sweep(config, apertures, lam, f)
    assert calls == [
        correlator._strided(config.setup, two_f_arm(lam, f, rect_pupil(D)))[0] for D in apertures
    ]
    assert [round(g.step / window.step) for g in calls] == [19, 16, 14, 13, 12]


def _trig_calls(monkeypatch, names=("sin", "cos")):
    """{name: [entries per call]} for numpy's functions of those names,
    filled as they are called."""
    calls = {}
    for name in names:
        fn = getattr(np, name)

        def counted(x, *args, _fn=fn, _calls=calls.setdefault(name, []), **kwargs):
            _calls.append(np.size(x))
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


def test_a_fig2_scan_calls_no_sinc(monkeypatch):
    # neither the amplitude's table nor the four I_r probes sample the
    # pointwise sinc
    def no_sinc(*args, **kwargs):
        raise AssertionError("np.sinc called in a rect-pupil scan")

    config = build_scan_config(load_config(preset_path("fig2")))
    monkeypatch.setattr(np, "sinc", no_sinc)
    assert np.all(np.isfinite(scan_reference(config).noise))


def test_a_fig2_amplitude_takes_two_sines(monkeypatch):
    # one for the table of the 1735-node window at stride 12, 146 nodes,
    # built for k >= 0, and one for all 201 row anchors, though the call
    # applies the pupil in 2 runs
    config = build_scan_config(load_config(preset_path("fig2")))
    assert config.setup.window.n_points == 1735 and config.n_xr == 201
    assert correlator._strided(config.setup, config.h_r)[0].n_points == 146
    assert -(-config.n_xr // (_BLOCK_ENTRIES // 146)) == 2
    xr = np.linspace(config.xr_min, config.xr_max, config.n_xr)
    calls = _trig_calls(monkeypatch)
    amplitude(config.setup, config.h_r, xr)
    assert sorted(calls["sin"]) == [146, 201] and sorted(calls["cos"]) == [146, 201]


def _tabulated_soft_pupil():
    """A super-Gaussian aperture of half-width 0.75 mm times a chirp, on a
    301-node table over +/- 1 mm: its transform's band is the table's."""
    g = make_grid(0.0, 1.0, 301)
    x = g.samples()
    return tabulated_pupil(g, np.exp(-((x / 0.75) ** 8) + 7.3j * x**2))


@pytest.mark.parametrize(
    "pupil",
    [
        *(rect_pupil(D) for D in (2.0, 10.0, 20.0, 40.0, 80.0)),
        *(gaussian_pupil(sigma) for sigma in (1.0, 4.0)),
        _tabulated_soft_pupil(),
    ],
    ids=["rect2", "rect10", "rect20", "rect40", "rect80", "gauss1", "gauss4", "tabulated"],
)
def test_the_strided_amplitude_is_the_whole_window_sum(pupil):
    # on fig2's setup the amplitude sums every s-th window node at weight
    # s h, s > 1 for every pupil here, and its G2 matches the sum over every
    # window node to 1e-13 of its max (2.2e-15 measured)
    setup = build_scan_config(load_config(preset_path("fig2"))).setup
    h_r = two_f_arm(LAM, F, pupil)
    grid = correlator._strided(setup, h_r)[0]
    assert grid.n_points < setup.window.n_points and grid.lo == setup.window.lo
    xr = np.linspace(-2.0, 2.0, 201)
    g2 = np.abs(amplitude(setup, h_r, xr)) ** 2
    dense = np.abs(h_r.apply_in(xr, setup.window, setup.v)) ** 2
    assert np.abs(g2 - dense).max() <= 1e-13 * dense.max()


def test_the_strided_window_holds_every_s_th_node_and_pads_with_zeros():
    # fig2's 1735 window nodes at stride 12: 145 of them, nodes 0, 12, ..
    # 1728, and one node past the window's end, where v = 0
    config = build_scan_config(load_config(preset_path("fig2")))
    setup = config.setup
    grid, v = correlator._strided(setup, config.h_r)
    assert grid.n_points == 146
    np.testing.assert_array_equal(grid.samples()[:145], setup.window.samples()[::12])
    assert grid.hi == setup.window.lo + 1740 * setup.window.step
    np.testing.assert_array_equal(v, np.r_[12.0 * setup.v[::12], 0.0])


def test_a_state_without_a_band_sums_every_window_node():
    # the Cauchy-Schwarz check's matched state carries h_r's chirp in g and
    # no band: its amplitude is exactly the sum over every window node
    h_t = fourier_arm(LAM, F, gaussian_transmission(0.5))
    h_r = two_f_arm(LAM, F, gaussian_pupil(2.0))
    gx, gxp = make_grid(0.0, 8.0, 2049), make_grid(0.0, 8.0, 4097)
    state = validate._matched_state(h_t, h_r, 0.0, 0.3, gx, gxp)
    assert state.band == np.inf
    setup = CorrelatorSetup(state=state, h_t=h_t, gx=gx, gxp=gxp)
    window, v = correlator._strided(setup, h_r)
    assert window is setup.window and v is setup.v
    xr = np.linspace(-1.0, 1.0, 21)
    np.testing.assert_array_equal(
        amplitude(setup, h_r, xr), h_r.apply_in(xr, setup.window, setup.v)
    )


@pytest.mark.parametrize("D", [2.0, 10.0])
def test_rect_energy_quadrature_takes_sqrt_n_trigonometry(monkeypatch, D):
    # on the default x' grid each sine or cosine call inside energy_in
    # spans at most 2 (ceil(sqrt(16385)) + 1) entries, and none samples the
    # sinc; at 0, +/- 2 mm, half a step, a clipped anchor and 1e3 mm
    g = make_grid(0.0, 8.0, 16385)
    h_r = two_f_arm(LAM, F, rect_pupil(D))
    calls = _trig_calls(monkeypatch, ("sin", "cos", "sinc"))
    for x_r in (0.0, 2.0, -2.0, 0.5 * g.step, 9.0, 1e3):
        h_r.energy_in(x_r, g)
    assert calls["sin"] and calls["cos"] and not calls["sinc"]
    assert max(calls["sin"] + calls["cos"]) <= 2 * (129 + 1)
    assert sum(calls["sin"]) == 6 * (129 + 128)


def test_a_nan_x_r_reaches_the_energy_gate_as_a_numeric_error():
    # the rect pupil's energy row anchors a NaN x_r at a node, and the NaN
    # reaches the gate instead of indexing the split
    h_r = two_f_arm(LAM, F, rect_pupil(10.0))
    with pytest.raises(NumericDomainError, match="non-finite reference-arm energy nan"):
        gated_energy(h_r, np.nan, make_grid(0.0, 8.0, 16385), "reference-arm", "n_xp")


@pytest.mark.parametrize("case", ["slit", "tabulated_object", "dense_gaussian"])
def test_windowed_amplitude_matches_full_grid(case):
    if case == "slit":
        setup, h_r = slit_setup(make_grid(0.0, 8.0, 4097))
    elif case == "tabulated_object":
        setup, h_r = tabulated_object_setup()
    else:
        setup, h_r = small_gaussian_setup(n_x=1025, n_xp=2049)
    assert (setup.window == setup.gxp) == (case == "dense_gaussian")
    _assert_window_matches_full_grid(setup, h_r, np.linspace(-2.0, 2.0, 41))


def test_all_zero_inner_integral_scans_with_a_two_node_zero_window():
    # an all-zero u gets gxp's first two nodes as its window, with v = 0,
    # and the reference arm applies that window once for the whole scan
    setup, h_r = small_gaussian_setup(n_x=257)
    dark = Transmission(evaluate=lambda x: np.zeros_like(np.asarray(x, dtype=float)), energy=0.0)
    setup = replace(setup, h_t=fourier_arm(LAM, F, dark))
    assert setup.window == setup.gxp.run(0, 2) and setup.window.lo == setup.gxp.lo
    assert setup.v.shape == (2,) and np.all(setup.v == 0.0)
    calls = []

    def apply_in(x_r, grid, v):
        calls.append(grid)
        return h_r.apply_in(x_r, grid, v)

    result = scan_reference(ScanConfig(setup=setup, h_r=replace(h_r, apply_in=apply_in), n_xr=11))
    assert calls == [setup.window]
    columns = result.columns()
    assert list(columns["flags"]) == ["zero_g2"] * 11
    for name, values in columns.items():
        if name not in ("x_r_mm", "flags"):
            assert np.all(np.asarray(values) == 0.0), name


@pytest.mark.parametrize("node", [100, 256])
def test_single_nonzero_inner_integral_widens_the_window(node):
    # a state supported on one x' node; the last node widens downward
    g = make_grid(0.0, 4.0, 257)
    xp0 = g.samples()[node]

    state = TwoPhotonState(
        f=lambda x: np.exp(-(x**2)),
        g=lambda xp: np.where(xp == xp0, 1.0, 0.0),
        extent=((g.lo, g.hi), (g.lo, g.hi)),
    )
    h_t = fourier_arm(LAM, F, gaussian_transmission(1.0))
    # a narrow pupil: P stays far from underflow across the whole window
    h_r = two_f_arm(LAM, F, gaussian_pupil(0.02))
    setup = CorrelatorSetup(state=state, h_t=h_t, gx=g, gxp=g)
    assert _nonzero_run(setup.inner_integral()) == (node, node + 1)
    window, v = setup.window, setup.v
    j0 = node if node + 1 < g.n_points else node - 1
    np.testing.assert_array_equal(window.samples(), g.samples()[j0 : j0 + 2])
    assert np.count_nonzero(v) == 1 and v[node - j0] != 0.0
    _assert_window_matches_full_grid(setup, h_r, np.linspace(-1.0, 1.0, 5))


def _straddling_slit_setup():
    # x window [-8, 9] (dyadic step 2^-9): the lower slit, [-8.0004,
    # -7.9504], reaches 0.0004 mm past its lower edge, so the run starts at
    # gx's first node and ends one margin node past the upper slit
    return CorrelatorSetup(
        state=gaussian_wavefunction(2.0, 0.05),
        h_t=fourier_arm(LAM, F, double_slit(0.05, 15.9508)),
        gx=make_grid(0.5, 8.5, 8705),
        gxp=make_grid(0.0, 8.0, 4097),
    )


@pytest.mark.parametrize("case", ["slit", "tabulated_object", "straddling_slit"])
def test_support_run_matches_every_node(case):
    # the run of gx nodes on the object's support gives the u(x'), v and
    # I_t of a test arm sampled on every node
    if case == "slit":
        setup, _ = slit_setup(make_grid(0.0, 8.0, 4097))
    elif case == "tabulated_object":
        setup, _ = tabulated_object_setup()
    else:
        setup = _straddling_slit_setup()
        assert setup.run.lo == setup.gx.lo
    # a copy whose test arm samples every gx node
    full = replace(setup, h_t=replace(setup.h_t, support=None))
    assert full.run == setup.gx
    assert 2 < setup.run.n_points < setup.gx.n_points
    u, u_full = setup.inner_integral(), full.inner_integral()
    assert np.abs(u_full).max() > 0.0
    assert np.abs(u - u_full).max() <= 1e-15 * np.abs(u_full).max()
    assert setup.window == full.window
    assert np.abs(setup.v - full.v).max() <= 1e-15 * np.abs(full.v).max()
    assert setup.i_t == pytest.approx(full.i_t, rel=1e-15, abs=0.0)


def test_fig2_setup_samples_the_object_on_its_support_run():
    # the slits' support, |x| < 0.525 mm, meets the cells of 4301 of the
    # 65537 x nodes; with a zero node of margin on each side, u(x') and I_t
    # each sample 4303 nodes, where sampling every node took 65537 each
    scan = build_scan_config(load_config(preset_path("fig2")))
    t = double_slit(0.05, 1.0)
    nodes = []

    def cell_mean(x, h):
        nodes.append(x.size)
        return t.cell_mean(x, h)

    h_t = fourier_arm(LAM, F, replace(t, cell_mean=cell_mean))
    setup = replace(scan.setup, h_t=h_t)
    assert nodes == [4303, 4303]
    tv = t.cell_mean(setup.gx.samples(), setup.gx.step)
    run = setup.run
    assert run.n_points == 4303
    # the run is gx's nodes i0..i1-1, and tight: zero end nodes, each next
    # to a node on the support
    i0 = round((run.lo - setup.gx.lo) / setup.gx.step)
    rows = slice(i0, i0 + run.n_points)
    np.testing.assert_array_equal(run.samples(), setup.gx.samples()[rows])
    assert tv[rows.start] == tv[rows.stop - 1] == 0.0
    assert tv[rows.start + 1] > 0.0 and tv[rows.stop - 2] > 0.0
    assert np.count_nonzero(tv[rows]) == np.count_nonzero(tv)


@pytest.mark.parametrize(
    "t",
    [double_slit(0.05, np.inf), tabulated_transmission(make_grid(20.0, 0.5, 11), np.ones(11))],
    ids=["slits_at_infinity", "table_beyond_the_window"],
)
def test_object_off_the_x_grid_is_refused_by_the_energy_gate(t):
    # the support's ends are clipped to gx before they become node indices,
    # so an infinite end is not an OverflowError; the test arm captures none
    # of its energy, and the refusal names gx, not the run it sampled
    g = make_grid(0.0, 8.0, 4097)
    with pytest.raises(InvalidArgumentError, match=re.escape(
        "test-arm energy at 0 mm: the grid (step 0.003906 mm, window +/-8 mm) captures 0 of"
    )):
        CorrelatorSetup(gaussian_wavefunction(2.0, 0.05), fourier_arm(LAM, F, t), g, g)
