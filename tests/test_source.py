"""Gaussian and tabulated two-photon wavefunctions and their normalization."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ghostsim import (
    InvalidArgumentError,
    NumericDomainError,
    TruncationError,
    gaussian_wavefunction,
    make_grid,
    normalize,
    tabulated_wavefunction,
)
from ghostsim.analytic import gaussian_norm_constant
from ghostsim.source import RIDGE_EPS, _norm_integral, default_certification_grid


def test_gaussian_origin_value_and_symmetry():
    state = gaussian_wavefunction(2.0, 0.05)
    assert state.evaluate(0.0, 0.0) == pytest.approx(1.0)
    # phi is symmetric under x <-> x'
    assert state.evaluate(0.3, -0.1) == pytest.approx(state.evaluate(-0.1, 0.3))
    assert state.evaluate(0.7, 0.2) == pytest.approx(state.evaluate(-0.7, -0.2))


def test_gaussian_known_point():
    # on the diagonal the entanglement factor drops out
    state = gaussian_wavefunction(2.0, 0.05)
    x = 1.0
    expected = np.exp(-2.0 * x**2 / 4.0)
    assert state.evaluate(x, x) == pytest.approx(expected, rel=1e-14)
    assert abs(state.evaluate(0.5, 0.5)) == pytest.approx(np.exp(-0.125), rel=1e-14)


def test_gaussian_parameter_validation():
    with pytest.raises(InvalidArgumentError):
        gaussian_wavefunction(0.0, 0.05)
    with pytest.raises(InvalidArgumentError):
        gaussian_wavefunction(2.0, -0.1)


def test_normalize_matches_analytic_constant():
    a, b = 2.0, 0.05
    grid = default_certification_grid(a, b)
    state = normalize(gaussian_wavefunction(a, b), grid, grid)
    c = abs(state.evaluate(0.0, 0.0))
    assert c == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)
    # the published configuration normalizes to about 3.00
    assert c == pytest.approx(3.0, abs=0.01)


def test_normalize_random_parameters_match_analytic():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.01), np.log(1.0))))
        grid = default_certification_grid(a, b)
        state = normalize(gaussian_wavefunction(a, b), grid, grid)
        c = abs(state.evaluate(0.0, 0.0))
        assert c == pytest.approx(gaussian_norm_constant(a, b), rel=1e-6)


def test_normalize_is_idempotent():
    a, b = 1.0, 0.2
    grid = default_certification_grid(a, b)
    once = normalize(gaussian_wavefunction(a, b), grid, grid)
    twice = normalize(once, grid, grid)
    assert abs(twice.evaluate(0.0, 0.0)) == pytest.approx(
        abs(once.evaluate(0.0, 0.0)), rel=1e-9
    )


def test_normalize_records_certificate():
    a, b = 1.0, 0.2
    grid = default_certification_grid(a, b)
    state = normalize(gaussian_wavefunction(a, b), grid, grid)
    assert state.norm_certified
    cert = state.descriptor["certification"]
    assert cert["gx"] == (grid.center, grid.half_width, grid.n_points)
    assert state.descriptor["c_norm"] == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)


def test_weak_entanglement_limit():
    # as b grows the pair factorizes and C tends to sqrt(2/pi)/a
    a = 1.0
    c = gaussian_norm_constant(a, 1e4)
    assert c == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-6)


def test_scaled_state_loses_certificate():
    a, b = 1.0, 0.2
    grid = default_certification_grid(a, b)
    state = normalize(gaussian_wavefunction(a, b), grid, grid)
    doubled = state.scaled(2.0)
    assert not doubled.norm_certified
    assert abs(doubled.evaluate(0.0, 0.0)) == pytest.approx(
        2.0 * abs(state.evaluate(0.0, 0.0)), rel=1e-14
    )


def test_truncation_error_on_narrow_window():
    state = gaussian_wavefunction(2.0, 0.5)
    small = make_grid(0.0, 1.0, 257)
    with pytest.raises(TruncationError):
        normalize(state, small, small)


def test_tabulated_state_interpolates():
    a, b = 0.5, 0.05
    base = gaussian_wavefunction(a, b)
    g = make_grid(0.0, 0.06, 4097)
    x = g.samples()
    values = base.evaluate(x[:, np.newaxis], x[np.newaxis, :])
    tab = tabulated_wavefunction(g, g, values)
    # node values are exact, cell midpoints agree to interpolation accuracy
    assert tab.evaluate(x[100], x[200]) == pytest.approx(
        complex(base.evaluate(x[100], x[200])), rel=1e-12
    )
    mid = 0.5 * (x[100] + x[101])
    assert abs(tab.evaluate(mid, 0.0) - base.evaluate(mid, 0.0)) < 1e-6


def test_tabulated_state_zero_outside_domain():
    g = make_grid(0.0, 1.0, 33)
    tab = tabulated_wavefunction(g, g, np.ones((33, 33)))
    assert tab.evaluate(2.0, 0.0) == 0.0
    assert tab.evaluate(0.0, -1.5) == 0.0


def test_normalize_rejects_zero_table():
    g = make_grid(0.0, 1.0, 33)
    tab = tabulated_wavefunction(g, g, np.zeros((33, 33)))
    with pytest.raises(InvalidArgumentError):
        normalize(tab, g, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_rejects_non_finite_table(bad):
    # a compact bump with one non-finite interior entry: the norm is not
    # finite, so the state must not be certified
    g = make_grid(0.0, 1.0, 33)
    x = g.samples()
    values = np.exp(-(x[:, np.newaxis] ** 2 + x[np.newaxis, :] ** 2) / 0.05)
    values[10, 20] = bad
    tab = tabulated_wavefunction(g, g, values)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericDomainError, match="not finite"):
            normalize(tab, g, g)


def test_certification_grid_resolves_entanglement_ridge():
    g = default_certification_grid(2.0, 0.05)
    assert g.half_width == 8.0
    assert g.step <= 0.05 / 6.0
    assert default_certification_grid(0.1, 10.0).n_points >= 257


def _counting(state):
    """Copy of state whose kernel counts the entries it evaluates."""
    seen = [0]

    def kernel(x, xp):
        block = state.kernel(x, xp)
        seen[0] += np.size(block)
        return block

    return replace(state, kernel=kernel), seen


def test_banded_reduction_matches_dense_sum():
    rng = np.random.default_rng(7)
    for trial in range(12):
        a = rng.uniform(0.5, 3.0)
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(0.5))))
        gx = make_grid(rng.uniform(-0.5, 0.5), rng.uniform(2.0, 4.0), int(rng.integers(600, 2000)))
        gxp = make_grid(rng.uniform(-0.5, 0.5), rng.uniform(2.0, 4.0), int(rng.integers(600, 2000)))
        left = np.zeros(gx.n_points, dtype=complex)
        if trial % 3 == 0:
            # every row nonzero, like a smooth object
            left[:] = rng.normal(size=gx.n_points) + 1j * rng.normal(size=gx.n_points)
        else:
            # two disjoint clusters of consecutive rows, like a double slit
            for _ in range(2):
                i0 = int(rng.integers(0, gx.n_points - 80))
                n = int(rng.integers(1, 80))
                left[i0 : i0 + n] = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = gaussian_wavefunction(a, b).scaled(0.3 - 0.7j)
        counted, seen = _counting(state)
        banded = counted.reduce(left, gx, gxp)
        dense = left @ state.evaluate(gx.samples()[:, np.newaxis], gxp.samples()[np.newaxis, :])
        scale = np.abs(dense).max()
        assert scale > 0.0
        assert np.abs(banded - dense).max() <= 1e-13 * scale
        # each nonzero row costs at most a three-band-wide column window
        band = b * np.sqrt(np.log(1.0 / RIDGE_EPS))
        per_row = min(gxp.n_points, 3.0 * band / gxp.step + 2.0)
        assert seen[0] <= np.count_nonzero(left) * per_row


def test_dense_kernel_reduction_evaluates_every_column():
    g = make_grid(0.0, 1.0, 65)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(65, 65)) + 1j * rng.normal(size=(65, 65))
    counted, seen = _counting(tabulated_wavefunction(g, g, values).scaled(2.0))
    left = np.zeros(65, dtype=complex)
    left[[3, 4, 40]] = [1.0, 2.0j, -0.5]
    got = counted.reduce(left, g, g)
    np.testing.assert_allclose(got, 2.0 * (left @ values), rtol=0, atol=1e-13 * np.abs(got).max())
    assert seen[0] == 3 * 65


def test_banded_norm_integral_matches_dense_and_analytic():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(1.0))))
        grid = default_certification_grid(a, b)
        state = gaussian_wavefunction(a, b)
        banded = _norm_integral(state, grid, grid)
        x = grid.samples()
        w = grid.trapezoid_weights()
        dense = float(w @ np.abs(state.evaluate(x[:, np.newaxis], x[np.newaxis, :])) ** 2 @ w)
        assert banded == pytest.approx(dense, rel=1e-13)
        assert banded == pytest.approx(gaussian_norm_constant(a, b) ** -2, rel=1e-9)


def test_scaled_state_normalizes_to_the_same_c_norm():
    a, b = 2.0, 0.05
    grid = default_certification_grid(a, b)
    state = gaussian_wavefunction(a, b)
    clean = normalize(state, grid, grid)
    doubled = normalize(state.scaled(2.0), grid, grid)
    assert doubled.c_norm == pytest.approx(clean.c_norm, rel=1e-14)
    assert clean.c_norm == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)
    # the kernel is shared; only the scalar differs
    assert doubled.kernel is clean.kernel
