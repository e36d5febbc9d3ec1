"""Gaussian and separable two-photon wavefunctions, their normalization and
the ridge reduction over the difference lattice."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ghostsim import (
    InvalidArgumentError,
    NumericDomainError,
    TruncationError,
    TwoPhotonState,
    gaussian_wavefunction,
    make_grid,
    normalize,
)
from ghostsim import grid
from ghostsim.analytic import gaussian_norm_constant
from ghostsim.grid import MAX_NODES, reduce_rows
from ghostsim.source import RIDGE_EPS, RIDGE_STEPS, _band, _norm_integral
from ghostsim.validate import _norm_grid


def test_gaussian_origin_value_and_symmetry():
    state = gaussian_wavefunction(2.0, 0.05)
    assert state.evaluate(0.0, 0.0) == pytest.approx(state.c_norm)
    # phi is symmetric under x <-> x'
    assert state.evaluate(0.3, -0.1) == pytest.approx(state.evaluate(-0.1, 0.3))
    assert state.evaluate(0.7, 0.2) == pytest.approx(state.evaluate(-0.7, -0.2))


def test_gaussian_known_point():
    # on the diagonal the entanglement factor drops out
    state = gaussian_wavefunction(2.0, 0.05)
    x = 1.0
    expected = np.exp(-2.0 * x**2 / 4.0)
    assert state.evaluate(x, x) / state.c_norm == pytest.approx(expected, rel=1e-14)
    assert abs(state.evaluate(0.5, 0.5) / state.c_norm) == pytest.approx(np.exp(-0.125), rel=1e-14)


def test_gaussian_parameter_validation():
    for a, b in ((0.0, 0.05), (2.0, -0.1), (2.0, 0.0), (np.nan, 0.05)):
        with pytest.raises(InvalidArgumentError, match="must be > 0"):
            gaussian_wavefunction(a, b)


def _quadrature_c_norm(state, a, b):
    """c_norm from the norm quadrature on the validation suite's norm grid
    for the Gaussian source (a, b), started from c_norm = 1 rather than from
    the state's own value."""
    grid = _norm_grid(a, b)
    return normalize(replace(state, c_norm=1.0), grid, grid).c_norm


def test_normalize_matches_analytic_constant():
    a, b = 2.0, 0.05
    state = gaussian_wavefunction(a, b)
    c = abs(state.evaluate(0.0, 0.0))
    assert c == state.c_norm
    for got in (c, _quadrature_c_norm(state, a, b)):
        assert got == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)
    # the published configuration normalizes to about 3.00
    assert c == pytest.approx(3.0, abs=0.01)


def test_normalize_random_parameters_match_analytic():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.01), np.log(1.0))))
        state = gaussian_wavefunction(a, b)
        for got in (abs(state.evaluate(0.0, 0.0)), _quadrature_c_norm(state, a, b)):
            assert got == pytest.approx(gaussian_norm_constant(a, b), rel=1e-6)
    # the constructor's closed form against the quadrature, from b = a / 40
    # down to a / 2000 (a 96001-node norm grid)
    for a, b in ((2.0, 0.05), (2.0, 0.5), (1.0, 0.2), (2.0, 1e-3), (0.5, 0.3)):
        state = gaussian_wavefunction(a, b)
        assert state.c_norm == pytest.approx(_quadrature_c_norm(state, a, b), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.05)])
@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e100, 1e150])
def test_closed_form_c_norm_scales_inversely_with_the_widths(a, b, scale):
    # |phi|^2 integrates over an area ~ a b, so C(s a, s b) = C(a, b) / s.  At
    # s = 1e-160, a^2 is subnormal and 2 / a^2 overflows, so the separated
    # form of gaussian_norm_constant divides by zero; check_width admits it
    c = gaussian_wavefunction(a, b).c_norm
    scaled = gaussian_wavefunction(scale * a, scale * b).c_norm
    assert np.isfinite(scaled) and scaled > 0.0
    assert scaled * scale == pytest.approx(c, rel=1e-15, abs=0.0)


def test_normalize_is_idempotent():
    a, b = 1.0, 0.2
    grid = _norm_grid(a, b)
    once = gaussian_wavefunction(a, b)
    twice = normalize(once, grid, grid)
    assert abs(twice.evaluate(0.0, 0.0)) == pytest.approx(
        abs(once.evaluate(0.0, 0.0)), rel=1e-9
    )


def test_normalize_records_certificate():
    # the Gaussian source is certified unit-norm over [-4a, 4a] by its
    # constructor; normalize certifies a state over its grids' ends
    a, b = 1.0, 0.2
    state = gaussian_wavefunction(a, b)
    assert state.extent == ((-4.0, 4.0), (-4.0, 4.0))
    assert state.c_norm == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)
    g = make_grid(0.0, 6.0, 1025)
    assert normalize(state, g, g).extent == ((-6.0, 6.0), (-6.0, 6.0))
    gx, gxp = make_grid(1.0, 6.0, 1025), make_grid(1.0, 6.0, 2049)
    assert normalize(state, gx, gxp).extent == ((-5.0, 7.0), (-5.0, 7.0))


def test_weak_entanglement_limit():
    # as b grows the pair factorizes and C tends to sqrt(2/pi)/a
    a = 1.0
    c = gaussian_norm_constant(a, 1e4)
    assert c == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-6)


def test_truncation_error_on_narrow_window():
    state = gaussian_wavefunction(2.0, 0.5)
    small = make_grid(0.0, 1.0, 257)
    with pytest.raises(TruncationError):
        normalize(state, small, small)
    # off-centre grids that cut the state in x, then in x', are refused too
    state = gaussian_wavefunction(1.0, 0.2)
    for gx, gxp in [
        (make_grid(1.0, 2.0, 1025), make_grid(-0.5, 5.0, 2049)),
        (make_grid(1.0, 6.0, 1025), make_grid(2.0, 3.5, 2049)),
    ]:
        with pytest.raises(TruncationError, match="not negligible at the grid boundary"):
            normalize(state, gx, gxp)


def test_normalize_refuses_grids_that_do_not_resolve_the_ridge():
    # on 129 nodes over [-8, 8] (step 0.125 mm) the ridge of |phi|^2, of
    # width b / sqrt(2) = 0.0354 mm, falls between the nodes: the quadrature
    # read c_norm 2.12 against the closed form 3.00, and a scan on that state
    # half the closed-form g2.  A step over RIDGE_STEPS b / sqrt(2) is
    # refused, naming the grid; 513 nodes (3.3e-6 off) are refused too
    closed = gaussian_wavefunction(2.0, 0.05)
    raw = replace(closed, c_norm=1.0, extent=None)
    coarse, mid, fine = (make_grid(0.0, 8.0, n) for n in (129, 513, 1025))
    with pytest.raises(InvalidArgumentError, match=r"grid step 0\.125 mm .*; refine gx$"):
        normalize(raw, coarse, coarse)
    with pytest.raises(InvalidArgumentError, match=r"grid step 0\.03125 mm .*; refine gxp$"):
        normalize(raw, fine, mid)
    assert normalize(raw, fine, fine).c_norm == pytest.approx(closed.c_norm, rel=1e-15, abs=0.0)
    # the bound itself is accepted, within the rule's 1e-6 (5.0e-7 measured),
    # and the next float above it refused; 2^11 * step is exact, so the
    # 4097-node grid has that step
    edge = RIDGE_STEPS * 0.05 / np.sqrt(2.0)
    for step in (edge, np.nextafter(edge, np.inf)):
        g = make_grid(0.0, 2048.0 * step, 4097)
        assert g.step == step
        if step == edge:
            assert normalize(raw, g, g).c_norm == pytest.approx(closed.c_norm, rel=1e-6)
        else:
            with pytest.raises(InvalidArgumentError, match="refine gx$"):
                normalize(raw, g, fine)


def test_normalize_finds_the_ridge_peak_on_off_centre_grids():
    # grids of different centres: the corner-to-corner line through the
    # bulk misses the ridge x = x', whose peak the edges are then compared
    # with; these hold |phi|^2 to e^-40 of its peak at their edges, and
    # give the c_norm of centred grids
    state = gaussian_wavefunction(1.0, 0.2)
    centred = normalize(state, make_grid(0.0, 6.0, 1025), make_grid(0.0, 5.0, 2049))
    moved = normalize(state, make_grid(1.0, 6.0, 1025), make_grid(-0.5, 5.0, 2049))
    assert moved.c_norm == pytest.approx(centred.c_norm, rel=1e-12, abs=0.0)
    assert moved.extent == ((-5.0, 7.0), (-5.5, 4.5))


def tabulated(g, values):
    """Envelope interpolating values on the grid g linearly, zero outside it."""
    values = np.asarray(values)
    x = g.samples()

    def envelope(s):
        s = np.asarray(s, dtype=float)
        return np.interp(s, x, values.real, left=0.0, right=0.0) + 1j * np.interp(
            s, x, values.imag, left=0.0, right=0.0
        )

    return envelope


def separable(f, g, ridge=None, ridge_width=np.inf):
    return TwoPhotonState(f=f, g=g, ridge=ridge, ridge_width=ridge_width)


def random_table(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_tabulated_state_interpolates():
    # a separable state of random tabulated envelopes: phi = f(x) g(x')
    rng = np.random.default_rng(5)
    g = make_grid(0.0, 0.06, 4097)
    fv, gv = random_table(rng, 4097), random_table(rng, 4097)
    tab = replace(separable(tabulated(g, fv), tabulated(g, gv)), c_norm=0.5j)
    x = g.samples()
    # node values are exact, cell midpoints are the mean of their nodes
    assert tab.evaluate(x[100], x[200]) == pytest.approx(0.5j * fv[100] * gv[200], rel=1e-14)
    mid = 0.5 * (x[100] + x[101])
    expected = 0.5j * 0.5 * (fv[100] + fv[101]) * gv[2048]
    assert tab.evaluate(mid, x[2048]) == pytest.approx(expected, rel=1e-12)
    outer = tab.evaluate(x[:, np.newaxis], x[np.newaxis, :])
    np.testing.assert_allclose(outer, 0.5j * np.outer(fv, gv), rtol=1e-14)


def test_tabulated_state_zero_outside_domain():
    g = make_grid(0.0, 1.0, 33)
    ones = tabulated(g, np.ones(33))
    tab = separable(ones, ones)
    assert tab.evaluate(2.0, 0.0) == 0.0
    assert tab.evaluate(0.0, -1.5) == 0.0
    assert tab.evaluate(0.5, -0.5) == 1.0


def test_normalize_rejects_zero_table():
    g = make_grid(0.0, 1.0, 33)
    tab = separable(tabulated(g, np.zeros(33)), tabulated(g, np.ones(33)))
    with pytest.raises(InvalidArgumentError):
        normalize(tab, g, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_rejects_non_finite_table(bad):
    # a compact bump with one non-finite interior envelope entry: the norm is
    # not finite, so the state must not be certified
    g = make_grid(0.0, 1.0, 33)
    x = g.samples()
    values = np.exp(-(x**2) / 0.05)
    bump = tabulated(g, values)
    values[10] = bad
    for state in (
        separable(tabulated(g, values), bump),
        separable(bump, tabulated(g, values)),
        separable(tabulated(g, values), bump, ridge=lambda d: np.exp(-(d**2)), ridge_width=1.0),
    ):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericDomainError, match="not finite"):
                normalize(state, g, g)


def test_certification_grid_resolves_entanglement_ridge():
    # the grid on which the validation suite checks the closed-form c_norm
    # by quadrature: the source's extent at a step resolving the ridge
    g = _norm_grid(2.0, 0.05)
    assert (g.lo, g.hi) == gaussian_wavefunction(2.0, 0.05).extent[0] == (-8.0, 8.0)
    assert g.step <= 0.05 / 6.0
    assert _norm_grid(0.1, 10.0).n_points >= 257


def _counting(ridge):
    """ridge wrapped to keep a copy of every array of differences it is
    evaluated on: 1-D for a correlated segment, 2-D for a block evaluated
    entry by entry."""
    calls = []

    def counted(d):
        calls.append(np.array(d))
        return ridge(d)

    return counted, calls


def _samples(calls):
    return sum(d.size for d in calls)


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
        state = replace(gaussian_wavefunction(a, b), c_norm=0.3 - 0.7j)
        ridge, calls = _counting(state.ridge)
        banded = replace(state, ridge=ridge).reduce(left, gx, gxp)
        dense = left @ state.evaluate(gx.samples()[:, np.newaxis], gxp.samples()[np.newaxis, :])
        scale = np.abs(dense).max()
        assert scale > 0.0
        assert np.abs(banded - dense).max() <= 1e-13 * scale
        # each nonzero row costs at most a three-band-wide column window
        band = b * np.sqrt(np.log(1.0 / RIDGE_EPS))
        per_row = min(gxp.n_points, 3.0 * band / gxp.step + 2.0)
        assert _samples(calls) <= np.count_nonzero(left) * per_row


def test_dense_kernel_reduction_evaluates_every_column():
    # random tabulated envelopes and a ridge without a width bound: every
    # column of the block is reduced, from one sample per lattice node
    g = make_grid(0.0, 1.0, 65)
    rng = np.random.default_rng(3)
    fv, gv = random_table(rng, 65), random_table(rng, 65)

    def ridge(d):
        return np.cos(3.0 * d) + 0.5j * np.sin(d)

    state = replace(separable(tabulated(g, fv), tabulated(g, gv), ridge=ridge), c_norm=2.0)
    counted, calls = _counting(ridge)
    left = np.zeros(65, dtype=complex)
    left[[3, 4, 40]] = [1.0, 2.0j, -0.5]
    got = replace(state, ridge=counted).reduce(left, g, g)
    x = g.samples()
    dense = 2.0 * (left * fv) @ ridge(x[:, np.newaxis] - x[np.newaxis, :]) * gv
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * np.abs(dense).max())
    assert np.count_nonzero(got) == 65
    # one segment of rows 3..40 (span 38) and 65 columns on a 1:1 lattice
    assert [d.shape for d in calls] == [(38 + 65 - 1,)]


def test_separable_state_reduces_to_a_sum():
    # R = 1: sum_x left f g is (sum left f) g, with no ridge and no block
    rng = np.random.default_rng(8)
    gx, gxp = make_grid(0.1, 2.0, 301), make_grid(-0.2, 3.0, 211)
    fv, gv = random_table(rng, 301), random_table(rng, 211)
    state = replace(separable(tabulated(gx, fv), tabulated(gxp, gv)), c_norm=0.5 - 2j)
    left = random_table(rng, 301)
    left[::7] = 0.0
    got = state.reduce(left, gx, gxp)
    expected = (0.5 - 2j) * np.sum(left * fv) * gv
    np.testing.assert_allclose(got, expected, rtol=1e-13)
    w, wp = gx.trapezoid_weights(), gxp.trapezoid_weights()
    assert _norm_integral(state, gx, gxp) == pytest.approx(
        abs(0.5 - 2j) ** 2 * (w @ np.abs(fv) ** 2) * (wp @ np.abs(gv) ** 2), rel=1e-13
    )


def _dense_ridge_sum(ridge, left, gx, gxp):
    return left @ ridge(gx.samples()[:, np.newaxis] - gxp.samples()[np.newaxis, :])


def _distance_to_rows(left, gx, gxp):
    """Distance from each x' node to the nearest nonzero row of left."""
    xs = gx.samples()[np.flatnonzero(left)]
    return np.abs(gxp.samples()[:, np.newaxis] - xs[np.newaxis, :]).min(axis=1)


@pytest.mark.parametrize(
    "n_x, n_xp, p, q",
    [(2049, 2049, 1, 1), (1025, 2049, 2, 1), (4097, 1025, 1, 4)],
)
def test_lattice_segments_match_direct_evaluation(monkeypatch, n_x, n_xp, p, q):
    # grids of the package's step ratios 1:1, 2:1 and 1:4: each segment is
    # one correlation that samples the ridge once, only where |d| <= band,
    # and leaves the columns out of band of every nonzero row exactly 0
    monkeypatch.setattr(grid, "_SEGMENT", 1024)
    rng = np.random.default_rng(n_x + n_xp)
    b = 0.08
    ridge = gaussian_wavefunction(1.0, b).ridge
    band = _band(b)
    gx, gxp = make_grid(0.0, 2.0, n_x), make_grid(0.0, 2.0, n_xp)
    assert gx.step * q == pytest.approx(gxp.step * p, rel=1e-15)
    h = gx.step / p
    # (clusters as (first, stop, stride), segments): the clusters of "two
    # clusters" lie more than 2 band apart; "dense" spans over 1024 fine
    # nodes, so it is split for overlap-add
    cases = {
        "gaps": ([(600, 700, 3)], 1),
        "left edge": ([(0, 40, 1)], 1),
        "right edge": ([(n_x - 40, n_x, 1)], 1),
        "two clusters": ([(100, 180, 1), (n_x - 300, n_x - 250, 2)], 2),
        "single row": ([(n_x // 2, n_x // 2 + 1, 1)], 1),
        "dense": ([(0, n_x, 1)], None),
    }
    for name, (clusters, segments) in cases.items():
        left = np.zeros(n_x, dtype=complex)
        for lo, hi, stride in clusters:
            k = np.arange(lo, hi, stride)
            left[k] = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
        counted, calls = _counting(ridge)
        got = reduce_rows(counted, left, gx, gxp, band)
        dense = _dense_ridge_sum(ridge, left, gx, gxp)
        scale = np.abs(dense).max()
        assert np.abs(got - dense).max() <= 1e-13 * scale, name
        if segments is None:
            # span p (n_x - 1) fine nodes in segments of at most 1024
            segments = -(-p * (n_x - 1) // 1024)
            assert len(calls) in (segments, segments + 1), name
        else:
            assert len(calls) == segments, name
        for d in calls:
            assert d.ndim == 1 and np.abs(d).max() <= band, name
            assert d.size <= 2.0 * band / h + 1.0, name
            np.testing.assert_allclose(np.diff(d), h, rtol=1e-9, err_msg=name)
        far = _distance_to_rows(left, gx, gxp)
        assert np.all(got[far > band * (1.0 + 1e-12)] == 0.0), name


def test_segments_keep_the_precision_of_each_cluster():
    # two clusters 1e12 apart in magnitude and more than 2 band apart in x:
    # each is its own segment, so the faint one is exact to its own scale,
    # not to the bright one's
    b = 0.05
    ridge = gaussian_wavefunction(1.0, b).ridge
    band = _band(b)
    gx, gxp = make_grid(0.0, 2.0, 4097), make_grid(0.0, 2.0, 1025)
    rng = np.random.default_rng(21)
    left = np.zeros(gx.n_points, dtype=complex)
    bright, faint = slice(400, 500), slice(3500, 3600)
    left[bright] = rng.normal(size=100) + 1j * rng.normal(size=100)
    left[faint] = 1e-12 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    assert gx.samples()[3500] - gx.samples()[499] > 2.0 * band
    counted, calls = _counting(ridge)
    got = reduce_rows(counted, left, gx, gxp, band)
    assert len(calls) == 2
    only_faint = left.copy()
    only_faint[bright] = 0.0
    near = _distance_to_rows(only_faint, gx, gxp) <= band
    expected = _dense_ridge_sum(ridge, only_faint, gx, gxp)[near]
    assert np.abs(expected).max() < 1e-10
    assert np.abs(got[near] - expected).max() <= 1e-13 * np.abs(expected).max()


# an unbounded ridge on a 2:(2^22 - 1) lattice in a fresh process under a
# 1 GiB address-space limit: a kernel that slips past the node budget fails
# the test with a MemoryError instead of exhausting the machine's memory
_UNBOUNDED_KERNEL = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from ghostsim import InvalidArgumentError, make_grid
from ghostsim.grid import MAX_NODES, reduce_rows
gx, gxp = make_grid(0.0, 1.0, 3), make_grid(0.0, 1.0, MAX_NODES)
try:
    reduce_rows(np.cos, np.array([0.0, 1.0, 0.0]), gx, gxp)
except InvalidArgumentError as exc:
    print(exc)
"""


def test_unbounded_ridge_kernel_over_the_node_budget_is_refused():
    proc = subprocess.run(
        [sys.executable, "-c", _UNBOUNDED_KERNEL],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "budget" in proc.stdout and str(MAX_NODES) in proc.stdout


def test_incommensurate_grids_evaluate_the_ridge_directly():
    rng = np.random.default_rng(12)
    ridge = gaussian_wavefunction(1.0, 0.1).ridge
    for _ in range(4):
        gx = make_grid(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0), int(rng.integers(400, 900)))
        gxp = make_grid(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0), int(rng.integers(400, 900)))
        left = np.zeros(gx.n_points)
        left[50:120] = rng.normal(size=70)
        counted, calls = _counting(ridge)
        got = reduce_rows(counted, left, gx, gxp, _band(0.1))
        dense = _dense_ridge_sum(ridge, left, gx, gxp)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
        assert calls and all(d.ndim == 2 for d in calls)


def test_incommensurate_blocks_stay_within_the_node_budget(monkeypatch):
    # an unbounded ridge takes every column: a block then holds as many rows
    # as fit MAX_NODES entries, at least one
    monkeypatch.setattr(grid, "MAX_NODES", 2000)
    rng = np.random.default_rng(13)
    gx, gxp = make_grid(0.0, 1.0, 301), make_grid(0.01, np.sqrt(2.0), 731)
    assert grid._lattice(gx, gxp) is None
    left = rng.normal(size=301)

    def ridge(d):
        return np.cos(3.0 * d)

    counted, calls = _counting(ridge)
    got = reduce_rows(counted, left, gx, gxp)
    dense = _dense_ridge_sum(ridge, left, gx, gxp)
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
    assert len(calls) == 301 // 2 + 1
    assert all(d.shape[0] <= 2 and d.shape[1] == 731 for d in calls)


def test_banded_norm_integral_matches_dense_and_analytic():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a = rng.uniform(0.5, 5.0)
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(1.0))))
        grid = _norm_grid(a, b)
        state = replace(gaussian_wavefunction(a, b), c_norm=1.0)
        banded = _norm_integral(state, grid, grid)
        x = grid.samples()
        w = grid.trapezoid_weights()
        dense = float(w @ np.abs(state.evaluate(x[:, np.newaxis], x[np.newaxis, :])) ** 2 @ w)
        assert banded == pytest.approx(dense, rel=1e-13)
        assert banded == pytest.approx(gaussian_norm_constant(a, b) ** -2, rel=1e-9)


def test_scaled_state_normalizes_to_the_same_c_norm():
    a, b = 2.0, 0.05
    grid = _norm_grid(a, b)
    state = gaussian_wavefunction(a, b)
    clean = normalize(state, grid, grid)
    doubled = normalize(replace(state, c_norm=2.0 * state.c_norm), grid, grid)
    assert doubled.c_norm == pytest.approx(clean.c_norm, rel=1e-14)
    assert clean.c_norm == pytest.approx(gaussian_norm_constant(a, b), rel=1e-9)
    # the envelopes and the ridge are shared; only the scalar differs
    assert doubled.ridge is clean.ridge and doubled.f is clean.f
