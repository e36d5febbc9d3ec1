"""Object transmissions, pupils and the impulse responses of the two arms."""

from __future__ import annotations

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ghostsim import (
    InvalidArgumentError,
    amplitude,
    arm_energy,
    build_setup,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    gaussian_wavefunction,
    make_grid,
    optics,
    rect_pupil,
    tabulated_pupil,
    tabulated_transmission,
    two_f_arm,
)
from ghostsim.analytic import (
    double_slit_arm_energy,
    gaussian_object_arm_energy,
    gaussian_two_f_arm_energy,
    rect_two_f_arm_energy,
)
from ghostsim.optics import _BLOCK_ENTRIES, _angle_table
from ghostsim.validate import rect_energy_grid
from helpers import applied_runs, pupil_block, scaled_arm

LAM = 650e-6
F = 100.0
LF = LAM * F


def test_double_slit_indicator():
    t = double_slit(0.05, 1.0)
    assert t.evaluate(0.5) == 1.0
    assert t.evaluate(-0.5) == 1.0
    assert t.evaluate(0.0) == 0.0
    assert t.evaluate(0.6) == 0.0
    # edges are included (probed with exactly representable bounds)
    edges = double_slit(0.5, 2.0)
    assert edges.evaluate(1.25) == 1.0
    assert edges.evaluate(1.2500001) == 0.0


def test_double_slit_is_even():
    t = double_slit(0.08, 0.9)
    x = np.linspace(-1.2, 1.2, 481)
    np.testing.assert_array_equal(t.evaluate(x), t.evaluate(-x))


def test_double_slit_rejects_merged_slits():
    with pytest.raises(InvalidArgumentError):
        double_slit(1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        double_slit(-0.1, 1.0)


def test_double_slit_cell_mean_integrates_exactly():
    # cell averaging makes the quadrature of t exact on any covering grid
    t = double_slit(0.05, 1.0)
    for n in (101, 257, 1024):
        g = make_grid(0.0, 0.8, n)
        total = float(np.dot(g.trapezoid_weights(), t.cell_mean(g.samples(), g.step)))
        assert total == pytest.approx(0.1, rel=1e-12)


def test_double_slit_cell_mean_partial_coverage():
    t = double_slit(0.05, 1.0)
    # a cell of width 0.1 centered on a slit is covered for half its length
    assert t.cell_mean(np.array([0.5]), 0.1)[0] == pytest.approx(0.5)


def test_gaussian_transmission_profile():
    t = gaussian_transmission(0.5)
    assert t.evaluate(0.0) == 1.0
    assert t.evaluate(0.5) == pytest.approx(np.exp(-1.0))
    assert t.cell_mean is None


def test_tabulated_transmission_range_check():
    g = make_grid(0.0, 1.0, 11)
    with pytest.raises(InvalidArgumentError):
        tabulated_transmission(g, np.full(11, 1.5))
    t = tabulated_transmission(g, np.linspace(0.0, 1.0, 11))
    assert t.evaluate(0.0) == pytest.approx(0.5)
    assert t.evaluate(3.0) == 0.0


def test_rect_pupil_transform():
    p = rect_pupil(10.0)
    assert p.ft(0.0) == pytest.approx(10.0)
    assert abs(p.ft(0.1)) < 1e-12
    assert p.ft(0.05) == pytest.approx(20.0 / np.pi, rel=1e-12)
    u = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(p.ft(u))) <= 10.0 + 1e-12


def test_gaussian_pupil_transform_matches_quadrature():
    sigma = 1.3
    p = gaussian_pupil(sigma)
    g = make_grid(0.0, 7.0 * sigma, 4001)
    x = g.samples()
    w = g.trapezoid_weights()
    rng = np.random.default_rng(7)
    for u in rng.uniform(-1.0, 1.0, size=20):
        direct = complex(np.dot(w, np.exp(-(x**2) / sigma**2 - 2j * np.pi * u * x)))
        assert p.ft(u) == pytest.approx(direct, rel=1e-10)


def test_pupils_state_their_width_and_the_2f_arm_its_band():
    # W bounds the pupil in its own plane: D, the Gaussian's 2 sigma
    # sqrt(ln(1e16)), and twice the table's farthest node from 0; the 2f
    # arm's x' band over a grid adds the chirp's at its largest |x'|
    assert rect_pupil(3.0).width == 3.0
    assert gaussian_pupil(2.0).width == pytest.approx(4.0 * np.sqrt(np.log(1e16)), rel=1e-15)
    assert tabulated_pupil(make_grid(0.5, 1.5, 31), np.ones(31)).width == 4.0
    band = two_f_arm(LAM, F, rect_pupil(10.0)).band_in(make_grid(-0.1, 0.9, 101))
    assert band == pytest.approx(10.0 / (4.0 * LF) + 1.0 / (2.0 * LF), rel=1e-15)
    assert fourier_arm(LAM, F, double_slit(0.05, 1.0)).band_in is None


def test_tabulated_transform_matches_the_complex_exponential_sum():
    # ft forms exp(-2 pi i u xi) as cos - i sin: against numpy's complex
    # exp it agrees to 1e-13 of max |P| at |u| up to 70 /mm
    g = make_grid(0.0, 1.0, 301)
    x = g.samples()
    values = np.exp(-((x / 0.75) ** 8) + 7.3j * x**2)
    u = np.linspace(-70.0, 70.0, 541)
    direct = np.exp(-2j * np.pi * np.multiply.outer(u, x)) @ (g.trapezoid_weights() * values)
    got = tabulated_pupil(g, values).ft(u)
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


def test_tabulated_pupil_matches_analytic_transform():
    sigma = 1.0
    ref = gaussian_pupil(sigma)
    g = make_grid(0.0, 5.0 * sigma, 2001)
    tab = tabulated_pupil(g, np.exp(-(g.samples() ** 2) / sigma**2))
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, size=100)
    np.testing.assert_allclose(tab.ft(u), ref.ft(u), rtol=1e-6, atol=1e-9)
    # scalar and 2-D broadcast paths agree with the flat path
    assert tab.ft(0.25) == pytest.approx(complex(ref.ft(0.25)), rel=1e-6)
    block = tab.ft(u.reshape(10, 10))
    np.testing.assert_allclose(block, ref.ft(u).reshape(10, 10), rtol=1e-6, atol=1e-9)


def test_arm_energies_are_the_closed_forms():
    pairs = [
        (fourier_arm(LAM, F, double_slit(0.05, 1.0)), double_slit_arm_energy(0.05, LAM, F)),
        (fourier_arm(LAM, F, gaussian_transmission(0.5)), gaussian_object_arm_energy(0.5, LAM, F)),
        (two_f_arm(LAM, F, rect_pupil(4.0)), rect_two_f_arm_energy(4.0, LAM, F)),
        (two_f_arm(LAM, F, gaussian_pupil(2.0)), gaussian_two_f_arm_energy(2.0, LAM, F)),
    ]
    for h, exact in pairs:
        assert h.energy == pytest.approx(exact, rel=1e-15)


def test_tabulated_energies_integrate_the_interpolant_and_one_period_of_p():
    rng = np.random.default_rng(5)
    g = make_grid(0.3, 1.0, 11)
    # the linear interpolant squared, by a fine trapezoid nested on the table
    t = tabulated_transmission(g, rng.uniform(0.0, 1.0, g.n_points))
    fine = make_grid(0.3, 1.0, 10 * 2000 + 1)
    quad = np.dot(fine.trapezoid_weights(), t.evaluate(fine.samples()) ** 2)
    assert t.energy == pytest.approx(quad, rel=1e-7)
    # P has period 1/h, and the periodic trapezoid rule integrates |P|^2, a
    # trigonometric polynomial, exactly over one period
    p = tabulated_pupil(g, rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points))
    period = make_grid(0.0, 0.5 / g.step, 4 * g.n_points + 1)
    quad = np.dot(period.trapezoid_weights(), np.abs(p.ft(period.samples())) ** 2)
    assert p.energy == pytest.approx(quad, rel=1e-13)


def test_fourier_arm_kernel_values():
    h = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    # inside a slit at x_t = 0 the kernel is -i / (lam f)
    v = h.evaluate(0.0, 0.5)
    assert v == pytest.approx(-1j / LF, rel=1e-12)
    assert abs(v) == pytest.approx(15.3846, rel=1e-4)
    # outside the slits it vanishes
    assert h.evaluate(0.3, 0.0) == 0.0
    # the modulus does not depend on the detector position
    assert abs(h.evaluate(1.7, 0.5)) == pytest.approx(abs(v), rel=1e-12)


def test_fourier_arm_phase_is_linear_in_detector_position():
    h = fourier_arm(LAM, F, gaussian_transmission(1.0))
    x = 0.3
    ratio = h.evaluate(0.2, x) / h.evaluate(0.1, x)
    assert ratio == pytest.approx(np.exp(-2j * np.pi * 0.1 * x / LF), rel=1e-12)


def test_two_f_arm_kernel_values():
    h = two_f_arm(LAM, F, rect_pupil(10.0))
    v = h.evaluate(0.0, 0.0)
    assert v == pytest.approx(10.0 / (4.0 * LF**2), rel=1e-12)
    assert abs(v) == pytest.approx(591.716, rel=1e-4)
    # the modulus peaks along x' = -x_r where the pupil transform is at dc
    x_r = 0.4
    xp = np.linspace(-1.0, 1.0, 2001)
    mags = np.abs(h.evaluate(x_r, xp))
    assert xp[np.argmax(mags)] == pytest.approx(-x_r, abs=2e-3)


def _chirped_table_pupil():
    # soft-edged aperture times a chirp, resolved by its table
    g = make_grid(0.0, 1.0, 301)
    x = g.samples()
    edge = 0.5 * (np.tanh((x + 0.75) / 0.05) - np.tanh((x - 0.75) / 0.05))
    return tabulated_pupil(g, edge * np.exp(7.3j * x**2))


SAMPLER_PUPILS = {
    "rect": lambda: rect_pupil(10.0),
    "gaussian": lambda: gaussian_pupil(1.5),
    "tabulated": _chirped_table_pupil,
}
# few nodes, an off-centre window of an odd count, and the default x' grid
SAMPLER_GRIDS = [
    make_grid(0.3, 2.5, 100),
    make_grid(-0.2, 2.6, 301),
    make_grid(0.0, 8.0, 16385),
]
# single offsets, and the same offsets as one array, which the samplers
# turn into a block of one row per offset
SAMPLER_OFFSETS = (-2.0, 0.0, 0.7, 2.0, np.array([-2.0, 0.0, 0.7, 2.0]))


def _offsets(kind, g):
    """SAMPLER_OFFSETS, less the single ones for a table on the default
    grid: its pointwise transform costs 16385 x 301 exponentials a row, and
    the array holds the same offsets."""
    large = kind == "tabulated" and g.n_points > 2000
    return SAMPLER_OFFSETS[-1:] if large else SAMPLER_OFFSETS


@pytest.mark.parametrize("kind", sorted(SAMPLER_PUPILS))
def test_two_f_arm_grid_sampler_matches_pointwise_kernel(kind):
    # the energy quadrature at each x_r against the pointwise kernel's, to
    # 1e-13 of the exact energy; apply_in is checked against it below
    h = two_f_arm(LAM, F, SAMPLER_PUPILS[kind]())
    for g in SAMPLER_GRIDS:
        for x_r in _offsets(kind, g):
            ref = h.evaluate(np.expand_dims(x_r, -1), g.samples())
            assert ref.shape == np.shape(x_r) + (g.n_points,)
            w = g.trapezoid_weights()
            for x, row in zip(np.ravel(x_r), np.reshape(ref, (-1, g.n_points))):
                assert abs(h.energy_in(x, g) - np.dot(w, np.abs(row) ** 2)) <= 1e-13 * h.energy


def test_pupil_grid_transform_matches_pointwise_transform(monkeypatch):
    # the Gaussian pupil has no grid path of its own: the block its apply
    # multiplies is the pointwise transform, bit for bit.  The rect pupil's
    # table is checked against the sinc below
    pupil = gaussian_pupil(1.5)
    for g in SAMPLER_GRIDS[:2]:
        for offset in SAMPLER_OFFSETS + (0.4, np.array([-0.4, 0.0, 0.4])):
            got = pupil_block(monkeypatch, pupil, g, offset, 2.0 * LF)
            assert got.shape == (np.size(offset), g.n_points)
            ref = pupil.ft(np.add.outer(np.atleast_1d(offset), g.samples()) / (2.0 * LF))
            np.testing.assert_array_equal(got, ref)


# the fig2 reference window on the default x' grid: nodes exactly lo + j h
FIG2_WINDOW = make_grid(0.0, 8.0, 16385).run(7325, 9060)
# grids whose float samples are exactly lo + j h, and grids whose samples
# round those nodes: the two small sampler grids and +/- 8.3 mm over 16385
LATTICE_GRIDS = (FIG2_WINDOW, make_grid(0.0, 8.0, 16385))
OFF_LATTICE_GRIDS = (SAMPLER_GRIDS[0], SAMPLER_GRIDS[1], make_grid(0.0, 8.3, 16385))


@pytest.mark.parametrize("D", [2.0, 10.0])
def test_rect_block_from_the_table_matches_the_sinc(D, monkeypatch):
    # the block that apply multiplies, at the peak -offset inside the grid,
    # beyond it (the row's anchor node clipped to an end) and on nodes; a
    # scalar offset, a one-row list and an on-node scalar take the table
    # too.  On the lattice grids the block is within 1e-15 D of the sinc at
    # the samples, and exactly D on nodes.  Off them the table works at the
    # nodes lo + j h, which the samples round: against P there in long
    # double, its largest error over a grid's inputs is at most the
    # pointwise sinc's at the samples, plus 1e-15 D
    p = rect_pupil(D)
    c = np.pi * D / (2.0 * LF)
    for g in LATTICE_GRIDS + OFF_LATTICE_GRIDS:
        on_lattice = g in LATTICE_GRIDS
        # the table is built for k >= 0 and mirrored
        b = c * (g.step * np.arange(1 - g.n_points, g.n_points))
        np.testing.assert_array_equal(_angle_table(g, c)[0], b)
        x = g.samples()
        j = min(867, g.n_points // 2)
        nodes = np.array([0, 5, j, g.n_points - 1])
        offsets = np.concatenate([np.linspace(-0.8, 0.8, 37), [-9.0, -0.9, 0.9, 9.0], -x[nodes]])
        inputs = (offsets, 0.4, [0.4], -x[j])
        blocks = [pupil_block(monkeypatch, p, g, offset, 2.0 * LF) for offset in inputs]
        if on_lattice:
            np.testing.assert_array_equal(blocks[0][-nodes.size :][np.arange(nodes.size), nodes], D)
            assert blocks[-1][0, j] == D
        table_err = sinc_err = 0.0
        for offset, got in zip(inputs, blocks):
            assert got.shape == (np.size(offset), g.n_points) and got.dtype == np.float64
            ref = p.ft(np.add.outer(offset, x) / (2.0 * LF))
            if on_lattice:
                assert np.abs(got - ref).max() <= 1e-15 * D
            if np.finfo(np.longdouble).eps < np.finfo(float).eps:
                lo = np.longdouble(g.center) - np.longdouble(g.half_width)
                h = 2 * np.longdouble(g.half_width) / (g.n_points - 1)
                pi = 4.0 * np.arctan(np.longdouble(1.0))
                xj = lo + h * np.arange(g.n_points)
                y = pi * D * np.add.outer(np.asarray(offset, np.longdouble), xj) / (2.0 * LF)
                exact = D * np.sin(y) / np.where(y == 0.0, 1.0, y)
                exact[y == 0.0] = D
                table_err = max(table_err, np.abs(got - exact).max())
                sinc_err = max(sinc_err, np.abs(ref - exact).max())
        assert table_err <= (0.0 if on_lattice else sinc_err) + 1e-15 * D


def test_rect_table_block_allocates_rows_not_the_square(monkeypatch):
    # the whole default x' grid, where the table's n x n windows would be
    # 2.1 GB if a gather copied them all; apply builds the table, three
    # arrays of 2n - 1 entries, besides the rows it applies
    g = make_grid(0.0, 8.0, 16385)
    p = rect_pupil(10.0)
    offsets = np.linspace(-1.0, 1.0, 4)
    z = np.zeros(g.n_points, dtype=complex)
    tracemalloc.start()
    try:
        runs = applied_runs(monkeypatch, p, g, offsets, 2.0 * LF, z)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = np.concatenate(runs)
    assert block.shape == (offsets.size, g.n_points)
    assert peak <= 4 * block.nbytes + 3 * (2 * g.n_points - 1) * block.itemsize


@pytest.mark.parametrize("D", [2.0, 10.0])
def test_rect_apply_runs_the_block_of_ft_grid(D, monkeypatch):
    # a fig2 window and 201 offsets, 23 runs of 9 rows: apply forms every
    # row's anchor and the table once, then each run's rows by one block
    # function, so that the runs stack bit for bit to the block of a single
    # run of all 201 rows, and apply's value is each run's (re, im) product
    # with that block
    p = rect_pupil(D)
    offsets = np.linspace(-2.0, 2.0, 201)
    run = _BLOCK_ENTRIES // FIG2_WINDOW.n_points
    assert -(-offsets.size // run) == 23
    n = FIG2_WINDOW.n_points
    z = np.linspace(1.0, 2.0, n) * np.exp(1j * np.linspace(0.0, 40.0, n))
    zz = z.view(float).reshape(-1, 2)
    got, runs = applied_runs(monkeypatch, p, FIG2_WINDOW, offsets, 2.0 * LF, z)
    assert [r.shape for r in runs] == [(run, n)] * 22 + [(offsets.size - 22 * run, n)]
    monkeypatch.setattr(optics, "_BLOCK_ENTRIES", offsets.size * n)
    (block,) = applied_runs(monkeypatch, p, FIG2_WINDOW, offsets, 2.0 * LF, z)[1]
    np.testing.assert_array_equal(np.concatenate(runs), block)
    products = [(block[i : i + run] @ zz).view(complex)[:, 0] for i in range(0, offsets.size, run)]
    np.testing.assert_array_equal(got, np.concatenate(products))


# the sampler grids, +/- 8.3 mm, whose samples round the nodes lo + j h,
# and the two smallest grids, of one sqrt(n) block or two
RECT_ENERGY_GRIDS = SAMPLER_GRIDS + [
    make_grid(0.0, 8.3, 16385),
    make_grid(0.1, 0.3, 2),
    make_grid(0.1, 0.3, 3),
]


@pytest.mark.parametrize("D", [2.0, 10.0])
@pytest.mark.parametrize("g", RECT_ENERGY_GRIDS, ids=lambda g: f"{g.half_width}-{g.n_points}")
def test_rect_energy_quadrature_matches_the_pointwise_kernel(D, g):
    # the row's angles split by sqrt(n) against the pointwise quadrature, to
    # 1e-13 of the arm's exact energy: on a node (a = 0 exactly); one ulp
    # off it, where a is tiny and the split must give sin a at the anchor
    # exactly; half a step off it; beyond either end of the grid (the
    # anchor clipped); and at +/- 1e3 mm
    h = two_f_arm(LAM, F, rect_pupil(D))
    node = g.lo + g.step * (g.n_points // 3)
    offsets = (-node, np.nextafter(-node, np.inf), -node - 0.5 * g.step, 1.0 - g.lo, -1.0 - g.hi)
    w = g.trapezoid_weights()
    for x_r in offsets + (1e3, -1e3):
        ref = np.dot(w, np.abs(h.evaluate(x_r, g.samples())) ** 2)
        assert abs(h.energy_in(x_r, g) - ref) <= 1e-13 * h.energy, x_r


# a scalar, a one-row list, and 21 and 201 rows, more than one run of
# offsets on the small grids
APPLY_OFFSETS = (0.7, [0.7], np.linspace(-2.0, 2.0, 21), np.linspace(-2.0, 2.0, 201))


@pytest.mark.parametrize("kind", sorted(SAMPLER_PUPILS))
def test_two_f_arm_apply_in_matches_the_sampled_block(kind):
    # against the pointwise kernel sampled on the grid's nodes: the chirps
    # folded out of the block, the rect pupil's table, and for a table the
    # sums taken in its own plane, change only the rounding: each entry to
    # 1e-13 of sum_j |h_j| |v_j|, its own scale.  A table's sampled block on
    # the default grid takes the 4-row array, a scalar and a one-row list
    h = two_f_arm(LAM, F, SAMPLER_PUPILS[kind]())
    rng = np.random.default_rng(7)
    for g in SAMPLER_GRIDS:
        v = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
        extra = APPLY_OFFSETS[:2] if kind == "tabulated" and g.n_points > 2000 else APPLY_OFFSETS
        for x_r in _offsets(kind, g) + extra:
            block = h.evaluate(np.expand_dims(x_r, -1), g.samples())
            got = h.apply_in(x_r, g, v)
            assert got.shape == np.shape(x_r)
            assert np.all(np.abs(got - block @ v) <= 1e-13 * (np.abs(block) @ np.abs(v)))


def test_one_amplitude_call_builds_the_table_sums_once():
    # Z_k = sum_j z_j exp(-2 pi i xi_k x_j / s) is formed once per apply,
    # and a 201-point amplitude, four runs of the table's offsets, applies
    # the pupil once
    p = _chirped_table_pupil()
    calls = []

    def counted(*args):
        calls.append(args)
        return p.apply(*args)

    h_t = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    setup = build_setup(gaussian_wavefunction(2.0, 0.05), h_t)
    x_r = np.linspace(-2.0, 2.0, 201)
    got = amplitude(setup, two_f_arm(LAM, F, replace(p, apply=counted)), x_r)
    assert len(calls) == 1
    np.testing.assert_array_equal(got, amplitude(setup, two_f_arm(LAM, F, p), x_r))


def test_analytic_pupil_transforms_are_real(monkeypatch):
    # and their apply multiplies the real block into z's (re, im) columns,
    # bit for bit: the block is never cast to complex.  A tabulated pupil's
    # transform is complex, and its apply hands no real block on
    g = SAMPLER_GRIDS[1]
    z = np.exp(1j * np.linspace(0.0, 3.0, g.n_points))
    offsets = np.linspace(-0.4, 0.4, 3)
    for pupil in (rect_pupil(10.0), gaussian_pupil(1.5)):
        assert pupil.ft(np.array([0.0, 0.3])).dtype == np.float64
        got, runs = applied_runs(monkeypatch, pupil, g, offsets, 2.0 * LF, z)
        (block,) = runs
        assert block.dtype == np.float64
        product = (block @ z.view(float).reshape(-1, 2)).view(complex)[:, 0]
        np.testing.assert_array_equal(got, product)
    table = _chirped_table_pupil()
    assert table.ft(0.4).dtype == np.complex128
    assert applied_runs(monkeypatch, table, g, offsets, 2.0 * LF, z)[1] == []


def _table(n, kind, rng):
    """A smooth chirped table or complex Gaussian noise on n points over
    +/-1 mm, and its grid."""
    g = make_grid(0.0, 1.0, n)
    x = g.samples()
    if kind == "smooth":
        edge = 0.5 * (np.tanh((x + 0.75) / 0.05) - np.tanh((x - 0.75) / 0.05))
        return edge * np.exp(7.3j * x**2), g
    return rng.standard_normal(n) + 1j * rng.standard_normal(n), g


def _pointwise_energy(p, table_step, g, offset, lf):
    """sum_j w_j |P((offset + x_j) / (2 lf))|^2 / (16 lf^4), the 2f arm's
    energy quadrature, from the pointwise transform.

    |P|^2 has period 1/h in u (h the table step), so the offset is first
    taken by whole periods 2 lf / h, in exact rational arithmetic, to within
    half a period of 0.  Far out the pointwise quadrature carries its own
    rounding: at 1e3 mm the phases u xi_k of the unreduced sum put it up to
    1.5e-13 of the arm's energy from a long-double quadrature, and reduced
    in floating point up to 1.0e-13; reduced exactly, within 5.1e-15."""
    period = Fraction(2.0 * lf) / Fraction(table_step)
    offset = float(Fraction(offset) - period * round(Fraction(offset) / period))
    abs2 = np.abs(p.ft((offset + g.samples()) / (2.0 * lf))) ** 2
    return np.dot(g.trapezoid_weights(), abs2) / (16.0 * lf**4)


ENERGY_OFFSETS = (0.0, 2.0, -2.0, 0.37, "half step", 1e3)
# an off-centre 1001-node grid and the default x' grid; the pointwise
# reference costs n_table x n_grid exponentials per offset, 2 s at
# 4001 x 16385, so the default grid takes the smallest table
ENERGY_CASES = [(n, make_grid(1.3, 0.9, 1001)) for n in (64, 301, 2001, 4001)] + [
    (64, SAMPLER_GRIDS[-1])
]


@pytest.mark.parametrize("kind", ["smooth", "noise"])
@pytest.mark.parametrize("n, g", ENERGY_CASES, ids=lambda c: getattr(c, "n_points", c))
def test_tabulated_energy_quadrature_matches_the_pointwise_transform(n, g, kind):
    # sum_m c_m K_m against the pointwise quadrature, to 1e-13 of the arm's
    # exact energy
    values, table = _table(n, kind, np.random.default_rng(n))
    p = tabulated_pupil(table, values)
    h = two_f_arm(LAM, F, p)
    for offset in ENERGY_OFFSETS:
        offset = 0.5 * g.step if offset == "half step" else offset
        ref = _pointwise_energy(p, table.step, g, offset, LF)
        assert abs(h.energy_in(offset, g) - ref) <= 1e-13 * h.energy, offset


@pytest.mark.parametrize("n_grid", [1001, 1000])
def test_tabulated_energy_quadrature_takes_the_limit_on_whole_lags(n_grid):
    # with 2 lam f = 1/8 mm, a table step of 2^-7 mm and an x' step of
    # 1/8 mm, du h m = m / 128 is a whole number at m = 128 and 256, where
    # the closed form sin(n r) / tan(r) takes its limit (binary steps make r
    # exactly 0 there), and above m = 64 it is reduced by whole periods pi,
    # which flips its sign when the grid's n panels are odd
    lam, f = 2.0**-11, 128.0
    table = make_grid(0.0, 1.0, 257)
    g = make_grid(3.0, 0.0625 * (n_grid - 1), n_grid)
    t = g.step / (2.0 * lam * f) * table.step * np.arange(table.n_points)
    assert g.step == 0.125 and t[128] == 1.0 and t[256] == 2.0
    for kind in ("smooth", "noise"):
        values, _ = _table(257, kind, np.random.default_rng(3))
        p = tabulated_pupil(table, values)
        h = two_f_arm(lam, f, p)
        for offset in (0.0, 0.37, 1e3):
            ref = _pointwise_energy(p, table.step, g, offset, lam * f)
            assert abs(h.energy_in(offset, g) - ref) <= 1e-13 * h.energy, (kind, offset)


def _assert_sampled_alike_under_contention(make_pupil, jobs):
    """apply_in (to the grid's nodes as v) over (x_r, grid) jobs from 8
    threads with a short switch interval equals a fresh arm's taken one by
    one, which is within 1e-13 of sum_j |h_j| |v_j| of the pointwise
    kernel's product."""

    def apply(h, x_r, g):
        return h.apply_in(x_r, g, g.samples() + 0j)

    ref = two_f_arm(LAM, F, make_pupil())
    expected = [apply(ref, x_r, g) for x_r, g in jobs]
    for (x_r, g), a in zip(jobs, expected):
        block, v = ref.evaluate(np.expand_dims(x_r, -1), g.samples()), g.samples()
        assert np.all(np.abs(a - block @ v) <= 1e-13 * (np.abs(block) @ np.abs(v)))
    h = two_f_arm(LAM, F, make_pupil())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(apply, h, x_r, g) for x_r, g in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def test_two_f_arm_grid_sampler_is_thread_safe():
    # threads alternate between two grids under contention; neither the 2f
    # arm nor the tabulated pupil caches anything per grid, so a product
    # that differs from the sequential one is state shared between threads.
    # The rect pupil's per-grid table is raced below
    grids = SAMPLER_GRIDS[:2]
    jobs = [(x_r, grids[k % 2]) for k, x_r in enumerate(np.linspace(-2.0, 2.0, 64))]
    _assert_sampled_alike_under_contention(_chirped_table_pupil, jobs)


def test_rect_table_is_thread_safe():
    # the same on two lattice grids, two offsets per call, so that every
    # call reads the rect pupil's table while other threads rebuild it
    grids = [FIG2_WINDOW, make_grid(0.0, 4.0, 1025)]
    jobs = [(np.array([x, 0.5 - x]), grids[k % 2]) for k, x in enumerate(np.linspace(-2.0, 2.0, 64))]
    _assert_sampled_alike_under_contention(lambda: rect_pupil(10.0), jobs)


@pytest.mark.parametrize(
    "lam, f",
    [(1e294, F), (LAM, 1e300), (LAM, 1e-300), (LAM, 1e-80), (1.0, 1e-78), (1.0, 1e81)],
)
def test_arm_constants_outside_the_float_range_are_refused(lam, f):
    # each would overflow or divide by zero in the arms' constants or in
    # the reference arm's energy scale 1 / (16 lambda^4 f^4)
    with pytest.raises(InvalidArgumentError, match="floating-point range"):
        fourier_arm(lam, f, double_slit(0.05, 1.0))
    with pytest.raises(InvalidArgumentError, match="floating-point range"):
        two_f_arm(lam, f, rect_pupil(10.0))


@pytest.mark.parametrize("lam, f", [(1.0, 1e-77), (1.0, 1e80)])
def test_arm_constants_just_inside_the_float_range_are_accepted(lam, f):
    # lambda f = 1e-77 and 1e80 keep 1 / (16 lambda^4 f^4) finite and
    # nonzero, next to the refused 1e-78 and 1e81 above
    for h in (fourier_arm(lam, f, double_slit(0.05, 1.0)), two_f_arm(lam, f, rect_pupil(10.0))):
        assert 0.0 < h.energy < np.inf


@pytest.mark.parametrize("width", [1e-300, 1e300])
@pytest.mark.parametrize(
    "make",
    [
        gaussian_transmission,
        rect_pupil,
        gaussian_pupil,
        lambda w: gaussian_wavefunction(w, 0.05),
        lambda w: gaussian_wavefunction(2.0, w),
    ],
    ids=["object_w", "rect_D", "pupil_sigma", "source_a", "source_b"],
)
def test_widths_whose_square_leaves_the_float_range_are_refused(make, width):
    # w^2 rounds to 0 or inf: exp(-x^2 / w^2) is NaN or 1 and w-scaled
    # energies are 0 or inf.  Every constructor, the Gaussian source's too,
    # refuses it for that, and accepts a width whose square is in range
    with pytest.raises(InvalidArgumentError, match="floating-point range"):
        make(width)
    make(1e-150 if width < 1.0 else 1e150)


def test_scaled_arm_scales_samples():
    # a test arm's samples and a reference arm's product, each arm's energy
    # quadrature and exact energy
    c = 2.0 - 1j
    g = make_grid(0.0, 2.0, 65)
    h_t = fourier_arm(LAM, F, gaussian_transmission(1.0))
    h_r = two_f_arm(LAM, F, gaussian_pupil(1.5))
    s_t, s_r = scaled_arm(h_t, c), scaled_arm(h_r, c)
    np.testing.assert_allclose(s_t.sample_in(0.1, g), c * h_t.sample_in(0.1, g), rtol=1e-14)
    v = np.linspace(-1.0, 1.0, g.n_points) + 0.5j
    np.testing.assert_allclose(s_r.apply_in(0.1, g, v), c * h_r.apply_in(0.1, g, v), rtol=1e-14)
    for h, s in ((h_t, s_t), (h_r, s_r)):
        assert s.energy_in(0.1, g) == pytest.approx(abs(c) ** 2 * h.energy_in(0.1, g), rel=1e-14)
        assert s.energy == pytest.approx(abs(c) ** 2 * h.energy, rel=1e-15)


def test_double_slit_arm_energy_matches_closed_form():
    w, d = 0.05, 1.0
    h = fourier_arm(LAM, F, double_slit(w, d))
    ref = double_slit_arm_energy(w, LAM, F)
    assert ref == pytest.approx(2.0 * w / LF**2, rel=1e-14)
    for n in (1025, 4097):
        e = arm_energy(h, 0.0, make_grid(0.0, 0.7, n))
        assert e == pytest.approx(ref, rel=1e-6)


def test_gaussian_object_arm_energy_matches_closed_form():
    w = 0.4
    h = fourier_arm(LAM, F, gaussian_transmission(w))
    e = arm_energy(h, 0.0, make_grid(0.0, 4.0, 2049))
    assert e == pytest.approx(gaussian_object_arm_energy(w, LAM, F), rel=1e-8)


def test_rect_two_f_arm_energy_matches_closed_form():
    D = 10.0
    h = two_f_arm(LAM, F, rect_pupil(D))
    e = arm_energy(h, 0.0, rect_energy_grid(D))
    assert e == pytest.approx(rect_two_f_arm_energy(D, LAM, F), rel=1e-4)


def test_gaussian_two_f_arm_energy_matches_closed_form():
    # amp^2 |P|^2 on the default x' grid against the closed form
    g = make_grid(0.0, 8.0, 16385)
    for sigma in (0.5, 2.0, 4.0):
        h = two_f_arm(LAM, F, gaussian_pupil(sigma))
        e = arm_energy(h, 0.0, g)
        assert e == pytest.approx(gaussian_two_f_arm_energy(sigma, LAM, F), rel=1e-14)
