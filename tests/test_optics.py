"""Object transmissions, pupils and the impulse responses of the two arms."""

from __future__ import annotations

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ghostsim import (
    InvalidArgumentError,
    arm_energy,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    gaussian_wavefunction,
    make_grid,
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
from ghostsim.optics import _exact_nodes
from ghostsim.validate import rect_energy_grid
from helpers import scaled_arm

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
# fewer nodes than one factorization block, a count that is not a multiple
# of it, an off-centre window, and the default x' grid
SAMPLER_GRIDS = [
    make_grid(0.3, 2.5, 100),
    make_grid(-0.2, 2.6, 301),
    make_grid(0.0, 8.0, 16385),
]
# single offsets, and the same offsets as one array, which the samplers
# turn into a block of one row per offset
SAMPLER_OFFSETS = (-2.0, 0.0, 0.7, 2.0, np.array([-2.0, 0.0, 0.7, 2.0]))


@pytest.mark.parametrize("kind", sorted(SAMPLER_PUPILS))
def test_two_f_arm_grid_sampler_matches_pointwise_kernel(kind):
    h = two_f_arm(LAM, F, SAMPLER_PUPILS[kind]())
    for g in SAMPLER_GRIDS:
        for x_r in SAMPLER_OFFSETS:
            ref = h.evaluate(np.expand_dims(x_r, -1), g.samples())
            got = h.sample_in(x_r, g)
            assert got.shape == ref.shape == np.shape(x_r) + (g.n_points,)
            # each row to 1e-13 of its own maximum
            assert np.all(np.abs(got - ref).max(-1) <= 1e-13 * np.abs(ref).max(-1))
            ref2 = np.abs(ref) ** 2
            assert np.all(np.abs(h.sample_abs2_in(x_r, g) - ref2).max(-1) <= 1e-13 * ref2.max(-1))


def test_pupil_grid_transform_matches_pointwise_transform():
    p = _chirped_table_pupil()
    for g in SAMPLER_GRIDS:
        for offset in SAMPLER_OFFSETS:
            ref = p.ft((np.expand_dims(offset, -1) + g.samples()) / (2.0 * LF))
            got = p.ft_grid(g, offset, 2.0 * LF)
            assert got.shape == np.shape(offset) + (g.n_points,)
            assert np.all(np.abs(got - ref).max(-1) <= 1e-13 * np.abs(ref).max(-1))
    # the analytic kinds evaluate the pointwise transform on the grid nodes
    g = SAMPLER_GRIDS[1]
    for pupil in (rect_pupil(10.0), gaussian_pupil(1.5)):
        for offset in (0.4, np.array([-0.4, 0.0, 0.4])):
            np.testing.assert_array_equal(
                pupil.ft_grid(g, offset, 2.0 * LF),
                pupil.ft((np.expand_dims(offset, -1) + g.samples()) / (2.0 * LF)),
            )


# the fig2 reference window on the default x' grid: nodes exactly lo + j h
FIG2_WINDOW = make_grid(0.0, 8.0, 16385).run(7325, 9060)


@pytest.mark.parametrize("D", [2.0, 10.0])
def test_rect_block_from_the_table_matches_the_sinc(D):
    # the peak -offset inside the grid, beyond it (the row's anchor node
    # clipped to an end) and on nodes, where the entry is exactly D
    p = rect_pupil(D)
    for g in (FIG2_WINDOW, make_grid(0.0, 8.0, 16385)):
        x = g.samples()
        nodes = np.array([0, 5, 867, g.n_points - 1])
        offsets = np.concatenate([np.linspace(-0.8, 0.8, 37), [-9.0, -0.9, 0.9, 9.0], -x[nodes]])
        got = p.ft_grid(g, offsets, 2.0 * LF)
        assert got.shape == (offsets.size, g.n_points) and got.dtype == np.float64
        np.testing.assert_array_equal(got[-nodes.size :][np.arange(nodes.size), nodes], D)
        ref = p.ft((offsets[:, np.newaxis] + x) / (2.0 * LF))
        assert np.abs(got - ref).max() <= 1e-15 * D
        if np.finfo(np.longdouble).eps < np.finfo(float).eps:
            pi = 4.0 * np.arctan(np.longdouble(1.0))
            y = pi * D * (offsets[:, np.newaxis].astype(np.longdouble) + x) / (2.0 * LF)
            exact = D * np.sin(y) / np.where(y == 0.0, 1.0, y)
            exact[y == 0.0] = D
            assert np.abs(got - exact).max() <= 1e-15 * D


def test_rect_table_block_allocates_rows_not_the_square():
    # the whole default x' grid, where the table's n x n windows would be
    # 2.1 GB if a gather copied them all
    g = make_grid(0.0, 8.0, 16385)
    p = rect_pupil(10.0)
    offsets = np.linspace(-1.0, 1.0, 4)
    p.ft_grid(g, offsets, 2.0 * LF)  # builds the cached table
    tracemalloc.start()
    try:
        block = p.ft_grid(g, offsets, 2.0 * LF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block.nbytes


def test_rect_block_off_the_lattice_and_single_offsets_are_pointwise():
    p = rect_pupil(10.0)
    off = make_grid(0.0, 8.3, 16385)
    assert _exact_nodes(FIG2_WINDOW) and _exact_nodes(make_grid(0.0, 8.0, 16385))
    assert not _exact_nodes(off)
    for g, offset in ((off, np.array([-0.4, 0.0, 0.4])), (FIG2_WINDOW, 0.4), (FIG2_WINDOW, [0.4])):
        np.testing.assert_array_equal(
            p.ft_grid(g, offset, 2.0 * LF),
            p.ft((np.expand_dims(offset, -1) + g.samples()) / (2.0 * LF)),
        )


@pytest.mark.parametrize("kind", sorted(SAMPLER_PUPILS))
def test_two_f_arm_apply_in_matches_the_sampled_block(kind):
    # the chirps folded out of the block change only the rounding: each
    # entry to 1e-13 of sum_j |h_j| |v_j|, its own scale
    h = two_f_arm(LAM, F, SAMPLER_PUPILS[kind]())
    rng = np.random.default_rng(7)
    for g in SAMPLER_GRIDS:
        v = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
        for x_r in SAMPLER_OFFSETS:
            block = h.sample_in(x_r, g)
            got = h.apply_in(x_r, g, v)
            assert got.shape == np.shape(x_r)
            assert np.all(np.abs(got - block @ v) <= 1e-13 * (np.abs(block) @ np.abs(v)))


def test_analytic_pupil_transforms_are_real():
    g = SAMPLER_GRIDS[1]
    for pupil in (rect_pupil(10.0), gaussian_pupil(1.5)):
        assert pupil.ft(np.array([0.0, 0.3])).dtype == np.float64
        assert pupil.ft_grid(g, np.array([-0.4, 0.4]), 2.0 * LF).dtype == np.float64
    assert _chirped_table_pupil().ft_grid(g, 0.4, 2.0 * LF).dtype == np.complex128


def _assert_sampled_alike_under_contention(make_pupil, jobs):
    """sample_in over (x_r, grid) jobs from 8 threads with a short switch
    interval equals a fresh arm's samples taken one by one."""
    ref = two_f_arm(LAM, F, make_pupil())
    expected = [ref.sample_in(x_r, g) for x_r, g in jobs]
    h = two_f_arm(LAM, F, make_pupil())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(h.sample_in, x_r, g) for x_r, g in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def test_two_f_arm_grid_sampler_is_thread_safe():
    # threads alternate between two grids, so the per-grid caches are
    # refilled under contention; a stale or torn cache entry changes a sample
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
    "make, over_budget",
    [
        (gaussian_transmission, None),
        (rect_pupil, None),
        (gaussian_pupil, None),
        (lambda w: gaussian_wavefunction(w, 0.05), 1e150),
        (lambda w: gaussian_wavefunction(2.0, w), 1e-150),
    ],
    ids=["object_w", "rect_D", "pupil_sigma", "source_a", "source_b"],
)
def test_widths_whose_square_leaves_the_float_range_are_refused(make, over_budget, width):
    # w^2 rounds to 0 or inf: exp(-x^2 / w^2) is NaN or 1 and w-scaled
    # energies are 0 or inf.  The Gaussian source checks its certification
    # grid's node budget (a / b up to about 87000) first: that message names
    # the remedy.
    within = 1e-150 if width < 1.0 else 1e150
    match = "budget" if over_budget == within else "floating-point range"
    with pytest.raises(InvalidArgumentError, match=match):
        make(width)
    if within == over_budget:
        with pytest.raises(InvalidArgumentError, match="budget"):
            make(within)
    else:
        make(within)


def test_scaled_arm_scales_samples():
    h = fourier_arm(LAM, F, gaussian_transmission(1.0))
    g = make_grid(0.0, 2.0, 65)
    s = scaled_arm(h, 2.0 - 1j)
    np.testing.assert_allclose(s.sample_in(0.1, g), (2.0 - 1j) * h.sample_in(0.1, g), rtol=1e-14)
    np.testing.assert_allclose(
        s.sample_abs2_in(0.1, g), abs(2.0 - 1j) ** 2 * h.sample_abs2_in(0.1, g), rtol=1e-14
    )
    assert s.energy == pytest.approx(abs(2.0 - 1j) ** 2 * h.energy, rel=1e-15)


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
