"""Grid construction, trapezoid quadrature and the 2-D rule through the row
reduction."""

from __future__ import annotations

import numpy as np
import pytest

from ghostsim import InvalidArgumentError, TwoPhotonState, make_grid
from ghostsim.grid import MAX_NODES


def test_grid_basic_layout():
    g = make_grid(0.0, 1.0, 3)
    assert g.lo == -1.0
    assert g.hi == 1.0
    assert g.step == 1.0
    np.testing.assert_array_equal(g.samples(), [-1.0, 0.0, 1.0])


def test_grid_offset_center():
    g = make_grid(5.0, 2.0, 2)
    np.testing.assert_array_equal(g.samples(), [3.0, 7.0])
    assert g.step == 4.0


def test_grid_endpoints_exact_for_large_counts():
    g = make_grid(0.0, 8.0, 4097)
    x = g.samples()
    assert x[0] == -8.0
    assert x[-1] == 8.0
    assert x.size == 4097


def test_grid_validation_errors():
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 0.0, 5)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, -1.0, 5)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        make_grid(np.inf, 1.0, 5)


def test_trapezoid_weights_sum_to_interval_length():
    g = make_grid(1.0, 2.5, 37)
    assert np.isclose(g.trapezoid_weights().sum(), 5.0, rtol=0, atol=1e-14)


def test_refined_grid_nests():
    # 2n - 1 nodes on the same interval halve every panel (the grid-doubling
    # check refines this way)
    g = make_grid(0.0, 1.0, 5)
    r = make_grid(g.center, g.half_width, 2 * g.n_points - 1)
    assert r.n_points == 9
    np.testing.assert_allclose(r.samples()[::2], g.samples(), atol=1e-15)


def test_integrate_constant_exact():
    g = make_grid(0.0, 3.0, 10)
    assert g.integrate(np.full(g.n_points, 2.0)) == pytest.approx(12.0, abs=1e-14)


def test_integrate_full_period_oscillation_cancels():
    g = make_grid(0.5, 0.5, 2001)
    assert abs(g.integrate(np.exp(2j * np.pi * g.samples()))) < 1e-9


def test_integrate_gaussian():
    g = make_grid(0.0, 10.0, 4001)
    total = g.integrate(np.exp(-(g.samples() ** 2)))
    assert total == pytest.approx(np.sqrt(np.pi), rel=1e-10)


def test_integrate_is_linear():
    g = make_grid(0.0, 1.0, 101)
    x = g.samples()
    f1, f2 = np.sin(x), x**2
    total = g.integrate(2.0 * f1 + 3.0 * f2)
    assert total == pytest.approx(2.0 * g.integrate(f1) + 3.0 * g.integrate(f2), abs=1e-14)


def test_integrate_second_order_convergence():
    def run(n):
        g = make_grid(0.0, 1.0, n)
        return g.integrate(np.cos(3.0 * g.samples()))

    exact = 2.0 * np.sin(3.0) / 3.0
    e1 = abs(run(41) - exact)
    e2 = abs(run(81) - exact)
    # halving the step divides the trapezoid error by about 4
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("n", [2, 3, 101, 4097])
def test_integrate_is_the_trapezoid_weights_sum(n):
    # the numpy reduction and the weighted dot product are one rule, summed
    # in different orders: equal to rounding, for real and complex values
    g = make_grid(0.3, 2.0, n)
    x = g.samples()
    for f in (np.exp(-(x**2)) + x, np.exp(0.5j * x) * (1.0 + x**2)):
        want = g.trapezoid_weights() @ f
        assert abs(g.integrate(f) - want) <= 1e-15 * abs(want)


def integrate2d(f, g, gx, gxp):
    """Tensor-product trapezoid rule of f(x) g(x') through the row reduction
    of a state whose ridge is 1 everywhere, weighted over x'."""
    state = TwoPhotonState(f=f, g=g, ridge=np.ones_like)
    return gxp.integrate(state.reduce(gx.trapezoid_weights(), gx, gxp))


def test_integrate2d_area():
    gx = make_grid(0.0, 1.0, 11)
    gxp = make_grid(0.0, 0.5, 7)
    total = integrate2d(np.ones_like, np.ones_like, gx, gxp)
    assert total.real == pytest.approx(2.0, abs=1e-14)


def test_integrate2d_separable_factorizes():
    gx = make_grid(0.0, 2.0, 401)
    gxp = make_grid(0.0, 2.0, 301)
    fx = gx.integrate(np.exp(-(gx.samples() ** 2)))
    fxp = gxp.integrate(np.cos(gxp.samples()))
    product = integrate2d(lambda x: np.exp(-(x**2)), np.cos, gx, gxp)
    assert product == pytest.approx(fx * fxp, rel=1e-12)


def test_integrate2d_gaussian():
    g = make_grid(0.0, 8.0, 1601)
    total = integrate2d(lambda x: np.exp(-(x**2)), lambda x: np.exp(-(x**2)), g, g)
    assert total.real == pytest.approx(np.pi, rel=1e-9)


def test_grid_node_budget():
    # a grid over MAX_NODES is refused before anything is allocated
    assert make_grid(0.0, 1.0, MAX_NODES).n_points == MAX_NODES
    for n in (MAX_NODES + 1, 1e300, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError, match="budget"):
            make_grid(0.0, 1.0, n)


@pytest.mark.parametrize("stride", [1, 12, 48])
def test_a_strided_run_holds_every_stride_th_node_and_may_end_past_the_grid(stride):
    # the default x' grid's nodes are short binary fractions, so a strided
    # run's nodes are exactly the grid's, and past its end those of its
    # lattice lo + j h
    g = make_grid(0.0, 8.0, 16385)
    k = 16284 // stride + 1
    run = g.run(100, 100 + k * stride + 1, stride)
    assert run.n_points == k + 1 and run.step == stride * g.step
    nodes = g.lo + g.step * np.arange(100, 100 + k * stride + 1, stride)
    np.testing.assert_array_equal(run.samples(), nodes)
    assert run.hi > g.hi
