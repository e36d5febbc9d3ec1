"""Coincidence amplitude, rate, second moment, quantum fluctuation and SNR.

For a unit-norm state the coincidence rate is G2 = |A|^2 with amplitude
A(x_r, x_t) = int int dx dx' phi(x, x') h_t(x_t, x) h_r(x_r, x'), and the
second moment factorizes as <S^2> = G2 * I_t * I_r with I the arm energies
int |h|^2; Delta G2 = sqrt(<S^2> - G2^2) and SNR = G2 / Delta G2.  One
function, ``coincidence_statistics``, turns amplitudes and arm energies
into all four.

A(x_r) is sum_j w_j u_j h_r(x_r, x'_j) over the reference window, the
smallest run of x' nodes holding every nonzero of the inner integral
u(x') = int dx phi(x, x') h_t(x_t, x) (the state's row reduction).  A
``CorrelatorSetup`` holds what u depends on, the state, h_t, the grids and
the test-detector position x_t, and computes u and its window when it is
built; it does not hold h_r, which ``amplitude`` takes per call.  The
setup samples h_t only on the run of x nodes that meets the object's
support (every node for an object without one), with the run's own
trapezoid weights, which are the x grid's (to the ulps of the run's step)
wherever h_t is nonzero.  On the grids the amplitudes of a whole scan are
one call of h_r's ``apply_in`` hook, h_r(x_r, x'_j) applied to v = w u:
the 2f arm folds its chirps out and leaves the sum over P to the pupil,
which takes the x_r rows in blocks of bounded size (a rect or Gaussian
pupil) or sums over its own table (a tabulated one).  I_r integrates over
the whole x' grid and I_t over the run, where h_t vanishes beyond it, and
``gated_energy`` refuses one that is not within ENERGY_RTOL of the arm's
exact energy, naming the whole grid: the setup gates I_t when it is built,
a scan gates I_r.  The ridge rule's RIDGE_STEPS and its check live in
:mod:`ghostsim.source`, which :func:`ghostsim.source.normalize` shares;
RIDGE_STEPS is imported here so that ``ghostsim.correlator.RIDGE_STEPS``
still names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NormalizationViolationError, NumericDomainError
from .grid import Grid1D
from .optics import ImpulseResponse
from .source import RIDGE_STEPS, TwoPhotonState, check_ridge_step

__all__ = [
    "CorrelatorSetup",
    "amplitude",
    "arm_energy",
    "coincidence_statistics",
    "gated_energy",
]

# radicand more negative than this fraction of its scale signals a broken
# normalization rather than roundoff
RADICAND_CLAMP = 1e-12

# largest relative offset of an arm-energy quadrature from the arm's exact
# energy: <S^2> = G2 I_t I_r carries the offset into Delta G2 and the SNR
ENERGY_RTOL = 1e-2


@dataclass(frozen=True)
class CorrelatorSetup:
    """Immutable bundle of state, test-arm kernel, quadrature grids and
    test-detector position x_t, and the reference window they give.

    gx discretizes the test-arm source coordinate x, gxp the reference-arm
    source coordinate x'.  The state must carry an extent (see
    :func:`ghostsim.source.normalize`), which gx and gxp must cover, and
    each grid's step must be at most RIDGE_STEPS times the state's
    ``ridge_width``, so that the grid resolves the entanglement ridge; a
    step over it is refused, naming ``numerics.n_x`` or ``numerics.n_xp``,
    before anything is sampled.

    ``run`` is the run of gx nodes that the test arm is sampled on, as a
    Grid1D: the nodes whose cells meet h_t's support, with one node of
    margin on each side (so its end nodes have h_t = 0 unless they are
    gx's, and the run's own trapezoid weights are gx's wherever h_t is
    nonzero, to the ulps of its step; see :meth:`Grid1D.run`), and every
    node where h_t has no support.  An end of the support beyond gx, even
    an infinite one, is clipped to gx's end.

    ``window`` is the run of gxp nodes j0..j1-1 that holds every nonzero of
    u(x') as a Grid1D, and ``v`` = (gxp trapezoid weights * u)[j0:j1].  The
    window's own trapezoid weights would halve its end nodes, where u is
    nonzero, so v carries gxp's.  A single nonzero is widened by a
    neighbour (a grid needs two nodes; there u = 0).  An all-zero u gives
    window None and an empty v.  Both are computed when the setup is built,
    and every scan point and every reference arm shares them.  So is
    ``i_t``, the test-arm energy I_t over the ``run`` at x_t, refused by
    ``gated_energy`` unless gx captures the arm; it is computed after u, so
    an x_t beyond the x grid's Nyquist limit is refused first.
    """

    state: TwoPhotonState
    h_t: ImpulseResponse
    gx: Grid1D
    gxp: Grid1D
    x_t: float = 0.0
    run: Grid1D = field(init=False, repr=False, compare=False)
    window: Grid1D | None = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    i_t: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.state.extent is None:
            raise InvalidArgumentError("correlator requires a norm-certified two-photon state")
        width = self.state.ridge_width
        for g, (lo, hi), key in zip((self.gx, self.gxp), self.state.extent, ("n_x", "n_xp")):
            if g.lo > lo or g.hi < hi:
                raise InvalidArgumentError("quadrature grids must cover the state's extent")
            check_ridge_step(g, width, "entanglement width", f"raise numerics.{key}")
        object.__setattr__(self, "run", self._support_run())
        window, v = self._window(self.inner_integral())
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "v", v)
        i_t = gated_energy(self.h_t, self.x_t, self.gx, "test-arm", "n_x", self.run)
        object.__setattr__(self, "i_t", i_t)

    def _support_run(self) -> Grid1D:
        """``run``, widened to two nodes where fewer meet the support."""
        n = self.gx.n_points
        # the support's ends [a, b] as k_a, k_b gx steps from gx.lo: node i's
        # cell meets them where k_a - 1/2 < i < k_b + 1/2, and the node just
        # outside on each side is the margin.  Clipped before int(), so that
        # an infinite end (or no support) takes the whole grid
        k = (np.asarray(self.h_t.support or (-np.inf, np.inf)) - self.gx.lo) / self.gx.step
        ends = np.clip([np.floor(k[0] - 0.5), np.ceil(k[1] + 0.5) + 1.0], 0, n)
        i0, i1 = ends.astype(int).tolist()
        i0 = min(i0, n - 2)
        return self.gx.run(i0, max(i1, i0 + 2))

    def inner_integral(self) -> np.ndarray:
        """u(x') = int dx phi(x, x') h_t(x_t, x), sampled on gxp.

        Only the run of gx nodes on the object's support is sampled, with
        the run's trapezoid weights, and only its nonzero rows contribute,
        which makes compact objects cheap, and a Gaussian source only within
        its ridge band.
        """
        left = self.run.trapezoid_weights() * self.h_t.sample_in(self.x_t, self.run)
        return self.state.reduce(left, self.run, self.gxp)

    def _window(self, u: np.ndarray) -> tuple:
        nz = np.flatnonzero(u)
        if nz.size == 0:
            return None, u[:0]
        j0, j1 = int(nz[0]), int(nz[-1]) + 1
        if j1 - j0 == 1:
            j0, j1 = (j0, j1 + 1) if j1 < self.gxp.n_points else (j0 - 1, j1)
        return self.gxp.run(j0, j1), (self.gxp.trapezoid_weights() * u)[j0:j1]


def amplitude(setup: CorrelatorSetup, h_r: ImpulseResponse, x_r) -> np.ndarray:
    """Coincidence amplitudes A(x_r) = h_r(x_r, window) @ v over the
    reference window, one per x_r, from one ``apply_in`` call; exactly 0,
    with no sampling, where u(x') vanishes everywhere.  A non-finite
    amplitude is a numeric error naming the first x_r where one occurs.
    """
    x_r = np.atleast_1d(x_r)
    a = h_r.apply_in(x_r, setup.window, setup.v) if setup.window else np.zeros(x_r.size, complex)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise NumericDomainError(f"non-finite amplitude at (x_t={setup.x_t}, x_r={x_r[bad[0]]})")
    return a


def arm_energy(h: ImpulseResponse, x_out: float, g: Grid1D) -> float:
    """Quadrature of |h(x_out, .)|^2 over g, ``h.energy_in``; a scan checks
    it against ``h.energy``."""
    return float(h.energy_in(x_out, g))


def gated_energy(
    h: ImpulseResponse, x_out: float, g: Grid1D, arm: str, n_key: str, run: Grid1D | None = None
) -> float:
    """arm_energy(h, x_out, g), refused unless it lies within ENERGY_RTOL of
    the arm's exact energy: a grid that truncates or does not resolve the
    arm biases <S^2> by as much.  A non-finite value is a numeric error.
    ``run``, a run of g's nodes with h = 0 at its ends unless they are g's,
    is sampled in place of g; the refusal names g."""
    e, exact = arm_energy(h, x_out, g if run is None else run), h.energy
    if not (np.isfinite(e) and np.isfinite(exact)):
        raise NumericDomainError(f"non-finite {arm} energy {e} at {x_out:g} mm (exact {exact})")
    if not abs(e - exact) <= ENERGY_RTOL * exact:
        raise InvalidArgumentError(
            f"{arm} energy at {x_out:g} mm: the grid (step {g.step:.4g} mm, window "
            f"+/-{g.half_width:g} mm) captures {e / exact:.4g} of the exact energy "
            f"{exact:.6g} (tolerance {ENERGY_RTOL:g}); raise numerics.{n_key} or adjust "
            f"numerics.window_mm"
        )
    return e


def coincidence_statistics(x_t: float, x_r, a, i_t: float, i_r: float) -> tuple:
    """(G2, <S^2>, Delta G2, SNR) as arrays over x_r, from the amplitudes
    at those points and the arm energies.

    A radicand <S^2> - G2^2 below -RADICAND_CLAMP times its scale is a
    normalization or truncation failure, not noise, and the first such entry
    is reported; above it the radicand is clamped to 0.  Then a non-finite
    G2, I_t, I_r, <S^2> or Delta G2 is a numeric error naming the first x_r
    where one occurs: an overflowing arm or state must not reach the output
    as inf or NaN.  The SNR is 0 where there is no signal and +inf where the
    fluctuation vanishes with signal present.
    """
    x_r, a = np.atleast_1d(x_r, a)
    # hypot rounds as abs(complex) does; np.abs differs in the last bit
    g2 = np.hypot(a.real, a.imag) ** 2
    m2 = g2 * i_t * i_r
    radicand, scale = m2 - g2 * g2, m2 + g2 * g2
    broken = np.flatnonzero(radicand < -RADICAND_CLAMP * scale)
    if broken.size:
        k = broken[0]
        raise NormalizationViolationError(
            f"variance radicand {radicand[k]:.6e} below the clamp window "
            f"(-{RADICAND_CLAMP:.0e} * {scale[k]:.6e}); the state is not "
            f"unit-norm or the quadrature window truncates it"
        )
    dg2 = np.sqrt(np.maximum(radicand, 0.0))
    names = ("G2", "I_t", "I_r", "<S^2>", "Delta G2")
    values = np.broadcast_arrays(g2, i_t, i_r, m2, dg2)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=0)))
        q = int(np.argmin(finite[:, k]))
        raise NumericDomainError(
            f"non-finite {names[q]} = {values[q][k]} at (x_t={x_t}, x_r={x_r[k]})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return g2, m2, dg2, np.where(g2 == 0.0, 0.0, g2 / dg2)
