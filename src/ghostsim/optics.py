"""Impulse responses of the two optical arms, pupil transforms and object
transmissions.

Test arm (object t at focal distance f before a lens, detector in its focal
plane) and reference arm (lens of pupil p at 2f from source and detector),
with P the Fourier transform of p under the exp(-2 pi i u x) kernel:

    h_t(x_t, x) = -(i / (lam f)) t(x) exp(-2 pi i x_t x / (lam f))
    h_r(x_r, x') = (1 / (4 lam^2 f^2)) P((x_r + x') / (2 lam f))
                   * exp(i pi (x_r^2 + x'^2) / (2 lam f))

Quadratures reach arms only through one grid hook per role, and the energy
quadrature (``energy_in``, which sums a row of |h|^2 with
:meth:`ghostsim.grid.Grid1D.integrate` where it forms one), all held by
:class:`ImpulseResponse`: the test arm is sampled on the x grid
(``sample_in``, reading a transmission's ``cell_mean`` where it has one:
slits averaged over each grid cell, which integrates them exactly), and
the reference arm is applied to a vector on the x' grid (``apply_in``)
and bounds its spatial frequencies in x' over a grid (``band_in``, from
the pupil's ``width`` and the chirp), which sets the amplitude's stride.
The reference arm asks the pupil for P at the uniform grid of pupil
arguments in two forms only, applied to a vector (``Pupil.apply``, with
the two chirps folded out) and in the energy quadrature
(``Pupil.abs2_sum``); a pupil has no other grid hook.  The rect and
Gaussian pupils apply a real block of P.  The rect pupil forms P by angle
addition from each row's nearest node: its block from a table built once
per ``apply`` call, with the rows' anchors formed once per call, and its
energy row from about 2 sqrt(n) sines and cosines of split angles.  The
Gaussian pupil samples P pointwise, and a tabulated pupil works in its own
plane, as sums over its table nodes, whose exponentials it forms as
cos - i sin.
Pointwise ``evaluate`` keeps the sharp-edged definition.
Transmissions, pupils and arms carry their exact energies, which scans
check their arm-energy quadratures against, and compact objects and their
test arms the interval outside which they vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .grid import BAND_EPS, Grid1D, _fft_size, check_width, make_grid

__all__ = [
    "Transmission",
    "Pupil",
    "ImpulseResponse",
    "double_slit",
    "gaussian_transmission",
    "tabulated_transmission",
    "load_transmission_csv",
    "rect_pupil",
    "gaussian_pupil",
    "tabulated_pupil",
    "load_pupil_csv",
    "fourier_arm",
    "two_f_arm",
]


# entries per block of offsets that a pupil applies at once: the block stays
# in cache and a scan's memory stays bounded whatever its number of points
_BLOCK_ENTRIES = 2**14


def _in_runs(fn, offset, width: int) -> np.ndarray:
    """fn over runs of the flattened offsets, about _BLOCK_ENTRIES // width
    per run, as one complex array of offset's shape (a scalar for a scalar
    offset)."""
    o, run = np.ravel(offset), max(1, _BLOCK_ENTRIES // width)
    runs = [fn(o[i : i + run]) for i in range(0, o.size, run)]
    return np.concatenate([np.empty(0, dtype=complex), *runs]).reshape(np.shape(offset))[()]


def _cis(t) -> np.ndarray:
    """exp(-2 pi i t) for real t, written as cos(2 pi t) - i sin(2 pi t) of
    the real phase into one complex array: no complex exp, and none of the
    complex temporaries of np.cos(p) - 1j * np.sin(p), which is slower than
    the complex exp."""
    phase = (2.0 * np.pi) * np.asarray(t, dtype=float)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.negative(np.sin(phase), out=out.imag)
    return out


def _overlap(lo, hi, a, b):
    """Length of the intersection of [lo, hi] with [a, b], vectorized."""
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)


@dataclass(frozen=True)
class Transmission:
    """Real object transmission t(x) in [0, 1] and its energy int t^2 dx.

    ``cell_mean(x, h)`` is the mean of t over [x - h/2, x + h/2]; the test
    arm samples t through it on grid cells of width h when it is set (for
    an indicator it is the cell mean of t^2 too), else through ``evaluate``.
    ``support`` is an interval [lo, hi] outside which t = 0, or None.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    energy: float
    cell_mean: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    support: Optional[tuple] = None


def double_slit(w: float, d: float) -> Transmission:
    """Two slits of width w centered at +/- d/2 (d is center-to-center)."""
    if not (w > 0.0):
        raise InvalidArgumentError(f"slit width w must be > 0, got {w}")
    if not (w < d):
        raise InvalidArgumentError(f"slits merge: need w < d, got w={w}, d={d}")
    half = 0.5 * w
    c = 0.5 * d

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return ((np.abs(x - c) <= half) | (np.abs(x + c) <= half)).astype(float)

    def cell_mean(x, h):
        x = np.asarray(x, dtype=float)
        lo = x - 0.5 * h
        hi = x + 0.5 * h
        cov = _overlap(lo, hi, c - half, c + half) + _overlap(lo, hi, -c - half, -c + half)
        return cov / h

    return Transmission(evaluate, 2.0 * w, cell_mean, support=(-c - half, c + half))


def gaussian_transmission(w: float) -> Transmission:
    """Smooth Gaussian object t(x) = exp(-x^2 / w^2)."""
    check_width(w, "gaussian object width w")
    return Transmission(
        evaluate=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / w**2),
        energy=w * np.sqrt(np.pi / 2.0),
    )


def tabulated_transmission(grid: Grid1D, values: np.ndarray) -> Transmission:
    """Linear interpolation of the table, 0 outside it; its energy is the
    exact integral of the interpolant squared, sum h (a^2 + ab + b^2) / 3
    over the table's intervals [a, b]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise InvalidArgumentError(
            f"transmission table length {values.shape} does not match grid"
        )
    if values.min() < 0.0 or values.max() > 1.0:
        raise InvalidArgumentError("transmission values must lie in [0, 1]")
    xs = grid.samples()

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, xs, values, left=0.0, right=0.0)

    a, b = values[:-1], values[1:]
    energy = grid.step * float(np.sum(a * a + a * b + b * b)) / 3.0
    return Transmission(evaluate=evaluate, energy=energy, support=(grid.lo, grid.hi))


# largest relative spread of a table's x steps accepted as a uniform grid
_TABLE_STEP_RTOL = 1e-9


def _load_table(path, what: str, layouts: dict) -> tuple:
    """Rows of a CSV table whose column count is a key of ``layouts``, and
    the uniform grid its first column lies on.

    The first line is a header row; a first line of numbers is rejected
    rather than dropped.  Unparsable, non-finite, unsorted and non-uniform
    tables are rejected: the quadratures place the values on a uniform
    grid, so a table that is not on one would be silently distorted."""
    # utf-8-sig: a byte-order mark would pass a first line of numbers as a header
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        header, *rows = fh.read().splitlines() or [""]
    try:
        [float(v) for v in header.split(",")]
    except ValueError:
        pass
    else:
        raise InvalidArgumentError(
            f"{what} CSV {path}: missing header row (first line {header!r} is data)"
        )
    # np.loadtxt warns on a table without data rows (blank or comment lines
    # only); such a table is left empty, 0 rows of x_mm,value, for the row
    # check below to refuse
    has_data = any(r.split("#", 1)[0].strip() for r in rows)
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if has_data else np.empty((0, 2))
    except ValueError as exc:
        raise InvalidArgumentError(f"{what} CSV {path} does not parse: {exc}") from exc
    if data.shape[1] not in layouts:
        raise InvalidArgumentError(
            f"{what} CSV needs columns {' or '.join(layouts.values())}; "
            f"got {data.shape[1]} columns"
        )
    if not np.all(np.isfinite(data)):
        row = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0]) + 1
        raise InvalidArgumentError(f"{what} CSV {path}: non-finite value in data row {row}")
    steps = np.diff(data[:, 0])
    if steps.size == 0 or steps.min() <= 0.0:
        raise InvalidArgumentError(
            f"{what} CSV {path}: x_mm must increase strictly over at least two rows"
        )
    spread = (steps.max() - steps.min()) / steps.mean()
    if spread > _TABLE_STEP_RTOL:
        raise InvalidArgumentError(
            f"{what} CSV {path}: x_mm is not uniform (relative step spread "
            f"{spread:.2e} > {_TABLE_STEP_RTOL:.0e})"
        )
    x = data[:, 0]
    return data, make_grid((x[0] + x[-1]) / 2, (x[-1] - x[0]) / 2, x.size)


def load_transmission_csv(path) -> Transmission:
    """CSV columns x_mm, value on a uniform grid."""
    data, grid = _load_table(path, "transmission", {2: "x_mm,value"})
    return tabulated_transmission(grid, data[:, 1])


@dataclass(frozen=True)
class Pupil:
    """Fourier transform P(u) of an aperture pupil p(x) with kernel
    exp(-2 pi i u x), the pupil's energy int |p|^2 dx, its width and its
    grid hooks.

    ``width`` W bounds the pupil in its own plane: p(x) is 0, or below
    BAND_EPS of its peak, for |x| > W / 2, so P(u) holds no frequency
    beyond W / 2.  It is D for a rect pupil, 2 sigma sqrt(ln(1 / BAND_EPS))
    for a Gaussian one and 2 max(|lo|, |hi|) of a table.

    On a uniform grid of nodes x_j, at u_j = (offset + x_j) / scale, the
    reference arm needs P only applied to a complex vector z,
    ``apply(grid, offset, scale, z)`` = sum_j P(u_j) z_j, and in its energy
    quadrature, ``abs2_sum(grid, offset, scale, c)`` =
    c sum_j w_j |P(u_j)|^2 with the grid's trapezoid weights w_j; both
    return one value per offset; these are the pupil's only grid hooks.
    The rect and Gaussian pupils apply their real block of P(u_j), one row
    per offset (:func:`_apply_real`), and sum |P|^2 over a row, the rect
    pupil's formed by angle addition (:func:`rect_pupil`); a tabulated
    pupil works in its own plane.
    """

    ft: Callable[[np.ndarray], np.ndarray]
    energy: float
    width: float
    apply: Callable = field(repr=False)
    abs2_sum: Callable = field(repr=False)


def _apply_real(rows, offset, width: int, z) -> np.ndarray:
    """sum_j B_ij z_j for a real block B over runs of the flattened offsets,
    rows(run) being B's rows at a run of about _BLOCK_ENTRIES // width
    offsets; each multiplies z's (re, im) columns, since float @ complex
    would cast the block."""
    zz = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)
    return _in_runs(lambda o: (rows(o) @ zz).view(complex)[:, 0], offset, width)


def _angle_table(g: Grid1D, c: float) -> list:
    """b_k = c h k, cos b_k and sin b_k for k = 1 - n .. n - 1, built for
    k >= 0 and mirrored: b_k and sin b_k are odd in k, cos b_k is even."""
    b = c * (g.step * np.arange(g.n_points))
    halves = ((b, -1.0), (np.cos(b), 1.0), (np.sin(b), -1.0))
    return [np.concatenate([sign * t[:0:-1], t]) for t, sign in halves]


def rect_pupil(D: float) -> Pupil:
    """Hard aperture of width D; P(u) = D sinc(pi D u), real.

    On a grid P is computed by angle addition at the nodes x_j = lo + j h.
    With c = pi D / scale, j_r the node nearest -o_r (clipped to the grid),
    a_r = c (o_r + x_{j_r}) and b_k = c h k for k = j - j_r, each entry is
    D sin(a_r + b_k) / (a_r + b_k).  Nothing cancels in a_r + b_k: for an
    interior j_r, |a_r| <= c h / 2 <= |b_k| / 2 for k != 0, and for a
    clipped one a_r and every b_k share a sign.  The one zero denominator,
    a_r = 0 at k = 0, is P's peak D.

    The block, one row per offset, is
    D (sin a_r cos b_k + cos a_r sin b_k) / (a_r + b_k), with b_k, cos b_k
    and sin b_k from a table that ``apply`` builds once per call, when it
    forms j_r, a_r, D sin a_r and D cos a_r for all its offsets at once;
    each run of rows only gathers its table windows.  The energy quadrature
    has one row and no table: with q = ceil(sqrt(n)), j = q m + r and
    j_r = q m_r + r_r, a_r + b_k = A_m + beta_r for A_m = a_r + c h q (m - m_r)
    and beta_r = c h (r - r_r), whose sines and cosines, 2 (q + ceil(n / q))
    of them, give sin(a_r + b_k) by two outer products.  At j = j_r,
    A = a_r and beta = 0 exactly, so the peak keeps its precision.
    """
    check_width(D, "aperture size D")

    def ft(u):
        return D * np.sinc(D * np.asarray(u, dtype=float))

    def anchors(g, offset, scale):
        """j_r and a_r for each of the flattened offsets."""
        o = np.asarray(offset, dtype=float).ravel()
        # fmin and fmax drop a NaN: a non-finite offset still picks a node,
        # and its row comes out non-finite for the caller to refuse
        jr = np.fmax(np.fmin(np.rint((-o - g.lo) / g.step), g.n_points - 1), 0).astype(np.intp)
        return jr, (np.pi * D / scale) * (o + (g.lo + g.step * jr))

    def block(g, table, jr, a, dsin, dcos):
        """The rows at anchors j_r and a_r, given D sin a_r and D cos a_r."""
        # b_k, cos b_k and sin b_k at each row's k, gathered by fancy
        # indexing (np.take would copy all n windows), then turned in place
        # into a + b and D sin(a + b)
        den, num, term = (t[g.n_points - 1 - jr] for t in table)
        num *= dsin[:, np.newaxis]
        term *= dcos[:, np.newaxis]
        num += term
        den += a[:, np.newaxis]
        peak = np.flatnonzero(a == 0.0)
        den[peak, jr[peak]] = 1.0
        num /= den
        num[peak, jr[peak]] = D
        return num

    def apply(g, offset, scale, z):
        jr, a = anchors(g, offset, scale)
        rows = (jr, a, D * np.sin(a), D * np.cos(a))
        # _angle_table's b_k, cos b_k and sin b_k, each as its windows of n
        # entries (window i starts at k = i + 1 - n)
        table = [sliding_window_view(t, g.n_points) for t in _angle_table(g, np.pi * D / scale)]
        index = np.arange(jr.size).reshape(np.shape(offset))
        return _apply_real(lambda i: block(g, table, *(r[i] for r in rows)), index, g.n_points, z)

    def abs2_sum(g, offset, scale, c):
        (jr,), (a,) = anchors(g, offset, scale)
        n, ch = g.n_points, np.pi * D / scale * g.step
        q = int(np.sqrt(n - 1)) + 1
        mr, rr = divmod(int(jr), q)
        big = ch * (q * (np.arange(-(-n // q)) - mr)) + a
        small = ch * (np.arange(q) - rr)
        # the two outer products as one (m, 2) @ (2, q) product, whose row
        # is turned in place into (sin / den)^2: on the default grid each
        # fresh array of the row's length costs about as much as the
        # arithmetic on it
        s = (np.stack([np.sin(big), np.cos(big)], 1) @ [np.cos(small), np.sin(small)]).ravel()[:n]
        den = (np.pi * D / scale) * (g.step * np.arange(-jr, n - jr, dtype=float)) + a
        if a == 0.0:  # the peak, 0 / 0, is P = D
            den[jr] = s[jr] = 1.0
        s /= den
        s *= s
        return float(g.integrate(s) * (c * D * D))

    return Pupil(ft, D, D, apply, abs2_sum)


def gaussian_pupil(sigma: float) -> Pupil:
    """Soft aperture p(x) = exp(-x^2 / sigma^2);
    P(u) = sigma sqrt(pi) exp(-pi^2 sigma^2 u^2), real.

    Its block is the pointwise transform, applied in runs of offsets
    (:func:`_apply_real`); its energy quadrature, one offset per call, sums
    the pointwise |P|^2 row."""
    check_width(sigma, "gaussian pupil width sigma")

    def ft(u):
        u = np.asarray(u, dtype=float)
        return sigma * np.sqrt(np.pi) * np.exp(-np.pi**2 * sigma**2 * u**2)

    def row(g, offset, scale):
        """P at u_j, one row per offset, its argument formed from the grid
        samples: near P's peak offset + x_j cancels exactly, whereas
        u0 + j du would carry the rounding of u0 (up to 3e-13 of max |P| for
        a 10 mm rect pupil on the default x' grid).  The rect pupil's table
        keeps that cancellation by anchoring each row at its nearest node."""
        return ft(np.add.outer(offset, g.samples()) / scale)

    def apply(g, offset, scale, z):
        return _apply_real(lambda o: row(g, o, scale), offset, g.n_points, z)

    def abs2_sum(g, offset, scale, c):
        return float(g.integrate(c * np.abs(row(g, offset, scale)) ** 2))

    width = 2.0 * sigma * np.sqrt(np.log(1.0 / BAND_EPS))
    return Pupil(ft, sigma * np.sqrt(np.pi / 2.0), width, apply, abs2_sum)


def tabulated_pupil(grid: Grid1D, values: np.ndarray) -> Pupil:
    """Pupil from complex samples; P(u) = sum_k a_k exp(-2 pi i u xi_k) by
    quadrature over the table nodes xi_k, with a = w p and trapezoid
    weights w_k.

    P is periodic in u with period 1/h, so its energy is Parseval's over one
    period, sum |a_k|^2 / h.  On a grid the pupil works in its own plane.
    Applied to z at u_j = (o + x_j) / s it is
    sum_k a_k exp(-2 pi i o xi_k / s) Z_k, with
    Z_k = sum_j z_j exp(-2 pi i xi_k x_j / s) formed once for every o.
    Its energy quadrature is sum_j w_j |P(u_j)|^2 = sum_m c_m K_m, with c_m
    the autocorrelation of a and K_m the trapezoid sum of
    exp(-2 pi i u_j h m) over the grid in closed form.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n_points,):
        raise InvalidArgumentError(f"pupil table length {values.shape} does not match grid")
    xs = grid.samples()
    wv = grid.trapezoid_weights() * values
    # table nodes per block of Z's kernel, ceil(sqrt(n)): with k = m q + r,
    # exp(-2 pi i xi_k x) = exp(-2 pi i xi_{mq} x) exp(-2 pi i r h x) takes
    # (n/m + m) rows of exponentials instead of n
    m = int(np.sqrt(xs.size - 1)) + 1
    # c_m = sum_l a_{l+m} conj(a_l) for m = 0 .. n - 1, from one FFT of a
    acf = np.fft.ifft(np.abs(np.fft.fft(wv, _fft_size(2 * xs.size - 1))) ** 2)[: xs.size]

    def ft(u, a=wv):
        """sum_k a_k exp(-2 pi i u xi_k) for each u: P(u) for a = w p."""
        return _in_runs(lambda uu: _cis(np.multiply.outer(uu, xs)) @ a, u, xs.size)

    def apply(g, offset, scale, z):
        x = g.samples() / scale
        coarse = _cis(np.multiply.outer(xs[::m], x)) * z
        fine = _cis(np.multiply.outer(grid.step * np.arange(m), x))
        return ft(np.divide(offset, scale), wv * (coarse @ fine.T).ravel()[: xs.size])

    def abs2_sum(g, offset, scale, c):
        # K_m = g.step exp(-2 pi i u_c h m) sin(n r) / tan(r) over n panels,
        # with u_c the grid centre's u and r = pi du h m, each reduced by
        # its period (1/h and pi) first; its limit at r = 0 is n.  c_{-m}
        # and K_{-m} are the conjugates of c_m and K_m
        k = np.arange(xs.size)
        t, tc = g.step / scale * grid.step * k, (offset + g.center) / scale * grid.step
        n, lap = g.n_points - 1, np.rint(t)
        kernel = n * np.cos(np.pi * (t - lap)) * np.sinc(n * (t - lap)) / np.sinc(t - lap)
        terms = acf * np.exp(-2j * np.pi * (tc - np.rint(tc)) * k) * (-1.0) ** (n * lap) * kernel
        return c * (g.step * (2.0 * terms.real.sum() - terms[0].real))

    energy = float(np.vdot(wv, wv).real) / grid.step
    return Pupil(ft, energy, 2.0 * max(abs(grid.lo), abs(grid.hi)), apply, abs2_sum)


def load_pupil_csv(path) -> Pupil:
    """CSV columns x_mm,value (real) or x_mm,re,im on a uniform grid."""
    data, grid = _load_table(path, "pupil", {2: "x_mm,value", 3: "x_mm,re,im"})
    values = data[:, 1] if data.shape[1] == 2 else data[:, 1] + 1j * data[:, 2]
    return tabulated_pupil(grid, values)


@dataclass(frozen=True)
class ImpulseResponse:
    """Complex kernel h(x_out, x_in) of one optical arm.

    Each arm sets the grid hook of its role in the amplitude, as a plain
    field.  The test arm's ``sample_in(x_out, grid)`` returns its kernel
    samples over an x grid, applying cell-averaging for sharp-edged
    components, for the inner integral to reduce against the state; the
    reference arm's ``apply_in(x_out, grid, v)`` is
    sum_j h(x_out, x_j) v_j over an x' grid's nodes x_j, one value per
    x_out, and its ``band_in(grid)`` bounds the spatial frequencies of
    h(x_out, x') in x' over the grid's span, for every x_out (None: no
    bound).  ``energy_in(x_out, grid)``, set by both, is the trapezoid
    quadrature of |h(x_out, .)|^2 over the grid.  ``evaluate`` is the
    pointwise kernel, ``energy`` the exact int |h(x_out, x)|^2 dx and
    ``support`` an interval [lo, hi] of x_in outside which h = 0, or None.

    ``sample_in`` alone stays a method, over the field ``_sample_in``, so
    that it exists on the class: the benchmark's per-layer trace wraps
    ``ImpulseResponse.sample_in`` there.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    energy: float
    energy_in: Callable[[float, Grid1D], float] = field(repr=False)
    _sample_in: Optional[Callable[[float, Grid1D], np.ndarray]] = field(default=None, repr=False)
    apply_in: Optional[Callable] = field(default=None, repr=False)
    band_in: Optional[Callable[[Grid1D], float]] = field(default=None, repr=False)
    support: Optional[tuple] = None

    def sample_in(self, x_out: float, grid: Grid1D) -> np.ndarray:
        return self._sample_in(x_out, grid)


def _arm_scale(lam: float, f: float, arm: str) -> float:
    """lam f, refused unless the energy scale 1 / (16 lam^4 f^4) is finite
    and nonzero; lam f, 1 / (4 lam^2 f^2) and pi / (2 lam f) then are too.

    It is formed with * and / only, which round to 0 or inf where ** and a
    zero divisor would raise; the arms' own constants are then in range.
    """
    if not (lam > 0.0):
        raise InvalidArgumentError(f"wavelength must be > 0, got {lam}")
    if not (f > 0.0):
        raise InvalidArgumentError(f"focal length must be > 0, got {f}")
    lf = lam * f
    amp = 0.25 / lf / lf if lf > 0.0 else np.inf
    if not (0.0 < amp * amp < np.inf):
        raise InvalidArgumentError(
            f"{arm}: wavelength {lam:g} mm and focal length {f:g} mm give "
            f"1 / (16 lambda^4 f^4) = {amp * amp:g}, outside the floating-point range"
        )
    return lf


def fourier_arm(lam: float, f: float, t: Transmission) -> ImpulseResponse:
    """Test-arm kernel: object t, unapertured lens, detector in the focal
    plane.

    Its grid sampler refuses a non-finite x_t and |x_t| > lam f / (2 h),
    the Nyquist limit of the phase exp(-2 pi i x_t x / (lam f)) on a grid
    of step h.
    """
    lf = _arm_scale(lam, f, "test arm")

    def evaluate(x_t, x):
        x_t = np.asarray(x_t, dtype=float)
        x = np.asarray(x, dtype=float)
        return (-1j / lf) * t.evaluate(x) * np.exp(-2j * np.pi * x_t * x / lf)

    def sample_in(x_t, grid):
        limit = lf / (2.0 * grid.step)
        if not abs(x_t) <= limit:  # a NaN x_t fails too
            raise InvalidArgumentError(
                f"test detector x_t = {x_t:g} mm: the x grid (step {grid.step:.4g} mm) "
                f"resolves |x_t| <= {limit:.4g} mm only"
            )
        x = grid.samples()
        tv = t.cell_mean(x, grid.step) if t.cell_mean else t.evaluate(x)
        return (-1j / lf) * tv * np.exp(-2j * np.pi * x_t * x / lf)

    def energy_in(x_t, g):
        t2 = t.cell_mean(g.samples(), g.step) if t.cell_mean else t.evaluate(g.samples()) ** 2
        return float(g.integrate(t2 / lf**2))

    return ImpulseResponse(evaluate, t.energy / lf**2, energy_in, sample_in, support=t.support)


def two_f_arm(lam: float, f: float, p: Pupil) -> ImpulseResponse:
    """Reference-arm kernel: lens of pupil p at 2f from source and detector.

    On a grid the kernel is exp(i pi x_r^2 / (2 lam f)) times
    amp exp(i pi x'^2 / (2 lam f)) times P on the uniform u grid; its
    squared modulus is amp^2 |P|^2, whose integral over x' is p's
    energy / (8 lam^3 f^3) by Parseval.  Applied to a vector v, for one x_r
    or an array of them, the two chirps stay outside: the x' chirp is folded
    into v, the pupil applies itself to the product (``Pupil.apply``) and
    the x_r chirp scales the result.  The energy quadrature is amp^2 times
    the pupil's (``Pupil.abs2_sum``), with no chirp.

    Its x' band over a grid is the pupil's, P((x_r + x') / (2 lam f)) holding
    no frequency beyond W / (4 lam f), plus the chirp's local frequency
    x' / (2 lam f) at the grid's largest |x'|.
    """
    lf = _arm_scale(lam, f, "reference arm")
    amp = 1.0 / (4.0 * lf**2)
    chirp = np.pi / (2.0 * lf)

    def evaluate(x_r, xp):
        x_r = np.asarray(x_r, dtype=float)
        xp = np.asarray(xp, dtype=float)
        return amp * p.ft((x_r + xp) / (2.0 * lf)) * np.exp(1j * chirp * (x_r**2 + xp**2))

    def apply_in(x_r, grid, v):
        z = amp * np.exp(1j * chirp * grid.samples() ** 2) * v
        return np.exp(1j * chirp * np.square(x_r)) * p.apply(grid, x_r, 2.0 * lf, z)

    def energy_in(x_r, grid):
        return p.abs2_sum(grid, x_r, 2.0 * lf, amp**2)

    def band_in(grid):
        return (0.5 * p.width + max(abs(grid.lo), abs(grid.hi))) / (2.0 * lf)

    return ImpulseResponse(
        evaluate, p.energy / (8.0 * lf**3), energy_in, apply_in=apply_in, band_in=band_in
    )
