"""Seeded inputs for the ``tabulated`` workload: an object table, a complex
pupil table and the run configuration that points at both.

The object is three slits of width 0.05 mm at seeded positions, tabulated on
4001 points over +/-1 mm.  The pupil is a soft-edged aperture (a rect of
half-width 0.75 mm smoothed by a Gaussian of width 0.05 mm) times a seeded
chirp exp(i alpha x^2), tabulated on 301 points over +/-1 mm.  The reference
arm samples the pupil transform P(u) by quadrature over the table at
u = (x_r + x') / (2 lambda f), so the table must resolve P(u) over the whole
x' window; ``check_resolved`` asserts that before any run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LAMBDA_NM = 650.0
F_MM = 100.0
SOURCE = {"a_mm": 2.0, "b_mm": 0.05}
SCAN = {"xr_min_mm": -2.0, "xr_max_mm": 2.0, "n_points": 21, "xt_mm": 0.0}
N_PAIRS = 10000
# x' quadrature half-window; build_setup widens it to 4a for Gaussian sources
WINDOW_MM = max(8.0, 4.0 * SOURCE["a_mm"])

OBJECT_POINTS = 4001
OBJECT_HALF_MM = 1.0
SLIT_COUNT = 3
SLIT_W_MM = 0.05
SLIT_MIN_GAP_MM = 0.2

PUPIL_POINTS = 301
PUPIL_HALF_MM = 1.0
PUPIL_OPEN_MM = 0.75
PUPIL_EDGE_MM = 0.05
CHIRP_MAX = 20.0  # |alpha| in 1/mm^2

# a table counts as resolving P(u) when its quadrature transform matches an
# 8x finer sampling of the same pupil to this fraction of max |P|
RESOLVE_RTOL = 1e-9
RESOLVE_REFINE = 8
RESOLVE_U_POINTS = 4001


class UnresolvedInput(ValueError):
    """Generated tables do not represent the intended optics."""


def slit_centers(rng: np.random.Generator) -> list[float]:
    lim = OBJECT_HALF_MM - 0.2
    while True:
        c = np.sort(rng.uniform(-lim, lim, SLIT_COUNT))
        if np.all(np.diff(c) >= SLIT_MIN_GAP_MM):
            return [float(v) for v in c]


def pupil_values(x: np.ndarray, alpha: float) -> np.ndarray:
    """Rect of half-width PUPIL_OPEN_MM convolved with a unit-area Gaussian
    exp(-x^2/s^2)/(s sqrt(pi)), times the chirp."""
    s = PUPIL_EDGE_MM
    edge = np.array(
        [0.5 * (math.erf((v + PUPIL_OPEN_MM) / s) - math.erf((v - PUPIL_OPEN_MM) / s)) for v in x]
    )
    return edge * np.exp(1j * alpha * x**2)


def _table_ft(x: np.ndarray, values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trapezoid transform with kernel exp(-2 pi i u x), as the reference arm
    evaluates a tabulated pupil."""
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(-2j * np.pi * u[:, None] * x[None, :]) @ (w * values)


def u_max() -> float:
    """Largest |u| the reference arm samples over the x' window."""
    xr = max(abs(SCAN["xr_min_mm"]), abs(SCAN["xr_max_mm"]))
    return (xr + WINDOW_MM) / (2.0 * LAMBDA_NM * 1e-6 * F_MM)


def check_resolved(
    centers, alpha: float, n_pupil: int = PUPIL_POINTS, half_pupil: float = PUPIL_HALF_MM
) -> None:
    """Raise UnresolvedInput unless both tables represent their optics."""
    xo = np.linspace(-OBJECT_HALF_MM, OBJECT_HALF_MM, OBJECT_POINTS)
    step = xo[1] - xo[0]
    if SLIT_W_MM < 10 * step:
        raise UnresolvedInput(f"object step {step} mm does not resolve {SLIT_W_MM} mm slits")
    for c in centers:
        if abs(c) + SLIT_W_MM / 2 > OBJECT_HALF_MM - 10 * step:
            raise UnresolvedInput(f"slit at {c} mm reaches the object table edge")
    if np.any(np.diff(np.sort(centers)) < SLIT_W_MM + 10 * step):
        raise UnresolvedInput(f"slits at {centers} mm overlap")

    x = np.linspace(-half_pupil, half_pupil, n_pupil)
    p = pupil_values(x, alpha)
    if max(abs(p[0]), abs(p[-1])) > 1e-12 * np.abs(p).max():
        raise UnresolvedInput("pupil table truncates the aperture")
    fine = np.linspace(-half_pupil, half_pupil, RESOLVE_REFINE * (n_pupil - 1) + 1)
    u = np.linspace(-u_max(), u_max(), RESOLVE_U_POINTS)
    ref = _table_ft(fine, pupil_values(fine, alpha), u)
    err = np.abs(_table_ft(x, p, u) - ref).max() / np.abs(ref).max()
    if err > RESOLVE_RTOL:
        raise UnresolvedInput(
            f"pupil table of {n_pupil} points over +/-{half_pupil} mm aliases P(u) "
            f"on |u| <= {u_max():.1f}/mm: relative error {err:.2e} > {RESOLVE_RTOL:.0e}"
        )


def generate(seed: int, workdir: Path) -> Path:
    """Write the seeded tables and config into workdir; return the config path."""
    rng = np.random.default_rng([seed % 2**64, 0x7AB])
    centers = slit_centers(rng)
    alpha = float(rng.uniform(-CHIRP_MAX, CHIRP_MAX))
    check_resolved(centers, alpha)

    xo = np.linspace(-OBJECT_HALF_MM, OBJECT_HALF_MM, OBJECT_POINTS)
    t = np.zeros_like(xo)
    for c in centers:
        t[np.abs(xo - c) <= SLIT_W_MM / 2] = 1.0
    obj = workdir / "object.csv"
    np.savetxt(obj, np.column_stack([xo, t]), fmt="%.17g", delimiter=",", header="x_mm,value", comments="")

    xp = np.linspace(-PUPIL_HALF_MM, PUPIL_HALF_MM, PUPIL_POINTS)
    p = pupil_values(xp, alpha)
    pup = workdir / "pupil.csv"
    np.savetxt(
        pup, np.column_stack([xp, p.real, p.imag]), fmt="%.17g", delimiter=",",
        header="x_mm,re,im", comments="",
    )

    config = {
        "source": SOURCE,
        "test_arm": {"lambda_nm": LAMBDA_NM, "f_mm": F_MM, "object": {"tabulated": {"path": str(obj)}}},
        "reference_arm": {"lambda_nm": LAMBDA_NM, "f_mm": F_MM, "pupil": {"tabulated": {"path": str(pup)}}},
        "scan": SCAN,
        "pairs": {"N": N_PAIRS},
        "numerics": {"window_mm": WINDOW_MM},
    }
    path = workdir / "tabulated.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
