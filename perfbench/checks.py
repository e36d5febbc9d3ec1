"""Output checks for benchmark operations.

Every check returns a list of problems; an empty list means the output is
correct.  Numeric columns are compared to a reference by their deviation
relative to the reference column's largest magnitude.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# deviation allowed against a reference, relative to the column's max |value|
RTOL = 1e-12

# the scan CSV contract documented in the README
CSV_HEADER = "x_r_mm,g2,g2_norm,dg2,dg2_norm,dg2_avg_norm,snr,snr_avg,flags"
SWEEP_NUMERIC = ("aperture_mm", "peak_snr", "contrast", "noise_amplitude")


def read_scan_csv(path) -> dict:
    """Columns of a scan CSV keyed by header name; numeric ones as float arrays."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header {lines[0] if lines else ''!r} is not {CSV_HEADER!r}")
    names = CSV_HEADER.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(r) != len(names) for r in rows):
        raise ValueError("rows do not match the header")
    cols = {n: [r[i] for r in rows] for i, n in enumerate(names)}
    return {n: (v if n == "flags" else np.array([float(s) for s in v])) for n, v in cols.items()}


def _deviation(name: str, got, ref) -> list[str]:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: {got.size} values, expected {ref.size}"]
    scale = float(np.abs(ref).max(initial=0.0))
    dev = float(np.abs(got - ref).max(initial=0.0))
    if not dev <= RTOL * scale:
        return [f"{name}: deviation {dev:.3e} > {RTOL:.0e} x column max {scale:.6e}"]
    return []


def _nonfinite(cols: dict) -> list[str]:
    return [
        f"{n}: non-finite value" for n, v in cols.items()
        if n != "flags" and not np.all(np.isfinite(v))
    ]


def check_scan_csv(path, n_pairs: int, reference: dict | None = None) -> list[str]:
    """Finite columns that obey the normalization laws and, when a reference
    is given, match it column by column."""
    try:
        cols = read_scan_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable scan CSV: {exc}"]
    problems = _nonfinite(cols)
    if problems:
        return problems
    g2max = float(cols["g2"].max())
    rootn = math.sqrt(n_pairs)
    laws = {
        "g2_norm": cols["g2"] / g2max,
        "dg2_norm": cols["dg2"] / g2max,
        "dg2_avg_norm": cols["dg2"] / (rootn * g2max),
        "snr_avg": cols["snr"] * rootn,
    }
    for name, expected in laws.items():
        problems += _deviation(f"{name} law", cols[name], expected)
    if reference is not None:
        for name, ref in reference.items():
            if name == "flags":
                if cols[name] != ref:
                    problems.append("flags differ from the reference")
            else:
                problems += _deviation(name, cols[name], ref)
    return problems


def read_sweep_json(path) -> list:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_sweep_json(path, reference: list) -> list[str]:
    """Numeric fields within RTOL per field across apertures; peak
    positions exactly equal."""
    try:
        got = read_sweep_json(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable sweep JSON: {exc}"]
    if not isinstance(got, list) or len(got) != len(reference):
        return [f"sweep has {len(got) if isinstance(got, list) else '?'} entries, expected {len(reference)}"]
    try:
        cols = {k: np.array([float(e[k]) for e in got]) for k in SWEEP_NUMERIC}
        peaks = [[float(v) for v in e["peak_positions_mm"]] for e in got]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed sweep entry: {exc!r}"]
    problems = _nonfinite(cols)
    for k in SWEEP_NUMERIC:
        problems += _deviation(k, cols[k], [e[k] for e in reference])
    ref_peaks = [e["peak_positions_mm"] for e in reference]
    if peaks != ref_peaks:
        problems.append(f"peak positions {peaks} != reference {ref_peaks}")
    return problems


def check_validate(stdout: str) -> list[str]:
    """Every reported check passed, and at least one was reported."""
    status = [line for line in stdout.splitlines() if line.startswith("[")]
    if not status:
        return ["validate reported no checks"]
    return [line for line in status if not line.startswith("[PASS]")]
