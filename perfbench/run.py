"""Benchmark of the ghostsim command line: end-to-end timings and a traced
per-layer split.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a checkout; it imports ghostsim from the
checkout's ``src``.  Each operation is one in-process call of
``ghostsim.cli.main(argv)``.  One caller runs operations back to back (a
closed loop) and checks each output before the next starts; a run stops
starting operations once the next is expected to end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.  On
the scan workloads operation times are wall seconds rescaled to a reference
machine speed measured by a calibration kernel between operations; the raw
wall seconds are printed too.
``--trace 1`` runs untraced for the first half of the time and traced for
the second, and reports the per-layer metrics: self seconds and calls per
traced operation, the process CPU/wall ratio of the untraced half, and the
tracing overhead (traced minus untraced median operation time).

The last line of standard output is the JSON result.  The lines before it
give provenance, each metric with its unit and any failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import tabulated  # noqa: E402

PRESETS = ("fig2", "fig3")
N_PAIRS = 10000  # pairs.N of both presets
SWEEP_ARGS = [
    "sweep", "--preset", "fig2", "--param", "reference_arm.pupil.rect.D_mm",
    "--values", "2,4,6,8,10",
]
SETUP_REPEATS = 7

# A shared 2-core virtual machine drifts in speed by tens of percent over
# minutes, which no repetition inside one run averages out.  Operation times
# of the CALIBRATED workloads are therefore rescaled by a fixed numpy kernel
# (calibrate) timed between operations:
#     reported = wall * CAL_REF_S / median(kernel seconds in the run)
# CAL_REF_S is the kernel's median on the 2-core machine the benchmark was
# defined on, so there the reported figures stay close to wall seconds.
CAL_REF_S = 0.045
# kernel time spent before each operation, as a share of the previous one
CAL_SHARE = 0.05
# The kernel needs sampling instants spread through the run.  A validate op
# takes ~10 s, so an oracles run offers two or three; on six seeds those
# measured the kernel's own jitter (22% spread) while raw validate times
# spread 5%, so oracles report wall seconds.  Set-up is always wall seconds:
# calibration did not narrow its spread.
CALIBRATED = {"figures", "sweep", "tabulated"}
# tail percentile: the highest with at least this many samples beyond it
TAIL_BEYOND = 10

# validate builds its own grids; these are their sizes when the benchmark was defined
ORACLE_SIZES = {
    "gaussian_normalization": "10 random (a, b) on default certification grids",
    "analytic_arm_energies": "slit grid 4097; rect grids up to 600001 points for D = 2..10 mm",
    "all_gaussian_amplitude": "8193 x 16385 dense rows, 21 x_r points",
    "cauchy_schwarz_radicand": "20 setups on 2049 x 4097, 2 with matched states",
}


def log(*parts) -> None:
    print(*parts, flush=True)


# ---------------------------------------------------------------- provenance


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_identity() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": f"{blas.get('name')} {blas.get('version')}", "threads": threads}


def scan_sizes(cli, config: str) -> dict:
    """Grid sizes, nonzero test rows and scan points of one scan config,
    given as a file path or a preset name."""
    import numpy as np

    try:
        from ghostsim.config import build_scan_config, load_config

        path = cli.preset_path(config) if config in PRESETS else config
        scan = build_scan_config(load_config(path))
        setup = scan.setup
        rows = np.count_nonzero(setup.h_t.sample_in(scan.x_t, setup.gx))
        return {
            "n_x": setup.gx.n_points, "n_xp": setup.gxp.n_points,
            "window_mm": setup.gxp.half_width, "nonzero_test_rows": int(rows),
            "scan_points": scan.n_xr,
        }
    except Exception as exc:  # library API drift must not stop the timed run
        return {"unavailable": repr(exc)}


def provenance(seed: int, workload: str, sizes: dict) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "git_sha": git_sha(), **source_identity(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "ghostsim_threads": os.environ.get("GHOSTSIM_THREADS", "unset"), "sizes": sizes,
    }


# ----------------------------------------------------------------- workloads
#
# A workload maps (seed, work directory, cli module) to an operation
# factory and its sizes.  op(i) gives the argv of operation i, the output
# file it writes (or None) and a check of its captured stdout.


def figures(seed: int, work: Path, cli):
    refs = {p: checks.read_scan_csv(REFERENCE / f"{p}.csv") for p in PRESETS}
    order = PRESETS if seed % 2 == 0 else PRESETS[::-1]

    def op(i):
        preset = order[i % 2]
        out = work / f"{preset}.csv"
        argv = ["scan", "--preset", preset, "--output", str(out)]
        return argv, out, lambda _: checks.check_scan_csv(out, N_PAIRS, refs[preset])

    return op, {p: scan_sizes(cli, p) for p in PRESETS}


def sweep(seed: int, work: Path, cli):
    ref = checks.read_sweep_json(REFERENCE / "sweep.json")
    out = work / "sweep.json"
    argv = SWEEP_ARGS + ["--output", str(out)]
    sizes = {**scan_sizes(cli, "fig2"), "apertures_mm": SWEEP_ARGS[-1]}
    return (lambda i: (argv, out, lambda _: checks.check_sweep_json(out, ref))), sizes


def oracles(seed: int, work: Path, cli):
    return (lambda i: (["validate"], None, checks.check_validate)), dict(ORACLE_SIZES)


def tabulated_scan(seed: int, work: Path, cli):
    config = tabulated.generate(seed, work)
    ref_path = REFERENCE / f"tabulated_seed{seed}.csv"
    ref = checks.read_scan_csv(ref_path) if ref_path.is_file() else None
    out = work / "tabulated.csv"
    argv = ["scan", "--config", str(config), "--output", str(out)]
    sizes = {
        **scan_sizes(cli, str(config)), "object_points": tabulated.OBJECT_POINTS,
        "pupil_points": tabulated.PUPIL_POINTS, "reference_output": ref is not None,
    }
    return (lambda i: (argv, out, lambda _: checks.check_scan_csv(out, tabulated.N_PAIRS, ref))), sizes


WORKLOADS = {"figures": figures, "sweep": sweep, "oracles": oracles, "tabulated": tabulated_scan}


# --------------------------------------------------------------- measurement


def calibrate(samples: list[float], reps: int = 1) -> None:
    """Append the seconds of reps runs of the calibration kernel: a Gaussian
    source block reduced by BLAS, chirped sinc arm samples and a quadrature
    Fourier transform, the three loops that dominate the workloads."""
    import numpy as np

    # row blocks keep every array under 2 MB, smaller than the ones ghostsim
    # frees, so the kernel leaves the allocator's thresholds and the peak
    # resident size as they are
    x = np.linspace(-0.05, 0.05, 32)[:, None]
    xp = np.linspace(-8.0, 8.0, 16385)
    xs = np.linspace(-1.0, 1.0, 301)
    weights = np.full(8, 1e-3 + 0j)
    for _ in range(reps):
        start = time.perf_counter()
        u = np.zeros(xp.size, dtype=complex)
        for rows in np.split(x, 4):
            u += weights @ np.exp(-(rows**2 + xp**2) / 4.0 - (rows - xp) ** 2 / 0.0025).astype(complex)
        for xr in np.linspace(-2.0, 2.0, 16):
            arm = np.sinc(10.0 * (xr + xp) / 0.13).astype(complex)
            u @ (arm * np.exp(1j * np.pi * (xr**2 + xp**2) / 0.13))
        for freqs in np.split(xp[:1600, None] / 0.13, 4):
            np.exp(-2j * np.pi * freqs * xs) @ xs
        samples.append(time.perf_counter() - start)


_IMPORT = "import sys, time; sys.path.insert(0, sys.argv[1]); import ghostsim.cli; print(time.monotonic())"


def measure_setup() -> float:
    """Median over fresh interpreters of wall seconds from process start to
    ghostsim.cli imported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median.

    Runs of fewer than 2 * TAIL_BEYOND + 1 operations have no such
    percentile above the median, so their tail is the median: the maximum of
    a few operations measures the machine's spikes, not the program."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1
    if k < len(s) // 2:
        return statistics.median(s), 50.0, len(s) // 2
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


class Loop:
    """Closed loop of checked operations; records wall and CPU per op and
    the calibration kernel's seconds between ops."""

    def __init__(self, op, calibrated: bool):
        self.op = op
        self.count = 0
        self.failed = 0
        self.calibrated = calibrated
        self.cal: list[float] = []
        if calibrated:
            calibrate([], 2)  # warm-up, not recorded
        self._last = 3 * CAL_REF_S / CAL_SHARE

    def speed(self) -> float:
        """Factor that rescales wall seconds to the reference speed."""
        return CAL_REF_S / statistics.median(self.cal) if self.calibrated else 1.0

    def run_one(self, main) -> tuple[float, float]:
        if self.calibrated:
            calibrate(self.cal, max(1, round(CAL_SHARE * self._last / CAL_REF_S)))
        argv, out, check = self.op(self.count)
        self.count += 1
        if out is not None:
            out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        escaped = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start, cpu = time.perf_counter(), time.process_time()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, escaped = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        self._last = wall
        problems = ["traceback escaped"] if escaped else [f"exit code {code}"] if code != 0 else []
        problems = problems or check(stdout.getvalue())
        if problems:
            self.failed += 1
            print(f"FAILED op {self.count - 1} {argv}: {problems[:3]}", file=sys.stderr)
            print((escaped or stderr.getvalue())[-2000:], file=sys.stderr)
        return wall, cpu

    def phase(self, deadline: float, main):
        """Run operations until the next is expected to end past deadline."""
        walls, cpus = [], []
        while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
            wall, cpu = self.run_one(main)
            walls.append(wall)
            cpus.append(cpu)
        log("op_s " + " ".join(f"{w:.4f}" for w in walls))
        return walls, cpus


def end_to_end(loop: Loop, main, seconds: float) -> dict:
    setup = measure_setup()
    walls, _ = loop.phase(time.perf_counter() + seconds, main)
    value, pct, beyond = tail(walls)
    speed = loop.speed()
    log(f"op_s_tail is p{pct:.1f} of {len(walls)} ops ({beyond} beyond it)")
    log(f"wall seconds: setup {setup:.4f}, op p50 {statistics.median(walls):.4f}, "
        f"op tail {value:.4f}; speed factor {speed:.4f} from {len(loop.cal)} kernel runs")
    return {
        "setup_s": setup,
        "op_s_p50": statistics.median(walls) * speed,
        "op_s_tail": value * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, main, seconds: float) -> dict:
    start = time.perf_counter()
    plain, cpus = loop.phase(start + seconds / 2, main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = loop.phase(start + seconds, lambda argv: tracer.call(spans.ROOT, main, argv))
    finally:
        tracer.uninstall()
    for name in sorted(tracer.absent):
        log(f"absent layer: {name}")
    n = len(traced)
    layers = tracer.layers()
    values = {}
    for layer in {t[0] for t in spans.TARGETS} | {spans.ROOT}:
        agg = layers.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}_s"] = agg["self_s"] / n
        values[f"{layer}_calls"] = agg["calls"] / n
    values["config.calls"] = values["config.load_calls"]
    values["experiments.points"] = tracer.counts["experiments.points"] / n
    values["proc.cpu_util"] = sum(cpus) / sum(plain)
    if not loop.cal:
        calibrate(loop.cal, 5)
    values["machine.cal_s"] = statistics.median(loop.cal)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.failed_calls"] = sum(a["failed"] for a in layers.values()) / n
    log(f"traced {n} ops after {len(plain)} untraced; per_layer values are per traced op")
    return values


# ---------------------------------------------------------------------- main


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            log(f"== {name} trace={trace}")
            child = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ])
            worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghostsim" / "__init__.py").is_file():
        print(f"perfbench: no ghostsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.pop("GHOSTSIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import ghostsim.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ghostsim":
        print(f"perfbench: imported ghostsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        op, sizes = WORKLOADS[args.workload](args.seed, work, cli)
        log("provenance " + json.dumps(provenance(args.seed, args.workload, sizes)))
        loop = Loop(op, args.workload in CALIBRATED)
        measure = per_layer if args.trace else end_to_end
        values = measure(loop, cli.main, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {}
    for m in metrics:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is {value}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"{m['name']} {value:.6g} {m['unit']}")
    log(f"failed_frac {loop.failed / loop.count:.6g} ({loop.failed} of {loop.count} ops)")
    print(json.dumps({
        "correct": loop.failed == 0, "attempted": loop.count, "failed": loop.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
