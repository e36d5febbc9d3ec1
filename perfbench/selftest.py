"""Self-tests of the benchmark's own checks, loop accounting and input guard.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import tabulated

sys.path.insert(0, str(run.SRC))
import ghostsim.cli as cli  # noqa: E402


def write_csv(cols: dict, path: Path) -> None:
    names = checks.CSV_HEADER.split(",")
    rows = [
        ",".join(cols[n][i] if n == "flags" else f"{cols[n][i]:.17g}" for n in names)
        for i in range(len(cols["flags"]))
    ]
    path.write_text("\n".join([checks.CSV_HEADER, *rows]) + "\n", encoding="utf-8")


class Checks(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        self.ref = checks.read_scan_csv(run.REFERENCE / "fig2.csv")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, cols, reference=None):
        path = self.work / "out.csv"
        write_csv(cols, path)
        return checks.check_scan_csv(path, run.N_PAIRS, reference)

    def perturbed(self, name: str, rel: float) -> dict:
        cols = {k: np.copy(v) if k != "flags" else list(v) for k, v in self.ref.items()}
        cols[name][len(cols[name]) // 3] += rel * np.abs(cols[name]).max()
        return cols

    def test_reference_passes(self):
        self.assertEqual(self.check(self.ref, self.ref), [])

    def test_flags_1e_11_relative_perturbation(self):
        self.assertEqual(self.check(self.perturbed("x_r_mm", 1e-13), self.ref), [])
        problems = self.check(self.perturbed("x_r_mm", 1e-11), self.ref)
        self.assertTrue(any(p.startswith("x_r_mm") for p in problems), problems)

    def test_flags_broken_normalization_law(self):
        problems = self.check(self.perturbed("snr_avg", 1e-11))
        self.assertTrue(any("snr_avg law" in p for p in problems), problems)

    def test_flags_nan_column(self):
        cols = dict(self.ref, snr=np.full_like(self.ref["snr"], np.nan))
        self.assertIn("snr: non-finite value", self.check(cols))

    def test_sweep_peak_positions_exact(self):
        ref = checks.read_sweep_json(run.REFERENCE / "sweep.json")
        path = self.work / "sweep.json"
        path.write_text(json.dumps(ref))
        self.assertEqual(checks.check_sweep_json(path, ref), [])
        moved = json.loads(json.dumps(ref))
        moved[0]["peak_positions_mm"][0] += 0.02
        path.write_text(json.dumps(moved))
        self.assertTrue(checks.check_sweep_json(path, ref))

    def test_validate_needs_every_check_passing(self):
        self.assertEqual(checks.check_validate("[PASS] a: ok\n[PASS] b: ok\n"), [])
        self.assertTrue(checks.check_validate("[PASS] a: ok\n[FAIL] b: off\n"))
        self.assertTrue(checks.check_validate(""))


class LoopAccounting(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_failed_ops_are_counted(self):
        def main(argv):
            if argv == ["raise"]:
                raise RuntimeError("escaped")
            if argv == ["usage"]:
                raise SystemExit(2)
            return int(argv[0])

        plans = [["0"], ["3"], ["raise"], ["usage"], ["0"]]
        loop = run.Loop(lambda i: (plans[i], None, lambda _: []), calibrated=False)
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in plans:
                loop.run_one(main)
        self.assertEqual((loop.count, loop.failed), (5, 3))

    def test_nan_output_with_exit_0_is_a_failure(self):
        # a non-finite detector position gives an all-NaN scan with exit 0 at
        # the seed commit; a numeric-error exit would count as failed too
        config = json.loads(Path(cli.preset_path("fig2")).read_text())
        config["scan"].update(xt_mm=float("nan"), n_points=5)
        config["numerics"] = {"n_x": 4097, "n_xp": 1025}
        path = self.work / "nan.json"
        path.write_text(json.dumps(config))
        out = self.work / "nan.csv"
        argv = ["scan", "--config", str(path), "--output", str(out)]
        loop = run.Loop(
            lambda i: (argv, out, lambda _: checks.check_scan_csv(out, run.N_PAIRS)), calibrated=True
        )
        with contextlib.redirect_stderr(io.StringIO()):
            loop.run_one(cli.main)
        self.assertEqual((loop.count, loop.failed), (1, 1))


class Tail(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        times = [float(i) for i in range(40)]
        self.assertEqual(run.tail(times), (29.0, 75.0, 10))

    def test_short_runs_report_the_median(self):
        self.assertEqual(run.tail([5.0, 1.0, 3.0, 9.0, 2.0])[0], 3.0)
        self.assertEqual(run.tail([float(i) for i in range(20)])[0], 9.5)


class TabulatedGuard(unittest.TestCase):
    def test_generated_tables_resolve_the_pupil_transform(self):
        for seed in range(3):
            rng = np.random.default_rng([seed, 0x7AB])
            tabulated.check_resolved(tabulated.slit_centers(rng), tabulated.CHIRP_MAX)

    def test_coarse_pupil_table_is_rejected(self):
        with self.assertRaises(tabulated.UnresolvedInput):
            tabulated.check_resolved([-0.5, 0.0, 0.5], 0.0, n_pupil=201, half_pupil=5.0)

    def test_overlapping_slits_are_rejected(self):
        with self.assertRaises(tabulated.UnresolvedInput):
            tabulated.check_resolved([-0.5, -0.47, 0.5], 0.0)


if __name__ == "__main__":
    unittest.main()
