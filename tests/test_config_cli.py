"""JSON configuration handling and the command-line interface."""

from __future__ import annotations

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghostsim
from ghostsim import ConfigError
from ghostsim.cli import CSV_HEADER, main, preset_path
from ghostsim.config import build_scan_config, load_config, resolve_config
from ghostsim.grid import MAX_NODES
from ghostsim.optics import load_pupil_csv, load_transmission_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"

BASE = {
    "source": {"a_mm": 2.0, "b_mm": 0.05},
    "test_arm": {
        "lambda_nm": 650.0,
        "f_mm": 100.0,
        "object": {"double_slit": {"w_mm": 0.05, "d_mm": 1.0}},
    },
    "reference_arm": {
        "lambda_nm": 650.0,
        "f_mm": 100.0,
        "pupil": {"rect": {"D_mm": 10.0}},
    },
}


def small_config(tmp_path, **overrides):
    data = json.loads(json.dumps(BASE))
    data["scan"] = {"xr_min_mm": -1.0, "xr_max_mm": 1.0, "n_points": 21}
    data["numerics"] = {"n_x": 8193, "n_xp": 2049, "window_mm": 8.0}
    data.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_fig2_preset_resolves():
    cfg = load_config(preset_path("fig2"))
    assert cfg["source"] == {"a_mm": 2.0, "b_mm": 0.05}
    assert cfg["test_arm"]["object"] == {"double_slit": {"w_mm": 0.05, "d_mm": 1.0}}
    assert cfg["reference_arm"]["pupil"] == {"rect": {"D_mm": 10.0}}
    assert cfg["scan"]["n_points"] == 201
    assert cfg["pairs"]["N"] == 10000


def test_fig3_preset_differs_only_in_aperture():
    fig2 = load_config(preset_path("fig2"))
    fig3 = load_config(preset_path("fig3"))
    assert fig3["reference_arm"]["pupil"]["rect"]["D_mm"] == 2.0
    fig3["reference_arm"]["pupil"]["rect"]["D_mm"] = 10.0
    fig3["output"] = fig2["output"]
    assert fig2 == fig3


def test_resolved_config_round_trips():
    cfg = resolve_config(BASE)
    again = resolve_config(cfg)
    assert again == cfg


def test_missing_field_is_named():
    broken = json.loads(json.dumps(BASE))
    del broken["source"]["a_mm"]
    with pytest.raises(ConfigError, match=r"source\.a_mm"):
        resolve_config(broken)


def test_negative_aperture_rejected():
    broken = json.loads(json.dumps(BASE))
    broken["reference_arm"]["pupil"]["rect"]["D_mm"] = -1.0
    with pytest.raises(ConfigError, match=r"D_mm"):
        resolve_config(broken)


def test_unknown_keys_rejected():
    broken = json.loads(json.dumps(BASE))
    broken["detector"] = {}
    with pytest.raises(ConfigError, match="unknown field"):
        resolve_config(broken)
    broken = json.loads(json.dumps(BASE))
    broken["source"]["c_mm"] = 1.0
    with pytest.raises(ConfigError, match=r"source\.c_mm"):
        resolve_config(broken)


def test_object_variant_must_be_single():
    broken = json.loads(json.dumps(BASE))
    broken["test_arm"]["object"]["gaussian"] = {"w_mm": 0.5}
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(broken)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"source": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_build_scan_config_carries_parameters(tmp_path):
    cfg = load_config(small_config(tmp_path))
    config = build_scan_config(cfg)
    assert config.n_xr == 21
    assert config.n_pairs == 10000
    assert config.setup.gx.n_points == 8193


def test_cli_scan_writes_contract_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--config", small_config(tmp_path), "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22
    rows = [line.split(",") for line in lines[1:]]
    g2_norm = np.array([float(r[2]) for r in rows])
    assert g2_norm.max() == 1.0
    # 17 significant digits round-trip the doubles exactly
    g2 = np.array([float(r[1]) for r in rows])
    dg2 = np.array([float(r[3]) for r in rows])
    np.testing.assert_array_equal(g2_norm, g2 / g2.max())
    snr_avg = np.array([float(r[7]) for r in rows])
    snr = np.array([float(r[6]) for r in rows])
    np.testing.assert_allclose(snr_avg, snr * 100.0, rtol=1e-15)
    assert dg2.min() >= 0.0


def test_cli_scan_json_output(tmp_path):
    out = tmp_path / "scan.json"
    cfg_path = small_config(tmp_path, output={"path": str(out), "format": "json"})
    assert main(["scan", "--config", cfg_path]) == 0
    data = json.loads(out.read_text())
    assert list(data) == CSV_HEADER.split(",")
    assert len(data["g2"]) == 21


def test_cli_scan_output_flag_keeps_the_json_format(tmp_path):
    # --output replaces output.path only; output.format still picks JSON
    cfg_path = small_config(tmp_path, output={"path": str(tmp_path / "unused.csv"), "format": "json"})
    out = tmp_path / "flag.json"
    assert main(["scan", "--config", cfg_path, "--output", str(out)]) == 0
    assert list(json.loads(out.read_text())) == CSV_HEADER.split(",")
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize(
    "content",
    [None, b'{"source": "\xff"}', b"[" * 100000],
    ids=["missing", "not_utf8", "nested"],
)
def test_cli_scan_missing_config_exits_2(tmp_path, capsys, content):
    # a missing file, one that is not UTF-8 and one nested past the parser's
    # recursion limit are config errors in one line, not tracebacks
    path = tmp_path / "run.json"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "never.csv"
    code = main(["scan", "--config", str(path), "--output", str(out)])
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "value", [True, None, ["a"], "", 1], ids=["true", "null", "list", "empty", "int"]
)
def test_output_path_must_be_a_non_empty_string(tmp_path, value):
    # output.path: true used to write the CSV to stdout (file descriptor 1);
    # the scan runs in tmp_path, where any file it wrote would show
    cfg = small_config(tmp_path, output={"path": value})
    package_root = str(Path(ghostsim.__file__).resolve().parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "scan", "--config", cfg],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "output.path must be a non-empty string" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


_RESOLVED_AND_MISSING = """
import json
from ghostsim.cli import preset_path
from ghostsim.config import load_config, resolve_config
data = load_config(preset_path("fig2"))
print(json.dumps(data))
data["test_arm"]["object"] = {"double_slit": {}}
try:
    resolve_config(data)
except Exception as exc:
    print(exc)
"""


def test_resolution_does_not_depend_on_the_hash_seed():
    # the resolved key order and the first missing field named follow the
    # schema's order, not the order of a set
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", _RESOLVED_AND_MISSING],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    resolved, missing = outputs.pop().splitlines()
    assert '"double_slit": {"w_mm": 0.05, "d_mm": 1.0}' in resolved
    assert missing == "missing required field test_arm.object.double_slit.w_mm"


def test_cli_scan_invalid_parameter_exits_2(tmp_path):
    broken = json.loads(json.dumps(BASE))
    broken["source"]["b_mm"] = -0.05
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken))
    assert main(["scan", "--config", str(path)]) == 2


def test_cli_scan_nan_test_position_exits_2(tmp_path):
    # a NaN x_t must end in exit 2, not an all-NaN CSV
    data = json.loads(json.dumps(BASE))
    data["scan"] = {"xt_mm": float("nan")}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    out = tmp_path / "never.csv"
    assert main(["scan", "--config", str(path), "--output", str(out)]) == 2
    assert not out.exists()


def test_cli_sweep_singleton(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--config",
            small_config(tmp_path),
            "--param",
            "reference_arm.pupil.rect.D_mm",
            "--values",
            "10.0",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 1
    assert data[0]["aperture_mm"] == 10.0
    assert data[0]["peak_snr"] > 0.0


def test_cli_sweep_rejects_bad_inputs(tmp_path):
    cfg = small_config(tmp_path)
    out = str(tmp_path / "sweep.json")
    base = ["sweep", "--config", cfg, "--output", out]
    assert main(base + ["--param", "source.a_mm", "--values", "1.0"]) == 2
    assert main(base + ["--param", "reference_arm.pupil.rect.D_mm", "--values", "10,-1"]) == 2
    assert main(base + ["--param", "reference_arm.pupil.rect.D_mm", "--values", "ten"]) == 2


def test_console_entry_point_smoke(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "scan", "--config", cfg, "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(CSV_HEADER)


_FFT_MODULES = "sorted(m for m in sys.modules if m == 'numpy.fft' or m.startswith('numpy.fft.'))"


def test_cli_import_loads_no_numpy_fft_beyond_numpy():
    # the ridge correlation reaches np.fft at call time: importing it with
    # the package would add its import time to every start-up
    code = (
        f"import sys, numpy; before = {_FFT_MODULES}; import ghostsim.cli; "
        f"print(sorted(set({_FFT_MODULES}) - set(before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_name_in_all_resolves():
    # a deleted function must not stay listed in its module's __all__
    names = [m.name for m in pkgutil.iter_modules(ghostsim.__path__)]
    modules = [importlib.import_module(f"ghostsim.{name}") for name in names]
    listing = [m for m in modules if hasattr(m, "__all__")]
    assert len(listing) >= 7
    for module in listing:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__


@pytest.mark.parametrize("table", ["soft_x1e160", "constant_1e308"])
def test_cli_overflow_reports_one_stderr_line(tmp_path, table):
    # numpy's overflow warnings reach stderr only in a fresh process; the
    # in-process tests cannot see them
    x = np.linspace(-1.0, 1.0, 201)
    values = 1e160 * np.exp(-(x**2) / 0.1) if table == "soft_x1e160" else np.full(x.size, 1e308)
    pupil = tmp_path / "pupil.csv"
    table = np.column_stack([x, values])
    np.savetxt(pupil, table, fmt="%.17g", delimiter=",", header="x_mm,value", comments="")
    arm = {"lambda_nm": 650.0, "f_mm": 100.0, "pupil": {"tabulated": {"path": str(pupil)}}}
    cfg = small_config(tmp_path, reference_arm=arm)
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "scan", "--config", cfg, "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("ghostsim: numeric error: ")
    assert not out.exists()


# a scan in a fresh process under a 1 GiB address-space limit: a grid that
# slips past the node budget fails the test with a MemoryError instead of
# exhausting the machine's memory
_LIMITED_SCAN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from ghostsim.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("source", "a_mm", 1e6),
        ("source", "a_mm", 1e300),
        ("source", "b_mm", 1e-9),
        ("source", "b_mm", 1e-300),
        ("numerics", "n_x", 1e300),
        ("numerics", "n_xp", MAX_NODES + 1),
        ("scan", "n_points", 1e300),
    ],
)
def test_node_budget_names_the_config_key(tmp_path, section, key, value):
    data = {
        "source": {"a_mm": 2.0, "b_mm": 0.05},
        "numerics": {"n_x": 8193, "n_xp": 2049, "window_mm": 8.0},
        "scan": {"xr_min_mm": -1.0, "xr_max_mm": 1.0, "n_points": 21},
    }
    data[section][key] = value
    cfg = small_config(tmp_path, **data)
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_SCAN, "scan", "--config", cfg, "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.count(f"{section}.{key}") == 1, proc.stderr
    assert "budget" in proc.stderr
    assert not out.exists()


# scans of the configs named on stdin, each in this one process under the
# 1 GiB limit, with the warning filters of a fresh run; one JSON line each
# of [exit code, stderr]
_CONTRACT_SCANS = """
import contextlib, io, json, resource, sys, traceback, warnings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ghostsim.cli import main
for cfg, out in json.load(sys.stdin):
    err = io.StringIO()
    # entering catch_warnings also clears the once-per-location registry
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        try:
            code = main(["scan", "--config", cfg, "--output", out])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, err.getvalue()]))
"""


def _run_scans(jobs) -> list:
    """[exit code, stderr] of each [config, output] scan, in one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT_SCANS],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(jobs)
    return results


def test_csv_table_without_data_rows_exits_2(tmp_path):
    # np.loadtxt warns on a table with no data rows: the warning must not
    # reach stderr ahead of the one-line message
    jobs = []
    for kind in ("object", "pupil"):
        for name, body in (("header_only", "x_mm,value\n"), ("blank_row", "x_mm,value\n\n")):
            table = tmp_path / f"{kind}_{name}.csv"
            table.write_text(body)
            data = json.loads(json.dumps(BASE))
            arm = data["test_arm"] if kind == "object" else data["reference_arm"]
            arm[kind] = {"tabulated": {"path": str(table)}}
            cfg = tmp_path / f"{kind}_{name}.json"
            cfg.write_text(json.dumps(data))
            jobs.append([str(cfg), str(tmp_path / f"{kind}_{name}_scan.csv")])
    for (cfg, out), (code, err) in zip(jobs, _run_scans(jobs)):
        assert code == 2, (cfg, err)
        assert len(err.splitlines()) == 1, (cfg, err)
        assert "x_mm must increase strictly over at least two rows" in err, (cfg, err)
        assert not Path(out).exists()


def test_csv_table_with_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts a table with a byte-order mark; it
    # must not let a headerless table's first data row pass as its header
    rows = "0,1\n1,0.5\n2,0.25\n"
    jobs = []
    for kind, load in (("object", load_transmission_csv), ("pupil", load_pupil_csv)):
        headed, plain = tmp_path / f"{kind}_headed.csv", tmp_path / f"{kind}_plain.csv"
        headed.write_text("x_mm,value\n" + rows, encoding="utf-8-sig")
        plain.write_text("x_mm,value\n" + rows, encoding="utf-8")
        if kind == "object":
            np.testing.assert_array_equal(load(headed).evaluate(np.arange(3.0)), [1.0, 0.5, 0.25])
        assert load(headed).energy == load(plain).energy
        headerless = tmp_path / f"{kind}_headerless.csv"
        headerless.write_text(rows, encoding="utf-8-sig")
        data = json.loads(json.dumps(BASE))
        arm = data["test_arm"] if kind == "object" else data["reference_arm"]
        arm[kind] = {"tabulated": {"path": str(headerless)}}
        cfg = tmp_path / f"{kind}_headerless.json"
        cfg.write_text(json.dumps(data))
        jobs.append([str(cfg), str(tmp_path / f"{kind}_scan.csv")])
    for (cfg, out), (code, err) in zip(jobs, _run_scans(jobs)):
        assert code == 2, (cfg, err)
        assert len(err.splitlines()) == 1, (cfg, err)
        assert "missing header row" in err, (cfg, err)
        assert not Path(out).exists()


_MUTANTS = (1e-300, 1e300, "abc", None, True)


def _nodes(data: dict, path=()):
    """Path of every value under data: numbers, strings and objects alike."""
    for key, value in data.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _nodes(value, path + (key,))


def _at(data: dict, path):
    for key in path:
        data = data[key]
    return data


def test_scan_exit_code_contract_under_single_field_mutations(tmp_path):
    # every node of the resolved small_config (number, string or object),
    # set in turn to each of _MUTANTS: exit 0 with finite columns, or exit 2
    # or 3 with one line
    resolved = load_config(small_config(tmp_path))
    fields = list(_nodes(resolved))
    kinds = [type(_at(resolved, field)).__name__ for field in fields]
    numbers = kinds.count("float") + kinds.count("int")
    assert (numbers, kinds.count("dict"), kinds.count("str")) == (17, 11, 2)
    cases, jobs = [], []
    for field in fields:
        for value in _MUTANTS:
            data = json.loads(json.dumps(resolved))
            *parents, key = field
            _at(data, parents)[key] = value
            k = len(cases)
            cfg, out = tmp_path / f"case{k}.json", tmp_path / f"case{k}.csv"
            cfg.write_text(json.dumps(data))
            cases.append((".".join(field), value, out))
            jobs.append([str(cfg), str(out)])
    assert len(cases) == 150
    broken = []
    for (name, value, out), (code, err) in zip(cases, _run_scans(jobs)):
        if code not in (0, 2, 3) or "Traceback" in err:
            ok = False
        elif code == 0:
            data = np.genfromtxt(out, delimiter=",", names=True, dtype=None, encoding="utf-8")
            ok = err == "" and all(np.isfinite(data[c]).all() for c in CSV_HEADER.split(",")[:-1])
        else:
            ok = len(err.splitlines()) == 1 and not out.exists()
        if not ok:
            broken.append(f"{name} = {value!r}: exit {code}, stderr {err!r}")
    assert not broken, "\n".join(broken)


def _mutated_scans(tmp_path, mutations) -> list:
    """(output path, [exit code, stderr]) of a scan of small_config with
    each (dotted path, value) mutation, all in one fresh process."""
    resolved = load_config(small_config(tmp_path))
    jobs = []
    for k, (name, value) in enumerate(mutations):
        data = json.loads(json.dumps(resolved))
        *parents, key = name.split(".")
        _at(data, parents)[key] = value
        cfg, out = tmp_path / f"mutant{k}.json", tmp_path / f"mutant{k}.csv"
        cfg.write_text(json.dumps(data))
        jobs.append([str(cfg), str(out)])
    return [(Path(out), result) for (_, out), result in zip(jobs, _run_scans(jobs))]


@pytest.mark.parametrize(
    "name, value, arm",
    [
        # I_r 88% low: the arm is wider than the +/-8 mm x' window
        ("reference_arm.f_mm", 1e6, "reference-arm"),
        # I_r 99.99% low: the pupil transform is wider than the window
        ("reference_arm.pupil.rect.D_mm", 1e-6, "reference-arm"),
        # slits outside the x window, and far below its step
        ("test_arm.object.double_slit.d_mm", 1e300, "test-arm"),
        ("test_arm.object.double_slit.w_mm", 1e-300, "test-arm"),
        # an end of the scan range 0.01 mm inside the x' window: the end
        # probe captures 0.92 of I_r, the middle x_r all of it
        ("scan.xr_max_mm", 7.99, "reference-arm"),
        ("scan.xr_min_mm", -7.99, "reference-arm"),
    ],
)
def test_arm_energy_gate_refuses_an_arm_the_grid_does_not_capture(tmp_path, name, value, arm):
    # each of these exited 0 with biased or all-zero columns before the
    # quadratures were checked against the exact arm energies
    [(out, (code, err))] = _mutated_scans(tmp_path, [(name, value)])
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"ghostsim: config error: {arm} energy at ")
    if name.startswith("scan."):
        assert err.startswith(f"ghostsim: config error: {arm} energy at {value:g} mm: ")
    assert "of the exact energy" in err
    key = "numerics.n_xp" if arm == "reference-arm" else "numerics.n_x"
    assert f"raise {key} or adjust numerics.window_mm" in err
    # the arm's whole grid, not the run of nodes that the test arm samples
    step = "0.007812" if arm == "reference-arm" else "0.001953"
    assert f"the grid (step {step} mm, window +/-8 mm)" in err
    assert not out.exists()


def test_test_detector_beyond_the_nyquist_limit_of_the_x_grid_exits_2(tmp_path):
    # small_config's x step is 16/8192 mm, so the test-arm phase
    # exp(-2 pi i x_t x / (lam f)) is resolved for |x_t| <= 16.64 mm
    results = _mutated_scans(tmp_path, [("scan.xt_mm", v) for v in (16.0, 17.0, -1e300, 1e300)])
    (out, (code, err)), *refused = results
    assert (code, err) == (0, "")
    assert out.exists()
    for out, (code, err) in refused:
        assert code == 2, err
        assert len(err.splitlines()) == 1, err
        assert "step 0.001953 mm" in err and "|x_t| <= 16.64 mm" in err
        assert not out.exists()


def test_exit_0_runs_write_nothing_to_stderr(tmp_path):
    runs = [
        ["validate"],
        ["scan", "--preset", "fig2", "--output", str(tmp_path / "fig2.csv")],
        [
            "sweep", "--preset", "fig2", "--param", "reference_arm.pupil.rect.D_mm",
            "--values", "2,4,6,8,10", "--output", str(tmp_path / "sweep.json"),
        ],
    ]
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "ghostsim.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv


@pytest.mark.parametrize(
    "path, value",
    [
        ("source.a_mm", 1e-300),
        ("test_arm.object.gaussian.w_mm", 1e-300),
        ("test_arm.object.gaussian.w_mm", 1e300),
        ("reference_arm.pupil.rect.D_mm", 1e300),
        ("reference_arm.pupil.gaussian.sigma_mm", 1e300),
    ],
)
def test_width_whose_square_leaves_the_float_range_exits_2(tmp_path, path, value):
    # a width whose square is 0 or inf is refused by its constructor, and the
    # config path names the key (was exit 3 naming no key)
    data = json.loads(json.dumps(BASE))
    *parents, key = path.split(".")
    if len(parents) == 3:  # an object or pupil kind in place of BASE's
        _at(data, parents[:2]).clear()
        _at(data, parents[:2])[parents[2]] = {}
    _at(data, parents)[key] = value
    cfg = small_config(tmp_path, **data)
    out = tmp_path / "scan.csv"
    ((code, err),) = _run_scans([[cfg, str(out)]])
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("ghostsim: config error: ")
    assert f"{path} = {value!r}" in err
    assert "floating-point range" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("test_arm", "lambda_nm", 1e300),
        ("test_arm", "f_mm", 1e300),
        ("reference_arm", "f_mm", 1e300),
        ("reference_arm", "f_mm", 1e-300),
    ],
)
def test_arm_scalars_out_of_range_exit_2(tmp_path, section, key, value):
    # lambda f, 1 / (4 lambda^2 f^2) or pi / (2 lambda f) leaves the float
    # range: a config error, not an OverflowError or ZeroDivisionError
    arm = json.loads(json.dumps(BASE[section]))
    arm[key] = value
    cfg = small_config(tmp_path, **{section: arm})
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_SCAN, "scan", "--config", cfg, "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("ghostsim: config error: ")
    assert "floating-point range" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"), MemoryError()])
def test_unguarded_arithmetic_and_memory_errors_exit_3(tmp_path, monkeypatch, capsys, error):
    def fail(config):
        raise error

    monkeypatch.setattr("ghostsim.cli.scan_reference", fail)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", small_config(tmp_path), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ghostsim: numeric error: {type(error).__name__}")


def _assert_matches_reference(out: Path, reference: Path) -> None:
    """Every column within 1e-12 of its maximum in the reference CSV."""
    lines = out.read_text().strip().splitlines()
    ref_lines = reference.read_text().strip().splitlines()
    assert lines[0] == ref_lines[0] == CSV_HEADER
    assert len(lines) == len(ref_lines)
    names = CSV_HEADER.split(",")
    got = [line.split(",") for line in lines[1:]]
    ref = [line.split(",") for line in ref_lines[1:]]
    for k, name in enumerate(names):
        if name == "flags":
            assert [r[k] for r in got] == [r[k] for r in ref]
            continue
        g = np.array([float(r[k]) for r in got])
        r = np.array([float(r[k]) for r in ref])
        assert np.all(np.isfinite(g)), name
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max(), name


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_scan_matches_reference_figure(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["scan", "--preset", preset, "--output", str(out)]) == 0
    _assert_matches_reference(out, REFERENCE / f"{preset}.csv")


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tabulated_scan_matches_reference(tmp_path):
    # seeded object and chirped pupil tables, as the benchmark generates them
    config = _perfbench_module("tabulated").generate(0, tmp_path)
    out = tmp_path / "tabulated.csv"
    assert main(["scan", "--config", str(config), "--output", str(out)]) == 0
    _assert_matches_reference(out, REFERENCE / "tabulated_seed0.csv")


def test_sweep_matches_reference(tmp_path):
    # the benchmark's sweep and its output check
    checks = _perfbench_module("checks")
    out = tmp_path / "sweep.json"
    param = "reference_arm.pupil.rect.D_mm"
    argv = ["sweep", "--preset", "fig2", "--param", param, "--values", "2,4,6,8,10"]
    assert main(argv + ["--output", str(out)]) == 0
    assert checks.check_sweep_json(out, checks.read_sweep_json(REFERENCE / "sweep.json")) == []
