"""Reference scans, peak metrics and the aperture sweep driver."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from ghostsim import (
    ConfigError,
    CorrelationResult,
    InvalidArgumentError,
    ScanConfig,
    aperture_sweep,
    build_setup,
    contrast_metric,
    double_slit,
    fourier_arm,
    gaussian_pupil,
    gaussian_transmission,
    gaussian_wavefunction,
    rect_pupil,
    scan_reference,
    two_f_arm,
)
from ghostsim import analytic
from ghostsim.cli import main, preset_path
from ghostsim.config import build_scan_config, load_config, resolve_config
from ghostsim.experiments import _PEAK_FLOOR, _PEAK_SEPARATION, find_peaks, summarize
from ghostsim.grid import MAX_NODES, make_grid
from ghostsim.optics import load_transmission_csv
from ghostsim.source import TwoPhotonState, normalize

LAM = 650e-6
F = 100.0


def slit_scan_config(D=10.0, n_x=16385, n_xp=4097, n_xr=81, n_pairs=10000):
    state = gaussian_wavefunction(2.0, 0.05)
    h_t = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    setup = build_setup(state, h_t, n_x=n_x, n_xp=n_xp)
    return ScanConfig(setup=setup, h_r=two_f_arm(LAM, F, rect_pupil(D)), n_xr=n_xr, n_pairs=n_pairs)


def fake_result(x, g2, n_pairs=100):
    x = np.asarray(x, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    return CorrelationResult(
        x_r=x,
        g2=g2,
        noise=np.zeros_like(g2),
        snr=np.zeros_like(g2),
        n_pairs=n_pairs,
    )


def test_build_setup_normalizes_gaussian_state():
    config = slit_scan_config(n_x=4097, n_xp=2049)
    assert config.setup.state.extent == ((-8.0, 8.0), (-8.0, 8.0))
    # default 8 mm window already covers the 4a = 8 mm extent
    assert config.setup.gx.half_width == 8.0
    # a wider extent widens the window, in x and x'
    state = gaussian_wavefunction(2.5, 0.05)
    setup = build_setup(state, config.setup.h_t, n_x=8193, n_xp=4097)
    assert setup.gx.half_width == setup.gxp.half_width == 10.0


def test_build_setup_widens_the_window_to_an_off_center_extent():
    # a state normalized on [-2, 4]: a window of 2 mm about 0 widens to 4,
    # not to the normalization grid's half-width 3, which leaves 3 < x <= 4 out
    g = make_grid(1.0, 3.0, 4097)
    state = normalize(gaussian_wavefunction(0.5, 0.2), g, g)
    assert state.extent == ((-2.0, 4.0), (-2.0, 4.0))
    h_t = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    setup = build_setup(state, h_t, n_x=4097, n_xp=2049, window_mm=2.0)
    assert setup.gx.half_width == setup.gxp.half_width == 4.0
    assert setup.gx.center == setup.gxp.center == 0.0


def test_preset_scan_runs_no_norm_quadrature(monkeypatch):
    # the Gaussian source's c_norm is closed-form: building and scanning
    # fig2 must not reach the norm quadrature
    def refuse(*args):
        raise AssertionError("normalize called on the scan path")

    monkeypatch.setattr("ghostsim.source.normalize", refuse)
    config = build_scan_config(load_config(preset_path("fig2")))
    c_ref = analytic.gaussian_norm_constant(2.0, 0.05)
    assert config.setup.state.c_norm == pytest.approx(c_ref, rel=1e-15)
    result = scan_reference(config)
    assert np.all(np.isfinite(result.g2)) and result.g2.max() > 0.0


def test_build_setup_rejects_uncertified_table():
    g = make_grid(0.0, 1.0, 33)

    def box(s):
        return np.interp(s, g.samples(), np.ones(33), left=0.0, right=0.0)

    tab = TwoPhotonState(f=box, g=box)
    h_t = fourier_arm(LAM, F, double_slit(0.05, 1.0))
    # only the Gaussian source is certified unit-norm, over its extent, by
    # its constructor
    for state in (tab, replace(tab, ridge_width=1.0)):
        with pytest.raises(InvalidArgumentError, match="norm-certified"):
            build_setup(state, h_t, n_x=257, n_xp=257)


RUN = {
    "source": {"a_mm": 2.0, "b_mm": 0.05},
    "test_arm": {
        "lambda_nm": 650.0,
        "f_mm": 100.0,
        "object": {"double_slit": {"w_mm": 0.05, "d_mm": 1.0}},
    },
    "reference_arm": {"lambda_nm": 650.0, "f_mm": 100.0, "pupil": {"rect": {"D_mm": 10.0}}},
    "scan": {"xr_min_mm": -1.0, "xr_max_mm": 1.0, "n_points": 5},
    # n_xp = 2049 resolves the 10 mm aperture's 0.013 mm transform lobes; at 1025
    # nodes I_r is 34% off and depends on where x_r falls on the grid
    "numerics": {"n_x": 4097, "n_xp": 2049},
}


def _run_scan(tmp_path, capsys, data) -> int:
    """Exit code of a CLI scan of data; asserts that a failing scan writes
    no CSV and reports one line."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "scan.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["scan", "--config", str(path), "--output", str(out)])
    if code != 0:
        assert not out.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    return code


def _pupil_table(tmp_path, x, values) -> dict:
    path = tmp_path / "pupil.csv"
    table = np.column_stack([x, values])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="x_mm,value", comments="")
    data = json.loads(json.dumps(RUN))
    data["reference_arm"]["pupil"] = {"tabulated": {"path": str(path)}}
    return data


def test_scan_config_validation(tmp_path, capsys):
    config = slit_scan_config(n_x=4097, n_xp=2049)
    with pytest.raises(InvalidArgumentError):
        replace(config, xr_min=1.0, xr_max=1.0)
    # n_xr as strictly as the config's scan.n_points: an integer within the
    # node budget
    for bad in (1, 2.5, np.nan, np.inf, MAX_NODES + 1, 10**8):
        with pytest.raises(InvalidArgumentError, match="n_xr must be an integer"):
            replace(config, n_xr=bad)
    assert scan_reference(replace(config, n_xr=3.0)).x_r.size == 3
    for bad in (0, 1.5, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="n_pairs must be an integer"):
            replace(config, n_pairs=bad)
    for bad in (np.nan, np.inf, -np.inf):
        for field in ("xr_min", "xr_max"):
            with pytest.raises(InvalidArgumentError):
                replace(config, **{field: bad})
        # x_t is the setup's: its test arm refuses it when the setup is built
        with pytest.raises(InvalidArgumentError, match="test detector x_t"):
            replace(config.setup, x_t=bad)

    # integer fields: non-numbers and fractions are config errors (exit 2),
    # never truncated; integral floats are accepted
    assert _run_scan(tmp_path, capsys, RUN) == 0
    integer_fields = (("scan", "n_points"), ("pairs", "N"), ("numerics", "n_x"), ("numerics", "n_xp"))
    for section, key in integer_fields:
        for bad in ("abc", 1.7, True, None, [3]):
            data = json.loads(json.dumps(RUN))
            data.setdefault(section, {})[key] = bad
            with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
                resolve_config(data)
            assert _run_scan(tmp_path, capsys, data) == 2
        data = json.loads(json.dumps(RUN))
        data.setdefault(section, {})[key] = 4097.0
        assert resolve_config(data)[section][key] == 4097

    # tabulated inputs: a NaN entry or a non-uniform x exits 2 without a CSV
    x = np.linspace(-1.0, 1.0, 201)
    soft = np.exp(-(x**2) / 0.1)
    assert _run_scan(tmp_path, capsys, _pupil_table(tmp_path, x, soft)) == 0
    nan = soft.copy()
    nan[50] = np.nan
    assert _run_scan(tmp_path, capsys, _pupil_table(tmp_path, x, nan)) == 2
    quadratic = np.sign(x) * x**2
    assert _run_scan(tmp_path, capsys, _pupil_table(tmp_path, quadratic, soft)) == 2
    # a finite table whose transform overflows fails the per-point
    # amplitude guard: exit 3, not a NaN CSV
    huge = _pupil_table(tmp_path, x, np.full(x.size, 1e308))
    assert _run_scan(tmp_path, capsys, huge) == 3
    # finite amplitudes whose G2, I_r or <S^2> overflow are numeric errors
    # too: at 1e150 <S^2> is inf (was NaN columns with exit 0), at 1e160 G2
    # overflows (was a traceback)
    for scale in (1e150, 1e160):
        assert _run_scan(tmp_path, capsys, _pupil_table(tmp_path, x, scale * soft)) == 3

    # an x' grid too coarse for the reference arm (a 2 mm Gaussian pupil's
    # transform is ~0.02 mm wide; the 257-node step is 0.0625 mm) makes I_r
    # vary with x_r: a config error that names the step
    data = json.loads(json.dumps(RUN))
    data["reference_arm"]["pupil"] = {"gaussian": {"sigma_mm": 2.0}}
    data["numerics"]["n_xp"] = 257
    data["scan"]["n_points"] = 11  # x_r off the grid's nodes, where I_r differs
    with pytest.raises(InvalidArgumentError, match=r"step 0\.0625 mm.*numerics\.n_xp"):
        scan_reference(build_scan_config(resolve_config(data)))
    assert _run_scan(tmp_path, capsys, data) == 2
    # with 5 points every x_r lies on the grid's nodes, where I_r is 2.4
    # times the closed form; the probe half a step off the middle catches it
    data["scan"]["n_points"] = 5
    with pytest.raises(InvalidArgumentError, match=r"step 0\.0625 mm.*numerics\.n_xp"):
        scan_reference(build_scan_config(resolve_config(data)))
    assert _run_scan(tmp_path, capsys, data) == 2

    # a table without a header row would lose its first data row
    headerless = tmp_path / "transmission.csv"
    headerless.write_text("0,1\n1,0.5\n2,0.25\n")
    with pytest.raises(InvalidArgumentError, match="missing header row"):
        load_transmission_csv(headerless)
    data = json.loads(json.dumps(RUN))
    data["test_arm"]["object"] = {"tabulated": {"path": str(headerless)}}
    assert _run_scan(tmp_path, capsys, data) == 2
    headerless.write_text("x_mm,value\n0,1\n1,0.5\n2,0.25\n")
    assert load_transmission_csv(headerless).evaluate(0.0) == 1.0


def test_all_gaussian_scan_matches_the_closed_form_second_moment():
    # <S^2> = G2 I_t I_r end to end: the scan's g2, dg2 and snr columns
    # against the closed-form amplitude and arm energies
    a, b, w, sigma = 2.0, 0.2, 0.5, 2.0
    setup = build_setup(
        gaussian_wavefunction(a, b),
        fourier_arm(LAM, F, gaussian_transmission(w)),
        n_x=8193,
        n_xp=16385,
    )
    h_r = two_f_arm(LAM, F, gaussian_pupil(sigma))
    result = scan_reference(ScanConfig(setup=setup, h_r=h_r, xr_min=-1.0, xr_max=1.0, n_xr=21))

    c_norm = analytic.gaussian_norm_constant(a, b)
    amp = analytic.all_gaussian_amplitude(a, b, c_norm, w, sigma, LAM, F, 0.0, result.x_r)
    g2 = np.abs(amp) ** 2
    i_t = analytic.gaussian_object_arm_energy(w, LAM, F)
    i_r = analytic.gaussian_two_f_arm_energy(sigma, LAM, F)
    dg2 = np.sqrt(g2 * i_t * i_r - g2**2)
    np.testing.assert_allclose(result.g2, g2, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(result.noise, dg2, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(result.snr, g2 / dg2, rtol=1e-9, atol=0.0)


def test_scan_is_deterministic():
    config = slit_scan_config(n_x=8193, n_xp=2049, n_xr=41)
    r1 = scan_reference(config)
    r2 = scan_reference(config)
    np.testing.assert_array_equal(r1.g2, r2.g2)
    np.testing.assert_array_equal(r1.noise, r2.noise)
    np.testing.assert_array_equal(r1.snr, r2.snr)


def test_scan_columns_and_normalization():
    config = slit_scan_config(n_x=8193, n_xp=2049, n_xr=41, n_pairs=400)
    result = scan_reference(config)
    cols = result.columns()
    assert cols["g2_norm"].max() == 1.0
    np.testing.assert_allclose(cols["dg2_norm"], cols["dg2"] / result.g2.max(), rtol=1e-14)
    np.testing.assert_allclose(cols["dg2_avg_norm"], cols["dg2_norm"] / sqrt(400), rtol=1e-14)
    np.testing.assert_allclose(cols["snr_avg"], cols["snr"] * sqrt(400), rtol=1e-14)
    assert all(flag == "" for flag in cols["flags"])


def test_scan_peaks_are_symmetric():
    config = slit_scan_config(n_xr=161)
    result = scan_reference(config)
    peaks = find_peaks(result.x_r, result.g2)
    assert len(peaks) == 2
    positions = sorted(result.x_r[i] for i in peaks)
    step = result.x_r[1] - result.x_r[0]
    assert positions[0] == pytest.approx(-positions[1], abs=step)
    assert positions[1] == pytest.approx(0.5, abs=0.05)


def test_find_peaks_toy_cases():
    x = np.linspace(-1.0, 1.0, 21)
    y = np.zeros(21)
    y[5] = 1.0
    y[15] = 0.8
    assert find_peaks(x, y) == [5, 15]
    # a bump below the floor is ignored
    y[10] = 0.1
    assert find_peaks(x, y) == [5, 15]
    assert find_peaks(x, np.zeros(21)) == []
    assert find_peaks(x[:0], y[:0]) == []


def _find_peaks_loop(x, y):
    """find_peaks as a loop over every point: the reference of its numpy
    candidate mask."""
    y = np.asarray(y, dtype=float)
    if y.size == 0 or y.max() <= 0.0:
        return []
    last = y.size - 1
    candidates = [
        i
        for i in range(y.size)
        if (i == 0 or y[i] >= y[i - 1])
        and (i == last or y[i] > y[i + 1])
        and y[i] >= _PEAK_FLOOR * y.max()
    ]
    candidates.sort(key=lambda i: (-y[i], abs(x[i])))
    kept = []
    for i in candidates:
        if all(abs(i - j) >= _PEAK_SEPARATION for j in kept):
            kept.append(i)
    return kept


def test_find_peaks_matches_the_loop_over_every_point():
    # small integer levels: plateaus, ties and end nodes on every size
    rng = np.random.default_rng(3)
    for n in range(12):
        x = np.linspace(-1.0, 1.0, n)
        for _ in range(200):
            y = rng.integers(0, 5, n).astype(float)
            got = find_peaks(x, y)
            assert got == _find_peaks_loop(x, y)
            assert all(type(i) is int for i in got)


def test_find_peaks_lists_end_nodes_largest_first():
    # an end node is a maximum against its one neighbour
    x = np.linspace(-1.0, 1.0, 21)
    assert find_peaks(x, np.exp(-((x + 1.0) ** 2))) == [0]
    assert find_peaks(x, np.exp(-((x - 1.0) ** 2))) == [20]
    y = np.zeros(21)
    y[0] = 0.5
    y[10] = 1.0
    y[20] = 0.7
    assert find_peaks(x, y) == [10, 20, 0]
    # a plateau at the end lists its last node; a single point is a maximum
    assert find_peaks(x[:3], [1.0, 1.0, 1.0]) == [2]
    assert find_peaks(x[:1], [1.0]) == [0]


def test_contrast_metric_toy_cases():
    x = np.linspace(-1.0, 1.0, 21)
    y = np.full(21, 0.2)
    y[5] = 1.0
    y[15] = 1.0
    result = fake_result(x, y)
    assert contrast_metric(result) == pytest.approx((1.0 - 0.2) / (1.0 + 0.2))
    # fewer than two maxima: the slits are not resolved
    assert contrast_metric(fake_result(x, np.exp(-(x**2)))) == 0.0
    assert contrast_metric(fake_result([0.0, 1.0], [1.0, 1.0])) == 0.0


def test_aperture_sweep_singleton():
    config = slit_scan_config(n_xr=81)
    summaries = aperture_sweep(config, [10.0], LAM, F)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.aperture_mm == 10.0
    assert len(s.peak_positions_mm) == 2
    assert s.peak_snr > 0.0
    assert 0.0 <= s.contrast <= 1.0
    assert s.noise_amplitude > 0.0
    d = asdict(s)
    assert set(d) == {"aperture_mm", "peak_snr", "peak_positions_mm", "contrast", "noise_amplitude"}


def test_aperture_sweep_shares_the_inner_integral(monkeypatch):
    config = slit_scan_config(n_xr=161)
    apertures = [2.0, 4.0, 6.0, 8.0, 10.0]
    fresh = []
    for D in apertures:
        # a copy of the setup, which reduces u(x') again, for each scan
        alone = replace(config, setup=replace(config.setup), h_r=two_f_arm(LAM, F, rect_pupil(D)))
        fresh.append(summarize(scan_reference(alone), D))

    reduce = TwoPhotonState.reduce
    calls = []

    def counted(self, *args):
        calls.append(args)
        return reduce(self, *args)

    h_t = config.setup.h_t
    quadratures = []

    def counted_energy(x_out, grid):
        quadratures.append(x_out)
        return h_t.energy_in(x_out, grid)

    # counted from building the setup onward: one reduction and one
    # test-arm energy quadrature for the sweep
    monkeypatch.setattr(TwoPhotonState, "reduce", counted)
    setup = replace(config.setup, h_t=replace(h_t, energy_in=counted_energy))
    swept = aperture_sweep(replace(config, setup=setup), apertures, LAM, F)
    assert len(calls) == 1
    assert len(quadratures) == 1
    for s, f in zip(swept, fresh):
        assert s.peak_positions_mm == f.peak_positions_mm
        for name in ("peak_snr", "contrast", "noise_amplitude"):
            assert getattr(s, name) == pytest.approx(getattr(f, name), rel=1e-12, abs=0.0)


def test_aperture_sweep_input_validation(monkeypatch):
    config = slit_scan_config(n_x=4097, n_xp=2049)
    with pytest.raises(InvalidArgumentError):
        aperture_sweep(config, [], LAM, F)
    # a bad aperture anywhere in the list is refused before the first scan
    scans = []
    monkeypatch.setattr("ghostsim.experiments.scan_reference", scans.append)
    for bad in (-1.0, 0.0, np.nan, 1e300):
        with pytest.raises(InvalidArgumentError, match="aperture size D"):
            aperture_sweep(config, [10.0, bad], LAM, F)
    assert scans == []


def test_aperture_sweep_requires_rect_pupil(tmp_path, capsys):
    # the swept parameter is a rect pupil's D_mm; another pupil is a config error
    data = json.loads(json.dumps(RUN))
    data["reference_arm"]["pupil"] = {"gaussian": {"sigma_mm": 2.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(path), "--param", "reference_arm.pupil.rect.D_mm",
            "--values", "10", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("ghostsim: config error: ") and "rect" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scan",
    [
        {"xr_min_mm": 0.2, "xr_max_mm": 2.0, "n_points": 91},
        {"xr_min_mm": -0.5, "xr_max_mm": 1.0, "n_points": 2},
    ],
)
def test_sweep_without_two_maxima_reports_zero_contrast(tmp_path, capsys, scan):
    # a scan that shows one slit, or two points whose one maximum is an end
    # node, is a result with contrast 0, not a numeric error (was exit 3 and
    # no JSON)
    data = json.loads(json.dumps(RUN))
    data["scan"].update(scan)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(path), "--param", "reference_arm.pupil.rect.D_mm",
            "--values", "2,10", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    summaries = json.loads(out.read_text())
    assert [s["contrast"] for s in summaries] == [0.0, 0.0]
    # the listed node is the maximum: of the two points, x_r = -0.5 mm lies
    # on a slit image and G2 there is over 1000 times G2 at x_r = 1 mm for
    # both apertures
    expected = [0.5] if scan["xr_min_mm"] == 0.2 else [-0.5]
    assert all(s["peak_positions_mm"] == expected for s in summaries)


def test_sweep_lists_the_maximum_whose_snr_it_reports(tmp_path, capsys):
    # the fig2 scan starting on the slit image at x_r = 0.5 mm: its maximum
    # is the first node, which the summary lists and reads the SNR at (the
    # list was empty while peak_snr was that node's SNR)
    data = json.loads(Path(preset_path("fig2")).read_text(encoding="utf-8"))
    data["scan"] = {"xr_min_mm": 0.5, "xr_max_mm": 2.0, "n_points": 76}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(path), "--param", "reference_arm.pupil.rect.D_mm",
            "--values", "10", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    (summary,) = json.loads(out.read_text())
    assert summary["peak_positions_mm"] == [0.5]
    assert summary["contrast"] == 0.0
    result = scan_reference(build_scan_config(resolve_config(data)))
    assert int(np.argmax(result.g2)) == 0
    assert summary["peak_snr"] == float(result.columns()["snr_avg"][0]) > 0.0


def test_smaller_aperture_blurs_and_quiets():
    config = slit_scan_config(n_xr=161)
    wide, narrow = aperture_sweep(config, [10.0, 2.0], LAM, F)
    assert narrow.contrast < wide.contrast
    assert narrow.noise_amplitude < wide.noise_amplitude


def test_summarize_uses_snr_at_the_g2_peak():
    x = np.linspace(-1.0, 1.0, 21)
    y = np.full(21, 0.1)
    y[5] = 1.0
    y[15] = 0.9
    s = summarize(replace(fake_result(x, y), snr=np.arange(21.0)), 3.0)
    assert s.peak_positions_mm == (pytest.approx(-0.5), pytest.approx(0.5))
    # snr_avg = snr * sqrt(100) at the larger maximum, node 5
    assert s.peak_snr == 50.0
    assert s.aperture_mm == 3.0


def test_readme_library_example_runs():
    # a public name deleted or renamed in the package fails here, not in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
