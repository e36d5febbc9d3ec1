"""Command-line interface: scan, sweep and validate.

Commands emit plot-ready data only (CSV for scans, JSON for sweeps); exit
codes are a stable contract: 0 success, 1 validation-suite failure, 2
usage/config error, 3 numeric/runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources

import numpy as np

from .config import build_scan_config, load_config
from .errors import ConfigError, GhostSimError, InvalidArgumentError
from .experiments import CorrelationResult, aperture_sweep, scan_reference
from .validate import run_validation_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = "x_r_mm,g2,g2_norm,dg2,dg2_norm,dg2_avg_norm,snr,snr_avg,flags"

SWEEP_PARAM = "reference_arm.pupil.rect.D_mm"


def write_scan_csv(result: CorrelationResult, path: str) -> None:
    cols = result.columns()
    names = CSV_HEADER.split(",")
    # 17 significant digits round-trip float64 exactly
    row = ",".join("%s" if n == "flags" else "%.17g" for n in names) + "\n"
    fields = [cols[n] if n == "flags" else cols[n].tolist() for n in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(row % values for values in zip(*fields))


def preset_path(name: str) -> str:
    return str(resources.files("ghostsim").joinpath(f"presets/{name}.json"))


def _resolve_config_arg(args) -> str:
    if args.preset:
        return preset_path(args.preset)
    return args.config


def cmd_scan(args) -> int:
    cfg = load_config(_resolve_config_arg(args))
    config = build_scan_config(cfg)
    result = scan_reference(config)
    out = args.output or cfg["output"]["path"]
    if cfg["output"]["format"] == "json":
        data = {k: v.tolist() for k, v in result.columns().items()}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    else:
        write_scan_csv(result, out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.param != SWEEP_PARAM:
        raise ConfigError(
            f"unsupported sweep parameter {args.param!r}; only {SWEEP_PARAM} is supported"
        )
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be a comma-separated list of numbers, got {args.values!r}")
    cfg = load_config(_resolve_config_arg(args))
    ref = cfg["reference_arm"]
    (kind,) = ref["pupil"]
    if kind != "rect":
        raise ConfigError(f"{SWEEP_PARAM} needs a rect reference pupil, got {kind}")
    base = build_scan_config(cfg)
    summaries = aperture_sweep(base, values, ref["lambda_nm"] * 1e-6, ref["f_mm"])
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in summaries], fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_validation_suite()
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        all_passed = all_passed and r.passed
    return EXIT_OK if all_passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostsim",
        description="Entangled-photon ghost imaging: coincidence rate, quantum noise and SNR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", help="JSON run configuration file")
        group.add_argument(
            "--preset", choices=["fig2", "fig3"], help="built-in parameter preset"
        )

    p_scan = sub.add_parser("scan", help="reference-detector scan, CSV output")
    add_config_args(p_scan)
    p_scan.add_argument("--output", help="output file (default from config)")
    p_scan.set_defaults(func=cmd_scan)

    p_sweep = sub.add_parser("sweep", help="aperture sweep, JSON summary output")
    add_config_args(p_sweep)
    p_sweep.add_argument("--param", required=True, help=f"swept parameter ({SWEEP_PARAM})")
    p_sweep.add_argument("--values", required=True, help="comma-separated aperture sizes in mm")
    p_sweep.add_argument("--output", required=True, help="output JSON file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in oracle suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # non-finite results are errors where they arise (amplitude, arm
        # energies, statistics); numpy's overflow warnings on the way there
        # would only put extra lines ahead of the one-line message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"ghostsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GhostSimError as exc:
        print(f"ghostsim: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"ghostsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArithmeticError, MemoryError) as exc:
        # backstop: inputs are guarded where they are used, so reaching this
        # is a missing guard, still reported in one line
        print(f"ghostsim: numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
