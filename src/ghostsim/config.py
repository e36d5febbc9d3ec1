"""Run configuration: JSON schema, validation and assembly of scan drivers.

Wavelengths enter in nm at the file boundary and are converted to mm
internally; every other length is mm.  Unknown keys are rejected so typos
fail loudly, and the fully resolved configuration (defaults applied) can be
round-tripped through :meth:`RunConfig.to_dict`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from . import experiments, optics, source
from .errors import ConfigError
from .experiments import ScanConfig, build_setup
from .grid import MAX_NODES

__all__ = ["RunConfig", "load_config", "resolve_config", "build_scan_config"]

_DEFAULTS = {
    "scan": {"xr_min_mm": -2.0, "xr_max_mm": 2.0, "n_points": 201, "xt_mm": 0.0},
    "pairs": {"N": 10000},
    "numerics": {
        "n_x": experiments.DEFAULT_N_X,
        "n_xp": experiments.DEFAULT_N_XP,
        "window_mm": experiments.DEFAULT_WINDOW_MM,
    },
    "output": {"path": "scan.csv", "format": "csv"},
}

_OBJECT_KINDS = {
    "double_slit": {"w_mm", "d_mm"},
    "gaussian": {"w_mm"},
    "tabulated": {"path"},
}
_PUPIL_KINDS = {
    "rect": {"D_mm"},
    "gaussian": {"sigma_mm"},
    "tabulated": {"path"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run description."""

    source: dict
    test_arm: dict
    reference_arm: dict
    scan: dict
    pairs: dict
    numerics: dict
    output: dict

    def to_dict(self) -> dict:
        return {
            "source": dict(self.source),
            "test_arm": json.loads(json.dumps(self.test_arm)),
            "reference_arm": json.loads(json.dumps(self.reference_arm)),
            "scan": dict(self.scan),
            "pairs": dict(self.pairs),
            "numerics": dict(self.numerics),
            "output": dict(self.output),
        }


def _require(section: dict, where: str, key: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}")
    return section[key]


def _no_unknown(section: dict, where: str, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown field {where}.{key}")


def _number(value) -> float:
    """float(value); NaN for anything that is not a number, booleans too."""
    if isinstance(value, bool):
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _finite(value, where: str) -> float:
    number = _number(value)
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _integer(value, where: str, minimum: int, maximum: float = math.inf) -> int:
    """An integral number in [minimum, maximum]: 1e4 passes, 1.7 and "abc" do not."""
    number = _number(value)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if number < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value!r}")
    if number > maximum:
        raise ConfigError(f"{where} must be <= {maximum}, the node budget, got {value!r}")
    return int(number)


def _positive(value, where: str) -> float:
    value = _finite(value, where)
    if not (value > 0.0):
        raise ConfigError(f"{where} must be > 0, got {value}")
    return value


def _readable(path, where: str) -> str:
    if not isinstance(path, str) or not os.path.isfile(path) or not os.access(path, os.R_OK):
        raise ConfigError(f"{where} must name a readable file, got {path!r}")
    return path


def _variant(section: dict, where: str, kinds: dict) -> dict:
    _no_unknown(section, where, kinds)
    if len(section) != 1:
        raise ConfigError(
            f"{where} must contain exactly one of {sorted(kinds)}, got {sorted(section)}"
        )
    (kind, params), = section.items()
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.{kind} must be an object")
    _no_unknown(params, f"{where}.{kind}", kinds[kind])
    out = {}
    for key in kinds[kind]:
        value = _require(params, f"{where}.{kind}", key)
        if key == "path":
            out[key] = _readable(value, f"{where}.{kind}.path")
        else:
            out[key] = _positive(value, f"{where}.{kind}.{key}")
    return {kind: out}


def _arm(section: dict, where: str, part_key: str, kinds: dict) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _no_unknown(section, where, {"lambda_nm", "f_mm", part_key})
    return {
        "lambda_nm": _positive(_require(section, where, "lambda_nm"), f"{where}.lambda_nm"),
        "f_mm": _positive(_require(section, where, "f_mm"), f"{where}.f_mm"),
        part_key: _variant(
            _require(section, where, part_key), f"{where}.{part_key}", kinds
        ),
    }


def resolve_config(data: dict) -> RunConfig:
    """Validate a configuration dict, applying defaults."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _no_unknown(
        data,
        "config",
        {"source", "test_arm", "reference_arm", "scan", "pairs", "numerics", "output"},
    )

    src = _require(data, "config", "source")
    if not isinstance(src, dict):
        raise ConfigError("source must be an object")
    _no_unknown(src, "source", {"a_mm", "b_mm"})
    src = {
        "a_mm": _positive(_require(src, "source", "a_mm"), "source.a_mm"),
        "b_mm": _positive(_require(src, "source", "b_mm"), "source.b_mm"),
    }

    test_arm = _arm(_require(data, "config", "test_arm"), "test_arm", "object", _OBJECT_KINDS)
    ref_arm = _arm(
        _require(data, "config", "reference_arm"), "reference_arm", "pupil", _PUPIL_KINDS
    )

    scan = dict(_DEFAULTS["scan"])
    scan_in = data.get("scan", {})
    _no_unknown(scan_in, "scan", set(scan))
    scan.update(scan_in)
    for key in ("xr_min_mm", "xr_max_mm", "xt_mm"):
        scan[key] = _finite(scan[key], f"scan.{key}")
    scan["n_points"] = _integer(scan["n_points"], "scan.n_points", 2, MAX_NODES)
    if not (scan["xr_max_mm"] > scan["xr_min_mm"]):
        raise ConfigError("scan.xr_max_mm must exceed scan.xr_min_mm")

    pairs = dict(_DEFAULTS["pairs"])
    pairs_in = data.get("pairs", {})
    _no_unknown(pairs_in, "pairs", {"N"})
    pairs.update(pairs_in)
    pairs["N"] = _integer(pairs["N"], "pairs.N", 1)

    numerics = dict(_DEFAULTS["numerics"])
    numerics_in = data.get("numerics", {})
    _no_unknown(numerics_in, "numerics", set(numerics))
    numerics.update(numerics_in)
    for key in ("n_x", "n_xp"):
        numerics[key] = _integer(numerics[key], f"numerics.{key}", 2, MAX_NODES)
    numerics["window_mm"] = _positive(numerics["window_mm"], "numerics.window_mm")

    output = dict(_DEFAULTS["output"])
    output_in = data.get("output", {})
    _no_unknown(output_in, "output", {"path", "format"})
    output.update(output_in)
    if output["format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {output['format']!r}")

    return RunConfig(
        source=src,
        test_arm=test_arm,
        reference_arm=ref_arm,
        scan=scan,
        pairs=pairs,
        numerics=numerics,
        output=output,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    return resolve_config(data)


def _build_transmission(obj: dict) -> optics.Transmission:
    (kind, params), = obj.items()
    if kind == "double_slit":
        return optics.double_slit(params["w_mm"], params["d_mm"])
    if kind == "gaussian":
        return optics.gaussian_transmission(params["w_mm"])
    return optics.load_transmission_csv(params["path"])


def _build_pupil(pup: dict) -> optics.Pupil:
    (kind, params), = pup.items()
    if kind == "rect":
        return optics.rect_pupil(params["D_mm"])
    if kind == "gaussian":
        return optics.gaussian_pupil(params["sigma_mm"])
    return optics.load_pupil_csv(params["path"])


def build_scan_config(cfg: RunConfig) -> ScanConfig:
    """Assemble the scan driver for a resolved configuration."""
    state = source.gaussian_wavefunction(cfg.source["a_mm"], cfg.source["b_mm"])
    h_t = optics.fourier_arm(
        cfg.test_arm["lambda_nm"] * 1e-6,
        cfg.test_arm["f_mm"],
        _build_transmission(cfg.test_arm["object"]),
    )
    h_r = optics.two_f_arm(
        cfg.reference_arm["lambda_nm"] * 1e-6,
        cfg.reference_arm["f_mm"],
        _build_pupil(cfg.reference_arm["pupil"]),
    )
    setup = build_setup(
        state,
        h_t,
        h_r,
        n_x=cfg.numerics["n_x"],
        n_xp=cfg.numerics["n_xp"],
        window_mm=cfg.numerics["window_mm"],
    )
    return ScanConfig(
        setup=setup,
        x_t=cfg.scan["xt_mm"],
        xr_min=cfg.scan["xr_min_mm"],
        xr_max=cfg.scan["xr_max_mm"],
        n_xr=cfg.scan["n_points"],
        n_pairs=cfg.pairs["N"],
        provenance=cfg.to_dict(),
    )
