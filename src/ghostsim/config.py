"""Run configuration: JSON schema, validation and assembly of scan drivers.

Wavelengths enter in nm at the file boundary and are converted to mm
internally; every other length is mm.  One ordered table, ``_SCHEMA``, gives
each field its default and check, and each object or pupil kind its optics
constructor; fields are checked in table order and unknown keys are
rejected.  The resolved configuration round-trips through
:meth:`RunConfig.to_dict`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import partial

from . import experiments, optics, source
from .errors import ConfigError, InvalidArgumentError
from .experiments import ScanConfig, build_setup
from .grid import MAX_NODES

__all__ = ["RunConfig", "load_config", "resolve_config", "build_scan_config"]


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
        return asdict(self)


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


def _text(value, where: str) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _format(value, where: str) -> str:
    if value not in ("csv", "json"):
        raise ConfigError(f"{where} must be csv or json, got {value!r}")
    return value


class _OneOf(dict):
    """Exactly one of its kinds: kind -> (optics constructor, its parameters in call order)."""


_REQUIRED = object()  # the default of a field that has none
_LENGTH = (_REQUIRED, _positive)
_COUNT = partial(_integer, minimum=2, maximum=MAX_NODES)

# section -> field -> (default or _REQUIRED, check); a nested dict is a
# JSON object of its own, a missing one is checked as {}
_SCHEMA = {
    "source": {"a_mm": _LENGTH, "b_mm": _LENGTH},
    "test_arm": {
        "lambda_nm": _LENGTH,
        "f_mm": _LENGTH,
        "object": _OneOf(
            double_slit=("double_slit", {"w_mm": _LENGTH, "d_mm": _LENGTH}),
            gaussian=("gaussian_transmission", {"w_mm": _LENGTH}),
            tabulated=("load_transmission_csv", {"path": (_REQUIRED, _readable)}),
        ),
    },
    "reference_arm": {
        "lambda_nm": _LENGTH,
        "f_mm": _LENGTH,
        "pupil": _OneOf(
            rect=("rect_pupil", {"D_mm": _LENGTH}),
            gaussian=("gaussian_pupil", {"sigma_mm": _LENGTH}),
            tabulated=("load_pupil_csv", {"path": (_REQUIRED, _readable)}),
        ),
    },
    "scan": {
        "xr_min_mm": (-2.0, _finite),
        "xr_max_mm": (2.0, _finite),
        "n_points": (201, _COUNT),
        "xt_mm": (0.0, _finite),
    },
    "pairs": {"N": (10000, partial(_integer, minimum=1))},
    "numerics": {
        "n_x": (experiments.DEFAULT_N_X, _COUNT),
        "n_xp": (experiments.DEFAULT_N_XP, _COUNT),
        "window_mm": (experiments.DEFAULT_WINDOW_MM, _positive),
    },
    "output": {"path": ("scan.csv", _text), "format": ("csv", _format)},
}


def _walk(spec: dict, data, where: str) -> dict:
    """data, a JSON object without unknown keys, resolved field by field in spec's order."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'configuration root'} must be a JSON object, got {data!r}")
    prefix = f"{where}." if where else ""
    for key in data:
        if key not in spec:
            raise ConfigError(f"unknown field {prefix}{key}")
    if isinstance(spec, _OneOf):
        if len(data) != 1:
            raise ConfigError(
                f"{where} must contain exactly one of {list(spec)}, got {sorted(data)}"
            )
        ((kind, params),) = data.items()
        return {kind: _walk(spec[kind][1], params, prefix + kind)}
    out = {}
    for key, field in spec.items():
        if isinstance(field, dict):
            out[key] = _walk(field, data.get(key, {}), prefix + key)
            continue
        default, check = field
        value = data.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required field {prefix}{key}")
        out[key] = check(value, prefix + key)
    return out


def resolve_config(data: dict) -> RunConfig:
    """Validate a configuration dict, applying defaults."""
    cfg = RunConfig(**_walk(_SCHEMA, data, ""))
    if not (cfg.scan["xr_max_mm"] > cfg.scan["xr_min_mm"]):
        raise ConfigError("scan.xr_max_mm must exceed scan.xr_min_mm")
    return cfg


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
    except (UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, or nested deeper than the parser's recursion limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return resolve_config(data)


def _call(fn, where: str, params: dict):
    """fn(*params.values()), an InvalidArgumentError prefixed with the keys."""
    try:
        return fn(*params.values())
    except InvalidArgumentError as exc:
        named = ", ".join(f"{where}.{key} = {value!r}" for key, value in params.items())
        raise InvalidArgumentError(f"{named}: {exc}") from exc


def _arm(make, cfg_arm: dict, where: str, part: str):
    """The arm built by make from the constructor the table names for its part."""
    ((kind, params),) = cfg_arm[part].items()
    constructor, fields = _SCHEMA[where][part][kind]
    element = _call(
        getattr(optics, constructor), f"{where}.{part}.{kind}", {k: params[k] for k in fields}
    )
    return make(cfg_arm["lambda_nm"] * 1e-6, cfg_arm["f_mm"], element)


def build_scan_config(cfg: RunConfig) -> ScanConfig:
    """Assemble the scan driver for a resolved configuration."""
    a, b = cfg.source["a_mm"], cfg.source["b_mm"]
    # a source too wide for its ridge is refused by the certification-grid
    # budget, which names the remedy, before its a^2 or b^2 leaves the range
    source.default_certification_grid(a, b)
    state = _call(source.gaussian_wavefunction, "source", {"a_mm": a, "b_mm": b})
    setup = build_setup(
        state,
        _arm(optics.fourier_arm, cfg.test_arm, "test_arm", "object"),
        _arm(optics.two_f_arm, cfg.reference_arm, "reference_arm", "pupil"),
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
    )
