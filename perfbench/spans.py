"""Span tracing of ghostsim's public functions, installed at run time from
outside the package.

Each target is wrapped so that a call records a span: layer, start, end,
parent span and whether it raised.  A name that other ghostsim modules bound
with ``from ... import`` is replaced in every module that holds it, so calls
through those bindings are traced too.  A target that no longer exists is
reported as absent instead of failing the run.  Self time is a span's
duration minus the time covered by its child spans; spans nest on one
caller's stack, so the benchmark traces only single-threaded runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, module, attribute) for every traced entry point
TARGETS = (
    ("config.load", "ghostsim.config", "load_config"),
    ("config.load", "ghostsim.config", "resolve_config"),
    ("config.load", "ghostsim.config", "build_scan_config"),
    ("optics.arm_build", "ghostsim.optics", "fourier_arm"),
    ("optics.arm_build", "ghostsim.optics", "two_f_arm"),
    ("optics.arm_build", "ghostsim.optics", "double_slit"),
    ("optics.arm_build", "ghostsim.optics", "gaussian_transmission"),
    ("optics.arm_build", "ghostsim.optics", "tabulated_transmission"),
    ("optics.arm_build", "ghostsim.optics", "load_transmission_csv"),
    ("optics.arm_build", "ghostsim.optics", "rect_pupil"),
    ("optics.arm_build", "ghostsim.optics", "gaussian_pupil"),
    ("optics.arm_build", "ghostsim.optics", "tabulated_pupil"),
    ("optics.arm_build", "ghostsim.optics", "load_pupil_csv"),
    ("optics.sample_in", "ghostsim.optics", "ImpulseResponse.sample_in"),
    ("source.normalize", "ghostsim.source", "normalize"),
    ("correlator.inner", "ghostsim.correlator", "CorrelatorSetup.inner_integral"),
    ("correlator.arm_energy", "ghostsim.correlator", "arm_energy"),
    ("correlator.amplitude", "ghostsim.correlator", "amplitude"),
    ("correlator.point_statistics", "ghostsim.correlator", "point_statistics"),
    ("experiments.scan_self", "ghostsim.experiments", "scan_reference"),
    ("experiments.summarize", "ghostsim.experiments", "summarize"),
    ("cli.write", "ghostsim.cli", "write_scan_csv"),
    ("validate.gaussian_normalization", "ghostsim.validate", "_check_gaussian_normalization"),
    ("validate.analytic_arm_energies", "ghostsim.validate", "_check_arm_energies"),
    ("validate.all_gaussian_amplitude", "ghostsim.validate", "_check_all_gaussian_amplitude"),
    ("validate.cauchy_schwarz", "ghostsim.validate", "_check_cauchy_schwarz"),
)

# layer whose spans enclose one whole operation; its self time is what no
# traced layer covers
ROOT = "cli.other"


def _scan_points(args, kwargs) -> int:
    config = args[0] if args else kwargs["config"]
    return int(config.n_xr)


# extra counts taken from a traced call's arguments: layer -> (name, fn)
COUNTERS = {"experiments.scan_self": ("experiments.points", _scan_points)}


class Tracer:
    def __init__(self):
        # [layer, start, end, parent index or -1, raised]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of the given layer."""
        idx = len(self.spans)
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, False]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(layer, fn, *args, **kwargs)
            if counter is not None:
                try:
                    self.counts[counter[0]] += counter[1](args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.absent.add(counter[0])
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("ghostsim") and m]
        for layer, modname, attr in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.add(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(layer, original)
            if path:
                self._bind(owner, name, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, original, wrapped)

    def _bind(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def layers(self) -> dict[str, dict]:
        """Per layer: self seconds, calls and calls that raised."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (layer, start, end, _, raised), covered in zip(self.spans, child):
            agg = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "failed": 0})
            agg["self_s"] += end - start - covered
            agg["calls"] += 1
            agg["failed"] += raised
        return out
