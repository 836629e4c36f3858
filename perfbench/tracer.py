"""Span tracer that wraps fluxmod's public functions from the outside.

``Tracer.install`` rebinds every function named in a layer module's
``__all__`` (and every click subcommand of ``fluxmod.cli.main``) to a
wrapper that records a span: name, start, end, parent span and request id.
The wrapper is rebound in every ``fluxmod.*`` namespace that holds the
original object, so both cross-module imports (``from .transmon import
transition_frequencies``) and same-module calls through module globals are
captured.  Nothing inside ``src/fluxmod`` is edited.

Spans stay in memory; ``layer_stats`` folds them into per-name totals at the
end of a run.  A span's self time is its duration minus the time its direct
children cover (calls are single-threaded and properly nested, so children
never overlap).

None of fluxmod's layers has a queue, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYER_MODULES = ("transmon", "modulation", "gates", "calibration", "pulses")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: Any = None
    extra: dict[str, float] = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _points(args, kwargs, result, exc) -> dict[str, float]:
    flux = kwargs.get("flux_phi0", args[1] if len(args) > 1 else None)
    return {"points": float(np.size(flux))} if flux is not None else {}


def _solve(args, kwargs, result, exc) -> dict[str, float]:
    if exc is not None:
        return {"no_root": 1.0} if type(exc).__name__ == "NoRoot" else {}
    return {"roots": float(len(result))}


def _atlas(args, kwargs, result, exc) -> dict[str, float]:
    if exc is not None:
        return {}
    return {
        "nodes": float(getattr(result, "n_grid_nodes", 0)),
        "no_root": float(getattr(result, "n_no_root", 0)),
    }


def _collisions(args, kwargs, result, exc) -> dict[str, float]:
    return {} if exc is not None else {"reports": float(len(result))}


def _resonance(args, kwargs, result, exc) -> dict[str, float]:
    wrong = exc is not None and type(exc).__name__ == "WrongSideband"
    return {"wrong_sideband": 1.0} if wrong else {}


# extra per-span counters, keyed by span name; a name the program no longer
# has simply never produces a span
ANNOTATORS: dict[str, Callable[..., dict[str, float]]] = {
    "transmon.transition_frequencies": _points,
    "modulation.sweet_spot_solve": _solve,
    "modulation.sweet_spot_atlas": _atlas,
    "gates.check_collisions": _collisions,
    "gates.resonance_fm": _resonance,
}


class Tracer:
    """Records nested spans around wrapped calls while ``active`` is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        self.request: Any = None
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), parent=parent, request=self.request)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children_s += span.duration
                if annotate is not None:
                    try:
                        span.extra = annotate(args, kwargs, result, exc)
                    except Exception as err:  # the program changed shape
                        note = f"{name}: counters skipped ({type(err).__name__})"
                        if note not in self.notes:
                            self.notes.append(note)

        return traced

    def install(self, package: str = "fluxmod") -> None:
        """Rebind the public functions of every layer module to wrappers."""
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for layer in LAYER_MODULES:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                self.notes.append(f"module {package}.{layer} not found; skipped")
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if obj is None:
                    self.notes.append(f"{layer}.{attr} listed in __all__ but missing")
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is obj:
                        self._restore.append((ns, attr, obj))
                        setattr(ns, attr, wrapper)
        cli = sys.modules.get(f"{package}.cli")
        group = getattr(cli, "main", None)
        for cmd_name, cmd in sorted(getattr(group, "commands", {}).items()):
            if cmd.callback is None:
                continue
            self._restore.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(f"cli.{cmd_name}", cmd.callback)

    def uninstall(self) -> None:
        """Put every original object back, newest rebinding first."""
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write every span as one JSON array per line:
        [index, name, start, end, parent, request, self_s]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.request,
                                     s.self_s]) + "\n")


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-name totals: calls, self_s, total_s and summed extra counters.

    ``transmon.series_cache`` is derived: a ``fourier_coefficients`` span
    with a direct ``transition_frequencies`` child is a miss, any other is
    a hit.
    """
    out: dict[str, dict[str, float]] = {}
    diagonalizing = {
        s.parent for s in spans if s.name == "transmon.transition_frequencies"
    }
    cache = {"hits": 0.0, "misses": 0.0}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"calls": 0.0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["total_s"] += span.duration
        for key, value in span.extra.items():
            row[key] = row.get(key, 0.0) + value
        if span.name == "transmon.fourier_coefficients":
            cache["misses" if i in diagonalizing else "hits"] += 1
    out["transmon.series_cache"] = cache
    return out


def covered_time(spans: list[Span]) -> float:
    """Wall time covered by root spans (those without a parent)."""
    return sum(s.duration for s in spans if s.parent is None)
