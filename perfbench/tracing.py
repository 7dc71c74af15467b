"""Span tracing from outside the program: wrap public functions, record spans.

:class:`Tracer` replaces module and class attributes of the ``repro`` package
with timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards.  Each call becomes a span ``(id, name, start,
end, parent, unit)``: ``parent`` is the span open on the same thread when
the call began, ``unit`` the content hash of the unit being computed (set
by the caller through :attr:`Tracer.unit`).  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.

Wrappers are installed at the names the pipeline calls through — e.g.
``repro.core.self_organization.align_snapshot`` rather than its defining
module — because a module-level ``from x import f`` binds its own name.
Nothing under ``src/`` is edited, and no result changes: a wrapper only
calls the original and returns what it returned.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_MISSING = object()

#: The pipeline stages of a unit, in order.  Every traced span belongs to one
#: of them, or to ``core`` (the unit itself).
STAGES = ("simulate", "align", "observe", "estimate", "persist")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    unit: str | None
    note: dict[str, Any] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _samples_note(args, kwargs, result) -> dict[str, Any]:
    return {"rows": int(args[0].shape[0])}


def _simulation_note(args, kwargs, result) -> dict[str, Any]:
    config, n_samples = args[0], args[1]
    return {
        "sample_steps": int(n_samples) * int(config.n_steps) * int(config.substeps),
        "n_particles": int(config.n_particles),
    }


def _save_note(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": Path(result).stat().st_size}


def trace_points() -> list[tuple[Any, str, str, str, Callable | None]]:
    """``(owner, attribute, span name, layer, note)`` for every traced call."""
    import repro.cluster.coarse_grain as coarse_grain
    import repro.core.pipeline as pipeline
    import repro.core.plan as plan
    import repro.core.self_organization as so
    from repro.alignment import icp
    from repro.alignment.icp import TypeAwareICP
    from repro.alignment.torus import TorusAligner
    from repro.io.artifacts import RunStore

    points = [
        (plan, "run_experiment", "core.run_experiment", "core", None),
        (pipeline, "run_simulation_only", "particles.run_simulation_only", "simulate", _simulation_note),
        (so, "align_snapshot", "alignment.align_snapshot", "align", _samples_note),
        (TypeAwareICP, "align", "alignment.TypeAwareICP.align", "align", None),
        (TorusAligner, "align", "alignment.TorusAligner.align", "align", None),
        (icp, "nearest_neighbor_correspondence", "alignment.nearest_neighbor_correspondence", "align", None),
        (icp, "assignment_correspondence", "alignment.assignment_correspondence", "align", None),
        (icp, "kabsch_2d", "alignment.kabsch_2d", "align", None),
        (so, "build_observers", "cluster.build_observers", "observe", None),
        (coarse_grain, "kmeans", "cluster.kmeans", "observe", None),
        (so, "ksg_multi_information", "infotheory.ksg_multi_information", "estimate", None),
        (so, "kozachenko_leonenko_entropy", "infotheory.kozachenko_leonenko_entropy", "estimate", None),
        (so, "decompose_multi_information", "infotheory.decompose_multi_information", "estimate", None),
    ]
    for method in ("has", "load", "load_document", "try_acquire_lease", "renew_lease", "release_lease"):
        points.append((RunStore, method, f"io.RunStore.{method}", "persist", None))
    points.append((RunStore, "save", "io.RunStore.save", "persist", _save_note))
    return points


class Tracer:
    """Records spans around the public calls listed in :func:`trace_points`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, layer: str, note: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = note(args, kwargs, result) if note is not None else None
            tracer.spans.append(Span(span_id, name, layer, start, end, parent, tracer.unit, extra))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, layer, note in trace_points():
            original = owner.__dict__.get(attribute, _MISSING)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(getattr(owner, attribute), name, layer, note))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._installed):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans on one thread nest, so direct children never overlap and their
    coverage is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def window(spans: list[Span], start: float, end: float) -> list[Span]:
    """Spans that began inside ``[start, end)``."""
    return [span for span in spans if start <= span.start < end]
