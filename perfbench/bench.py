"""Measurement and correctness checking for one workload run.

A timed run (``trace=False``) executes the workload's plan cold into a fresh
filesystem :class:`~repro.io.artifacts.RunStore`, then answers it warm from
that store, and repeats until the run's time is up.  It reports the
end-to-end metrics.  A traced run (``trace=True``) alternates untraced and
traced cold sweeps and reports the per-layer metrics from the spans of the
traced ones.  Every sweep is checked; see :class:`Checker`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.experiments import ExperimentSpec
from repro.core.plan import ExperimentPlan, PlanExecution, PlanObserver, RunUnit, unit_content_hash
from repro.io.artifacts import RunStore, build_document, encode_document

from tracing import STAGES, Span, Tracer, self_times, window
from workloads import DEFAULT_SEED, build_specs

PINS_PATH = Path(__file__).with_name("pins.json")

#: Units of every metric the benchmark reports.
END_TO_END_UNITS = {
    "setup_s": "s",
    "unit_s": "s",
    "sweep_s": "s",
    "warm_unit_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "alignment.align_s": "s/unit",
    "alignment.share": "frac",
    "alignment.samples": "count/unit",
    "alignment.icp_align_calls": "count/unit",
    "alignment.torus_align_calls": "count/unit",
    "alignment.nn_calls": "count/unit",
    "alignment.nn_s": "s/unit",
    "alignment.assign_calls": "count/unit",
    "alignment.assign_s": "s/unit",
    "alignment.kabsch_s": "s/unit",
    "alignment.rmse_mean": "length",
    "particles.simulate_s": "s/unit",
    "particles.share": "frac",
    "particles.sample_steps": "count/unit",
    "particles.ns_per_particle_step": "ns",
    "cluster.observe_s": "s/unit",
    "cluster.kmeans_calls": "count/unit",
    "infotheory.ksg_s": "s/unit",
    "infotheory.ksg_calls": "count/unit",
    "infotheory.kl_s": "s/unit",
    "infotheory.kl_calls": "count/unit",
    "io.save_s": "s/unit",
    "io.saves": "count/unit",
    "io.bytes_written": "B/unit",
    "io.load_s": "s/unit",
    "io.loads": "count/unit",
    "io.has_calls": "count/unit",
    "io.lease_calls": "count/unit",
    "core.plan_overhead_s": "s",
    "core.lower_hash_s": "s",
    "core.units_computed": "count",
    "core.units_cached": "count",
    "trace.unit_s": "s",
    "trace.overhead_frac": "frac",
}

#: Warm passes after each cold sweep: at least this many, and for at least
#: this share of the cold sweep's time, so that the warm samples are spread
#: over the whole run rather than taken in one stretch.
_WARM_MIN_PASSES = 5
_WARM_SHARE = 0.25


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #
def platform_key() -> dict[str, Any]:
    """What a stored document's bytes depend on besides the spec.

    Float results can differ in the last bit between numpy builds and between
    the SIMD code paths numpy dispatches at run time, so pinned digests are
    only comparable on a matching platform.
    """
    import platform

    import numpy as np
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # pragma: no cover - numpy layout changed
        features = {}
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def load_pins(workload: str, seed: int, tiny: bool) -> tuple[dict[str, Any] | None, str]:
    """The pinned documents for this run, or None with the reason they do not apply."""
    if tiny or seed != DEFAULT_SEED:
        return None, f"not pinned (pins cover the default seed {DEFAULT_SEED} at full size)"
    pins = json.loads(PINS_PATH.read_text())
    if pins["platform"] != platform_key():
        return None, "not pinned on this platform (numpy/scipy build or CPU features differ)"
    return pins["workloads"][workload], "pinned digests and delta I"


def document_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checker:
    """Counts attempted and failed units and says why a unit failed.

    A unit is attempted once per cold sweep.  It fails when the sweep raises
    or when any check on it fails: its stored document names another hash
    than the unit's, the spec rebuilt from the document hashes differently,
    ΔI is not finite, a pinned digest or ΔI differs, a warm pass recomputes
    or returns other bytes, or a traced sweep stores other bytes.
    """

    pins: dict[str, Any] | None = None
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    messages: list[str] = field(default_factory=list)

    def _fail(self, bad: dict[str, str], unit: RunUnit, why: str) -> None:
        bad.setdefault(unit.content_hash, f"{unit.name}: {why}")

    def cold(self, execution: PlanExecution, store: RunStore) -> tuple[dict[str, bytes], dict[str, str]]:
        """Check a cold sweep; returns each unit's stored bytes and the failures so far."""
        stored: dict[str, bytes] = {}
        bad: dict[str, str] = {}
        computed = set(execution.computed)
        for unit, result in zip(execution.units, execution.results):
            self.checks += 1
            if unit.content_hash not in computed:
                self._fail(bad, unit, "not computed by a cold sweep")
                continue
            data = store.path_for(unit).read_bytes()
            stored[unit.content_hash] = data
            document = json.loads(data)
            if document["unit"]["content_hash"] != unit.content_hash:
                self._fail(bad, unit, "document names another content hash")
            loaded = store.load(unit.content_hash, with_ensemble=False)
            rebuilt = ExperimentSpec(
                name=unit.name,
                description="",
                simulation=loaded.simulation_config,
                n_samples=loaded.n_samples,
                analysis=loaded.analysis_config,
                seed=loaded.seed,
            )
            if unit_content_hash(rebuilt) != unit.content_hash:
                self._fail(bad, unit, "spec rebuilt from the document hashes differently")
            delta = result.delta_multi_information
            if not math.isfinite(delta):
                self._fail(bad, unit, f"delta I is not finite ({delta})")
            if self.pins is not None:
                pin = self.pins.get(unit.content_hash)
                if pin is None:
                    self._fail(bad, unit, "unit is not among the pinned units")
                elif pin["sha256"] != document_digest(data):
                    self._fail(bad, unit, "document digest differs from the pin")
                elif pin["delta_I"] != delta:
                    self._fail(bad, unit, f"delta I {delta!r} differs from the pin {pin['delta_I']!r}")
        if self.pins is not None and len(self.pins) != len(set(execution.computed)):
            for unit in execution.units:
                self._fail(bad, unit, "the workload no longer has the pinned number of units")
        return stored, bad

    def warm(self, execution: PlanExecution, stored: dict[str, bytes], bad: dict[str, str]) -> None:
        """A warm pass computes nothing and returns the stored bytes."""
        for unit, result in zip(execution.units, execution.results):
            self.checks += 1
            if execution.n_computed:
                self._fail(bad, unit, f"warm pass computed {execution.n_computed} unit(s)")
            elif encode_document(build_document(unit, result)).encode("utf8") != stored.get(unit.content_hash):
                self._fail(bad, unit, "warm result differs from the stored document")

    def same_as_untraced(
        self, units: list[RunUnit], untraced: dict[str, bytes], traced: dict[str, bytes], bad: dict[str, str]
    ) -> None:
        """A traced sweep stores the same bytes as an untraced one."""
        for unit in units:
            self.checks += 1
            if untraced.get(unit.content_hash) != traced.get(unit.content_hash):
                self._fail(bad, unit, "the traced sweep stored other bytes")

    def settle(self, n_units: int, bad: dict[str, str]) -> None:
        """Close one cold sweep of ``n_units`` units."""
        self.attempted += n_units
        self.failed += len(bad)
        self.messages.extend(bad.values())

    def crashed(self, n_units: int, exc: BaseException) -> None:
        self.attempted += n_units
        self.failed += n_units
        self.messages.append(f"sweep raised {type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------------- #
class UnitClock(PlanObserver):
    """Times each computed unit from dispatch to its committed document.

    Units run serially: the first starts after the last ``on_unit_start``
    of its batch, each later one when its predecessor completed (after its
    save).  With a tracer, names the unit in flight so spans carry its hash.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.times: list[float] = []
        self._mark = 0.0
        self._pending: list[str] = []
        self._tracer = tracer

    def _name_unit(self) -> None:
        if self._tracer is not None:
            self._tracer.unit = self._pending[0] if self._pending else None

    def on_unit_start(self, unit: RunUnit, index: int, total: int) -> None:
        self._pending.append(unit.content_hash)
        self._name_unit()
        self._mark = time.perf_counter()

    def on_unit_complete(self, unit: RunUnit, result, cached: bool) -> None:
        if cached:
            return
        now = time.perf_counter()
        self.times.append(now - self._mark)
        self._mark = now
        self._pending.remove(unit.content_hash)
        self._name_unit()


@dataclass
class Sweep:
    """One cold sweep into a fresh store, plus its warm passes."""

    sweep_s: float
    unit_times: list[float]
    warm_pass_s: list[float]
    stored: dict[str, bytes]
    results: list[Any]
    start: float
    end: float
    warm_start: float
    warm_end: float
    units_computed: int
    units_cached: int


def run_sweep(
    plan: ExperimentPlan,
    units: list[RunUnit],
    store_dir: Path,
    checker: Checker,
    *,
    tracer: Tracer | None = None,
    warm_passes: int = _WARM_MIN_PASSES,
    warm_share: float = _WARM_SHARE,
) -> tuple[Sweep | None, dict[str, str]]:
    """Cold sweep, checks, then warm passes; the store is removed afterwards."""
    gc.collect()
    n_units = len(units)
    try:
        store = RunStore(store_dir)
        clock = UnitClock(tracer)
        start = time.perf_counter()
        execution = plan.execute(store, observer=clock)
        end = time.perf_counter()
        stored, bad = checker.cold(execution, store)
        warm: list[float] = []
        warm_start = time.perf_counter()
        units_cached = 0
        warm_until = warm_start + warm_share * (end - start)
        while len(warm) < warm_passes or time.perf_counter() < warm_until:
            t0 = time.perf_counter()
            warm_execution = plan.execute(store)
            warm.append(time.perf_counter() - t0)
            if len(warm) == 1:
                units_cached = warm_execution.n_cached
                checker.warm(warm_execution, stored, bad)
        warm_end = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a failing sweep is a measured outcome
        checker.crashed(n_units, exc)
        return None, {}
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    sweep = Sweep(
        sweep_s=end - start,
        unit_times=clock.times,
        warm_pass_s=warm,
        stored=stored,
        results=list(execution.results),
        start=start,
        end=end,
        warm_start=warm_start,
        warm_end=warm_end,
        units_computed=execution.n_computed,
        units_cached=units_cached,
    )
    return sweep, bad


# --------------------------------------------------------------------------- #
# set-up time
# --------------------------------------------------------------------------- #
class Dispatched(Exception):
    """Raised by :class:`StopAtDispatch` to end a set-up probe."""


class StopAtDispatch(PlanObserver):
    def on_unit_start(self, unit, index, total) -> None:
        raise Dispatched


def probe_setup(workload: str, seed: int, tiny: bool, store_dir: Path) -> float:
    """Build the plan and execute it until the first unit is dispatched.

    Runs in a fresh interpreter (see :func:`setup_seconds`); returns the wall
    clock at dispatch.
    """
    plan = ExperimentPlan.from_specs(build_specs(workload, seed, tiny=tiny))
    try:
        plan.execute(RunStore(store_dir), observer=StopAtDispatch())
    except Dispatched:
        return time.time()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    raise RuntimeError("the plan dispatched no unit")


def setup_seconds(run_py: Path, workload: str, seed: int, tiny: bool, work_dir: Path, n_probes: int) -> list[float]:
    """Process start to first dispatch, in ``n_probes`` fresh interpreters."""
    out = []
    for index in range(n_probes):
        command = [
            sys.executable, str(run_py), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--store", str(work_dir / f"probe{index}"),
        ]
        if tiny:
            command.append("--tiny")
        start = time.time()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return out


# --------------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------------- #
def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunOutput:
    metrics: dict[str, float]
    units: dict[str, str]
    checker: Checker
    lines: list[str]


def timed_run(
    workload: str, seed: int, seconds: float, tiny: bool, work_dir: Path, run_py: Path, n_probes: int
) -> RunOutput:
    """The end-to-end metrics, with tracing off."""
    specs = build_specs(workload, seed, tiny=tiny)
    plan = ExperimentPlan.from_specs(specs)
    units = plan.units()
    pins, pin_note = load_pins(workload, seed, tiny)
    checker = Checker(pins=pins)
    setup = setup_seconds(run_py, workload, seed, tiny, work_dir, n_probes)

    sweeps: list[Sweep] = []
    deadline = time.perf_counter() + seconds
    while True:
        sweep, bad = run_sweep(plan, units, work_dir / f"store{len(sweeps)}", checker)
        if sweep is not None:
            checker.settle(len(units), bad)
            sweeps.append(sweep)
        if time.perf_counter() >= deadline:
            break

    unit_times = [t for s in sweeps for t in s.unit_times]
    sweep_times = [s.sweep_s for s in sweeps]
    warm_ms = [1000.0 * t / len(units) for s in sweeps for t in s.warm_pass_s]
    metrics = {
        "setup_s": _median(setup),
        "unit_s": _median(unit_times),
        "sweep_s": _median(sweep_times),
        "warm_unit_ms": _median(warm_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"pins: {pin_note}",
        f"setup_s {_spread(setup)}",
        f"unit_s {_spread(unit_times)}",
        f"sweep_s {_spread(sweep_times)} ({len(units)} units per sweep)",
        f"warm_unit_ms {_spread(warm_ms)}",
    ]
    return RunOutput(metrics, END_TO_END_UNITS, checker, lines)


def traced_run(workload: str, seed: int, seconds: float, tiny: bool, work_dir: Path) -> RunOutput:
    """The per-layer metrics: untraced and traced cold sweeps, alternating."""
    specs = build_specs(workload, seed, tiny=tiny)
    plan = ExperimentPlan.from_specs(specs)
    units = plan.units()
    pins, pin_note = load_pins(workload, seed, tiny)
    checker = Checker(pins=pins)

    lower_hash = []
    for _ in range(20):
        t0 = time.perf_counter()
        [unit.content_hash for unit in plan.units()]
        lower_hash.append(time.perf_counter() - t0)

    tracer = Tracer()
    plain: list[Sweep] = []
    traced: list[Sweep] = []
    deadline = time.perf_counter() + seconds
    while True:
        reference, bad = run_sweep(plan, units, work_dir / f"plain{len(plain)}", checker)
        if reference is not None:
            plain.append(reference)
        with tracer:
            sweep, traced_bad = run_sweep(
                plan, units, work_dir / f"traced{len(traced)}", checker, tracer=tracer, warm_passes=1, warm_share=0.0
            )
        if sweep is not None:
            traced.append(sweep)
            if reference is not None:
                checker.same_as_untraced(units, reference.stored, sweep.stored, traced_bad)
        if reference is not None:
            checker.settle(len(units), bad)
        if sweep is not None:
            checker.settle(len(units), traced_bad)
        if time.perf_counter() >= deadline:
            break

    metrics, table = layer_metrics(tracer.spans, plain, traced, len(units), _median(lower_hash))
    lines = [f"pins: {pin_note}", *table]
    spans_path = work_dir.parent / "spans" / f"{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    return RunOutput(metrics, PER_LAYER_UNITS, checker, lines)


def layer_metrics(
    spans: list[Span], plain: list[Sweep], traced: list[Sweep], n_units: int, lower_hash_s: float
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the per-stage table from the traced sweeps' spans."""
    if not traced:
        return {name: 0.0 for name in PER_LAYER_UNITS}, ["no traced sweep completed"]
    cold = [s for sweep in traced for s in window(spans, sweep.start, sweep.end)]
    warm = [s for sweep in traced for s in window(spans, sweep.warm_start, sweep.warm_end)]
    computed = len(traced) * n_units
    selfs = self_times(spans)

    def per_unit(values) -> float:
        return float(sum(values)) / computed

    def named(group: list[Span], suffix: str) -> list[Span]:
        return [s for s in group if s.name.endswith(suffix)]

    stage_s = {stage: per_unit(selfs[s.id] for s in cold if s.layer == stage) for stage in STAGES}
    unit_times = [t for sweep in traced for t in sweep.unit_times]
    base = per_unit(unit_times)
    simulations = named(cold, ".run_simulation_only")
    particle_steps = sum(s.note["sample_steps"] * s.note["n_particles"] for s in simulations)
    rmse = [float(r.measurement.alignment_rmse.mean()) for sweep in traced for r in sweep.results]
    overhead = [
        sweep.sweep_s - sum(s.duration for s in named(window(spans, sweep.start, sweep.end), ".run_experiment"))
        for sweep in traced
    ]
    plain_unit = _median([t for sweep in plain for t in sweep.unit_times])

    metrics = {
        "alignment.align_s": stage_s["align"],
        "alignment.share": stage_s["align"] / base,
        "alignment.samples": per_unit(s.note["rows"] for s in named(cold, ".align_snapshot")),
        "alignment.icp_align_calls": per_unit(1 for _ in named(cold, "TypeAwareICP.align")),
        "alignment.torus_align_calls": per_unit(1 for _ in named(cold, "TorusAligner.align")),
        "alignment.nn_calls": per_unit(1 for _ in named(cold, ".nearest_neighbor_correspondence")),
        "alignment.nn_s": per_unit(s.duration for s in named(cold, ".nearest_neighbor_correspondence")),
        "alignment.assign_calls": per_unit(1 for _ in named(cold, ".assignment_correspondence")),
        "alignment.assign_s": per_unit(s.duration for s in named(cold, ".assignment_correspondence")),
        "alignment.kabsch_s": per_unit(s.duration for s in named(cold, ".kabsch_2d")),
        "alignment.rmse_mean": statistics.fmean(rmse),
        "particles.simulate_s": stage_s["simulate"],
        "particles.share": stage_s["simulate"] / base,
        "particles.sample_steps": per_unit(s.note["sample_steps"] for s in simulations),
        "particles.ns_per_particle_step": 1e9 * stage_s["simulate"] * computed / max(particle_steps, 1),
        "cluster.observe_s": stage_s["observe"],
        "cluster.kmeans_calls": per_unit(1 for _ in named(cold, ".kmeans")),
        "infotheory.ksg_s": per_unit(s.duration for s in named(cold, ".ksg_multi_information")),
        "infotheory.ksg_calls": per_unit(1 for _ in named(cold, ".ksg_multi_information")),
        "infotheory.kl_s": per_unit(s.duration for s in named(cold, ".kozachenko_leonenko_entropy")),
        "infotheory.kl_calls": per_unit(1 for _ in named(cold, ".kozachenko_leonenko_entropy")),
        "io.save_s": per_unit(s.duration for s in named(cold, ".save")),
        "io.saves": per_unit(1 for _ in named(cold, ".save")),
        "io.bytes_written": per_unit(s.note["bytes"] for s in named(cold, ".save")),
        "io.load_s": per_unit(s.duration for s in named(warm, ".load")),
        "io.loads": per_unit(1 for _ in named(warm, ".load")),
        "io.has_calls": per_unit(1 for _ in named(cold, ".has")),
        "io.lease_calls": per_unit(1 for s in cold if "_lease" in s.name),
        "core.plan_overhead_s": _median(overhead),
        "core.lower_hash_s": lower_hash_s,
        "core.units_computed": float(min(sweep.units_computed for sweep in traced)),
        "core.units_cached": float(min(sweep.units_cached for sweep in traced)),
        "trace.unit_s": base,
        "trace.overhead_frac": _median(unit_times) / plain_unit - 1.0 if plain_unit else 0.0,
    }

    other = base - sum(stage_s.values())
    table = [
        f"per-stage table: base unit_s = {base:.6g} s (traced mean over {computed} computed units)",
        f"  {'stage':<9} {'s/unit':>10} {'share':>7}",
    ]
    for stage, seconds in [*stage_s.items(), ("other", other)]:
        table.append(f"  {stage:<9} {seconds:>10.4f} {seconds / base:>7.1%}")
    return metrics, table
