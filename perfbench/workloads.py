"""Workload definitions: each turns a workload seed into a list of experiment specs.

The benchmark hands the specs to :class:`repro.core.plan.ExperimentPlan`
unchanged; nothing in the program knows which workload it is running.  Every
workload is a *figure unit* family — spec → stored ΔI document — at a size
that fits several cold sweeps into one benchmark run, while keeping the
stage shares (simulate / align / observe / estimate / persist) of the
reduced-scale figure it stands for.

``tiny=True`` shrinks every workload to a smoke-test size through the same
code path; the benchmark's self-test uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.experiments import (
    ExperimentSpec,
    fig4_multi_information,
    fig9_radius_sweep_plan,
    params_from_preferred_distances,
)
from repro.core.self_organization import AnalysisConfig
from repro.parallel.rng import derive_seed
from repro.particles.model import SimulationConfig

#: The seed whose committed documents are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Two-type preferred distances shared by the large-sparse and torus workloads
#: (same-type pairs pack tightly, cross-type pairs keep their distance).
_TWO_TYPE_R = [[1.2, 2.5], [2.5, 1.2]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], list[ExperimentSpec]]


def _resize(spec: ExperimentSpec, *, n_samples: int, n_steps: int, step_stride: int) -> ExperimentSpec:
    return spec.with_updates(
        n_samples=n_samples,
        simulation=spec.simulation.with_updates(n_steps=n_steps),
        analysis=replace(spec.analysis, step_stride=step_stride),
    )


def _fig9_sweep(seed: int, tiny: bool) -> list[ExperimentSpec]:
    # Three random-matrix repeats x cut-offs {2.5, inf}: six l = n = 20 units,
    # 16 samples each, three analysed frames.  On a 2-CPU Xeon a unit takes
    # about 0.6 s: align 86 %, simulate 13 %.
    plan = fig9_radius_sweep_plan(full=False, cutoffs=(2.5, None), seed=seed)
    if tiny:
        return [_resize(s, n_samples=6, n_steps=4, step_stride=4) for s in plan.specs()[:2]]
    return [_resize(s, n_samples=16, n_steps=40, step_stride=20) for s in plan.specs()]


def _fig4_unit(seed: int, tiny: bool) -> list[ExperimentSpec]:
    # n = 50 in three types of 16-17, r_c = 5, entropies and cluster observers
    # on; 32 samples, four analysed frames.  About 2.7 s a unit: align 57 %,
    # simulate 33 %, observe 9 %.
    spec = fig4_multi_information(full=False, seed=seed)
    if tiny:
        return [_resize(spec, n_samples=8, n_steps=4, step_stride=4)]
    return [_resize(spec, n_samples=32, n_steps=30, step_stride=10)]


def _two_type_spec(
    name: str,
    seed: int,
    *,
    counts: tuple[int, int],
    cutoff: float,
    domain: str,
    n_samples: int,
    n_steps: int,
    step_stride: int,
    observer_mode: str,
    **simulation: object,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        description=f"benchmark workload {name}",
        simulation=SimulationConfig(
            type_counts=counts,
            params=params_from_preferred_distances(_TWO_TYPE_R, force="F2", k=3.0),
            force="F2",
            cutoff=cutoff,
            domain=domain,
            dt=0.02,
            substeps=5,
            n_steps=n_steps,
            **simulation,
        ),
        n_samples=n_samples,
        analysis=AnalysisConfig(step_stride=step_stride, observer_mode=observer_mode),
        seed=derive_seed(seed, name),
        tags=("perfbench",),
    )


def _large_sparse(seed: int, tiny: bool) -> list[ExperimentSpec]:
    # n = 400 on the free plane with r_c = 3: "auto" resolves to the sparse
    # engine; a stride past the run length analyses only the ΔI endpoints.
    # About 2.8 s a unit: simulate 58 %, align 40 %.
    half = 40 if tiny else 200
    return [
        _two_type_spec(
            "large_sparse",
            seed,
            counts=(half, half),
            cutoff=3.0,
            domain="free",
            n_samples=6 if tiny else 8,
            n_steps=3 if tiny else 30,
            step_stride=100,
            observer_mode="clusters",
            init_radius=12.0,
            neighbor_backend="cell",
        )
    ]


def _torus_unit(seed: int, tiny: bool) -> list[ExperimentSpec]:
    # 20 + 20 particles on a 12 x 12 torus; alignment goes through
    # TorusAligner.  About 1.5 s a unit: align 90 %, simulate 10 %.
    return [
        _two_type_spec(
            "torus_unit",
            seed,
            counts=(6, 6) if tiny else (20, 20),
            cutoff=4.0,
            domain="periodic:12",
            n_samples=6 if tiny else 16,
            n_steps=2 if tiny else 10,
            step_stride=5,
            observer_mode="particles",
        )
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig9-sweep",
            "alignment dominates (4.79 of 5.40 s of a reduced fig9 unit in align_snapshot); "
            "many units exercise store writes cold and reads warm",
            _fig9_sweep,
        ),
        Workload(
            "fig4-unit",
            "every stage does real work; multi-member types bypass a singleton-type "
            "shortcut while per-type NN and Kabsch still run",
            _fig4_unit,
        ),
        Workload(
            "large-sparse",
            "simulation dominates on the sparse engine with the cell backend; 200-member "
            "types show what n^2-per-sample alignment would cost in time or memory",
            _large_sparse,
        ),
        Workload(
            "torus-unit",
            "TorusAligner runs only on wrapped domains (12.9 of 14.1 s of a torus unit); "
            "without it a torus alignment change would not show",
            _torus_unit,
        ),
    )
}


def build_specs(name: str, seed: int, *, tiny: bool = False) -> list[ExperimentSpec]:
    """The specs of workload ``name`` for ``seed`` (same seed, same specs)."""
    return WORKLOADS[name].build(seed, tiny)
