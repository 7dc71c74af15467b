"""Domain density sweep — wrapped drift evaluation across torus densities.

A fixed 2-type collective on the periodic torus, swept over box sides so the
global density ``n / L²`` ranges from dilute to packed.  For every density
the ensemble ``drift_batch`` hot path is timed through the dense broadcast
kernel (minimum-image displacements) and the sparse engine's modular-hash
cell list (one vectorised query over the whole ``(m, n, 2)`` snapshot).  The
check asserts both engines stay bit-identical on the torus and that the
sparse cell list beats the dense broadcast in the dilute regime the sparse
engine exists for.

Results land in ``benchmarks/output/domain_density.json`` so the wrapped hot
path stays measurable across PRs, next to the free-space series of
``bench_engine_scaling.py``.

Run it through pytest (``pytest benchmarks/bench_domain_density.py -m bench``,
add ``--bench-quick`` for the smoke-test sweep) or directly::

    PYTHONPATH=src python benchmarks/bench_domain_density.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.particles.domain import PeriodicDomain, get_domain
from repro.particles.engine import make_engine, resolve_engine
from repro.particles.init_conditions import uniform_box_ensemble
from repro.particles.types import InteractionParams
from repro.viz import save_json

from bench_common import announce, timings_series

CUTOFF = 2.0
N_PARTICLES = 1000
N_PARTICLES_QUICK = 300
#: Box sides giving densities from packed (~2.8 per unit area) to dilute.
FULL_BOXES = (19.0, 38.0, 75.0, 150.0)
QUICK_BOXES = (11.0, 55.0)
BATCH_SAMPLES = 8
BATCH_SAMPLES_QUICK = 4
#: The dense broadcast materialises (m, n, n) matrices; cap n for it.
DENSE_BATCH_MAX_N = 1000


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_timings(batch, n: int, repeats: int, common: dict):
    """Timings dict seeded with the dense broadcast, plus the reference drift.

    The reference is the dense broadcast where its ``(m, n, n)`` workspace
    fits under the size cap, and the brute-force backend one sample at a
    time past it.
    """
    if n <= DENSE_BATCH_MAX_N:
        dense = make_engine("dense", **common)
        timings = {"dense": _best_of(lambda: dense.drift_batch(batch), repeats)}
        return timings, dense.drift_batch(batch)
    brute = make_engine("sparse", neighbors="brute", **common)
    return {}, np.stack([brute.drift(sample) for sample in batch])


def run_density_sweep(
    boxes=FULL_BOXES,
    n: int = N_PARTICLES,
    n_samples: int = BATCH_SAMPLES,
    repeats: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Time one wrapped ensemble ``drift_batch`` per engine/backend per density."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    types = np.repeat([0, 1], [n - n // 2, n // 2])
    rows = []
    for box in boxes:
        domain = PeriodicDomain(box=float(box))
        batch = uniform_box_ensemble(n_samples, n, domain.box, rng)
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF, domain=domain)

        cell = make_engine("sparse", neighbors="cell", **common)
        timings, reference = _reference_timings(batch, n, repeats, common)
        timings["sparse-cell"] = _best_of(lambda: cell.drift_batch(batch), repeats)
        bit_identical = bool(np.array_equal(cell.drift_batch(batch), reference))
        rows.append(
            {
                "box": float(box),
                "n": n,
                "n_samples": n_samples,
                "density": n / float(box) ** 2,
                "cutoff": CUTOFF,
                "auto_engine": resolve_engine(
                    "auto", n_particles=n, cutoff=CUTOFF, domain_radius=float(box) / 2.0
                ),
                "timings_seconds": timings,
                "bit_identical": bit_identical,
                "speedup_cell_vs_dense": (
                    timings["dense"] / timings["sparse-cell"] if "dense" in timings else None
                ),
            }
        )
    return rows


#: Anisotropic/mixed-boundary domains for the additive ``mixed/…`` series.
#: Labels are stable trajectory keys — extend, never rename.
FULL_MIXED_DOMAINS = (
    ("periodic-75x25", "periodic:75,25"),
    ("channel-75x25", "channel:75,25"),
    ("reflecting-75x25", "reflecting:75,25"),
)
QUICK_MIXED_DOMAINS = (
    ("periodic-30x10", "periodic:30,10"),
    ("channel-30x10", "channel:30,10"),
)


def run_mixed_domain_sweep(
    domains=FULL_MIXED_DOMAINS,
    n: int = N_PARTICLES,
    n_samples: int = BATCH_SAMPLES,
    repeats: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Time ``drift_batch`` on anisotropic and mixed-boundary domains.

    Same contract as the torus density sweep: the modular/padded per-axis
    cell list and the dense minimum-image broadcast (the brute-force backend
    past the dense size cap) must agree bit-for-bit; the timings land in the
    additive ``mixed/<label>/<engine>`` trajectory series.
    """
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    types = np.repeat([0, 1], [n - n // 2, n // 2])
    rows = []
    for label, spec in domains:
        domain = get_domain(spec)
        batch = domain.wrap(uniform_box_ensemble(n_samples, n, domain.extents, rng))
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF, domain=domain)

        cell = make_engine("sparse", neighbors="cell", **common)
        timings, reference = _reference_timings(batch, n, repeats, common)
        timings["sparse-cell"] = _best_of(lambda: cell.drift_batch(batch), repeats)
        bit_identical = bool(np.array_equal(cell.drift_batch(batch), reference))
        area = domain.extents[0] * domain.extents[1]
        rows.append(
            {
                "label": label,
                "domain": domain.spec,
                "n": n,
                "n_samples": n_samples,
                "density": n / area,
                "cutoff": CUTOFF,
                "timings_seconds": timings,
                "bit_identical": bit_identical,
                "speedup_cell_vs_dense": (
                    timings["dense"] / timings["sparse-cell"] if "dense" in timings else None
                ),
            }
        )
    return rows


def _format_mixed_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        timings = "  ".join(
            f"{name} {seconds * 1e3:8.2f} ms" for name, seconds in row["timings_seconds"].items()
        )
        speedup = row["speedup_cell_vs_dense"]
        speedup_text = f"cell vs dense ×{speedup:.1f}" if speedup else "dense skipped"
        lines.append(
            f"  {row['domain']:>18s} (density {row['density']:7.4f}): {timings}  "
            f"| {speedup_text}, bit-identical: {row['bit_identical']}"
        )
    return "\n".join(lines)


def _check_mixed(rows: list[dict]) -> None:
    for row in rows:
        assert row["bit_identical"], row


def mixed_trajectory_series(rows: list[dict]) -> dict[str, float]:
    """Additive ``mixed/…`` series keys (never rename the existing density/… keys)."""
    return timings_series(rows, lambda row: f"mixed/{row['label']}")


def _format_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        timings = "  ".join(
            f"{name} {seconds * 1e3:8.2f} ms" for name, seconds in row["timings_seconds"].items()
        )
        speedup = row["speedup_cell_vs_dense"]
        speedup_text = f"cell vs dense ×{speedup:.1f}" if speedup else "dense skipped"
        lines.append(
            f"  L = {row['box']:6.1f} (density {row['density']:7.4f}, auto → "
            f"{row['auto_engine']:6s}): {timings}  | {speedup_text}, "
            f"bit-identical: {row['bit_identical']}"
        )
    return "\n".join(lines)


def _check(rows: list[dict]) -> None:
    # Correctness first: every engine/backend agrees bit-for-bit on the torus.
    for row in rows:
        assert row["bit_identical"], row
    # Performance: in the dilute regime (lowest density of the sweep) the
    # wrapped cell list must beat the dense minimum-image broadcast — the
    # whole point of carrying the sparse path onto the torus.
    dilute = min(rows, key=lambda row: row["density"])
    if dilute["speedup_cell_vs_dense"] is not None:
        assert dilute["speedup_cell_vs_dense"] > 1.0, dilute


def trajectory_series(rows: list[dict]) -> dict[str, float]:
    """Stable series keys of the recorded domain trajectory (BENCH_domain.json)."""
    return timings_series(rows, lambda row: f"density/L{row['box']:g}")


def test_domain_density(benchmark, output_dir, bench_quick, perf_trajectory):
    boxes = QUICK_BOXES if bench_quick else FULL_BOXES
    n = N_PARTICLES_QUICK if bench_quick else N_PARTICLES
    n_samples = BATCH_SAMPLES_QUICK if bench_quick else BATCH_SAMPLES
    # Best-of-2 in smoke mode too: fresh-process warm-up must not define a
    # recorded trajectory series (see bench_engine_scaling).
    repeats = 2 if bench_quick else 3

    mixed_domains = QUICK_MIXED_DOMAINS if bench_quick else FULL_MIXED_DOMAINS

    def sweep():
        return (
            run_density_sweep(boxes=boxes, n=n, n_samples=n_samples, repeats=repeats),
            run_mixed_domain_sweep(
                domains=mixed_domains, n=n, n_samples=n_samples, repeats=repeats
            ),
        )

    rows, mixed_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_json(
        output_dir / "domain_density.json",
        {"cutoff": CUTOFF, "rows": rows, "mixed_rows": mixed_rows},
    )
    announce("Torus density sweep — wrapped dense vs sparse drift_batch", _format_rows(rows))
    announce(
        "Anisotropic/mixed-boundary sweep — per-axis engines, drift_batch",
        _format_mixed_rows(mixed_rows),
    )
    benchmark.extra_info.update(
        {
            f"L{int(row['box'])}_cell_speedup": round(row["speedup_cell_vs_dense"], 2)
            for row in rows
            if row["speedup_cell_vs_dense"]
        }
    )
    benchmark.extra_info.update(
        {
            f"{row['label']}_cell_speedup": round(row["speedup_cell_vs_dense"], 2)
            for row in mixed_rows
            if row["speedup_cell_vs_dense"]
        }
    )
    _check(rows)
    _check_mixed(mixed_rows)
    perf_trajectory.submit(
        "domain",
        {**trajectory_series(rows), **mixed_trajectory_series(mixed_rows)},
        headline=dict(benchmark.extra_info),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny sweep, single repetition")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "output" / "domain_density.json",
        help="JSON output path",
    )
    args = parser.parse_args(argv)
    n = N_PARTICLES_QUICK if args.quick else N_PARTICLES
    n_samples = BATCH_SAMPLES_QUICK if args.quick else BATCH_SAMPLES
    repeats = 2 if args.quick else 3
    rows = run_density_sweep(
        boxes=QUICK_BOXES if args.quick else FULL_BOXES,
        n=n, n_samples=n_samples, repeats=repeats,
    )
    mixed_rows = run_mixed_domain_sweep(
        domains=QUICK_MIXED_DOMAINS if args.quick else FULL_MIXED_DOMAINS,
        n=n, n_samples=n_samples, repeats=repeats,
    )
    save_json(args.output, {"cutoff": CUTOFF, "rows": rows, "mixed_rows": mixed_rows})
    announce("Torus density sweep — wrapped dense vs sparse drift_batch", _format_rows(rows))
    announce(
        "Anisotropic/mixed-boundary sweep — per-axis engines, drift_batch",
        _format_mixed_rows(mixed_rows),
    )
    print(f"results written to {args.output}")
    _check(rows)
    _check_mixed(mixed_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
