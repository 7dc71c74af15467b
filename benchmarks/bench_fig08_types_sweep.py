"""Figure 8 — increase of multi-information vs number of types (F2, random matrices).

The paper sweeps the number of types l = 1…10 for a 20-particle collective
under the F2 force with randomly drawn preferred-distance matrices
(r_αβ ∈ [1, 5]) and reports the increase ΔI between t = 0 and t = 250,
averaged over 10 random draws.  The observed trend: ΔI decreases as the
number of types grows.  The benchmark regenerates the sweep (fewer repeats
and sweep points at reduced scale) and checks the downward trend.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiments import fig8_type_sweep_plan
from repro.viz import bar_chart, save_series_csv

from bench_common import announce, mean_by_key, run_spec

#: Sweep points used at reduced scale (the full run covers 1..10).
REDUCED_TYPE_COUNTS = (1, 2, 4, 6, 8, 10)


def _run_sweep(full_scale: bool) -> dict[tuple[int, int], float]:
    n_types_values = range(1, 11) if full_scale else REDUCED_TYPE_COUNTS
    deltas: dict[tuple[int, int], float] = {}
    for spec in fig8_type_sweep_plan(full=full_scale, n_types_values=n_types_values).specs():
        result = run_spec(spec)
        repeat = int(spec.name.rsplit("rep", 1)[1])
        deltas[(spec.simulation.n_types, repeat)] = result.delta_multi_information
    return deltas


def test_fig08_delta_vs_number_of_types(benchmark, output_dir, full_scale):
    deltas = benchmark.pedantic(_run_sweep, args=(full_scale,), rounds=1, iterations=1)

    averaged = mean_by_key(deltas, lambda key: key[0])
    type_counts = np.asarray(sorted(averaged))
    mean_delta = np.asarray([averaged[l] for l in type_counts])
    save_series_csv(
        output_dir / "fig08_types_sweep.csv",
        {"n_types": type_counts, "mean_delta_multi_information_bits": mean_delta},
    )
    announce(
        "Fig. 8 — ΔI vs number of types (F2, random matrices)",
        bar_chart({f"l={l}": averaged[l] for l in type_counts}, title="Mean ΔI (bits)"),
    )
    benchmark.extra_info.update({f"delta_l{l}": round(averaged[l], 3) for l in type_counts})

    # Shape check: the trend over the sweep is downward — few-type collectives
    # gain more multi-information than many-type collectives under F2.
    slope = np.polyfit(type_counts, mean_delta, deg=1)[0]
    assert slope < 0.05
    few = mean_delta[: len(mean_delta) // 2].mean()
    many = mean_delta[len(mean_delta) // 2 :].mean()
    assert few > many - 0.2
