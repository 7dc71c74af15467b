"""Regenerate ``pins.json``: the committed documents of every workload at the default seed.

Run from the root of a source checkout, only when a workload's specs or the
program's results are meant to change::

    python3 perfbench/pin.py

The pins hold, per unit content hash, the sha256 of the stored document and
its ΔI, together with the platform they were computed on (see
:func:`bench.platform_key`).
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, cap_threads, use_checkout_source


def main() -> int:
    cap_threads()
    use_checkout_source()
    import bench
    from repro.core.plan import ExperimentPlan
    from repro.io.artifacts import RunStore
    from workloads import DEFAULT_SEED, WORKLOADS, build_specs

    pins = {"platform": bench.platform_key(), "seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        store_dir = ROOT / ".perfbench_work" / f"pin-{name}"
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            store = RunStore(store_dir)
            execution = ExperimentPlan.from_specs(build_specs(name, DEFAULT_SEED)).execute(store)
            pins["workloads"][name] = {
                unit.content_hash: {
                    "name": unit.name,
                    "sha256": bench.document_digest(store.path_for(unit).read_bytes()),
                    "delta_I": result.delta_multi_information,
                }
                for unit, result in zip(execution.units, execution.results)
            }
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        print(f"{name}: {len(pins['workloads'][name])} unit(s) pinned")
    bench.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
