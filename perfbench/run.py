"""Figure-unit benchmark of the ``repro`` pipeline: spec -> stored ΔI document.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig9-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a separate traced run and prints the
per-stage table.  Both check every unit they compute.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {"unit_s": {"value": 0.57, "unit": "s"}, ...}}

``--tiny`` runs every workload at smoke-test size through the same code path
(the self-test in ``test_perfbench.py`` uses it).  BLAS and OpenMP threads
are capped at the CPUs this process may use; units run serially in this
process.  Scratch stores live under ``.perfbench_work/`` in the checkout and
are removed at the end; span dumps are kept under ``.perfbench_work/spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at ``nproc``; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for name in THREAD_VARIABLES:
        current = os.environ.get(name, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[name] = caps[name] = str(value)
    return caps


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def fingerprint(caps: dict[str, str]) -> dict[str, object]:
    import platform

    import numpy as np
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": caps,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, same code path")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    caps = cap_threads()
    use_checkout_source()
    args = parse_args(argv)
    import bench

    if args.setup_probe:
        print(repr(bench.probe_setup(args.workload, args.seed, args.tiny, args.store)))
        return 0

    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        if args.trace:
            out = bench.traced_run(args.workload, args.seed, args.seconds, args.tiny, work_dir)
        else:
            out = bench.timed_run(
                args.workload, args.seed, args.seconds, args.tiny, work_dir,
                run_py=Path(__file__).resolve(), n_probes=1 if args.tiny else 3,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checker = out.checker
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"fingerprint {json.dumps(fingerprint(caps), sort_keys=True)}")
    for line in out.lines:
        print(line)
    for name, value in out.metrics.items():
        print(f"metric {name} = {value:.6g} {out.units[name]}")
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(
        f"correctness: {checker.checks} checks on {checker.attempted} attempted units, "
        f"{checker.failed} failed (failed_frac = {failed_frac:.6g})"
    )
    for message in checker.messages[:20]:
        print(f"  failed: {message}")
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": out.units[name]} for name, value in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
