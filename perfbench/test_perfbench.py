"""Self-test of the benchmark, at ``--tiny`` size.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT, use_checkout_source

use_checkout_source()

import bench  # noqa: E402
from tracing import Tracer, trace_points  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_specs  # noqa: E402

from repro.core.plan import ExperimentPlan  # noqa: E402

RUN_PY = Path(__file__).with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert math.isfinite(measured["value"])
        assert any(line.startswith(f"metric {metric['name']} = ") and line.endswith(f" {metric['unit']}") for line in lines)
    checks = next(line for line in lines if line.startswith("correctness: "))
    assert int(checks.split()[1]) > 0
    if trace:
        assert any(line.startswith("per-stage table: base unit_s = ") for line in lines)


def test_correctness_check_fails_units_that_differ_from_their_pins(tmp_path: Path) -> None:
    specs = build_specs("torus-unit", DEFAULT_SEED, tiny=True)
    plan = ExperimentPlan.from_specs(specs)
    units = plan.units()
    wrong = {u.content_hash: {"name": u.name, "sha256": "0" * 64, "delta_I": 0.0} for u in units}
    checker = bench.Checker(pins=wrong)
    sweep, bad = bench.run_sweep(plan, units, tmp_path / "store", checker, warm_passes=1)
    assert sweep is not None
    checker.settle(len(units), bad)
    assert checker.failed == checker.attempted == len(units)
    assert all("digest differs from the pin" in message for message in checker.messages)


def test_pins_match_the_workload_specs() -> None:
    pins = json.loads(bench.PINS_PATH.read_text())
    assert pins["seed"] == DEFAULT_SEED
    for name in WORKLOADS:
        units = ExperimentPlan.from_specs(build_specs(name, DEFAULT_SEED)).units()
        assert set(pins["workloads"][name]) == {u.content_hash for u in units}


def test_benchmark_json_names_the_defined_workloads() -> None:
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


def test_same_seed_gives_the_same_specs() -> None:
    for name in WORKLOADS:
        first = [u.content_hash for u in ExperimentPlan.from_specs(build_specs(name, 5)).units()]
        again = [u.content_hash for u in ExperimentPlan.from_specs(build_specs(name, 5)).units()]
        other = [u.content_hash for u in ExperimentPlan.from_specs(build_specs(name, 6)).units()]
        assert first == again and first != other


def test_tracer_puts_the_originals_back() -> None:
    before = [(owner, attribute, owner.__dict__.get(attribute)) for owner, attribute, *_ in trace_points()]
    with Tracer():
        pass
    assert [(o, a, o.__dict__.get(a)) for o, a, _ in before] == before


def test_fails_without_a_source_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fig4-unit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
