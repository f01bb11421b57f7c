"""Tiny-size smoke test of the benchmark.

    python -m pytest bench/test_smoke.py

Runs every workload untraced and traced on inputs far smaller than the
real ones, and checks that every declared metric is emitted with its
unit, that every correctness gate passes, and that the benchmark refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

TINY = {
    "census": {"draws": 12},
    "continuation": {"ed_steps": 21, "g_steps": 11},
    "cli": {"points": 201, "steps": 21},
}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_are_the_emitted_ones():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == bench.PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    bench.import_package()
    wl = bench.make_workload(workload, seed=3, sizes=TINY[workload])
    result, record, _ = bench.run(wl, 3, 0.1, trace, setup_main=0.1, setup_probes=1)
    declared = bench.END_TO_END if trace == 0 else bench.PER_LAYER
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert result["correct"], record["tally"]["wrong_examples"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    json.dumps(result)
    if trace == 0:
        for name in ("setup_s", "throughput", "latency_ms", "tail_ms", "ok_ratio"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["dispersion.discrete_states.calls"]["value"] >= 1


@pytest.mark.parametrize("workload", ("census", "continuation"))
def test_attempted_and_failed_depend_on_the_seed_alone(workload):
    bench.import_package()
    counts = []
    for seconds in (0.0, 0.5):
        wl = bench.make_workload(workload, seed=3, sizes=TINY[workload])
        result, _, _ = bench.run(wl, 3, seconds, 0, setup_main=0.1, setup_probes=0)
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
