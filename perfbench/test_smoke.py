"""Smoke self-check of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric of BENCHMARK.json with its unit and
pass all of its output checks; one seed must give the same inputs and counts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "MiB")

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run(workload, trace, seed=1, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--size", "toy"],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_every_check_passes(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["fit", "explore"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] in COUNT_UNITS]
    assert any(first[name]["value"] for name in counts)
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_same_seed_writes_byte_identical_inputs(tmp_path):
    import gen

    for attempt in ("a", "b"):
        out = tmp_path / attempt
        out.mkdir()
        gen.fit_inputs(out, 7, 200, 16, 4, 6, 300, 50, 0.1)
        gen.catalog_inputs(out, 7, 100, 8, 3)
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name


def test_a_removed_layer_is_reported_absent(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + [
        ("metric.gone", "stylemetric.metric", "no_such_kernel", {"metric.gone.rows": len}),
    ])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {"metric.gone", "metric.gone.rows"} <= tracer.absent


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("fit", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
