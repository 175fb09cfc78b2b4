"""Self-tests of the benchmark harness at toy sizes.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: the workload-specific end-to-end names each run prints as text.
COMMON = ["setup_s", "peak_rss_mb", "error_rate", "energy"]
TEXT_METRICS = {
    "table7-mid": COMMON + ["solve_s_p50"],
    "pipeline-deep": COMMON + ["solve_s_p50"],
    "stream-churn": COMMON + ["event_ms_p50", "event_ms_p90"],
    "service-churn": COMMON + [
        "visible_ms_p50", "visible_ms_p90", "ack_ms_p90", "read_ms_p90",
    ],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def toy(workload: str, trace: int, *extra: str):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "toy", *extra,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = toy(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert lines[0].startswith("env ")
    for key in ("backend=", "nproc=", "python=", "numpy=", "seed=3"):
        assert key in lines[0]
    text = {line.split()[1]: line.split() for line in lines if line.startswith("metric ")}
    for name in TEXT_METRICS[workload]:
        assert name in text, name
        assert len(text[name]) >= 4, text[name]  # value and unit
    for name in TEXT_METRICS[workload]:
        if re.search(r"_p\d+$", name):
            assert any(field.startswith("n=") for field in text[name])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    lines, result = toy(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload != "service-churn":
        total = next(line for line in lines if line.startswith("span sum"))
        fields = dict(re.findall(r"(\w+)=(-?[\d.]+)", total))
        selfs = float(fields["self_s"])
        unattributed = float(fields["unattributed_s"])
        wall = float(fields["traced_wall_s"])
        # The line prints each figure to 1e-6 s.
        assert selfs + unattributed == pytest.approx(wall, abs=3e-6)
        assert unattributed >= -1e-6
        assert values["traced_wall_s"] > 0
    if workload == "table7-mid":
        assert values["mrf.batched.solve_s"] > 0
        assert values["mrf.backends.calls"] == 0
    if workload == "pipeline-deep":
        assert values["mrf.backends.calls"] > 0
        assert values["core.compile.s"] > 0
        assert values["mrf.batched.solve_s"] == 0
    if workload == "stream-churn":
        assert values["stream.incremental.solve_s"] > 0
        assert 0 < values["stream.incremental.warm_frac"] <= 1
    if workload == "service-churn":
        assert values["service.solves"] > 0
        assert values["service.wal_appends"] > 0


@pytest.mark.parametrize("workload", ["table7-mid", "stream-churn"])
def test_corrupted_assignment_fails_the_check(workload):
    lines, result = toy(workload, 0, "--corrupt")
    assert result["correct"] is False
    assert result["failed"] > 0
    rate = next(line for line in lines if line.startswith("metric error_rate"))
    assert float(rate.split()[2]) > 0


def test_energy_check_catches_a_wrong_energy():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import check_assignment

    from repro.core.diversify import diversify
    from repro.network.topologies import chain_network
    from repro.nvd.similarity import SimilarityTable

    network = chain_network(6)
    table = SimilarityTable(products=["p0", "p1"])
    table.set("p0", "p1", 0.4)
    result = diversify(network, table, fast_path=False)
    assert check_assignment(network, table, result.assignment, result.energy) == []
    wrong = check_assignment(network, table, result.assignment, result.energy + 0.1)
    assert wrong and "recomputed" in wrong[0]


def test_span_self_times_add_up_to_wall_time():
    sys.path.insert(0, str(HERE))
    from spans import SpanRecorder

    recorder = SpanRecorder()

    def leaf():
        return sum(range(2000))

    inner = recorder.wrap("inner", lambda: [leaf() for _ in range(3)])
    outer = recorder.wrap("outer", lambda: (inner(), inner(), leaf()))
    outer()
    outer()
    assert recorder.calls == {"outer": 2, "inner": 4}
    assert recorder.covered_s() == pytest.approx(recorder.total_s["outer"])
    assert recorder.self_s["outer"] == pytest.approx(
        recorder.total_s["outer"] - recorder.total_s["inner"]
    )
    assert recorder.nested_s[("outer", "inner")] == pytest.approx(
        recorder.total_s["inner"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "table7-mid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_matches_the_harness():
    sys.path.insert(0, str(HERE))
    import run

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.PROCESSES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_stream_latency_is_the_fastest_time_of_each_event():
    sys.path.insert(0, str(HERE))
    import run

    children = [
        {"samples": [3.0, 1.0, 5.0]},
        {"samples": [2.0, 4.0]},
        {"samples": [6.0, 2.0, 1.0, 9.0]},
    ]
    # Only the positions every child reached count.
    assert run.best_per_event(children) == [2.0, 1.0]
