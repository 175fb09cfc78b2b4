"""End-to-end benchmark: diversify, one streaming event, one service event.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload table7-mid --seed 1 --seconds 8 --trace 0

Workloads: ``table7-mid``, ``pipeline-deep``, ``stream-churn`` and
``service-churn`` (README.md says why each was chosen and which metric
each layer should move).  The benchmark builds every input from
``--seed`` and hands the program only those inputs; it checks every
result.  Human-readable lines come first (run environment, every metric
with its unit and sample count); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

Set-up is sampled once per child process (in-process workloads) or per
server (service-churn); each of them also runs its share of the
``--seconds`` of operations, and the samples are pooled; stream-churn
keeps the fastest of each event's times instead (``best_per_event``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up samples (child processes or servers) per run, per workload.
PROCESSES = {
    "table7-mid": 3,
    "pipeline-deep": 2,
    "stream-churn": 3,
    "service-churn": 3,
}
#: stream-churn events per child and per second of ``--seconds``: every
#: child replays the same trace prefix, and three children of this many
#: events take about ``--seconds`` on a 2-vCPU host.
STREAM_EVENTS_PER_SECOND = 6
#: a run must end within this many seconds, children included.
RUN_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "energy_ratio": "ratio",
}
IN_PROCESS_LAYERS = {
    "core.diversify.self_s": "s",
    "mrf.batched.build_s": "s",
    "mrf.batched.solve_s": "s",
    "core.compile.s": "s",
    "mrf.sharded.solve_plan_s": "s",
    "mrf.sharded.solve_plan_self_s": "s",
    "mrf.trws.solve_s": "s",
    "mrf.trws.iterations": "count",
    "mrf.trws.dispatch_s": "s",
    "mrf.backends.calls": "count",
    "mrf.backends.s": "s",
    "mrf.vectorized.greedy_s": "s",
    "mrf.vectorized.greedy_calls": "count",
    "mrf.vectorized.icm_s": "s",
    "mrf.vectorized.icm_calls": "count",
    "network.decode_s": "s",
    "stream.plan.apply_s": "s",
    "stream.plan.flush_s": "s",
    "stream.plan.rebuild_s": "s",
    "stream.incremental.solve_s": "s",
    "stream.incremental.warm_frac": "ratio",
    "stream.incremental.escalations.cost_jump": "ratio",
    "stream.incremental.escalations.stranded": "ratio",
    "stream.incremental.escalations.node_churn": "ratio",
    "stream.incremental.escalations.edge_churn": "ratio",
    "stream.incremental.escalations.mask_churn": "ratio",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}
SERVICE_LAYERS = {
    "service.ack_ms_p50": "ms",
    "service.read_ms_p50": "ms",
    "service.backlog_max": "count",
    "service.solves": "count",
    "service.events_per_solve": "count",
    "service.solve_s_mean": "s",
    "service.escalations.cost_jump": "count",
    "service.escalations.stranded": "count",
    "service.escalations.node_churn": "count",
    "service.escalations.edge_churn": "count",
    "service.escalations.mask_churn": "count",
    "service.wal_appends": "count",
}
PER_LAYER = {**IN_PROCESS_LAYERS, **SERVICE_LAYERS}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------ statistics


def percentile(values, share: float) -> float:
    """The ``share`` quantile, interpolated between the order statistics
    around it (the median for 0.5; NumPy's default "linear" rule)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    if share == 0.5:
        return statistics.median(ordered)
    return statistics.quantiles(ordered, n=10, method="inclusive")[round(share * 10) - 1]


def beyond(values, value: float) -> int:
    """Samples above ``value``."""
    return sum(1 for sample in values if sample > value)


def line(name: str, value: float, unit: str, note: str = "") -> None:
    """One human-readable metric line."""
    print(f"metric {name:<44} {value:>14.6f} {unit:<6} {note}".rstrip())


def latency_line(name: str, samples, share: float, unit: str, scale: float) -> None:
    """A percentile line with its sample count and the samples beyond it."""
    value = percentile(samples, share)
    line(name, value * scale, unit,
         f"n={len(samples)} beyond={beyond(samples, value)}")


# ------------------------------------------------------------ environment


def prepare_environment() -> dict:
    """Keep every file the program writes inside the checkout."""
    work = ROOT / ".perfbench"
    for sub in ("kernels", "tmp", "traces", "logs"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    settings = {
        "REPRO_KERNEL_CACHE": str(work / "kernels"),
        "TMPDIR": str(work / "tmp"),
    }
    os.environ.update(settings)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    python_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + python_path if python_path else "")
    return env


def describe_environment(seed: int, workload: str, trace: int) -> None:
    """Print what the numbers depend on.  Resolving the backend here also
    builds the disk-cached native kernels once, before any timing."""
    import numpy

    from repro.mrf.backends import resolve_backend

    backend = resolve_backend()
    print(
        f"env workload={workload} seed={seed} trace={trace} "
        f"backend={backend.describe()} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"REPRO_BACKEND={os.environ.get('REPRO_BACKEND', '') or 'auto'}"
    )


# --------------------------------------------------- in-process workloads


def run_child(args, child: int, budget: float, env, deadline: float) -> dict:
    """One ``inproc.py`` child: returns its DONE record plus ``setup_s``."""
    work = ROOT / ".perfbench"
    command = [
        sys.executable, str(HERE / "inproc.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", repr(budget),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    if args.workload == "stream-churn" and not args.trace:
        command += ["--count", str(round(STREAM_EVENTS_PER_SECOND * args.seconds))]
    if args.trace:
        command += ["--trace-out", str(work / "traces" / f"{args.workload}.json")]
    if args.corrupt:
        command.append("--corrupt")
    log_path = work / "logs" / f"{args.workload}-{child}.log"
    with open(log_path, "w") as log:
        spawned = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, text=True, env=env
        )
        watchdog = threading.Timer(
            max(5.0, deadline - time.perf_counter()), process.kill
        )
        watchdog.start()
        ready = done = None
        ready_at = 0.0
        try:
            for line in process.stdout:
                if line.startswith("READY "):
                    ready_at = time.perf_counter()
                    ready = json.loads(line[6:])
                elif line.startswith("DONE "):
                    done = json.loads(line[5:])
        finally:
            watchdog.cancel()
            process.stdout.close()
            process.wait()
    if ready is None or done is None or process.returncode != 0:
        tail = log_path.read_text()[-2000:]
        return {"error": f"child {child} exited {process.returncode}: {tail}"}
    # Input generation is the benchmark's, not the program's set-up.
    done["setup_s"] = ready_at - spawned - ready["gen_s"]
    return done


def run_in_process(args, env):
    """Returns (attempted, failed, JSON metric values)."""
    processes = 1 if args.trace else PROCESSES[args.workload]
    deadline = time.perf_counter() + RUN_TIMEOUT
    children = [
        run_child(args, child, args.seconds / processes, env, deadline)
        for child in range(processes)
    ]
    errors = [child["error"] for child in children if "error" in child]
    children = [child for child in children if "error" not in child]
    attempted = sum(child["attempted"] for child in children) + len(errors)
    failed = sum(child["failed"] for child in children) + len(errors)
    for problem in errors + [p for c in children for p in c["problems"]][:10]:
        print(f"problem {problem}")
    if not children:
        return max(1, attempted), max(1, failed), {}

    samples = [s for child in children for s in child["samples"]]
    if args.workload == "stream-churn" and not args.trace:
        samples = best_per_event(children)
    energies = [child["energy"] for child in children]
    ratios = [child["energy_ratio"] for child in children]
    setups = [child["setup_s"] for child in children]
    rss = [child["rss_mb"] for child in children]
    line("setup_s", statistics.median(setups), "s", f"n={len(setups)}")
    line("peak_rss_mb", statistics.median(rss), "MB", f"n={len(rss)}")
    line("error_rate", failed / max(1, attempted), "ratio",
         f"failed={failed} attempted={attempted}")
    line("energy", statistics.median(energies), "E(N)",
         "final E(N)" if args.workload == "stream-churn" else "")
    line("energy_ratio", statistics.median(ratios), "ratio",
         "E(N) / E(N) of a cold re-solve" if args.workload == "stream-churn"
         else "E(N) / E(N) of a uniformly random assignment")
    # Traced latencies include the recorder's cost, so only plain runs
    # print them.
    if not args.trace and args.workload == "stream-churn":
        latency_line("event_ms_p50", samples, 0.5, "ms", 1e3)
        latency_line("event_ms_p90", samples, 0.9, "ms", 1e3)
    elif not args.trace:
        latency_line("solve_s_p50", samples, 0.5, "s", 1.0)

    if args.trace:
        done = children[0]
        layers = {**{name: 0.0 for name in SERVICE_LAYERS}, **done["layers"]}
        print_spans(done, layers)
        for name, unit in PER_LAYER.items():
            line(name, layers[name], unit, "per operation")
        return attempted, failed, layers
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(samples, 0.5) * 1e3,
        "op_ms_p90": percentile(samples, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(rss),
        "energy_ratio": statistics.median(ratios),
    }


def best_per_event(children) -> list:
    """Per trace position, the fastest time among the children.

    Every stream-churn child replays the same trace from the same start,
    seconds after the one before it, so each event is timed once per
    child at a different moment; the fastest of those times is the
    event's cost with the least interference from the rest of the host.
    Only the positions every child reached are kept.
    """
    reached = min(len(child["samples"]) for child in children)
    return [
        min(child["samples"][position] for child in children)
        for position in range(reached)
    ]


def print_spans(done: dict, layers: dict) -> None:
    """Self-time table of the traced run and the sum it must satisfy."""
    ops = done["ops"]
    print(f"spans per operation over {ops} traced operation(s)")
    for name, row in sorted(
        done["spans"].items(), key=lambda item: -item[1]["self_s"]
    ):
        print(
            f"span {name:<28} calls={row['calls']:<12.6g} "
            f"total_s={row['total_s']:<12.6f} self_s={row['self_s']:.6f}"
        )
    selfs = sum(row["self_s"] for row in done["spans"].values())
    print(
        f"span sum self_s={selfs:.6f} + unattributed_s="
        f"{layers['unattributed_s']:.6f} = {selfs + layers['unattributed_s']:.6f}"
        f" (traced_wall_s={layers['traced_wall_s']:.6f}); "
        f"trace_overhead_s={layers['trace_overhead_s']:.6f}"
    )


# ------------------------------------------------------------ the service


def run_service(args, env):
    """Returns (attempted, failed, JSON metric values)."""
    import service

    servers = PROCESSES["service-churn"]
    work = ROOT / ".perfbench" / "tmp"
    runs = []
    errors = []
    for index in range(servers):
        try:
            runs.append(
                service.run_server(
                    args.seed, index, args.seconds / servers, args.size, work,
                    env,
                )
            )
        except (RuntimeError, OSError) as problem:
            errors.append(f"server {index}: {problem}")
    attempted = sum(run["attempted"] for run in runs) + len(errors)
    failed = sum(run["failed"] for run in runs) + len(errors)
    for problem in errors + [p for run in runs for p in run["problems"]][:10]:
        print(f"problem {problem}")
    if not runs:
        return max(1, attempted), max(1, failed), {}

    visible = [s for run in runs for s in run["visible_s"]]
    acks = [s for run in runs for s in run["ack_s"]]
    reads = [s for run in runs for s in run["read_s"]]
    setups = [run["setup_s"] for run in runs]
    rss = [run["rss_mb"] for run in runs]
    ratios = [run["energy_ratio"] for run in runs]
    line("setup_s", statistics.median(setups), "s", f"n={len(setups)}")
    line("peak_rss_mb", statistics.median(rss), "MB",
         f"n={len(rss)} server VmHWM")
    line("error_rate", failed / max(1, attempted), "ratio",
         f"failed={failed} attempted={attempted}")
    line("energy", statistics.median(run["energy"] for run in runs),
         "E(N)", "final view")
    line("energy_ratio", statistics.median(ratios), "ratio",
         "E(N) / E(N) of a cold re-solve")
    if not visible:
        return attempted, max(1, failed), {}
    latency_line("visible_ms_p50", visible, 0.5, "ms", 1e3)
    latency_line("visible_ms_p90", visible, 0.9, "ms", 1e3)
    latency_line("ack_ms_p90", acks, 0.9, "ms", 1e3)
    latency_line("read_ms_p90", reads, 0.9, "ms", 1e3)

    solves = sum(run["solves"] for run in runs)
    events = sum(run["events_applied"] for run in runs)
    acked = sum(run["acked"] for run in runs)
    per_event = sum(run["window_s"] for run in runs) / max(1, acked)
    layers = {name: 0.0 for name in IN_PROCESS_LAYERS}
    layers.update({
        "service.ack_ms_p50": percentile(acks, 0.5) * 1e3,
        "service.read_ms_p50": percentile(reads, 0.5) * 1e3,
        "service.backlog_max": max(run["backlog_max"] for run in runs),
        "service.solves": solves,
        "service.events_per_solve": events / solves if solves else 0.0,
        "service.solve_s_mean": (
            sum(run["solve_seconds"] for run in runs) / solves if solves else 0.0
        ),
        "service.wal_appends": sum(run["wal_appends"] for run in runs),
        # Nothing in the server is spanned from outside: all of its time
        # is unattributed, per event.
        "unattributed_s": per_event,
        "traced_wall_s": per_event,
    })
    for reason in service.ESCALATIONS:
        layers[f"service.escalations.{reason}"] = sum(
            run["escalations"][reason] for run in runs
        )
    for name, unit in SERVICE_LAYERS.items():
        line(name, layers[name], unit)
    if args.trace:
        return attempted, failed, layers
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(visible, 0.5) * 1e3,
        "op_ms_p90": percentile(visible, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(rss),
        "energy_ratio": statistics.median(ratios),
    }


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the harness self-test sizes")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test hook: damage every in-process result "
                        "before its check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro under {ROOT}: run from a checkout of the repository")

    env = prepare_environment()
    describe_environment(args.seed, args.workload, args.trace)
    # Import what the children import, so byte-compiling the sources on a
    # fresh checkout is not timed as their set-up.
    import inproc  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.service  # noqa: F401

    run = run_service if args.workload == "service-churn" else run_in_process
    attempted, failed, values = run(args, env)
    units = PER_LAYER if args.trace else END_TO_END
    if not set(values) >= set(units):
        failed = max(1, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
