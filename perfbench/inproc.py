"""One child process of an in-process workload (table7-mid, pipeline-deep,
stream-churn).

``run.py`` starts this file once per set-up sample.  The child builds its
inputs from the seed, calls the program until the first result, prints
``READY`` (the parent times set-up from spawn to that line), then repeats
the workload's operation until ``--budget`` seconds of operations have
run (or ``--count`` operations), checks every result, and prints one
``DONE`` line of JSON.

With ``--trace 1`` it runs the same operations twice on identical
inputs, first plain and then under :class:`spans.SpanRecorder`, and
reports per-layer times per operation and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import replace
from importlib import import_module

from checks import check_assignment, cold_energy, random_energy
from spans import SpanRecorder

from repro.network.constraints import ConstraintSet
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.topologies import chain_network
from repro.nvd.similarity import SimilarityTable
from repro.stream.events import ChurnConfig, apply_event, random_churn_trace
from repro.stream.incremental import DynamicDiversifier

# By module path: the package re-exports a function of the same name.
diversify_module = import_module("repro.core.diversify")

#: Sizes per workload; "toy" is what the harness self-tests run.
SIZES = {
    "table7-mid": {
        "full": dict(hosts=1000, degree=20, services=15),
        "toy": dict(hosts=40, degree=4, services=3),
    },
    "pipeline-deep": {
        "full": dict(hosts=1000, chord_span=150, chord_every=100),
        "toy": dict(hosts=60, chord_span=15, chord_every=10),
    },
    "stream-churn": {
        "full": dict(hosts=400, degree=10, services=5, events=500),
        "toy": dict(hosts=30, degree=4, services=2, events=60),
    },
}

#: table7-mid draws its host graph from --seed and its similarity table
#: from this fixed seed.  Which product pairs are dissimilar decides how
#: low E(N) can go, so a seeded table would move energy_ratio between
#: seeds by more than any quality regression worth catching.
TABLE7_SIMILARITY_SEED = 0

#: The pipeline estate's similarity table and preferences are drawn from
#: this fixed seed (the one bench_dual_scaling pins).  Its iteration count
#: swings from 8 to 56 across preference draws, so a seeded estate would
#: spread solve time fivefold between seeds; --seed drives the solver's
#: tie-break seed instead, which leaves the work steady (56-57 sweeps).
ESTATE_SEED = 2
PIPELINE_PRODUCTS = 4


def pipeline_estate(hosts: int, chord_span: int, chord_every: int):
    """The connected chain backbone with redundancy chords, seeded prefs."""
    spec = {"scada": tuple(f"p{j}" for j in range(PIPELINE_PRODUCTS))}
    network = chain_network(hosts, services=spec)
    for i in range(0, hosts - chord_span - 10, chord_every):
        network.add_link(f"h{i}", f"h{i + chord_span}")
    table = SimilarityTable()
    feed = random.Random(ESTATE_SEED)
    products = spec["scada"]
    for product in products:
        table.add_product(product)
    for i, a in enumerate(products):
        for b in products[i + 1 :]:
            table.set(a, b, round(feed.uniform(0.05, 0.8), 3))
    prefs_rng = random.Random(ESTATE_SEED + 5)
    preferences = {
        (f"h{i}", "scada", product): round(prefs_rng.uniform(0.0, 0.3), 3)
        for i in range(hosts)
        for product in products
    }
    return network, table, preferences


# ------------------------------------------------------------- workloads


class BatchWorkload:
    """One ``diversify`` call per operation, on fixed inputs."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        params = SIZES[name][size]
        self.preferences = None
        if name == "table7-mid":
            config = RandomNetworkConfig(seed=seed, **params)
            self.network = random_network(config)
            self.similarity = random_similarity(
                replace(config, seed=TABLE7_SIMILARITY_SEED)
            )
            # The call experiments.scalability_cell makes.
            self.options = dict(max_iterations=8, compute_bound=False)
        else:
            self.network, self.similarity, self.preferences = pipeline_estate(
                **params
            )
            self.options = dict(preferences=self.preferences, seed=seed)
        self.baseline = random_energy(
            self.network, self.similarity, preferences=self.preferences
        )

    def fresh(self) -> "BatchWorkload":
        return self

    def exhausted(self) -> bool:
        return False

    def step(self):
        return diversify_module.diversify(
            self.network, self.similarity, **self.options
        )

    first = step

    def check(self, result):
        return check_assignment(
            self.network,
            self.similarity,
            result.assignment,
            result.energy,
            preferences=self.preferences,
        )

    def energy_ratio(self, result) -> float:
        return result.energy / self.baseline


class StreamWorkload:
    """One churn event per operation: ``apply(event)`` then ``solve()``.

    A shadow copy of the network, similarity table and constraints is
    advanced with the reference event semantics
    (:func:`repro.stream.events.apply_event`) and every result is checked
    against it, never against the engine's own state.
    """

    def __init__(self, seed: int, size: str) -> None:
        params = dict(SIZES["stream-churn"][size])
        events = params.pop("events")
        config = RandomNetworkConfig(seed=seed, **params)
        self.network = random_network(config)
        self.similarity = random_similarity(config)
        self.trace = random_churn_trace(
            self.network,
            ChurnConfig(
                events=events, seed=seed, constraint_weight=0.2
            ),
        )
        self._reset()

    def _reset(self) -> None:
        self.engine = DynamicDiversifier(
            self.network.copy(), self.similarity.copy()
        )
        self.shadow = (self.network.copy(), self.similarity.copy(), ConstraintSet())
        self.position = 0
        self.shadow_position = 0

    def fresh(self) -> "StreamWorkload":
        """Back to the initial state: same inputs, new engine, first solve."""
        self._reset()
        self.first()
        return self

    def first(self):
        return self.engine.solve()

    def exhausted(self) -> bool:
        return self.position >= len(self.trace)

    def step(self):
        event = self.trace[self.position]
        self.position += 1
        self.engine.apply(event)
        return self.engine.solve()

    def check(self, result):
        network, similarity, constraints = self.shadow
        while self.shadow_position < self.position:
            apply_event(
                network, similarity, self.trace[self.shadow_position], constraints
            )
            self.shadow_position += 1
        return check_assignment(
            network, similarity, result.assignment, result.energy, constraints
        )

    def energy_ratio(self, result) -> float:
        return result.energy / cold_energy(*self.shadow)


def make_workload(name: str, seed: int, size: str):
    if name == "stream-churn":
        return StreamWorkload(seed, size)
    return BatchWorkload(name, seed, size)


# ---------------------------------------------------------------- tracing

ESCALATIONS = ("cost_jump", "stranded", "node_churn", "edge_churn", "mask_churn")
BACKEND_METHODS = ("send_block", "condition_level", "icm_level", "bound_chunk_mins")


def _count_iterations(recorder: SpanRecorder, result) -> None:
    recorder.counters["mrf.trws.iterations"] += result.iterations


def _count_stream_solve(recorder: SpanRecorder, result) -> None:
    recorder.counters["stream.solves"] += 1
    recorder.counters["stream.warm"] += bool(result.warm)
    if result.escalation is not None:
        recorder.counters[f"stream.escalations.{result.escalation}"] += 1


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points, named after its module."""
    compile_module = import_module("repro.core.compile")
    from repro.mrf import batched, sharded, trws, vectorized
    from repro.mrf.backends.native import NativeBackend
    from repro.mrf.backends.numpy_backend import NumpyBackend
    from repro.stream.incremental import DynamicDiversifier as Engine
    from repro.stream.plan import StreamPlan

    recorder.patch(diversify_module, "diversify", "core.diversify")
    recorder.patch(diversify_module, "compile_plan", "core.compile")
    recorder.patch(
        batched, "replicated_problem_from_network", "mrf.batched.build"
    )
    recorder.patch(batched.BatchedTRWSSolver, "solve", "mrf.batched.solve")
    recorder.patch(sharded, "solve_plan", "mrf.sharded.solve_plan")
    recorder.patch(
        trws.TRWSSolver, "solve_arrays", "mrf.trws.solve", _count_iterations
    )
    for backend in (NumpyBackend, NativeBackend):
        for method in BACKEND_METHODS:
            if method in backend.__dict__:
                recorder.patch(backend, method, "mrf.backends")
    recorder.patch(vectorized.MRFArrays, "greedy_labels", "mrf.vectorized.greedy")
    recorder.patch(vectorized.MRFArrays, "icm", "mrf.vectorized.icm")
    recorder.patch(
        compile_module.CompiledPlan, "labels_to_assignment", "network.decode"
    )
    recorder.patch(StreamPlan, "assignment_values", "network.decode")
    recorder.patch(StreamPlan, "apply", "stream.plan.apply")
    recorder.patch(StreamPlan, "flush", "stream.plan.flush")
    recorder.patch(StreamPlan, "rebuild", "stream.plan.rebuild")
    recorder.patch(Engine, "solve", "stream.incremental.solve", _count_stream_solve)


def layer_metrics(
    recorder: SpanRecorder, ops: int, wall: float, plain_wall: float
) -> dict:
    """Per-operation layer metrics of one traced loop."""
    total, own, calls, counters = (
        recorder.total_s,
        recorder.self_s,
        recorder.calls,
        recorder.counters,
    )
    in_trws = recorder.nested_s[("mrf.trws.solve", "mrf.backends")]
    solves = counters["stream.solves"]
    metrics = {
        "core.diversify.self_s": own["core.diversify"],
        "mrf.batched.build_s": total["mrf.batched.build"],
        "mrf.batched.solve_s": total["mrf.batched.solve"],
        "core.compile.s": total["core.compile"],
        "mrf.sharded.solve_plan_s": total["mrf.sharded.solve_plan"],
        "mrf.sharded.solve_plan_self_s": own["mrf.sharded.solve_plan"],
        "mrf.trws.solve_s": total["mrf.trws.solve"],
        "mrf.trws.iterations": counters["mrf.trws.iterations"],
        "mrf.trws.dispatch_s": total["mrf.trws.solve"] - in_trws,
        "mrf.backends.calls": calls["mrf.backends"],
        "mrf.backends.s": total["mrf.backends"],
        "mrf.vectorized.greedy_s": total["mrf.vectorized.greedy"],
        "mrf.vectorized.greedy_calls": calls["mrf.vectorized.greedy"],
        "mrf.vectorized.icm_s": total["mrf.vectorized.icm"],
        "mrf.vectorized.icm_calls": calls["mrf.vectorized.icm"],
        "network.decode_s": total["network.decode"],
        "stream.plan.apply_s": total["stream.plan.apply"],
        "stream.plan.flush_s": total["stream.plan.flush"],
        "stream.plan.rebuild_s": total["stream.plan.rebuild"],
        "stream.incremental.solve_s": total["stream.incremental.solve"],
        "unattributed_s": wall - recorder.covered_s(),
        "traced_wall_s": wall,
        "trace_overhead_s": wall - plain_wall,
    }
    metrics = {name: value / ops for name, value in metrics.items()}
    metrics["stream.incremental.warm_frac"] = (
        counters["stream.warm"] / solves if solves else 0.0
    )
    for reason in ESCALATIONS:
        metrics[f"stream.incremental.escalations.{reason}"] = (
            counters[f"stream.escalations.{reason}"] / solves if solves else 0.0
        )
    return metrics


def self_table(recorder: SpanRecorder, ops: int) -> dict:
    """Per span name: calls, total and self seconds per operation."""
    return {
        name: {
            "calls": recorder.calls[name] / ops,
            "total_s": recorder.total_s[name] / ops,
            "self_s": recorder.self_s[name] / ops,
        }
        for name in sorted(recorder.calls)
    }


# ------------------------------------------------------------------- loop


class Tally:
    """Operation latencies plus the outcome of every check."""

    def __init__(self) -> None:
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last = None

    def record(self, workload, result, seconds: float) -> None:
        self.attempted += 1
        self.samples.append(seconds)
        problems = workload.check(result)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        self.last = result

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def run_ops(workload, tally: Tally, budget: float = None, count: int = None) -> None:
    """Repeat the operation until another one as long as the last would
    pass ``budget`` seconds in all, or ``count`` times; at least once
    either way.  Checks run outside the timed part."""
    spent = 0.0
    while True:
        if workload.exhausted():
            break
        start = time.perf_counter()
        try:
            result = workload.step()
        except Exception as problem:  # a failed operation, reported as such
            tally.fail(f"{type(problem).__name__}: {problem}")
            break
        seconds = time.perf_counter() - start
        spent += seconds
        tally.record(workload, result, seconds)
        if count is not None and len(tally.samples) >= count:
            break
        # Stop before an operation as long as the last would overrun the
        # budget: one more multi-second solve can nearly double a run.
        if budget is not None and spent + seconds > budget:
            break


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--count", type=int, default=None,
                        help="run this many operations instead of --budget "
                        "seconds of them")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="self-test hook: damage every result before its check, "
        "which the check must catch",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.size)
    gen_s = time.perf_counter() - start
    if args.corrupt:
        _corrupt_checks(workload)

    tally = Tally()
    first = workload.first()
    print("READY " + json.dumps({"gen_s": gen_s}), flush=True)
    first_problems = workload.check(first)

    done = {"gen_s": gen_s}
    if args.trace:
        plain = Tally()
        run_ops(workload, plain, budget=args.budget / 2)
        ops = len(plain.samples)
        workload.fresh()
        recorder = SpanRecorder()
        install_spans(recorder)
        try:
            run_ops(workload, tally, count=ops)
        finally:
            recorder.restore()
        ops = len(tally.samples) or 1
        wall = sum(tally.samples)
        done["layers"] = layer_metrics(recorder, ops, wall, sum(plain.samples))
        done["spans"] = self_table(recorder, ops)
        done["ops"] = ops
        if args.trace_out:
            recorder.write_chrome(args.trace_out)
        for field in ("attempted", "failed"):
            setattr(tally, field, getattr(tally, field) + getattr(plain, field))
        tally.problems.extend(plain.problems)
    elif args.count is not None:
        run_ops(workload, tally, count=args.count)
    else:
        run_ops(workload, tally, budget=args.budget)
    if first_problems:
        tally.failed += 1
        tally.problems.extend(first_problems[:3])
    tally.attempted += 1

    last = tally.last if tally.last is not None else first
    done.update(
        samples=tally.samples,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems[:10],
        energy=last.energy,
        energy_ratio=workload.energy_ratio(last),
        rss_mb=vm_hwm_mb(),
    )
    print("DONE " + json.dumps(done), flush=True)
    return 0


def _corrupt_checks(workload) -> None:
    """Unassign one pair of every result before its check (self-test hook)."""
    check = workload.check

    def corrupted(result):
        assignment = result.assignment
        host = assignment.network.hosts[0]
        service = assignment.network.services_of(host)[0]
        assignment.unassign(host, service)
        return check(result)

    workload.check = corrupted


if __name__ == "__main__":
    sys.exit(main())
