"""Concurrent per-shard MAP solving over partitioned plans.

:class:`ShardedSolver` routes the message-passing solvers
(:class:`~repro.mrf.trws.TRWSSolver`, :class:`~repro.mrf.bp.LoopyBPSolver`
and, through :meth:`ShardedSolver.solve_replicated`, the batched
:class:`~repro.mrf.batched.BatchedTRWSSolver`) through the component
partition of :mod:`repro.mrf.partition` and solves the shards concurrently.
Components share no edges, so the decomposition is exact: shard energies,
dual bounds and optima simply add, and the stitched labelling of per-shard
optima is a global optimum.

Beyond parallelism, sharding wins even on one core: every shard runs its
*own* convergence schedule.  The monolithic solver sweeps the whole network
until its slowest component stalls — easy components pay the hard one's
iteration count — while shard solves stop individually, and the ICM refine
stage confines its sweeps to the component it is polishing.  Forest shards
skip message passing entirely: TRW-S is exact on trees, and the per-shard
dispatch realises that guarantee with one min-sum dynamic program over the
shard arrays (which a monolithic ``solve_arrays`` over a mixed plan cannot
take).  That dispatch, :func:`_solve_plan`, is the only code that chooses
how a plan is solved: ``TRWSSolver.solve``, :func:`solve_plan`, the
shards, ``trws-dual`` and the streaming engine all call it.

Execution backends (``executor=``):

* ``"threads"`` (default) — a thread pool; the hot loops are NumPy block
  operations that release the GIL, and shard plans are shared by
  reference.
* ``"processes"`` — :func:`repro.runner.run_jobs` process jobs for huge
  shards.  The shard *cost stacks* travel via a
  :class:`~repro.runner.shared.SharedArrayBlock` (one shared-memory
  segment holding the parent plan's deduplicated matrix stack) instead of
  being pickled per job; when shared memory is unavailable the matrices
  fall back to inline pickling, and when process pools are unavailable
  :func:`run_jobs` itself degrades to serial.
* ``"serial"`` — in-process loop (also used for single-shard partitions).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mrf.batched import BatchedResult, BatchedTRWSSolver
from repro.mrf.bp import LoopyBPSolver
from repro.mrf.graph import PairwiseMRF
from repro.mrf.partition import (
    PlanPartition,
    Shard,
    _component_of,
    merge_shard_results,
    split_components,
    split_replicated,
)
from repro.mrf.solvers import SolverResult, SolveStats
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays, SolverScratch, SolverScratchPool
from repro.runner import Job, resolve_workers, run_jobs
from repro.runner.shared import SharedArrayBlock

__all__ = ["ShardedSolver", "solve_plan"]

_FACTORIES = {"trws": TRWSSolver, "bp": LoopyBPSolver}
_EXECUTORS = ("threads", "processes", "serial")

#: Per-process workspace of :func:`_solve_shard_job` — pool workers are
#: single-threaded, so one scratch per worker process is reused across all
#: the shard jobs it executes.
_JOB_SCRATCH: Optional[SolverScratch] = None


class ShardedSolver:
    """Solve a plan as independent shards, concurrently.

    Args:
        solver: base message-passing solver, ``"trws"`` or ``"bp"``.
        workers: concurrent shard solves (semantics of
            :func:`repro.runner.resolve_workers`; default ``-1`` = one per
            CPU).  Determinism never depends on the worker count — shard
            seeds derive from shard identity, results merge in shard order.
        executor: ``"threads"`` / ``"processes"`` / ``"serial"`` (see the
            module docstring).
        min_shard_nodes: pack components smaller than this into combined
            shards — the scheduling-granularity knob (still exact).
        seed: base tie-breaking seed; shard ``i`` solves with ``seed + i``
            so replicated components do not tie-break in lockstep.
        **solver_options: forwarded to every per-shard solver constructor.
    """

    name = "sharded"

    def __init__(
        self,
        solver: str = "trws",
        workers: Optional[int] = -1,
        executor: str = "threads",
        min_shard_nodes: int = 1,
        seed: Optional[int] = None,
        **solver_options: Any,
    ) -> None:
        if solver not in _FACTORIES:
            raise ValueError(
                f"sharded solving supports {sorted(_FACTORIES)}, got {solver!r}"
            )
        if executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        if min_shard_nodes < 1:
            raise ValueError("min_shard_nodes must be >= 1")
        self.solver_name = solver
        self.workers = workers
        self.executor = executor
        self.min_shard_nodes = min_shard_nodes
        self.seed = 0 if seed is None else int(seed)
        self.solver_options = dict(solver_options)
        self.name = f"{solver}-sharded"
        # Leased solver workspaces: concurrent shard solves each hold a
        # private SolverScratch for the duration of one shard (the
        # single-thread contract), and returned scratches are reused by
        # later shards — including across solve_arrays calls, which spawn
        # fresh thread pools whose threads would defeat thread-local reuse.
        self._workspaces = SolverScratchPool()

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Partition + solve a :class:`PairwiseMRF` (registry protocol)."""
        if mrf.node_count == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        return self.solve_arrays(MRFArrays(mrf))

    def solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray] = None,
        extra_inits: Sequence[np.ndarray] = (),
        default_inits: bool = True,
        partition: Optional[PlanPartition] = None,
    ) -> SolverResult:
        """Solve a prebuilt plan shard-by-shard.

        Mirrors the monolithic ``solve_arrays`` contract: ``messages`` is
        the caller-owned global directed-message array (updated in place —
        shard slices are scattered back), ``extra_inits`` are global
        labellings sliced per shard for the TRW-S refine stage.  Pass a
        prebuilt ``partition`` (e.g. zone-grouped via
        :func:`~repro.mrf.partition.zone_groups`) to skip the component
        scan; it must partition exactly this plan.
        """
        if plan.node_count == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        if partition is None:
            partition = split_components(plan, min_nodes=self.min_shard_nodes)
        greedy = (
            self.solver_name == "trws"
            and messages is None
            and self.solver_options.get("refine", True)
        )
        tasks = []
        for shard in partition:
            tasks.append(
                (
                    shard,
                    messages[shard.slots] if messages is not None else None,
                    tuple(
                        np.asarray(init, dtype=np.int64)[shard.nodes]
                        for init in extra_inits
                    ),
                )
            )
        batch_span = obs.span(
            "shard.batch", cat="shard",
            shards=len(partition), executor=self.executor,
        )
        with batch_span:
            results = self._run(plan, tasks, default_inits, greedy)
            if obs.enabled():
                # Per-shard skew: every shard result carries SolveStats
                # while tracing is on (process workers collect under the
                # runner's span capture and ship them back pickled).
                seconds = [
                    r.stats.total_seconds
                    for r, _msg in results
                    if r.stats is not None
                ]
                if seconds:
                    batch_span.add(
                        shard_seconds_max=max(seconds),
                        shard_seconds_min=min(seconds),
                        shard_seconds_mean=sum(seconds) / len(seconds),
                    )
        if messages is not None:
            partition.scatter_messages([msg for _result, msg in results], messages)
        return self._merge(partition, [result for result, _msg in results])

    def solve_replicated(self, problem) -> BatchedResult:
        """Shard-solve a replicated-service problem (TRW-S only).

        Partitions the host graph into components and runs one
        :class:`BatchedTRWSSolver` per shard.  Shards always solve on a
        thread pool (or serially): the replicated form's per-service cost
        stacks are shared by reference across every shard, which a
        process pool would forfeit by copying them per worker — so
        ``executor="processes"`` applies to :meth:`solve_arrays` only.
        """
        if self.solver_name != "trws":
            raise ValueError("solve_replicated requires solver='trws'")
        partition = split_replicated(problem, min_hosts=self.min_shard_nodes)
        if len(partition) <= 1:
            solver = BatchedTRWSSolver(seed=self.seed, **self.solver_options)
            return solver.solve(problem)

        def solve_one(shard) -> BatchedResult:
            """Solve one replicated shard on its own convergence schedule."""
            solver = BatchedTRWSSolver(
                seed=self.seed + shard.index, **self.solver_options
            )
            return solver.solve(shard.problem)

        count = min(resolve_workers(self.workers), len(partition))
        if count <= 1 or self.executor == "serial":
            results = [solve_one(shard) for shard in partition]
        else:
            with ThreadPoolExecutor(max_workers=count) as pool:
                results = list(pool.map(solve_one, partition.shards))
        merged = merge_shard_results(
            [r.energy for r in results],
            [r.lower_bound for r in results],
            [r.iterations for r in results],
            [r.converged for r in results],
        )
        return BatchedResult(
            labels=partition.stitch([r.labels for r in results]),
            energy=merged.energy,
            lower_bound=merged.lower_bound,
            iterations=merged.iterations,
            converged=merged.converged,
        )

    # ------------------------------------------------------------ execution

    def _solve_one(
        self,
        shard: Shard,
        messages: Optional[np.ndarray],
        inits: Tuple[np.ndarray, ...],
        default_inits: bool,
        greedy: bool,
    ) -> Tuple[SolverResult, Optional[np.ndarray]]:
        scratch = self._workspaces.acquire()
        try:
            with obs.span(
                "shard.solve", cat="shard",
                shard=int(shard.index), nodes=len(shard.nodes),
            ) as shard_span:
                result = _solve_plan(
                    shard.plan,
                    self.solver_name,
                    self.solver_options,
                    self.seed + shard.index,
                    messages,
                    inits,
                    default_inits,
                    greedy,
                    scratch=scratch,
                )
                shard_span.add(
                    energy=result.energy, iterations=result.iterations
                )
        finally:
            self._workspaces.release(scratch)
        return result, messages

    def _run(
        self,
        plan: MRFArrays,
        tasks: List[Tuple[Shard, Optional[np.ndarray], Tuple[np.ndarray, ...]]],
        default_inits: bool,
        greedy: bool,
    ) -> List[Tuple[SolverResult, Optional[np.ndarray]]]:
        count = min(resolve_workers(self.workers), len(tasks))
        if self.executor == "processes" and count > 1:
            return self._run_processes(plan, tasks, default_inits, greedy, count)
        if self.executor == "threads" and count > 1:
            with ThreadPoolExecutor(max_workers=count) as pool:
                return list(
                    pool.map(
                        lambda task: self._solve_one(
                            task[0], task[1], task[2], default_inits, greedy
                        ),
                        tasks,
                    )
                )
        return [
            self._solve_one(shard, msg, inits, default_inits, greedy)
            for shard, msg, inits in tasks
        ]

    def _run_processes(
        self,
        plan: MRFArrays,
        tasks: List[Tuple[Shard, Optional[np.ndarray], Tuple[np.ndarray, ...]]],
        default_inits: bool,
        greedy: bool,
        count: int,
    ) -> List[Tuple[SolverResult, Optional[np.ndarray]]]:
        """Dispatch shard solves as runner jobs, cost stacks via shm.

        Each job rebuilds its shard plan from raw parts in the worker; the
        parent plan's deduplicated cost stack crosses the process boundary
        once, as one shared-memory segment, instead of once per job over a
        pipe (shards index into it through their global ``cids``).
        """
        lmax = plan.lmax
        block: Optional[SharedArrayBlock] = None
        if plan.stacked:
            try:
                block = SharedArrayBlock.create(plan.cost[: plan.stacked])
            except OSError:
                block = None  # fall back to inline matrices
        try:
            jobs = []
            for shard, msg, inits in tasks:
                # Raw parts only — the worker rebuilds the shard plan, so
                # the parent never pays the slot/level derivation itself.
                kwargs: Dict[str, Any] = dict(
                    unaries=[
                        plan.unary[int(i), : plan.label_counts[int(i)]]
                        for i in shard.nodes
                    ],
                    edge_first=shard.local_first,
                    edge_second=shard.local_second,
                    edge_cid=shard.local_cid,
                    lmax=lmax,
                    solver_name=self.solver_name,
                    options=self.solver_options,
                    seed=self.seed + shard.index,
                    messages=msg,
                    inits=inits,
                    default_inits=default_inits,
                    greedy=greedy,
                    shard_index=shard.index,
                )
                if block is not None:
                    kwargs["cost_spec"] = block.spec
                    kwargs["cost_ids"] = shard.cids
                else:
                    kwargs["matrices"] = [plan.cost[int(k)] for k in shard.cids]
                jobs.append(Job(key=shard.index, fn=_solve_shard_job, kwargs=kwargs))
            outcome = run_jobs(jobs, workers=count)
        finally:
            if block is not None:
                block.unlink()
        return [outcome[shard.index] for shard, _msg, _inits in tasks]

    # -------------------------------------------------------------- merging

    def _merge(
        self, partition: PlanPartition, results: List[SolverResult]
    ) -> SolverResult:
        labels = partition.stitch([r.labels for r in results])
        merged = merge_shard_results(
            [r.energy for r in results],
            [r.lower_bound for r in results],
            [r.iterations for r in results],
            [r.converged for r in results],
        )
        return SolverResult(
            labels=[int(x) for x in labels],
            energy=merged.energy,
            lower_bound=merged.lower_bound,
            iterations=merged.iterations,
            converged=merged.converged,
            solver=self.name,
        )


def solve_plan(
    plan: MRFArrays,
    solver: str = "trws",
    seed: Optional[int] = None,
    scratch: Optional[SolverScratch] = None,
    **solver_options: Any,
) -> SolverResult:
    """Cold-solve one array plan with the standard dispatch.

    The public plan-level entry point (used by the compiled
    :func:`~repro.core.diversify.diversify` path): forest plans take the
    exact min-sum DP, loopy plans run the configured message-passing
    solver with the degree-descending greedy refine init — the dispatch
    ``TRWSSolver.solve`` also runs on the equivalent ``PairwiseMRF``.

    A two-node plan with an agreement penalty solves to disagreeing
    labels at zero energy (one edge, no cycle — the exact forest DP):

    >>> import numpy as np
    >>> from repro.mrf.vectorized import MRFArrays
    >>> agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> plan = MRFArrays.from_parts(
    ...     [np.zeros(2), np.zeros(2)],
    ...     np.array([0]), np.array([1]), np.array([0]), [agree],
    ... )
    >>> result = solve_plan(plan)
    >>> result.energy
    0.0
    >>> result.labels[0] != result.labels[1]
    True
    """
    options = dict(solver_options)
    greedy = solver == "trws" and options.get("refine", True)
    return _solve_plan(
        plan,
        solver,
        options,
        0 if seed is None else int(seed),
        None,
        (),
        True,
        greedy,
        scratch=scratch,
    )


def _solve_plan(
    plan: MRFArrays,
    solver_name: str,
    options: Dict[str, Any],
    seed: int,
    messages: Optional[np.ndarray],
    inits: Tuple[np.ndarray, ...],
    default_inits: bool,
    greedy: bool,
    scratch: Optional[SolverScratch] = None,
) -> SolverResult:
    """Solve one plan — the single solve dispatcher.

    Cold TRW-S plans whose graph is a forest (the empty plan included)
    dispatch to the exact min-sum DP (deterministic, certified,
    non-iterative); everything else runs the configured message-passing
    solver, with the degree-descending greedy labelling appended to
    ``inits`` when ``greedy`` is set.  Warm starts (``messages`` given)
    always take the message-passing path so the caller keeps a reusable
    fixed-point state.
    """
    if (
        solver_name == "trws"
        and messages is None
        and _is_forest_plan(plan)
    ):
        collect = obs.enabled()
        start = time.perf_counter() if collect else 0.0
        with obs.span("trws.forest", cat="solve", nodes=plan.node_count):
            labels = _solve_forest_arrays(plan)
            energy = plan.energy(labels)
        stats = (
            SolveStats(total_seconds=time.perf_counter() - start)
            if collect
            else None
        )
        return SolverResult(
            labels=[int(x) for x in labels],
            energy=energy,
            lower_bound=energy,
            iterations=1,
            converged=True,
            solver="trws",
            energy_trace=[energy],
            bound_trace=[energy],
            stats=stats,
        )
    solver = _FACTORIES[solver_name](**{**options, "seed": seed})
    if solver_name == "trws":
        if greedy:
            inits = tuple(inits) + (plan.greedy_labels(),)
        return solver.solve_arrays(
            plan, messages=messages, extra_inits=inits,
            default_inits=default_inits, scratch=scratch,
        )
    return solver.solve_arrays(plan, messages=messages, scratch=scratch)


def _is_forest_plan(plan: MRFArrays) -> bool:
    """True when the plan's graph is cycle-free.

    A graph is a forest iff ``edges == nodes - components`` (every edge
    joins two previously-unconnected nodes); the component labelling is
    the partitioner's own union-find.
    """
    if plan.edge_count == 0:
        return True
    component = _component_of(
        plan.node_count, plan.edge_first, plan.edge_second
    )
    return plan.edge_count == plan.node_count - (int(component.max()) + 1)


def _solve_forest_arrays(plan: MRFArrays) -> np.ndarray:
    """Exact min-sum dynamic programming on a forest plan.

    Each component is rooted at its smallest node, min-marginal messages
    flow leaves → root, and an argmin backtrack assigns labels.  The
    ``+inf`` padding convention keeps every reduction exact (padded labels
    never win an argmin).
    """
    n = plan.node_count
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(plan.edge_count):
        i = int(plan.edge_first[e])
        j = int(plan.edge_second[e])
        cid = int(plan.edge_cid[e])
        adjacency[i].append((j, cid))                 # rows = i's labels
        adjacency[j].append((i, plan.stacked + cid))  # rows = j's labels
    labels = np.zeros(n, dtype=np.int64)
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        order: List[Tuple[int, int, int]] = []  # (node, parent, cid rows=parent)
        stack = [(root, -1, -1)]
        visited[root] = True
        while stack:
            node, up_parent, up_cid = stack.pop()
            order.append((node, up_parent, up_cid))
            for neighbor, cid in adjacency[node]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    # cid rows = node's labels; the parent→child orientation.
                    stack.append((neighbor, node, cid))
        accumulated = {node: plan.unary_inf[node].copy() for node, _p, _c in order}
        choice: Dict[int, np.ndarray] = {}
        for node, up_parent, up_cid in reversed(order):
            if up_parent < 0:
                continue
            totals = plan.cost[up_cid] + accumulated[node][None, :]
            choice[node] = np.argmin(totals, axis=1)
            accumulated[up_parent] += totals.min(axis=1)
        labels[root] = int(np.argmin(accumulated[root]))
        for node, up_parent, _up_cid in order:
            if up_parent >= 0:
                labels[node] = int(choice[node][labels[up_parent]])
    return labels


def _solve_shard_job(
    unaries,
    edge_first,
    edge_second,
    edge_cid,
    lmax,
    solver_name,
    options,
    seed,
    messages,
    inits,
    default_inits,
    greedy,
    cost_spec=None,
    cost_ids=None,
    matrices=None,
    shard_index=0,
) -> Tuple[SolverResult, Optional[np.ndarray]]:
    """Top-level shard solve for the process pool (picklable).

    Rebuilds the shard plan in the worker — from the shared-memory cost
    stack when a spec is given, from inline matrices otherwise — and
    returns ``(result, messages)`` so the parent can scatter the final
    message state back into its global array.  Under the runner's span
    capture the worker's ``shard.solve`` span (and the solver spans inside
    it) ride back to the parent trace with the job result.
    """
    global _JOB_SCRATCH
    if _JOB_SCRATCH is None:
        _JOB_SCRATCH = SolverScratch()
    with obs.span(
        "shard.solve", cat="shard", shard=int(shard_index), nodes=len(unaries)
    ) as shard_span:
        if cost_spec is not None:
            block = SharedArrayBlock.attach(cost_spec)
            try:
                stack = block.array()
                matrices = [np.array(stack[int(k)]) for k in cost_ids]
            finally:
                block.close()
        plan = MRFArrays.from_parts(
            unaries, edge_first, edge_second, edge_cid, matrices or [], lmax=lmax
        )
        result = _solve_plan(
            plan, solver_name, options, seed, messages, tuple(inits),
            default_inits, greedy, scratch=_JOB_SCRATCH,
        )
        shard_span.add(energy=result.energy, iterations=result.iterations)
    return result, messages
