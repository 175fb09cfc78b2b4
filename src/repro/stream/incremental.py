"""Incremental re-diversification with warm-started solvers.

:class:`DynamicDiversifier` keeps a network's optimal product assignment
fresh while churn events stream in.  Instead of the batch pipeline —
rebuild the MRF, cold-start TRW-S — it owns a :class:`~repro.stream.plan.
StreamPlan` (a delta-updated array plan plus the solver's directed-message
state) and re-solves each delta by

1. patching the live plan (cost values in place, slot/level structure
   re-derived vectorized),
2. warm-starting TRW-S or BP from the previous run's messages, and
3. seeding the ICM refine stage with the previous solution's labels,

falling back to a full cold rebuild when the accumulated delta exceeds a
configurable fraction of the plan (patching pays off only while the change
is small).  Operator-constraint churn streams the same way: pins and
forbids are in-place unary-mask rewrites, combination rules edit the
intra-host edges, and a flip that hard-masks the previous solution
escalates to the full-budget solve (``docs/streaming.md`` tabulates the
per-event semantics).  Warm starts cannot corrupt the *model*: any message
state is a valid TRW-S reparametrisation, so energies and dual bounds keep
their meaning, and the reported energy always equals the true E(N) of the
returned assignment on the mutated network and constraint set.

With ``sharded=True`` the engine additionally partitions the live plan
into connected-component shards (:mod:`repro.mrf.partition`) and re-solves
**only the shards touched by the pending events** — the plan's stable
(host, service) touched-keys map each event to the components it dirtied,
link adds merge shards and removals split them (the partition is recomputed
from the raw parts every solve, so merges/splits are handled by
construction), and clean shards keep their message slices, labels and
cached energies byte-for-byte.  Churn cost becomes proportional to the
touched component instead of the network; components share no edges, so
per-shard energies and dual bounds just add and the parity contract below
is unchanged.

Solution *quality* relative to a cold solve depends on the instance.  On
workloads where TRW-S+ICM reliably finds the optimum — the sparse,
well-colorable family the tests and ``benchmarks/bench_stream_churn.py``
pin — an incremental solve reaches exactly the cold-solve energy after
every event.  On dense, frustrated instances both starts are heuristics
that can land in different local optima (warm is usually the better one,
since it continues from a previously-optimised state, but neither
dominates); treat energy parity as a property of the workload family, not
a universal guarantee.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.mrf.partition import merge_shard_results, split_parts
from repro.mrf.sharded import _solve_plan
from repro.mrf.solvers import SolverResult
from repro.mrf.vectorized import MRFArrays, SolverScratch
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.events import Event
from repro.stream.plan import StreamPlan

__all__ = ["StreamSolveResult", "DynamicDiversifier"]


@dataclass
class _ShardEntry:
    """Cached per-shard solve summary (valid while the shard stays clean)."""

    energy: float
    lower_bound: float
    converged: bool


@dataclass
class StreamSolveResult:
    """One (re-)diversification of the live network.

    Attributes:
        assignment: the decoded optimal assignment for the current state.
        energy: MRF energy of the assignment (paper Eq. 1).
        lower_bound: dual lower bound (TRW-S; ``-inf`` for BP).
        certified_optimal: True when the gap certifies a global optimum.
        warm: True when the solve reused the previous message state;
            False marks a cold (re)build — the first solve, an explicitly
            cold engine, or a delta past the rebuild threshold.
        stability: fraction of (host, service) variables present both
            before and after that kept their product — the
            assignment-stability metric of the churn scenarios (1.0 on the
            first solve).
        seconds: wall-clock time of this solve (patch + solver).
        solver_result: raw solver output (iterations, traces, ...).
        shards_total: shard count of the partition this solve ran over
            (1 for the monolithic engine).
        shards_solved: shards actually re-solved — on a sharded warm solve
            only the components touched by the pending events; clean
            shards kept their messages/labels/energy untouched.
        escalation: why this solve left the cheap warm path, or ``None``
            for a plain warm re-solve.  ``"cost_jump"`` / ``"stranded"``
            mark warm solves escalated to the full budget; ``"node_churn"``
            / ``"edge_churn"`` / ``"mask_churn"`` name the fraction that
            crossed the rebuild threshold; ``"first_solve"`` and
            ``"warm_disabled"`` mark the other cold cases.
        shard_seconds: wall time of each dirty-shard solve (sharded mode;
            empty for the monolithic engine) — the skew signal behind the
            service's per-shard latency histogram.
    """

    assignment: ProductAssignment
    energy: float
    lower_bound: float
    certified_optimal: bool
    warm: bool
    stability: float
    seconds: float
    solver_result: SolverResult
    shards_total: int = 1
    shards_solved: int = 1
    escalation: Optional[str] = None
    shard_seconds: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Solver sweeps of this re-solve."""
        return self.solver_result.iterations


class DynamicDiversifier:
    """Keeps an optimal diversification current under network churn.

    Args:
        network: the live network; the engine mutates it as events apply.
        similarity: the live similarity table (likewise).
        solver: ``"trws"`` (default) or ``"bp"`` — the two message-passing
            solvers with a warm-start API.
        warm_start: disable to force a cold rebuild+solve on every
            :meth:`solve` — the baseline the benchmarks compare against.
        warm_iterations: sweep budget of a warm re-solve.  Starting from
            the previous fixed point, a handful of repair sweeps
            re-propagates a local delta; primal quality is guarded by the
            ICM refine from the previous labels, so more sweeps buy dual
            tightening, not better assignments.  The budget is what turns
            "same iterations as cold" into the measured warm-start
            speedup.
        rebuild_fraction: cold-rebuild threshold; when pending events have
            touched more than this fraction of the plan's nodes or edges,
            patching is abandoned for a rebuild.
        cost_jump_threshold: escalation threshold for similarity deltas.
            A feed update that moves some cost entry by more than this
            keeps the warm messages but re-solves with the full sweep
            budget and init set — a large re-score can shift the message
            fixed point far enough that a couple of repair sweeps would
            land in a worse basin than a cold solve.
        unary_constant / pairwise_weight / service_weights: cost model, as
            in :func:`repro.core.diversify.diversify`.
        constraints: initial operator constraint set (pins, forbids,
            combination rules).  Constraint *churn* then streams in as
            typed events — :class:`~repro.stream.events.PinService`,
            :class:`~repro.stream.events.ForbidRange`,
            :class:`~repro.stream.events.CombinationUpdate` & co. — and
            patches the live plan in place; a flip that hard-masks the
            previous solution escalates to the full-budget solve, and a
            bulk load past ``rebuild_fraction`` falls back to a cold
            recompile.
        sharded: partition the live plan into connected-component shards
            and warm re-solve only the shards touched by pending events
            (see the module docstring).  The decomposition itself is
            exact (shard energies/bounds add, reported energy always
            equals the true E(N) of the returned assignment), and on the
            workload families where warm/cold parity holds it holds for
            this mode too — but the two modes follow *different* warm
            trajectories (per-shard tie-breaking noise, per-shard ICM
            basins), so on hard instances they can land in different
            local optima and the stability metric may differ; cross-mode
            energy equality is a property of the workload, exactly like
            the warm/cold contract above.  Dirty shards solve one after
            another, all with the engine's solver seed.
        **solver_options: forwarded to the solver constructor.
    """

    def __init__(
        self,
        network: Network,
        similarity: SimilarityTable,
        solver: str = "trws",
        warm_start: bool = True,
        warm_iterations: int = 2,
        rebuild_fraction: float = 0.25,
        cost_jump_threshold: float = 0.2,
        unary_constant: float = 0.01,
        pairwise_weight: float = 1.0,
        service_weights: Optional[Mapping[str, float]] = None,
        constraints: Optional[ConstraintSet] = None,
        sharded: bool = False,
        **solver_options,
    ) -> None:
        if warm_iterations < 1:
            raise ValueError("warm_iterations must be >= 1")
        if solver not in ("trws", "bp"):
            raise ValueError(
                f"streaming supports solvers 'trws' and 'bp', got {solver!r}"
            )
        if not 0.0 <= rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in [0, 1]")
        if cost_jump_threshold < 0:
            raise ValueError("cost_jump_threshold must be non-negative")
        self.solver_name = solver
        self.warm_start = warm_start
        self.rebuild_fraction = rebuild_fraction
        self.cost_jump_threshold = cost_jump_threshold
        self.sharded = sharded
        self._solver_options = dict(solver_options)
        self._warm_options = {
            **solver_options, "max_iterations": int(warm_iterations)
        }
        self._seed = int(solver_options.get("seed") or 0)
        #: per-shard cache: frozen variable-key set → solved summary.
        self._shard_cache: Dict[frozenset, _ShardEntry] = {}
        #: reusable solver work buffers — steady-state warm re-solves stop
        #: churning the NumPy allocator.
        self._scratch = SolverScratch()
        self.plan = StreamPlan(
            network,
            similarity,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            service_weights=service_weights,
            track_touched=sharded,
            constraints=constraints,
        )
        self._previous: Optional[Dict[Tuple[str, str], str]] = None

    # ----------------------------------------------------------------- churn

    @property
    def network(self) -> Network:
        """The live network (mutated as events apply)."""
        return self.plan.network

    @property
    def similarity(self) -> SimilarityTable:
        """The live similarity table (mutated by feed events)."""
        return self.plan.similarity

    @property
    def constraints(self) -> ConstraintSet:
        """The live constraint set (mutated by constraint events)."""
        return self.plan.constraints

    def apply(self, event: Event) -> None:
        """Apply one churn event (mutates network/similarity, patches the
        plan).  Events batch: several applies then one :meth:`solve`."""
        self.plan.apply(event)

    def apply_all(self, events: Iterable[Event]) -> None:
        """Apply a batch of events (one solve then covers them all)."""
        for event in events:
            self.apply(event)

    # ----------------------------------------------------------------- solve

    def solve(self, force_cold: bool = False) -> StreamSolveResult:
        """(Re-)optimise the current network state.

        Warm path: flush pending structural deltas into the plan, restart
        the solver from the previous messages and seed the refine stage
        with the previous labels.  Cold path (first solve, ``warm_start=
        False``, or delta past ``rebuild_fraction``): rebuild everything
        and start from zero messages and a fresh greedy labelling.
        ``force_cold=True`` takes the cold path unconditionally
        (escalation reason ``"forced"``) — the recovery lever the service
        writer pulls after a solver exception, since a full rebuild
        discards whatever incremental state went bad.

        A ``sharded=True`` engine re-solves only the shards the pending
        events touched; both modes solve each plan with :meth:`_solve_one`.
        """
        start = time.perf_counter()
        wall_ns = time.time_ns() if obs.enabled() else 0
        plan = self.plan
        warm, escalation = self._classify_solve(force_cold=force_cold)
        if escalation is not None:
            obs.instant("stream.escalation", cat="stream", reason=escalation)
        escalate = warm and escalation is not None
        if self.sharded:
            labels, energy, result, shards_total, shard_seconds = (
                self._solve_sharded(warm, escalate)
            )
        else:
            if warm:
                plan.flush()
            else:
                plan.rebuild()
            energy, labels, result = self._solve_one(
                plan.plan, plan.messages, plan.labels if warm else None,
                warm, escalate,
            )
            shards_total, shard_seconds = 1, []

        plan.record_labels(labels)
        plan.reset_dirty_counters()
        values = plan.assignment_values(labels)
        assignment = ProductAssignment.from_decoded(plan.network, values)
        stability = _stability(self._previous, values)
        self._previous = values
        certified = (
            np.isfinite(result.lower_bound)
            and energy - result.lower_bound <= 1e-6
        )
        shards_solved = len(shard_seconds) if self.sharded else 1
        seconds = time.perf_counter() - start
        trace = obs.current_trace()
        if trace is not None and wall_ns:
            trace.record(
                "stream.solve", "stream",
                ts=wall_ns / 1000.0, dur=seconds * 1e6,
                args={
                    "warm": warm,
                    "escalation": escalation or "",
                    "energy": energy,
                    "shards_total": shards_total,
                    "shards_solved": shards_solved,
                },
            )
        return StreamSolveResult(
            assignment=assignment,
            energy=energy,
            lower_bound=result.lower_bound,
            certified_optimal=certified,
            warm=warm,
            stability=stability,
            seconds=seconds,
            solver_result=result,
            shards_total=shards_total,
            shards_solved=shards_solved,
            escalation=escalation,
            shard_seconds=shard_seconds,
        )

    def _solve_one(
        self,
        plan: MRFArrays,
        messages: np.ndarray,
        previous: Optional[np.ndarray],
        warm: bool,
        escalate: bool,
    ) -> Tuple[float, np.ndarray, SolverResult]:
        """Solve one plan — the live plan or one dirty shard of it.

        Maps the mode to the sweep budget and the refine inits, runs the
        plan dispatcher from ``messages`` (updated in place, so warm starts
        never take the forest DP), then applies the stability tie-break.
        Returns ``(energy, labels, result)``.
        """
        if warm and not escalate:
            # Plain warm repair: a few sweeps from the previous fixed
            # point, refined from the previous labels only.
            options, default_inits, greedy = self._warm_options, False, False
        else:
            # Cold, or a warm solve escalated by a large similarity
            # re-score ("cost_jump") or a constraint flip that hard-masked
            # the previous solution ("stranded"): the full budget and the
            # cold init set, so the solver can leave the previous basin.
            options, default_inits = self._solver_options, True
            greedy = self.solver_name == "trws"
        result = _solve_plan(
            plan, self.solver_name, options, self._seed, messages,
            (previous,) if warm else (), default_inits, greedy,
            scratch=self._scratch,
        )
        labels = np.asarray(result.labels, dtype=np.int64)
        energy = result.energy
        if warm:
            # Stability tie-break: among equal-energy optima prefer the one
            # closest to the previous deployment (re-diversification is a
            # reconfiguration plan — gratuitous churn costs real downtime).
            # The ICM polish of the previous labels can only tie, never
            # beat, the solver's best (it was one of the refine inits).
            polished = plan.icm(previous, scratch=self._scratch)
            polished_energy = plan.energy(polished)
            if polished_energy <= energy + 1e-9:
                labels = polished
                energy = polished_energy
        return energy, labels, result

    def _solve_sharded(
        self, warm: bool, escalate: bool
    ) -> Tuple[np.ndarray, float, SolverResult, int, List[float]]:
        """Per-component re-solve: only touched shards pay a solver run.

        Partitions the live plan's raw parts (no global slot/level
        re-derivation), keys each shard by its frozen (host, service) set
        — stable across node renumbering — and re-solves a shard only when
        it is new or contains a touched key.  Clean shards keep their
        message slices and labels untouched and contribute their cached
        energy/bound; merges and splits fall out of re-partitioning.
        Returns ``(labels, energy, result, shards_total, shard_seconds)``.
        """
        plan = self.plan
        if not warm:
            plan.rebuild()
            self._shard_cache.clear()
        touched = set(plan.touched)
        width = plan.pad_messages()
        partition = split_parts(*plan.parts(), lmax=width)
        labels = (
            plan.labels.copy()
            if plan.labels is not None
            else np.zeros(plan.node_count, dtype=np.int64)
        )
        keys = [
            frozenset(plan.variables[int(node)] for node in shard.nodes)
            for shard in partition
        ]
        entries: List[_ShardEntry] = []
        dirty_iterations: List[int] = []
        shard_seconds: List[float] = []
        for shard, key in zip(partition, keys):
            entry = self._shard_cache.get(key)
            if warm and entry is not None and not (key & touched):
                entries.append(entry)
                continue
            shard_start = time.perf_counter()
            messages = plan.messages[shard.slots]
            with obs.span(
                "shard.solve",
                cat="shard",
                shard=int(shard.index),
                nodes=len(shard.nodes),
                warm=warm,
            ) as shard_span:
                energy, sub_labels, result = self._solve_one(
                    shard.plan, messages,
                    labels[shard.nodes] if warm else None, warm, escalate,
                )
                plan.messages[shard.slots] = messages
                shard_span.add(energy=energy, iterations=result.iterations)
            labels[shard.nodes] = sub_labels
            entries.append(
                _ShardEntry(
                    energy=energy,
                    lower_bound=result.lower_bound,
                    converged=result.converged,
                )
            )
            dirty_iterations.append(result.iterations)
            shard_seconds.append(time.perf_counter() - shard_start)
        # Clean shards contribute no iterations — nothing ran for them.
        merged = merge_shard_results(
            [e.energy for e in entries],
            [e.lower_bound for e in entries],
            dirty_iterations,
            [e.converged for e in entries],
        )
        # Prune stale keys so departed/merged shards cannot resurrect.
        self._shard_cache = dict(zip(keys, entries))
        result = SolverResult(
            labels=[int(x) for x in labels],
            energy=merged.energy,
            lower_bound=merged.lower_bound,
            iterations=merged.iterations,
            converged=merged.converged,
            solver=f"{self.solver_name}-sharded",
        )
        return labels, merged.energy, result, len(partition), shard_seconds

    # ------------------------------------------------------------- internals

    def _delta_reason(self) -> Optional[str]:
        """The dominating churn fraction past the rebuild threshold, or
        ``None`` when patching is still worthwhile."""
        plan = self.plan
        fractions = {
            "node_churn": plan.dirty_nodes / max(1, plan.node_count),
            "edge_churn": plan.dirty_edges / max(1, plan.edge_count),
            "mask_churn": plan.dirty_masked / max(1, plan.node_count),
        }
        name, frac = max(fractions.items(), key=lambda item: item[1])
        return name if frac > self.rebuild_fraction else None

    def _classify_solve(
        self, force_cold: bool = False
    ) -> Tuple[bool, Optional[str]]:
        """``(warm, escalation reason)`` for the pending delta.

        ``warm=False`` reasons name the cold-rebuild trigger
        (``"first_solve"``, ``"warm_disabled"``, ``"forced"``, or the
        dominating churn fraction); ``warm=True`` with a reason marks a
        warm solve escalated to the full budget (``"cost_jump"`` /
        ``"stranded"``); ``(True, None)`` is the plain cheap warm
        re-solve.
        """
        plan = self.plan
        if plan.labels is None:
            return False, "first_solve"
        if force_cold:
            return False, "forced"
        if not self.warm_start:
            return False, "warm_disabled"
        churn = self._delta_reason()
        if churn is not None:
            return False, churn
        if plan.dirty_cost > self.cost_jump_threshold:
            return True, "cost_jump"
        if plan.stranded:
            return True, "stranded"
        return True, None


def _stability(
    previous: Optional[Dict[Tuple[str, str], str]],
    current: Dict[Tuple[str, str], str],
) -> float:
    """Fraction of variables present in both snapshots keeping their
    product; 1.0 when there is no previous snapshot or no overlap."""
    if previous is None:
        return 1.0
    shared = [key for key in current if key in previous]
    if not shared:
        return 1.0
    unchanged = sum(1 for key in shared if previous[key] == current[key])
    return unchanged / len(shared)
