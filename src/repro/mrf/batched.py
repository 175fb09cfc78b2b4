"""Batched TRW-S for replicated-service networks (the scalability engine).

The paper's optimizer is multi-threaded C++ with GPU-accelerated matrix
operations (Section VIII).  Our pure-Python equivalent exploits the same
structural property the paper's "multi-level" scheme does: absent
combination constraints, the diversification MRF decomposes into one
independent field per service, and when every host runs the same service
with the same candidate range, those fields are *topologically identical
replicas* over the host graph.  This solver therefore runs TRW-S once over
the host graph with all services stacked into NumPy arrays — messages are
``(services, labels)`` blocks, so the per-node Python loop is paid once per
host instead of once per (host, service) node.

It shares the general solver's cost model and update rule (node order, γ
weights, sequential-conditioning extraction, reparametrisation bound) but
not its data layout or its refine stage, and label-for-label parity is
asserted only on the small instances of ``tests/test_batched.py``.  At
paper scale the two paths diverge: on the Table VII mid-density cell
(1000 hosts, degree 20, 15 services, seed 0) this solver reaches
E = 21349.29 and the plan path 21396.55.  It earns its place by measured
cost on that cell (2-vCPU host): 89 MB peak RSS against 207 MB for the
plan path, and about 2.0 s against 3.9–4.3 s per call on the NumPy kernel
backend (the native backend makes the plan path the faster one).

By default the remaining per-host loop is batched further with the same
wavefront-level trick as :class:`~repro.mrf.vectorized.MRFArrays`: hosts
whose lower-numbered neighbours all sit in earlier levels update in one
NumPy block operation per level (hosts within a level are never adjacent,
so the block update computes the per-host schedule exactly, up to
floating-point summation order).  ``level_batched=False`` keeps the
original per-host sweeps — the reference the parity tests compare against.

Eligibility (checked by :func:`replicated_problem_from_network`): every
host runs the same services, each service has the same candidate range on
every host, there are no constraints and no per-host preferences.  The
general :class:`~repro.mrf.trws.TRWSSolver` covers everything else, and
:func:`~repro.core.diversify.diversify` also sends forest host graphs
there, where the exact forest DP certifies them.

Similarity-derived cost matrices are symmetric, which this solver relies
on (messages need no transposed orientation); the builder asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mrf.vectorized import SolverScratch, wavefront_schedule
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

__all__ = [
    "ReplicatedProblem",
    "BatchedResult",
    "BatchedTRWSSolver",
    "replicated_problem_from_network",
]


@dataclass
class ReplicatedProblem:
    """A diversification MRF in replicated-service form.

    Attributes:
        host_count: number of hosts N.
        edges: (E, 2) int array of undirected host links, each row (u, v)
            with u < v.
        services: service names, one per replica field.
        products: per service, the candidate product names (label order);
            all services in one problem must share a label count.
        unary: (N, S, L) unary costs.
        costs: (S, L, L) symmetric pairwise cost matrices (λ · similarity).
    """

    host_count: int
    edges: np.ndarray
    services: List[str]
    products: List[Tuple[str, ...]]
    unary: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        if self.edges.ndim != 2 or (len(self.edges) and self.edges.shape[1] != 2):
            raise ValueError("edges must be an (E, 2) array")
        if np.any(self.edges[:, 0] >= self.edges[:, 1]) if len(self.edges) else False:
            raise ValueError("edges rows must satisfy u < v")
        n, s, l = self.unary.shape
        if n != self.host_count or s != len(self.services):
            raise ValueError("unary shape disagrees with hosts/services")
        if self.costs.shape != (s, l, l):
            raise ValueError("costs shape disagrees with unary")
        if not np.allclose(self.costs, self.costs.transpose(0, 2, 1)):
            raise ValueError("batched solver requires symmetric cost matrices")

    @property
    def label_count(self) -> int:
        """Labels per variable (the shared candidate-range size)."""
        return self.unary.shape[2]

    def subproblem(
        self, hosts: np.ndarray, edge_rows: np.ndarray
    ) -> "ReplicatedProblem":
        """The restriction to a host subset (a host-graph component).

        ``hosts`` must be ascending global host positions and ``edge_rows``
        the rows of :attr:`edges` internal to that subset (the shard
        partitioner guarantees both).  Services, products and the cost
        stack are shared by reference — a component restricts the host
        graph, not the label model.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        position = np.searchsorted(hosts, self.edges[edge_rows])
        return ReplicatedProblem(
            host_count=len(hosts),
            edges=position.reshape(-1, 2),
            services=self.services,
            products=self.products,
            unary=self.unary[hosts],
            costs=self.costs,
        )

    def energy(self, labels: np.ndarray) -> float:
        """E(x) for an (N, S) labelling array."""
        n, s, _ = self.unary.shape
        if labels.shape != (n, s):
            raise ValueError(f"labels must be shape {(n, s)}, got {labels.shape}")
        hosts = np.arange(n)[:, None]
        services = np.arange(s)[None, :]
        total = float(self.unary[hosts, services, labels].sum())
        if len(self.edges):
            u, v = self.edges[:, 0], self.edges[:, 1]
            svc = np.arange(s)[None, :]
            total += float(self.costs[svc, labels[u], labels[v]].sum())
        return total


@dataclass
class BatchedResult:
    """Outcome of the batched solver (mirrors SolverResult's semantics)."""

    labels: np.ndarray  # (N, S) label indices
    energy: float
    lower_bound: float
    iterations: int
    converged: bool


class BatchedTRWSSolver:
    """TRW-S over a :class:`ReplicatedProblem` with service-stacked messages.

    The cost model and update rule match
    :class:`~repro.mrf.trws.TRWSSolver` (same node order, same γ weights,
    same sequential-conditioning label extraction, same reparametrisation
    lower bound); the data layout differs.  Energy parity between the two
    is asserted only on the small instances of ``tests/test_batched.py``;
    at 1000 hosts they diverge (see the module docstring).
    """

    name = "trws-batched"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-9,
        compute_bound: bool = True,
        refine: bool = True,
        refine_sweeps: int = 30,
        tie_break_noise: float = 1e-4,
        seed: Optional[int] = None,
        level_batched: bool = True,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tie_break_noise < 0:
            raise ValueError("tie_break_noise must be non-negative")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.compute_bound = compute_bound
        self.refine = refine
        self.refine_sweeps = refine_sweeps
        self.tie_break_noise = tie_break_noise
        self.seed = seed if seed is not None else 0
        self.level_batched = level_batched

    def solve(
        self,
        problem: ReplicatedProblem,
        scratch: Optional[SolverScratch] = None,
    ) -> BatchedResult:
        """Run batched TRW-S on a replicated-service problem.

        ``scratch`` holds the level-sweep work buffers (the big one is the
        per-level ``(edges, S, L, L)`` cost broadcast); pass a shared
        :class:`~repro.mrf.vectorized.SolverScratch` so repeated solves
        allocate nothing, exactly like the general solvers.  Results are
        bit-identical with or without one.
        """
        n = problem.host_count
        s = len(problem.services)
        l = problem.label_count
        edges = problem.edges
        costs = problem.costs  # (S, L, L), symmetric

        links = _build_links(n, edges)
        plan = _build_level_plan(n, edges) if self.level_batched else None
        scratch = scratch if scratch is not None else SolverScratch()
        # Directed messages: slot 2e towards edges[e][1], 2e+1 towards [0].
        messages = np.zeros((2 * len(edges), s, l))
        beliefs = problem.unary.copy()
        bound_slack = 0.0
        if self.tie_break_noise > 0:
            # Symmetry-breaking perturbation (see TRWSSolver docs); energies
            # are always evaluated against the original costs and the bound
            # is corrected by the total perturbation.
            rng = np.random.default_rng(self.seed)
            noise = rng.uniform(0.0, self.tie_break_noise, beliefs.shape)
            beliefs += noise
            bound_slack = float(noise.max(axis=2).sum())

        best_labels: Optional[np.ndarray] = None
        best_energy = float("inf")
        lower_bound = float("-inf")
        converged = False
        iterations = 0

        stalled = 0
        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            previous_energy = best_energy
            if plan is not None:
                labels = self._forward_sweep_levels(
                    problem, plan, messages, beliefs, scratch
                )
            else:
                labels = self._forward_sweep(problem, links, messages, beliefs)
            energy = problem.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            if plan is not None:
                self._backward_sweep_levels(
                    problem, plan, messages, beliefs, scratch
                )
            else:
                self._backward_sweep(problem, links, messages, beliefs)

            previous = lower_bound
            if self.compute_bound:
                lower_bound = max(
                    lower_bound,
                    _bound(problem, messages, beliefs) - bound_slack,
                )
                if best_energy - lower_bound <= self.tolerance:
                    converged = True
                    break
                stall_eps = max(self.tolerance, self.tie_break_noise)
                bound_stalled = (
                    np.isfinite(previous)
                    and abs(lower_bound - previous) <= stall_eps
                )
                energy_stalled = (
                    np.isfinite(previous_energy)
                    and abs(best_energy - previous_energy) <= stall_eps
                )
                stalled = stalled + 1 if (bound_stalled and energy_stalled) else 0
                if stalled >= 3:
                    converged = True
                    break

        assert best_labels is not None
        if self.refine:
            # Multiple primal inits, mirroring TRWSSolver: the extraction,
            # the unary argmin, and a degree-ordered sequential greedy.
            candidates = [
                best_labels,
                np.argmin(problem.unary, axis=2),
                _greedy_labels(problem, links),
            ]
            for candidate in candidates:
                if plan is not None:
                    refined = _icm_refine_levels(
                        problem, plan, candidate, self.refine_sweeps
                    )
                else:
                    refined = _icm_refine(problem, links, candidate, self.refine_sweeps)
                refined_energy = problem.energy(refined)
                if refined_energy < best_energy:
                    best_labels = refined
                    best_energy = refined_energy
            if self.compute_bound and best_energy - lower_bound <= self.tolerance:
                converged = True
        return BatchedResult(
            labels=best_labels,
            energy=best_energy,
            lower_bound=lower_bound,
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------ internals

    def _forward_sweep(self, problem, links, messages, beliefs) -> np.ndarray:
        costs = problem.costs
        n = problem.host_count
        labels = np.zeros((n, len(problem.services)), dtype=np.int64)
        for i in range(n):
            node = links[i]
            belief = beliefs[i]  # (S, L)

            # Label extraction by sequential conditioning on earlier hosts.
            if len(node.bwd_nbr):
                conditioned = belief - messages[node.bwd_in].sum(axis=0)
                conditioned = conditioned + _conditioned_costs(
                    costs, labels[node.bwd_nbr]
                )
                labels[i] = np.argmin(conditioned, axis=1)
            else:
                labels[i] = np.argmin(belief, axis=1)

            if len(node.fwd_nbr):
                base = node.gamma * belief[None, :, :] - messages[node.fwd_in]
                new = (base[:, :, :, None] + costs[None, :, :, :]).min(axis=2)
                new -= new.min(axis=2, keepdims=True)
                beliefs[node.fwd_nbr] += new - messages[node.fwd_out]
                messages[node.fwd_out] = new
        return labels

    def _backward_sweep(self, problem, links, messages, beliefs) -> None:
        costs = problem.costs
        for i in range(problem.host_count - 1, -1, -1):
            node = links[i]
            if not len(node.bwd_nbr):
                continue
            base = node.gamma * beliefs[i][None, :, :] - messages[node.bwd_in]
            new = (base[:, :, :, None] + costs[None, :, :, :]).min(axis=2)
            new -= new.min(axis=2, keepdims=True)
            beliefs[node.bwd_nbr] += new - messages[node.bwd_out]
            messages[node.bwd_out] = new

    # --------------------------------------------- level-batched internals

    def _forward_sweep_levels(
        self, problem, plan, messages, beliefs, scratch
    ) -> np.ndarray:
        """Forward sweep over wavefront levels (one block per level).

        Per level: extract labels by sequential conditioning on earlier
        hosts, then send messages to later hosts — the same schedule as
        :meth:`_forward_sweep` because hosts in one level are never
        adjacent.  All level temporaries live in ``scratch`` (same
        operations in the same order as the allocating form, so results
        are bit-identical).
        """
        costs = problem.costs
        s, l = costs.shape[0], costs.shape[1]
        svc = np.arange(len(problem.services))
        labels = np.zeros(
            (problem.host_count, len(problem.services)), dtype=np.int64
        )
        for level in plan.fwd:
            cond = scratch.array("batched_cond", (len(level.nodes), s, l))
            beliefs.take(level.nodes, axis=0, out=cond, mode="clip")
            t = len(level.ext_nbr)
            if t:
                contrib = scratch.array("batched_contrib", (t, s, l))
                # Gather costs[sid, label, :] rows via one flat take — the
                # same elements the fancy index costs[svc, labels] yields.
                costs.reshape(s * l, l).take(
                    svc[None, :] * l + labels[level.ext_nbr],
                    axis=0,
                    out=contrib,
                    mode="clip",
                )
                tmp = scratch.array("batched_ext_tmp", (t, s, l))
                messages.take(level.ext_in, axis=0, out=tmp, mode="clip")
                np.subtract(contrib, tmp, out=contrib)
                reduced = scratch.array(
                    "batched_reduced", (len(level.ext_starts), s, l)
                )
                np.add.reduceat(
                    contrib, level.ext_starts, axis=0, out=reduced
                )
                cond[level.ext_rows] += reduced
            labels[level.nodes] = np.argmin(cond, axis=2)
            self._send_level(plan, level, costs, messages, beliefs, scratch)
        return labels

    def _backward_sweep_levels(
        self, problem, plan, messages, beliefs, scratch
    ) -> None:
        for level in plan.bwd:
            self._send_level(
                plan, level, problem.costs, messages, beliefs, scratch
            )

    @staticmethod
    def _send_level(plan, block, costs, messages, beliefs, scratch) -> None:
        """Block message update over one level's flattened directed edges
        (cost matrices are symmetric, so one orientation serves both).
        Belief deltas aggregate by receiver segment (edges are sorted by
        receiver) — a reduceat plus one fancy ``+=`` on unique receivers.
        Every temporary — the (edges, S, L, L) cost broadcast included —
        lives in ``scratch``, so sweeps allocate nothing once warm."""
        k = len(block.snd)
        if not k:
            return
        s, l = costs.shape[0], costs.shape[1]
        base = scratch.array("batched_base", (k, s, l))
        tmp = scratch.array("batched_tmp", (k, s, l))
        beliefs.take(block.snd, axis=0, out=base, mode="clip")
        np.multiply(plan.gamma[block.snd][:, None, None], base, out=base)
        messages.take(block.inn, axis=0, out=tmp, mode="clip")
        np.subtract(base, tmp, out=base)
        cost = scratch.array("batched_cost", (k, s, l, l))
        np.add(base[:, :, :, None], costs[None, :, :, :], out=cost)
        new = scratch.array("batched_new", (k, s, l))
        cost.min(axis=2, out=new)
        rowmin = scratch.array("batched_rowmin", (k, s, 1))
        new.min(axis=2, keepdims=True, out=rowmin)
        np.subtract(new, rowmin, out=new)
        messages.take(block.out, axis=0, out=tmp, mode="clip")
        np.subtract(new, tmp, out=tmp)
        reduced = scratch.array(
            "batched_send_reduced", (len(block.rcv_starts), s, l)
        )
        np.add.reduceat(tmp, block.rcv_starts, axis=0, out=reduced)
        beliefs[block.rcv_unique] += reduced
        messages[block.out] = new


def _conditioned_costs(costs: np.ndarray, nbr_labels: np.ndarray) -> np.ndarray:
    """Σ_b costs[s, x_b(s), :] over backward neighbours b → (S, L).

    ``nbr_labels`` is (B, S); advanced indexing with the broadcast pair
    ((S,), (B, S)) yields (B, S, L), summed over the neighbour axis.
    ``costs`` is symmetric, so the row slice equals the column slice.
    """
    svc = np.arange(costs.shape[0])
    return costs[svc[None, :], nbr_labels, :].sum(axis=0)


@dataclass
class _HostLinks:
    fwd_nbr: np.ndarray
    fwd_out: np.ndarray
    fwd_in: np.ndarray
    bwd_nbr: np.ndarray
    bwd_out: np.ndarray
    bwd_in: np.ndarray
    gamma: float


def _build_links(n: int, edges: np.ndarray) -> List[_HostLinks]:
    fwd: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    bwd: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        # u < v: edge is forward for u (to later node v), backward for v.
        fwd[u].append((v, 2 * e, 2 * e + 1))
        bwd[v].append((u, 2 * e + 1, 2 * e))
    links = []
    for i in range(n):
        chains = max(len(fwd[i]), len(bwd[i]))
        links.append(
            _HostLinks(
                fwd_nbr=np.array([t[0] for t in fwd[i]], dtype=np.int64),
                fwd_out=np.array([t[1] for t in fwd[i]], dtype=np.int64),
                fwd_in=np.array([t[2] for t in fwd[i]], dtype=np.int64),
                bwd_nbr=np.array([t[0] for t in bwd[i]], dtype=np.int64),
                bwd_out=np.array([t[1] for t in bwd[i]], dtype=np.int64),
                bwd_in=np.array([t[2] for t in bwd[i]], dtype=np.int64),
                gamma=1.0 / chains if chains else 1.0,
            )
        )
    return links


@dataclass
class _ServiceSendBlock:
    """Flattened directed host-graph edges whose senders share one level.

    Edges are stored sorted by receiver, so the belief updates of a block
    aggregate with ``np.add.reduceat`` over contiguous segments followed by
    one fancy ``+=`` on the unique receivers — ``np.ufunc.at``'s per-element
    scatter is an order of magnitude slower and used to dominate dense
    levels.
    """

    snd: np.ndarray         # sender host per edge
    rcv: np.ndarray         # receiver host per edge (non-decreasing)
    out: np.ndarray         # message slot written (sender → receiver)
    inn: np.ndarray         # opposite slot on the same edge
    rcv_starts: np.ndarray  # segment starts of equal-receiver runs
    rcv_unique: np.ndarray  # the receiver of each segment


@dataclass
class _ServiceWavefront(_ServiceSendBlock):
    """One forward level: its hosts, conditioning edges to earlier levels,
    all-neighbour edges (for ICM) and forward sends.  The ``ext``/``all``
    edge lists are sorted by their in-level host, so their contributions
    aggregate with reduceat too (``*_starts`` / ``*_rows``)."""

    nodes: np.ndarray       # hosts in this level, ascending
    ext_seg: np.ndarray     # per backward edge: position of its host in `nodes`
    ext_nbr: np.ndarray     # per backward edge: the earlier neighbour
    ext_in: np.ndarray      # per backward edge: slot of the incoming message
    ext_starts: np.ndarray  # segment starts of equal-ext_seg runs
    ext_rows: np.ndarray    # the in-level row of each segment
    all_seg: np.ndarray     # full-adjacency versions (ICM conditions on all)
    all_nbr: np.ndarray
    all_starts: np.ndarray
    all_rows: np.ndarray


def _segments(sorted_index: np.ndarray):
    """(starts, unique) of the equal-value runs of a non-decreasing array."""
    if not len(sorted_index):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    change = np.flatnonzero(np.diff(sorted_index)) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    return starts, sorted_index[starts]


@dataclass
class _LevelPlan:
    """Wavefront-level schedule of the host graph (cf. MRFArrays)."""

    gamma: np.ndarray  # (n,) monotonic chain weights
    fwd: List[_ServiceWavefront]
    bwd: List[_ServiceSendBlock]


def _build_level_plan(n: int, edges: np.ndarray) -> _LevelPlan:
    """Topological wavefront levels of the host graph, flattened level-major.

    Mirrors the schedule of :class:`~repro.mrf.vectorized.MRFArrays` on the
    service-stacked layout: slot ``2e`` carries lo→hi of edge ``e``, slot
    ``2e+1`` the reverse (edge rows satisfy u < v), and hosts in one level
    are never adjacent, so block updates reproduce the per-host order.
    """
    m = len(edges)
    lo = edges[:, 0] if m else np.zeros(0, dtype=np.int64)
    hi = edges[:, 1] if m else np.zeros(0, dtype=np.int64)
    e_ids = np.arange(m, dtype=np.int64)
    slot_lo2hi = 2 * e_ids
    slot_hi2lo = 2 * e_ids + 1

    gamma, flevel, blevel = wavefront_schedule(n, lo, hi)

    def _bounds(levels_sorted: np.ndarray, count: int) -> np.ndarray:
        return np.searchsorted(levels_sorted, np.arange(count + 1))

    n_flevels = int(flevel.max()) + 1 if n else 0
    node_order = np.lexsort((np.arange(n, dtype=np.int64), flevel))
    node_bounds = _bounds(flevel[node_order], n_flevels)
    # Sends sorted by receiver within each level → reduceat-aggregatable.
    send_order = np.lexsort((e_ids, hi, flevel[lo]))
    send_bounds = _bounds(flevel[lo][send_order], n_flevels)
    ext_order = np.lexsort((e_ids, hi, flevel[hi]))
    ext_bounds = _bounds(flevel[hi][ext_order], n_flevels)
    a_node = np.concatenate([lo, hi])
    a_nbr = np.concatenate([hi, lo])
    a_eid = np.concatenate([e_ids, e_ids])
    all_order = np.lexsort((a_eid, a_node, flevel[a_node]))
    all_bounds = _bounds(flevel[a_node][all_order], n_flevels)

    fwd: List[_ServiceWavefront] = []
    for level in range(n_flevels):
        nodes = node_order[node_bounds[level] : node_bounds[level + 1]]
        ext = ext_order[ext_bounds[level] : ext_bounds[level + 1]]
        send = send_order[send_bounds[level] : send_bounds[level + 1]]
        full = all_order[all_bounds[level] : all_bounds[level + 1]]
        ext_seg = np.searchsorted(nodes, hi[ext])
        ext_starts, ext_rows = _segments(ext_seg)
        all_seg = np.searchsorted(nodes, a_node[full])
        all_starts, all_rows = _segments(all_seg)
        rcv_starts, rcv_unique = _segments(hi[send])
        fwd.append(
            _ServiceWavefront(
                nodes=nodes,
                ext_seg=ext_seg,
                ext_nbr=lo[ext],
                ext_in=slot_lo2hi[ext],
                ext_starts=ext_starts,
                ext_rows=ext_rows,
                snd=lo[send],
                rcv=hi[send],
                out=slot_lo2hi[send],
                inn=slot_hi2lo[send],
                rcv_starts=rcv_starts,
                rcv_unique=rcv_unique,
                all_seg=all_seg,
                all_nbr=a_nbr[full],
                all_starts=all_starts,
                all_rows=all_rows,
            )
        )

    bwd: List[_ServiceSendBlock] = []
    n_blevels = int(blevel.max()) + 1 if m else 0
    bsend_order = np.lexsort((e_ids, lo, blevel[hi]))
    bsend_bounds = _bounds(blevel[hi][bsend_order], n_blevels)
    for level in range(n_blevels):
        send = bsend_order[bsend_bounds[level] : bsend_bounds[level + 1]]
        if not len(send):
            continue
        rcv_starts, rcv_unique = _segments(lo[send])
        bwd.append(
            _ServiceSendBlock(
                snd=hi[send],
                rcv=lo[send],
                out=slot_hi2lo[send],
                inn=slot_lo2hi[send],
                rcv_starts=rcv_starts,
                rcv_unique=rcv_unique,
            )
        )
    return _LevelPlan(gamma=gamma, fwd=fwd, bwd=bwd)


def _icm_refine_levels(
    problem: ReplicatedProblem,
    plan: _LevelPlan,
    labels: np.ndarray,
    max_sweeps: int,
) -> np.ndarray:
    """Level-batched ICM coordinate descent (same sweep as _icm_refine:
    hosts ascending, conditioning on all neighbours' current labels)."""
    current = labels.copy()
    costs = problem.costs
    svc = np.arange(len(problem.services))
    for _ in range(max_sweeps):
        changed = False
        for level in plan.fwd:
            cond = problem.unary[level.nodes].copy()
            if len(level.all_nbr):
                cond[level.all_rows] += np.add.reduceat(
                    costs[svc[None, :], current[level.all_nbr]],
                    level.all_starts,
                    axis=0,
                )
            best = np.argmin(cond, axis=2)
            if not np.array_equal(best, current[level.nodes]):
                changed = True
            current[level.nodes] = best
        if not changed:
            break
    return current


def _greedy_labels(
    problem: ReplicatedProblem, links: List["_HostLinks"]
) -> np.ndarray:
    """Degree-descending sequential greedy labelling (all services at once)."""
    n = problem.host_count
    degree = [len(node.fwd_nbr) + len(node.bwd_nbr) for node in links]
    order = sorted(range(n), key=lambda i: (-degree[i], i))
    labels = np.zeros((n, len(problem.services)), dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    costs = problem.costs
    for i in order:
        node = links[i]
        neighbors = np.concatenate([node.fwd_nbr, node.bwd_nbr])
        conditional = problem.unary[i].copy()
        if len(neighbors):
            done = neighbors[assigned[neighbors]]
            if len(done):
                conditional += _conditioned_costs(costs, labels[done])
        labels[i] = np.argmin(conditional, axis=1)
        assigned[i] = True
    return labels


def _icm_refine(
    problem: ReplicatedProblem,
    links: List["_HostLinks"],
    labels: np.ndarray,
    max_sweeps: int,
) -> np.ndarray:
    """ICM coordinate descent over hosts (all services vectorised).

    Same role as the general solver's ICM post-pass: escape the symmetric
    message fixed point on flat-unary instances by greedy per-host
    improvement until a full sweep changes nothing.
    """
    current = labels.copy()
    costs = problem.costs
    neighbor_lists = [
        np.concatenate([node.fwd_nbr, node.bwd_nbr]) for node in links
    ]
    for _ in range(max_sweeps):
        changed = False
        for i in range(problem.host_count):
            neighbors = neighbor_lists[i]
            conditional = problem.unary[i].copy()
            if len(neighbors):
                conditional += _conditioned_costs(costs, current[neighbors])
            best = np.argmin(conditional, axis=1)
            if not np.array_equal(best, current[i]):
                current[i] = best
                changed = True
        if not changed:
            break
    return current


def _bound(
    problem: ReplicatedProblem,
    messages: np.ndarray,
    beliefs: np.ndarray,
    chunk: int = 4096,
) -> float:
    """Reparametrisation lower bound (chunked to cap peak memory)."""
    bound = float(beliefs.min(axis=2).sum())
    costs = problem.costs  # (S, L, L)
    for start in range(0, len(problem.edges), chunk):
        stop = min(start + chunk, len(problem.edges))
        to_second = messages[2 * start : 2 * stop : 2]      # (C, S, L_v)
        to_first = messages[2 * start + 1 : 2 * stop : 2]   # (C, S, L_u)
        reduced = (
            costs[None, :, :, :]
            - to_first[:, :, :, None]
            - to_second[:, :, None, :]
        )
        bound += float(reduced.min(axis=(2, 3)).sum())
    return bound


def replicated_problem_from_network(
    network: Network,
    similarity: SimilarityTable,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
) -> Optional[ReplicatedProblem]:
    """Build a :class:`ReplicatedProblem`, or None when the network is not
    service-replicated (heterogeneous services/ranges → use the general
    MRF path).

    Services whose candidate ranges differ in size across the network are
    grouped by padding — no: eligibility requires *identical* ranges, the
    common case for the scalability workloads.  All services must share one
    label count so they stack into one array.

    Assembly follows the interning idiom of :mod:`repro.core.compile`:
    eligibility compares each host's ``service_ranges`` profile against
    the first host's in one pass, the link endpoints intern to host ids
    and sort as arrays, and the cost stack is sliced out of one dense
    similarity matrix over the interned products (``np.ix_``) instead of
    an O(services·labels²) ``similarity.get`` loop — same arrays
    bit-for-bit, an order of magnitude faster at 10k+ hosts.
    """
    hosts = network.hosts
    if not hosts:
        return None
    reference = network.service_ranges(hosts[0])
    if not reference:
        return None
    services = [service for service, _range in reference]
    ranges: List[Tuple[str, ...]] = [range_ for _service, range_ in reference]
    label_count = len(ranges[0])
    if any(len(r) != label_count for r in ranges):
        return None
    for host in hosts[1:]:
        # One profile comparison per host — (service, range) pairs in
        # declaration order, exactly the services_of/candidates contract.
        if network.service_ranges(host) != reference:
            return None

    index = {host: position for position, host in enumerate(hosts)}
    links = network.links
    if links:
        first = np.fromiter(
            (index[a] for a, _b in links), np.int64, len(links)
        )
        second = np.fromiter(
            (index[b] for _a, b in links), np.int64, len(links)
        )
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        order = np.lexsort((hi, lo))
        edges = np.stack((lo[order], hi[order]), axis=1)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)

    # Intern products across ranges, score each distinct pair once, then
    # slice every service's cost matrix out of the shared dense matrix.
    product_ids: Dict[str, int] = {}
    range_pids: List[np.ndarray] = []
    for products in ranges:
        pids = [
            product_ids.setdefault(product, len(product_ids))
            for product in products
        ]
        range_pids.append(np.asarray(pids, dtype=np.int64))
    matrix = similarity.matrix(product_ids)

    s = len(services)
    unary = np.full((len(hosts), s, label_count), float(unary_constant))
    costs = np.empty((s, label_count, label_count))
    for k, pids in enumerate(range_pids):
        costs[k] = pairwise_weight * matrix[np.ix_(pids, pids)]
    return ReplicatedProblem(
        host_count=len(hosts),
        edges=edges,
        services=list(services),
        products=ranges,
        unary=unary,
        costs=costs,
    )
