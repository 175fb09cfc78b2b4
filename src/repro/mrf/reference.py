"""Reference (per-node loop) implementations of TRW-S and loopy BP.

These are the original pure-Python solvers the repository shipped before the
message-passing core was vectorized.  They process one edge at a time with
small NumPy operations, which makes the update rule easy to audit against
Kolmogorov's TRW-S paper — and makes them the ground truth the vectorized
:class:`~repro.mrf.trws.TRWSSolver` / :class:`~repro.mrf.bp.LoopyBPSolver`
are tested against: on every instance the vectorized solvers must return the
same energies and dual bounds (see ``tests/test_vectorized.py``).

They stay registered as ``"trws-ref"`` and ``"bp-ref"`` so benchmarks can
measure the speedup and users can cross-check results, but they should not
be used on large workloads — the vectorized solvers compute identical
updates an order of magnitude faster.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult
from repro.mrf.sharded import _is_forest_plan, _solve_forest_arrays
from repro.mrf.vectorized import MRFArrays

__all__ = ["ReferenceTRWSSolver", "ReferenceBPSolver"]


def _greedy_labels(mrf: PairwiseMRF) -> List[int]:
    """Degree-descending sequential greedy labelling (MRF-level reference).

    Nodes are labelled from most- to least-connected; each takes the label
    minimising its unary plus the pairwise cost to already-labelled
    neighbours — the weighted-colouring heuristic of O'Donnell & Sethu.
    The production solvers use the identical plan-level implementation
    (:meth:`~repro.mrf.vectorized.MRFArrays.greedy_labels`).
    """
    n = mrf.node_count
    order = sorted(range(n), key=lambda i: (-len(mrf.neighbors(i)), i))
    labels = [0] * n
    assigned = [False] * n
    for node in order:
        vector = mrf.unary(node).copy()
        for neighbor, edge_id in mrf.neighbors(node):
            if not assigned[neighbor]:
                continue
            first, _second = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            oriented = cost if first == node else cost.T
            vector = vector + oriented[:, labels[neighbor]]
        labels[node] = int(np.argmin(vector))
        assigned[node] = True
    return labels


class ReferenceTRWSSolver:
    """Sequential TRW-S with per-node Python loops (the pre-vectorization
    implementation; see :class:`~repro.mrf.trws.TRWSSolver` for the
    algorithm documentation — both solvers perform the same updates).
    """

    name = "trws-ref"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-9,
        compute_bound: bool = True,
        refine: bool = True,
        tie_break_noise: float = 1e-4,
        seed: Optional[int] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tie_break_noise < 0:
            raise ValueError("tie_break_noise must be non-negative")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.compute_bound = compute_bound
        self.refine = refine
        self.tie_break_noise = tie_break_noise
        self.seed = seed if seed is not None else 0

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run per-node reference TRW-S; see :class:`SolverResult`."""
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        plan = MRFArrays(mrf)
        if _is_forest_plan(plan):
            # The production forest rule, DP and energy (TRWSSolver's).
            forest = _solve_forest_arrays(plan)
            energy = plan.energy(forest)
            return SolverResult(
                labels=[int(x) for x in forest], energy=energy,
                lower_bound=energy, iterations=1, converged=True,
                solver=self.name,
                energy_trace=[energy], bound_trace=[energy],
            )

        links = self._build_links(mrf)
        messages = self._init_messages(mrf)
        if self.tie_break_noise > 0:
            rng = np.random.default_rng(self.seed)
            noise = [
                rng.uniform(0.0, self.tie_break_noise, mrf.label_count(i))
                for i in range(n)
            ]
            beliefs = [mrf.unary(i) + noise[i] for i in range(n)]
            bound_slack = float(sum(x.max() for x in noise))
        else:
            beliefs = [mrf.unary(i).copy() for i in range(n)]
            bound_slack = 0.0

        best_labels: Optional[List[int]] = None
        best_energy = float("inf")
        lower_bound = float("-inf")
        energy_trace: List[float] = []
        bound_trace: List[float] = []
        converged = False
        iterations = 0

        stalled = 0
        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            previous_energy = best_energy
            labels = self._forward_sweep(mrf, links, messages, beliefs)
            energy = mrf.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            self._backward_sweep(mrf, links, messages, beliefs)

            previous_bound = lower_bound
            if self.compute_bound:
                # The bound holds for the perturbed problem; subtracting the
                # total perturbation makes it valid for the original one.
                lower_bound = max(
                    lower_bound,
                    self._reparametrised_bound(mrf, messages, beliefs)
                    - bound_slack,
                )
            energy_trace.append(best_energy)
            bound_trace.append(lower_bound)

            if self.compute_bound and np.isfinite(lower_bound):
                if best_energy - lower_bound <= self.tolerance:
                    converged = True
                    break
                stall_eps = max(self.tolerance, self.tie_break_noise)
                bound_stalled = (
                    np.isfinite(previous_bound)
                    and abs(lower_bound - previous_bound) <= stall_eps
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
            from repro.mrf.icm import ICMSolver

            candidates = [
                best_labels,
                [int(np.argmin(mrf.unary(i))) for i in range(n)],
                _greedy_labels(mrf),
            ]
            for candidate in candidates:
                polished = ICMSolver(initial=candidate).solve(mrf)
                if polished.energy < best_energy:
                    best_labels = polished.labels
                    best_energy = polished.energy
            if self.compute_bound and best_energy - lower_bound <= self.tolerance:
                converged = True
        return SolverResult(
            labels=best_labels,
            energy=best_energy,
            lower_bound=lower_bound,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            bound_trace=bound_trace,
        )

    # ------------------------------------------------------------- internals

    @staticmethod
    def _build_links(mrf: PairwiseMRF):
        """Per-node adjacency split into forward/backward neighbours.

        Entries are (neighbor, out_message_index, in_message_index,
        cost oriented with rows = this node's labels).
        """
        links = []
        for i in range(mrf.node_count):
            forward: List[Tuple[int, int, int, np.ndarray]] = []
            backward: List[Tuple[int, int, int, np.ndarray]] = []
            for j, edge_id in mrf.neighbors(i):
                first, _second = mrf.edge(edge_id)
                cost = mrf.edge_cost(edge_id)
                if first == i:
                    oriented = cost
                    out_index, in_index = 2 * edge_id, 2 * edge_id + 1
                else:
                    oriented = cost.T
                    out_index, in_index = 2 * edge_id + 1, 2 * edge_id
                entry = (j, out_index, in_index, oriented)
                if j > i:
                    forward.append(entry)
                else:
                    backward.append(entry)
            chains = max(len(forward), len(backward))
            gamma = 1.0 / chains if chains else 1.0
            links.append((forward, backward, gamma))
        return links

    @staticmethod
    def _init_messages(mrf: PairwiseMRF) -> List[np.ndarray]:
        """Zero messages; slot 2e is first→second of edge e, 2e+1 reverse."""
        messages: List[np.ndarray] = []
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            messages.append(np.zeros(mrf.label_count(j)))
            messages.append(np.zeros(mrf.label_count(i)))
        return messages

    def _forward_sweep(self, mrf, links, messages, beliefs) -> List[int]:
        labels = [0] * mrf.node_count
        for i in range(mrf.node_count):
            forward, backward, gamma = links[i]
            belief = beliefs[i]

            conditioned = belief.copy()
            for j, _out, in_index, oriented in backward:
                conditioned -= messages[in_index]
                conditioned += oriented[:, labels[j]]
            labels[i] = int(np.argmin(conditioned))

            if forward:
                weighted = gamma * belief
                for j, out_index, in_index, oriented in forward:
                    base = weighted - messages[in_index]
                    new_message = (base[:, None] + oriented).min(axis=0)
                    new_message -= new_message.min()
                    beliefs[j] += new_message - messages[out_index]
                    messages[out_index] = new_message
        return labels

    def _backward_sweep(self, mrf, links, messages, beliefs) -> None:
        for i in range(mrf.node_count - 1, -1, -1):
            _forward, backward, gamma = links[i]
            if not backward:
                continue
            weighted = gamma * beliefs[i]
            for j, out_index, in_index, oriented in backward:
                base = weighted - messages[in_index]
                new_message = (base[:, None] + oriented).min(axis=0)
                new_message -= new_message.min()
                beliefs[j] += new_message - messages[out_index]
                messages[out_index] = new_message

    @staticmethod
    def _reparametrised_bound(mrf, messages, beliefs) -> float:
        bound = sum(float(b.min()) for b in beliefs)
        for edge_id in range(mrf.edge_count):
            cost = mrf.edge_cost(edge_id)
            to_second = messages[2 * edge_id]      # M_{i→j}, indexed by x_j
            to_first = messages[2 * edge_id + 1]   # M_{j→i}, indexed by x_i
            reduced = cost - to_first[:, None] - to_second[None, :]
            bound += float(reduced.min())
        return bound


class ReferenceBPSolver:
    """Damped synchronous min-sum loopy BP with per-edge Python loops (the
    pre-vectorization implementation of
    :class:`~repro.mrf.bp.LoopyBPSolver`).
    """

    name = "bp-ref"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        damping: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run per-node reference loopy BP; see :class:`SolverResult`."""
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, iterations=0, converged=True, solver=self.name
            )

        # messages[2e] flows first→second of edge e; messages[2e+1] reverse.
        messages: List[np.ndarray] = []
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            messages.append(np.zeros(mrf.label_count(j)))
            messages.append(np.zeros(mrf.label_count(i)))

        # Per-node incoming message slots: (in_index, out_index, oriented cost).
        incoming = [[] for _ in range(n)]
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            incoming[j].append((2 * edge_id, 2 * edge_id + 1, cost.T))
            incoming[i].append((2 * edge_id + 1, 2 * edge_id, cost))

        best_labels: Optional[List[int]] = None
        best_energy = float("inf")
        energy_trace: List[float] = []
        converged = False
        iterations = 0

        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            beliefs = [mrf.unary(i).copy() for i in range(n)]
            for node in range(n):
                for in_index, _out, _cost in incoming[node]:
                    beliefs[node] += messages[in_index]

            # Synchronous update of every directed message.
            new_messages = [None] * len(messages)
            max_change = 0.0
            for node in range(n):
                for in_index, out_index, oriented in incoming[node]:
                    base = beliefs[node] - messages[in_index]
                    updated = (base[:, None] + oriented).min(axis=0)
                    updated -= updated.min()
                    if self.damping > 0.0:
                        updated = (
                            self.damping * messages[out_index]
                            + (1.0 - self.damping) * updated
                        )
                    change = float(np.max(np.abs(updated - messages[out_index])))
                    max_change = max(max_change, change)
                    new_messages[out_index] = updated
            for index, updated in enumerate(new_messages):
                if updated is not None:
                    messages[index] = updated

            labels = self._decode(mrf, incoming, messages, beliefs)
            energy = mrf.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            energy_trace.append(best_energy)

            if max_change <= self.tolerance:
                converged = True
                break

        assert best_labels is not None
        return SolverResult(
            labels=best_labels,
            energy=best_energy,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
        )

    @staticmethod
    def _decode(mrf, incoming, messages, beliefs) -> List[int]:
        """Sequential-conditioning decoding of the current beliefs."""
        labels = [0] * mrf.node_count
        decoded = [False] * mrf.node_count
        for node in range(mrf.node_count):
            vector = beliefs[node].copy()
            for in_index, _out, oriented in incoming[node]:
                i, j = mrf.edge(in_index // 2)
                sender = i if in_index % 2 == 0 else j
                if decoded[sender]:
                    vector -= messages[in_index]
                    vector += oriented[:, labels[sender]]
            labels[node] = int(np.argmin(vector))
            decoded[node] = True
        return labels
