"""A live, delta-updatable MRF array plan over a mutating network.

:class:`StreamPlan` is the incremental counterpart of the batch
network→plan compiler (:func:`repro.core.compile.compile_plan`) for the
(constrained) diversification MRF.  It owns

* the ``(host, service) → node`` variable mapping and candidate ranges,
* the live operator :class:`~repro.network.constraints.ConstraintSet` and
  the unary masks / intra-host combination tables it compiles to,
* the shared stack of λ·similarity cost matrices (deduplicated by candidate
  range, exactly like the batch builder),
* the per-(link, shared-service) edge list, and
* a live :class:`MRFArrays` plan plus the solver's directed-message array,

and keeps all of them aligned while churn events arrive:

* **similarity updates** rewrite the affected cost-matrix entries and patch
  the plan's cost stack in place — no structural change, message state
  untouched;
* **link events** append/delete edge rows and the matching message slots
  eagerly, then re-derive the plan's slot/level structure lazily on
  :meth:`flush` (one vectorized pass however many events are pending);
* **host events** additionally append/remove node rows, remapping node ids,
  previous-solution labels and edge endpoints;
* **pin/forbid events** recompute one node's hard-mask unary from the live
  constraint set and write it in place (:meth:`MRFArrays.set_unary`) —
  value-only, like a feed update, but with a *stranded* flag when the mask
  lands on the label previously in use;
* **combination updates** recompute the affected hosts' intra-host tables
  from the live set: in place when the node pair already carries a table,
  an eager edge append/delete (through the lazy :meth:`flush` path) when a
  pair gains its first rule or retires its last.

See ``docs/streaming.md`` for the per-event contract table.

Because padded message entries are 0 — the additive identity — new slots
start cold at 0 while surviving slots keep their near-fixed-point values,
which is what makes the warm start work across structural deltas.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.compile import COMBO_META as _COMBO_META
from repro.core.costs import HARD_COST
from repro.mrf.vectorized import MRFArrays
from repro.network.constraints import GLOBAL, ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.events import (
    AllowRange,
    CombinationUpdate,
    Event,
    ForbidRange,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    PinService,
    SimilarityUpdate,
    UnpinService,
    apply_constraint_event,
)

__all__ = ["StreamPlan"]

#: (candidate range of first endpoint, of second endpoint, λ·service weight)
_MatrixKey = Tuple[Tuple[str, ...], Tuple[str, ...], float]


class StreamPlan:
    """Delta-updated MRF plan + message state for one live network.

    Args:
        network: the live network (mutated in place by :meth:`apply`).
        similarity: the live similarity table (likewise).
        unary_constant: the paper's ``Pr_const`` per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty.
        service_weights: optional per-service multipliers of λ.
        constraints: the live operator constraint set.  Fix/Forbid masks
            and combination tables are compiled in, and constraint events
            (:class:`~repro.stream.events.PinService` & co.) keep plan and
            set aligned: unary masks rewrite in place
            (:meth:`MRFArrays.set_unary`), combination deltas edit the
            intra-host edges through the eager edge-edit + lazy
            :meth:`flush` path.

    Soft preferences stay on the batch
    :func:`~repro.core.compile.compile_plan` path; streaming covers the
    (constrained) MRF that re-solves at churn frequency.
    """

    def __init__(
        self,
        network: Network,
        similarity: SimilarityTable,
        unary_constant: float = 0.01,
        pairwise_weight: float = 1.0,
        service_weights: Optional[Mapping[str, float]] = None,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        if pairwise_weight < 0:
            raise ValueError("pairwise_weight must be non-negative")
        if service_weights and any(w < 0 for w in service_weights.values()):
            raise ValueError("service weights must be non-negative")
        self.network = network
        self.similarity = similarity
        self.unary_constant = float(unary_constant)
        self.pairwise_weight = float(pairwise_weight)
        self.service_weights = dict(service_weights or {})
        #: the live constraint set (mutated in place by constraint events).
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.rebuild()

    # ------------------------------------------------------------ cold build

    def rebuild(self) -> None:
        """Full cold build from the current network/similarity state.

        Also the fallback when the incremental engine judges a pending
        delta too large to be worth patching: messages restart at zero and
        the previous-solution labels are dropped.

        The build runs through the direct network→parts compiler
        (:func:`repro.core.compile.compile_stream_parts`) — the same
        variable/edge/matrix state the per-event append path maintains,
        emitted vectorized, so the incremental engine's cold-rebuild
        escalation costs NumPy passes instead of per-edge Python loops.
        """
        with obs.span("stream.rebuild", cat="stream"):
            self._rebuild()

    def _rebuild(self) -> None:
        """The cold-build body behind :meth:`rebuild`."""
        from repro.core.compile import compile_stream_parts

        parts = compile_stream_parts(
            self.network,
            self.similarity,
            unary_constant=self.unary_constant,
            pairwise_weight=self.pairwise_weight,
            service_weights=self.service_weights or None,
            constraints=self.constraints,
        )
        self.variables: List[Tuple[str, str]] = parts.variables
        self.index: Dict[Tuple[str, str], int] = parts.index
        self.candidates: List[Tuple[str, ...]] = parts.candidates
        self._unaries: List[np.ndarray] = parts.unary_vectors()

        self._matrices: List[np.ndarray] = parts.matrices
        self._matrix_meta: List[_MatrixKey] = list(parts.matrix_meta)
        # Combination tables carry the placeholder meta; they never join
        # the similarity dedup index.
        self._matrix_ids: Dict[_MatrixKey, int] = {
            key: cid
            for cid, key in enumerate(self._matrix_meta)
            if key[0]
        }
        self._edge_keys: List[Tuple[Tuple[str, str], object]] = list(
            parts.edge_keys
        )
        #: (host, service_lo, service_hi) → cost id of the pair's live
        #: combination table (service order follows node order).
        self._combo_cids: Dict[Tuple[str, str, str], int] = {
            (key[0][0], key[1][0], key[1][1]): int(parts.edge_cid[e])
            for e, key in enumerate(parts.edge_keys)
            if isinstance(key[1], tuple)
        }
        self._edge_first: List[int] = parts.edge_first.tolist()
        self._edge_second: List[int] = parts.edge_second.tolist()
        self._edge_cid: List[int] = parts.edge_cid.tolist()

        self.plan = MRFArrays.from_dense(
            parts.unary,
            parts.label_counts,
            parts.edge_first,
            parts.edge_second,
            parts.edge_cid,
            self._matrices,
        )
        self.messages = self.plan.zero_messages()
        #: previous-solution labels, kept aligned across deltas (None until
        #: the engine records a solve).
        self.labels: Optional[np.ndarray] = None
        self._edges_dirty = False
        self._nodes_dirty = False
        self.reset_dirty_counters()

    def reset_dirty_counters(self) -> None:
        """Zero the per-solve churn counters (called after each solve)."""
        self.dirty_nodes = 0
        self.dirty_edges = 0
        #: unary-mask rewrites since the last solve — bulk constraint
        #: loads count against the rebuild threshold just like topology.
        self.dirty_masked = 0
        #: largest |Δ| applied to any cost-matrix entry since the last
        #: solve — the engine escalates its warm sweep budget when a feed
        #: update moves costs far enough to shift the message fixed point.
        self.dirty_cost = 0.0
        #: True when a constraint delta hard-masked the previous solution
        #: (the pinned/forbidden label was the one in use) — the engine
        #: then re-solves with its full budget, since the previous basin
        #: is no longer feasible.
        self.stranded = False

    # ------------------------------------------------------------ event apply

    def apply(self, event: Event) -> None:
        """Mutate network/similarity and patch the live plan for one event.

        While tracing is enabled each apply records a ``stream.apply`` span
        tagged with the event type; disabled, the extra cost is one branch.
        """
        if not obs.enabled():
            self._dispatch(event)
            return
        with obs.span(
            "stream.apply", cat="stream", event=type(event).__name__
        ):
            self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Route one event to its typed patch handler."""
        if isinstance(event, SimilarityUpdate):
            self._apply_similarity(event)
        elif isinstance(event, LinkAdd):
            self._apply_link_add(event)
        elif isinstance(event, LinkRemove):
            self._apply_link_remove(event)
        elif isinstance(event, HostJoin):
            self._apply_host_join(event)
        elif isinstance(event, HostLeave):
            self._apply_host_leave(event)
        elif isinstance(
            event, (PinService, UnpinService, ForbidRange, AllowRange)
        ):
            self._apply_unary_constraint(event)
        elif isinstance(event, CombinationUpdate):
            self._apply_combination(event)
        else:  # pragma: no cover - type escape hatch
            raise TypeError(f"unknown event {event!r}")

    def flush(self) -> MRFArrays:
        """Materialise pending structural deltas into the array plan.

        Value-only updates were already patched in place; this re-derives
        the slot/level structure once for however many link/host events
        accumulated.  Returns the (possibly new) plan.
        """
        if (self._nodes_dirty or self._edges_dirty) and obs.enabled():
            with obs.span(
                "stream.flush", cat="stream",
                nodes_dirty=self._nodes_dirty, edges_dirty=self._edges_dirty,
            ):
                return self._flush()
        return self._flush()

    def _flush(self) -> MRFArrays:
        """The structural-delta materialisation behind :meth:`flush`."""
        edge_first = np.asarray(self._edge_first, dtype=np.int64)
        edge_second = np.asarray(self._edge_second, dtype=np.int64)
        edge_cid = np.asarray(self._edge_cid, dtype=np.int64)
        if self._nodes_dirty:
            widest = max((len(u) for u in self._unaries), default=0)
            lmax = max(self.plan.lmax, widest)
            if lmax > self.plan.lmax:
                # Wider label spaces joined: grow the message padding; the
                # padded-message convention is 0, so this is exact.
                self.messages = np.pad(
                    self.messages, ((0, 0), (0, lmax - self.plan.lmax))
                )
            self.plan = MRFArrays.from_parts(
                self._unaries, edge_first, edge_second, edge_cid,
                self._matrices, lmax=lmax,
            )
        elif self._edges_dirty:
            self.plan.replace_edges(
                edge_first, edge_second, edge_cid, self._matrices
            )
        self._nodes_dirty = False
        self._edges_dirty = False
        return self.plan

    # ------------------------------------------------------------ live sizes

    @property
    def node_count(self) -> int:
        """Live variable count (tracks pending deltas, unlike ``plan``)."""
        return len(self.variables)

    @property
    def edge_count(self) -> int:
        """Live edge count (tracks pending deltas, unlike ``plan``)."""
        return len(self._edge_first)

    def pad_messages(self) -> int:
        """Grow the message padding to the widest live label space.

        Returns the (possibly new) message width.  Padded message entries
        are the 0 additive identity, so widening is exact — the same
        invariant :meth:`flush` relies on.
        """
        widest = max((len(u) for u in self._unaries), default=0)
        width = self.messages.shape[1]
        if widest > width:
            self.messages = np.pad(self.messages, ((0, 0), (0, widest - width)))
            width = widest
        return width

    # -------------------------------------------------------------- solution

    def record_labels(self, labels: np.ndarray) -> None:
        """Store the latest solution labels for label-warm re-solves."""
        self.labels = np.asarray(labels, dtype=np.int64).copy()

    def assignment_values(
        self, labels: np.ndarray
    ) -> Dict[Tuple[str, str], str]:
        """Decode a labelling into a (host, service) → product mapping."""
        return {
            variable: self.candidates[node][int(labels[node])]
            for node, variable in enumerate(self.variables)
        }

    # ------------------------------------------------------------- internals

    def _append_variable(self, host: str, service: str) -> None:
        range_ = self.network.candidates(host, service)
        self.index[(host, service)] = len(self.variables)
        self.variables.append((host, service))
        self.candidates.append(range_)
        self._unaries.append(np.full(len(range_), self.unary_constant))

    def _weight(self, service: str) -> float:
        return self.pairwise_weight * float(self.service_weights.get(service, 1.0))

    def _matrix_for(
        self, range_a: Tuple[str, ...], range_b: Tuple[str, ...], weight: float
    ) -> Tuple[int, bool]:
        """Cost id for a candidate-range pair, plus whether the stored
        orientation is the transpose of the requested one (the caller then
        flips the edge's endpoints instead of storing a second matrix)."""
        key = (range_a, range_b, weight)
        cid = self._matrix_ids.get(key)
        if cid is not None:
            return cid, False
        flipped = self._matrix_ids.get((range_b, range_a, weight))
        if flipped is not None:
            return flipped, True
        matrix = np.empty((len(range_a), len(range_b)))
        for row, product_a in enumerate(range_a):
            for col, product_b in enumerate(range_b):
                matrix[row, col] = weight * self.similarity.get(product_a, product_b)
        cid = len(self._matrices)
        self._matrix_ids[key] = cid
        self._matrices.append(matrix)
        self._matrix_meta.append(key)
        return cid, False

    def _append_edge(self, a: str, b: str, service: str) -> None:
        node_a = self.index[(a, service)]
        node_b = self.index[(b, service)]
        cid, flip = self._matrix_for(
            self.candidates[node_a], self.candidates[node_b], self._weight(service)
        )
        first, second = (node_b, node_a) if flip else (node_a, node_b)
        self._edge_keys.append((_link_key(a, b), service))
        self._edge_first.append(first)
        self._edge_second.append(second)
        self._edge_cid.append(cid)

    # ------------------------------------------------------- event internals

    def _apply_similarity(self, event: SimilarityUpdate) -> None:
        a, b, value = event.product_a, event.product_b, event.value
        self.similarity.set(a, b, value)
        for cid, (range_a, range_b, weight) in enumerate(self._matrix_meta):
            matrix = self._matrices[cid]
            changed = False
            if a in range_a and b in range_b:
                row, col = range_a.index(a), range_b.index(b)
                self.dirty_cost = max(
                    self.dirty_cost, abs(weight * value - matrix[row, col])
                )
                matrix[row, col] = weight * value
                changed = True
            if b in range_a and a in range_b:
                row, col = range_a.index(b), range_b.index(a)
                self.dirty_cost = max(
                    self.dirty_cost, abs(weight * value - matrix[row, col])
                )
                matrix[row, col] = weight * value
                changed = True
            # Matrices born after the last flush/rebuild (a pending
            # structural delta allocated them) are not in the live plan's
            # stack yet; the pending flush picks the new value up from
            # self._matrices, so only patch ids the stack knows.
            if changed and cid < self.plan.stacked:
                self.plan.set_cost_matrix(cid, matrix)

    def _apply_unary_constraint(self, event) -> None:
        """Pin/Unpin/Forbid/Allow: mutate the set, rewrite one unary mask.

        The node's unary is recomputed from the *live constraint set* (base
        ``Pr_const`` plus every Fix/Forbid mask in constraint order — the
        exact accumulation of the batch compiler) and written onto the
        plan in place (:meth:`MRFArrays.set_unary`): a value-only delta,
        no slot/level/message change.
        """
        apply_constraint_event(self.network, self.constraints, event)
        self._refresh_unary(self.index[(event.host, event.service)])

    def _refresh_unary(self, node: int) -> None:
        """Recompute one node's unary from the live constraint set."""
        from repro.core.compile import constraint_mask

        host, service = self.variables[node]
        vector = np.full(len(self.candidates[node]), self.unary_constant)
        for constraint in self.constraints.unary_constraints_for(host, service):
            vector = vector + constraint_mask(
                self.candidates[node], constraint
            )
        self._unaries[node] = vector
        if not self._nodes_dirty:
            # Node ids in the live plan only diverge while a host delta is
            # pending; until then the in-place write keeps the plan hot.
            self.plan.set_unary(node, vector)
        if (
            self.labels is not None
            and vector[int(self.labels[node])] >= HARD_COST
        ):
            self.stranded = True
        self.dirty_masked += 1

    def _apply_combination(self, event: CombinationUpdate) -> None:
        """Combination add/retire: mutate the set, patch intra-host edges.

        Each affected host's (service, service) pair gets its table
        recomputed from the live set — in-place (:meth:`MRFArrays.
        set_cost_matrix`) when the pair already carries a table, an eager
        edge append (new message slots at the 0 identity) when the rule
        couples the pair for the first time, an edge deletion when the
        last rule on the pair is retired.  Structural cases go through the
        usual lazy :meth:`flush`.
        """
        apply_constraint_event(self.network, self.constraints, event)
        constraint = event.constraint
        hosts = (
            self.network.hosts
            if constraint.host == GLOBAL
            else [constraint.host]
        )
        for host in hosts:
            if not (
                self.network.has_service(host, constraint.service_m)
                and self.network.has_service(host, constraint.service_n)
            ):
                continue
            self._refresh_combination(
                host, constraint.service_m, constraint.service_n
            )

    def _refresh_combination(
        self, host: str, service_m: str, service_n: str
    ) -> None:
        """Recompute one host pair's combination table from the live set."""
        from repro.core.compile import write_combination

        node_m = self.index[(host, service_m)]
        node_n = self.index[(host, service_n)]
        lo, hi = min(node_m, node_n), max(node_m, node_n)
        svc_lo = self.variables[lo][1]
        svc_hi = self.variables[hi][1]
        table = np.zeros(
            (len(self.candidates[lo]), len(self.candidates[hi]))
        )
        for constraint in self.constraints.combination_constraints():
            if constraint.host not in (host, GLOBAL):
                continue
            if not (
                self.network.has_service(host, constraint.service_m)
                and self.network.has_service(host, constraint.service_n)
            ):
                continue
            c_m = self.index[(host, constraint.service_m)]
            c_n = self.index[(host, constraint.service_n)]
            if {c_m, c_n} != {lo, hi}:
                continue
            write_combination(
                constraint,
                self.candidates[c_m],
                self.candidates[c_n],
                c_m == lo,
                table,
            )

        key = (host, svc_lo, svc_hi)
        cid = self._combo_cids.get(key)
        if table.any():
            if cid is None:
                cid = len(self._matrices)
                self._matrices.append(table)
                self._matrix_meta.append(_COMBO_META)
                self._combo_cids[key] = cid
                self._edge_keys.append(((host, host), (svc_lo, svc_hi)))
                self._edge_first.append(lo)
                self._edge_second.append(hi)
                self._edge_cid.append(cid)
                self.messages = np.vstack(
                    [self.messages, np.zeros((2, self.messages.shape[1]))]
                )
                self._edges_dirty = True
            else:
                self._matrices[cid][...] = table
                if cid < self.plan.stacked:
                    self.plan.set_cost_matrix(cid, table)
            if (
                self.labels is not None
                and table[int(self.labels[lo]), int(self.labels[hi])]
                >= HARD_COST
            ):
                self.stranded = True
        elif cid is not None:
            # The pair's last rule was retired: the edge goes with it (a
            # cold compile of the current set would not emit it either).
            # The orphaned table stays in the stack — cost ids are
            # append-only — and is dropped by the next rebuild.
            positions = [
                e
                for e, k in enumerate(self._edge_keys)
                if k == ((host, host), (svc_lo, svc_hi))
            ]
            self._delete_edges(positions)
            del self._combo_cids[key]
        self.dirty_edges += 1

    def _apply_link_add(self, event: LinkAdd) -> None:
        self.network.add_link(event.a, event.b)
        added = 0
        for service in self.network.shared_services(event.a, event.b):
            self._append_edge(event.a, event.b, service)
            added += 1
        if added:
            self.messages = np.vstack(
                [self.messages, np.zeros((2 * added, self.messages.shape[1]))]
            )
            self._edges_dirty = True
        self.dirty_edges += added

    def _apply_link_remove(self, event: LinkRemove) -> None:
        self.network.remove_link(event.a, event.b)
        key = _link_key(event.a, event.b)
        positions = [
            e for e, (link, _service) in enumerate(self._edge_keys) if link == key
        ]
        self._delete_edges(positions)
        self.dirty_edges += len(positions)

    def _apply_host_join(self, event: HostJoin) -> None:
        self.network.add_host(event.host, event.service_map())
        for service in self.network.services_of(event.host):
            self._append_variable(event.host, service)
            if self.labels is not None:
                # New variables start at label 0 (flat unaries make any
                # start equivalent; ICM repositions them in one sweep).
                self.labels = np.append(self.labels, 0)
            self.dirty_nodes += 1
        self._nodes_dirty = True
        for peer in event.links:
            self._apply_link_add(LinkAdd(a=event.host, b=peer))
        # GLOBAL combination rules apply to the newcomer immediately — a
        # cold compile of the same state would emit its tables too.
        pairs = set()
        for constraint in self.constraints.combination_constraints():
            if constraint.host == GLOBAL and (
                self.network.has_service(event.host, constraint.service_m)
                and self.network.has_service(event.host, constraint.service_n)
            ):
                pairs.add(
                    frozenset((constraint.service_m, constraint.service_n))
                )
        for pair in sorted(sorted(p) for p in pairs):
            self._refresh_combination(event.host, pair[0], pair[1])

    def _apply_host_leave(self, event: HostLeave) -> None:
        host = event.host
        removed = [
            self.index[(host, service)]
            for service in self.network.services_of(host)
        ]
        self.network.remove_host(host)
        # The host's constraints vanish with it (GLOBAL rules survive);
        # its combination edges are deleted by the endpoint scan below.
        self.constraints.prune_host(host)
        self._combo_cids = {
            key: cid
            for key, cid in self._combo_cids.items()
            if key[0] != host
        }
        removed_set = set(removed)
        positions = [
            e
            for e in range(len(self._edge_keys))
            if self._edge_first[e] in removed_set
            or self._edge_second[e] in removed_set
        ]
        self._delete_edges(positions)
        self.dirty_edges += len(positions)

        # Renumber surviving nodes (order preserved).
        keep = [n for n in range(len(self.variables)) if n not in removed_set]
        remap = {old: new for new, old in enumerate(keep)}
        self.variables = [self.variables[n] for n in keep]
        self.candidates = [self.candidates[n] for n in keep]
        self._unaries = [self._unaries[n] for n in keep]
        self.index = {variable: n for n, variable in enumerate(self.variables)}
        if self.labels is not None:
            self.labels = self.labels[keep]
        self._edge_first = [remap[n] for n in self._edge_first]
        self._edge_second = [remap[n] for n in self._edge_second]
        self._nodes_dirty = True
        self.dirty_nodes += len(removed)

    def _delete_edges(self, positions: List[int]) -> None:
        if not positions:
            return
        drop = set(positions)
        keep = [e for e in range(len(self._edge_keys)) if e not in drop]
        self._edge_keys = [self._edge_keys[e] for e in keep]
        self._edge_first = [self._edge_first[e] for e in keep]
        self._edge_second = [self._edge_second[e] for e in keep]
        self._edge_cid = [self._edge_cid[e] for e in keep]
        slots = [s for e in positions for s in (2 * e, 2 * e + 1)]
        self.messages = np.delete(self.messages, slots, axis=0)
        self._edges_dirty = True


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)
