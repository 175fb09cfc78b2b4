"""Typed network-churn events and synthetic event traces.

The paper computes one static assignment per network; a production fleet
churns continuously — hosts are provisioned and decommissioned, links come
and go with VLAN changes, and CVE feeds re-score product-pair similarity
every day.  This module gives that churn a typed vocabulary:

* :class:`HostJoin` / :class:`HostLeave` — a host (with its services,
  candidate ranges and links) enters or leaves the network;
* :class:`LinkAdd` / :class:`LinkRemove` — the host graph gains or loses an
  undirected link;
* :class:`SimilarityUpdate` — a vulnerability feed re-scores one product
  pair (the table's values change, the network does not);
* :class:`PinService` / :class:`UnpinService` — an operator pins a
  (host, service) to one product (a :class:`~repro.network.constraints.
  FixProduct` appears/disappears);
* :class:`ForbidRange` / :class:`AllowRange` — an operator bans or
  re-allows one candidate product (a :class:`~repro.network.constraints.
  ForbidProduct` appears/disappears);
* :class:`CombinationUpdate` — an intra-host combination rule
  (:class:`~repro.network.constraints.RequireCombination` /
  :class:`~repro.network.constraints.AvoidCombination`) is added or
  retired.

:func:`apply_event` replays one event onto a ``(network, similarity,
constraints)`` triple — the ground-truth mutation every consumer (the
incremental engine, cold-solve cross-checks, tests) shares.
:func:`random_churn_trace` draws a deterministic synthetic workload of
valid events against an evolving copy of the network (and of the
constraint set), so a trace can be replayed on the original without
surprises.  Real-world churn is not independent — provisioning lands a
rack at a time, CVE feeds re-score one vendor's products in a batch, and
operators upload whole policy files — so :class:`ChurnConfig` can
correlate the trace: ``rack_size`` expands each join draw into a rack of
hosts sharing one peer set (plus intra-rack links), ``vendor_batch``
expands each feed draw into a burst of re-scores against one candidate
range, and ``constraint_burst`` expands each constraint draw into a bulk
policy load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.model import Network, NetworkError
from repro.nvd.similarity import SimilarityTable

__all__ = [
    "HostJoin",
    "HostLeave",
    "LinkAdd",
    "LinkRemove",
    "SimilarityUpdate",
    "PinService",
    "UnpinService",
    "ForbidRange",
    "AllowRange",
    "CombinationUpdate",
    "Event",
    "ConstraintEvent",
    "apply_event",
    "apply_constraint_event",
    "event_to_dict",
    "event_from_dict",
    "ChurnConfig",
    "random_churn_trace",
]


@dataclass(frozen=True)
class HostJoin:
    """A new host joins, running ``services`` and linked to ``links``."""

    host: str
    services: Tuple[Tuple[str, Tuple[str, ...]], ...]
    links: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return (
            f"join {self.host} ({len(self.services)} services, "
            f"{len(self.links)} links)"
        )

    def service_map(self) -> Dict[str, Tuple[str, ...]]:
        """The services as the mapping :meth:`Network.add_host` expects."""
        return dict(self.services)


@dataclass(frozen=True)
class HostLeave:
    """A host is decommissioned (its links disappear with it)."""

    host: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"leave {self.host}"


@dataclass(frozen=True)
class LinkAdd:
    """An undirected link appears between two existing hosts."""

    a: str
    b: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"link+ {self.a}--{self.b}"


@dataclass(frozen=True)
class LinkRemove:
    """An undirected link disappears."""

    a: str
    b: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"link- {self.a}--{self.b}"


@dataclass(frozen=True)
class SimilarityUpdate:
    """A vulnerability feed re-scores the similarity of one product pair."""

    product_a: str
    product_b: str
    value: float

    def __post_init__(self) -> None:
        if self.product_a == self.product_b:
            raise ValueError("self-similarity is fixed at 1.0")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"similarity must be in [0, 1], got {self.value}")

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"sim {self.product_a}~{self.product_b}={self.value:.3f}"


# ------------------------------------------------------ constraint events


@dataclass(frozen=True)
class PinService:
    """Pin a (host, service) to one product (operator Fix constraint).

    Re-pinning an already-pinned variable replaces the previous pin — the
    idempotent "this is now the policy" semantics of a configuration push.
    """

    host: str
    service: str
    product: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"pin {self.host}.{self.service}={self.product}"


@dataclass(frozen=True)
class UnpinService:
    """Release the pin on a (host, service); a no-op when none exists."""

    host: str
    service: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"unpin {self.host}.{self.service}"


@dataclass(frozen=True)
class ForbidRange:
    """Ban one candidate product at a (host, service) (Forbid constraint)."""

    host: str
    service: str
    product: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"forbid {self.host}.{self.service}!={self.product}"


@dataclass(frozen=True)
class AllowRange:
    """Lift the ban(s) on one candidate product; a no-op when none exists."""

    host: str
    service: str
    product: str

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        return f"allow {self.host}.{self.service}={self.product}"


@dataclass(frozen=True)
class CombinationUpdate:
    """Add or retire one intra-host combination rule.

    ``constraint`` is the exact :class:`RequireCombination` /
    :class:`AvoidCombination` object; with ``add=False`` it must name a
    rule currently in the set (removing an unknown rule is an error — the
    event stream is the system of record for combination policy).
    """

    constraint: Union[RequireCombination, AvoidCombination]
    add: bool = True

    def describe(self) -> str:
        """Human-readable one-liner for event tables."""
        sign = "combo+" if self.add else "combo-"
        return f"{sign} {self.constraint.describe()}"


ConstraintEvent = Union[
    PinService, UnpinService, ForbidRange, AllowRange, CombinationUpdate
]
Event = Union[
    HostJoin, HostLeave, LinkAdd, LinkRemove, SimilarityUpdate, ConstraintEvent
]


def apply_constraint_event(
    network: Network,
    constraints: ConstraintSet,
    event: ConstraintEvent,
) -> None:
    """Mutate ``constraints`` according to one constraint event.

    The reference semantics shared by :func:`apply_event` and the
    streaming engine's plan patching: a pin replaces any previous pin on
    the variable, unpin/allow drop every matching constraint (idempotent),
    and combination updates append/remove the named rule.  Products are
    validated against the candidate range so configuration mistakes
    surface at event time, not at the next rebuild.
    """
    if isinstance(event, (PinService, ForbidRange, AllowRange)):
        candidates = network.candidates(event.host, event.service)
        if event.product not in candidates:
            raise NetworkError(
                f"event {event.describe()!r} names product "
                f"{event.product!r} outside the candidate range"
            )
    if isinstance(event, PinService):
        constraints.discard_where(
            lambda c: isinstance(c, FixProduct)
            and c.host == event.host
            and c.service == event.service
        )
        constraints.add(FixProduct(event.host, event.service, event.product))
    elif isinstance(event, UnpinService):
        network.candidates(event.host, event.service)  # validate existence
        constraints.discard_where(
            lambda c: isinstance(c, FixProduct)
            and c.host == event.host
            and c.service == event.service
        )
    elif isinstance(event, ForbidRange):
        constraints.add(
            ForbidProduct(event.host, event.service, event.product)
        )
    elif isinstance(event, AllowRange):
        constraints.discard_where(
            lambda c: isinstance(c, ForbidProduct)
            and c.host == event.host
            and c.service == event.service
            and c.product == event.product
        )
    elif isinstance(event, CombinationUpdate):
        constraint = event.constraint
        if constraint.service_m == constraint.service_n:
            raise NetworkError(
                f"combination rule {constraint.describe()!r} couples a "
                f"service with itself"
            )
        if constraint.host != GLOBAL:
            # Same validity rule as ConstraintSet.validate_against: the
            # host must exist and run both services.
            network.candidates(constraint.host, constraint.service_m)
            network.candidates(constraint.host, constraint.service_n)
        if event.add:
            constraints.add(constraint)
        else:
            constraints.remove(constraint)
    else:  # pragma: no cover - type escape hatch
        raise TypeError(f"unknown constraint event {event!r}")


def apply_event(
    network: Network,
    similarity: Optional[SimilarityTable],
    event: Event,
    constraints: Optional[ConstraintSet] = None,
) -> None:
    """Mutate ``network`` (and ``similarity``/``constraints``) for one event.

    This is the reference semantics of the event vocabulary; the
    incremental engine additionally patches its live plan, and tests
    cross-validate the two by cold-solving the mutated network.

    Constraint events require ``constraints``; a :class:`HostLeave` with
    ``constraints`` supplied additionally drops every constraint
    referencing the departed host (``GLOBAL`` combination rules survive) —
    the decommission contract the streaming engine mirrors.
    """
    if isinstance(event, HostJoin):
        network.add_host(event.host, event.service_map())
        for peer in event.links:
            network.add_link(event.host, peer)
    elif isinstance(event, HostLeave):
        network.remove_host(event.host)
        if constraints is not None:
            constraints.prune_host(event.host)
    elif isinstance(event, LinkAdd):
        network.add_link(event.a, event.b)
    elif isinstance(event, LinkRemove):
        network.remove_link(event.a, event.b)
    elif isinstance(event, SimilarityUpdate):
        if similarity is None:
            raise ValueError("SimilarityUpdate needs a similarity table")
        similarity.set(event.product_a, event.product_b, event.value)
    elif isinstance(
        event,
        (PinService, UnpinService, ForbidRange, AllowRange, CombinationUpdate),
    ):
        if constraints is None:
            raise ValueError(
                f"{type(event).__name__} needs a constraint set"
            )
        apply_constraint_event(network, constraints, event)
    else:  # pragma: no cover - type escape hatch
        raise TypeError(f"unknown event {event!r}")


# ------------------------------------------------------------------- codec

#: wire name of each event class (the ``type`` field of the JSON form).
_EVENT_TYPES = {
    HostJoin: "host_join",
    HostLeave: "host_leave",
    LinkAdd: "link_add",
    LinkRemove: "link_remove",
    SimilarityUpdate: "similarity",
    PinService: "pin",
    UnpinService: "unpin",
    ForbidRange: "forbid",
    AllowRange: "allow",
    CombinationUpdate: "combination",
}


def event_to_dict(event: Event) -> Dict[str, object]:
    """The JSON-ready dict form of a churn event.

    Every typed event maps 1:1 onto a plain dict keyed by a ``type``
    field — the wire format of the ``repro serve`` ingestion endpoint
    (``POST /events``) and of persisted event logs.
    :func:`event_from_dict` inverts it exactly.

    >>> event_to_dict(LinkAdd(a="web", b="hmi"))
    {'type': 'link_add', 'a': 'web', 'b': 'hmi'}
    >>> event_to_dict(PinService("web", "os", "ubuntu"))
    {'type': 'pin', 'host': 'web', 'service': 'os', 'product': 'ubuntu'}
    """
    if isinstance(event, HostJoin):
        return {
            "type": "host_join",
            "host": event.host,
            "services": [
                [service, list(products)]
                for service, products in event.services
            ],
            "links": list(event.links),
        }
    if isinstance(event, HostLeave):
        return {"type": "host_leave", "host": event.host}
    if isinstance(event, (LinkAdd, LinkRemove)):
        return {"type": _EVENT_TYPES[type(event)], "a": event.a, "b": event.b}
    if isinstance(event, SimilarityUpdate):
        return {
            "type": "similarity",
            "product_a": event.product_a,
            "product_b": event.product_b,
            "value": event.value,
        }
    if isinstance(event, (PinService, ForbidRange, AllowRange)):
        return {
            "type": _EVENT_TYPES[type(event)],
            "host": event.host,
            "service": event.service,
            "product": event.product,
        }
    if isinstance(event, UnpinService):
        return {"type": "unpin", "host": event.host, "service": event.service}
    if isinstance(event, CombinationUpdate):
        constraint = event.constraint
        kind = "avoid" if isinstance(constraint, AvoidCombination) else "require"
        partner = (
            constraint.product_k
            if isinstance(constraint, AvoidCombination)
            else constraint.product_l
        )
        return {
            "type": "combination",
            "add": event.add,
            "kind": kind,
            "host": constraint.host,
            "service_m": constraint.service_m,
            "product_j": constraint.product_j,
            "service_n": constraint.service_n,
            "partner": partner,
        }
    raise TypeError(f"unknown event {event!r}")


def event_from_dict(payload: Dict[str, object]) -> Event:
    """Parse the dict form of a churn event back into its typed class.

    The exact inverse of :func:`event_to_dict`; unknown ``type`` values,
    missing fields and mistyped ones raise ``ValueError`` naming the
    field (the ingestion endpoint turns those into HTTP 400).  Names must
    be JSON strings, ``add`` a JSON boolean and ``value`` a number, so a
    ``"false"`` string or a ``null`` host is rejected, not coerced.

    >>> event_from_dict({"type": "link_add", "a": "web", "b": "hmi"})
    LinkAdd(a='web', b='hmi')
    >>> event = SimilarityUpdate("mysql", "mssql", 0.25)
    >>> event_from_dict(event_to_dict(event)) == event
    True
    """
    if not isinstance(payload, dict):
        raise ValueError(f"event must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("type")

    def name(field: str) -> str:
        return _string(payload, field, kind)

    if kind == "host_join":
        return HostJoin(
            host=name("host"),
            services=_services(payload.get("services"), kind),
            links=tuple(
                _string_item(peer, "links", kind)
                for peer in _array(payload.get("links", []), "links", kind)
            ),
        )
    if kind == "host_leave":
        return HostLeave(host=name("host"))
    if kind == "link_add":
        return LinkAdd(a=name("a"), b=name("b"))
    if kind == "link_remove":
        return LinkRemove(a=name("a"), b=name("b"))
    if kind == "similarity":
        value = payload.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"malformed {kind!r} event: field 'value' must be a "
                f"number, got {value!r}"
            )
        return SimilarityUpdate(
            product_a=name("product_a"),
            product_b=name("product_b"),
            value=float(value),
        )
    if kind == "pin":
        return PinService(name("host"), name("service"), name("product"))
    if kind == "unpin":
        return UnpinService(name("host"), name("service"))
    if kind == "forbid":
        return ForbidRange(name("host"), name("service"), name("product"))
    if kind == "allow":
        return AllowRange(name("host"), name("service"), name("product"))
    if kind == "combination":
        combo_kind = payload.get("kind")
        if combo_kind not in ("require", "avoid"):
            raise ValueError(
                f"combination kind must be 'require' or 'avoid', "
                f"got {combo_kind!r}"
            )
        add = payload.get("add", True)
        if not isinstance(add, bool):
            raise ValueError(
                f"malformed {kind!r} event: field 'add' must be a "
                f"boolean, got {add!r}"
            )
        cls = (
            AvoidCombination if combo_kind == "avoid" else RequireCombination
        )
        constraint = cls(
            name("host"),
            name("service_m"), name("product_j"),
            name("service_n"), name("partner"),
        )
        return CombinationUpdate(constraint=constraint, add=add)
    raise ValueError(f"unknown event type {kind!r}")


def _string(payload: Dict[str, object], field: str, kind: object) -> str:
    """``payload[field]`` as a name; missing or non-string raises."""
    if field not in payload:
        raise ValueError(
            f"malformed {kind!r} event: missing field {field!r}"
        )
    return _string_item(payload[field], field, kind)


def _string_item(value: object, field: str, kind: object) -> str:
    if not isinstance(value, str):
        raise ValueError(
            f"malformed {kind!r} event: expected a string in field "
            f"{field!r}, got {value!r}"
        )
    return value


def _array(value: object, field: str, kind: object) -> list:
    if not isinstance(value, list):
        raise ValueError(
            f"malformed {kind!r} event: field {field!r} must be an array, "
            f"got {value!r}"
        )
    return value


def _services(
    value: object, kind: object
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Decode ``host_join.services``: an array of [service, [products]]."""
    services = []
    for entry in _array(value, "services", kind):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(
                f"malformed {kind!r} event: field 'services' must hold "
                f"[service, [products]] pairs, got {entry!r}"
            )
        service, products = entry
        services.append((
            _string_item(service, "services", kind),
            tuple(
                _string_item(p, "services", kind)
                for p in _array(products, "services", kind)
            ),
        ))
    return tuple(services)


# ------------------------------------------------------------------ traces


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of a synthetic churn workload.

    Attributes:
        events: trace length.
        seed: PRNG seed (the trace is fully deterministic).
        weights: relative frequency of each event kind, in the order
            (host join, host leave, link add, link remove, similarity
            update).  The defaults skew towards link churn and feed
            updates — the high-frequency events of a real fleet.
        join_degree: links a joining host receives.
        min_hosts: hosts never drop below this (leave events are skipped).
        sim_low / sim_high: range of re-scored similarity values.
        rack_size: hosts per join burst.  Real provisioning is
            rack-correlated — machines come up a rack at a time, wired to
            the same aggregation peers; ``rack_size > 1`` turns each join
            draw into that many :class:`HostJoin` events sharing one
            service template and one peer set, plus full intra-rack links.
            The default 1 reproduces the original independent joins (and
            the exact original draw sequence).
        vendor_batch: similarity re-scores per feed burst.  CVE disclosures
            batch by vendor — one advisory re-scores many product pairs of
            one candidate range at once; ``vendor_batch > 1`` emits that
            many :class:`SimilarityUpdate` events against a single range.
            Default 1 reproduces the original independent updates.
        constraint_weight: relative frequency of constraint events
            (pin/unpin/forbid/allow/combination updates), alongside the
            five ``weights``.  The default 0.0 disables constraint churn
            and reproduces the original draw sequence exactly — a zero
            weight consumes the same randomness as no weight at all.
        constraint_burst: constraint events per constraint draw.  Policy
            lands in bulk — an operator uploads a compliance file, not one
            rule; ``constraint_burst > 1`` expands each draw into that
            many events drawn against the same evolving constraint state.
    """

    events: int = 20
    seed: int = 0
    weights: Tuple[float, float, float, float, float] = (1.0, 1.0, 2.0, 2.0, 3.0)
    join_degree: int = 3
    min_hosts: int = 3
    sim_low: float = 0.0
    sim_high: float = 0.9
    rack_size: int = 1
    vendor_batch: int = 1
    constraint_weight: float = 0.0
    constraint_burst: int = 1

    def __post_init__(self) -> None:
        if self.events < 0:
            raise ValueError("events must be non-negative")
        if len(self.weights) != 5 or any(w < 0 for w in self.weights):
            raise ValueError("weights must be five non-negative numbers")
        if self.constraint_weight < 0:
            raise ValueError("constraint_weight must be non-negative")
        if sum(self.weights) + self.constraint_weight <= 0:
            raise ValueError("at least one event kind needs positive weight")
        if not 0.0 <= self.sim_low <= self.sim_high <= 1.0:
            raise ValueError("need 0 <= sim_low <= sim_high <= 1")
        if self.rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if self.vendor_batch < 1:
            raise ValueError("vendor_batch must be >= 1")
        if self.constraint_burst < 1:
            raise ValueError("constraint_burst must be >= 1")


_KINDS = ("join", "leave", "link_add", "link_remove", "similarity")
#: the sixth, optional kind — appended so a zero ``constraint_weight``
#: leaves the draw sequence of the original five kinds untouched.
_CONSTRAINT_KIND = "constraint"


def random_churn_trace(
    network: Network,
    config: ChurnConfig = ChurnConfig(),
) -> List[Event]:
    """Draw a deterministic trace of valid churn events for ``network``.

    Events are validated against an evolving *copy* of the network (a
    removed link is never removed twice, a joining host clones the service
    spec of an existing one), so replaying the trace on the original — via
    :func:`apply_event` or the incremental engine — always succeeds.

    With ``rack_size``/``vendor_batch``/``constraint_burst`` above 1 a
    single draw expands into a correlated burst (rack joins, vendor CVE
    batches, bulk policy loads); the trace is truncated at
    ``config.events`` even mid-burst.
    """
    rng = random.Random(config.seed)
    state = network.copy()
    cstate = ConstraintSet()
    trace: List[Event] = []
    joined = 0
    kinds = _KINDS + (_CONSTRAINT_KIND,)
    weights = tuple(config.weights) + (config.constraint_weight,)
    positive = {k for k, w in zip(kinds, weights) if w > 0}
    infeasible: set = set()
    while len(trace) < config.events:
        kind = rng.choices(kinds, weights=weights)[0]
        burst = _draw(kind, state, cstate, rng, config, joined)
        if not burst:
            # The kind is currently infeasible (no removable link, host
            # floor reached, ...); redraw — unless every positive-weight
            # kind has come up infeasible since the last success, in which
            # case the loop would spin forever (e.g. leave-only weights at
            # the host floor).
            infeasible.add(kind)
            if infeasible >= positive:
                raise ValueError(
                    f"no feasible event kind under weights {config.weights} "
                    f"after {len(trace)}/{config.events} events"
                )
            continue
        infeasible.clear()
        for event in burst:
            if len(trace) >= config.events:
                break
            if isinstance(event, HostJoin):
                joined += 1
            if not isinstance(event, SimilarityUpdate):
                apply_event(state, None, event, cstate)
            trace.append(event)
    return trace


def _draw(
    kind: str,
    state: Network,
    cstate: ConstraintSet,
    rng: random.Random,
    config: ChurnConfig,
    joined: int,
) -> Optional[List[Event]]:
    """One draw of ``kind``: a burst of valid events, or None if infeasible.

    Single events are one-element bursts; the draw sequence for the
    default config is identical to the pre-burst implementation, so traces
    under old seeds are unchanged.
    """
    hosts = state.hosts
    if kind == "join":
        template = rng.choice(hosts)
        services = tuple(
            (service, state.candidates(template, service))
            for service in state.services_of(template)
        )
        peers = tuple(rng.sample(hosts, min(config.join_degree, len(hosts))))
        rack: List[Event] = []
        for position in range(config.rack_size):
            # Rack-correlated: every member wires to the same aggregation
            # peers and to its rack mates (earlier members exist by the
            # time a later one applies).
            mates = tuple(member.host for member in rack)  # type: ignore[union-attr]
            rack.append(
                HostJoin(
                    host=f"joined{joined + position}",
                    services=services,
                    links=peers + mates,
                )
            )
        return rack
    if kind == "leave":
        if len(hosts) <= config.min_hosts:
            return None
        return [HostLeave(host=rng.choice(hosts))]
    if kind == "link_add":
        for _ in range(10):
            a = rng.choice(hosts)
            others = [h for h in hosts if h != a and not state.has_link(a, h)]
            if others:
                return [LinkAdd(a=a, b=rng.choice(others))]
        return None
    if kind == "link_remove":
        links = state.links
        if not links:
            return None
        a, b = rng.choice(links)
        return [LinkRemove(a=a, b=b)]
    if kind == _CONSTRAINT_KIND:
        return _draw_constraints(state, cstate, rng, config)
    # similarity update: re-score pairs inside one candidate range, so the
    # change actually lands on a pairwise cost matrix.  A vendor batch
    # draws every pair from the same range — one advisory, one vendor.
    ranges = [
        state.candidates(host, service)
        for host in hosts
        for service in state.services_of(host)
        if len(state.candidates(host, service)) >= 2
    ]
    if not ranges:
        return None
    products = rng.choice(ranges)
    updates: List[Event] = []
    for _ in range(config.vendor_batch):
        a, b = rng.sample(list(products), 2)
        value = round(rng.uniform(config.sim_low, config.sim_high), 3)
        updates.append(SimilarityUpdate(product_a=a, product_b=b, value=value))
    return updates


# ------------------------------------------------------- constraint draws

#: subkinds of a constraint draw, tried in feasibility-filtered order.
_CONSTRAINT_SUBKINDS = (
    "pin", "unpin", "forbid", "allow", "combo_add", "combo_remove",
)


@dataclass
class _ConstraintView:
    """Evolving constraint summary a burst draws against.

    Mirrors the subset of :class:`ConstraintSet` state the generator
    needs — pins and forbids per variable, active combination rules —
    updated as each burst member is drawn, so a multi-event policy load
    stays sequentially valid without mutating the trace's real state.
    """

    pins: Dict[Tuple[str, str], str] = field(default_factory=dict)
    forbids: Dict[Tuple[str, str], set] = field(default_factory=dict)
    combos: List[Union[RequireCombination, AvoidCombination]] = field(
        default_factory=list
    )

    @classmethod
    def of(cls, constraints: ConstraintSet) -> "_ConstraintView":
        """Snapshot the generator-relevant state of a constraint set."""
        view = cls()
        for constraint in constraints:
            if isinstance(constraint, FixProduct):
                view.pins[(constraint.host, constraint.service)] = (
                    constraint.product
                )
            elif isinstance(constraint, ForbidProduct):
                view.forbids.setdefault(
                    (constraint.host, constraint.service), set()
                ).add(constraint.product)
            else:
                view.combos.append(constraint)
        return view

    def allowed(self, state: Network, host: str, service: str) -> List[str]:
        """Products of a variable's range not currently forbidden."""
        banned = self.forbids.get((host, service), set())
        return [
            p for p in state.candidates(host, service) if p not in banned
        ]

    def pin_conflicts(self, host: str, service: str, product: str) -> bool:
        """Would pinning (host, service)=product make a combo binding-infeasible
        against the other pins?  (The generator never draws such a pin.)"""
        for combo in self.combos:
            if combo.host != host:
                continue
            pin_m = self.pins.get((host, combo.service_m))
            pin_n = self.pins.get((host, combo.service_n))
            if combo.service_m == service:
                pin_m = product
            if combo.service_n == service:
                pin_n = product
            if isinstance(combo, AvoidCombination):
                if pin_m == combo.product_j and pin_n == combo.product_k:
                    return True
            else:
                if (
                    pin_m == combo.product_j
                    and pin_n is not None
                    and pin_n != combo.product_l
                ):
                    return True
        return False

    def forbid_conflicts(self, host: str, service: str, product: str) -> bool:
        """Would forbidding the product strand a pinned Require partner?"""
        for combo in self.combos:
            if (
                isinstance(combo, RequireCombination)
                and combo.host == host
                and combo.service_n == service
                and combo.product_l == product
                and self.pins.get((host, combo.service_m)) == combo.product_j
            ):
                return True
        return False


def _draw_constraints(
    state: Network,
    cstate: ConstraintSet,
    rng: random.Random,
    config: ChurnConfig,
) -> Optional[List[Event]]:
    """One constraint draw: a bulk policy load of ``constraint_burst``
    events, each valid given the sequential application of the ones
    before it, or None when no subkind is currently feasible."""
    view = _ConstraintView.of(cstate)
    events: List[Event] = []
    for _ in range(config.constraint_burst):
        event = _draw_one_constraint(state, view, rng)
        if event is None:
            break
        events.append(event)
    return events or None


def _draw_one_constraint(
    state: Network, view: _ConstraintView, rng: random.Random
) -> Optional[Event]:
    """Draw one valid constraint event and apply it to the view.

    Feasibility keeps the constrained instance meaningful: a pin never
    lands on a forbidden product, a forbid always leaves at least one
    allowed label (and never the pinned one), and combination rules are
    never made binding-infeasible against the current pins.
    """
    variables = [
        (host, service)
        for host in state.hosts
        for service in state.services_of(host)
    ]
    for subkind in rng.sample(
        _CONSTRAINT_SUBKINDS, len(_CONSTRAINT_SUBKINDS)
    ):
        if subkind == "pin":
            unpinned = [v for v in variables if v not in view.pins]
            rng.shuffle(unpinned)
            for host, service in unpinned:
                allowed = [
                    p
                    for p in view.allowed(state, host, service)
                    if not view.pin_conflicts(host, service, p)
                ]
                if allowed:
                    product = rng.choice(allowed)
                    view.pins[(host, service)] = product
                    return PinService(host, service, product)
        elif subkind == "unpin":
            if view.pins:
                host, service = rng.choice(sorted(view.pins))
                del view.pins[(host, service)]
                return UnpinService(host, service)
        elif subkind == "forbid":
            candidates = list(variables)
            rng.shuffle(candidates)
            for host, service in candidates:
                allowed = view.allowed(state, host, service)
                pinned = view.pins.get((host, service))
                targets = [
                    p
                    for p in allowed
                    if p != pinned
                    and not view.forbid_conflicts(host, service, p)
                ] if len(allowed) > 1 else []
                if targets:
                    product = rng.choice(targets)
                    view.forbids.setdefault((host, service), set()).add(
                        product
                    )
                    return ForbidRange(host, service, product)
        elif subkind == "allow":
            banned = [
                (host, service, product)
                for (host, service), products in sorted(view.forbids.items())
                for product in sorted(products)
            ]
            if banned:
                host, service, product = rng.choice(banned)
                view.forbids[(host, service)].discard(product)
                return AllowRange(host, service, product)
        elif subkind == "combo_add":
            event = _draw_combo_add(state, view, rng)
            if event is not None:
                return event
        elif subkind == "combo_remove":
            if view.combos:
                constraint = rng.choice(view.combos)
                view.combos.remove(constraint)
                return CombinationUpdate(constraint=constraint, add=False)
    return None


def _draw_combo_add(
    state: Network, view: _ConstraintView, rng: random.Random
) -> Optional[Event]:
    """Draw one host-scoped Avoid/Require combination rule, or None."""
    hosts = [h for h in state.hosts if len(state.services_of(h)) >= 2]
    if not hosts:
        return None
    host = rng.choice(hosts)
    service_m, service_n = rng.sample(state.services_of(host), 2)
    trigger = rng.choice(state.candidates(host, service_m))
    partners = state.candidates(host, service_n)
    pin_m = view.pins.get((host, service_m))
    pin_n = view.pins.get((host, service_n))
    if rng.random() < 0.5:
        partner = rng.choice(partners)
        # Binding-infeasible against the pins: skip this draw.
        if pin_m == trigger and pin_n == partner:
            return None
        constraint: Union[RequireCombination, AvoidCombination] = (
            AvoidCombination(host, service_m, trigger, service_n, partner)
        )
    else:
        partner = rng.choice(partners)
        if pin_m == trigger and pin_n is not None and pin_n != partner:
            return None
        constraint = RequireCombination(
            host, service_m, trigger, service_n, partner
        )
    view.combos.append(constraint)
    return CombinationUpdate(constraint=constraint, add=True)
