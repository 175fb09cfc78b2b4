"""Correctness checks on every result, and the reference energies of
``energy_ratio``.

The energy a solver reports is recomputed on the network model through
:func:`repro.core.costs.assignment_energy`, which never builds an MRF
plan, plus the per-host preference term that function does not take.
An assignment must also be complete (every host/service pair holds one
of its candidates) and satisfy every constraint.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.costs import assignment_energy
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.incremental import DynamicDiversifier

#: relative tolerance of the energy comparison (float summation order).
REL_TOL = 1e-9
ABS_TOL = 1e-6


def check_assignment(
    network: Network,
    similarity: SimilarityTable,
    assignment: ProductAssignment,
    reported_energy: float,
    constraints: Optional[ConstraintSet] = None,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
) -> List[str]:
    """Every way ``assignment`` fails to be a correct result (empty = ok)."""
    problems: List[str] = []
    for host in network.hosts:
        for service in network.services_of(host):
            product = assignment.get(host, service)
            if product is None:
                problems.append(f"{host}/{service} unassigned")
            elif product not in network.candidates(host, service):
                problems.append(f"{host}/{service}={product} not a candidate")
    if problems:
        return problems[:5]
    if constraints:
        violations = constraints.violations(assignment, network)
        if violations:
            return [f"{len(violations)} constraint violation(s)"]
    energy = assignment_energy(network, similarity, assignment)
    if preferences:
        for host in network.hosts:
            for service in network.services_of(host):
                energy += preferences.get(
                    (host, service, assignment.get(host, service)), 0.0
                )
    if not math.isclose(energy, reported_energy, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        problems.append(
            f"reported energy {reported_energy!r} != recomputed {energy!r}"
        )
    return problems


def assignment_from_payload(
    network: Network, nested: Mapping[str, Mapping[str, str]]
) -> ProductAssignment:
    """The ``GET /assignment`` body's ``assignment`` as a ProductAssignment.

    Pairs the network does not have are skipped here and caught as
    missing or foreign by :func:`check_assignment`.
    """
    assignment = ProductAssignment(network)
    for host, services in nested.items():
        for service, product in services.items():
            if network.has_service(host, service) and product in network.candidates(
                host, service
            ):
                assignment.assign(host, service, product)
    return assignment


def random_energy(
    network: Network,
    similarity: SimilarityTable,
    unary_constant: float = 0.01,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
) -> float:
    """Expected E(N) of a uniformly random complete assignment.

    The reference of the batch workloads' ``energy_ratio``: it scales with
    the instance (edge count, how similar the candidate products are) the
    way the optimum does, so the ratio carries across seeds where raw E(N)
    does not.  Constraints are ignored.
    """
    means: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], float] = {}
    total = unary_constant * network.variable_count()
    for a, b in network.links:
        for service in network.shared_services(a, b):
            key = (network.candidates(a, service), network.candidates(b, service))
            mean = means.get(key)
            if mean is None:
                left, right = key
                mean = sum(
                    similarity.get(p, q) for p in left for q in right
                ) / (len(left) * len(right))
                means[key] = mean
            total += mean
    if preferences:
        for host in network.hosts:
            for service in network.services_of(host):
                products = network.candidates(host, service)
                total += sum(
                    preferences.get((host, service, p), 0.0) for p in products
                ) / len(products)
    return total


def cold_energy(
    network: Network, similarity: SimilarityTable, constraints: ConstraintSet
) -> float:
    """E(N) of a cold solve of a streaming state, on copies of it.

    The reference of the streaming workloads' ``energy_ratio``: warm
    re-solves should land where a from-scratch solve of the same state
    lands, whatever the churn did to the raw energy.
    """
    engine = DynamicDiversifier(
        network.copy(), similarity.copy(), constraints=constraints.copy()
    )
    return engine.solve().energy
