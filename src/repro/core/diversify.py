"""Top-level diversification API (paper Definition 5).

:func:`diversify` computes the optimal product assignment α̂ for a network —
or the constrained optimum α̂_C when a constraint set is given — by
compiling the MRF of Section V and running a MAP solver (TRW-S by default).
The result bundles the decoded assignment with optimisation diagnostics
(energy, dual lower bound, certificate of optimality) and
diversity-oriented summary statistics.

The general path compiles the network **directly into an array plan**
(:mod:`repro.core.compile`) — byte-identical to the classic
``build_mrf`` + ``MRFArrays`` pipeline but without materialising per-edge
Python objects, which is what keeps cold plan builds off the critical path
of the 1000-6000-host sweeps.  Solvers without a plan-level API (``icm``,
``exact``, ``anneal``, the ``*-ref``/``*-sharded`` wrappers and
``trws-dual`` by name) take the object pipeline: ``build_mrf`` then the
registered solver's ``solve(mrf)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.compile import CompiledPlan, compile_plan
from repro.core.costs import MRFBuild, build_mrf
from repro.mrf.partition import _component_of
from repro.mrf.solvers import SolverResult, get_solver
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet, ConstraintViolation
from repro.network.model import Network
from repro.network.zones import ZonedNetwork
from repro.nvd.similarity import SimilarityTable

__all__ = ["DiversificationResult", "diversify"]

#: Solvers with a plan-level (``solve_arrays``) API — the ones the direct
#: compiler path can drive without a :class:`PairwiseMRF`.
_PLAN_SOLVERS = ("trws", "bp")


@dataclass
class DiversificationResult:
    """Outcome of :func:`diversify`.

    Attributes:
        assignment: the decoded product assignment (always complete).
        energy: MRF energy of the assignment (the paper's E(N), Eq. 1).
        lower_bound: dual lower bound when the solver provides one.
        certified_optimal: True when energy == lower_bound (global optimum).
        satisfied: True when every constraint holds in the assignment;
            False signals an infeasible constraint set (the solver then
            returns the least-violating assignment).
        violations: the concrete violations when ``satisfied`` is False.
        similarity_total: Σ over links and shared services of the assigned
            products' similarity — the paper's pairwise cost (Eq. 3),
            unweighted.  Lower is more diverse.
        mean_edge_similarity: ``similarity_total`` averaged over the
            (link, shared-service) pairs; 0.0 means perfectly diversified.
        solver_result: raw solver output (traces, iterations, ...).
        build: the MRF build (variable mapping), for advanced inspection;
            None unless the Python object pipeline ran (a solver without
            a plan-level API).
        plan: the compiled array plan + variable mapping when the direct
            compiler path ran; None on the Python and fast paths.
    """

    assignment: ProductAssignment
    energy: float
    lower_bound: float
    certified_optimal: bool
    satisfied: bool
    violations: List[ConstraintViolation]
    similarity_total: float
    mean_edge_similarity: float
    solver_result: SolverResult
    build: Optional[MRFBuild]
    plan: Optional[CompiledPlan] = None

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        status = "certified optimal" if self.certified_optimal else "best found"
        feasibility = (
            "all constraints satisfied"
            if self.satisfied
            else f"{len(self.violations)} constraint violation(s)"
        )
        return (
            f"{status}: energy={self.energy:.6f} "
            f"(lower bound {self.lower_bound:.6f}), {feasibility}; "
            f"total edge similarity {self.similarity_total:.4f}, "
            f"mean {self.mean_edge_similarity:.4f} over coupled edges; "
            f"solver={self.solver_result.solver} "
            f"({self.solver_result.iterations} iterations, "
            f"converged={self.solver_result.converged})"
        )


def diversify(
    network: Network,
    similarity: SimilarityTable,
    constraints: Optional[ConstraintSet] = None,
    solver: str = "trws",
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
    service_weights: Optional[Mapping[str, float]] = None,
    fast_path: bool = True,
    shards: Optional[Union[int, str]] = None,
    zones: Optional[ZonedNetwork] = None,
    **solver_options,
) -> DiversificationResult:
    """Compute the (constrained) optimal diversification of a network.

    Args:
        network: the network to diversify.
        similarity: vulnerability-similarity table over the product names.
        constraints: legacy/policy/combination constraints (Definition 4).
        solver: registered solver name — ``"trws"`` (default), ``"bp"``,
            ``"icm"`` or ``"exact"``.
        unary_constant: the paper's ``Pr_const`` per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty.
        preferences: soft (host, service, product) → cost adjustments.
        service_weights: per-service criticality multipliers of the
            similarity penalty (see :func:`repro.core.costs.build_mrf`).
        fast_path: allow the batched replicated-service TRW-S when the
            instance qualifies (uniform services, no constraints, a host
            graph with a cycle — forests take the plan path, whose exact
            forest DP certifies them).  The cost model and the update rule
            match the plan path; label-for-label parity is asserted only
            on the small instances of ``tests/test_batched.py``.  At
            paper scale the two paths diverge: on the Table VII
            mid-density cell (1000 hosts, 15 services, seed 0) the
            batched path reaches E = 21349.29 and the plan path 21396.55.
            The fast path is kept for its measured memory and NumPy-host
            time on that cell (2-vCPU host): 89 MB peak RSS against
            207 MB, and about 2.0 s against 3.9–4.3 s per call on the
            NumPy kernel backend (with the native backend the plan path
            is faster, 1.3–1.4 s against 1.8–1.9 s).  Set False to force
            the general per-variable MRF.
        shards: route the solve through the component partition
            (:class:`~repro.mrf.sharded.ShardedSolver`), solving shards
            concurrently with this many workers (``-1`` = one per CPU,
            ``1`` = sharded but serial — still wins per-shard convergence).
            ``"zones"`` derives the partition from the ``zones`` model
            instead: each zone's micro-components are pinned into one
            shard (still exact — zone grouping only merges components).
            ``"cut"`` routes through Lagrangian dual decomposition
            (:class:`~repro.mrf.dual.DualDecompositionSolver`): a
            balanced edge cut splits even a single giant connected
            component, coupled shards iterate to agreement, and the
            result carries a certified duality gap instead of the exact
            guarantee (``"trws"`` only; tune via ``parts=``,
            ``max_rounds=``, ``gap_tolerance=``, ``executor=``).
            ``None``/``0`` keeps the monolithic solve.  Exact for
            ``"trws"``/``"bp"``, including the batched fast path; other
            solvers ignore it.
        zones: the :class:`~repro.network.zones.ZonedNetwork` backing
            ``shards="zones"`` (required then, unused otherwise).
        **solver_options: forwarded to the solver constructor
            (e.g. ``max_iterations=50``).

    Returns:
        A :class:`DiversificationResult` with the assignment α̂ (or α̂_C).

    >>> from repro.network import chain_network
    >>> from repro.nvd import SimilarityTable
    >>> net = chain_network(3)
    >>> table = SimilarityTable(products=["p0", "p1"])
    >>> result = diversify(net, table)
    >>> result.certified_optimal
    True
    >>> round(result.energy, 2)
    0.03
    """
    if shards == "zones" and zones is None:
        raise ValueError("shards='zones' needs a ZonedNetwork via zones=")
    constraint_set = constraints or ConstraintSet()
    build: Optional[MRFBuild] = None
    compiled: Optional[CompiledPlan] = None
    fast = None
    if (
        fast_path
        and solver == "trws"
        and shards not in ("zones", "cut")
        and not constraint_set
        and not preferences
        and not service_weights
        and not _is_host_forest(network)
    ):
        fast = _diversify_replicated(
            network,
            similarity,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            shards=shards,
            **solver_options,
        )
    if fast is not None:
        assignment, solver_result = fast
    elif solver in _PLAN_SOLVERS:
        compiled = compile_plan(
            network,
            similarity,
            constraints=constraint_set,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            preferences=preferences,
            service_weights=service_weights,
        )
        solver_result = _solve_compiled(
            compiled, solver, shards, zones, solver_options
        )
        assignment = compiled.labels_to_assignment(
            network, solver_result.labels
        )
    else:
        build = build_mrf(
            network,
            similarity,
            constraints=constraint_set,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            preferences=preferences,
            service_weights=service_weights,
        )
        solver_result = get_solver(solver, **solver_options).solve(build.mrf)
        assignment = build.labels_to_assignment(network, solver_result.labels)

    violations = constraint_set.violations(assignment, network)
    similarity_total, coupled_edges = _edge_similarity(network, similarity, assignment)
    mean_similarity = similarity_total / coupled_edges if coupled_edges else 0.0

    return DiversificationResult(
        assignment=assignment,
        energy=solver_result.energy,
        lower_bound=solver_result.lower_bound,
        certified_optimal=solver_result.is_certified_optimal(tolerance=1e-6),
        satisfied=not violations,
        violations=violations,
        similarity_total=similarity_total,
        mean_edge_similarity=mean_similarity,
        solver_result=solver_result,
        build=build,
        plan=compiled,
    )


def _solve_compiled(
    compiled: CompiledPlan,
    solver: str,
    shards: Optional[Union[int, str]],
    zones: Optional[ZonedNetwork],
    solver_options: Mapping,
) -> SolverResult:
    """Solve a compiled plan — monolithic, shard-count, zone- or cut-sharded.

    The single shard-strategy seam of :func:`diversify`; every branch ends
    in the plan dispatcher (forest DP for cold TRW-S forests, greedy
    refine init otherwise) that ``TRWSSolver.solve`` also runs.
    """
    from repro.mrf.sharded import ShardedSolver, solve_plan

    if shards == "cut":
        from repro.mrf.dual import DualDecompositionSolver

        return DualDecompositionSolver(
            solver=solver, **solver_options
        ).solve_arrays(compiled.plan)
    if shards == "zones":
        from repro.mrf.partition import split_components, zone_groups

        partition = split_components(
            compiled.plan, groups=zone_groups(compiled.variables, zones)
        )
        return ShardedSolver(
            solver=solver, workers=-1, **solver_options
        ).solve_arrays(compiled.plan, partition=partition)
    if shards:
        return ShardedSolver(
            solver=solver, workers=shards, **solver_options
        ).solve_arrays(compiled.plan)
    return solve_plan(compiled.plan, solver=solver, **solver_options)


def _diversify_replicated(
    network: Network,
    similarity: SimilarityTable,
    unary_constant: float,
    pairwise_weight: float,
    shards: Optional[int] = None,
    **solver_options,
) -> Optional[Tuple[ProductAssignment, SolverResult]]:
    """The batched replicated-service fast path; None when ineligible."""
    from repro.mrf.batched import (
        BatchedTRWSSolver,
        replicated_problem_from_network,
    )

    problem = replicated_problem_from_network(
        network,
        similarity,
        unary_constant=unary_constant,
        pairwise_weight=pairwise_weight,
    )
    if problem is None:
        return None
    if shards:
        from repro.mrf.sharded import ShardedSolver

        sharded = ShardedSolver(solver="trws", workers=shards, **solver_options)
        batched = sharded.solve_replicated(problem)
    else:
        solver = BatchedTRWSSolver(**solver_options)
        batched = solver.solve(problem)

    assignment = ProductAssignment(network)
    for position, host in enumerate(network.hosts):
        for k, service in enumerate(problem.services):
            assignment.assign(
                host, service, problem.products[k][batched.labels[position, k]]
            )
    solver_result = SolverResult(
        labels=[int(x) for x in batched.labels.reshape(-1)],
        energy=batched.energy,
        lower_bound=batched.lower_bound,
        iterations=batched.iterations,
        converged=batched.converged,
        solver=BatchedTRWSSolver.name,
    )
    return assignment, solver_result


def _is_host_forest(network: Network) -> bool:
    """True when the host graph is cycle-free (``links == hosts − components``).

    The link-count test rejects any graph with at least as many links as
    hosts before the component scan, so dense networks pay nothing.
    """
    count = network.edge_count()
    if count == 0:
        return True
    if count >= len(network):
        return False
    hosts = network.hosts
    links = network.links
    index = {host: i for i, host in enumerate(hosts)}
    component = _component_of(
        len(hosts),
        np.array([index[a] for a, _b in links]),
        np.array([index[b] for _a, b in links]),
    )
    return len(links) == len(hosts) - (int(component.max()) + 1)


def _edge_similarity(
    network: Network,
    similarity: SimilarityTable,
    assignment: ProductAssignment,
) -> Tuple[float, int]:
    """Total assigned-product similarity over (link, shared-service) pairs."""
    total = 0.0
    coupled = 0
    for a, b in network.links:
        for service in network.shared_services(a, b):
            product_a = assignment.get(a, service)
            product_b = assignment.get(b, service)
            if product_a is None or product_b is None:
                continue
            coupled += 1
            total += similarity.get(product_a, product_b)
    return total, coupled
