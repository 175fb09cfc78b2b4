"""Tests for the batched replicated-service TRW-S (repro.mrf.batched)."""

import numpy as np
import pytest
from helpers import object_pipeline
from hypothesis import given, settings, strategies as st

from repro.core import diversify
from repro.mrf.batched import (
    BatchedTRWSSolver,
    ReplicatedProblem,
    replicated_problem_from_network,
)
from repro.network.constraints import ConstraintSet, FixProduct
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable


def workload(hosts=16, degree=4, services=2, seed=0, density=0.5):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        similarity_density=density, seed=seed,
    )
    return random_network(config), random_similarity(config)


class TestEligibility:
    def test_uniform_network_is_eligible(self):
        network, similarity = workload()
        problem = replicated_problem_from_network(network, similarity)
        assert problem is not None
        assert problem.host_count == 16
        assert len(problem.services) == 2

    def test_heterogeneous_services_ineligible(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"]})
        network.add_host("b", {"db": ["m", "p"]})
        network.add_link("a", "b")
        assert replicated_problem_from_network(network, SimilarityTable()) is None

    def test_differing_ranges_ineligible(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"]})
        network.add_host("b", {"os": ["w", "x"]})
        network.add_link("a", "b")
        assert replicated_problem_from_network(network, SimilarityTable()) is None

    def test_differing_label_counts_ineligible(self):
        network = Network()
        spec = {"os": ["w", "l"], "db": ["m", "p", "q"]}
        network.add_host("a", spec)
        network.add_host("b", spec)
        network.add_link("a", "b")
        assert replicated_problem_from_network(network, SimilarityTable()) is None

    def test_empty_network_ineligible(self):
        assert replicated_problem_from_network(Network(), SimilarityTable()) is None


class TestProblemValidation:
    def test_energy_evaluation(self):
        network, similarity = workload(hosts=6, degree=2, services=1)
        problem = replicated_problem_from_network(network, similarity)
        labels = np.zeros((6, 1), dtype=np.int64)
        # All-same labelling pays similarity 1.0 per edge plus unary.
        expected = 0.01 * 6 + 1.0 * problem.edges.shape[0]
        assert problem.energy(labels) == pytest.approx(expected)

    def test_wrong_label_shape_rejected(self):
        network, similarity = workload(hosts=6, degree=2, services=1)
        problem = replicated_problem_from_network(network, similarity)
        with pytest.raises(ValueError):
            problem.energy(np.zeros((3, 1), dtype=np.int64))

    def test_asymmetric_costs_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedProblem(
                host_count=2,
                edges=np.array([[0, 1]]),
                services=["s"],
                products=[("a", "b")],
                unary=np.zeros((2, 1, 2)),
                costs=np.array([[[0.0, 1.0], [0.0, 0.0]]]),
            )


class TestParityWithGeneralSolver:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_energy_as_flat_trws(self, seed):
        network, similarity = workload(hosts=14, degree=4, services=3, seed=seed)
        flat = diversify(network, similarity, fast_path=False, max_iterations=60)
        fast = diversify(network, similarity, fast_path=True, max_iterations=60)
        assert fast.solver_result.solver == "trws-batched"
        assert flat.solver_result.solver == "trws"
        assert fast.energy == pytest.approx(flat.energy, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_parity(self, seed):
        network, similarity = workload(hosts=10, degree=3, services=2, seed=seed)
        flat = diversify(network, similarity, fast_path=False, max_iterations=40)
        fast = diversify(network, similarity, fast_path=True, max_iterations=40)
        assert fast.energy == pytest.approx(flat.energy, abs=1e-9)

    def test_bound_validity(self):
        network, similarity = workload(hosts=12, degree=3, services=2, seed=7)
        fast = diversify(network, similarity, fast_path=True, max_iterations=50)
        assert fast.lower_bound <= fast.energy + 1e-9


class TestFastPathRouting:
    def test_constraints_force_general_path(self):
        network, similarity = workload(hosts=8, degree=2, services=1, seed=1)
        host = network.hosts[0]
        product = network.candidates(host, "s0")[0]
        constraints = ConstraintSet([FixProduct(host, "s0", product)])
        result = diversify(network, similarity, constraints=constraints)
        assert result.solver_result.solver == "trws"
        assert result.assignment.get(host, "s0") == product

    def test_non_trws_solver_skips_fast_path(self):
        network, similarity = workload(hosts=8, degree=2, services=1, seed=1)
        result = diversify(network, similarity, solver="icm")
        assert result.solver_result.solver == "icm"

    def test_fast_path_result_has_no_build_or_plan(self):
        network, similarity = workload(hosts=8, degree=2, services=1, seed=1)
        fast = diversify(network, similarity)
        assert fast.build is None
        assert fast.plan is None
        # The general path compiles an array plan by default...
        slow = diversify(network, similarity, fast_path=False)
        assert slow.plan is not None
        assert slow.build is None
        # ...and agrees with the classic MRF object pipeline.
        _build, classic, assignment = object_pipeline(network, similarity)
        assert slow.energy == pytest.approx(classic.energy, abs=1e-9)
        assert slow.assignment.as_dict() == assignment.as_dict()


class TestLevelBatching:
    """The wavefront-level path must reproduce the per-host schedule."""

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_and_bound_parity(self, seed):
        network, similarity = workload(hosts=24, degree=4, services=3, seed=seed)
        problem = replicated_problem_from_network(network, similarity)
        levels = BatchedTRWSSolver(max_iterations=40).solve(problem)
        per_host = BatchedTRWSSolver(
            max_iterations=40, level_batched=False
        ).solve(problem)
        assert levels.energy == pytest.approx(per_host.energy, abs=1e-9)
        assert levels.lower_bound == pytest.approx(per_host.lower_bound, abs=1e-7)
        assert levels.iterations == per_host.iterations

    def test_default_is_level_batched(self):
        assert BatchedTRWSSolver().level_batched

    def test_chain_alternation_on_both_paths(self):
        network = Network()
        spec = {"x": ["a", "b"]}
        for i in range(6):
            network.add_host(f"h{i}", spec)
        for i in range(5):
            network.add_link(f"h{i}", f"h{i+1}")
        problem = replicated_problem_from_network(network, SimilarityTable())
        for batched in (True, False):
            result = BatchedTRWSSolver(
                max_iterations=30, level_batched=batched
            ).solve(problem)
            assert result.energy == pytest.approx(0.01 * 6)
            column = result.labels[:, 0]
            assert all(a != b for a, b in zip(column, column[1:]))


class TestSolverBehaviour:
    def test_chain_alternation(self):
        # Two services over a 6-chain; similarity 1 between equal products
        # only: the solver must alternate products along the chain.
        network = Network()
        spec = {"x": ["a", "b"], "y": ["c", "d"]}
        for i in range(6):
            network.add_host(f"h{i}", spec)
        for i in range(5):
            network.add_link(f"h{i}", f"h{i+1}")
        problem = replicated_problem_from_network(network, SimilarityTable())
        result = BatchedTRWSSolver(max_iterations=30).solve(problem)
        assert result.energy == pytest.approx(0.01 * 12)
        for k in range(2):
            column = result.labels[:, k]
            assert all(a != b for a, b in zip(column, column[1:]))

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            BatchedTRWSSolver(max_iterations=0)


class TestVectorizedBuilder:
    """The interned array builder must reproduce the original loop exactly."""

    @staticmethod
    def _reference_build(network, similarity, unary_constant=0.01,
                         pairwise_weight=1.0):
        """The pre-vectorization builder, kept verbatim as the oracle."""
        hosts = network.hosts
        if not hosts:
            return None
        services = network.services_of(hosts[0])
        if not services:
            return None
        ranges = [network.candidates(hosts[0], service) for service in services]
        label_count = len(ranges[0])
        if any(len(r) != label_count for r in ranges):
            return None
        for host in hosts[1:]:
            if network.services_of(host) != services:
                return None
            for service, expected in zip(services, ranges):
                if network.candidates(host, service) != expected:
                    return None
        index = {host: position for position, host in enumerate(hosts)}
        edges = np.array(
            sorted((min(index[a], index[b]), max(index[a], index[b]))
                   for a, b in network.links),
            dtype=np.int64,
        ).reshape(-1, 2)
        s = len(services)
        unary = np.full((len(hosts), s, label_count), float(unary_constant))
        costs = np.empty((s, label_count, label_count))
        for k, products in enumerate(ranges):
            for row, a in enumerate(products):
                for col, b in enumerate(products):
                    costs[k, row, col] = pairwise_weight * similarity.get(a, b)
        return ReplicatedProblem(
            host_count=len(hosts), edges=edges, services=list(services),
            products=ranges, unary=unary, costs=costs,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop_bitwise(self, seed):
        network, similarity = workload(
            hosts=24, degree=5, services=3, seed=seed, density=0.6
        )
        got = replicated_problem_from_network(
            network, similarity, unary_constant=0.02, pairwise_weight=1.5
        )
        want = self._reference_build(
            network, similarity, unary_constant=0.02, pairwise_weight=1.5
        )
        assert got is not None and want is not None
        assert got.host_count == want.host_count
        assert got.services == want.services
        assert got.products == want.products
        np.testing.assert_array_equal(got.edges, want.edges)
        np.testing.assert_array_equal(got.unary, want.unary)
        np.testing.assert_array_equal(got.costs, want.costs)

    def test_linkless_network_builds_empty_edges(self):
        network = Network()
        network.add_host("h0", {"x": ["a", "b"]})
        network.add_host("h1", {"x": ["a", "b"]})
        problem = replicated_problem_from_network(network, SimilarityTable())
        assert problem is not None
        assert problem.edges.shape == (0, 2)
        assert problem.edges.dtype == np.int64


class TestScratchReuse:
    def test_solve_with_shared_scratch_is_bit_identical(self):
        from repro.mrf.vectorized import SolverScratch

        network, similarity = workload(hosts=18, degree=4, services=2, seed=3)
        problem = replicated_problem_from_network(network, similarity)
        solver = BatchedTRWSSolver(max_iterations=25)
        scratch = SolverScratch()
        # Warm the scratch on a different instance so reuse paths execute.
        other_net, other_sim = workload(hosts=10, degree=3, services=2, seed=4)
        solver.solve(
            replicated_problem_from_network(other_net, other_sim),
            scratch=scratch,
        )
        with_scratch = solver.solve(problem, scratch=scratch)
        without = solver.solve(problem)
        np.testing.assert_array_equal(with_scratch.labels, without.labels)
        assert with_scratch.energy == without.energy
        assert with_scratch.lower_bound == without.lower_bound
        assert with_scratch.iterations == without.iterations
        assert with_scratch.converged == without.converged

    def test_level_batched_off_ignores_scratch_identically(self):
        from repro.mrf.vectorized import SolverScratch

        network, similarity = workload(hosts=12, degree=3, services=2, seed=5)
        problem = replicated_problem_from_network(network, similarity)
        solver = BatchedTRWSSolver(max_iterations=25, level_batched=False)
        with_scratch = solver.solve(problem, scratch=SolverScratch())
        without = solver.solve(problem)
        np.testing.assert_array_equal(with_scratch.labels, without.labels)
        assert with_scratch.energy == without.energy
