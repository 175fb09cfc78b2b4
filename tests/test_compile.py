"""Direct network→plan compiler parity + solver-scratch reuse.

The contract under test (see ``repro/core/compile.py``):

* :func:`compile_plan` produces a plan **byte-identical** to
  ``MRFArrays(build_mrf(...).mrf)`` — every node array, the deduplicated
  cost stack (including transpose-orientation entries), the edge arrays,
  message slots, γ weights and wavefront levels — across preferences,
  service weights, Fix/Forbid and combination constraints, heterogeneous
  per-host ranges and disconnected variables.
* :func:`compile_stream_parts` reproduces the :class:`StreamPlan` build
  (paired dedup, flipped edges, per-edge link/service keys) so the
  streaming engine's cold rebuilds keep their event-path alignment.
* ``diversify`` routed through the compiler returns the same result as the
  classic object pipeline (``build_mrf`` → ``MRFArrays`` → ``solve_plan``,
  the ``object_pipeline`` oracle of ``tests/helpers.py``).
* A shared :class:`SolverScratch` never changes solver results — with or
  without reuse, across repeated solves and across different plans.
"""

import numpy as np
import pytest
from helpers import object_pipeline

from repro.core.compile import (
    compile_plan,
    compile_stream_parts,
    network_energy,
)
from repro.core.costs import build_mrf
from repro.core.diversify import diversify
from repro.mrf.bp import LoopyBPSolver
from repro.mrf.sharded import ShardedSolver, solve_plan
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays, SolverScratch
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.model import Network
from repro.network.zones import Zone, ZonedNetwork
from repro.nvd.similarity import SimilarityTable

# ---------------------------------------------------------------- fixtures


def workload(hosts=24, degree=4, services=3, seed=0, products=4):
    config = RandomNetworkConfig(
        hosts=hosts,
        degree=degree,
        services=services,
        products_per_service=products,
        seed=seed,
    )
    return random_network(config), random_similarity(config)


def heterogeneous_network():
    """Per-host ranges that force transpose-orientation stack entries."""
    net = Network()
    net.add_host("a", {"os": ["w", "l", "m"], "db": ["d1", "d2"]})
    net.add_host("b", {"os": ["w", "l"], "db": ["d1", "d2", "d3"]})
    net.add_host("c", {"os": ["w", "l", "m"]})
    net.add_host("d", {"os": ["w", "l"]})
    net.add_host("lonely", {"ssh": ["s1", "s2"]})  # no links at all
    net.add_links([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    table = SimilarityTable(
        products=["w", "l", "m", "d1", "d2", "d3", "s1", "s2"],
        pairs={("w", "l"): 0.4, ("w", "m"): 0.2, ("d1", "d2"): 0.7},
    )
    return net, table


_PLAN_ARRAYS = (
    "label_counts", "mask", "unary", "unary_inf", "cost",
    "edge_first", "edge_second", "edge_cid",
    "slot_sender", "slot_receiver", "slot_reverse", "slot_cid", "slot_pad",
    "gamma",
)
_LEVEL_ARRAYS = (
    "nodes", "ext_seg", "ext_nbr", "ext_in", "ext_cid",
    "snd", "rcv", "out", "inn", "cid", "gam", "pad",
    "all_seg", "all_nbr", "all_cid",
)
_BLOCK_ARRAYS = ("snd", "rcv", "out", "inn", "cid", "gam", "pad")


def assert_plans_identical(reference: MRFArrays, compiled: MRFArrays):
    """Byte-level equality of every array a solver consumes."""
    assert reference.node_count == compiled.node_count
    assert reference.edge_count == compiled.edge_count
    assert reference.lmax == compiled.lmax
    assert reference.stacked == compiled.stacked
    for name in _PLAN_ARRAYS:
        left, right = getattr(reference, name), getattr(compiled, name)
        assert left.shape == right.shape, name
        assert np.array_equal(left, right, equal_nan=True), name
    assert len(reference.fwd_levels) == len(compiled.fwd_levels)
    for ref_level, new_level in zip(reference.fwd_levels, compiled.fwd_levels):
        for name in _LEVEL_ARRAYS:
            assert np.array_equal(
                getattr(ref_level, name), getattr(new_level, name)
            ), f"fwd {name}"
    assert len(reference.bwd_levels) == len(compiled.bwd_levels)
    for ref_block, new_block in zip(reference.bwd_levels, compiled.bwd_levels):
        for name in _BLOCK_ARRAYS:
            assert np.array_equal(
                getattr(ref_block, name), getattr(new_block, name)
            ), f"bwd {name}"


def reference_plan(net, sim, **kwargs) -> MRFArrays:
    return MRFArrays(build_mrf(net, sim, **kwargs).mrf)


# ------------------------------------------------------- plan parity suite


class TestCompileParity:
    def test_plain_workload(self):
        net, sim = workload(seed=1)
        assert_plans_identical(
            reference_plan(net, sim), compile_plan(net, sim).plan
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_seeds(self, seed):
        net, sim = workload(hosts=16, degree=3, services=2, seed=seed)
        assert_plans_identical(
            reference_plan(net, sim), compile_plan(net, sim).plan
        )

    def test_preferences_and_service_weights(self):
        net, sim = workload(seed=2)
        prefs = {
            ("h0", "s0", "s0_p1"): -0.3,
            ("h3", "s1", "s1_p2"): 0.25,
            ("h5", "s2", "not_a_product"): 9.0,  # ignored, like the builder
        }
        weights = {"s0": 2.0, "s2": 0.5}
        kwargs = dict(
            preferences=prefs,
            service_weights=weights,
            pairwise_weight=1.5,
            unary_constant=0.02,
        )
        assert_plans_identical(
            reference_plan(net, sim, **kwargs),
            compile_plan(net, sim, **kwargs).plan,
        )

    def test_fix_forbid_and_combination_constraints(self):
        net, sim = workload(seed=3)
        constraints = ConstraintSet(
            [
                FixProduct("h0", "s0", "s0_p2"),
                ForbidProduct("h1", "s1", "s1_p0"),
                ForbidProduct("h0", "s0", "s0_p3"),  # stacks on the fix
                RequireCombination(GLOBAL, "s0", "s0_p1", "s1", "s1_p2"),
                AvoidCombination("h2", "s1", "s1_p1", "s2", "s2_p2"),
            ]
        )
        assert_plans_identical(
            reference_plan(net, sim, constraints=constraints),
            compile_plan(net, sim, constraints=constraints).plan,
        )

    def test_heterogeneous_ranges_and_isolated_host(self):
        net, sim = heterogeneous_network()
        assert_plans_identical(
            reference_plan(net, sim), compile_plan(net, sim).plan
        )

    def test_energies_equal_exactly(self):
        net, sim = workload(seed=4)
        reference = reference_plan(net, sim)
        compiled = compile_plan(net, sim).plan
        rng = np.random.default_rng(0)
        for _ in range(5):
            labels = rng.integers(0, compiled.label_counts)
            assert compiled.energy(labels) == reference.energy(labels)

    def test_validation_matches_builder(self):
        net, sim = workload(seed=1)
        with pytest.raises(ValueError):
            compile_plan(net, sim, pairwise_weight=-1.0)
        with pytest.raises(ValueError):
            compile_plan(net, sim, service_weights={"s0": -2.0})

    def test_variable_mapping_matches_builder(self):
        net, sim = workload(seed=5)
        build = build_mrf(net, sim)
        compiled = compile_plan(net, sim)
        assert compiled.variables == build.variables
        assert compiled.index == build.index
        assert compiled.candidates == build.candidates

    def test_labels_roundtrip(self):
        net, sim = workload(seed=6)
        compiled = compile_plan(net, sim)
        rng = np.random.default_rng(1)
        labels = [int(x) for x in rng.integers(0, compiled.plan.label_counts)]
        assignment = compiled.labels_to_assignment(net, labels)
        assert compiled.assignment_to_labels(assignment) == labels


# ------------------------------------------------- stream parts convention


class TestStreamPartsParity:
    def test_matches_oriented_energies(self):
        net, sim = workload(seed=7)
        reference = reference_plan(net, sim)
        parts = compile_stream_parts(net, sim)
        plan = MRFArrays.from_dense(
            parts.unary,
            parts.label_counts,
            parts.edge_first,
            parts.edge_second,
            parts.edge_cid,
            parts.matrices,
        )
        rng = np.random.default_rng(2)
        for _ in range(5):
            labels = rng.integers(0, plan.label_counts)
            assert plan.energy(labels) == reference.energy(labels)

    def test_paired_dedup_and_flip(self):
        net, sim = heterogeneous_network()
        parts = compile_stream_parts(net, sim)
        # One matrix per unordered (range, range, weight) key: the (3,2)
        # os pairing and the (2,3) db pairing — never a transpose entry.
        assert len(parts.matrices) == 2
        for matrix, (range_a, range_b, weight) in zip(
            parts.matrices, parts.matrix_meta
        ):
            assert matrix.shape == (len(range_a), len(range_b))
        # Flipped edges price through the stored orientation.
        for e in range(len(parts.edge_first)):
            cid = int(parts.edge_cid[e])
            range_a, range_b, _w = parts.matrix_meta[cid]
            assert parts.candidates[int(parts.edge_first[e])] == range_a
            assert parts.candidates[int(parts.edge_second[e])] == range_b

    def test_edge_keys_align(self):
        net, sim = workload(hosts=10, degree=3, services=2, seed=8)
        parts = compile_stream_parts(net, sim)
        assert len(parts.edge_keys) == len(parts.edge_first)
        for e, (link, service) in enumerate(parts.edge_keys):
            a, b = link
            assert a <= b
            endpoints = {
                parts.variables[int(parts.edge_first[e])],
                parts.variables[int(parts.edge_second[e])],
            }
            assert endpoints == {(a, service), (b, service)}


# ------------------------------------------------------ diversify routing


class TestDiversifyRouting:
    def test_direct_equals_python_pipeline(self):
        net, sim = workload(seed=9)
        direct = diversify(net, sim, fast_path=False)
        _build, classic, assignment = object_pipeline(net, sim)
        assert direct.energy == pytest.approx(classic.energy)
        assert direct.assignment.as_dict() == assignment.as_dict()
        assert direct.plan is not None and direct.build is None

    def test_constrained_direct_equals_python(self):
        net, sim = workload(seed=10)
        constraints = ConstraintSet(
            [
                FixProduct("h0", "s0", "s0_p1"),
                AvoidCombination(GLOBAL, "s0", "s0_p0", "s1", "s1_p0"),
            ]
        )
        direct = diversify(net, sim, constraints=constraints, fast_path=False)
        _build, classic, assignment = object_pipeline(
            net, sim, constraints=constraints
        )
        assert direct.energy == pytest.approx(classic.energy)
        assert direct.satisfied == constraints.is_satisfied(assignment, net)

    def test_bp_routes_through_compiler(self):
        net, sim = workload(seed=11)
        direct = diversify(net, sim, solver="bp", fast_path=False)
        _build, classic, _assignment = object_pipeline(net, sim, solver="bp")
        assert direct.plan is not None
        assert direct.energy == pytest.approx(classic.energy)

    def test_non_plan_solver_uses_python_pipeline(self):
        net, sim = workload(hosts=6, degree=2, services=1, seed=12)
        result = diversify(net, sim, solver="icm")
        assert result.plan is None and result.build is not None

    def test_invalid_compile_value(self):
        # An unknown option reaches the solver constructor, which rejects it.
        net, sim = workload(seed=1)
        with pytest.raises(TypeError):
            diversify(net, sim, compile="rust")

    def test_forest_dispatch_matches(self):
        from repro.network.topologies import chain_network

        table = SimilarityTable(products=["p0", "p1"])
        table.set("p0", "p1", 0.8)
        net = chain_network(5)
        direct = diversify(net, table, fast_path=False)
        _build, classic, _assignment = object_pipeline(net, table)
        assert direct.energy == pytest.approx(classic.energy)
        assert direct.certified_optimal
        assert classic.is_certified_optimal(tolerance=1e-6)


# ----------------------------------------------------------- zone sharding


class TestZoneShards:
    def zoned_workload(self):
        zones = [
            Zone("it", ("a", "b", "c"), topology="chain"),
            Zone("ot", ("d", "e"), topology="chain"),
            Zone("dmz", ("f",)),
        ]
        zoned = ZonedNetwork(zones, rules=[])  # air-gapped
        spec = {"os": ["w", "l", "m"], "db": ["d1", "d2"]}
        net = zoned.build_network({h: spec for h in zoned.hosts()})
        sim = SimilarityTable(
            products=["w", "l", "m", "d1", "d2"],
            pairs={("w", "l"): 0.5, ("l", "m"): 0.3, ("d1", "d2"): 0.6},
        )
        return net, sim, zoned

    def test_zone_shards_exact(self):
        net, sim, zoned = self.zoned_workload()
        mono = diversify(net, sim, fast_path=False)
        zone_sharded = diversify(
            net, sim, fast_path=False, shards="zones", zones=zoned
        )
        assert zone_sharded.energy == pytest.approx(mono.energy, abs=1e-9)
        assert zone_sharded.solver_result.solver == "trws-sharded"

    def test_zone_shards_python_pipeline(self):
        net, sim, zoned = self.zoned_workload()
        mono = diversify(net, sim, fast_path=False)
        _build, zone_sharded, _assignment = object_pipeline(
            net, sim, shards="zones", zones=zoned
        )
        assert zone_sharded.energy == pytest.approx(mono.energy, abs=1e-9)

    def test_zones_required(self):
        net, sim, _zoned = self.zoned_workload()
        with pytest.raises(ValueError):
            diversify(net, sim, shards="zones")

    def test_scalability_cell_accepts_zones(self):
        from repro.experiments import scalability_cell

        config = RandomNetworkConfig(hosts=24, degree=3, services=2, seed=0)
        mono = scalability_cell(config)
        zoned = scalability_cell(config, shards="zones")
        assert zoned.energy == pytest.approx(mono.energy, abs=1e-9)

    def test_cli_parses_zone_shards(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table7", "--shards", "zones"])
        assert args.shards == "zones"
        args = build_parser().parse_args(["table7", "--shards", "4"])
        assert args.shards == 4


# -------------------------------------------------------- vectorized energy


class TestNetworkEnergy:
    def test_matches_mrf_energy(self):
        net, sim = workload(seed=13)
        build = build_mrf(net, sim)
        rng = np.random.default_rng(3)
        plan = compile_plan(net, sim)
        labels = [int(x) for x in rng.integers(0, plan.plan.label_counts)]
        assignment = build.labels_to_assignment(net, labels)
        assert network_energy(net, sim, assignment) == pytest.approx(
            build.mrf.energy(labels)
        )

    def test_partial_assignment_skips_uncoupled(self):
        net, sim = heterogeneous_network()
        build = build_mrf(net, sim)
        assignment = build.labels_to_assignment(
            net, [0] * len(build.variables)
        )
        assignment.unassign("a", "os")
        # Unassigned endpoints contribute no pairwise cost; the unary
        # term still counts variables — the reference loop's semantics.
        expected = 0.01 * net.variable_count() + _coupled_total(
            net, sim, assignment
        )
        assert network_energy(net, sim, assignment) == pytest.approx(expected)

    def test_weighted(self):
        net, sim = workload(seed=14)
        build = build_mrf(net, sim, service_weights={"s0": 2.0})
        labels = [0] * len(build.variables)
        assignment = build.labels_to_assignment(net, labels)
        assert network_energy(
            net, sim, assignment, service_weights={"s0": 2.0}
        ) == pytest.approx(build.mrf.energy(labels))


def _coupled_total(net, sim, assignment):
    total = 0.0
    for a, b in net.links:
        for service in net.shared_services(a, b):
            pa, pb = assignment.get(a, service), assignment.get(b, service)
            if pa is not None and pb is not None:
                total += sim.get(pa, pb)
    return total


# --------------------------------------------------------- scratch parity


class TestSolverScratch:
    def test_buffers_grow_and_alias(self):
        scratch = SolverScratch()
        small = scratch.array("x", (2, 3))
        small.fill(7.0)
        again = scratch.array("x", (2, 3))
        assert np.all(again == 7.0)  # same storage, no reallocation
        bigger = scratch.array("x", (4, 5))
        assert bigger.shape == (4, 5)
        zeros = scratch.zeros("x", (2, 2))
        assert np.all(zeros == 0.0)

    def test_trws_results_identical_with_shared_scratch(self):
        scratch = SolverScratch()
        for seed in range(3):
            net, sim = workload(hosts=14, degree=4, services=2, seed=seed)
            plan = compile_plan(net, sim).plan
            fresh = TRWSSolver().solve_arrays(plan)
            shared = TRWSSolver().solve_arrays(plan, scratch=scratch)
            assert shared.labels == fresh.labels
            assert shared.energy == fresh.energy
            assert shared.lower_bound == fresh.lower_bound
            assert shared.iterations == fresh.iterations

    def test_bp_results_identical_with_shared_scratch(self):
        scratch = SolverScratch()
        for seed in range(3):
            net, sim = workload(hosts=14, degree=4, services=2, seed=seed)
            plan = compile_plan(net, sim).plan
            fresh = LoopyBPSolver().solve_arrays(plan)
            shared = LoopyBPSolver().solve_arrays(plan, scratch=scratch)
            assert shared.labels == fresh.labels
            assert shared.energy == fresh.energy

    def test_repeated_solves_reuse_without_drift(self):
        net, sim = workload(hosts=20, degree=4, services=2, seed=4)
        plan = compile_plan(net, sim).plan
        scratch = SolverScratch()
        solver = TRWSSolver()
        first = solver.solve_arrays(plan, scratch=scratch)
        for _ in range(3):
            again = solver.solve_arrays(plan, scratch=scratch)
            assert again.labels == first.labels
            assert again.energy == first.energy

    def test_warm_start_with_scratch(self):
        net, sim = workload(hosts=16, degree=3, services=2, seed=5)
        plan = compile_plan(net, sim).plan
        scratch = SolverScratch()
        messages_a = plan.zero_messages()
        messages_b = plan.zero_messages()
        with_scratch = TRWSSolver().solve_arrays(
            plan, messages=messages_a, scratch=scratch
        )
        without = TRWSSolver().solve_arrays(plan, messages=messages_b)
        assert with_scratch.labels == without.labels
        assert np.array_equal(messages_a, messages_b)

    def test_sharded_solver_matches_serial(self):
        net, sim = workload(hosts=30, degree=3, services=3, seed=6)
        plan = compile_plan(net, sim).plan
        threaded = ShardedSolver(solver="trws", workers=4).solve_arrays(plan)
        serial = ShardedSolver(
            solver="trws", workers=1, executor="serial"
        ).solve_arrays(plan)
        assert threaded.labels == serial.labels
        assert threaded.energy == serial.energy

    def test_solve_plan_matches_mrf_solve(self):
        net, sim = workload(hosts=18, degree=4, services=2, seed=7)
        build = build_mrf(net, sim)
        compiled = compile_plan(net, sim)
        via_plan = solve_plan(compiled.plan, solver="trws")
        via_mrf = TRWSSolver().solve(build.mrf)
        assert via_plan.labels == via_mrf.labels
        assert via_plan.energy == pytest.approx(via_mrf.energy)


# ------------------------------------------------------- wavefront levels


def _jacobi_levels(n, src, dst):
    """The textbook fixpoint — reference for both production branches."""
    level = np.zeros(n, dtype=np.int64)
    while len(src):
        deeper = level.copy()
        np.maximum.at(deeper, dst, level[src] + 1)
        if np.array_equal(deeper, level):
            break
        level = deeper
    return level


class TestWavefrontLevels:
    """wavefront_schedule size-dispatches between two exact level
    implementations (Jacobi rounds below ~4k edges, Kahn waves above);
    both must equal the reference fixpoint — the big-plan branch is not
    reachable from the small fixtures elsewhere in the suite."""

    def _check(self, n, lo, hi):
        from repro.mrf.vectorized import wavefront_schedule

        _gamma, flevel, blevel = wavefront_schedule(n, lo, hi)
        assert np.array_equal(flevel, _jacobi_levels(n, lo, hi))
        assert np.array_equal(blevel, _jacobi_levels(n, hi, lo))

    def test_kahn_branch_random_dag(self):
        rng = np.random.default_rng(0)
        n, m = 3000, 9000  # > 4096 edges → Kahn wave branch
        lo = rng.integers(0, n - 1, m)
        hi = lo + 1 + rng.integers(0, np.maximum(1, n - 1 - lo))
        self._check(n, lo.astype(np.int64), hi.astype(np.int64))

    def test_kahn_branch_deep_chain(self):
        n = 6000  # 5999 chain edges → Kahn branch at full depth
        lo = np.arange(n - 1, dtype=np.int64)
        hi = lo + 1
        from repro.mrf.vectorized import wavefront_schedule

        _gamma, flevel, blevel = wavefront_schedule(n, lo, hi)
        assert np.array_equal(flevel, np.arange(n))
        assert np.array_equal(blevel, np.arange(n)[::-1])

    def test_jacobi_branch_small(self):
        rng = np.random.default_rng(1)
        n, m = 40, 90  # < 4096 edges → Jacobi branch
        lo = rng.integers(0, n - 1, m)
        hi = lo + 1 + rng.integers(0, np.maximum(1, n - 1 - lo))
        self._check(n, lo.astype(np.int64), hi.astype(np.int64))

    def test_isolated_nodes_stay_level_zero(self):
        lo = np.asarray([2, 3], dtype=np.int64)
        hi = np.asarray([4, 5], dtype=np.int64)
        self._check(8, lo, hi)


# ------------------------------------------------ stream rebuild via parts


class TestStreamRebuildCompiled:
    def test_rebuild_state_consistent_with_events(self):
        from repro.stream.plan import StreamPlan

        net, sim = workload(hosts=12, degree=3, services=2, seed=8)
        stream = StreamPlan(net.copy(), sim.copy())
        # The compiled rebuild installs list-typed event-path state.
        assert isinstance(stream._edge_first, list)
        assert isinstance(stream._edge_keys, list)
        assert len(stream._edge_keys) == stream.edge_count
        assert len(stream._matrix_ids) == len(stream._matrices)
        # Event application on top of a compiled rebuild stays aligned:
        # dropping a link removes exactly its (link, service) edges.
        a, b = stream.network.links[0]
        from repro.stream.events import LinkRemove

        shared = len(stream.network.shared_services(a, b))
        before = stream.edge_count
        stream.apply(LinkRemove(a=a, b=b))
        assert stream.edge_count == before - shared
        stream.flush()
        assert stream.plan.edge_count == before - shared

    def test_cold_solve_energy_matches_batch_pipeline(self):
        from repro.stream.incremental import DynamicDiversifier

        net, sim = workload(hosts=12, degree=3, services=2, seed=9)
        engine = DynamicDiversifier(net.copy(), sim.copy())
        streamed = engine.solve()
        batch = diversify(net, sim, fast_path=False)
        assert streamed.energy == pytest.approx(batch.energy)
