"""Tests for the incremental diversification engine (repro.stream)."""

import numpy as np
import pytest

from repro.core.costs import assignment_energy, build_mrf
from repro.core.diversify import diversify
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream import (
    ChurnConfig,
    DynamicDiversifier,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    SimilarityUpdate,
    StreamPlan,
    apply_event,
    random_churn_trace,
    replay_trace,
)


def workload(hosts=30, degree=2, services=3, pps=6, density=0.3, seed=0):
    """The sparse, well-colorable family where cold TRW-S reliably finds
    the optimum — the basis of the warm/cold energy-parity contract."""
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, similarity_density=density, seed=seed,
    )
    return random_network(config), random_similarity(config)


def tiny_network():
    net = Network()
    spec = {"os": ("w", "l", "m"), "db": ("p", "q", "r")}
    for i in range(4):
        net.add_host(f"h{i}", spec)
    net.add_links([("h0", "h1"), ("h1", "h2"), ("h2", "h3")])
    table = SimilarityTable(pairs={("w", "l"): 0.5, ("p", "q"): 0.4})
    return net, table


class TestEvents:
    def test_describe_strings(self):
        assert "join" in HostJoin("x", services=(("s", ("a", "b")),)).describe()
        assert "leave h1" in HostLeave("h1").describe()
        assert "h0--h1" in LinkAdd("h0", "h1").describe()
        assert "h0--h1" in LinkRemove("h0", "h1").describe()
        assert "a~b=0.500" in SimilarityUpdate("a", "b", 0.5).describe()

    def test_similarity_update_validation(self):
        with pytest.raises(ValueError):
            SimilarityUpdate("a", "a", 0.5)
        with pytest.raises(ValueError):
            SimilarityUpdate("a", "b", 1.5)

    def test_apply_each_kind(self):
        net, table = tiny_network()
        apply_event(net, table, LinkAdd("h0", "h2"))
        assert net.has_link("h0", "h2")
        apply_event(net, table, LinkRemove("h0", "h2"))
        assert not net.has_link("h0", "h2")
        apply_event(
            net, table,
            HostJoin("h4", services=(("os", ("w", "l", "m")),), links=("h0",)),
        )
        assert "h4" in net and net.has_link("h0", "h4")
        apply_event(net, table, HostLeave("h4"))
        assert "h4" not in net
        apply_event(net, table, SimilarityUpdate("w", "m", 0.7))
        assert table.get("w", "m") == 0.7

    def test_similarity_update_requires_table(self):
        net, _ = tiny_network()
        with pytest.raises(ValueError):
            apply_event(net, None, SimilarityUpdate("w", "m", 0.7))


class TestTraceGenerator:
    def test_deterministic(self):
        net, _ = workload()
        a = random_churn_trace(net, ChurnConfig(events=10, seed=3))
        b = random_churn_trace(net, ChurnConfig(events=10, seed=3))
        assert a == b

    def test_trace_replays_cleanly(self):
        net, table = workload(seed=2)
        trace = random_churn_trace(net, ChurnConfig(events=25, seed=7))
        assert len(trace) == 25
        for event in trace:
            apply_event(net, table, event)  # must never raise

    def test_min_hosts_floor(self):
        net, table = workload(hosts=4, degree=2)
        trace = random_churn_trace(
            net, ChurnConfig(events=30, seed=1, weights=(0, 1, 0, 0, 1),
                             min_hosts=3)
        )
        for event in trace:
            apply_event(net, table, event)
        assert len(net) >= 3

    def test_weights_select_kinds(self):
        net, _ = workload()
        trace = random_churn_trace(
            net, ChurnConfig(events=12, seed=5, weights=(0, 0, 0, 0, 1))
        )
        assert all(isinstance(e, SimilarityUpdate) for e in trace)

    def test_infeasible_weights_raise_instead_of_spinning(self):
        # Leave-only churn at the host floor has no feasible event; the
        # generator must fail fast, not loop forever.
        net, _ = workload(hosts=4, degree=2)
        with pytest.raises(ValueError, match="no feasible event kind"):
            random_churn_trace(
                net,
                ChurnConfig(events=5, seed=0, weights=(0, 1, 0, 0, 0),
                            min_hosts=len(net)),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(events=-1)
        with pytest.raises(ValueError):
            ChurnConfig(weights=(0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            ChurnConfig(sim_low=0.8, sim_high=0.2)


class TestStreamPlan:
    def test_matches_batch_builder(self):
        net, table = workload(seed=1)
        plan = StreamPlan(net, table)
        build = build_mrf(net, table)
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(0)
        labels = rng.integers(0, plan.plan.label_counts)
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), abs=1e-9
        )

    @pytest.mark.parametrize("tseed", range(3))
    def test_patched_plan_matches_rebuild(self, tseed):
        net, table = workload(seed=tseed)
        plan = StreamPlan(net, table)
        trace = random_churn_trace(net, ChurnConfig(events=10, seed=tseed))
        for event in trace:
            plan.apply(event)
        plan.flush()
        build = build_mrf(net, table)  # plan.apply mutated net/table in place
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(1)
        labels = rng.integers(0, plan.plan.label_counts)
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), abs=1e-9
        )

    def test_similarity_update_is_in_place(self):
        net, table = workload(seed=3)
        plan = StreamPlan(net, table)
        arrays_before = plan.plan
        products = net.candidates(net.hosts[0], "s0")
        plan.apply(SimilarityUpdate(products[0], products[1], 0.9))
        assert plan.plan is arrays_before  # no structural rebuild
        assert plan.dirty_cost > 0
        plan.flush()
        assert plan.plan is arrays_before

    def test_message_slots_track_edges(self):
        net, table = workload(seed=4)
        plan = StreamPlan(net, table)
        a, b = net.links[0]
        plan.apply(LinkRemove(a, b))
        assert plan.messages.shape[0] == 2 * len(plan._edge_first)
        plan.apply(LinkAdd(a, b))
        assert plan.messages.shape[0] == 2 * len(plan._edge_first)
        plan.flush()
        assert plan.messages.shape[0] == 2 * plan.plan.edge_count


class TestWarmStartParity:
    """The incremental contract: after any event sequence the warm re-solve
    reaches the same energy as a cold solve of the mutated network."""

    @pytest.mark.parametrize("wseed,tseed", [(0, 0), (1, 1), (2, 2), (3, 0)])
    def test_energy_parity_along_trace(self, wseed, tseed):
        net, table = workload(seed=wseed)
        trace = random_churn_trace(net, ChurnConfig(events=8, seed=tseed))
        engine = DynamicDiversifier(net.copy(), table.copy())
        initial = engine.solve()
        assert initial.energy == pytest.approx(
            diversify(net, table, fast_path=False).energy, abs=1e-9
        )
        check_net, check_table = net.copy(), table.copy()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event)
            cold = diversify(check_net, check_table, fast_path=False)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)

    def test_energy_is_ground_truth(self):
        # The engine's reported energy must equal the model-level E(N) of
        # its assignment on the mutated network, event after event.
        net, table = workload(seed=5)
        trace = random_churn_trace(net, ChurnConfig(events=10, seed=5))
        engine = DynamicDiversifier(net, table)
        engine.solve()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            assert result.energy == pytest.approx(
                assignment_energy(net, table, result.assignment), abs=1e-9
            )
            assert result.assignment.is_complete()


class TestDynamicDiversifier:
    def test_warm_flag_lifecycle(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table)
        assert not engine.solve().warm  # first solve is cold
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        assert engine.solve().warm

    def test_large_delta_falls_back_to_cold(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table, rebuild_fraction=0.25)
        engine.solve()
        for a, b in list(engine.network.links)[:12]:  # ~27% of 45 edges
            engine.apply(LinkRemove(a, b))
        assert not engine.solve().warm

    def test_warm_start_disabled(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table, warm_start=False)
        engine.solve()
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        assert not engine.solve().warm

    def test_stability_metric(self):
        net, table = workload(seed=7)
        engine = DynamicDiversifier(net, table)
        first = engine.solve()
        assert first.stability == 1.0
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        result = engine.solve()
        assert 0.0 <= result.stability <= 1.0

    def test_bp_solver_warm_start(self):
        net, table = workload(hosts=16, seed=8)
        engine = DynamicDiversifier(net, table, solver="bp")
        engine.solve()
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        result = engine.solve()
        assert result.warm
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )

    def test_host_join_with_wider_label_space(self):
        # A joining host with a wider candidate range grows the message
        # padding without dropping the warm state.
        net, table = tiny_network()
        engine = DynamicDiversifier(net, table, rebuild_fraction=0.6)
        engine.solve()
        engine.apply(
            HostJoin(
                "h9",
                services=(("os", ("w", "l", "m", "x", "y")),),
                links=("h0", "h1"),
            )
        )
        result = engine.solve()
        assert result.warm
        assert result.assignment.is_complete()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )

    def test_invalid_options(self):
        net, table = tiny_network()
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, solver="icm")
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, rebuild_fraction=2.0)
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, warm_iterations=0)
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, cost_jump_threshold=-1.0)


class TestCorrelatedTraces:
    def test_default_config_unchanged(self):
        # rack_size / vendor_batch of 1 must reproduce the pre-burst
        # draw sequence exactly (old seeds keep their traces).
        net, _ = workload()
        plain = random_churn_trace(net, ChurnConfig(events=15, seed=3))
        explicit = random_churn_trace(
            net, ChurnConfig(events=15, seed=3, rack_size=1, vendor_batch=1)
        )
        assert plain == explicit

    def test_rack_joins_share_peers_and_interlink(self):
        net, table = workload()
        trace = random_churn_trace(
            net,
            ChurnConfig(events=9, seed=2, weights=(1, 0, 0, 0, 0),
                        rack_size=3),
        )
        assert all(isinstance(e, HostJoin) for e in trace)
        racks = [trace[i : i + 3] for i in range(0, len(trace), 3)]
        for rack in racks:
            peer_sets = [set(m.links) - {n.host for n in rack} for m in rack]
            # Correlated: every member wires to the same aggregation peers.
            assert all(p == peer_sets[0] for p in peer_sets)
            # ... and to its earlier rack mates.
            for position, member in enumerate(rack):
                mates = {m.host for m in rack[:position]}
                assert mates <= set(member.links)
        for event in trace:
            apply_event(net, table, event)  # must never raise

    def test_vendor_batch_hits_one_range(self):
        net, table = workload()
        trace = random_churn_trace(
            net,
            ChurnConfig(events=12, seed=5, weights=(0, 0, 0, 0, 1),
                        vendor_batch=4),
        )
        assert all(isinstance(e, SimilarityUpdate) for e in trace)
        ranges = {
            net.candidates(host, service)
            for host in net.hosts
            for service in net.services_of(host)
        }
        for start in range(0, len(trace), 4):
            burst = trace[start : start + 4]
            touched = {p for e in burst for p in (e.product_a, e.product_b)}
            # All products of a burst belong to a single candidate range.
            assert any(touched <= set(r) for r in ranges)

    def test_bursts_deterministic_and_truncated(self):
        net, _ = workload()
        config = ChurnConfig(events=10, seed=1, rack_size=4, vendor_batch=3)
        a = random_churn_trace(net, config)
        b = random_churn_trace(net, config)
        assert a == b
        assert len(a) == 10

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(rack_size=0)
        with pytest.raises(ValueError):
            ChurnConfig(vendor_batch=0)


class TestShardedEngine:
    """The sharded engine's contract: per-component re-solves are exact
    and touch only the shards hit by each event."""

    @pytest.mark.parametrize("wseed,tseed", [(0, 0), (1, 1), (2, 2)])
    def test_energy_parity_along_trace(self, wseed, tseed):
        net, table = workload(seed=wseed)
        trace = random_churn_trace(net, ChurnConfig(events=8, seed=tseed))
        engine = DynamicDiversifier(net.copy(), table.copy(), sharded=True)
        initial = engine.solve()
        assert initial.energy == pytest.approx(
            diversify(net, table, fast_path=False).energy, abs=1e-9
        )
        assert initial.shards_solved == initial.shards_total
        check_net, check_table = net.copy(), table.copy()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event)
            cold = diversify(check_net, check_table, fast_path=False)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)
            assert result.energy == pytest.approx(
                assignment_energy(check_net, check_table, result.assignment),
                abs=1e-9,
            )

    def test_parity_with_correlated_bursts(self):
        # Rack joins merge shards, host leaves split them; the burst trace
        # exercises both while parity must hold.  join_degree stays at 1 so
        # the trace remains inside the sparse, well-colorable family the
        # warm/cold parity contract covers (dense rack joins leave it for
        # the monolithic engine too).
        net, table = workload(seed=3)
        trace = random_churn_trace(
            net,
            ChurnConfig(events=10, seed=4, rack_size=2, vendor_batch=2,
                        join_degree=1, weights=(2.0, 1.0, 1.0, 1.0, 2.0)),
        )
        engine = DynamicDiversifier(net.copy(), table.copy(), sharded=True)
        engine.solve()
        check_net, check_table = net.copy(), table.copy()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event)
            cold = diversify(check_net, check_table, fast_path=False)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)

    def test_only_touched_shards_resolve(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net.copy(), table.copy(), sharded=True)
        first = engine.solve()
        assert first.shards_total > 1
        # A similarity event inside one service's matrix touches only the
        # components pricing through it.
        host = engine.network.hosts[0]
        products = engine.network.candidates(host, "s0")
        engine.apply(SimilarityUpdate(products[0], products[1], 0.9))
        result = engine.solve()
        assert result.warm
        assert 0 < result.shards_solved < result.shards_total

    def test_clean_shard_state_untouched(self):
        net, table = workload(seed=7)
        engine = DynamicDiversifier(net.copy(), table.copy(), sharded=True)
        engine.solve()
        plan = engine.plan

        def edge_rows():
            """Edge identity → its pair of directed message rows."""
            return {
                (plan._edge_keys[e], plan.variables[plan._edge_first[e]]):
                    plan.messages[2 * e : 2 * e + 2].copy()
                for e in range(plan.edge_count)
            }

        rows_before = edge_rows()
        labels_before = {
            key: int(plan.labels[node])
            for node, key in enumerate(plan.variables)
        }
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        touched = set(plan.touched)
        assert touched
        result = engine.solve()
        assert result.warm
        assert 0 < result.shards_solved < result.shards_total

        # Recompute the partition the solve ran over and classify shards.
        from repro.mrf.partition import split_parts

        unaries, first, second, cid, matrices = plan.parts()
        partition = split_parts(unaries, first, second, cid, matrices,
                                lmax=plan.messages.shape[1])
        clean_nodes = set()
        clean_count = 0
        for shard in partition:
            keys = {plan.variables[int(n)] for n in shard.nodes}
            if not keys & touched:
                clean_count += 1
                clean_nodes.update(int(n) for n in shard.nodes)
        assert clean_count == result.shards_total - result.shards_solved
        assert clean_nodes

        # Clean-shard variables kept their labels ...
        for node in clean_nodes:
            key = plan.variables[node]
            assert int(plan.labels[node]) == labels_before[key]
        # ... and clean-shard edges kept their message rows byte-for-byte.
        rows_after = edge_rows()
        compared = 0
        for e in range(plan.edge_count):
            if plan._edge_first[e] in clean_nodes:
                identity = (plan._edge_keys[e],
                            plan.variables[plan._edge_first[e]])
                assert np.array_equal(rows_after[identity],
                                      rows_before[identity])
                compared += 1
        assert compared > 0

    def test_merge_and_split_tracked(self):
        net, table = tiny_network()  # one chain h0-h1-h2-h3, 2 services
        engine = DynamicDiversifier(
            net, table, sharded=True, rebuild_fraction=1.0
        )
        first = engine.solve()
        assert first.shards_total == 2  # one component per service
        engine.apply(LinkRemove("h1", "h2"))
        split = engine.solve()
        assert split.shards_total == 4  # both services split in two
        assert split.warm
        engine.apply(LinkAdd("h1", "h2"))
        merged = engine.solve()
        assert merged.shards_total == 2
        assert merged.warm

    def test_cold_rebuild_falls_back(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(
            net, table, sharded=True, rebuild_fraction=0.1
        )
        engine.solve()
        for a, b in list(engine.network.links)[:12]:
            engine.apply(LinkRemove(a, b))
        result = engine.solve()
        assert not result.warm
        assert result.shards_solved == result.shards_total

    def test_bp_sharded_parity(self):
        net, table = workload(hosts=16, seed=8)
        engine = DynamicDiversifier(net.copy(), table.copy(), solver="bp",
                                    sharded=True)
        engine.solve()
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        result = engine.solve()
        assert result.warm
        assert result.energy == pytest.approx(
            assignment_energy(engine.network, engine.similarity,
                              result.assignment),
            abs=1e-9,
        )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_similarity_update_on_freshly_created_matrix(self, sharded):
        # Regression: a LinkAdd between hosts whose candidate-range pair
        # was not previously adjacent allocates a new cost matrix; a
        # SimilarityUpdate landing in it before the next flush (monolithic
        # batch) or ever (sharded mode never flushes the global plan) used
        # to patch the stale cost stack out of range and crash.
        net = Network()
        net.add_host("a1", {"svc": ("p0", "p1")})
        net.add_host("a2", {"svc": ("p0", "p1")})
        net.add_host("b1", {"svc": ("q0", "q1")})
        net.add_host("b2", {"svc": ("q0", "q1")})
        net.add_links([("a1", "a2"), ("b1", "b2")])
        table = SimilarityTable(
            pairs={("p0", "p1"): 0.4, ("q0", "q1"): 0.3}
        )
        engine = DynamicDiversifier(
            net, table, sharded=sharded, rebuild_fraction=1.0
        )
        engine.solve()
        # New (p-range, q-range) adjacency → a fresh cost matrix...
        engine.apply(LinkAdd("a1", "b1"))
        engine.solve()
        # ... which the next feed re-score must land in without crashing.
        engine.apply(SimilarityUpdate("p0", "q1", 0.8))
        result = engine.solve()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )
        # And batched in one delta (structural + value before a solve).
        engine.apply(LinkAdd("a2", "b2"))
        engine.apply(SimilarityUpdate("p1", "q0", 0.7))
        result = engine.solve()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )

    def test_sharded_replay_records(self):
        net, table = workload(hosts=12, seed=10)
        trace = random_churn_trace(net, ChurnConfig(events=4, seed=10))
        report = replay_trace(net, table, trace, sharded=True)
        for record in report.records:
            assert record.shards_total is not None
            assert 0 <= record.shards_solved <= record.shards_total
            assert "shards=" in record.row()


class TestReplayDriver:
    def test_records_and_summary(self):
        net, table = workload(seed=9)
        trace = random_churn_trace(net, ChurnConfig(events=6, seed=9))
        report = replay_trace(net, table, trace)
        assert len(report.records) == 6
        assert report.warm_count == 6
        assert 0.0 <= report.mean_stability <= 1.0
        assert report.total_cold_seconds is None
        assert "6 events" in report.summary()
        assert len(report.format_rows().splitlines()) == 6

    def test_compare_cold_fills_baseline(self):
        net, table = workload(hosts=12, seed=9)
        trace = random_churn_trace(net, ChurnConfig(events=3, seed=9))
        report = replay_trace(net, table, trace, compare_cold=True)
        for record in report.records:
            assert record.cold_seconds is not None
            assert record.cold_energy == pytest.approx(record.energy, abs=1e-9)
            assert record.speedup is not None
        assert "baseline" in report.summary()

    def test_cold_replay(self):
        net, table = workload(hosts=12, seed=10)
        trace = random_churn_trace(net, ChurnConfig(events=3, seed=10))
        report = replay_trace(net, table, trace, warm_start=False)
        assert report.warm_count == 0
