"""Tests for the top-level diversification API (repro.core.diversify)."""

import pytest

from repro.core import diversify, mono_assignment
from repro.core.compile import network_energy
from repro.core.costs import assignment_energy
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.model import Network
from repro.network.topologies import chain_network, ring_network
from repro.network.zones import Zone, ZonedNetwork
from repro.nvd.similarity import SimilarityTable
from repro.stream.incremental import DynamicDiversifier


class TestUnconstrained:
    def test_chain_alternates(self, two_product_table):
        net = chain_network(5)
        result = diversify(net, two_product_table)
        labels = [result.assignment.get(h, "svc") for h in net.hosts]
        assert all(a != b for a, b in zip(labels, labels[1:]))
        # Alternation leaves every edge at the cross-product similarity 0.4.
        assert result.similarity_total == pytest.approx(4 * 0.4)
        assert result.satisfied

    def test_even_ring_two_colourable(self, two_product_table):
        result = diversify(ring_network(6), two_product_table)
        assert result.similarity_total == pytest.approx(6 * 0.4)

    def test_odd_ring_pays_one_edge(self, two_product_table):
        result = diversify(ring_network(5), two_product_table)
        # An odd cycle with two products: four edges at 0.4, one forced to
        # carry identical products (similarity 1.0).
        assert result.similarity_total == pytest.approx(4 * 0.4 + 1.0)

    def test_beats_mono(self, two_product_table):
        net = ring_network(8)
        optimal = diversify(net, two_product_table)
        mono = mono_assignment(net)
        mono_energy = assignment_energy(net, two_product_table, mono)
        assert optimal.energy < mono_energy

    def test_summary_text(self, two_product_table):
        result = diversify(chain_network(3), two_product_table)
        text = result.summary()
        assert "energy=" in text and "constraints satisfied" in text

    def test_mean_edge_similarity(self, two_product_table):
        result = diversify(ring_network(5), two_product_table)
        assert result.mean_edge_similarity == pytest.approx((4 * 0.4 + 1.0) / 5)


class TestConstrained:
    @pytest.fixture
    def net(self):
        network = Network()
        spec = {"os": ["w", "l"], "wb": ["ie", "ch"]}
        for name in ("a", "b", "c", "d"):
            network.add_host(name, spec)
        network.add_links([("a", "b"), ("b", "c"), ("c", "d")])
        return network

    @pytest.fixture
    def sim(self):
        return SimilarityTable(pairs={("w", "l"): 0.3, ("ie", "ch"): 0.2})

    def test_fix_product_respected(self, net, sim):
        cs = ConstraintSet([FixProduct("b", "os", "l")])
        result = diversify(net, sim, constraints=cs)
        assert result.assignment.get("b", "os") == "l"
        assert result.satisfied
        # Neighbours dodge the pinned product.
        assert result.assignment.get("a", "os") == "w"
        assert result.assignment.get("c", "os") == "w"

    def test_forbid_product_respected(self, net, sim):
        cs = ConstraintSet([ForbidProduct("a", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.assignment.get("a", "wb") == "ch"
        assert result.satisfied

    def test_avoid_combination_respected(self, net, sim):
        cs = ConstraintSet([AvoidCombination(GLOBAL, "os", "l", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.satisfied
        for host in net.hosts:
            if result.assignment.get(host, "os") == "l":
                assert result.assignment.get(host, "wb") != "ie"

    def test_require_combination_respected(self, net, sim):
        cs = ConstraintSet([RequireCombination(GLOBAL, "os", "w", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.satisfied
        for host in net.hosts:
            if result.assignment.get(host, "os") == "w":
                assert result.assignment.get(host, "wb") == "ie"

    def test_constraints_cost_diversity(self, net, sim):
        free = diversify(net, sim)
        pinned = diversify(
            net, sim, constraints=ConstraintSet([FixProduct("b", "os", "l"),
                                                 FixProduct("c", "os", "l")])
        )
        assert pinned.similarity_total >= free.similarity_total

    def test_infeasible_reported_not_raised(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"], "wb": ["ie"]})
        sim = SimilarityTable()
        # 'wb' can only be ie, but both os options forbid combining with ie.
        cs = ConstraintSet(
            [
                AvoidCombination("a", "os", "w", "wb", "ie"),
                AvoidCombination("a", "os", "l", "wb", "ie"),
            ]
        )
        result = diversify(network, sim, constraints=cs)
        assert not result.satisfied
        assert len(result.violations) == 1


class TestSolverSelection:
    def test_exact_solver(self, two_product_table):
        result = diversify(chain_network(4), two_product_table, solver="exact")
        assert result.certified_optimal
        assert result.similarity_total == pytest.approx(3 * 0.4)

    def test_icm_solver_runs(self, two_product_table):
        result = diversify(chain_network(4), two_product_table, solver="icm")
        assert result.assignment.is_complete()

    def test_bp_solver_runs(self, two_product_table):
        result = diversify(chain_network(4), two_product_table, solver="bp")
        assert result.similarity_total == pytest.approx(3 * 0.4)

    def test_unknown_solver_raises(self, two_product_table):
        with pytest.raises(KeyError):
            diversify(chain_network(3), two_product_table, solver="magic")

    def test_solver_options_forwarded(self, two_product_table):
        result = diversify(
            chain_network(3), two_product_table, fast_path=False, max_iterations=1
        )
        assert result.solver_result.iterations == 1

    def test_trws_matches_exact_on_small_net(self):
        net = ring_network(5, services={"svc": ["p0", "p1", "p2"]})
        sim = SimilarityTable(
            pairs={("p0", "p1"): 0.5, ("p1", "p2"): 0.3, ("p0", "p2"): 0.1}
        )
        trws = diversify(net, sim, fast_path=False)
        exact = diversify(net, sim, solver="exact")
        assert trws.energy == pytest.approx(exact.energy, abs=1e-9)


class TestHeterogeneousNetworks:
    def test_per_host_ranges(self):
        network = Network()
        network.add_host("legacy", {"os": ["xp"]})
        network.add_host("modern", {"os": ["xp", "w10"]})
        network.add_link("legacy", "modern")
        sim = SimilarityTable(pairs={("xp", "w10"): 0.0})
        result = diversify(network, sim)
        assert result.assignment.get("legacy", "os") == "xp"
        assert result.assignment.get("modern", "os") == "w10"

    def test_disjoint_services_no_coupling(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"]})
        network.add_host("b", {"db": ["m", "p"]})
        network.add_link("a", "b")
        result = diversify(network, SimilarityTable())
        assert result.assignment.is_complete()
        assert result.similarity_total == 0.0


# ------------------------------------------------------ degenerate inputs

_DEGENERATE_SPEC = {"os": ("w", "l"), "db": ("d1", "d2", "d3")}


def _degenerate_network(hosts: int) -> Network:
    """The empty network, one host, or two linked hosts."""
    network = Network()
    for index in range(hosts):
        network.add_host(f"h{index}", _DEGENERATE_SPEC)
    if hosts == 2:
        network.add_link("h0", "h1")
    return network


def _degenerate_table() -> SimilarityTable:
    return SimilarityTable(
        products=["w", "l", "d1", "d2", "d3"],
        pairs={("w", "l"): 0.5, ("d1", "d2"): 0.7, ("d2", "d3"): 0.2},
    )


#: Every diversify route; ``None`` marks the zone-sharded one, whose
#: options depend on the network.
_ROUTES = {
    "default": {},
    "no-fast-path": {"fast_path": False},
    "bp": {"solver": "bp"},
    "icm": {"solver": "icm"},
    "exact": {"solver": "exact"},
    "shards-2": {"shards": 2},
    "zones": None,
    "cut": {"shards": "cut"},
}


class TestDegenerateInputs:
    """Empty, one-host and two-host networks through every solve route."""

    @pytest.mark.parametrize("hosts", [0, 1, 2])
    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_diversify_route(self, hosts, route):
        network = _degenerate_network(hosts)
        table = _degenerate_table()
        options = _ROUTES[route]
        if options is None:
            zones = [Zone("z", tuple(network.hosts))] if hosts else []
            options = {"shards": "zones", "zones": ZonedNetwork(zones)}
        result = diversify(network, table, **options)
        assert result.assignment.is_complete()
        assert result.energy == pytest.approx(
            network_energy(network, table, result.assignment), abs=1e-9
        )
        if options.get("solver", "trws") == "trws":
            assert result.certified_optimal

    @pytest.mark.parametrize("hosts", [0, 1, 2])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_streaming_engine(self, hosts, sharded):
        network = _degenerate_network(hosts)
        table = _degenerate_table()
        engine = DynamicDiversifier(network, table, sharded=sharded)
        for _ in range(2):  # the cold first solve, then a warm re-solve
            result = engine.solve()
            assert result.assignment.is_complete()
            assert result.energy == pytest.approx(
                network_energy(network, table, result.assignment), abs=1e-9
            )
