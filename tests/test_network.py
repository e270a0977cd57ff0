"""Network-level data-plane power (:mod:`repro.network`).

Pins the subsystem's contracts:

* topology / traffic-matrix specs round-trip through JSON and hash
  stably by content;
* routing conserves flow (sum of link loads == sum of demand x hops)
  and ECMP splits demand exactly across equal-cost paths;
* a one-node network is *bit-identical* to a standalone
  :class:`~repro.api.PowerModel` run of the same scenario;
* the switch-off policy never increases power;
* the CLI round-trips: a warm ``--cache`` re-simulates nothing and the
  exports stay byte-identical.
"""

import json

import pytest

from repro.api import PowerModel, Scenario
from repro.api.store import DerivedRecordStore, RunRecordStore
from repro.cli import main
from repro.errors import ConfigurationError
from repro.network import (
    Demand,
    Link,
    NetworkPowerModel,
    NetworkRecord,
    NetworkSpec,
    NetworkTopology,
    RouterNode,
    TrafficMatrix,
    build_tables,
    dumbbell,
    edge_nodes,
    fat_tree,
    get_network,
    line,
    mesh,
    network_names,
    route,
    run_network,
    single,
    star,
)

#: Small measurement window shared by every simulated test here.
FAST = dict(arrival_slots=80, warmup_slots=10, seed=7)


def small_spec(**overrides) -> NetworkSpec:
    """A 3-node line with one transit demand — cheap and non-trivial."""
    defaults = dict(
        name="t",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r2", 0.4),)),
        base=FAST,
    )
    defaults.update(overrides)
    return NetworkSpec(**defaults)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestTopology:
    def test_round_trip_and_hash_stability(self):
        topo = dumbbell(2, 2)
        back = NetworkTopology.from_json(topo.to_json())
        assert back == topo
        assert back.content_hash() == topo.content_hash()
        # Hash is content-derived: a changed capacity changes it.
        other = topo.replace(
            links=(topo.links[0].__class__(
                topo.links[0].src, topo.links[0].dst, 0.5
            ),) + topo.links[1:]
        )
        assert other.content_hash() != topo.content_hash()

    def test_from_dict_accepts_plain_mappings(self):
        topo = NetworkTopology.from_dict(
            {
                "name": "pair",
                "nodes": [
                    {"name": "a", "ports": 3},
                    {"name": "b", "ports": 3, "architecture": "banyan"},
                ],
                "links": [
                    {"src": "a", "dst": "b"},
                    {"src": "b", "dst": "a", "capacity": 0.5},
                ],
            }
        )
        assert topo.node("b").architecture == "banyan"
        assert topo.link("b", "a").capacity == 0.5

    def test_port_map_pairs_cable_directions(self):
        topo = NetworkTopology(
            name="pair",
            nodes=[RouterNode("a", 3), RouterNode("b", 3)],
            links=[Link("a", "b"), Link("b", "a")],
        )
        pm = topo.port_map()
        # One cable -> one port on each endpoint; the rest are access.
        assert pm["a"].peers == {"b": 0}
        assert pm["a"].access_ports == (1, 2)
        assert pm["b"].peers == {"a": 0}

    def test_too_many_cables_rejected(self):
        with pytest.raises(ConfigurationError, match="cables"):
            NetworkTopology(
                name="x",
                nodes=[RouterNode("a", 2), RouterNode("b", 2),
                       RouterNode("c", 2), RouterNode("d", 2)],
                links=[Link("a", "b"), Link("a", "c"), Link("a", "d")],
            )

    def test_duplicate_and_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate node"):
            NetworkTopology(
                name="x", nodes=[RouterNode("a", 2), RouterNode("a", 2)]
            )
        with pytest.raises(ConfigurationError, match="unknown node"):
            NetworkTopology(
                name="x", nodes=[RouterNode("a", 2)], links=[Link("a", "z")]
            )
        with pytest.raises(ConfigurationError, match="self-links"):
            Link("a", "a")
        with pytest.raises(ConfigurationError, match="capacity"):
            Link("a", "b", 1.5)

    def test_generators_validate(self):
        assert len(single(8).nodes) == 1
        assert len(line(4).nodes) == 4
        assert len(star(3).nodes) == 4
        assert len(mesh(4).links) == 12
        assert len(dumbbell(3, 3).nodes) == 8
        ft = fat_tree(4)
        assert len(ft.nodes) == 20  # 4 core + 8 agg + 8 edge
        assert all(n.ports == 4 for n in ft.nodes)
        assert len(edge_nodes(ft)) == 8  # only edge switches keep access


# ----------------------------------------------------------------------
# Traffic matrix
# ----------------------------------------------------------------------


class TestTrafficMatrix:
    def test_round_trip_and_hash_stability(self):
        tm = TrafficMatrix.uniform(("a", "b", "c"), 0.2)
        back = TrafficMatrix.from_json(tm.to_json())
        assert back == tm
        assert back.content_hash() == tm.content_hash()
        assert tm.scaled(2.0).content_hash() != tm.content_hash()

    def test_canonical_order_makes_hash_order_independent(self):
        a = TrafficMatrix((Demand("a", "b", 0.1), Demand("b", "a", 0.2)))
        b = TrafficMatrix((Demand("b", "a", 0.2), Demand("a", "b", 0.1)))
        assert a.content_hash() == b.content_hash()

    def test_presets(self):
        uni = TrafficMatrix.uniform(("a", "b", "c"), 0.1)
        assert len(uni.demands) == 6
        assert uni.originated("a") == pytest.approx(0.2)
        grav = TrafficMatrix.gravity({"a": 2.0, "b": 1.0, "c": 1.0}, 1.0)
        assert grav.total() == pytest.approx(1.0)
        # Heavier endpoints attract proportionally more demand.
        assert grav.demand("a", "b") > grav.demand("b", "c")
        hot = TrafficMatrix.hotspot(("a", "b", "c"), "c", 0.3)
        assert hot.terminated("c") == pytest.approx(0.6)
        assert hot.demand("a", "b") == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="duplicate demand"):
            TrafficMatrix((Demand("a", "b", 0.1), Demand("a", "b", 0.2)))
        with pytest.raises(ConfigurationError, match=">= 0"):
            Demand("a", "b", -0.1)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouting:
    def test_flow_conservation_shortest(self):
        topo = line(4)
        tm = TrafficMatrix(
            (Demand("r0", "r3", 0.2), Demand("r1", "r3", 0.3),
             Demand("r2", "r0", 0.1))
        )
        result = route(topo, tm, "shortest")
        expected = sum(
            d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
            for d in tm.demands
        )
        assert result.total_link_load == pytest.approx(expected)
        assert result.demand_hops[("r0", "r3")] == 3

    def test_flow_conservation_ecmp(self):
        spec = get_network("fat_tree_k4")
        result = route(spec.topology, spec.matrix, "ecmp")
        expected = sum(
            d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
            for d in spec.matrix.demands
        )
        assert result.total_link_load == pytest.approx(expected)

    def test_ecmp_splits_equally(self):
        # Two equal-cost 2-hop paths a -> {m1, m2} -> b.
        topo = NetworkTopology(
            name="diamond",
            nodes=[RouterNode("a", 3), RouterNode("m1", 2),
                   RouterNode("m2", 2), RouterNode("b", 3)],
            links=[Link("a", "m1"), Link("m1", "b"),
                   Link("a", "m2"), Link("m2", "b")],
        )
        tm = TrafficMatrix((Demand("a", "b", 0.8),))
        result = route(topo, tm, "ecmp")
        assert result.link_loads[("a", "m1")] == pytest.approx(0.4)
        assert result.link_loads[("a", "m2")] == pytest.approx(0.4)
        # The shortest mode pins everything onto one deterministic path.
        one = route(topo, tm, "shortest")
        assert sorted(one.link_loads.values()) == pytest.approx(
            [0.0, 0.0, 0.8, 0.8]
        )

    def test_ingress_port_loads(self):
        spec = small_spec()
        result = route(spec.topology, spec.matrix, "shortest")
        # r1 is pure transit: its cable port from r0 carries the demand.
        pm = spec.topology.port_map()
        r1_port = pm["r1"].peers["r0"]
        assert result.ingress_loads["r1"][r1_port] == pytest.approx(0.4)
        # r0 originates 0.4 over its single access port.
        access = pm["r0"].access_ports[0]
        assert result.ingress_loads["r0"][access] == pytest.approx(0.4)
        # r2 terminates only: ingress on the cable, egress on access.
        assert result.egress_loads["r2"][pm["r2"].access_ports[0]] == (
            pytest.approx(0.4)
        )

    def test_overload_rejected(self):
        spec = small_spec(matrix=TrafficMatrix((Demand("r0", "r2", 0.9),)))
        # The bottleneck link capacity is 1.0; 0.9 routes fine, but
        # doubling the demand exceeds line rate.
        route(spec.topology, spec.matrix, "shortest")
        with pytest.raises(ConfigurationError, match="exceeds link capacity"):
            route(spec.topology, spec.matrix.scaled(2.0), "shortest")

    def test_unroutable_rejected(self):
        topo = NetworkTopology(
            name="split",
            nodes=[RouterNode("a", 2), RouterNode("b", 2)],
        )
        with pytest.raises(ConfigurationError, match="unroutable"):
            route(topo, TrafficMatrix((Demand("a", "b", 0.1),)))

    def test_access_overload_rejected(self):
        # 1.2 cells/slot into one access port exceeds line rate.
        topo = single(2)
        with pytest.raises(ConfigurationError, match="line rate"):
            route(topo, TrafficMatrix((Demand("r0", "r0", 2.4),)))

    def test_ecmp_invariant_under_link_permutation(self):
        # ECMP splits by shortest-path counts, which don't depend on
        # declaration order — permuting the link tuple must reproduce
        # the exact same link loads and path lengths.
        spec = get_network("fat_tree_k4")
        topo = spec.topology
        shuffled = topo.replace(links=tuple(reversed(topo.links)))
        a = route(topo, spec.matrix, "ecmp")
        b = route(shuffled, spec.matrix, "ecmp")
        assert a.demand_hops == b.demand_hops
        assert set(a.link_loads) == set(b.link_loads)
        for edge, load in a.link_loads.items():
            assert b.link_loads[edge] == pytest.approx(load)
        # The aggregate record is therefore permutation-stable too.
        ra = run_network(spec.replace(base=dict(backend="estimate")))
        rb = run_network(
            spec.replace(topology=shuffled, base=dict(backend="estimate"))
        )
        assert rb.totals["power_w"] == pytest.approx(ra.totals["power_w"])
        assert rb.totals["max_link_utilization"] == pytest.approx(
            ra.totals["max_link_utilization"]
        )


# ----------------------------------------------------------------------
# Routing tables
# ----------------------------------------------------------------------


class TestRoutingTables:
    def diamond(self):
        # Two equal-cost 2-hop paths a -> {m1, m2} -> b.
        return NetworkTopology(
            name="diamond",
            nodes=[RouterNode("a", 3), RouterNode("m1", 2),
                   RouterNode("m2", 2), RouterNode("b", 3)],
            links=[Link("a", "m1"), Link("m1", "b"),
                   Link("a", "m2"), Link("m2", "b")],
        )

    def test_tables_reproduce_mode_routing(self):
        topo = self.diamond()
        tm = TrafficMatrix((Demand("a", "b", 0.8),))
        for mode in ("shortest", "ecmp"):
            direct = route(topo, tm, mode)
            tabled = route(topo, tm, tables=build_tables(topo, mode))
            assert tabled.mode == "tables"
            for edge, load in direct.link_loads.items():
                assert tabled.link_loads[edge] == pytest.approx(load)
            assert tabled.ingress_loads == direct.ingress_loads

    def test_edited_tables_shift_traffic(self):
        # An optimizer-style edit: weight the two next hops 1:3.
        topo = self.diamond()
        tm = TrafficMatrix((Demand("a", "b", 0.8),))
        tables = build_tables(topo, "ecmp")
        tables.set_next_hops("a", "b", [("m1", 1.0), ("m2", 3.0)])
        result = route(topo, tm, tables=tables)
        assert result.link_loads[("a", "m1")] == pytest.approx(0.2)
        assert result.link_loads[("a", "m2")] == pytest.approx(0.6)

    def test_table_loops_and_dead_ends_raise(self):
        topo = line(3)
        tm = TrafficMatrix((Demand("r0", "r2", 0.1),))
        looped = build_tables(topo, "shortest")
        looped.set_next_hops("r1", "r2", [("r0", 1.0)])
        with pytest.raises(ConfigurationError, match="loop"):
            route(topo, tm, tables=looped)
        dead = build_tables(topo, "shortest")
        del dead.tables["r1"]["r2"]
        with pytest.raises(ConfigurationError, match="no next hop"):
            route(topo, tm, tables=dead)

    def test_set_next_hops_validation(self):
        tables = build_tables(line(2), "shortest")
        with pytest.raises(ConfigurationError, match="> 0"):
            tables.set_next_hops("r0", "r1", [("r1", 0.0)])
        with pytest.raises(ConfigurationError, match="own next hop"):
            tables.set_next_hops("r0", "r1", [("r0", 1.0)])
        with pytest.raises(ConfigurationError, match="at least one"):
            tables.set_next_hops("r0", "r1", [])
        assert "r1" in tables.destinations()


# ----------------------------------------------------------------------
# Power aggregation
# ----------------------------------------------------------------------


class TestNetworkPower:
    def test_single_node_bit_identical_to_standalone(self):
        # ports=8 and demand=0.3*8 make the per-access-port division
        # exact, so the derived scenario *is* the standalone scenario.
        spec = NetworkSpec(
            name="solo",
            topology=single(ports=8),
            matrix=TrafficMatrix((Demand("r0", "r0", 0.3 * 8),)),
            base=FAST,
        )
        model = NetworkPowerModel()
        (name, scenario), = model.scenarios(spec)
        assert scenario.load == 0.3  # uniform vector collapsed to scalar
        record = model.run(spec)
        standalone = PowerModel().run(
            Scenario("crossbar", 8, 0.3, **FAST)
        )
        row = record.node("r0")
        assert row["fabric_power_w"] == standalone.total_power_w
        assert row["throughput"] == standalone.throughput
        assert row["switch_power_w"] == standalone.switch_power_w
        assert row["wire_power_w"] == standalone.wire_power_w
        assert row["buffer_power_w"] == standalone.buffer_power_w
        assert record.totals["fabric_power_w"] == standalone.total_power_w

    def test_single_node_shares_cache_with_standalone(self, tmp_path):
        # Same content hash -> the network run is served from a store
        # warmed by the equivalent *standalone* scenario (a user's own
        # `repro batch` run), not just by a previous network run.
        spec = NetworkSpec(
            name="solo",
            topology=single(ports=8),
            matrix=TrafficMatrix((Demand("r0", "r0", 0.3 * 8),)),
            base=FAST,
        )
        model = NetworkPowerModel()
        (_, derived), = model.scenarios(spec)
        standalone = Scenario("crossbar", 8, 0.3, **FAST)
        assert derived.content_hash() == standalone.content_hash()
        store = RunRecordStore(tmp_path / "records.jsonl")
        PowerModel().run_batch([standalone], store=store)
        store2 = RunRecordStore(tmp_path / "records.jsonl")
        model.run(spec, store=store2)
        assert store2.stats()["misses"] == 0

    def test_identical_routers_share_one_cache_entry(self, tmp_path):
        # The three left leaves of the dumbbell are identically
        # configured and identically loaded -> one store entry each run.
        spec = get_network("dumbbell_switchoff")
        store = RunRecordStore(tmp_path / "records.jsonl")
        record = NetworkPowerModel().run(spec, store=store)
        assert len(record.nodes) == 8
        assert store.stats()["entries"] < 8

    def test_idle_router_with_bursty_traffic_runs(self):
        # An all-idle router keeps the vector load spelling under
        # bursty traffic (the scalar bursty contract rejects load 0).
        spec = get_network("dumbbell_switchoff").replace(
            base=dict(traffic="bursty", **FAST)
        )
        record = run_network(spec)  # r1/r2 are fully idle
        assert record.node("r1")["mean_load"] == 0.0
        assert record.node("r1")["throughput"] == 0.0
        assert record.node("r0")["throughput"] > 0.0

    def test_network_total_sums_nodes(self):
        record = run_network(small_spec())
        assert record.totals["fabric_power_w"] == pytest.approx(
            sum(row["fabric_power_w"] for row in record.nodes)
        )
        assert record.totals["power_w"] == pytest.approx(
            sum(row["power_w"] for row in record.nodes)
        )
        assert record.totals["nodes"] == 3

    def test_switch_off_monotone_and_fabric_invariant(self):
        base = small_spec(port_power_w=0.01)
        on = run_network(base.replace(switch_off=True))
        off = run_network(base)
        # Idling unused ports never increases power, and never touches
        # the fabric component.
        assert on.totals["power_w"] <= off.totals["power_w"]
        assert on.totals["fabric_power_w"] == off.totals["fabric_power_w"]
        saved = on.totals["switch_off_delta_w"]
        assert saved == pytest.approx(
            off.totals["port_power_w"] - on.totals["port_power_w"]
        )
        assert saved > 0.0  # the reverse-direction links are idle
        assert off.totals["switch_off_delta_w"] == 0.0

    def test_link_rows_and_port_power_attribution(self):
        record = run_network(small_spec(port_power_w=0.01))
        # Without switch-off every port is powered.
        assert record.totals["powered_ports"] == record.totals["total_ports"]
        # Link power halves across the two directions of each cable, so
        # summing directed rows never double counts a port.
        cable_ports = sum(
            row["power_w"] for row in record.links
        )
        # line(3): 2 cables -> 4 cable ports at 0.01 W.
        assert cable_ports == pytest.approx(0.04)

    def test_propagation_power_scales_with_length_and_load(self):
        # One 1 km cable at load 0.4: each direction burns
        # load x line rate x J/bit/m x length = 0.4 * 100e6 * 1e-12 * 1000.
        topo = NetworkTopology(
            name="pair",
            nodes=[RouterNode("a", 2), RouterNode("b", 2)],
            links=[Link("a", "b", length_m=1000.0),
                   Link("b", "a", length_m=1000.0)],
        )
        spec = NetworkSpec(
            name="prop",
            topology=topo,
            matrix=TrafficMatrix((Demand("a", "b", 0.4),)),
            base=dict(backend="estimate"),
            propagation_j_per_bit_m=1e-12,
        )
        record = run_network(spec)
        forward = next(
            r for r in record.links if (r["src"], r["dst"]) == ("a", "b")
        )
        reverse = next(
            r for r in record.links if (r["src"], r["dst"]) == ("b", "a")
        )
        assert forward["propagation_power_w"] == pytest.approx(0.04)
        assert reverse["propagation_power_w"] == 0.0  # no reverse load
        assert record.totals["propagation_power_w"] == pytest.approx(0.04)
        assert record.totals["power_w"] == pytest.approx(
            record.totals["fabric_power_w"]
            + record.totals["port_power_w"]
            + 0.04
        )

    def test_propagation_default_keeps_hashes_and_totals(self):
        # The 0.0 default is omitted from dicts, so pre-existing spec
        # hashes and records are untouched by the new field.
        spec = small_spec()
        explicit = small_spec(propagation_j_per_bit_m=0.0)
        assert "propagation_j_per_bit_m" not in spec.to_dict()
        assert explicit.content_hash() == spec.content_hash()
        record = run_network(spec.replace(base=dict(backend="estimate")))
        assert record.totals["propagation_power_w"] == 0.0
        with pytest.raises(ConfigurationError, match="propagation"):
            small_spec(propagation_j_per_bit_m=-1e-12)

    def test_estimate_backend_uses_scalar_mean(self):
        spec = small_spec(base=dict(backend="estimate"))
        model = NetworkPowerModel()
        for _, scenario in model.scenarios(spec):
            assert isinstance(scenario.load, float)
        record = model.run(spec)
        assert record.totals["power_w"] > 0.0

    def test_spec_round_trip_and_validation(self):
        spec = get_network("dumbbell_switchoff")
        back = NetworkSpec.from_json(spec.to_json())
        assert back == spec
        assert back.content_hash() == spec.content_hash()
        assert spec.scaled(0.5).content_hash() != spec.content_hash()
        with pytest.raises(ConfigurationError, match="derived"):
            small_spec(base=dict(ports=8))
        with pytest.raises(ConfigurationError, match="trace"):
            small_spec(base=dict(traffic="trace"))
        with pytest.raises(ConfigurationError, match="unknown nodes"):
            small_spec(matrix=TrafficMatrix((Demand("zz", "r0", 0.1),)))

    def test_record_round_trip(self):
        record = run_network(small_spec(port_power_w=0.002))
        back = NetworkRecord.from_json(record.to_json())
        assert back.to_csv() == record.to_csv()
        assert back.links_to_csv() == record.links_to_csv()
        assert back.totals == record.totals
        assert back.detail is None

    def test_figure_store_serves_without_session(self, tmp_path):
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        spec = small_spec()
        first = run_network(spec, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_network(spec, figures=warm)
        assert warm.stats() == {
            "entries": 1, "hits": 1, "misses": 0, "skipped_lines": 0,
            "quarantined": 0,
        }
        assert second.to_csv() == first.to_csv()

    def test_run_network_accepts_preset_name_and_scale(self):
        record = run_network(
            "dumbbell_switchoff", scale=0.5,
        )
        assert record.totals["max_link_utilization"] == pytest.approx(0.375)


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


class TestNetworkCampaigns:
    def test_presets_registered(self):
        from repro.campaigns import campaign_names, get_campaign

        names = campaign_names()
        assert "fat_tree_k4_sweep" in names
        assert "dumbbell_switchoff" in names
        campaign = get_campaign("dumbbell_switchoff")
        assert campaign.kind == "network"
        assert campaign.size() == 18  # 2 scales x (8 nodes + total row)

    def test_campaign_round_trip(self):
        from repro.campaigns import Campaign, get_campaign

        campaign = get_campaign("fat_tree_k4_sweep")
        back = Campaign.from_json(campaign.to_json())
        assert back.content_hash() == campaign.content_hash()
        assert back.network_scales() == (0.25, 0.5, 0.75, 1.0)

    def test_campaign_plan_routes_without_running(self):
        from repro.campaigns import campaign_plan, get_campaign

        campaign = get_campaign("dumbbell_switchoff")
        plan = campaign_plan(campaign)
        # Plan and size agree: 2 scales x (8 nodes + the total row).
        assert len(plan) == campaign.size() == 18
        assert {p["scale"] for p in plan} == {0.5, 1.0}

    def test_campaign_run_and_report(self, tmp_path):
        from repro.campaigns import (
            Campaign,
            NETWORK_TOTAL_NODE,
            render_report,
            run_campaign,
        )

        campaign = Campaign(
            name="net",
            kind="network",
            params={
                "spec": small_spec(port_power_w=0.001,
                                   switch_off=True).to_dict(),
                "scales": [0.5, 1.0],
            },
        )
        record = run_campaign(campaign)
        assert len(record.points) == 8  # 2 scales x (3 nodes + total)
        totals = record.select(node=NETWORK_TOTAL_NODE)
        assert len(totals) == 2
        assert totals[0]["power_w"] <= totals[1]["power_w"]
        report = render_report(record)
        assert "demand scale 0.5" in report and "switch-off saved" in report

    def test_campaign_figures_cache(self, tmp_path):
        from repro.campaigns import Campaign, run_campaign

        campaign = Campaign(
            name="net",
            kind="network",
            params={"spec": small_spec().to_dict()},
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()

    def test_figures_miss_when_named_preset_changes(self, tmp_path,
                                                    monkeypatch):
        # A campaign that names a preset resolves it at run time; the
        # figure key mixes the resolved spec in, so editing the preset
        # misses the cache instead of serving the pre-edit record.
        from repro.campaigns import Campaign, run_campaign
        from repro.network import presets as network_presets

        spec_a = small_spec()
        spec_b = small_spec(
            matrix=TrafficMatrix((Demand("r0", "r2", 0.6),))
        )
        monkeypatch.setitem(
            network_presets.NETWORK_PRESETS, "tmp_net", lambda: spec_a
        )
        campaign = Campaign(
            name="net", kind="network", params={"network": "tmp_net"},
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        monkeypatch.setitem(
            network_presets.NETWORK_PRESETS, "tmp_net", lambda: spec_b
        )
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.misses >= 1  # the edited preset did not hit
        assert second.to_csv() != first.to_csv()

    def test_grid_campaign_figures_cache(self, tmp_path):
        # The derived-figure store works for classic grid campaigns too
        # (the ROADMAP open item): a warm report needs no execution.
        from repro.campaigns import Campaign, run_campaign

        campaign = Campaign(
            name="mini",
            architectures=("crossbar",),
            ports=(4,),
            loads=(0.2,),
            base=FAST,
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()

    def test_network_campaign_validation(self):
        from repro.campaigns import Campaign

        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(name="x", kind="network")
        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(
                name="x", kind="network",
                params={"network": "fat_tree_k4",
                        "spec": small_spec().to_dict()},
            )
        with pytest.raises(ConfigurationError, match="positive"):
            Campaign(
                name="x", kind="network",
                params={"network": "fat_tree_k4", "scales": [0.0]},
            )
        with pytest.raises(ConfigurationError, match="unknown network"):
            Campaign(
                name="x", kind="network", params={"network": "nope"},
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestNetworkCli:
    def test_list(self, capsys):
        assert main(["network", "list"]) == 0
        out = capsys.readouterr().out
        for name in network_names():
            assert name in out

    def test_dry_run(self, capsys):
        assert main(["network", "run", "dumbbell_switchoff",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "8 routers" in out
        assert "link hub_l->hub_r" in out

    def test_run_report_and_warm_cache(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(port_power_w=0.001).to_json())
        cache = tmp_path / "records.jsonl"
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert main(["network", "run", str(spec_file),
                     "--cache", str(cache), "--csv", str(csv_a),
                     "--links-csv", str(tmp_path / "links.csv"),
                     "--json", str(tmp_path / "rec.json"),
                     "--format", "csv"]) == 0
        capsys.readouterr()
        # Warm cache: zero misses, byte-identical exports.
        assert main(["network", "run", str(spec_file),
                     "--cache", str(cache), "--csv", str(csv_b),
                     "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert " 0 misses" in captured.err
        assert csv_a.read_bytes() == csv_b.read_bytes()
        # Stdout csv matches the exported file byte for byte.
        assert captured.out.encode() == csv_b.read_bytes()
        payload = json.loads((tmp_path / "rec.json").read_text())
        assert payload["totals"]["nodes"] == 3

    def test_report_command(self, capsys):
        assert main(["network", "report", "dumbbell_switchoff",
                     "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "per-router power" in out and "switch-off saved" in out

    def test_figures_round_trip(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec().to_json())
        figs = tmp_path / "figs.jsonl"
        assert main(["network", "run", str(spec_file),
                     "--figures", str(figs), "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["network", "run", str(spec_file),
                     "--figures", str(figs), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "1 hits" in captured.err
        assert captured.out == first

    def test_campaign_cli_knows_network_presets(self, capsys):
        assert main(["campaign", "run", "dumbbell_switchoff",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "18 points" in out

    def test_unknown_network_errors_cleanly(self, capsys):
        assert main(["network", "run", "nope"]) == 2
        assert "known networks" in capsys.readouterr().err
