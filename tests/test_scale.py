"""Scale-equivalence suite: sharded == monolithic, at any size.

The scale layer (sharded execution + streaming aggregation + the new
``fat_tree(k)``/``isp`` generators and ``TraceDemand``) is only safe to
build on if execution strategy can never change a result.  This suite
locks that down:

* **Bit-identity** — for every network preset (the original four and
  the new k=8/k=16/ISP scale presets), the sharded/streamed
  :class:`NetworkRecord` exports are byte-identical to the monolithic
  path, and a shared :class:`RunRecordStore` warmed by one path serves
  the other with zero extra misses.
* **Conservation properties** — over ~50 seeded random topologies and
  random feasible matrices, ``sum(link loads) == sum(demand x hops)``
  for shortest-path, ECMP, and table forwarding, and infeasible
  matrices always raise — the invariant a buggy shard partitioner
  would break first.
* **Resilience x streaming** — injected faults surface as explicit
  holes on the streamed record, fault unit indices restart per shard
  batch (documented semantics), and a journal resume converges to
  byte-identical fault-free exports.
* **Bounded memory** — a 1000-router streamed run with
  ``detail="none"`` stays under a fixed tracemalloc peak (tracemalloc
  rather than RSS: deterministic, allocator- and platform-independent).
"""

import json
import math
import random
import tracemalloc

import pytest

from repro.api.model import PowerModel
from repro.api.store import RunRecordStore
from repro.control.demand import DemandSeries
from repro.errors import ConfigurationError
from repro.network import (
    DETAIL_LEVELS,
    Demand,
    GENERATORS,
    NetworkPowerModel,
    NetworkSpec,
    TraceDemand,
    TrafficMatrix,
    build_tables,
    edge_nodes,
    fat_tree,
    get_network,
    isp,
    line,
    mesh,
    network_names,
    route,
    shard_bounds,
    single,
    star,
)
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    Fault,
    FaultPlan,
    RetryPolicy,
)

#: Every built-in preset: the original four plus the scale tier.
ALL_PRESETS = (
    "single_crossbar8",
    "fat_tree_k4",
    "dumbbell_switchoff",
    "mesh4_ecmp",
    "fat_tree_k8",
    "fat_tree_k16",
    "isp200_ring",
)

#: Fast measurement window for specs built inside tests.
FAST_BASE = dict(arrival_slots=80, warmup_slots=10, seed=7)

#: Analytical backend: the closed form keeps 1000-router runs instant.
SCALE_BASE = dict(FAST_BASE, backend="estimate")


def exports(record):
    """Every deterministic export surface of a record, as bytes."""
    return (
        record.to_json().encode(),
        record.to_csv().encode(),
        record.links_to_csv().encode(),
    )


def ring_spec(
    topology, demand: float, name: str, base=None, **overrides
) -> NetworkSpec:
    """A sparse O(n) cyclic matrix over the topology's edge nodes."""
    endpoints = edge_nodes(topology)
    n = len(endpoints)
    matrix = TrafficMatrix(
        tuple(
            Demand(endpoints[i], endpoints[(i + 1) % n], demand)
            for i in range(n)
        ),
        name="ring",
    )
    return NetworkSpec(
        name=name,
        topology=topology,
        matrix=matrix,
        base=base if base is not None else SCALE_BASE,
        **overrides,
    )


def distinct_line_spec(n: int = 12) -> NetworkSpec:
    """A line network whose per-router scenarios are all distinct
    (distinct load vectors), so execution units map 1:1 onto routers
    and fault unit indices are predictable."""
    topology = line(n, access_ports=2)
    demands = tuple(
        Demand(f"r{i}", f"r{n - 1 - i}", 0.05 + 0.013 * i)
        for i in range(n // 2)
    )
    return NetworkSpec(
        name=f"line{n}_distinct",
        topology=topology,
        matrix=TrafficMatrix(demands, name="distinct"),
        base=SCALE_BASE,
    )


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


class TestShardBounds:
    @pytest.mark.parametrize(
        "count,shards",
        [(10, 3), (1, 1), (7, 7), (320, 16), (5, 2), (100, 9)],
    )
    def test_contiguous_and_covering(self, count, shards):
        bounds = shard_bounds(count, shards)
        flat = [i for start, stop in bounds for i in range(start, stop)]
        assert flat == list(range(count))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in shard_bounds(23, 5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_none_means_monolithic(self):
        assert shard_bounds(17, None) == [(0, 17)]
        assert shard_bounds(17, 1) == [(0, 17)]

    def test_more_shards_than_items_drops_empties(self):
        bounds = shard_bounds(3, 8)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError, match="shards"):
            shard_bounds(10, 0)
        with pytest.raises(ConfigurationError, match="shards"):
            shard_bounds(10, -2)
        with pytest.raises(ConfigurationError, match="count"):
            shard_bounds(-1, 2)


# ----------------------------------------------------------------------
# Sharded vs monolithic bit-identity
# ----------------------------------------------------------------------


class TestShardedBitIdentity:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_exports_byte_identical(self, name):
        spec = get_network(name)
        mono = NetworkPowerModel(PowerModel()).run(spec)
        sharded = NetworkPowerModel(PowerModel()).run(
            spec, shards=3, detail="none"
        )
        assert exports(sharded) == exports(mono)

    def test_many_shard_counts_converge(self):
        spec = get_network("fat_tree_k8")
        reference = exports(NetworkPowerModel(PowerModel()).run(spec))
        for shards in (2, 7, 16, 80, 200):
            record = NetworkPowerModel(PowerModel()).run(
                spec, shards=shards, detail="none"
            )
            assert exports(record) == reference, f"shards={shards}"

    def test_zero_extra_misses_monolithic_then_sharded(self, tmp_path):
        spec = get_network("fat_tree_k8")
        store = RunRecordStore(tmp_path / "cache.jsonl")
        NetworkPowerModel(PowerModel()).run(spec, store=store)
        cold_misses = store.misses
        assert cold_misses > 0
        NetworkPowerModel(PowerModel()).run(
            spec, store=store, shards=5, detail="none"
        )
        assert store.misses == cold_misses

    def test_zero_extra_misses_sharded_then_monolithic(self, tmp_path):
        spec = get_network("fat_tree_k8")
        store = RunRecordStore(tmp_path / "cache.jsonl")
        NetworkPowerModel(PowerModel()).run(
            spec, store=store, shards=5, detail="none"
        )
        cold_misses = store.misses
        NetworkPowerModel(PowerModel()).run(spec, store=store)
        assert store.misses == cold_misses

    def test_store_exports_byte_identical_across_paths(self, tmp_path):
        spec = get_network("isp200_ring")
        store = RunRecordStore(tmp_path / "cache.jsonl")
        mono = NetworkPowerModel(PowerModel()).run(spec, store=store)
        sharded = NetworkPowerModel(PowerModel()).run(
            spec, store=store, shards=9, detail="summary"
        )
        assert exports(sharded) == exports(mono)

    def test_detail_levels(self):
        spec = get_network("dumbbell_switchoff")
        model = NetworkPowerModel(PowerModel())
        full = model.run(spec)
        assert set(full.detail) == {"records", "routing"}
        assert len(full.detail["records"]) == len(spec.topology.nodes)
        summary = model.run(spec, detail="summary")
        assert set(summary.detail) == {"routing"}
        none = model.run(spec, detail="none")
        assert none.detail is None
        assert exports(none) == exports(summary) == exports(full)

    def test_detail_validation(self):
        spec = get_network("single_crossbar8")
        assert "full" in DETAIL_LEVELS
        with pytest.raises(ConfigurationError, match="detail"):
            NetworkPowerModel(PowerModel()).run(spec, detail="everything")

    def test_shards_validation(self):
        spec = get_network("single_crossbar8")
        with pytest.raises(ConfigurationError, match="shards"):
            NetworkPowerModel(PowerModel()).run(spec, shards=0)


# ----------------------------------------------------------------------
# Property-based routing conservation
# ----------------------------------------------------------------------


def random_topology(rng: random.Random):
    """A seeded random topology from a mix of generators, with random
    link capacities."""
    capacity = round(rng.uniform(0.3, 1.0), 3)
    shape = rng.randrange(5)
    if shape == 0:
        return line(rng.randrange(3, 10), access_ports=rng.randrange(1, 3),
                    capacity=capacity)
    if shape == 1:
        return star(rng.randrange(3, 9), capacity=capacity)
    if shape == 2:
        return mesh(rng.randrange(3, 6), capacity=capacity)
    if shape == 3:
        return fat_tree(rng.choice((4, 6)), capacity=capacity)
    return isp(
        rng.randrange(10, 40),
        seed=rng.randrange(10_000),
        capacity=capacity,
        core_capacity=capacity,
    )


def random_feasible_matrix(rng: random.Random, topology) -> TrafficMatrix:
    """Random demands whose *total* stays below the smallest link
    capacity — feasible on any connected topology by construction
    (no link, and no access-port group, can carry more than the total).
    """
    endpoints = edge_nodes(topology)
    min_capacity = min(
        (link.capacity for link in topology.links), default=1.0
    )
    count = rng.randrange(1, min(6, len(endpoints) + 1))
    budget = 0.9 * min_capacity / count
    demands = {}
    for _ in range(count):
        src = rng.choice(endpoints)
        dst = rng.choice(endpoints)
        demands[(src, dst)] = round(budget * rng.uniform(0.2, 1.0), 6)
    return TrafficMatrix(
        tuple(
            Demand(src, dst, cells)
            for (src, dst), cells in sorted(demands.items())
        ),
        name="random",
    )


CONSERVATION_SEEDS = list(range(50))


class TestRoutingConservation:
    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS)
    def test_link_load_equals_demand_times_hops(self, seed):
        rng = random.Random(seed)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        for mode in ("shortest", "ecmp"):
            result = route(topology, matrix, mode=mode)
            expected = sum(
                d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
                for d in matrix.demands
            )
            assert math.isclose(
                result.total_link_load, expected,
                rel_tol=1e-9, abs_tol=1e-9,
            ), f"mode={mode}"

    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS[::5])
    def test_table_forwarding_conserves_flow(self, seed):
        rng = random.Random(seed + 7000)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        for mode in ("shortest", "ecmp"):
            tables = build_tables(topology, mode=mode)
            result = route(topology, matrix, tables=tables)
            assert result.mode == "tables"
            expected = sum(
                d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
                for d in matrix.demands
            )
            assert math.isclose(
                result.total_link_load, expected,
                rel_tol=1e-9, abs_tol=1e-9,
            ), f"mode={mode}"

    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS[::5])
    def test_infeasible_matrices_always_raise(self, seed):
        rng = random.Random(seed + 9000)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        overloaded = matrix.scaled(1e6)
        for mode in ("shortest", "ecmp"):
            with pytest.raises(ConfigurationError):
                route(topology, matrix=overloaded, mode=mode)

    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS[::10])
    def test_sharded_run_preserves_conservation(self, seed):
        """The end-to-end invariant: a sharded record's totals carry
        the same conserved link load the router would compute."""
        rng = random.Random(seed + 4000)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        spec = NetworkSpec(
            name=f"prop{seed}",
            topology=topology,
            matrix=matrix,
            base=SCALE_BASE,
        )
        record = NetworkPowerModel(PowerModel()).run(
            spec, shards=3, detail="none"
        )
        routing = route(topology, matrix)
        assert record.totals["total_link_load"] == routing.total_link_load


# ----------------------------------------------------------------------
# Resilience x streaming aggregation
# ----------------------------------------------------------------------

#: One-shot supervision: no retries, failures become explicit holes.
RECORD_HOLES = RetryPolicy(
    max_attempts=1, backoff_s=0.001, on_failure="record"
)

#: Real retries with negligible backoff.
RETRY_FAST = RetryPolicy(max_attempts=3, backoff_s=0.001)


class TestResilienceStreaming:
    def run_k8(self, **kwargs):
        spec = get_network("fat_tree_k8")
        return NetworkPowerModel(PowerModel()).run(
            spec, **kwargs
        )

    def test_fault_holes_surface_on_sharded_record(self):
        clean = self.run_k8(shards=4, detail="none")
        faulty = self.run_k8(
            shards=4,
            detail="none",
            retry=RECORD_HOLES,
            faults=FaultPlan(faults=(Fault("transient", 0),)),
        )
        assert faulty.failures
        holes = [r for r in faulty.nodes if r["power_w"] is None]
        assert len(holes) == len(faulty.failures)
        assert faulty.totals["power_w"] < clean.totals["power_w"]
        payload = json.loads(faulty.to_json())
        assert payload["failures"]  # holes are exported, never hidden

    def test_fault_units_restart_per_shard_batch(self):
        """FaultPlan unit indices address execution units *within one
        run_batch call*; under sharding every shard re-plans from unit
        0, so a unit-0 fault fires once per shard.  Units are distinct
        scenarios, so each firing fails every router of that shard
        sharing unit 0's content hash — one failure per hole."""
        spec = get_network("fat_tree_k8")
        keys = [
            s.content_hash()
            for _, s in NetworkPowerModel(PowerModel()).scenarios(spec)
        ]
        expected = []  # (unit-0 key, routers sharing it) per shard
        for start, stop in shard_bounds(len(keys), 4):
            shard = keys[start:stop]
            expected.append((shard[0], shard.count(shard[0])))
        assert len(expected) == 4
        record = self.run_k8(
            shards=4,
            detail="none",
            retry=RECORD_HOLES,
            faults=FaultPlan(faults=(Fault("transient", 0),)),
        )
        assert len(record.failures) == sum(n for _, n in expected)
        offset = 0
        for key, count in expected:
            shard_failures = record.failures[offset:offset + count]
            assert {f.key for f in shard_failures} == {key}
            offset += count

    def test_transient_fault_retries_to_byte_identical(self):
        clean = self.run_k8(shards=4, detail="none")
        recovered = self.run_k8(
            shards=4,
            detail="none",
            retry=RETRY_FAST,
            faults=FaultPlan(faults=(Fault("transient", 2),)),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_crash_fault_retries_to_byte_identical(self):
        clean = self.run_k8(shards=2, detail="none")
        recovered = self.run_k8(
            shards=2,
            detail="none",
            retry=RETRY_FAST,
            faults=FaultPlan(faults=(Fault("crash", 1),)),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_hang_fault_times_out_and_recovers(self):
        spec = distinct_line_spec(8)

        def run(**kwargs):
            return NetworkPowerModel(PowerModel()).run(
                spec, **kwargs
            )

        clean = run(shards=2, detail="none")
        recovered = run(
            shards=2,
            detail="none",
            retry=RETRY_FAST.replace(timeout_s=0.25),
            faults=FaultPlan(
                faults=(Fault("hang", 0, attempts=(1,), hang_s=1.5),)
            ),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_resume_from_journal_is_byte_identical(self, tmp_path):
        spec = get_network("fat_tree_k8")
        key = spec.content_hash()
        path = tmp_path / "journal.jsonl"

        def run(journal, **kwargs):
            return NetworkPowerModel(PowerModel()).run(
                spec,
                shards=4,
                detail="none",
                journal=journal,
                **kwargs,
            )

        clean = NetworkPowerModel(PowerModel()).run(
            spec, shards=4, detail="none"
        )
        faulty = run(
            CampaignJournal(path, key),
            retry=RECORD_HOLES,
            faults=FaultPlan(
                faults=(Fault("transient", 0), Fault("transient", 3))
            ),
        )
        assert faulty.failures
        assert exports(faulty) != exports(clean)
        # --resume: replay the journal, no faults — the holes heal and
        # the exports converge to the fault-free bytes.
        report = BatchReport()
        resumed = run(
            CampaignJournal(path, key, replay=True), report=report
        )
        assert not resumed.failures
        assert report.replayed > 0
        assert exports(resumed) == exports(clean)

    def test_journal_replay_counts_as_replayed_not_rerun(self, tmp_path):
        spec = distinct_line_spec(10)
        key = spec.content_hash()
        path = tmp_path / "journal.jsonl"
        NetworkPowerModel(PowerModel()).run(
            spec,
            shards=3,
            detail="none",
            journal=CampaignJournal(path, key),
        )
        report = BatchReport()
        NetworkPowerModel(PowerModel()).run(
            spec,
            shards=3,
            detail="none",
            journal=CampaignJournal(path, key, replay=True),
            report=report,
        )
        assert report.replayed == len(spec.topology.nodes)


# ----------------------------------------------------------------------
# Bounded memory (the NetworkRecord detail-retention blind spot)
# ----------------------------------------------------------------------


class TestBoundedMemory:
    #: tracemalloc peak bound for a 1000-router streamed run.  Measured
    #: ~3.5 MB; the bound leaves ~10x headroom while still catching any
    #: O(n^2) aggregation regression or detail-retention leak (keeping
    #: every RunRecord of a simulate-backend fabric would blow past it).
    PEAK_BOUND_BYTES = 48 * 1024 * 1024

    def isp1000(self):
        return ring_spec(
            isp(1000, seed=11), demand=0.005, name="isp1000_ring"
        )

    def test_streamed_1000_router_run_stays_bounded(self):
        spec = self.isp1000()
        model = NetworkPowerModel(PowerModel())
        tracemalloc.start()
        try:
            record = model.run(spec, shards=32, detail="none")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.totals["nodes"] == 1000
        assert record.detail is None
        assert peak < self.PEAK_BOUND_BYTES, f"peak {peak} bytes"

    def test_detail_none_retains_no_run_records(self):
        spec = self.isp1000()
        model = NetworkPowerModel(PowerModel())
        streamed = model.run(spec, shards=32, detail="none")
        retained = model.run(spec, shards=32)  # default detail="full"
        assert streamed.detail is None
        assert len(retained.detail["records"]) == 1000
        assert exports(streamed) == exports(retained)


# ----------------------------------------------------------------------
# The isp generator
# ----------------------------------------------------------------------


class TestIspGenerator:
    def test_deterministic_in_seed(self):
        assert isp(60, seed=3).content_hash() == isp(60, seed=3).content_hash()
        assert isp(60, seed=3).content_hash() != isp(60, seed=4).content_hash()

    def test_connected(self):
        topology = isp(150, seed=5)
        adj = topology.out_neighbors()
        start = topology.nodes[0].name
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        assert len(seen) == len(topology.nodes)

    def test_two_tiers_and_access_ports(self):
        topology = isp(100, seed=9, core_fraction=0.1)
        cores = [n for n in topology.node_names if n.startswith("core")]
        edges = [n for n in topology.node_names if n.startswith("edge")]
        assert len(cores) == 10 and len(edges) == 90
        port_map = topology.port_map()
        assert all(not port_map[c].access_ports for c in cores)
        assert set(edge_nodes(topology)) == set(edges)

    def test_cable_count_tracks_degree_target(self):
        topology = isp(400, seed=2, degree=3.0)
        cables = len(topology.links) // 2
        assert cables >= 399  # at least the spanning tree
        assert cables <= 400 * 3.0  # bounded by the attempt budget

    def test_registered_generator(self):
        assert GENERATORS["isp"] is isp

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            isp(1)
        with pytest.raises(ConfigurationError, match="degree"):
            isp(10, degree=1.0)
        with pytest.raises(ConfigurationError, match="core_fraction"):
            isp(10, core_fraction=1.0)
        with pytest.raises(ConfigurationError, match="access"):
            isp(10, access_ports=0)


# ----------------------------------------------------------------------
# fat_tree at arbitrary even k
# ----------------------------------------------------------------------


class TestFatTreeScale:
    @pytest.mark.parametrize(
        "k,switches", [(4, 20), (8, 80), (16, 320)]
    )
    def test_switch_count(self, k, switches):
        topology = fat_tree(k)
        assert len(topology.nodes) == switches
        assert all(node.ports == k for node in topology.nodes)
        # k/2 access ports per edge switch, none elsewhere.
        port_map = topology.port_map()
        for name in topology.node_names:
            expected = k // 2 if name.startswith("edge") else 0
            assert len(port_map[name].access_ports) == expected

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            fat_tree(5)

    def test_lookup_index_matches_linear_scan(self):
        topology = fat_tree(8)
        assert topology.node("core3") is topology.nodes[3]
        link = topology.link("agg0_0", "edge0_1")
        assert (link.src, link.dst) == ("agg0_0", "edge0_1")
        with pytest.raises(ConfigurationError, match="unknown node"):
            topology.node("agg9_9")
        with pytest.raises(ConfigurationError, match="no link"):
            topology.link("core0", "core1")

    def test_index_caches_stay_out_of_serialisation(self):
        topology = fat_tree(4)
        before = topology.content_hash()
        topology.node("core0")
        topology.link("agg0_0", "edge0_0")
        topology.port_map()
        assert topology.content_hash() == before
        assert "_node_index_cache" not in topology.to_dict()
        again = type(topology).from_json(topology.to_json())
        assert again.content_hash() == before


# ----------------------------------------------------------------------
# Scale presets
# ----------------------------------------------------------------------


class TestScalePresets:
    def test_registered(self):
        for name in ("fat_tree_k8", "fat_tree_k16", "isp200_ring"):
            assert name in network_names()

    @pytest.mark.parametrize(
        "name,routers", [("fat_tree_k8", 80), ("fat_tree_k16", 320),
                         ("isp200_ring", 200)]
    )
    def test_preset_shape_and_feasibility(self, name, routers):
        spec = get_network(name)
        assert len(spec.topology.nodes) == routers
        assert spec.base_dict["backend"] == "estimate"
        routing = NetworkPowerModel(PowerModel()).route(spec)
        assert max(
            row["utilization"] for row in routing.link_rows()
        ) <= 1.0

    def test_k16_completes_sharded(self):
        spec = get_network("fat_tree_k16")
        record = NetworkPowerModel(PowerModel()).run(
            spec, shards=16, detail="none"
        )
        assert record.totals["nodes"] == 320
        assert not record.failures
        assert record.totals["power_w"] > 0.0


# ----------------------------------------------------------------------
# TraceDemand
# ----------------------------------------------------------------------


def trace_base():
    return TrafficMatrix.uniform(("a", "b"), 0.4)


class TestTraceDemand:
    def test_samples_sorted_and_deduplicated(self):
        trace = TraceDemand(
            "t", trace_base(), ((3600.0, 1.0), (0.0, 0.5))
        )
        assert [s.t_seconds for s in trace.samples] == [0.0, 3600.0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            TraceDemand("t", trace_base(), ((0.0, 0.5), (0.0, 0.7)))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="name"):
            TraceDemand("", trace_base(), ((0.0, 1.0),))
        with pytest.raises(ConfigurationError, match="sample"):
            TraceDemand("t", trace_base(), ())
        with pytest.raises(ConfigurationError, match="scale"):
            TraceDemand("t", trace_base(), ((0.0, -1.0),))
        with pytest.raises(ConfigurationError, match="time"):
            TraceDemand("t", trace_base(), ((-5.0, 1.0),))

    def test_step_semantics(self):
        trace = TraceDemand(
            "t", trace_base(), ((0.0, 0.5), (100.0, 0.8), (200.0, 0.2))
        )
        assert trace.scale_at(0.0) == 0.5
        assert trace.scale_at(99.0) == 0.5
        assert trace.scale_at(100.0) == 0.8
        assert trace.scale_at(1e9) == 0.2
        assert trace.matrix_at(150.0).total() == pytest.approx(
            0.8 * trace_base().total()
        )

    def test_series_resamples_means_and_carries_forward(self):
        trace = TraceDemand(
            "t",
            trace_base(),
            ((0.0, 0.4), (1800.0, 0.8), (3700.0, 1.0), (14500.0, 0.2)),
        )
        series = trace.series(epoch_seconds=3600.0)
        assert isinstance(series, DemandSeries)
        # epoch 0 averages its two samples; epochs 2-3 are gaps that
        # hold the last level; epoch 4 picks up the late sample.
        assert series.scales == pytest.approx((0.6, 1.0, 1.0, 1.0, 0.2))
        assert series.epoch_seconds == 3600.0
        assert series.matrix(1).to_json() == (
            trace_base().scaled(1.0).to_json()
        )

    def test_series_identity_anchor(self):
        """A single scale-1.0 sample resamples to the flat identity
        series — the same matrix, bit for bit."""
        trace = TraceDemand("t", trace_base(), ((0.0, 1.0),))
        series = trace.series(epochs=1)
        assert series.matrix(0).to_json() == trace_base().to_json()

    def test_json_round_trip_and_hash(self):
        trace = TraceDemand(
            "t", trace_base(), ((0.0, 0.5), (60.0, 0.75))
        )
        again = TraceDemand.from_json(trace.to_json())
        assert again == trace
        assert again.content_hash() == trace.content_hash()
        with pytest.raises(ConfigurationError, match="unknown"):
            TraceDemand.from_dict(
                {"name": "t", "base": trace_base().to_dict(),
                 "samples": [], "surprise": 1}
            )

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "day.json"
        path.write_text(json.dumps(
            {"name": "weekday", "samples": [[0, 0.5], [3600, 1.0]]}
        ))
        trace = TraceDemand.from_file(path, trace_base())
        assert trace.name == "weekday"
        assert trace.samples[1].scale == 1.0

    def test_from_csv_file(self, tmp_path):
        path = tmp_path / "day.csv"
        path.write_text(
            "t_seconds,scale\n"
            "# measured by SNMP export\n"
            "0,0.5\n"
            "\n"
            "3600,1.0  # evening peak\n"
        )
        trace = TraceDemand.from_file(path, trace_base())
        assert trace.name == "day"
        assert [s.scale for s in trace.samples] == [0.5, 1.0]

    def test_bad_files_raise(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(ConfigurationError, match="cannot read"):
            TraceDemand.from_file(missing, trace_base())
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0.5\nnot,numbers\n")
        with pytest.raises(ConfigurationError, match="non-numeric"):
            TraceDemand.from_file(bad, trace_base())
        badjson = tmp_path / "bad.json"
        badjson.write_text("{}")
        with pytest.raises(ConfigurationError, match="samples"):
            TraceDemand.from_file(badjson, trace_base())

    def test_trace_feeds_control_series(self):
        """The resampled series drives DemandSeries consumers exactly
        like a synthetic preset (same epochs, same scaled matrices)."""
        trace = TraceDemand(
            "t", trace_base(), ((0.0, 0.5), (3600.0, 1.0))
        )
        series = trace.series(epoch_seconds=3600.0)
        assert series.epochs == 2
        assert series.duration_s == 7200.0
        assert series.matrix(0).total() == pytest.approx(0.4)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestScaleCli:
    def test_network_run_accepts_shards_and_detail(self, capsys):
        from repro.cli import main

        assert main([
            "network", "run", "dumbbell_switchoff",
            "--shards", "3", "--detail", "none", "--format", "json",
        ]) == 0
        sharded = capsys.readouterr().out
        assert main([
            "network", "run", "dumbbell_switchoff", "--format", "json",
        ]) == 0
        mono = capsys.readouterr().out
        assert sharded == mono

    def test_dry_run_reports_router_count(self, capsys):
        from repro.cli import main

        assert main(["network", "run", "fat_tree_k8", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "80 routers" in out

    def test_campaign_params_accept_shards_and_detail(self):
        from repro.campaigns import Campaign

        campaign = Campaign(
            name="scaled",
            kind="network",
            params=(
                ("network", "dumbbell_switchoff"),
                ("shards", 2),
                ("detail", "none"),
            ),
        )
        assert campaign.params_dict["shards"] == 2
        with pytest.raises(ConfigurationError, match="shards"):
            Campaign(
                name="bad",
                kind="network",
                params=(("network", "dumbbell_switchoff"), ("shards", 0)),
            )
        with pytest.raises(ConfigurationError, match="detail"):
            Campaign(
                name="bad",
                kind="network",
                params=(
                    ("network", "dumbbell_switchoff"),
                    ("detail", "partial"),
                ),
            )
