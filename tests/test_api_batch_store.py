"""Process-pool batches, the on-disk result cache, and trace scenarios."""

import json

import pytest

from repro.api import PowerModel, RunRecord, RunRecordStore, Scenario, run_batch
from repro.errors import ConfigurationError

SIM_KWARGS = dict(arrival_slots=60, warmup_slots=10, seed=77)


def small_grid():
    return Scenario.grid(
        architectures=("crossbar", "banyan"),
        ports=(4,),
        loads=(0.2, 0.5),
        **SIM_KWARGS,
    )


class TestProcessExecutor:
    def test_process_pool_equals_serial(self):
        scenarios = small_grid()
        serial = PowerModel().run_batch(scenarios, workers=1)
        procs = PowerModel().run_batch(
            scenarios, workers=2, executor="process"
        )
        assert [r.detail for r in serial] == [r.detail for r in procs]
        assert [r.name for r in serial] == [r.name for r in procs]

    def test_process_pool_mixed_backends(self):
        scenarios = [
            Scenario("crossbar", 4, 0.3, backend="estimate", name="est"),
            Scenario("banyan", 4, 0.3, backend="simulate", name="sim",
                     **SIM_KWARGS),
        ]
        records = run_batch(scenarios, workers=2, executor="process")
        assert [r.backend for r in records] == ["estimate", "simulate"]

    def test_bad_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            PowerModel().run_batch(
                [Scenario("crossbar", 4, 0.2)], workers=2, executor="fiber"
            )

    def test_thread_default_still_works(self):
        scenarios = small_grid()
        a = PowerModel().run_batch(scenarios, workers=2, executor="thread")
        b = PowerModel().run_batch(scenarios, workers=1)
        assert [r.detail for r in a] == [r.detail for r in b]


class TestContentHash:
    def test_hash_stable_and_field_sensitive(self):
        a = Scenario("banyan", 8, 0.3, **SIM_KWARGS)
        b = Scenario("banyan", 8, 0.3, **SIM_KWARGS)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != a.replace(load=0.4).content_hash()
        assert a.content_hash() != a.replace(seed=78).content_hash()
        assert a.content_hash() != a.replace(engine="reference").content_hash()

    def test_hash_survives_json_round_trip(self):
        a = Scenario("batcher_banyan", 8, 0.3, traffic="hotspot",
                     traffic_params={"hotspot_fraction": 0.5})
        assert Scenario.from_json(a.to_json()).content_hash() == a.content_hash()


class TestRunRecordStore:
    def test_cache_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        scenario = Scenario("banyan", 4, 0.4, **SIM_KWARGS)
        record = PowerModel().run(scenario)
        store = RunRecordStore(path)
        store.put(record)
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 1
        cached = reloaded.get(scenario)
        assert cached is not None
        assert cached.detail == record.detail
        assert cached.scenario == scenario
        assert cached.total_power_w == record.total_power_w

    def test_estimate_records_cache_too(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        scenario = Scenario("crossbar", 8, 0.3, backend="estimate")
        record = PowerModel().run(scenario)
        store = RunRecordStore(path)
        store.put(record)
        cached = RunRecordStore(path).get(scenario)
        assert cached.detail == record.detail

    def test_batch_skips_cached_points(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        scenarios = small_grid()
        store = RunRecordStore(path)
        session = PowerModel()
        runs = {"n": 0}
        original = session.run

        def counting(s, engine=None):
            runs["n"] += 1
            return original(s, engine=engine)

        session.run = counting
        first = session.run_batch(scenarios, store=store)
        assert runs["n"] == len(scenarios)
        # A second campaign over the same points runs nothing.
        store2 = RunRecordStore(path)
        second = session.run_batch(scenarios, store=store2)
        assert runs["n"] == len(scenarios)
        assert store2.hits == len(scenarios)
        assert [r.detail for r in first] == [r.detail for r in second]
        # A superset campaign runs only the new point.
        extra = scenarios + [
            Scenario("crossbar", 4, 0.9, name="new", **SIM_KWARGS)
        ]
        third = session.run_batch(extra, store=RunRecordStore(path))
        assert runs["n"] == len(scenarios) + 1
        assert [r.name for r in third][-1] == "new"

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("crossbar", 4, 0.2, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        with path.open("a") as fh:
            fh.write('{"key": "truncated...\n')
            fh.write("not json at all\n")
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 2

    def test_store_with_parallel_workers(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        scenarios = small_grid()
        records = PowerModel().run_batch(
            scenarios, workers=2, executor="process",
            store=RunRecordStore(path),
        )
        assert len(RunRecordStore(path)) == len(scenarios)
        cached = PowerModel().run_batch(scenarios, store=RunRecordStore(path))
        assert [r.detail for r in records] == [r.detail for r in cached]


class TestTraceScenario:
    ENTRIES = [[0, 1, 2, 480], [1, 0, 3, 960], [5, 2, 0, 480]]

    def scenario(self):
        return Scenario(
            "crossbar",
            4,
            0.3,
            traffic="trace",
            traffic_params={"entries": self.ENTRIES},
            arrival_slots=30,
            warmup_slots=0,
            seed=5,
        )

    def test_json_round_trip(self):
        scenario = self.scenario()
        round_tripped = Scenario.from_json(scenario.to_json())
        assert round_tripped == scenario
        data = json.loads(scenario.to_json())
        assert data["traffic"] == "trace"
        assert data["traffic_params"]["entries"] == self.ENTRIES

    def test_runs_and_replays_exactly(self):
        record = PowerModel().simulate(self.scenario())
        # 1 + 2 + 1 cells (960 bits segments into two 480-bit cells).
        assert record.detail.delivered_cells == 4
        assert record.detail.packets_completed == 3

    def test_estimate_backend_refuses_trace(self):
        with pytest.raises(ConfigurationError, match="simulate-only"):
            PowerModel().estimate(
                self.scenario().replace(backend="estimate")
            )

    def test_entries_required(self):
        with pytest.raises(ConfigurationError, match="entries"):
            Scenario(
                "crossbar", 4, 0.3, traffic="trace"
            ).build_traffic()

    def test_bad_entry_rows(self):
        with pytest.raises(ConfigurationError, match="trace entry"):
            Scenario(
                "crossbar",
                4,
                0.3,
                traffic="trace",
                traffic_params={"entries": [["x", 0, 1, 480]]},
            ).build_traffic()
