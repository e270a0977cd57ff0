"""In-batch dedup: each distinct scenario of a batch runs once.

``PowerModel.run_batch`` groups the scenarios it has to execute by
content hash, simulates each distinct one once and fans the record out
to every duplicate slot.  Under test:

* duplicates share one record, in input order, on every executor;
* the store and journal see one write per distinct scenario, and a
  journal resume fills every duplicate slot byte-identically;
* a failed scenario leaves every duplicate slot ``None`` with one
  failure per slot;
* a property test over random batches drawn with replacement: order,
  values equal to a solo ``session.run`` and exactly one execution per
  distinct hash, serially and on a thread pool, with and without a
  store.
"""

import functools
import json
import tempfile
import threading
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PowerModel, RunRecordStore, Scenario
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    Fault,
    FaultPlan,
    RetryPolicy,
)

SIM_KWARGS = dict(arrival_slots=12, warmup_slots=2, seed=41)

#: Cheap scenarios the property test draws from: an estimate plus
#: short-window FIFO and VOQ simulations on crossbar and banyan.
POOL = (
    Scenario("crossbar", 4, 0.3, backend="estimate"),
    Scenario("crossbar", 4, 0.3, **SIM_KWARGS),
    Scenario("banyan", 4, 0.5, **SIM_KWARGS),
    Scenario("crossbar", 4, 0.6, queueing="voq", islip_iterations=2,
             **SIM_KWARGS),
    Scenario("crossbar", 4, 0.4, queueing="voq", islip_iterations=2,
             **SIM_KWARGS),
    Scenario("banyan", 4, 0.6, queueing="voq", islip_iterations=2,
             **SIM_KWARGS),
    Scenario("crossbar", 4, 0.3, **{**SIM_KWARGS, "seed": 42}),
)

#: One-shot supervision: failures become explicit holes.
RECORD_HOLES = RetryPolicy(
    max_attempts=1, backoff_s=0.001, on_failure="record"
)


class CountingModel(PowerModel):
    """A session that counts every scenario it executes, by hash."""

    def __init__(self) -> None:
        super().__init__()
        self.executed: Counter[str] = Counter()
        self._lock = threading.Lock()

    def run(self, scenario, engine=None):
        with self._lock:
            self.executed[scenario.content_hash()] += 1
        return super().run(scenario, engine=engine)


class CountingStore(RunRecordStore):
    """A store that counts ``put`` calls (on-disk no-ops included)."""

    puts = 0

    def put(self, record):
        self.puts += 1
        super().put(record)


def without_elapsed(record):
    payload = record.to_cache_dict()
    payload.pop("elapsed_s")
    return payload


@functools.lru_cache(maxsize=None)
def solo(index: int) -> dict:
    """``session.run`` of one pool scenario, minus its wall time."""
    return without_elapsed(PowerModel().run(POOL[index]))


def line_count(path: Path) -> int:
    return len(path.read_text().splitlines())


class TestInBatchDedup:
    def test_duplicates_share_one_record(self):
        a, b = POOL[1], POOL[2]
        session = CountingModel()
        records = session.run_batch([a, b, a, a, b])
        assert [r.scenario for r in records] == [a, b, a, a, b]
        assert records[0] is records[2] is records[3]
        assert records[1] is records[4]
        assert session.executed == Counter(
            {a.content_hash(): 1, b.content_hash(): 1}
        )

    def test_store_counters_stay_per_scenario(self, tmp_path):
        store = RunRecordStore(tmp_path / "cache.jsonl")
        PowerModel().run_batch([POOL[1]] * 4 + [POOL[2]], store=store)
        assert (store.hits, store.misses) == (0, 5)
        PowerModel().run_batch([POOL[1]] * 4 + [POOL[2]], store=store)
        assert (store.hits, store.misses) == (5, 5)

    def test_process_pool_dedups(self):
        batch = [POOL[1], POOL[2], POOL[1], POOL[1]]
        serial = PowerModel().run_batch(batch)
        procs = PowerModel().run_batch(batch, workers=2, executor="process")
        assert [without_elapsed(r) for r in procs] == [
            without_elapsed(r) for r in serial
        ]
        assert procs[0] is procs[2] is procs[3]


class TestNoDuplicateWrites:
    def test_one_store_line_and_journal_entry_then_replay(self, tmp_path):
        scenario = POOL[1]
        copies = 6
        store_path = tmp_path / "cache.jsonl"
        journal_path = tmp_path / "journal.jsonl"
        store = CountingStore(store_path)
        cold = PowerModel().run_batch(
            [scenario] * copies,
            store=store,
            journal=CampaignJournal(journal_path, "camp"),
        )
        assert store.puts == 1
        assert line_count(store_path) == 1
        assert line_count(journal_path) == 1
        report = BatchReport()
        session = CountingModel()
        replayed = session.run_batch(
            [scenario] * copies,
            journal=CampaignJournal(journal_path, "camp", replay=True),
            report=report,
        )
        assert not session.executed
        assert report.replayed == copies
        expected = json.dumps(cold[0].to_cache_dict(), sort_keys=True)
        assert [
            json.dumps(r.to_cache_dict(), sort_keys=True) for r in replayed
        ] == [expected] * copies
        assert line_count(journal_path) == 1


class TestFailureFanOut:
    def test_every_duplicate_slot_is_an_explained_hole(self, tmp_path):
        a, b = POOL[1], POOL[2]
        journal_path = tmp_path / "journal.jsonl"
        report = BatchReport()
        records = PowerModel().run_batch(
            [a, b, a, a],
            retry=RECORD_HOLES,
            faults=FaultPlan(faults=(Fault("transient", 0),)),
            journal=CampaignJournal(journal_path, "camp"),
            report=report,
        )
        assert [r is None for r in records] == [True, False, True, True]
        assert [f.key for f in report.failures] == [a.content_hash()] * 3
        # One journal line per distinct outcome: a failed, b done.
        assert line_count(journal_path) == 2

    def test_process_pool_failure_fans_out(self):
        a, b = POOL[0], POOL[2]
        report = BatchReport()
        records = PowerModel().run_batch(
            [b, a, a, b],
            workers=2,
            executor="process",
            retry=RECORD_HOLES,
            faults=FaultPlan(faults=(Fault("transient", 1),)),
            report=report,
        )
        assert [r is None for r in records] == [False, True, True, False]
        assert [f.key for f in report.failures] == [a.content_hash()] * 2


#: One session across examples, so energy models are built once; the
#: session memoises no run results, so each batch still executes.
SHARED_SESSION = CountingModel()


@settings(max_examples=25, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(POOL) - 1),
        min_size=1,
        max_size=8,
    )
)
def test_random_batches_run_each_distinct_hash_once(picks):
    batch = [POOL[i] for i in picks]
    distinct = Counter({POOL[i].content_hash(): 1 for i in set(picks)})
    for workers in (1, 2):
        for with_store in (False, True):
            session = SHARED_SESSION
            session.executed.clear()
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "cache.jsonl"
                store = RunRecordStore(path) if with_store else None
                records = session.run_batch(
                    batch, workers=workers, store=store
                )
                if with_store:
                    assert line_count(path) == len(distinct)
            assert [r.scenario for r in records] == batch
            assert [without_elapsed(r) for r in records] == [
                solo(i) for i in picks
            ]
            assert session.executed == distinct
