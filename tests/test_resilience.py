"""Fault-injected execution: retries, pool recovery, checkpoint/resume.

The headline contract under test: a batch or campaign that survives
injected worker crashes, hangs, transient exceptions, and corrupted
store lines produces results (and exports) byte-identical to a
fault-free run.
"""

import dataclasses
import json

import pytest

from repro.api import (
    DerivedRecordStore,
    PowerModel,
    RunRecordStore,
    Scenario,
    run_batch,
)
from repro.campaigns import Campaign, run_campaign
from repro.errors import ConfigurationError
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    FailureRecord,
    Fault,
    FaultPlan,
    RetryPolicy,
    TransientFault,
    apply_fault,
    corrupt_line,
)

SIM_KWARGS = dict(arrival_slots=40, warmup_slots=8, seed=99)

#: Fast test policy: real retries, negligible backoff.
FAST = RetryPolicy(max_attempts=3, backoff_s=0.001)


def grid():
    return Scenario.grid(
        architectures=("crossbar", "banyan"),
        ports=(4,),
        loads=(0.2, 0.5),
        **SIM_KWARGS,
    )


def details(records):
    return [r.detail for r in records]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="on_failure"):
            RetryPolicy(on_failure="shrug")
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter_fraction=1.5)

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_s=0.1, jitter_fraction=0.1)
        a = policy.delay_s(1, "unit-a")
        assert a == policy.delay_s(1, "unit-a")
        assert a != policy.delay_s(1, "unit-b")
        assert 0.09 <= a <= 0.11
        # Exponential growth between attempts.
        assert policy.delay_s(2, "unit-a") > a

    def test_permanent_errors(self):
        assert RetryPolicy.is_permanent(ConfigurationError("bad"))
        assert not RetryPolicy.is_permanent(TransientFault("flaky"))

    def test_replace(self):
        assert FAST.replace(on_failure="record").on_failure == "record"
        assert FAST.on_failure == "raise"


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                Fault("transient", 2),
                Fault("hang", 3, attempts=(1, 2), hang_s=5.0),
                Fault("crash", 5),
            ),
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_fault_addressing(self):
        plan = FaultPlan(faults=(Fault("transient", 1, attempts=(2,)),))
        assert plan.fault_for(1, 2) is not None
        assert plan.fault_for(1, 1) is None
        assert plan.fault_for(0, 2) is None
        apply_fault(plan, 1, 1)  # no fault scheduled: no-op
        with pytest.raises(TransientFault):
            apply_fault(plan, 1, 2)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultPlan.from_dict({"faults": [], "surprise": 1})
        with pytest.raises(ConfigurationError, match="kind"):
            Fault("meteor", 0)


class TestTransientRetry:
    def test_recovered_batch_is_bit_identical(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("transient", 1),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.retries >= 1
        assert not report.failures

    def test_exhausted_retries_leave_explicit_holes(self):
        scenarios = grid()
        faults = FaultPlan(
            faults=(Fault("transient", 1, attempts=(1, 2, 3)),)
        )
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            report=report,
        )
        assert records[1] is None
        assert all(r is not None for i, r in enumerate(records) if i != 1)
        (failure,) = report.failures
        assert failure.error_type == "TransientFault"
        assert failure.attempts == 3
        assert failure.stage == "reference"  # walked the whole ladder
        assert failure.key == scenarios[1].content_hash()

    def test_on_failure_raise_propagates(self):
        faults = FaultPlan(
            faults=(Fault("transient", 0, attempts=(1, 2, 3)),)
        )
        with pytest.raises(TransientFault):
            run_batch(
                grid(), retry=FAST, faults=faults
            )

    def test_permanent_error_is_not_retried(self):
        session = PowerModel()

        calls = {"n": 0}

        def broken(scenario, engine=None):
            calls["n"] += 1
            raise ConfigurationError("not a flaky worker")

        session.run = broken
        report = BatchReport()
        records = session.run_batch(
            grid(),
            retry=FAST.replace(on_failure="record"),
            report=report,
        )
        assert records == [None] * 4
        assert calls["n"] == 4  # one attempt per unit, no retries
        assert all(f.attempts == 1 for f in report.failures)

    def test_degradation_ladder_reaches_reference(self):
        # Attempt 1 runs the planned (vectorized) engine, attempts 2
        # and 3 the reference engine — results identical at every rung.
        scenarios = [
            Scenario("crossbar", 4, load, **SIM_KWARGS)
            for load in (0.2, 0.4, 0.6)
        ]
        clean = run_batch(scenarios)
        session = PowerModel()
        engines = []
        original = session.run

        def spying(scenario, engine=None):
            engines.append((scenario, engine))
            return original(scenario, engine=engine)

        session.run = spying
        faults = FaultPlan(faults=(Fault("transient", 0, attempts=(1, 2)),))
        report = BatchReport()
        faulty = session.run_batch(
            scenarios,
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        # Unit 0 failed before running on attempts 1-2; its only run is
        # attempt 3, on the reference engine.  The others ran planned.
        assert engines == [
            (scenarios[0], "reference"),
            (scenarios[1], None),
            (scenarios[2], None),
        ]
        assert report.retries == 2
        assert report.degradations == 1


class TestTimeout:
    def test_hung_unit_is_rescued_bit_identically(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(
            faults=(Fault("hang", 0, attempts=(1,), hang_s=5.0),)
        )
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST.replace(timeout_s=0.5),
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.timeouts >= 1
        assert report.retries >= 1

    def test_timeout_exhaustion_records_hole(self):
        scenarios = grid()
        faults = FaultPlan(
            faults=(Fault("hang", 2, attempts=(1, 2), hang_s=5.0),)
        )
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=RetryPolicy(
                max_attempts=2,
                backoff_s=0.001,
                timeout_s=0.4,
                on_failure="record",
            ),
            faults=faults,
            report=report,
        )
        assert records[2] is None
        (failure,) = report.failures
        assert failure.error_type == "UnitTimeout"


class TestProcessCrash:
    def test_broken_pool_respawns_bit_identically(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("crash", 1),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            workers=2,
            executor="process",
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.pool_respawns >= 1
        assert not report.failures

    def test_crash_on_thread_pool_is_retryable(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("crash", 0),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            workers=2,
            executor="thread",
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.retries >= 1


class TestKeyboardInterrupt:
    def test_serial_interrupt_propagates(self):
        session = PowerModel()

        def interrupted(scenario, engine=None):
            raise KeyboardInterrupt

        session.run = interrupted
        with pytest.raises(KeyboardInterrupt):
            session.run_batch(grid(), retry=FAST)

    def test_pooled_interrupt_propagates(self):
        session = PowerModel()

        def interrupted(scenario, engine=None):
            raise KeyboardInterrupt

        session.run = interrupted
        with pytest.raises(KeyboardInterrupt):
            session.run_batch(
                grid(), workers=2, retry=FAST
            )


class TestStoreHardening:
    def test_changed_record_is_persisted_not_dropped(self, tmp_path):
        # Regression: put() used to skip the disk write whenever the
        # key was already in memory, silently dropping updates.
        path = tmp_path / "cache.jsonl"
        scenario = Scenario("banyan", 4, 0.4, **SIM_KWARGS)
        record = PowerModel().run(scenario)
        store = RunRecordStore(path)
        store.put(record)
        changed = dataclasses.replace(record, elapsed_s=123.0)
        store.put(changed)
        assert len(path.read_text().splitlines()) == 2  # superseding line
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(scenario).elapsed_s == 123.0

    def test_identical_put_is_a_noop_on_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        store.put(record)
        reloaded = RunRecordStore(path)
        reloaded.put(record)  # same payload loaded from disk: no-op too
        assert len(path.read_text().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_line_is_quarantined(self, tmp_path, mode):
        path = tmp_path / "cache.jsonl"
        scenarios = grid()
        run_batch(scenarios, store=RunRecordStore(path))
        corrupt_line(path, line_index=-1, mode=mode, seed=3)
        store = RunRecordStore(path)
        stats = store.stats()
        assert stats["entries"] == len(scenarios) - 1
        assert stats["skipped_lines"] == 1
        assert stats["quarantined"] == 1
        quarantine = path.with_name(path.name + ".quarantine")
        assert quarantine.exists()
        # The damaged point degrades to a miss and is re-measured.
        records = run_batch(scenarios, store=store)
        assert all(r is not None for r in records)
        assert RunRecordStore(path).stats()["entries"] == len(scenarios)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        entry = json.loads(path.read_text())
        entry["record"]["elapsed_s"] = 999.0  # bit-rot, sha now stale
        path.write_text(json.dumps(entry) + "\n")
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 0
        assert reloaded.stats()["quarantined"] == 1

    def test_compact_squashes_history(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        store.put(dataclasses.replace(record, elapsed_s=1.0))
        store.put(dataclasses.replace(record, elapsed_s=2.0))
        assert len(path.read_text().splitlines()) == 3
        assert store.compact() == 1
        assert len(path.read_text().splitlines()) == 1
        reloaded = RunRecordStore(path)
        assert reloaded.get(record.scenario).elapsed_s == 2.0

    def test_figure_store_hardening(self, tmp_path):
        path = tmp_path / "figs.jsonl"
        store = DerivedRecordStore(path)
        store.put("k1", "comparison", {"a": 1})
        store.put("k1", "comparison", {"a": 1})  # identical: no-op
        store.put("k1", "comparison", {"a": 2})  # superseding line
        store.put("k2", "comparison", {"b": 3})
        assert len(path.read_text().splitlines()) == 3
        corrupt_line(path, line_index=-1, mode="truncate")
        reloaded = DerivedRecordStore(path)
        assert reloaded.get("k1", "comparison") == {"a": 2}
        assert reloaded.get("k2", "comparison") is None
        assert reloaded.stats()["quarantined"] == 1
        assert reloaded.compact() == 1


class TestJournal:
    def test_round_trip_and_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        scenarios = grid()
        journal = CampaignJournal(path, "camp-1")
        clean = run_batch(scenarios, journal=journal)
        assert journal.stats() == {
            "done": len(scenarios), "failed": 0, "skipped_lines": 0,
        }
        resume = CampaignJournal(path, "camp-1", replay=True)
        report = BatchReport()
        replayed = run_batch(
            scenarios,
            journal=resume,
            report=report,
        )
        assert report.replayed == len(scenarios)
        assert details(replayed) == details(clean)

    def test_resume_reruns_only_failures(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(
            faults=(Fault("transient", 2, attempts=(1, 2, 3)),)
        )
        first = CampaignJournal(path, "camp-1")
        run_batch(
            scenarios,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            journal=first,
        )
        assert first.stats()["done"] == len(scenarios) - 1
        assert first.stats()["failed"] == 1
        resume = CampaignJournal(path, "camp-1", replay=True)
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=FAST,
            journal=resume,
            report=report,
        )
        assert details(records) == details(clean)
        assert report.replayed == len(scenarios) - 1
        assert resume.stats()["done"] == len(scenarios)
        assert resume.stats()["failed"] == 0

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path, "camp-1")
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        journal.record_done(record)
        with path.open("a") as fh:
            fh.write('{"campaign": "camp-1", "key": "abc", "sta')  # torn
        reloaded = CampaignJournal(path, "camp-1", replay=True)
        assert reloaded.stats()["done"] == 1
        assert reloaded.stats()["skipped_lines"] == 1

    def test_campaign_key_isolation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        CampaignJournal(path, "camp-a").record_done(record)
        other = CampaignJournal(path, "camp-b", replay=True)
        assert len(other) == 0
        assert not other.completed(record.scenario.content_hash())

    def test_failure_record_round_trip(self):
        failure = FailureRecord(
            label="x", key="k", error_type="TransientFault",
            message="boom", attempts=3, stage="reference",
        )
        assert FailureRecord.from_dict(failure.to_dict()) == failure
        with pytest.raises(ConfigurationError, match="unknown"):
            FailureRecord.from_dict({**failure.to_dict(), "extra": 1})


CAMPAIGN = Campaign(
    name="resilience_smoke",
    architectures=("crossbar", "banyan"),
    ports=(4,),
    loads=(0.2, 0.5),
    base=(("arrival_slots", 40), ("warmup_slots", 8), ("seed", 99)),
)


class TestCampaignExports:
    def test_recovered_campaign_exports_byte_identical(self):
        clean = run_campaign(CAMPAIGN)
        faults = FaultPlan(
            faults=(
                Fault("transient", 0),
                Fault("crash", 1),
                Fault("hang", 2, hang_s=5.0),
            )
        )
        report = BatchReport()
        faulty = run_campaign(
            CAMPAIGN,
            retry=FAST.replace(timeout_s=2.0),
            faults=faults,
            report=report,
        )
        assert faulty.to_csv() == clean.to_csv()
        assert faulty.to_json() == clean.to_json()
        assert not faulty.failures
        assert report.retries >= 3

    def test_partial_campaign_round_trips_with_holes(self, tmp_path):
        from repro.campaigns.comparison import ComparisonRecord

        faults = FaultPlan(
            faults=(Fault("transient", 3, attempts=(1, 2, 3)),)
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        record = run_campaign(
            CAMPAIGN,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            figures=figures,
        )
        assert len(record.failures) == 1
        assert len(record.points) == CAMPAIGN.size() - 1
        again = ComparisonRecord.from_dict(
            json.loads(record.to_json())
        )
        assert again.failures == record.failures
        # A record carrying holes must never be served from the
        # figure cache to a later (possibly clean) run.
        assert len(figures) == 0

    def test_clean_export_has_no_failures_field(self):
        record = run_campaign(CAMPAIGN)
        assert "failures" not in json.loads(record.to_json())


class TestBatchReport:
    def test_merge_and_summary(self):
        a = BatchReport(retries=1, timeouts=2)
        b = BatchReport(
            degradations=3,
            replayed=4,
            failures=[
                FailureRecord(
                    label="x", key="k", error_type="E",
                    message="m", attempts=1,
                )
            ],
        )
        a.merge(b)
        assert a.retries == 1 and a.degradations == 3
        assert a.timeouts == 2 and a.replayed == 4
        assert len(a.failures) == 1
        assert a.eventful
        assert "1 retries" in a.summary()
        assert not BatchReport().eventful
