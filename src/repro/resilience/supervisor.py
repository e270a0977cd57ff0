"""The supervised execution loop behind ``run_batch``.

Every batch — serial, thread pool, or process pool — now runs its
execution units under a :class:`Supervisor` instead of a bare
``future.result()``:

* **Retries with degradation.**  A failed attempt walks a ladder that
  can only get more conservative: the scenario's planned engine first,
  then the object-based reference engine — both rungs bit-identical,
  so a recovered unit's record is indistinguishable from an
  untroubled one.  Permanent errors (:class:`~repro.errors.ReproError`)
  skip the ladder entirely: bad configuration is not a flaky worker.
* **Pool recovery.**  A worker killed mid-unit (OOM, segfault, the
  fault plan's ``crash``) breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; the supervisor
  respawns the pool and re-submits only unfinished units.  A unit that
  *reproducibly* kills its worker cannot burn the batch: after
  ``max_pool_respawns`` breaks the remaining units degrade to
  in-process execution, where the same kill surfaces as a retryable
  exception.
* **Timeouts.**  With ``timeout_s`` set, a unit past its deadline is a
  failed attempt: process pools are killed and respawned (a hung
  worker holds its slot forever otherwise), thread pools retire the
  current pool for new submissions and abandon the hung future (its
  eventual result is discarded).
* **Checkpointing.**  Completed records land in the
  :class:`~repro.api.store.RunRecordStore` and
  :class:`~repro.resilience.journal.CampaignJournal` *as each unit
  finishes*, so a kill at any instant loses only in-flight units.
* **Ctrl-C.**  ``KeyboardInterrupt`` cancels queued futures and shuts
  every pool down instead of hanging in ``f.result()``.

The supervisor consults the batch's :class:`~repro.resilience.faults.
FaultPlan` (if any) at the top of every attempt — in the parent for
inline/thread units, inside the worker for process units — which is
how the resilience tests and the chaos CI job stage deterministic
disasters.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.resilience.faults import FaultPlan, apply_fault
from repro.resilience.policy import RetryPolicy
from repro.resilience.records import BatchReport, FailureRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.model import PowerModel
    from repro.api.records import RunRecord
    from repro.api.scenario import Scenario
    from repro.api.store import RunRecordStore
    from repro.resilience.journal import CampaignJournal


class UnitTimeout(RuntimeError):
    """A unit exceeded the policy's per-unit wall-clock budget."""


def _worker_run_unit(
    faults: FaultPlan | None,
    unit_id: int,
    attempt: int,
    scenario: "Scenario",
    engine: str | None,
) -> "RunRecord":
    """Top-level process-pool unit runner (pickles cleanly).

    Installs nothing globally: the fault plan rides along as an
    argument and fires (or not) for exactly this (unit, attempt).
    """
    from repro.api.model import default_session

    apply_fault(faults, unit_id, attempt, in_worker=True)
    return default_session().run(scenario, engine=engine)


@dataclass
class _UnitTask:
    """One execution unit (a distinct scenario) moving through the
    retry ladder."""

    unit_id: int
    index: int
    scenario: "Scenario"
    #: Result indices of the scenario's in-batch duplicates.
    copies: Sequence[int] = ()
    attempt: int = 1

    def slots(self) -> list[int]:
        """Every result slot the unit fills: its own plus its
        duplicates'."""
        return [self.index, *self.copies]

    def key(self) -> str:
        """Deterministic jitter/backoff key (the scenario's hash)."""
        return self.scenario.content_hash()

    def stage(self) -> tuple[str | None, str]:
        """Execution mode for the current attempt: ``(engine_override,
        stage_name)``.

        Attempt 1 runs the scenario's planned engine; every retry runs
        the reference engine.  Estimate scenarios ignore the engine
        override (there is nothing to degrade).
        """
        if self.attempt == 1:
            return None, "planned"
        return "reference", "reference"


class Supervisor:
    """Runs planned execution units under a :class:`RetryPolicy`.

    Parameters
    ----------
    session:
        The :class:`~repro.api.PowerModel` whose units are being run
        (in-process attempts execute against it directly; process-pool
        attempts run in each worker's default session).
    policy / workers / executor / faults:
        See :meth:`repro.api.PowerModel.run_batch`.
    report:
        The :class:`BatchReport` tally to accumulate into (a fresh one
        is created when omitted; it is always available as
        :attr:`report` afterwards).
    """

    def __init__(
        self,
        session: "PowerModel",
        policy: RetryPolicy,
        workers: int | None = None,
        executor: str = "thread",
        faults: FaultPlan | None = None,
        report: BatchReport | None = None,
    ) -> None:
        self.session = session
        self.policy = policy
        self.workers = workers
        self.executor = executor
        self.faults = faults
        self.report = report if report is not None else BatchReport()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run_units(
        self,
        units: Sequence[tuple[int, "Scenario"]],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None" = None,
        journal: "CampaignJournal | None" = None,
        copies: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        """Execute every ``(result index, scenario)`` unit, filling
        ``results`` in place.

        ``copies`` maps a unit's result index to the indices of its
        in-batch duplicates: each completed record also fills those
        slots (stored and journaled once), and each terminal failure
        is reported once per slot.

        On ``policy.on_failure == "record"`` permanently failed units
        leave their result slots ``None`` and append
        :class:`FailureRecord` entries to the report (and journal);
        otherwise the final error propagates after pool cleanup.
        """
        copies = copies if copies is not None else {}
        tasks = [
            _UnitTask(i, index, scenario, copies.get(index, ()))
            for i, (index, scenario) in enumerate(units)
        ]
        if not tasks:
            return
        workers = self.workers or 1
        pooled = workers > 1 or self.policy.timeout_s is not None
        if pooled:
            self._run_pooled(tasks, results, store, journal)
        else:
            self._run_serial(tasks, results, store, journal)

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _complete(
        self,
        task: _UnitTask,
        record: "RunRecord",
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        for slot in task.slots():
            results[slot] = record
        if store is not None:
            store.put(record)
        if journal is not None:
            journal.record_done(record, attempts=task.attempt)

    def _fail(
        self,
        task: _UnitTask,
        exc: BaseException,
        journal: "CampaignJournal | None",
    ) -> None:
        """Terminal failure: record holes or re-raise per policy."""
        _, stage = task.stage()
        if self.policy.on_failure != "record":
            raise exc
        failure = FailureRecord.from_exception(
            task.scenario, exc, task.attempt, stage
        )
        self.report.failures.extend([failure] * len(task.slots()))
        if journal is not None:
            journal.record_failure(failure)

    def _advance(self, task: _UnitTask) -> float:
        """Move a retryable task to its next attempt; returns the
        deterministic backoff delay, and tallies retry/degradation."""
        before = task.stage()
        delay = self.policy.delay_s(task.attempt, task.key())
        task.attempt += 1
        self.report.retries += 1
        if task.stage() != before:
            self.report.degradations += 1
        return delay

    def _retryable(self, task: _UnitTask, exc: BaseException) -> bool:
        return (
            not RetryPolicy.is_permanent(exc)
            and task.attempt < self.policy.max_attempts
        )

    def _run_attempt_inline(self, task: _UnitTask) -> "RunRecord":
        engine, _ = task.stage()
        apply_fault(self.faults, task.unit_id, task.attempt, in_worker=False)
        return self.session.run(task.scenario, engine=engine)

    # ------------------------------------------------------------------
    # Serial path (no pool, no timeout enforcement needed)
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        tasks: list[_UnitTask],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        for task in tasks:
            while True:
                try:
                    record = self._run_attempt_inline(task)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if self._retryable(task, exc):
                        time.sleep(self._advance(task))
                        continue
                    self._fail(task, exc, journal)
                    break
                else:
                    self._complete(task, record, results, store, journal)
                    break

    # ------------------------------------------------------------------
    # Pooled path (thread/process executors, timeouts, pool recovery)
    # ------------------------------------------------------------------

    def _new_pool(self, kind: str):
        workers = self.workers or 1
        if kind == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    @staticmethod
    def _kill_pool(pool) -> None:
        """Hard-stop a process pool whose workers may be hung.

        ``shutdown`` alone would wait forever on a hung worker, so the
        worker processes are terminated first (private attribute,
        guarded — worst case the pool leaks until process exit).
        """
        processes = getattr(pool, "_processes", None)
        if processes:
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass

    def _submit(
        self,
        pool,
        kind: str,
        task: _UnitTask,
        futures: dict[Future, _UnitTask],
        deadlines: dict[Future, float],
    ) -> None:
        engine, _ = task.stage()
        if kind == "process":
            future = pool.submit(
                _worker_run_unit,
                self.faults,
                task.unit_id,
                task.attempt,
                task.scenario,
                engine,
            )
        else:
            future = pool.submit(self._run_attempt_inline, task)
        futures[future] = task
        if self.policy.timeout_s is not None:
            deadlines[future] = time.monotonic() + self.policy.timeout_s

    def _run_pooled(
        self,
        tasks: list[_UnitTask],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        kind = self.executor
        workers = self.workers or 1
        pool = self._new_pool(kind)
        retired: list[Any] = []
        futures: dict[Future, _UnitTask] = {}
        deadlines: dict[Future, float] = {}
        #: Tasks awaiting a pool slot.  In-flight submissions are
        #: capped at the pool width so a deadline always measures
        #: execution time, never time spent queued behind a hung unit.
        pending: list[_UnitTask] = list(tasks)
        #: (not-before monotonic time, task) backoff queue.
        retry_queue: list[tuple[float, _UnitTask]] = []
        crash_breaks = 0

        def handle_break() -> None:
            """A worker died (OOM-style): every outstanding future on
            this pool is doomed.  Move unfinished units back to pending
            and respawn; after ``max_pool_respawns`` crash-breaks the
            batch degrades to in-process execution, where a
            reproducible killer surfaces as a retryable exception
            instead of a dead pool."""
            nonlocal pool, kind, crash_breaks
            pending.extend(
                t for t in futures.values() if t is not None
            )
            futures.clear()
            deadlines.clear()
            crash_breaks += 1
            self.report.pool_respawns += 1
            self._kill_pool(pool)
            if (
                kind == "process"
                and crash_breaks > self.policy.max_pool_respawns
            ):
                kind = "thread"
                self.report.degradations += 1
            pool = self._new_pool(kind)

        def charge_timeout(task: _UnitTask) -> None:
            timeout_exc = UnitTimeout(
                f"unit {task.unit_id} exceeded "
                f"{self.policy.timeout_s}s (attempt {task.attempt})"
            )
            if self._retryable(task, timeout_exc):
                delay = self._advance(task)
                retry_queue.append((time.monotonic() + delay, task))
            else:
                self._fail(task, timeout_exc, journal)

        try:
            while futures or retry_queue or pending:
                now = time.monotonic()
                due = [t for nb, t in retry_queue if nb <= now]
                retry_queue = [
                    (nb, t) for nb, t in retry_queue if nb > now
                ]
                pending = due + pending
                while pending and len(futures) < workers:
                    task = pending.pop(0)
                    try:
                        self._submit(pool, kind, task, futures, deadlines)
                    except BrokenProcessPool:
                        # Broke between completions; recover and retry
                        # the submission on the fresh pool.
                        pending.insert(0, task)
                        handle_break()
                if not futures:
                    if retry_queue and not pending:
                        next_release = min(nb for nb, _ in retry_queue)
                        time.sleep(max(0.0, next_release - now))
                    continue
                wait_timeout = None
                events = list(deadlines.values()) + [
                    nb for nb, _ in retry_queue
                ]
                if events:
                    wait_timeout = max(0.0, min(events) - now)
                done, _ = wait(
                    set(futures),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                pool_broke = False
                for future in done:
                    task = futures.pop(future, None)
                    deadlines.pop(future, None)
                    if task is None:  # abandoned (timed out earlier)
                        continue
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        pending.insert(0, task)
                        handle_break()
                        pool_broke = True
                        break
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        if self._retryable(task, exc):
                            delay = self._advance(task)
                            retry_queue.append(
                                (time.monotonic() + delay, task)
                            )
                        else:
                            self._fail(task, exc, journal)
                    else:
                        self._complete(
                            task, record, results, store, journal
                        )
                if pool_broke or done:
                    continue
                # wait() timed out: handle units past their deadline.
                now = time.monotonic()
                overdue = [
                    (f, t)
                    for f, t in futures.items()
                    if deadlines.get(f, float("inf")) <= now
                ]
                if not overdue:
                    continue
                self.report.timeouts += len(overdue)
                if kind == "process":
                    # Hung workers hold their slots until killed: take
                    # the pool down, charge the overdue units a failed
                    # attempt, re-queue the innocent in-flight ones
                    # unchanged.
                    innocent = [
                        t
                        for f, t in futures.items()
                        if (f, t) not in overdue
                    ]
                    futures.clear()
                    deadlines.clear()
                    self.report.pool_respawns += 1
                    self._kill_pool(pool)
                    pool = self._new_pool(kind)
                    pending[:0] = innocent
                    for _, task in overdue:
                        charge_timeout(task)
                else:
                    # Thread workers cannot be killed: abandon the hung
                    # futures entirely (their eventual results are
                    # discarded; the retired pool keeps the thread
                    # alive) and retire the pool for new submissions so
                    # the stuck threads cannot starve retries.
                    for future, task in overdue:
                        futures.pop(future, None)
                        deadlines.pop(future, None)
                        charge_timeout(task)
                    retired.append(pool)
                    pool = self._new_pool(kind)
        except BaseException:
            # Ctrl-C (or a policy-raised failure): cancel everything
            # still queued and shut the pools down instead of hanging.
            for future in list(futures):
                future.cancel()
            raise
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            for old in retired:
                try:
                    old.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover
                    pass
