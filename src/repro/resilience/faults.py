"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` is a frozen, JSON round-trippable script of
failures: *which unit*, *which attempt*, *what kind*.  The supervisor
consults it at the start of every unit attempt (in the parent for
inline/thread execution, inside the worker process for pool execution),
so a test or the chaos CI job can stage a worker crash at unit 3, a
hang at unit 5, and a transient exception at unit 7 and assert the
recovered campaign's exports byte-identical to a fault-free run.

Fault kinds
-----------
``crash``
    In a process-pool worker: ``os._exit`` — the hard kill an OOM
    killer delivers, surfacing as ``BrokenProcessPool`` in the parent.
    Inline or on a thread pool (where a real kill would take the whole
    process down): raises :class:`SimulatedCrash`, which the supervisor
    treats as retryable.
``hang``
    Sleeps ``hang_s`` before running the unit normally — long enough to
    trip the policy's per-unit timeout, after which the attempt is
    abandoned/killed and retried.
``transient``
    Raises :class:`TransientFault` — the garden-variety flaky error
    (dropped connection, spurious OS error) retries are for.

Store-line corruption is injected at rest, not in flight:
:func:`corrupt_line` truncates or garbles a chosen line of a JSONL
store file, which the hardened stores must quarantine on load.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

FAULT_KINDS = ("crash", "hang", "transient")


class TransientFault(RuntimeError):
    """An injected flaky error (retryable by definition)."""


class SimulatedCrash(RuntimeError):
    """An injected worker kill, softened to an exception because the
    unit is running in-process (a real ``os._exit`` would take the
    parent down)."""


@dataclass(frozen=True)
class Fault:
    """One scripted failure: a kind, a unit index, the attempts it hits.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    unit:
        The execution-unit index within the batch, in first-occurrence
        order.  Each unit is one of the batch's *distinct* pending
        scenarios (in-batch duplicates share one run), so a fault on a
        unit fails every duplicate slot of its scenario.
    attempts:
        1-based attempt numbers the fault fires on.  ``(1,)`` means a
        one-shot failure that the first retry recovers from; ``(1, 2,
        3)`` exhausts a 3-attempt policy and becomes a permanent
        failure.
    hang_s:
        Sleep length for ``hang`` faults.
    """

    kind: str
    unit: int
    attempts: tuple[int, ...] = (1,)
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.unit < 0:
            raise ConfigurationError("fault unit index must be >= 0")
        attempts = tuple(int(a) for a in self.attempts)
        if not attempts or any(a < 1 for a in attempts):
            raise ConfigurationError(
                "fault attempts must be a non-empty tuple of 1-based "
                "attempt numbers"
            )
        object.__setattr__(self, "attempts", attempts)
        if self.hang_s <= 0.0:
            raise ConfigurationError("hang_s must be > 0")

    def fires(self, unit: int, attempt: int) -> bool:
        return unit == self.unit and attempt in self.attempts

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "unit": self.unit,
            "attempts": list(self.attempts),
        }
        if self.kind == "hang":
            out["hang_s"] = self.hang_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fault":
        known = {"kind", "unit", "attempts", "hang_s"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "attempts" in kwargs:
            kwargs["attempts"] = tuple(kwargs["attempts"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic script of faults for one batch.

    The plan is declarative data — it travels by pickle into process
    workers and by JSON into the CLI (``--fault-plan plan.json``) and
    the chaos CI job.  ``seed`` keys the garbage bytes
    :func:`corrupt_line` writes, so even the corruption is
    reproducible.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        faults = tuple(
            f if isinstance(f, Fault) else Fault.from_dict(f)
            for f in self.faults
        )
        object.__setattr__(self, "faults", faults)

    def fault_for(self, unit: int, attempt: int) -> Fault | None:
        """The first fault scripted for (unit, attempt), if any."""
        for fault in self.faults:
            if fault.fires(unit, attempt):
                return fault
        return None

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        known = {"seed", "faults"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan fields: {sorted(unknown)}"
            )
        return cls(
            faults=tuple(
                Fault.from_dict(f) for f in data.get("faults", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


def apply_fault(
    plan: FaultPlan | None,
    unit: int,
    attempt: int,
    in_worker: bool = False,
) -> None:
    """Fire the scripted fault for (unit, attempt), if any.

    Called at the top of every unit attempt.  ``in_worker`` is True
    only inside a process-pool worker, where a ``crash`` fault may
    hard-kill the process; elsewhere it raises :class:`SimulatedCrash`
    instead.
    """
    if plan is None:
        return
    fault = plan.fault_for(unit, attempt)
    if fault is None:
        return
    if fault.kind == "crash":
        if in_worker:
            # The OOM-killer shape: no exception, no cleanup, just gone.
            os._exit(17)
        raise SimulatedCrash(
            f"injected crash at unit {unit} attempt {attempt}"
        )
    if fault.kind == "hang":
        time.sleep(fault.hang_s)
        return  # then run normally — only a timeout rescues the attempt
    raise TransientFault(
        f"injected transient fault at unit {unit} attempt {attempt}"
    )


def corrupt_line(
    path: str | os.PathLike,
    line_index: int = -1,
    mode: str = "truncate",
    seed: int = 0,
) -> None:
    """Corrupt one line of a JSONL store file, in place.

    ``mode="truncate"`` keeps only the first half of the line (a writer
    died mid-append); ``mode="garbage"`` replaces it with seeded binary
    junk that is not valid JSON (bit rot).  Negative ``line_index``
    counts from the end.  Used by tests and the chaos CI job to prove
    the stores quarantine damage instead of crashing or silently
    serving it.
    """
    if mode not in ("truncate", "garbage"):
        raise ConfigurationError(
            f"mode must be 'truncate' or 'garbage', got {mode!r}"
        )
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"{path} has no lines to corrupt")
    try:
        target = lines[line_index]
    except IndexError:
        raise ConfigurationError(
            f"{path} has {len(lines)} lines; no line {line_index}"
        ) from None
    if mode == "truncate":
        corrupted = target[: max(1, len(target) // 2)]
    else:
        rnd = random.Random(seed)
        corrupted = "{garbage:" + "".join(
            chr(rnd.randrange(33, 126)) for _ in range(32)
        )
    lines[line_index] = corrupted
    path.write_text("\n".join(lines) + "\n")
