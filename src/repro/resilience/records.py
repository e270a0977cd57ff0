"""Failure surfaces: explicit holes instead of crashed campaigns.

A :class:`FailureRecord` is the durable description of one scenario the
supervisor could not complete — what failed, how it failed, how many
attempts were burned, and which degradation rung was reached.  Campaign
and network records carry a list of them (empty on a clean run, and
omitted from their JSON so clean exports are unchanged), which is what
lets a partially failed campaign export with explicit holes rather
than losing every finished point.

A :class:`BatchReport` is the runtime tally one ``run_batch`` call
accumulates — retries, degradations, pool respawns, timeouts, journal
replays, failures — surfaced by the CLI summary lines and asserted by
the resilience tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: Degradation rungs a unit may reach, in ladder order.
STAGES = ("planned", "reference")


@dataclass(frozen=True)
class FailureRecord:
    """One scenario the supervisor gave up on.

    Attributes
    ----------
    label:
        The scenario's human-readable label.
    key:
        The scenario's content hash — the store/journal key, so a
        later ``--resume`` knows exactly which unit to re-run.
    error_type / message:
        The final exception's class name and text.
    attempts:
        How many attempts were made before giving up.
    stage:
        The degradation rung of the final attempt (``"planned"`` or
        ``"reference"``).
    """

    label: str
    key: str
    error_type: str
    message: str
    attempts: int
    stage: str = "planned"

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "key": self.key,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "stage": self.stage,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureRecord":
        known = {"label", "key", "error_type", "message", "attempts",
                 "stage"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown failure-record fields: {sorted(unknown)}"
            )
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid failure record: {exc}"
            ) from exc

    @classmethod
    def from_exception(
        cls,
        scenario,
        exc: BaseException,
        attempts: int,
        stage: str = "planned",
    ) -> "FailureRecord":
        return cls(
            label=scenario.label,
            key=scenario.content_hash(),
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            stage=stage,
        )


@dataclass
class BatchReport:
    """Runtime resilience tally of one supervised batch."""

    retries: int = 0
    degradations: int = 0
    pool_respawns: int = 0
    timeouts: int = 0
    replayed: int = 0
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def eventful(self) -> bool:
        """True when anything beyond plain first-attempt success
        happened (drives whether CLI summaries print a line)."""
        return bool(
            self.retries
            or self.degradations
            or self.pool_respawns
            or self.timeouts
            or self.replayed
            or self.failures
        )

    def merge(self, other: "BatchReport") -> None:
        """Fold another batch's tally into this one (network/control
        runs issue several batches per record)."""
        self.retries += other.retries
        self.degradations += other.degradations
        self.pool_respawns += other.pool_respawns
        self.timeouts += other.timeouts
        self.replayed += other.replayed
        self.failures.extend(other.failures)

    def summary(self) -> str:
        parts = [
            f"{self.retries} retries",
            f"{self.degradations} degradations",
            f"{self.pool_respawns} pool respawns",
            f"{self.timeouts} timeouts",
            f"{self.replayed} replayed",
            f"{len(self.failures)} failures",
        ]
        return "resilience: " + ", ".join(parts)
