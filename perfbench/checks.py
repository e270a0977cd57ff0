"""Output checks, run outside the timed region.

Every mismatch counts in the run's ``failed`` tally, and so in
``error_rate`` = failed / attempted.
"""

from __future__ import annotations

import hashlib
import math
import random

#: Simulated records checked against the reference engine per run.
ORACLE_SAMPLES = 1

#: Power components are each energy / window, and the total is their
#: summed energy / window, so they agree to a few float64 ulps.
ENERGY_REL_TOL = 1e-12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _comparable(record) -> dict:
    row = record.to_cache_dict()
    row.pop("elapsed_s")
    return row


def simulated(records) -> list:
    """Distinct simulated records, in content-hash order."""
    by_hash = {}
    for record in records:
        if record is not None and record.backend == "simulate":
            by_hash.setdefault(record.scenario.content_hash(), record)
    return [by_hash[key] for key in sorted(by_hash)]


def oracle_mismatches(session, records, seed: int) -> tuple[int, int]:
    """Re-run sampled simulated records on the reference engine.

    Returns (records checked, records that differ in anything but
    ``elapsed_s``).  The sample is drawn from the workload seed.
    """
    pool = simulated(records)
    sample = random.Random(seed).sample(pool, min(ORACLE_SAMPLES, len(pool)))
    bad = 0
    for record in sample:
        reference = session.simulate(record.scenario, engine="reference")
        if _comparable(reference) != _comparable(record):
            bad += 1
    return len(sample), bad


def energy_mismatches(records) -> tuple[int, int]:
    """(records checked, records whose switch + wire + buffer power does
    not sum to the total, or has a negative component)."""
    pool = simulated(records)
    bad = 0
    for r in pool:
        parts = (r.switch_power_w, r.wire_power_w, r.buffer_power_w)
        if min(parts) < 0 or not math.isclose(
            sum(parts), r.total_power_w, rel_tol=ENERGY_REL_TOL
        ):
            bad += 1
    return len(pool), bad


def export_mismatches(passes: list[dict[str, str]]) -> int:
    """Exports (as digests) that differ from the first pass's."""
    first = passes[0]
    return sum(
        1
        for later in passes[1:]
        for name in first.keys() | later.keys()
        if first.get(name) != later.get(name)
    )


def pair_mismatches(exports: dict[str, str], pairs) -> int:
    """Export pairs of one pass that should be identical but are not."""
    return sum(1 for a, b in pairs if exports[a] != exports[b])
