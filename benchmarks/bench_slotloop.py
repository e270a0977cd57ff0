"""Slot-loop engine benchmark: vectorized vs reference slots/sec.

The acceptance benchmark of the vectorized engine: run the 32-port
banyan at 0.9 offered load through both engines, verify the seeded
results are bit-identical, and report slots/sec plus the speedup (the
gate: >= 5x).  The same operating point is also measured for every
built-in fabric, so the record shows each vector core's speed; those
rows are checked for identical results but carry no speed gate.  The
record names the machine (``nproc``, ``calibration_s``: best of three
timings of a fixed pure-Python loop) and the commit it measured.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_slotloop.py \
        --output BENCH_slotloop.json

or through pytest alongside the other benches::

    pytest benchmarks/bench_slotloop.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

ARCH = "banyan"
ARCHES = ("crossbar", "fully_connected", "banyan", "batcher_banyan")
PORTS = 32
LOAD = 0.9
SEED = 2002
CALIBRATION_N = 300_000

_ENGINES = {
    "reference": SimulationEngine,
    "vectorized": VectorizedEngine,
}


def run_engine(engine: str, slots: int, warmup: int, arch: str = ARCH):
    """One timed run; returns (slots_per_sec, seconds, result)."""
    router = build_router(arch, PORTS, load=LOAD)
    eng = _ENGINES[engine](router, seed=SEED)
    timed_slots = slots + warmup
    start = time.perf_counter()
    result = eng.run(slots, warmup_slots=warmup, drain=False)
    seconds = time.perf_counter() - start
    return timed_slots / seconds, seconds, result


def _best(engine: str, slots: int, warmup: int, arch: str, repeats: int):
    """The minimum wall-clock of ``repeats`` runs (strips scheduler
    noise from a throughput figure)."""
    best = None
    for _ in range(repeats):
        run = run_engine(engine, slots, warmup, arch)
        if best is None or run[1] < best[1]:
            best = run
    return best


def _git_sha() -> str:
    """The measured commit; ``-dirty`` marks uncommitted changes."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _calibration_s() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(slots: int = 600, warmup: int = 100, repeats: int = 3) -> dict:
    """Both engines on the acceptance operating point; returns the report.

    The gated banyan pair runs ``repeats`` times per engine; the other
    fabric rows run the reference once (for the identity check and the
    ratio) and the vectorized engine ``repeats`` times.
    """
    report = {
        "benchmark": "slotloop",
        "architecture": ARCH,
        "ports": PORTS,
        "load": LOAD,
        "seed": SEED,
        "arrival_slots": slots,
        "warmup_slots": warmup,
        "repeats": repeats,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "calibration_s": round(_calibration_s(), 4),
        "engines": {},
    }
    gated = {}
    for engine in ("reference", "vectorized"):
        gated[engine] = _best(engine, slots, warmup, ARCH, repeats)
        slots_per_sec, seconds, _ = gated[engine]
        report["engines"][engine] = {
            "slots_per_sec": round(slots_per_sec, 1),
            "seconds": round(seconds, 4),
        }
    report["speedup"] = round(
        report["engines"]["vectorized"]["slots_per_sec"]
        / report["engines"]["reference"]["slots_per_sec"],
        2,
    )
    reference, vectorized = gated["reference"][2], gated["vectorized"][2]
    report["identical_results"] = reference == vectorized
    report["energy_total_j"] = vectorized.energy.total_j
    report["throughput"] = vectorized.throughput
    report["fabrics"] = {}
    for arch in ARCHES:
        if arch == ARCH:  # the gated pair above
            ref_rate, _, ref = gated["reference"]
            vec_rate, vec_seconds, vec = gated["vectorized"]
        else:
            ref_rate, _, ref = _best("reference", slots, warmup, arch, 1)
            vec_rate, vec_seconds, vec = _best(
                "vectorized", slots, warmup, arch, repeats
            )
        report["fabrics"][arch] = {
            "reference_slots_per_sec": round(ref_rate, 1),
            "vectorized_slots_per_sec": round(vec_rate, 1),
            "vectorized_us_per_slot": round(1e6 * vec_seconds / (slots + warmup), 1),
            "speedup": round(vec_rate / ref_rate, 2),
            "identical_results": ref == vec,
        }
    return report


def _all_identical(report: dict) -> bool:
    return report["identical_results"] and all(
        row["identical_results"] for row in report["fabrics"].values()
    )


def test_slotloop_speedup_and_equivalence():
    """Pytest entry: >= 5x on the 32-port banyan with identical results."""
    report = run_benchmark(slots=400, warmup=50)
    print()
    print(json.dumps(report, indent=2))
    assert _all_identical(report), "engines diverged on seeded results"
    assert report["speedup"] >= 5.0, (
        f"vectorized engine is only {report['speedup']}x the reference "
        "(needs >= 5x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_slotloop.json", help="report path"
    )
    parser.add_argument("--slots", type=int, default=600)
    parser.add_argument("--warmup", type=int, default=100)
    args = parser.parse_args(argv)
    report = run_benchmark(slots=args.slots, warmup=args.warmup)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for arch, row in report["fabrics"].items():
        print(
            f"{arch} {PORTS}x{PORTS} @ load {LOAD}: reference "
            f"{row['reference_slots_per_sec']:.0f} slots/s, vectorized "
            f"{row['vectorized_slots_per_sec']:.0f} slots/s "
            f"({row['speedup']}x), identical={row['identical_results']}"
        )
    print(
        f"gate: {ARCH} speedup {report['speedup']}x (needs >= 5x) "
        f"-> {args.output}"
    )
    return 0 if _all_identical(report) and report["speedup"] >= 5 else 1


if __name__ == "__main__":
    raise SystemExit(main())
