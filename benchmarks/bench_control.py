"""Control-plane benchmark: dumbbell step series, cold vs figure cache.

The acceptance benchmark of the control subsystem: run the
``dumbbell_sleep_sweep`` preset cold (every epoch baseline simulated,
the pruner and power-state overlay evaluated per headroom) and again
against the warm JSONL derived-figure store, then gate on the
subsystem's two hard promises:

* every epoch's ``savings_w`` against the fixed-routing baseline is
  non-negative (the candidate chooser keeps ``fixed`` on ties, so a
  negative saving means the overlay math broke);
* the warm re-run serves the whole :class:`ControlRecord` from the
  figure store with **zero** misses and byte-identical CSV/JSON
  exports.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_control.py --output BENCH_control.json

or through pytest alongside the other benches::

    pytest benchmarks/bench_control.py -s
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

from repro.api.model import PowerModel
from repro.api.store import DerivedRecordStore, RunRecordStore
from repro.control import ControlModel, get_control

PRESET = "dumbbell_sleep_sweep"


def run_benchmark(workers: int = 4, repeats: int = 3) -> dict:
    """Cold vs figure-cached control runs; returns the report.

    The cold path reports its best (minimum wall-clock) repetition with
    a fresh session and stores each time; the cached path re-reads the
    same warm figure store.
    """
    spec = get_control(PRESET)
    report = {
        "benchmark": "control",
        "preset": PRESET,
        "nodes": len(spec.network.topology.nodes),
        "links": len(spec.network.topology.links),
        "routing": spec.network.routing,
        "epochs": spec.series.epochs,
        "headrooms": list(spec.headrooms()),
        "workers": workers,
        "repeats": repeats,
        "python": platform.python_version(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        figures_path = Path(tmp) / "figures.jsonl"
        best_cold = None
        cold_record = None
        for i in range(repeats):
            figures_i = Path(tmp) / f"figures_{i}.jsonl"
            cache_i = Path(tmp) / f"records_{i}.jsonl"
            model = ControlModel(PowerModel())
            start = time.perf_counter()
            record = model.run(
                spec,
                workers=workers,
                store=RunRecordStore(cache_i),
                figures=DerivedRecordStore(figures_i),
            )
            seconds = time.perf_counter() - start
            if best_cold is None or seconds < best_cold:
                best_cold = seconds
                cold_record = record
            if i == 0:
                figures_i.rename(figures_path)
        best_warm = None
        warm_record = None
        warm_misses = None
        for _ in range(repeats):
            figures = DerivedRecordStore(figures_path)
            model = ControlModel(PowerModel())
            start = time.perf_counter()
            record = model.run(spec, workers=workers, figures=figures)
            seconds = time.perf_counter() - start
            if best_warm is None or seconds < best_warm:
                best_warm = seconds
                warm_record = record
                warm_misses = figures.stats()["misses"]
        report["cold_seconds"] = round(best_cold, 4)
        report["cached_seconds"] = round(best_warm, 4)
        report["cache_speedup"] = round(best_cold / best_warm, 2)
        report["cached_misses"] = warm_misses
        report["identical_exports"] = (
            cold_record.to_csv() == warm_record.to_csv()
            and cold_record.sla_to_csv() == warm_record.sla_to_csv()
            and cold_record.to_json() == warm_record.to_json()
        )
        report["min_epoch_savings_w"] = min(
            row["savings_w"] for row in cold_record.epochs
        )
        report["savings_pct"] = cold_record.totals["savings_pct"]
        report["mean_links_up"] = cold_record.totals["mean_links_up"]
    return report


def test_control_savings_and_figure_cache():
    """Pytest entry: non-negative savings, warm store serves everything."""
    report = run_benchmark(workers=2, repeats=2)
    print()
    print(json.dumps(report, indent=2))
    assert report["min_epoch_savings_w"] >= 0.0, (
        "an epoch burned more than the fixed-routing baseline"
    )
    assert report["cached_misses"] == 0, "warm figure store missed"
    assert report["identical_exports"], "cold and cached exports diverged"
    assert report["cache_speedup"] >= 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_control.json", help="report path"
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = run_benchmark(workers=args.workers, repeats=args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"{PRESET} ({report['epochs']} epochs): cold "
        f"{report['cold_seconds']}s, cached {report['cached_seconds']}s "
        f"({report['cache_speedup']}x), cached_misses="
        f"{report['cached_misses']}, min_savings="
        f"{report['min_epoch_savings_w']:.6g} W, identical="
        f"{report['identical_exports']} -> {args.output}"
    )
    # CI gate: savings never negative, warm cache never re-executes.
    ok = (
        report["min_epoch_savings_w"] >= 0.0
        and report["cached_misses"] == 0
        and report["identical_exports"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
