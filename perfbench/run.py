"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10_cold --seed 2002 \\
        --seconds 10 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it carry the environment header and the run's detail.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "out"

#: Fresh interpreters started per run to time set-up; setup_s is their
#: median.
SETUP_PROBES = 3

#: Iterations of the calibration loop (about 50 ms of Python on the
#: machine that recorded the first trajectory point).
CALIBRATION_N = 300_000


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time set-up in this fresh interpreter and print it (internal)",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    return repro


def _git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop, for
    normalising results across machines."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _environment(load_at_start) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "loadavg_at_start": list(load_at_start),
        "calibration_s": _calibration_s(),
    }


def _setup_probe(args) -> int:
    start_import = time.perf_counter()
    _import_program()
    import workloads

    ready_import = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, workloads.BenchSession())
    ready = time.perf_counter()
    print(
        json.dumps(
            {
                "setup_s": ready - _T0,
                "import_s": ready_import - start_import,
                "inputs_s": ready - ready_import,
            }
        )
    )
    return 0


def _time_setup(args) -> dict:
    """Median set-up timings over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("error: set-up probe failed")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }


class _Pass:
    """One timed pass: its wall time, what it requested, and digests of
    what it exported (the texts themselves are dropped at once, so a
    run's memory does not grow with its pass count)."""

    def __init__(self, wall_s, session, output, store):
        self.wall_s = wall_s
        self.requested = session.requested
        self.requested_slots = session.requested_slots
        self.digests = {
            name: checks.digest(text) for name, text in output.exports.items()
        }
        self.pair_mismatches = checks.pair_mismatches(output.exports, output.pairs)
        self.fig10_gap_err_pp = output.fig10_gap_err_pp
        self.store = store


def _run_pass(workload, session, workloads):
    """Run and time one pass in a fresh scratch directory.

    Returns (pass, the pass's records); raises what the program raised.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    session.reset()
    try:
        start = time.perf_counter()
        output = workload.run_pass(session, workdir)
        wall = time.perf_counter() - start
        store = workloads.store_file_stats(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = session.records
    done = _Pass(wall, session, output, store)
    session.reset()
    return done, records


def _end_to_end(passes, peak_rss_mb, setup) -> dict:
    """End-to-end metrics over the untraced passes: medians per pass."""
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "router_slots_per_s": statistics.median(
            p.requested_slots / p.wall_s for p in passes
        ),
        "scenarios_per_s": statistics.median(
            p.requested / p.wall_s for p in passes
        ),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup["setup_s"],
    }


def _per_layer(tracer, traced, baseline, setup) -> dict:
    layers = tracer.layer_metrics()
    store = traced.store
    layers["api.store.lines_per_entry"] = (
        store["lines"] / store["keys"] if store["keys"] else 0.0
    )
    layers["api.store.bytes_written"] = store["bytes"]
    layers["setup.import_s"] = setup["import_s"]
    layers["setup.inputs_s"] = setup["inputs_s"]
    layers["trace.overhead_s"] = traced.wall_s - baseline.wall_s
    gap = traced.fig10_gap_err_pp
    layers["fidelity.fig10_gap_err_pp"] = gap if gap is not None else 0.0
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    load_at_start = os.getloadavg()
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(sorted(workloads.WORKLOADS))
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; known: {known}"
        )
    print(json.dumps({"env": _environment(load_at_start)}), flush=True)
    setup = _time_setup(args)

    session = workloads.BenchSession()
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, session)

    passes: list[_Pass] = []
    first_records: list = []
    tracer = None
    failed = 0
    crashed = False
    try:
        # Untraced passes: one in a traced run (the overhead baseline),
        # else as many as the next would still fit in --seconds, at
        # least one.
        started = time.perf_counter()
        while True:
            done, records = _run_pass(workload, session, workloads)
            passes.append(done)
            if not first_records:
                first_records = records
            elapsed = time.perf_counter() - started
            typical = statistics.median(p.wall_s for p in passes)
            if args.trace or elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                done, _ = _run_pass(workload, session, workloads)
            passes.append(done)
    except Exception:  # a failing pass is reported, not fatal
        traceback.print_exc()
        crashed = True
        failed = max(1, session.requested)
    attempted = failed + sum(p.requested for p in passes)

    # Output checks, outside every timed region.  Traced and untraced
    # passes are compared like any two passes.
    found = {}
    if passes:
        found["export_mismatches"] = checks.export_mismatches(
            [p.digests for p in passes]
        )
        found["pair_mismatches"] = sum(p.pair_mismatches for p in passes)
        found["energy_checked"], found["energy_mismatches"] = (
            checks.energy_mismatches(first_records)
        )
        found["oracle_checked"], found["oracle_mismatches"] = (
            checks.oracle_mismatches(session, first_records, args.seed)
        )
        failed += sum(v for k, v in found.items() if k.endswith("_mismatches"))

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if not crashed:
        if args.trace:
            values = _per_layer(tracer, passes[1], passes[0], setup)
            kind = "per_layer"
            tracer.write(
                TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            )
        else:
            values = _end_to_end(passes, peak_rss_mb, setup)
            kind = "end_to_end"
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in definition[kind]
        }

    untraced = passes[:1] if args.trace else passes
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced),
        "pass_wall_s": [p.wall_s for p in passes],
        "wall_s_max": max((p.wall_s for p in untraced), default=None),
        "scenarios_per_pass": passes[0].requested if passes else 0,
        "error_rate": failed / attempted,
        "fig10_gap_err_pp": passes[0].fig10_gap_err_pp if passes else None,
        "checks": found,
        "setup": setup,
        "store": passes[0].store if passes else None,
        "metrics": [
            f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
        ],
    }
    if tracer is not None:
        detail["untraced_entry_points"] = tracer.missing
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
