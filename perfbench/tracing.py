"""Outside-in layer tracing for the traced benchmark run.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(:data:`ENTRY_POINTS`) with spans, runs the workload, and restores the
originals.  Nothing inside the program changes, so a later change that
adds its own instrumentation does not disturb these numbers.

Each span records its wall time and, by subtracting the spans it
encloses, its self time.  Spans are keyed by the content hash of the
scenario being executed (``PowerModel.simulate``/``estimate`` set the
key), so a layer's time can be split per scenario.  Per-slot spans
(engine step, arrivals, fabric advance) are only aggregated per
(name, scenario key); the coarser spans are also kept one by one, with
their parent, and written out with the aggregates when the run ends.

Fused stacks run many scenarios in one slot loop, so their spans carry
no scenario key.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

#: (module, owner class or None for a module function, attribute, span
#: name).  A module function is patched where the calling layer looks it
#: up, which is the module named here.
ENTRY_POINTS = (
    ("repro", None, "run_campaign", "campaigns.run_campaign"),
    ("repro", None, "run_control", "control.run_control"),
    ("repro", None, "run_network", "network.run_network"),
    ("repro.control.model", None, "optimize_routing", "control.optimize_routing"),
    ("repro.network.power", "NetworkPowerModel", "route", "network.route"),
    ("repro.network.power", "NetworkPowerModel", "run_routed", "network.run_routed"),
    ("repro.api.model", "PowerModel", "run_batch", "api.run_batch"),
    ("repro.api.model", "PowerModel", "simulate", "api.simulate"),
    ("repro.api.model", "PowerModel", "estimate", "api.estimate"),
    ("repro.api.model", None, "compute_estimate", "core.estimate"),
    ("repro.api.store", "RunRecordStore", "__init__", "api.store.load"),
    ("repro.api.store", "RunRecordStore", "get", "api.store.get"),
    ("repro.api.store", "RunRecordStore", "put", "api.store.put"),
    ("repro.sim.fused_engine", "FusedVectorizedEngine", "run", "sim.fused.run"),
    ("repro.sim.vector_engine", "VectorizedEngine", "step", "sim.step"),
    ("repro.router.traffic", "TrafficGenerator", "arrivals_batch", "router.arrivals_batch"),
    ("repro.fabrics.vectorized", "CrossbarCore", "advance", "fabrics.advance.crossbar"),
    ("repro.fabrics.vectorized", "FullyConnectedCore", "advance", "fabrics.advance.fully_connected"),
    ("repro.fabrics.vectorized", "BanyanCore", "advance", "fabrics.advance.banyan"),
    ("repro.fabrics.vectorized", "BatcherBanyanCore", "advance", "fabrics.advance.batcher_banyan"),
)

FABRICS = ("crossbar", "fully_connected", "banyan", "batcher_banyan")

#: Spans entered once per simulated slot: aggregated, never listed.
PER_SLOT = frozenset(
    ("sim.step", "router.arrivals_batch")
    + tuple(f"fabrics.advance.{fabric}" for fabric in FABRICS)
)


def _scenario_arg(args: tuple, kwargs: dict):
    """The scenario argument of ``method(self, scenario, ...)``."""
    return args[1] if len(args) > 1 else kwargs["scenario"]


class Tracer:
    """Span recorder over patched entry points; use as a context manager."""

    def __init__(self) -> None:
        #: (span name, scenario key) -> [calls, busy_s, self_s]
        self.totals: dict[tuple[str, str | None], list] = {}
        #: listed spans: (id, parent id, name, key, start_s, end_s)
        self.spans: list[tuple] = []
        self.requested = 0
        self.executed = 0
        self.hits = 0
        self.misses = 0
        self.fused_scenarios = 0
        #: entry points that could not be found, so were not traced
        self.missing: list[str] = []
        self._distinct: set[str] = set()
        self._hit_ids: set[int] = set()
        #: id(scenario) -> (scenario, content hash) for the current batch
        self._hashes: dict[int, tuple[Any, str]] = {}
        self._key: str | None = None
        self._child_s: list[float] = []
        self._open: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner = (
                    module if owner_name is None else getattr(module, owner_name)
                )
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # The layer is gone or moved (the fused tier is slated
                # for removal): its metrics read 0 and the run names it.
                self.missing.append(name)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        listed = name not in PER_SLOT
        hooks = {
            "api.run_batch": self._run_batch,
            "api.simulate": self._keyed,
            "api.estimate": self._keyed,
            "api.store.get": self._store_get,
            "sim.fused.run": self._fused_run,
        }
        hook = hooks.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if hook is not None:
                return hook(fn, name, listed, args, kwargs)
            return self._span(fn, name, listed, args, kwargs)

        return traced

    # -- spans ---------------------------------------------------------

    def _span(self, fn, name, listed, args, kwargs):
        span_id = None
        if listed:
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(span_id)
        key = self._key
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed
            entry = self.totals.get((name, key))
            if entry is None:
                self.totals[(name, key)] = [1, elapsed, elapsed - child]
            else:
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if listed:
                self._open.pop()
                self.spans[span_id] = (
                    span_id,
                    parent,
                    name,
                    key,
                    start - self._origin,
                    end - self._origin,
                )

    def _keyed(self, fn, name, listed, args, kwargs):
        outer = self._key
        self._key = self._digest(_scenario_arg(args, kwargs))
        try:
            return self._span(fn, name, listed, args, kwargs)
        finally:
            self._key = outer

    def _run_batch(self, fn, name, listed, args, kwargs):
        if len(args) > 1:
            scenarios = list(args[1])
            args = (args[0], scenarios, *args[2:])
        else:
            scenarios = kwargs["scenarios"] = list(kwargs["scenarios"])
        self._hit_ids = set()
        self._hashes = {}
        records = self._span(fn, name, listed, args, kwargs)
        self.requested += len(scenarios)
        for scenario in scenarios:
            if id(scenario) not in self._hit_ids:
                self.executed += 1
                self._distinct.add(self._digest(scenario))
        return records

    def _digest(self, scenario) -> str:
        entry = self._hashes.get(id(scenario))
        if entry is None:
            # Keep the scenario alive so its id is not reused this batch.
            entry = self._hashes[id(scenario)] = (scenario, scenario.content_hash())
        return entry[1]

    def _store_get(self, fn, name, listed, args, kwargs):
        record = self._span(fn, name, listed, args, kwargs)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
            self._hit_ids.add(id(_scenario_arg(args, kwargs)))
        return record

    def _fused_run(self, fn, name, listed, args, kwargs):
        self.fused_scenarios += len(args[0].subs)
        return self._span(fn, name, listed, args, kwargs)

    # -- results -------------------------------------------------------

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, busy_s, self_s) of a span name over all keys."""
        calls, busy, own = 0, 0.0, 0.0
        for (span_name, _), (c, b, s) in self.totals.items():
            if span_name == name:
                calls += c
                busy += b
                own += s
        return calls, busy, own

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced pass."""
        out: dict[str, float] = {}

        def put(name: str, span: str, calls: bool = True) -> None:
            c, busy, _ = self.total(span)
            if calls:
                out[f"{name}.calls"] = c
            out[f"{name}.busy_s"] = busy

        put("sim.step", "sim.step")
        out["sim.engine_self_s"] = self.total("sim.step")[2]
        put("router.arrivals_batch", "router.arrivals_batch")
        for fabric in FABRICS:
            put(f"fabrics.advance.{fabric}", f"fabrics.advance.{fabric}")
        put("sim.fused.run", "sim.fused.run")
        out["sim.fused.scenarios"] = self.fused_scenarios
        put("api.run_batch", "api.run_batch")
        out["api.scenarios_requested"] = self.requested
        out["api.scenarios_executed"] = self.executed
        out["api.distinct_ratio"] = (
            len(self._distinct) / self.executed if self.executed else 0.0
        )
        for op in ("get", "put", "load"):
            put(f"api.store.{op}", f"api.store.{op}", calls=False)
        out["api.store.hits"] = self.hits
        out["api.store.misses"] = self.misses
        put("core.estimate", "core.estimate")
        put("network.route", "network.route")
        out["network.fold.self_s"] = self.total("network.run_routed")[2]
        put("control.optimize_routing", "control.optimize_routing")
        out["campaigns.run_campaign.self_s"] = self.total(
            "campaigns.run_campaign"
        )[2]
        return out

    def write(self, path: Path) -> None:
        """Write the listed spans and the per-key aggregates as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                dict(zip(("id", "parent", "name", "key", "start_s", "end_s"), s))
                for s in self.spans
            ],
            "totals": [
                {"name": name, "key": key, "calls": c, "busy_s": b, "self_s": s}
                for (name, key), (c, b, s) in sorted(
                    self.totals.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            ],
        }
        path.write_text(json.dumps(payload))
