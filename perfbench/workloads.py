"""The benchmark's four workloads.

Each workload builds its inputs from a seed and then runs *passes*, one
pass being one complete unit of the work a user would run.  Inputs are
built in :meth:`prepare` (set-up, timed separately as ``setup_s``);
only :meth:`run_pass` is inside the timed region.

The workloads drive the program through its public API alone:
``repro.run_campaign``, ``repro.run_control``, ``repro.run_network``,
``PowerModel.run_batch`` and ``RunRecordStore``.  They never pass
``strategy=`` and never start ``repro serve``, so the benchmark keeps
working if either is deleted.  Everything runs serially in one process
(``workers=1``): on a two-core machine a process pool would measure
the scheduler rather than the program.

With the default seed (2002, the presets' own seed) every workload is
the repository's preset, unaltered; :meth:`prepare` checks this by
content hash.  Another seed is applied to every scenario seed and to
the ``isp(n)`` topology seed.

Why each workload exists, which layers it exercises and which it
bypasses is written on its class.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
from repro.api.model import PowerModel
from repro.api.store import RunRecordStore
from repro.campaigns import get_campaign
from repro.control import get_control
from repro.network import get_network
from repro.network.topology import edge_nodes, isp
from repro.network.traffic_matrix import Demand, TrafficMatrix
from repro.tech.presets import get_technology

DEFAULT_SEED = 2002

#: The paper's Fig. 10 fully-connected vs Batcher-Banyan power gap (%)
#: at 50% throughput, by port count — the only paper numbers a
#: benchmark run can be compared against.
PAPER_FIG10_GAP_PCT = {4: 37.0, 32: 20.0}


class BenchSession(PowerModel):
    """A :class:`PowerModel` that tallies what each batch asked for.

    ``requested`` counts scenarios handed to :meth:`run_batch`,
    duplicates and store hits included; ``requested_slots`` counts their
    warmup + arrival slots.  ``records`` keeps the returned records of
    the current pass for the output checks.  The tally costs one list
    walk per batch call, so it stays on in untraced runs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self.requested = 0
        self.requested_slots = 0
        self.records: list = []

    def run_batch(self, scenarios, *args: Any, **kwargs: Any):
        scenarios = list(scenarios)
        self.requested += len(scenarios)
        self.requested_slots += sum(
            s.warmup_slots + s.arrival_slots for s in scenarios
        )
        records = super().run_batch(scenarios, *args, **kwargs)
        self.records.extend(records)
        return records


@dataclass
class PassOutput:
    """What one pass produced, for the checks and the fidelity metric.

    ``exports`` maps a name to the exported text of one result; equal
    names must export byte-identically across passes.  ``pairs`` names
    exports that must equal each other within the pass.
    """

    exports: dict[str, str]
    pairs: list[tuple[str, str]] = field(default_factory=list)
    fig10_gap_err_pp: float | None = None


def _warm(session: PowerModel, fabrics) -> None:
    """Build the session's energy models (wire model and switch LUTs
    included) for every ``(architecture, ports, tech)`` the workload
    uses, so the first timed scenario does not pay for them."""
    for architecture, ports, tech in set(fabrics):
        session.energy_models(architecture, ports, tech)


def _scenario_fabrics(scenarios):
    return ((s.architecture, s.ports, s.technology) for s in scenarios)


def _node_fabrics(topology):
    return (
        (n.architecture, n.ports, get_technology(n.tech))
        for n in topology.nodes
    )


def _check_preset(name: str, built: Any, preset: Any) -> None:
    if built.content_hash() != preset.content_hash():
        raise RuntimeError(
            f"workload input {name!r} at the default seed differs from "
            "the repository preset"
        )


def _with_seed(base: dict, seed: int) -> dict:
    return {**base, "seed": seed}


def fig10_gap_err_pp(record) -> float:
    """Mean absolute error, in percentage points, of the reproduced
    FC-vs-BB power gap at 50% throughput against the paper's figures."""
    power = {
        (row["architecture"], row["ports"]): row["power_w"]
        for row in record.interpolated_power(0.5)
    }
    errors = []
    for ports, paper_pct in PAPER_FIG10_GAP_PCT.items():
        bb = power[("batcher_banyan", ports)]
        fc = power[("fully_connected", ports)]
        errors.append(abs((bb - fc) / bb * 100.0 - paper_pct))
    return sum(errors) / len(errors)


def _records_export(records) -> str:
    """Records as JSON with everything but the host-dependent
    ``elapsed_s``, including each backend-native detail object."""
    rows = []
    for record in records:
        row = record.to_cache_dict()
        row.pop("elapsed_s")
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


class Fig10Cold:
    """The ``fig10`` preset campaign, cold (no store).

    Why: the paper's headline figure and the only run with paper
    numbers to compare (``fidelity.fig10_gap_err_pp``).  96 distinct
    single-router FIFO simulations over 4 fabrics x {4,8,16,32} ports,
    about 99% slot loop, dominated by the 32-port banyan and
    Batcher-Banyan cores.  Exercises campaigns, api.run_batch, the
    vectorized engine, router arrivals and all four fabric cores.
    Bypasses the store, routing, the estimator and the fused engine
    (FIFO is never fused).  Nothing repeats, so dedup and caching must
    show no change here.  Replaces fig9, which shares grid and layers
    but carries no paper number.
    """

    name = "fig10_cold"

    def prepare(self, seed: int, session: PowerModel) -> None:
        preset = get_campaign("fig10")
        self.campaign = preset.replace(base=_with_seed(preset.base_dict, seed))
        if seed == DEFAULT_SEED:
            _check_preset(self.name, self.campaign, preset)
        _warm(session, _scenario_fabrics(self.campaign.scenarios()))

    def run_pass(self, session: PowerModel, workdir: Path) -> PassOutput:
        record = repro.run_campaign(self.campaign, session=session, workers=1)
        return PassOutput(
            exports={
                "comparison.json": record.to_json(),
                "comparison.csv": record.to_csv(),
            },
            fig10_gap_err_pp=fig10_gap_err_pp(record),
        )


class DiurnalControl:
    """The ``fat_tree_diurnal`` control preset, no store.

    Why: the repetition workload.  Ten ``run_batch`` calls request 200
    crossbar-4 simulations of which only 32 are distinct, plus ECMP
    routing and the green-routing optimizer.  In-batch dedup shows
    here and not on fig10_cold.  Exercises control, network routing
    and fold, api.run_batch, the engine, arrivals and the crossbar
    core.  Bypasses the store, the estimator, the fused engine and
    every multistage fabric, so array-wise banyan/Batcher-Banyan work
    must show no change here.
    """

    name = "diurnal_control"

    def prepare(self, seed: int, session: PowerModel) -> None:
        preset = get_control("fat_tree_diurnal")
        network = preset.network.replace(
            base=_with_seed(preset.network.base_dict, seed)
        )
        self.spec = preset.replace(network=network)
        if seed == DEFAULT_SEED:
            _check_preset(self.name, self.spec, preset)
        _warm(session, _node_fabrics(network.topology))

    def run_pass(self, session: PowerModel, workdir: Path) -> PassOutput:
        record = repro.run_control(self.spec, session=session, workers=1)
        return PassOutput(
            exports={
                "control.json": record.to_json(),
                "control.csv": record.to_csv(),
            }
        )


class VoqIslip:
    """One batch of 16 VOQ/iSLIP scenarios.

    {crossbar, banyan} x 32 ports x iSLIP K in {2, 4} x load {0.6, 0.9}
    x 2 seeds (the workload seed and the next), 800 arrival + 160
    warmup slots as in the fig9/fig10 grids.

    Why: the only workload with iSLIP arbitration, and the only one the
    default batch strategy stacks into the fused engine (four stacks
    of four), so removing the fused tier is judged here.  Exercises
    api.run_batch, the fused engine (or, without it, the vectorized
    engine), arrivals and the crossbar core.  Bypasses campaigns,
    routing, the store and the estimator.
    """

    name = "voq_islip"

    def prepare(self, seed: int, session: PowerModel) -> None:
        self.scenarios = [
            repro.Scenario(
                architecture,
                32,
                load,
                queueing="voq",
                islip_iterations=iterations,
                arrival_slots=800,
                warmup_slots=160,
                seed=scenario_seed,
            )
            for architecture in ("crossbar", "banyan")
            for iterations in (2, 4)
            for load in (0.6, 0.9)
            for scenario_seed in (seed, seed + 1)
        ]
        _warm(session, _scenario_fabrics(self.scenarios))

    def run_pass(self, session: PowerModel, workdir: Path) -> PassOutput:
        records = session.run_batch(self.scenarios, workers=1)
        return PassOutput(exports={"records.json": _records_export(records)})


#: Demand scales of the scale_store routing sweep.  One pass over both
#: networks at one scale takes a fraction of a second, so the sweep is
#: what makes a pass long enough to time.
SCALE_STORE_SCALES = (0.5, 1.0, 1.5)


def _isp200_ring(seed: int):
    """The ``isp200_ring`` preset with its topology seed replaced."""
    preset = get_network("isp200_ring")
    topology = isp(200, seed=seed)
    edges = edge_nodes(topology)
    demand = preset.matrix.demands[0].cells_per_slot
    matrix = TrafficMatrix(
        tuple(
            Demand(edges[i], edges[(i + 1) % len(edges)], demand)
            for i in range(len(edges))
        ),
        name=preset.matrix.name,
    )
    spec = preset.replace(
        topology=topology,
        matrix=matrix,
        base=_with_seed(preset.base_dict, seed),
    )
    if seed == DEFAULT_SEED:
        _check_preset("isp200_ring", spec, preset)
    return spec


class ScaleStore:
    """Estimate-backend scale presets, swept, then through a store.

    ``fat_tree_k16`` (320 routers) and ``isp200_ring`` (200 routers).
    A pass first runs both, without a store, at every demand scale in
    :data:`SCALE_STORE_SCALES`.  It then runs both at the presets' own
    scale against a fresh :class:`RunRecordStore` in a temporary
    directory, which writes it (cold), and again after reopening the
    file, which reads it (warm).  Appends are fsynced, so disk is part
    of this workload.  Only the presets' own scale goes through the
    store: fsync latency on a shared disk drifts by a factor of two or
    more over minutes, and with a store round-trip at every scale the
    appends took a quarter to almost half of a pass, so the pass
    measured the host's disk as much as the program.  The store's
    duplicate appends still show at one scale (320 lines for 3 keys on
    ``fat_tree_k16``).

    Why: the only workload where routing, the closed-form estimator,
    per-scenario API overhead and store I/O do the work and the slot
    loop does none.  Writes sit beside reads, so a store change that
    speeds one side at the other's cost shows.  Exercises network
    routing and fold, api.run_batch, the store and core.estimate.
    Bypasses campaigns, control, the engines and every fabric core.
    """

    name = "scale_store"

    def prepare(self, seed: int, session: PowerModel) -> None:
        k16_preset = get_network("fat_tree_k16")
        k16 = k16_preset.replace(base=_with_seed(k16_preset.base_dict, seed))
        if seed == DEFAULT_SEED:
            _check_preset("fat_tree_k16", k16, k16_preset)
        networks = (k16, _isp200_ring(seed))
        self.sweep = [
            (f"{spec.name}@{scale}", spec if scale == 1.0 else spec.scaled(scale))
            for spec in networks
            for scale in SCALE_STORE_SCALES
        ]
        self.stored = [(f"{spec.name}@1.0", spec) for spec in networks]
        _warm(
            session,
            (f for spec in networks for f in _node_fabrics(spec.topology)),
        )

    def run_pass(self, session: PowerModel, workdir: Path) -> PassOutput:
        exports: dict[str, str] = {}

        def run(phase, specs, store=None):
            for label, spec in specs:
                record = repro.run_network(
                    spec, session=session, workers=1, store=store
                )
                exports[f"{phase}/{label}.json"] = record.to_json()
                exports[f"{phase}/{label}.csv"] = record.to_csv()

        run("sweep", self.sweep)
        path = workdir / "runs.jsonl"
        for phase in ("cold", "warm"):
            run(phase, self.stored, RunRecordStore(path))
        # Each stored run must export as its run without a store did.
        pairs = [
            ("sweep/" + name[len(phase) + 1:], name)
            for name in exports
            for phase in ("cold", "warm")
            if name.startswith(phase + "/")
        ]
        return PassOutput(exports=exports, pairs=pairs)


WORKLOADS = {
    cls.name: cls for cls in (Fig10Cold, DiurnalControl, VoqIslip, ScaleStore)
}


def store_file_stats(workdir: Path) -> dict[str, float]:
    """Lines, distinct keys and bytes of the store file a pass wrote."""
    path = workdir / "runs.jsonl"
    if not path.exists():
        return {"lines": 0, "keys": 0, "bytes": 0}
    keys = set()
    lines = 0
    with path.open() as fh:
        for line in fh:
            if line.strip():
                lines += 1
                keys.add(json.loads(line)["key"])
    return {"lines": lines, "keys": len(keys), "bytes": os.path.getsize(path)}
