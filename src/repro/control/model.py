"""ControlModel: drive the network data plane through demand epochs.

Per epoch the model evaluates up to three candidate configurations and
keeps the cheapest:

* ``fixed`` — the plain PR-5 data plane under the epoch's matrix: no
  overlay, no transitions.  Its power *is* the no-control baseline, so
  per-epoch ``savings_w`` is non-negative by construction.
* ``states`` — same fixed routing, but the per-link power-state overlay
  applied: idle cables sleep (``sleep``), loaded cables run at the
  smallest configured rate covering their utilization (``link_rates``).
* ``optimized`` — green routing: the greedy pruner concentrates
  traffic onto fewer cables within the SLA headroom, the pruned routing
  is projected back onto the full port map and re-simulated through
  :meth:`~repro.network.NetworkPowerModel.run_routed`, then the same
  overlay applies (pruned cables are idle, hence sleepable).

Sleep transitions pay ``wake_energy_j`` per cable at sleep *entry*
(pre-paying the later wake-up), spread over the epoch.  Charging at
entry rather than exit keeps the ``fixed`` candidate's power identical
to the baseline in every epoch, which is what makes the non-negative
savings gate sound.

Baselines are executed once per distinct demand scale through
:meth:`NetworkPowerModel.run` — with a ``figures`` store that means one
cached ``"network"`` record per (spec, epoch scale), and the whole
:class:`~repro.control.record.ControlRecord` is cached under kind
``"control"`` keyed by the control spec's content hash, so a warm
re-run touches no simulation at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

from repro.api.model import PowerModel
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.records import BatchReport

from repro.network.power import NetworkPowerModel, NetworkRecord
from repro.network.routing import _TOL

from repro.control.optimizer import cable_key, cables_of, optimize_routing
from repro.control.record import ControlRecord
from repro.control.spec import ControlSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.store import DerivedRecordStore, RunRecordStore
    from repro.resilience.journal import CampaignJournal


class ControlModel:
    """Runs control specs by driving a shared network power model.

    >>> from repro.control import ControlModel, get_control
    >>> record = ControlModel().run(get_control("dumbbell_sleep_sweep"))
    ... # doctest: +SKIP
    """

    def __init__(
        self,
        session: PowerModel | None = None,
        network: NetworkPowerModel | None = None,
    ) -> None:
        self.network = (
            network if network is not None else NetworkPowerModel(session)
        )

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    @staticmethod
    def _cable_info(
        spec: ControlSpec, record: NetworkRecord
    ) -> dict[tuple[str, str], dict[str, Any]]:
        """Per-cable load/utilization summary of a network record, plus
        how many of the cable's endpoint ports PR-5 accounting powers
        (2 normally, 0 for an idle cable under switch-off) — all
        recoverable from the serialised link rows, so the overlay works
        identically on figure-cached records."""
        info: dict[tuple[str, str], dict[str, Any]] = {}
        for row in record.links:
            key = cable_key(row["src"], row["dst"])
            entry = info.setdefault(key, {"loaded": False, "util": 0.0})
            if row["load"] > 0.0:
                entry["loaded"] = True
            entry["util"] = max(entry["util"], row["utilization"])
        for entry in info.values():
            entry["pr5_ports"] = (
                2 if (not spec.network.switch_off or entry["loaded"]) else 0
            )
        return info

    @staticmethod
    def _rate(spec: ControlSpec, utilization: float) -> float:
        """Smallest configured rate covering the utilization (rates are
        sorted ascending and always end in 1.0)."""
        for rate in spec.link_rates:
            if utilization <= rate + _TOL:
                return rate
        return 1.0

    def _candidate(
        self,
        spec: ControlSpec,
        config: str,
        record: NetworkRecord,
        pruned: tuple[tuple[str, str], ...],
        prev_asleep: frozenset,
    ) -> dict[str, Any]:
        """Evaluate one candidate configuration for one epoch.

        ``fixed`` bypasses the overlay entirely — its power is the
        record's own total, i.e. the no-control baseline.
        """
        totals = record.totals
        cables = self._cable_info(spec, record)
        overlay = spec.states_active and config != "fixed"
        asleep: frozenset = frozenset()
        if overlay and spec.sleep:
            asleep = frozenset(
                cable
                for cable, entry in cables.items()
                if not entry["loaded"]
            )
        if overlay:
            port_power_w = spec.network.port_power_w
            pr5_cable_ports = sum(e["pr5_ports"] for e in cables.values())
            non_cable_power = (
                totals["power_w"] - pr5_cable_ports * port_power_w
            )
            cable_power = 0.0
            for cable, entry in cables.items():
                if cable in asleep:
                    cable_power += (
                        2.0 * port_power_w * spec.sleep_power_fraction
                    )
                else:
                    cable_power += (
                        2.0 * port_power_w * self._rate(spec, entry["util"])
                    )
            transition = (
                len(asleep - prev_asleep)
                * spec.wake_energy_j
                / spec.series.epoch_seconds
            )
            power = non_cable_power + cable_power + transition
            powered = (
                totals["powered_ports"]
                - pr5_cable_ports
                + 2 * (len(cables) - len(asleep))
            )
            port_power = (
                power
                - transition
                - totals["fabric_power_w"]
                - totals.get("propagation_power_w", 0.0)
            )
        else:
            transition = 0.0
            power = totals["power_w"]
            powered = totals["powered_ports"]
            port_power = totals["port_power_w"]
        down = set(pruned) | set(asleep)
        return {
            "config": config,
            "record": record,
            "asleep": asleep,
            "power_w": power,
            "transition_power_w": transition,
            "powered_ports": powered,
            "port_power_w": port_power,
            "links_up": len(cables) - len(down),
            "links_asleep": len(asleep),
            "max_link_utilization": totals["max_link_utilization"],
            "fabric_power_w": totals["fabric_power_w"],
            "propagation_power_w": totals.get("propagation_power_w", 0.0),
        }

    def _evaluate(
        self,
        spec: ControlSpec,
        headroom: float,
        baselines: dict[float, NetworkRecord],
        epoch_specs: dict[float, Any],
        plan_cache: dict[tuple, Any],
        routed_cache: dict[tuple, NetworkRecord],
        workers: int | None,
        executor: str,
        store: "RunRecordStore | None",
        retry: RetryPolicy | None = None,
        journal: "CampaignJournal | None" = None,
        faults: FaultPlan | None = None,
        report: BatchReport | None = None,
    ) -> tuple[list[dict[str, Any]], list[NetworkRecord]]:
        """One pass over the series at one SLA headroom: per epoch,
        evaluate the candidates and keep the strictly cheapest (ties
        prefer the simpler configuration, ``fixed`` first)."""
        rows: list[dict[str, Any]] = []
        records: list[NetworkRecord] = []
        prev_asleep: frozenset = frozenset()
        for epoch in range(spec.series.epochs):
            scale = spec.series.scales[epoch]
            baseline = baselines[scale]
            fixed = self._candidate(spec, "fixed", baseline, (), prev_asleep)
            candidates = [fixed]
            if spec.states_active:
                candidates.append(
                    self._candidate(
                        spec, "states", baseline, (), prev_asleep
                    )
                )
            if spec.optimize:
                plan_key = (scale, headroom)
                if plan_key not in plan_cache:
                    plan_cache[plan_key] = optimize_routing(
                        spec.network.topology,
                        spec.series.base.scaled(scale),
                        mode=spec.network.routing,
                        max_utilization=headroom,
                    )
                plan = plan_cache[plan_key]
                # No pruning -> identical routing -> identical to the
                # fixed/states candidates; skip the redundant run.
                if plan.pruned_cables:
                    routed_key = (scale, plan.pruned_cables)
                    if routed_key not in routed_cache:
                        routed_cache[routed_key] = self.network.run_routed(
                            epoch_specs[scale],
                            plan.routing,
                            workers=workers,
                            executor=executor,
                            store=store,
                            retry=retry,
                            journal=journal,
                            faults=faults,
                            report=report,
                        )
                    candidates.append(
                        self._candidate(
                            spec,
                            "optimized",
                            routed_cache[routed_key],
                            plan.pruned_cables,
                            prev_asleep,
                        )
                    )
            chosen = candidates[0]
            for candidate in candidates[1:]:
                if candidate["power_w"] < chosen["power_w"]:
                    chosen = candidate
            prev_asleep = chosen["asleep"]
            row = {
                "epoch": epoch,
                "start_s": epoch * spec.series.epoch_seconds,
                "scale": scale,
                "total_demand": chosen["record"].totals["total_demand"],
                "config": chosen["config"],
                "links_up": chosen["links_up"],
                "links_asleep": chosen["links_asleep"],
                "powered_ports": chosen["powered_ports"],
                "max_link_utilization": chosen["max_link_utilization"],
                "fabric_power_w": chosen["fabric_power_w"],
                "port_power_w": chosen["port_power_w"],
                "propagation_power_w": chosen["propagation_power_w"],
                "transition_power_w": chosen["transition_power_w"],
                "power_w": chosen["power_w"],
                "fixed_power_w": fixed["power_w"],
                "savings_w": fixed["power_w"] - chosen["power_w"],
            }
            if spec.grid_intensity_gco2_per_kwh:
                # W x s -> J; J / 3.6e6 -> kWh; x gCO2/kWh -> gCO2.
                # Only emitted when an intensity is configured, so
                # existing exports stay byte-identical.
                row["carbon_gco2"] = (
                    chosen["power_w"]
                    * spec.series.epoch_seconds
                    / 3.6e6
                    * spec.grid_intensity_gco2_per_kwh
                )
            rows.append(row)
            records.append(chosen["record"])
        return rows, records

    @staticmethod
    def _sla_row(
        spec: ControlSpec, headroom: float, rows: list[dict[str, Any]]
    ) -> dict[str, Any]:
        seconds = spec.series.epoch_seconds
        energy = sum(row["power_w"] for row in rows) * seconds
        fixed_energy = sum(row["fixed_power_w"] for row in rows) * seconds
        savings = fixed_energy - energy
        count = len(rows)
        return {
            "max_utilization": headroom,
            "energy_j": energy,
            "fixed_energy_j": fixed_energy,
            "savings_j": savings,
            "savings_pct": (
                100.0 * savings / fixed_energy if fixed_energy > 0.0 else 0.0
            ),
            "mean_power_w": sum(row["power_w"] for row in rows) / count,
            "peak_power_w": max(row["power_w"] for row in rows),
            "mean_links_up": sum(row["links_up"] for row in rows) / count,
            "min_links_up": min(row["links_up"] for row in rows),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        spec: ControlSpec,
        workers: int | None = None,
        executor: str = "thread",
        store: "RunRecordStore | None" = None,
        figures: "DerivedRecordStore | None" = None,
        retry: RetryPolicy | None = None,
        journal: "CampaignJournal | None" = None,
        faults: FaultPlan | None = None,
        report: BatchReport | None = None,
    ) -> ControlRecord:
        """Execute the spec into a :class:`ControlRecord`.

        Parameters mirror :meth:`NetworkPowerModel.run`; ``figures``
        short-circuits the whole series when the control spec's content
        hash is already in the derived-figure store, and also caches
        each epoch's fixed-routing baseline under kind ``"network"``.

        A ``retry`` policy with ``on_failure="record"`` is tightened to
        ``"raise"`` here: the savings arithmetic compares complete
        epochs against complete baselines, so a partial epoch would
        poison every derived number — retries, timeouts, and the
        journal still apply, but a permanently failed unit fails the
        run instead of leaving a hole.
        """
        if retry is not None and retry.on_failure != "raise":
            retry = retry.replace(on_failure="raise")
        if figures is not None:
            cached = figures.get(spec.content_hash(), "control")
            if cached is not None:
                return ControlRecord.from_dict(cached)
        baselines: dict[float, NetworkRecord] = {}
        epoch_specs: dict[float, Any] = {}
        for epoch in range(spec.series.epochs):
            scale = spec.series.scales[epoch]
            if scale in baselines:
                continue
            epoch_spec = spec.epoch_network(epoch)
            epoch_specs[scale] = epoch_spec
            baselines[scale] = self.network.run(
                epoch_spec,
                workers=workers,
                executor=executor,
                store=store,
                figures=figures,
                retry=retry,
                journal=journal,
                faults=faults,
                report=report,
            )
        plan_cache: dict[tuple, Any] = {}
        routed_cache: dict[tuple, NetworkRecord] = {}
        sla_rows: list[dict[str, Any]] = []
        primary: tuple[list, list] | None = None
        for headroom in spec.headrooms():
            rows, records = self._evaluate(
                spec,
                headroom,
                baselines,
                epoch_specs,
                plan_cache,
                routed_cache,
                workers,
                executor,
                store,
                retry=retry,
                journal=journal,
                faults=faults,
                report=report,
            )
            sla_rows.append(self._sla_row(spec, headroom, rows))
            if headroom == spec.max_utilization:
                primary = (rows, records)
        assert primary is not None  # max_utilization is always evaluated
        rows, records = primary
        summary = next(
            row
            for row in sla_rows
            if row["max_utilization"] == spec.max_utilization
        )
        count = len(rows)
        totals = {
            "epochs": spec.series.epochs,
            "epoch_seconds": spec.series.epoch_seconds,
            "duration_s": spec.series.duration_s,
            "cables": len(cables_of(spec.network.topology)),
            "max_utilization": spec.max_utilization,
            "energy_j": summary["energy_j"],
            "fixed_energy_j": summary["fixed_energy_j"],
            "savings_j": summary["savings_j"],
            "savings_pct": summary["savings_pct"],
            "mean_power_w": summary["mean_power_w"],
            "peak_power_w": summary["peak_power_w"],
            "mean_fixed_power_w": (
                sum(row["fixed_power_w"] for row in rows) / count
            ),
            "mean_savings_w": sum(row["savings_w"] for row in rows) / count,
            "mean_links_up": summary["mean_links_up"],
            "min_links_up": summary["min_links_up"],
        }
        if spec.grid_intensity_gco2_per_kwh:
            # J / 3.6e6 -> kWh; x gCO2/kWh -> gCO2 over the series.
            totals["carbon_gco2"] = (
                summary["energy_j"] / 3.6e6
                * spec.grid_intensity_gco2_per_kwh
            )
            totals["fixed_carbon_gco2"] = (
                summary["fixed_energy_j"] / 3.6e6
                * spec.grid_intensity_gco2_per_kwh
            )
        record = ControlRecord(
            spec=spec,
            epochs=rows,
            sla=sla_rows,
            totals=totals,
            detail={"epoch_records": records, "baselines": baselines},
        )
        if figures is not None:
            figures.put(spec.content_hash(), "control", record.to_dict())
        return record


def run_control(
    spec: "ControlSpec | str",
    session: PowerModel | None = None,
    workers: int | None = None,
    executor: str = "thread",
    store: "RunRecordStore | None" = None,
    figures: "DerivedRecordStore | None" = None,
    retry: RetryPolicy | None = None,
    journal: "CampaignJournal | None" = None,
    faults: FaultPlan | None = None,
    report: BatchReport | None = None,
) -> ControlRecord:
    """Execute a control spec (or preset name) into a record."""
    if isinstance(spec, str):
        from repro.control.presets import get_control

        spec = get_control(spec)
    if not isinstance(spec, ControlSpec):
        raise ConfigurationError(
            f"spec must be a ControlSpec or preset name, got {spec!r}"
        )
    return ControlModel(session).run(
        spec,
        workers=workers,
        executor=executor,
        store=store,
        figures=figures,
        retry=retry,
        journal=journal,
        faults=faults,
        report=report,
    )


def render_control_report(record: ControlRecord) -> str:
    """Human-readable report: epoch table, SLA curve, totals."""
    from repro.analysis.report import format_table
    from repro.units import to_mW

    spec = record.spec
    header = (
        f"control {spec.name}: {spec.series.epochs} epochs x "
        f"{spec.series.epoch_seconds:g} s on network {spec.network.name} "
        f"(routing={spec.network.routing}, optimize="
        f"{'on' if spec.optimize else 'off'}, sleep="
        f"{'on' if spec.sleep else 'off'}, "
        f"rates={list(spec.link_rates)}, "
        f"headroom={spec.max_utilization:g})"
    )
    epoch_rows = [
        [
            str(row["epoch"]),
            f"{row['scale']:.3f}",
            row["config"],
            f"{row['links_up']}/{record.totals['cables']}",
            str(row["links_asleep"]),
            f"{row['max_link_utilization']:.1%}",
            f"{to_mW(row['power_w']):.4f}",
            f"{to_mW(row['fixed_power_w']):.4f}",
            f"{to_mW(row['savings_w']):.4f}",
        ]
        for row in record.epochs
    ]
    sections = [
        format_table(
            ["epoch", "scale", "config", "links up", "asleep", "max util",
             "power mW", "fixed mW", "saved mW"],
            epoch_rows,
            title="per-epoch power",
        )
    ]
    if len(record.sla) > 1:
        sla_rows = [
            [
                f"{row['max_utilization']:g}",
                f"{row['savings_j']:.6g}",
                f"{row['savings_pct']:.2f}%",
                f"{to_mW(row['mean_power_w']):.4f}",
                f"{row['mean_links_up']:.2f}",
            ]
            for row in record.sla
        ]
        sections.append(
            format_table(
                ["headroom", "saved J", "saved %", "mean mW",
                 "mean links up"],
                sla_rows,
                title="savings vs SLA headroom",
            )
        )
    totals = record.totals
    sections.append(
        f"total: {totals['energy_j']:.6g} J over {totals['duration_s']:g} s "
        f"(fixed {totals['fixed_energy_j']:.6g} J; saved "
        f"{totals['savings_j']:.6g} J = {totals['savings_pct']:.2f}%) | "
        f"mean power {to_mW(totals['mean_power_w']):.4f} mW | "
        f"links up {totals['min_links_up']}-{totals['cables']} "
        f"(mean {totals['mean_links_up']:.2f})"
    )
    return "\n\n".join([header] + sections)
