#!/usr/bin/env python
"""Control-plane walkthrough: demand series → per-epoch policies → savings.

Builds a dumbbell network and drives it through a step-shaped demand
series with every control knob on: green routing (greedy link pruning
inside an SLA utilization headroom), per-link sleep states (with a
one-shot wake-energy charge) and discrete rate adaptation.  Shows the
per-epoch candidate choice, the power-vs-time and savings-vs-SLA rows
of the ``ControlRecord``, the green-routing pruner on its own, and the
derived-figure cache that serves warm re-runs without executing
anything.

Run:  python examples/control_plane.py
"""

import tempfile
from pathlib import Path

from repro.api.store import DerivedRecordStore
from repro.control import (
    ControlModel,
    ControlSpec,
    DemandSeries,
    run_control,
)
from repro.control.optimizer import optimize_routing
from repro.network import (
    Demand,
    NetworkSpec,
    TrafficMatrix,
    dumbbell,
)
from repro.units import to_mW


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A network under a time-varying demand series.
    # ------------------------------------------------------------------
    network = NetworkSpec(
        name="dumbbell",
        topology=dumbbell(3, 3),
        matrix=TrafficMatrix(
            (
                Demand("l0", "r0", 0.30),
                Demand("l1", "r1", 0.25),
                Demand("l2", "r0", 0.20),
            )
        ),
        port_power_w=0.005,  # 5 mW interface overhead per powered port
        base={"arrival_slots": 400, "warmup_slots": 80, "seed": 2002},
    )
    spec = ControlSpec(
        name="demo_day",
        network=network,
        series=DemandSeries.step(
            network.matrix, levels=(1.0, 0.5, 0.25, 1.0), name="day"
        ),
        optimize=True,          # green routing ...
        max_utilization=0.9,    # ... inside this SLA headroom
        sla_sweep=(0.5, 0.75),  # extra headrooms for the savings curve
        link_rates=(0.25, 0.5, 1.0),
        sleep=True,
        sleep_power_fraction=0.1,
        wake_energy_j=0.5,
    )
    print(f"spec {spec.name}: {len(spec.series.scales)} epochs x "
          f"{spec.series.epoch_seconds:g} s, headroom {spec.max_utilization}")
    print("JSON round-trips:", ControlSpec.from_json(spec.to_json()) == spec)
    print()

    # ------------------------------------------------------------------
    # 2. The green-routing pruner is inspectable on its own.
    # ------------------------------------------------------------------
    plan = optimize_routing(
        network.topology, network.matrix, "shortest", max_utilization=0.9
    )
    print(f"green routing prunes {len(plan.pruned_cables)} cables "
          f"(max utilization {plan.max_link_utilization:.1%}):")
    for cable in plan.pruned_cables:
        print(f"  down: {cable[0]}<->{cable[1]}")
    print()

    # ------------------------------------------------------------------
    # 3. Run: per epoch the cheapest of {fixed, states, optimized} wins.
    # ------------------------------------------------------------------
    record = run_control(spec, workers=4)
    print("power vs time (savings vs the fixed baseline are >= 0):")
    for row in record.epochs:
        print(f"  epoch {row['epoch']} (scale {row['scale']:.2f}): "
              f"{row['config']:<9s} {to_mW(row['power_w']):8.4f} mW, "
              f"{row['links_up']} links up, {row['links_asleep']} asleep, "
              f"saved {to_mW(row['savings_w']):.4f} mW")
    totals = record.totals
    print(f"series: {totals['savings_pct']:.1f}% energy saved "
          f"({totals['savings_j']:.1f} J of {totals['fixed_energy_j']:.1f} J)")
    print()

    # ------------------------------------------------------------------
    # 4. The savings-vs-SLA curve: tighter headroom, fewer links down.
    # ------------------------------------------------------------------
    print("savings vs SLA headroom:")
    for row in record.sla:
        print(f"  headroom {row['max_utilization']:.2f}: "
              f"{row['savings_pct']:5.1f}% saved, "
              f"min {row['min_links_up']} links up")
    print()

    # ------------------------------------------------------------------
    # 5. A warm figure cache serves the whole record without running.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        figures = DerivedRecordStore(Path(tmp) / "figures.jsonl")
        cold = ControlModel().run(spec, workers=4, figures=figures)
        warm_store = DerivedRecordStore(Path(tmp) / "figures.jsonl")
        warm = ControlModel().run(spec, figures=warm_store)
        print("warm figure cache:", warm_store.stats())
        print("byte-identical CSV:", warm.to_csv() == cold.to_csv())
    print()

    # ------------------------------------------------------------------
    # 6. Presets one-liners (the CLI fronts exactly this).
    # ------------------------------------------------------------------
    record = run_control("fat_tree_diurnal", workers=4)
    print(f"fat_tree_diurnal: {record.totals['savings_pct']:.1f}% saved, "
          f"links up {record.totals['min_links_up']}-"
          f"{record.totals['cables']} over the day")


if __name__ == "__main__":
    main()
