#!/usr/bin/env python
"""Network-level power walkthrough: topology → routing → router power.

Builds a small dumbbell network, routes a hotspot traffic matrix onto
it (deriving one per-port load vector per router), runs every router
through the shared ``PowerModel`` session as one cached batch, and
aggregates into a ``NetworkRecord``.  Shows the switch-off policy
(idle ports power down; fabric power is untouched), the ECMP splitter
on a diamond topology, and the derived-figure cache that serves warm
re-runs without a session.

Run:  python examples/network_power.py
"""

import tempfile
from pathlib import Path

from repro.api.store import DerivedRecordStore, RunRecordStore
from repro.network import (
    Demand,
    Link,
    NetworkPowerModel,
    NetworkSpec,
    NetworkTopology,
    RouterNode,
    TrafficMatrix,
    dumbbell,
    route,
    run_network,
)
from repro.units import to_mW


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A spec: topology + matrix + routing + per-router base fields.
    # ------------------------------------------------------------------
    spec = NetworkSpec(
        name="demo",
        topology=dumbbell(3, 3),
        matrix=TrafficMatrix.hotspot(
            ("l0", "l1", "l2", "r0"), target="r0", demand=0.25
        ),
        switch_off=True,
        port_power_w=0.005,  # 5 mW interface overhead per powered port
        base={"arrival_slots": 400, "warmup_slots": 80, "seed": 2002},
    )
    print(f"spec {spec.name}: {len(spec.topology.nodes)} routers, "
          f"{len(spec.topology.links)} links")
    print("JSON round-trips:", NetworkSpec.from_json(spec.to_json()) == spec)
    print()

    # ------------------------------------------------------------------
    # 2. Routing is inspectable on its own (no simulation involved).
    # ------------------------------------------------------------------
    model = NetworkPowerModel()
    routing = model.route(spec)
    print("per-port ingress loads (what each router's Scenario sees):")
    for name, scenario in model.scenarios(spec, routing):
        print(f"  {name}: load={scenario.load}")
    print()

    # ------------------------------------------------------------------
    # 3. Run with a scenario cache and a derived-figure cache.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        store = RunRecordStore(Path(tmp) / "records.jsonl")
        figures = DerivedRecordStore(Path(tmp) / "figures.jsonl")
        record = model.run(spec, workers=4, store=store, figures=figures)
        totals = record.totals
        print(f"total power      : {to_mW(totals['power_w']):.4f} mW")
        print(f"  fabric         : {to_mW(totals['fabric_power_w']):.4f} mW")
        print(f"  port overhead  : {to_mW(totals['port_power_w']):.4f} mW")
        print(f"  switch-off won : {to_mW(totals['switch_off_delta_w']):.4f}"
              f" mW ({totals['powered_ports']}/{totals['total_ports']} "
              "ports powered)")
        print()

        # A warm figure cache serves the whole record without a session.
        warm = DerivedRecordStore(Path(tmp) / "figures.jsonl")
        again = NetworkPowerModel().run(spec, figures=warm)
        print("warm figure cache:", warm.stats())
        print("byte-identical CSV:", again.to_csv() == record.to_csv())
    print()

    # ------------------------------------------------------------------
    # 4. ECMP splits demand over equal-cost paths.
    # ------------------------------------------------------------------
    diamond = NetworkTopology(
        name="diamond",
        nodes=[RouterNode("a", 3), RouterNode("m1", 2),
               RouterNode("m2", 2), RouterNode("b", 3)],
        links=[Link("a", "m1"), Link("m1", "b"),
               Link("a", "m2"), Link("m2", "b")],
    )
    flows = route(diamond, TrafficMatrix((Demand("a", "b", 0.8),)), "ecmp")
    print("ECMP on the diamond (0.8 cells/slot a->b):")
    for (src, dst), load in sorted(flows.link_loads.items()):
        print(f"  {src}->{dst}: {load:.2f}")
    print()

    # ------------------------------------------------------------------
    # 5. Presets one-liners (the CLI fronts exactly this).
    # ------------------------------------------------------------------
    record = run_network("mesh4_ecmp", workers=4)
    print(f"mesh4_ecmp total: {to_mW(record.totals['power_w']):.4f} mW, "
          f"max link utilization "
          f"{record.totals['max_link_utilization']:.1%}")


if __name__ == "__main__":
    main()
