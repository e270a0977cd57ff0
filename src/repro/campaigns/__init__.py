"""repro.campaigns — declarative paper-reproduction campaigns.

A :class:`Campaign` declares one of the paper's cross-cutting
comparisons (a figure or a table) as frozen axis definitions; running
it yields a :class:`ComparisonRecord` that aggregates every constituent
:class:`~repro.api.RunRecord` into one keyed result object with pivots,
analytical-vs-simulated deltas and CSV/JSON/markdown export:

>>> from repro.campaigns import get_campaign, run_campaign
>>> record = run_campaign("fig9", workers=4)  # doctest: +SKIP
>>> record.pivot("load", "architecture", "total_power_w",
...              where={"ports": 32})  # doctest: +SKIP

* :class:`Campaign` — frozen spec with JSON round-trip and a derived
  :meth:`~Campaign.scenarios` grid.
* :class:`ComparisonRecord` — the aggregated, exportable result.
* :func:`run_campaign` — execution through
  :meth:`~repro.api.PowerModel.run_batch` (parallel executors, JSONL
  result cache) or the table models.
* :func:`get_campaign` / :data:`PRESET_CAMPAIGNS` — the built-in
  presets (``fig9``, ``fig10``, ``table1``, ``table2``,
  ``fig9_vs_analytical``, the network kinds ``fat_tree_k4_sweep`` and
  ``dumbbell_switchoff``, the control kinds ``fat_tree_diurnal``
  and ``dumbbell_sleep_sweep``, and the surrogate-scoring kind
  ``fig9_surrogate``).
* :func:`render_report` — paper-style text report of a record.
* ``kind="network"`` campaigns sweep a :class:`repro.network`
  spec over demand scales (per-node rows under (scale, node) axes);
  ``kind="control"`` campaigns run a :mod:`repro.control` series
  (per-epoch rows plus a series total).
* :class:`~repro.api.store.DerivedRecordStore` (re-exported here) —
  the derived-figure cache: ``run_campaign(figures=...)`` serves a
  warm campaign without a session.

CLI front end: ``repro campaign run|list|report`` (see
``docs/REPRODUCING.md`` for the figure/table <-> preset <-> command
matrix).
"""

from repro.api.store import DerivedRecordStore
from repro.campaigns.campaign import CAMPAIGN_KINDS, Campaign, GRID_AXES
from repro.campaigns.comparison import ComparisonRecord
from repro.campaigns.presets import (
    PRESET_CAMPAIGNS,
    campaign_names,
    get_campaign,
)
from repro.campaigns.reporting import render_report
from repro.campaigns.runner import (
    CONTROL_AXES,
    CONTROL_METRICS,
    CONTROL_TOTAL_EPOCH,
    GRID_METRICS,
    NETWORK_AXES,
    NETWORK_METRICS,
    NETWORK_TOTAL_NODE,
    SURROGATE_AXES,
    SURROGATE_METRICS,
    campaign_plan,
    run_campaign,
)

__all__ = [
    "Campaign",
    "CAMPAIGN_KINDS",
    "GRID_AXES",
    "GRID_METRICS",
    "NETWORK_AXES",
    "NETWORK_METRICS",
    "NETWORK_TOTAL_NODE",
    "CONTROL_AXES",
    "CONTROL_METRICS",
    "CONTROL_TOTAL_EPOCH",
    "SURROGATE_AXES",
    "SURROGATE_METRICS",
    "ComparisonRecord",
    "DerivedRecordStore",
    "PRESET_CAMPAIGNS",
    "campaign_names",
    "get_campaign",
    "campaign_plan",
    "run_campaign",
    "render_report",
]
