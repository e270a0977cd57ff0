"""Surrogate-serving layer: instant what-if power queries.

Every layer below this one answers "what does this fabric/port-count/
load/tech cost in power?" by *running* something — a gate-level
characterisation, a closed-form estimate, or a cell-accurate
simulation.  That caps throughput far below the ROADMAP north star of
serving millions of what-if queries.  This package closes the gap with
a classic calibration / train / predict / drift split over the
ground-truth :class:`~repro.api.records.RunRecord` JSONL stores the
repo already accumulates:

* :mod:`repro.surrogate.dataset` — stream feature/target tables out of
  the run lines of a :mod:`repro.api.store` file without materializing
  them; derived records sharing the file are skipped (features: the
  full scenario context plus (load, ports); targets: throughput and
  total/per-component power).
* :mod:`repro.surrogate.train` — deterministic, dependency-free
  surrogates: per-context polynomial ridge on (log load, log2 ports)
  plus a nearest-operating-point interpolator, serialised as a
  JSON-round-trippable :class:`SurrogateModel` whose
  :meth:`~SurrogateModel.content_hash` is tied to the training-store
  hash.
* :mod:`repro.surrogate.predict` — microsecond ``predict(scenario)``
  with a per-prediction uncertainty band and an out-of-distribution
  gate (feature-range + leverage check) that transparently falls back
  to :meth:`repro.api.model.PowerModel.run` — bit-identical to a
  direct run whenever it falls back.
* :mod:`repro.surrogate.drift` — replays the held-out validation slice
  of a store against the model and flags when fresh simulation records
  disagree beyond tolerance, forcing a retrain.
* :mod:`repro.surrogate.serve` — a stdlib-only asyncio HTTP JSON API
  (``repro serve``) with ``/predict``, ``/batch``, ``/health`` and
  ``/stats``, JSONL request journaling, and graceful degradation
  through :mod:`repro.resilience` retry policies when a fallback
  simulation fails.
"""

from repro.surrogate.dataset import (
    TARGET_FIELDS,
    DatasetRow,
    SurrogateDataset,
    context_signature,
    dataset_from_records,
    extract_dataset,
)
from repro.surrogate.drift import DriftReport, check_drift
from repro.surrogate.predict import Prediction, SurrogatePredictor
from repro.surrogate.serve import SurrogateServer
from repro.surrogate.train import (
    SurrogateModel,
    is_holdout_key,
    train_surrogate,
)

__all__ = [
    "TARGET_FIELDS",
    "DatasetRow",
    "SurrogateDataset",
    "context_signature",
    "dataset_from_records",
    "extract_dataset",
    "SurrogateModel",
    "train_surrogate",
    "is_holdout_key",
    "Prediction",
    "SurrogatePredictor",
    "DriftReport",
    "check_drift",
    "SurrogateServer",
]
