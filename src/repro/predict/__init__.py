"""Analytic performance prediction (the paper's §5 future work).

"Future work will include ... developing a formula (based on profiles)
to predict performance for each programming model."  This package is
that formula, promoted to a first-class backend:

- :mod:`~repro.predict.analytic` -- workload statistics (histograms,
  traffic matrices, localities) in closed form for uniform keys, or
  measured from model-drawn key arrays for any distribution family;
- :mod:`~repro.predict.exchange` -- a closed-form stand-in for the
  discrete-event MPI/SHMEM exchange (the simulator's only slow part);
- :mod:`~repro.predict.driver` -- :class:`PredictTeam`, on which the
  sorts' one program (:mod:`repro.sorts.program`: measured walk plus
  phase driver) runs with that closed-form exchange;
- :mod:`~repro.predict.calibration` -- fits per-(algorithm, model)
  exchange overhead factors against simulated grid cells and states the
  resulting error bands;
- :mod:`~repro.predict.backend` -- the registered ``"predict"`` backend.

A paper-scale sweep (256M keys x 64 processors x every model) predicts
in well under a second; the DES stays available for spot checks via
``backend="sim"``.
"""

from ..sorts.program import (
    LocalSortStats,
    RadixPassStats,
    WorkloadStats,
    drive,
    measured_stats,
)
from .analytic import family_stats, uniform_stats
from .backend import PredictedBackend
from .calibration import (
    Calibration,
    calibration_grid,
    default_calibration_path,
    fit_calibration,
    load_calibration,
)
from .driver import PredictTeam, predict_outcome, sequential_time_ns
from .exchange import PredictExecutor

__all__ = [
    "Calibration",
    "LocalSortStats",
    "PredictExecutor",
    "PredictTeam",
    "PredictedBackend",
    "RadixPassStats",
    "WorkloadStats",
    "calibration_grid",
    "default_calibration_path",
    "drive",
    "family_stats",
    "fit_calibration",
    "load_calibration",
    "measured_stats",
    "predict_outcome",
    "sequential_time_ns",
    "uniform_stats",
]
