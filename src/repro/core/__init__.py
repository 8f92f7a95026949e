"""Public API and experiment grid runner."""

from .api import sequential_baseline, sort
from .experiment import (
    PROC_COUNTS,
    SIZE_ORDER,
    SIZES,
    ExperimentRunner,
    RunSpec,
    paper_page_bytes,
)

__all__ = [
    "ExperimentRunner",
    "PROC_COUNTS",
    "RunSpec",
    "SIZE_ORDER",
    "SIZES",
    "paper_page_bytes",
    "sequential_baseline",
    "sort",
]
