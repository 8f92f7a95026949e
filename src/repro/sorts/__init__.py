"""The sorting algorithms: sequential baseline, parallel radix, sample."""

from .common import (
    CommMatrices,
    ELEM_BYTES,
    SAMPLES_PER_PROC,
    apply_radix_pass,
    choose_splitters,
    digits_for_pass,
    estimate_support,
    measure_locality,
    n_passes,
    partition_counts,
    proc_histograms,
    radix_comm_matrices,
    rebalance_duplicate_splitters,
    select_samples,
)
from .radix import ParallelRadixSort, SortOutcome, default_machine
from .sample import ParallelSampleSort
from .sequential import (
    SequentialResult,
    default_sequential_machine,
    sequential_radix_sort,
)

ALGORITHMS = {
    "radix": ParallelRadixSort,
    "sample": ParallelSampleSort,
}

__all__ = [
    "ALGORITHMS",
    "CommMatrices",
    "ELEM_BYTES",
    "ParallelRadixSort",
    "ParallelSampleSort",
    "SAMPLES_PER_PROC",
    "SequentialResult",
    "SortOutcome",
    "apply_radix_pass",
    "choose_splitters",
    "default_machine",
    "default_sequential_machine",
    "digits_for_pass",
    "estimate_support",
    "measure_locality",
    "n_passes",
    "partition_counts",
    "proc_histograms",
    "radix_comm_matrices",
    "rebalance_duplicate_splitters",
    "select_samples",
    "sequential_radix_sort",
]
