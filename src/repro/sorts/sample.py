"""Parallel sample sort under any programming model (Section 3.2).

Five phases: (1) each process radix-sorts its own keys; (2) each selects
128 sample keys; (3) splitters are chosen from the collected samples
(group leaders under CC-SAS, Allgather + redundant local computation under
MPI/SHMEM); (4) keys are distributed in one all-to-all with exactly one
contiguous chunk per process pair; (5) each process sorts what it
received.  Sample sort thus does almost double the sorting work of radix
sort but its communication is far better behaved -- no scattered writes,
no per-chunk messages.

The phases themselves are defined once in :mod:`repro.sorts.program`;
this module holds the simulator's public entry point.
"""

from __future__ import annotations

from ..models import ProgrammingModel
from .radix import ParallelSort


class ParallelSampleSort(ParallelSort):
    """Sample sort on the simulated machine under one programming model.

    ``radix`` is the radix of the *local* radix sorts; the paper finds 11
    optimal for sample sort (Figure 10) vs. 8 for parallel radix sort,
    because reducing local passes matters more when communication is cheap.
    """

    algorithm = "sample"

    def __init__(self, model: ProgrammingModel | str, radix: int = 11):
        super().__init__(model, radix)
