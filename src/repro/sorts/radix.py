"""Parallel radix sort under any programming model (Section 3.1).

Per pass (one per radix digit): every process histograms its keys, local
histograms are accumulated globally (prefix tree under CC-SAS, Allgather
under MPI/SHMEM), and keys are permuted into the output array -- an
all-to-all personalized communication whose orchestration is the whole
difference between the models:

- CC-SAS writes each key straight to its (mostly remote) destination;
- CC-SAS-NEW / MPI / SHMEM first permute into local per-chunk buffers,
  then move contiguous chunks (separate messages per chunk for MPI, the
  variant the paper found faster; receiver-initiated gets for SHMEM).

The passes themselves are defined once in :mod:`repro.sorts.program`;
this module holds the simulator's public entry point, which runs that
program on a discrete-event :class:`~repro.smp.team.Team`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.distributions import KEY_BITS
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..models import ProgrammingModel, get_model
from ..smp.perf import PerfReport
from ..smp.team import Team
from .program import drive, walk


@dataclass(frozen=True)
class SortOutcome:
    """Sorted keys plus the simulated performance of producing them."""

    sorted_keys: np.ndarray
    report: PerfReport
    algorithm: str
    model_name: str
    radix: int
    n_labeled: int
    n_procs: int
    passes: int

    @property
    def time_ns(self) -> float:
        return self.report.total_time_ns

    @property
    def time_us(self) -> float:
        return self.report.total_time_us

    def speedup_vs(self, sequential_ns: float) -> float:
        return self.report.speedup_vs(sequential_ns)


def default_machine(n_procs: int = 64, page_bytes: int = 64 * 1024) -> MachineConfig:
    """The paper's machine at full capacity scale, with the tuned page size
    (64 KB for 1M-64M keys; pass 256 KB for 256M, per Section 4)."""
    return MachineConfig.origin2000(
        n_processors=n_procs, scale=1, page_bytes=page_bytes
    )


class ParallelSort:
    """One algorithm on the simulated machine under one programming model:
    the shared entry point of :class:`ParallelRadixSort` and
    :class:`~repro.sorts.sample.ParallelSampleSort`."""

    algorithm: str

    def __init__(self, model: ProgrammingModel | str, radix: int):
        self.model = get_model(model) if isinstance(model, str) else model
        if not 1 <= radix <= 16:
            raise ValueError("radix must be in [1, 16]")
        self.radix = radix

    def run(
        self,
        keys: np.ndarray,
        n_procs: int | None = None,
        machine: MachineConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        n_labeled: int | None = None,
        key_bits: int = KEY_BITS,
    ) -> SortOutcome:
        if machine is None:
            machine = default_machine(n_procs or 64)
        p = n_procs if n_procs is not None else machine.n_processors
        team = Team(machine, p, costs, label=f"{self.algorithm}/{self.model.name}")
        stats, sorted_keys = walk(
            keys, self.algorithm, p, self.radix, n_labeled, key_bits
        )
        drive(team, self.model, stats)
        return SortOutcome(
            sorted_keys=sorted_keys,
            report=team.report(),
            algorithm=self.algorithm,
            model_name=self.model.name,
            radix=self.radix,
            n_labeled=stats.n,
            n_procs=p,
            passes=stats.passes,
        )


class ParallelRadixSort(ParallelSort):
    """Radix sort on the simulated machine under one programming model."""

    algorithm = "radix"

    def __init__(self, model: ProgrammingModel | str, radix: int = 8):
        super().__init__(model, radix)
