"""Radix and sample sort, defined once: a data-plane walk plus a phase driver.

Every backend that charges modeled costs runs the same two calls:

1. :func:`walk` sorts the keys functionally, pass by pass, and measures
   what the cost phases consume -- per-pass traffic and chunk matrices,
   destination locality, active write streams and, for sample sort, the
   splitter-induced distribution matrix.  The result is a
   :class:`WorkloadStats` plus the sorted keys.
2. :func:`drive` emits the algorithm's phase sequence for those statistics
   onto a team.

The simulator (:class:`~repro.sorts.radix.ParallelRadixSort`,
:class:`~repro.sorts.sample.ParallelSampleSort`) drives a plain
discrete-event :class:`~repro.smp.team.Team`; the analytic predictor
(:mod:`repro.predict`) drives a ``PredictTeam`` that swaps only the
MPI/SHMEM exchange for a closed form, and may instead derive the
statistics in closed form (``repro.predict.analytic``).

Labeled vs. actual size: the walk sorts the actual (sample-size) keys and
extrapolates every cost-relevant quantity to ``n_labeled`` (see
:mod:`repro.sorts.common`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.distributions import KEY_BITS
from ..machine.access import BucketedAppend, SequentialScan
from ..machine.placement import partition_home
from ..models import ProgrammingModel, get_model
from ..smp.phases import Transport, uniform_compute
from ..smp.team import Team
from ..verify.context import current_sanitizer
from .common import (
    ELEM_BYTES,
    SAMPLES_PER_PROC,
    CommMatrices,
    apply_radix_pass,
    choose_splitters,
    digits_for_pass,
    elem_bytes_for,
    measure_locality,
    n_passes,
    partition_counts,
    proc_histograms,
    radix_comm_matrices,
    select_samples,
)
from .local_sort import local_pass_stats, local_sort_pass_phase


# ----------------------------------------------------------------------
# Workload statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RadixPassStats:
    """Statistics of one parallel radix-sort pass."""

    comm: CommMatrices
    locality: float
    active_buckets: int


@dataclass(frozen=True)
class LocalSortStats:
    """Statistics of one complete local radix sort (all passes)."""

    counts: np.ndarray  # (p,) labeled per-processor key counts
    actives: np.ndarray  # (passes, p) active write streams
    localities: np.ndarray  # (passes, p) destination locality


@dataclass(frozen=True)
class WorkloadStats:
    """Everything the phase driver needs to know about a workload."""

    algorithm: str
    n: int  # labeled key count
    p: int
    radix: int
    key_bits: int
    passes: int
    # Parallel radix sort:
    radix_passes: tuple[RadixPassStats, ...] = ()
    # Sample sort:
    local1: LocalSortStats | None = None
    local2: LocalSortStats | None = None
    distribute: CommMatrices | None = None


def validate_workload(algorithm: str, n: int, p: int, radix: int) -> None:
    """Reject workloads no driver can run."""
    if algorithm not in ("radix", "sample"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if n <= 0 or p <= 0 or n % p != 0:
        raise ValueError("n must be a positive multiple of n_procs")
    if not 1 <= radix <= 16:
        raise ValueError("radix must be in [1, 16]")


# ----------------------------------------------------------------------
# The data-plane walk
# ----------------------------------------------------------------------
def local_sort_walk(
    parts: list[np.ndarray],
    labeled_counts: np.ndarray,
    radix: int,
    passes: int,
) -> tuple[LocalSortStats, list[np.ndarray]]:
    """Per-processor local radix sorts: per-pass statistics of every
    partition with a positive labeled count, and the sorted partitions."""
    p = len(parts)
    if len(labeled_counts) != p:
        raise ValueError("parts and labeled_counts must have equal length")
    actives = np.ones((passes, p))
    localities = np.zeros((passes, p))
    cur = [np.asarray(part) for part in parts]
    for k in range(passes):
        for i in range(p):
            if float(labeled_counts[i]) <= 0:
                continue
            actives[k, i], localities[k, i] = local_pass_stats(cur[i], k, radix)
        # Functional pass, partition-local and stable.
        for i in range(p):
            if len(cur[i]):
                digits = digits_for_pass(cur[i], k, radix)
                cur[i] = cur[i][np.argsort(digits, kind="stable")]
    return (
        LocalSortStats(
            counts=np.asarray(labeled_counts, dtype=np.float64),
            actives=actives,
            localities=localities,
        ),
        cur,
    )


def walk(
    keys: np.ndarray,
    algorithm: str,
    p: int,
    radix: int,
    n_labeled: int | None = None,
    key_bits: int = KEY_BITS,
) -> tuple[WorkloadStats, np.ndarray]:
    """Sort ``keys`` with ``algorithm`` on ``p`` processes and measure the
    workload statistics of doing so, extrapolated to ``n_labeled``.

    Returns the statistics and the functionally sorted keys.
    """
    keys = np.ascontiguousarray(keys)
    n_actual = len(keys)
    n = n_labeled if n_labeled is not None else n_actual
    validate_workload(algorithm, n_actual, p, radix)
    if n % n_actual != 0 or n < n_actual:
        raise ValueError(
            f"n_labeled={n} must be a multiple of the actual key count "
            f"{n_actual}"
        )
    scale = n // n_actual
    passes = n_passes(radix, key_bits)
    elem_bytes = elem_bytes_for(key_bits)
    n_per = n // p
    n_actual_per = n_actual // p

    if algorithm == "radix":
        cur = keys
        pass_stats = []
        for k in range(passes):
            digits = digits_for_pass(cur, k, radix)
            hist = proc_histograms(digits, p, radix)
            locality = measure_locality(digits, p)
            active = int(np.count_nonzero(hist.sum(axis=0))) or 1
            comm = radix_comm_matrices(
                hist, n_actual_per, scale, elem_bytes=elem_bytes
            )
            pass_stats.append(RadixPassStats(comm, locality, active))
            cur = apply_radix_pass(cur, digits)
        stats = WorkloadStats(
            algorithm, n, p, radix, key_bits, passes,
            radix_passes=tuple(pass_stats),
        )
        return stats, cur

    # Sample sort.  Phase 1: local sorts of the initial partitions.
    parts = [
        keys[i * n_actual_per : (i + 1) * n_actual_per] for i in range(p)
    ]
    local1, sorted_parts = local_sort_walk(
        parts, np.full(p, n_per, dtype=np.int64), radix, passes
    )
    # Phases 2-3: samples and splitters.
    splitters = choose_splitters(select_samples(sorted_parts), p)
    # Phase 4: one contiguous chunk per process pair.
    counts = partition_counts(sorted_parts, splitters)
    distribute = CommMatrices(
        bytes_matrix=counts.astype(np.float64) * elem_bytes * scale,
        chunks_matrix=(counts > 0).astype(np.float64),
    )
    san = current_sanitizer()
    if san is not None:
        # Conservation: every process distributes exactly its whole
        # partition (receive sides are splitter-dependent).
        san.on_comm(
            distribute.bytes_matrix,
            distribute.chunks_matrix,
            row_bytes=float(n_per * elem_bytes),
            col_bytes=None,
            where="sample.distribute",
        )
    ends = np.cumsum(counts, axis=1)
    starts = ends - counts
    received = [
        np.concatenate(
            [sorted_parts[src][starts[src, dst] : ends[src, dst]] for src in range(p)]
        )
        if counts[:, dst].sum()
        else np.empty(0, dtype=keys.dtype)
        for dst in range(p)
    ]
    # Phase 5: local sorts of the received keys.
    labeled_recv = counts.sum(axis=0).astype(np.int64) * scale
    local2, sorted_received = local_sort_walk(
        received, labeled_recv, radix, passes
    )
    stats = WorkloadStats(
        algorithm, n, p, radix, key_bits, passes,
        local1=local1, local2=local2, distribute=distribute,
    )
    return stats, np.concatenate(sorted_received)


def measured_stats(
    keys: np.ndarray,
    algorithm: str,
    p: int,
    radix: int,
    n_labeled: int | None = None,
    key_bits: int = KEY_BITS,
) -> WorkloadStats:
    """The workload statistics of :func:`walk`, without the sorted keys."""
    return walk(keys, algorithm, p, radix, n_labeled, key_bits)[0]


# ----------------------------------------------------------------------
# Phase emission
# ----------------------------------------------------------------------
def radix_histogram_phase(
    team: Team, tag: str, n_per: int, resident: bool,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one pass's histogram phase: every processor scans its
    partition once."""
    p = team.n_procs
    busy = np.full(p, team.costs.hist_busy_ns_per_key * n_per)
    home = partition_home(team.machine)
    pattern = [
        (SequentialScan(n_per, elem_bytes, resident=resident), home)
    ]
    team.compute(uniform_compute(f"{tag}.histogram", busy, [list(pattern)] * p))


def radix_permute_phase(
    team: Team,
    model: ProgrammingModel,
    tag: str,
    n_per: int,
    n: int,
    active_buckets: int,
    locality: float,
    comm: CommMatrices,
    fits: bool,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one pass's permutation compute phase plus the model's
    all-to-all exchange."""
    p = team.n_procs
    c = team.costs
    nb = active_buckets
    busy = np.full(p, c.permute_busy_ns_per_key * n_per)
    home = partition_home(team.machine)
    read = (SequentialScan(n_per, elem_bytes, resident=fits), home)

    if model.buffers_locally:
        # Permute into local contiguous chunk buffers, then exchange.
        write = (
            BucketedAppend(n_per, nb, elem_bytes, n_per * elem_bytes, locality),
            home,
        )
        team.compute(
            uniform_compute(f"{tag}.permute-local", busy, [[read, write]] * p)
        )
        model.exchange(
            team,
            f"{tag}.exchange",
            comm,
            locality=1.0,  # chunks are contiguous once buffered
        )
    else:
        # Original CC-SAS: keys go straight into the shared output
        # array.  Locally destined keys behave like a bucketed append
        # into the local partition; remote ones are the exchange.
        patterns = []
        buckets_local = max(1, nb // p)
        for i in range(p):
            diag_keys = int(comm.bytes_matrix[i, i] / elem_bytes)
            plist = [read]
            if diag_keys > 0:
                plist.append(
                    (
                        BucketedAppend(
                            diag_keys,
                            buckets_local,
                            elem_bytes,
                            n_per * elem_bytes,
                            locality,
                        ),
                        home,
                    )
                )
            patterns.append(plist)
        team.compute(uniform_compute(f"{tag}.permute-scattered", busy, patterns))
        model.exchange(
            team,
            f"{tag}.exchange",
            comm,
            locality=locality,
            writer_buckets=nb,
            span_bytes=float(n * elem_bytes),
        )


# ----------------------------------------------------------------------
# Phase drivers
# ----------------------------------------------------------------------
def _drive_radix(team: Team, model: ProgrammingModel, stats: WorkloadStats) -> None:
    """Per pass (one per radix digit): histogram, global histogram
    accumulation, permutation with its all-to-all exchange, barrier."""
    p = team.n_procs
    n_per = stats.n // p
    nb = 1 << stats.radix
    elem_bytes = elem_bytes_for(stats.key_bits)
    fits = n_per * elem_bytes <= team.machine.l2.size_bytes
    shmem_cached = model.exchange_transport is Transport.SHMEM_GET
    for k, ps in enumerate(stats.radix_passes):
        tag = f"pass{k}"
        # Data written by the previous pass is warm only if the
        # transport deposited it in the cache (SHMEM get) or it was
        # produced locally and fits.
        warm_in = fits and k > 0 and shmem_cached
        radix_histogram_phase(team, tag, n_per, warm_in, elem_bytes)
        model.accumulate_histograms(team, nb, tag)
        radix_permute_phase(
            team, model, tag, n_per, stats.n,
            ps.active_buckets, ps.locality, ps.comm, fits, elem_bytes,
        )
        team.barrier(f"{tag}.barrier")


def _drive_sample(team: Team, model: ProgrammingModel, stats: WorkloadStats) -> None:
    """The five phases: local sort, sample selection, splitter selection,
    one all-to-all distribution, local sort of the received keys."""
    p = team.n_procs
    c = team.costs
    n_per = stats.n // p
    elem_bytes = elem_bytes_for(stats.key_bits)
    ls1, ls2 = stats.local1, stats.local2

    for k in range(stats.passes):
        local_sort_pass_phase(
            team, "localsort1", k, ls1.counts, ls1.actives[k], ls1.localities[k],
            elem_bytes=elem_bytes,
        )
    # Sample selection is cheap and local: 128 strided reads.
    team.compute(
        uniform_compute(
            "sample-select",
            np.full(p, SAMPLES_PER_PROC * c.splitter_busy_ns_per_key),
        )
    )
    model.gather_samples(team, float(SAMPLES_PER_PROC * elem_bytes), "splitters")
    # Destinations by binary search on the sorted partitions.
    team.compute(
        uniform_compute(
            "decide", np.full(p, np.log2(max(2, n_per)) * (p - 1) * 30.0)
        )
    )
    model.exchange_for_sample(team, "distribute", stats.distribute, locality=1.0)
    # Receive imbalance shows up as barrier SYNC, as on the real machine.
    sample_tp = model.sample_transport or model.exchange_transport
    got_cached = sample_tp in (Transport.SHMEM_GET, Transport.CCSAS_READ)
    for k in range(stats.passes):
        local_sort_pass_phase(
            team, "localsort2", k, ls2.counts, ls2.actives[k], ls2.localities[k],
            received_cached=got_cached, elem_bytes=elem_bytes,
        )
    team.barrier("final")


def drive(team: Team, model: ProgrammingModel | str, stats: WorkloadStats) -> None:
    """Emit the full phase sequence of ``stats`` onto ``team``."""
    mdl = get_model(model) if isinstance(model, str) else model
    if stats.algorithm == "radix":
        _drive_radix(team, mdl, stats)
    else:
        _drive_sample(team, mdl, stats)
