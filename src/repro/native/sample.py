"""Actually-parallel sample sort via multiprocessing + shared memory.

The paper's sample sort (Section 3.2) in two pool phases, with the pool's
``map`` barrier between them:

1. ``local-sort``: worker ``w`` sorts its slice of ``src`` into ``dst``.
2. In the parent (the "group leader" of the paper's CC-SAS scheme):
   samples, splitters, and the ``(p, p)`` count matrix over the sorted
   runs (:func:`repro.sorts.common.partition_counts`, the simulator's own
   searchsorted plus duplicate-splitter rebalance).
3. ``final-sort``: destination ``d`` *reads* its run from every worker's
   sorted slice in ``dst`` into ``src[base_d:...]`` and sorts that range
   in place -- the receiver-reads exchange of the CC-SAS sample sort, so
   the all-to-all needs no phase of its own.

Each phase only reads the buffer it does not write (``src`` -> ``dst``,
then ``dst`` -> ``src``), and overwrites its full output range, so a
supervised :class:`~repro.native.pool.WorkerPool` can re-run a phase
after a worker crash or timeout.  The answer is copied out of ``src``.

Heavy key duplication can leave one destination nearly everything even
after the rebalance; when the largest destination exceeds
:data:`SPLITTER_SKEW_LIMIT` times the ideal ``n / p`` share, the sort
falls back to a sequential ``np.sort`` rather than letting one worker
sort nearly everything behind a barrier the rest idle at.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from ..sorts.common import (
    SAMPLES_PER_PROC,
    choose_splitters,
    partition_counts,
    select_samples,
)
from .kernels import slice_bounds
from .pool import WorkerPool
from .shm import SharedArray, SortBuffers

#: Fall back to sequential ``np.sort`` when, even after duplicate-splitter
#: rebalancing, the largest destination range exceeds this multiple of the
#: ideal ``n / p`` share -- a final-sort phase that skewed would serialize
#: on one worker anyway.
SPLITTER_SKEW_LIMIT = 4.0


def _local_sort_task(args) -> None:
    (src_name, dst_name, n, dtype_str, p, w) = args
    with ExitStack() as stack:
        dt = np.dtype(dtype_str)
        src = stack.enter_context(SharedArray.attach(src_name, (n,), dt))
        dst = stack.enter_context(SharedArray.attach(dst_name, (n,), dt))
        lo, hi = slice_bounds(n, p, w)
        run = dst.array[lo:hi]
        run[...] = src.array[lo:hi]
        run.sort()


def _final_sort_task(args) -> None:
    (src_name, dst_name, n, dtype_str, base, pieces) = args
    with ExitStack() as stack:
        dt = np.dtype(dtype_str)
        src = stack.enter_context(SharedArray.attach(src_name, (n,), dt))
        dst = stack.enter_context(SharedArray.attach(dst_name, (n,), dt))
        at = base
        for start, count in pieces:
            src.array[at : at + count] = dst.array[start : start + count]
            at += count
        src.array[base:at].sort()


def parallel_sample_sort(
    keys: np.ndarray,
    n_workers: int | None = None,
    samples_per_worker: int = SAMPLES_PER_PROC,
    pool: WorkerPool | None = None,
    buffers: SortBuffers | None = None,
) -> np.ndarray:
    """Sort integer (or any comparable NumPy) keys with parallel sample
    sort.  Returns a new sorted array.  ``buffers=None`` uses the pool's
    own shared buffers; a provider such as the serve arena's substitutes
    for them, and its ``release_all`` is always called before returning."""
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) == 0:
        return keys.copy()

    n = len(keys)
    dtype_str = keys.dtype.str
    own_pool = pool is None
    pool = pool or WorkerPool(n_workers)
    p = max(1, min(pool.n_workers, n // 4))
    if p == 1:
        if own_pool:
            pool.close()
        if buffers is not None:
            buffers.release_all()
        return np.sort(keys)

    bufs = buffers if buffers is not None else pool.buffers
    try:
        src = bufs.from_array(keys)
        dst = bufs.empty((n,), keys.dtype)
        pool.run_phase(
            _local_sort_task,
            [(src.name, dst.name, n, dtype_str, p, w) for w in range(p)],
            name="local-sort",
        )
        bounds = [slice_bounds(n, p, w) for w in range(p)]
        runs = [dst.array[lo:hi] for lo, hi in bounds]
        splitters = choose_splitters(select_samples(runs, samples_per_worker), p)
        counts = partition_counts(runs, splitters)
        dest_totals = counts.sum(axis=0)
        if int(dest_totals.max()) > SPLITTER_SKEW_LIMIT * (n / p):
            return np.sort(keys)  # finally still releases buffers/pool
        dest_base = np.cumsum(dest_totals) - dest_totals
        # run_start[w, d]: where destination d's run starts in dst, inside
        # worker w's sorted slice.
        slice_lo = np.array([lo for lo, _ in bounds])[:, None]
        run_start = slice_lo + np.cumsum(counts, axis=1) - counts
        pool.run_phase(
            _final_sort_task,
            [(src.name, dst.name, n, dtype_str, int(dest_base[d]),
              tuple((int(run_start[w, d]), int(counts[w, d]))
                    for w in range(p) if counts[w, d]))
             for d in range(p)],
            name="final-sort",
        )
        result = src.array.copy()
    finally:
        bufs.release_all()
        if own_pool:
            pool.close()
    return result
