"""Actually-parallel LSD radix sort via multiprocessing + shared memory.

The algorithm is the paper's parallel radix sort (Section 3.1): per pass,
every worker histograms its slice (phase barrier), global offsets are
computed from the histogram matrix, and every worker permutes its keys to
their global positions in the shared output array.  The pool's ``map``
barriers stand in for the machine's barriers; the shared-memory output
array is the CC-SAS shared output array.

The per-element work runs through the cache-conscious kernel layer
(:mod:`repro.native.kernels`): validation is one fused min/max pass whose
max seeds ``key_bits`` (so a 16-bit workload pays 2 passes, not 3), each
permute is a blocked stable counting placement writing contiguous
per-bucket runs (no ``argsort``-based rank reconstruction, no defensive
chunk copy, no per-element scattered stores).

Supervised-retry safety: a permute task reads ``src`` and ``offs`` (both
unmodified -- each task advances a private cursor copy) and overwrites
its keys' ``dst`` positions, so re-running any task after a worker crash
is idempotent.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from ..sorts.common import n_passes
from . import kernels
from .kernels import slice_bounds
from .pool import WorkerPool, default_workers
from .shm import SharedArray, SortBuffers


def _hist_task(args) -> None:
    (src_name, n, dtype_str, hist_name, p, w, shift, mask) = args
    with ExitStack() as stack:
        src = stack.enter_context(
            SharedArray.attach(src_name, (n,), np.dtype(dtype_str))
        )
        hist = stack.enter_context(
            SharedArray.attach(hist_name, (p, mask + 1), np.int64)
        )
        lo, hi = slice_bounds(n, p, w)
        hist.array[w, :] = kernels.histogram(src.array[lo:hi], shift, mask)


def _permute_task(args) -> None:
    (src_name, dst_name, n, dtype_str, offs_name, p, w, shift, mask) = args
    with ExitStack() as stack:
        dt = np.dtype(dtype_str)
        src = stack.enter_context(SharedArray.attach(src_name, (n,), dt))
        dst = stack.enter_context(SharedArray.attach(dst_name, (n,), dt))
        offs = stack.enter_context(
            SharedArray.attach(offs_name, (p, mask + 1), np.int64)
        )
        lo, hi = slice_bounds(n, p, w)
        # Private running cursors: the shared offset matrix stays
        # pristine, which keeps a supervised re-run of this task
        # idempotent.
        cursor = offs.array[w].copy()
        kernels.scatter(src.array[lo:hi], dst.array, cursor, shift, mask)


def parallel_radix_sort(
    keys: np.ndarray,
    n_workers: int | None = None,
    radix: int = 11,
    pool: WorkerPool | None = None,
    buffers: SortBuffers | None = None,
) -> np.ndarray:
    """Sort non-negative integer keys with a parallel LSD radix sort.

    Returns a new sorted array; ``keys`` is left untouched.  Pass a
    :class:`~repro.native.pool.WorkerPool` to amortize worker startup over
    several sorts, and a :class:`~repro.native.shm.SortBuffers` provider
    (e.g. the serve arena's) to reuse shared buffers across sorts; the
    provider's ``release_all`` is always called before returning.
    """
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) == 0:
        return keys.copy()
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError("radix sort requires integer keys")
    if not 1 <= radix <= 20:
        raise ValueError("radix must be in [1, 20]")

    # Fused validation: one pass over memory yields both the
    # non-negativity check and the max that sizes the pass count.
    lo_key, hi_key = kernels.minmax(keys)
    if lo_key < 0:
        raise ValueError("radix sort requires non-negative keys")
    key_bits = max(1, int(hi_key).bit_length())
    passes = n_passes(radix, key_bits)
    mask = (1 << radix) - 1
    n = len(keys)
    dtype_str = keys.dtype.str

    own_pool = pool is None
    width = (
        pool.n_workers
        if pool is not None
        else (n_workers if n_workers is not None else default_workers())
    )
    p = max(1, min(width, n // 4))
    if p == 1:
        # Tiny inputs (or a one-worker pool) skip shared memory and the
        # pool entirely, mirroring sample sort's early return: the keys
        # are already validated non-negative integers, so one sequential
        # sort is the whole job.
        if buffers is not None:
            buffers.release_all()
        return np.sort(keys)
    pool = pool or WorkerPool(n_workers)

    bufs = buffers if buffers is not None else SortBuffers()
    src = bufs.from_array(keys)
    dst = bufs.empty((n,), keys.dtype)
    hist = bufs.empty((p, mask + 1), np.int64)
    offs = bufs.empty((p, mask + 1), np.int64)
    try:
        for k in range(passes):
            shift = k * radix
            pool.run_phase(
                _hist_task,
                [(src.name, n, dtype_str, hist.name, p, w, shift, mask)
                 for w in range(p)],
                name=f"pass{k}.histogram",
            )
            # Global exclusive offsets, digit-major then worker-major --
            # the same stable permutation the simulated sorts perform.
            flat = hist.array.T.reshape(-1)
            starts = np.concatenate(([0], np.cumsum(flat)[:-1]))
            offs.array[...] = starts.reshape(mask + 1, p).T
            pool.run_phase(
                _permute_task,
                [(src.name, dst.name, n, dtype_str, offs.name, p, w, shift,
                  mask) for w in range(p)],
                name=f"pass{k}.permute",
            )
            src, dst = dst, src
        result = src.array.copy()
    finally:
        bufs.release_all()
        if own_pool:
            pool.close()
    return result
