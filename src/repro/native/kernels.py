"""Cache-conscious compute kernels for the native hot path.

The paper's core claim is that sorting speed on CC-SAS machines is won
or lost on memory traffic per pass.  The native radix sort therefore
routes every per-element loop -- validation min/max, per-pass digit
histograms, and the stable counting-sort placement -- through these
blocked pure-NumPy kernels in the IPS4o style: each worker walks its
slice in L2-resident blocks (:data:`BLOCK_ELEMS` elements), groups a
block's keys by digit with NumPy's C counting sort, and stores each
digit's keys as one contiguous run at the bucket cursor -- contiguous
per-bucket block writes instead of per-element scattered stores, and a
bincount/cumsum placement instead of an argsort-plus-rank reconstruction.
Validation fuses min and max into a single pass over memory.
"""

from __future__ import annotations

import numpy as np

#: Elements per cache block for the blocked NumPy kernels: 32Ki int64
#: keys = 256 KiB, sized to keep a block plus its digit/permutation
#: temporaries resident in a per-core L2 while streaming the slice once.
BLOCK_ELEMS = 1 << 15


def slice_bounds(n: int, p: int, w: int) -> tuple[int, int]:
    """Worker ``w``'s contiguous slice of ``n`` keys across ``p`` workers
    (the last worker absorbs the remainder)."""
    per = n // p
    lo = w * per
    hi = n if w == p - 1 else lo + per
    return lo, hi


def minmax(a: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of a non-empty 1-D integer array as Python ints.

    Each block is reduced twice while L2-resident, so the array itself is
    streamed from memory exactly once (separate ``a.min()`` and
    ``a.max()`` calls would stream it twice).
    """
    lo = a[0]
    hi = a[0]
    for s in range(0, len(a), BLOCK_ELEMS):
        blk = a[s : s + BLOCK_ELEMS]
        blo = blk.min()
        bhi = blk.max()
        if blo < lo:
            lo = blo
        if bhi > hi:
            hi = bhi
    return int(lo), int(hi)


def histogram(a: np.ndarray, shift: int, mask: int) -> np.ndarray:
    """int64 counts of ``(a >> shift) & mask`` over ``mask + 1`` bins."""
    nb = mask + 1
    out = np.zeros(nb, dtype=np.int64)
    for s in range(0, len(a), BLOCK_ELEMS):
        d = (a[s : s + BLOCK_ELEMS] >> shift) & mask
        out += np.bincount(d, minlength=nb)
    return out


def scatter(
    src: np.ndarray,
    dst: np.ndarray,
    cursor: np.ndarray,
    shift: int,
    mask: int,
) -> None:
    """Stable counting-sort placement with contiguous per-bucket stores.

    Writes ``src``'s keys into the global ``dst`` at per-digit positions
    starting from ``cursor`` (an int64 array of ``mask + 1`` running
    bucket cursors, advanced in place), preserving the original order of
    equal digits.  Per L2-resident block: extract digits, group the
    block's keys by digit (NumPy's stable sort on small unsigned ints is
    its C counting sort), then store every digit's keys as one contiguous
    run at that bucket's cursor.  The only non-sequential access is one
    store per *run* rather than per *element*, which is the IPS4o
    blocked-bucket discipline this pass borrows.
    """
    nb = mask + 1
    arange = np.arange(min(BLOCK_ELEMS, len(src)), dtype=np.int64)
    for s in range(0, len(src), BLOCK_ELEMS):
        blk = src[s : s + BLOCK_ELEMS]
        d = (blk >> shift) & mask
        counts = np.bincount(d, minlength=nb)
        # Group by digit.  Digits fit in uint16 for every radix <= 16,
        # where NumPy's stable argsort is an O(block) counting sort.
        key = d.astype(np.uint16) if nb <= (1 << 16) else d
        grouped = blk[np.argsort(key, kind="stable")]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # Element k of the grouped block (digit d, in-block rank
        # k - starts[d]) lands at cursor[d] + (k - starts[d]): one
        # piecewise-linear index vector, runs stored contiguously.
        base = np.repeat(cursor - starts, counts)
        dst[base + arange[: len(blk)]] = grouped
        cursor += counts
