"""Pool-owned sort buffers and the two-phase native sample sort.

A persistent :class:`WorkerPool` keeps the shared blocks its sorts lease
and reuses them, so a steady stream of same-sized sorts creates no
segment after the first; ``close()`` unlinks them.  Sample sort runs as
two pool phases over exactly two buffers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.native import shm
from repro.native.pool import WorkerPool
from repro.native.radix import parallel_radix_sort
from repro.native.sample import parallel_sample_sort
from repro.native.shm import SortBuffers
from repro.serve.arena import Arena

SORTS = {"radix": parallel_radix_sort, "sample": parallel_sample_sort}


def _psm_files() -> set[str]:
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {p.name for p in shm_dir.glob("psm_*")}


def _keys(seed: int, n: int = 20_000) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 40, n, dtype=np.int64)


class TestSortBuffers:
    def test_release_keeps_blocks_for_the_next_fit(self):
        bufs = SortBuffers()
        try:
            a = bufs.empty(1000, np.int64)
            b = bufs.empty(10, np.int64)
            names = {a.name, b.name}
            bufs.release_all()
            before = shm.create_count()
            # Smallest fit: the small request takes the small block.
            small = bufs.empty(5, np.int32)
            big = bufs.from_array(np.arange(900, dtype=np.int64))
            assert {small.name, big.name} == names
            assert small.name == b.name
            assert np.array_equal(big.array, np.arange(900))
            assert shm.create_count() == before
        finally:
            bufs.close()

    def test_miss_unlinks_the_too_small_free_blocks(self):
        bufs = SortBuffers()
        try:
            old = bufs.empty(10, np.int64).name
            bufs.release_all()
            new = bufs.empty(10_000, np.int64).name
            assert new != old
            assert old not in _psm_files()
            assert new in _psm_files()
        finally:
            bufs.close()

    def test_close_unlinks_free_and_held(self):
        bufs = SortBuffers()
        free = bufs.empty(64).name
        bufs.release_all()
        held = bufs.empty(1 << 12).name
        bufs.close()
        assert not ({free, held} & _psm_files())
        bufs.close()  # idempotent


@pytest.mark.parametrize("algorithm", sorted(SORTS))
class TestSteadyState:
    def test_warm_pool_creates_no_segment(self, algorithm):
        sort = SORTS[algorithm]
        with WorkerPool(2) as pool:
            sort(_keys(0), pool=pool)  # warm-up
            before = shm.create_count()
            for i in range(10):
                keys = _keys(i + 1)
                assert np.array_equal(sort(keys, pool=pool), np.sort(keys))
            assert shm.create_count() == before

    def test_close_leaves_no_segment(self, algorithm):
        before = _psm_files()
        pool = WorkerPool(2)
        try:
            SORTS[algorithm](_keys(0), pool=pool)
            assert _psm_files() - before, "the pool keeps its buffers"
        finally:
            pool.close()
        assert _psm_files() - before == set()

    def test_arena_buffers_leave_pool_buffers_uncreated(self, algorithm):
        sort = SORTS[algorithm]
        with Arena(data_bytes=1 << 20, meta_bytes=1 << 16) as arena:
            before_files = _psm_files()
            before = shm.create_count()
            with WorkerPool(2) as pool:
                for i in range(3):
                    keys = _keys(i)
                    out = sort(keys, pool=pool, buffers=arena.buffers())
                    assert np.array_equal(out, np.sort(keys))
                assert shm.create_count() == before
            assert arena.in_use() == 0
            assert _psm_files() - before_files == set()


class TestTwoPhaseSample:
    def test_records_exactly_two_phases(self):
        with WorkerPool(2, collect_timings=True) as pool:
            parallel_sample_sort(_keys(3), pool=pool)
            assert [t.name for t in pool.timings] == ["local-sort", "final-sort"]

    def test_leases_exactly_two_buffers(self):
        with WorkerPool(2) as pool:
            before = shm.create_count()
            parallel_sample_sort(_keys(4), pool=pool)
            assert shm.create_count() - before == 2
