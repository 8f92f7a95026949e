"""Kernel-layer tests: primitive correctness against NumPy references,
blocked placement stability, and the engineered sorts' fast/fallback
paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distributions import PAPER_ORDER, generate
from repro.native import kernels, shm
from repro.native.kernels import slice_bounds
from repro.native.pool import WorkerPool
from repro.native.radix import parallel_radix_sort
from repro.native.sample import SPLITTER_SKEW_LIMIT, parallel_sample_sort
from repro.sorts.common import (
    n_passes,
    partition_counts,
    rebalance_duplicate_splitters,
)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(4) as p:
        yield p


class TestPrimitiveParity:
    """The blocked kernels must match plain NumPy bit for bit."""

    def test_minmax(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 31, 100_003, dtype=np.int64)
        assert kernels.minmax(a) == (int(a.min()), int(a.max()))

    def test_minmax_spans_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 7)
        a = np.arange(100, dtype=np.int64)
        a[93] = -5  # extremum in a trailing partial block
        assert kernels.minmax(a) == (-5, 99)

    def test_histogram(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 4093)  # partial tail block
        rng = np.random.default_rng(8)
        a = rng.integers(0, 1 << 22, 50_001, dtype=np.int64)
        for shift in (0, 11):
            got = kernels.histogram(a, shift, (1 << 11) - 1)
            want = np.bincount((a >> shift) & ((1 << 11) - 1),
                               minlength=1 << 11)
            assert np.array_equal(got, want)
            assert got.sum() == len(a)

    def test_scatter_is_stable_counting_placement(self):
        # Keys whose low 2 bits collide but whose high bits identify the
        # original order: stability means equal digits keep that order.
        src = np.array([0b100, 0b001, 0b1000, 0b101, 0b1100, 0b010],
                       dtype=np.int64)
        mask = 0b11
        counts = np.bincount(src & mask, minlength=mask + 1)
        cursor = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
        dst = np.full(len(src), -1, dtype=np.int64)
        kernels.scatter(src, dst, cursor, 0, mask)
        # digit 0 keys in original order, then digit 1 keys, then digit 2.
        assert dst.tolist() == [0b100, 0b1000, 0b1100, 0b001, 0b101, 0b010]
        # Cursors advanced past each bucket.
        assert np.array_equal(
            cursor, np.cumsum(counts).astype(np.int64)
        )

    @pytest.mark.parametrize("shift", [0, 7])
    def test_scatter_blocked_matches_stable_argsort(self, shift, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 13)  # force many blocks
        rng = np.random.default_rng(9)
        src = rng.integers(0, 1 << 20, 997, dtype=np.int64)
        mask = (1 << 5) - 1
        digits = (src >> shift) & mask
        counts = np.bincount(digits, minlength=mask + 1)
        cursor = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
        got = np.empty_like(src)
        kernels.scatter(src, got, cursor, shift, mask)
        assert np.array_equal(got, src[np.argsort(digits, kind="stable")])

    def test_lsd_passes_across_blocks_match_np_sort(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 13)
        rng = np.random.default_rng(10)
        keys = rng.integers(0, 1 << 20, 997, dtype=np.int64)
        mask = (1 << 5) - 1
        src = keys
        for shift in range(0, 20, 5):
            hist = kernels.histogram(src, shift, mask)
            cursor = np.concatenate(([0], np.cumsum(hist)[:-1])).astype(np.int64)
            dst = np.empty_like(src)
            kernels.scatter(src, dst, cursor, shift, mask)
            src = dst
        assert np.array_equal(src, np.sort(keys))


class TestEngineeredRadix:
    def test_all_paper_distributions_parity(self, pool):
        """The blocked radix sort vs np.sort on every paper input."""
        for dist in PAPER_ORDER:
            keys = generate(dist, 1 << 13, 4, seed=11)
            out = parallel_radix_sort(keys, pool=pool)
            assert np.array_equal(out, np.sort(keys)), dist

    def test_adversarial_duplicates(self, pool):
        rng = np.random.default_rng(12)
        n = 1 << 13
        heavy = np.where(
            rng.random(n) < 0.9, 42, rng.integers(0, 1 << 20, n)
        ).astype(np.int64)
        sawtooth = (np.arange(n, dtype=np.int64) % 7) << 40
        for keys in (heavy, sawtooth):
            out = parallel_radix_sort(keys, pool=pool)
            assert np.array_equal(out, np.sort(keys))

    def test_stability_across_passes(self, pool):
        """Multi-pass placement must be stable pass over pass: sorting
        (hi << r | lo) keys orders lo within equal hi iff every pass kept
        equal digits in arrival order."""
        rng = np.random.default_rng(13)
        lo = rng.permutation(1 << 10).astype(np.int64)
        hi = rng.integers(0, 4, 1 << 10, dtype=np.int64)
        keys = (hi << 20) | lo
        out = parallel_radix_sort(keys, pool=pool, radix=5)
        assert np.array_equal(out, np.sort(keys))

    def test_p1_fast_path_skips_shared_memory(self):
        before = shm.create_count()
        out = parallel_radix_sort(np.array([9, 3, 7, 1], dtype=np.int64),
                                  n_workers=8)
        assert out.tolist() == [1, 3, 7, 9]
        assert shm.create_count() == before

    def test_p1_fast_path_still_validates(self):
        with pytest.raises(ValueError, match="non-negative"):
            parallel_radix_sort(np.array([-3], dtype=np.int64), n_workers=1)
        with pytest.raises(TypeError):
            parallel_radix_sort(np.array([0.5]), n_workers=1)

    def test_fused_minmax_sizes_pass_count(self):
        """key_bits comes from the fused validation scan's max: 15-bit
        keys at radix 8 must run 2 passes (4 timed phases), not the
        31-bit worst case's 4."""
        with WorkerPool(2, collect_timings=True) as pool:
            keys = np.arange(1 << 10, dtype=np.int64) | (1 << 14)
            parallel_radix_sort(keys, pool=pool, radix=8)
            expected = 2 * n_passes(8, 15)
            assert len(pool.timings) == expected


class TestSampleRebalance:
    def test_matches_simulated_partition_counts(self):
        """Rebalancing a raw searchsorted count matrix must produce
        exactly the count matrix partition_counts (which the native
        sample sort calls) computes."""
        rng = np.random.default_rng(15)
        n, p = 4096, 4
        keys = np.where(
            rng.random(n) < 0.6, 100, rng.integers(0, 1000, n)
        ).astype(np.int64)
        runs = np.concatenate(
            [np.sort(keys[lo:hi])
             for lo, hi in (slice_bounds(n, p, w) for w in range(p))]
        )
        parts = [runs[slice(*slice_bounds(n, p, w))] for w in range(p)]
        splitters = np.array([100, 100, 100], dtype=np.int64)
        want = partition_counts(parts, splitters)

        counts = np.zeros((p, p), dtype=np.int64)
        for w, part in enumerate(parts):
            edges = np.searchsorted(part, splitters, side="right")
            counts[w] = np.diff(np.concatenate(([0], edges, [len(part)])))
        rebalanced = rebalance_duplicate_splitters(counts, splitters, parts)
        assert rebalanced == 1
        assert np.array_equal(counts, want)

    def test_distinct_splitters_untouched(self):
        n, p = 64, 4
        runs = np.sort(np.arange(n, dtype=np.int64))
        parts = [runs[slice(*slice_bounds(n, p, w))] for w in range(p)]
        splitters = np.array([15, 31, 47], dtype=np.int64)
        counts = np.full((p, p), 4, dtype=np.int64)
        before = counts.copy()
        assert rebalance_duplicate_splitters(counts, splitters, parts) == 0
        assert np.array_equal(counts, before)

    def test_duplicate_heavy_sample_sort(self, pool):
        rng = np.random.default_rng(16)
        n = 1 << 13
        keys = np.where(
            rng.random(n) < 0.9, 7, rng.integers(0, 1 << 20, n)
        ).astype(np.int64)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))

    def test_constant_keys(self, pool):
        keys = np.full(1 << 12, 5, dtype=np.int64)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, keys)

    def test_skew_fallback_still_sorts(self, pool, monkeypatch):
        """A (monkeypatched) zero skew budget forces the sequential
        fallback after the local sorts; the result must still be
        correct and the shared buffers released."""
        from repro.native import sample

        monkeypatch.setattr(sample, "SPLITTER_SKEW_LIMIT", 0.0)
        keys = generate("random", 1 << 12, 4, seed=17)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))

    def test_skew_limit_is_sane(self):
        assert SPLITTER_SKEW_LIMIT >= 1.0


class TestSliceBounds:
    def test_covers_exactly(self):
        for n in (10, 16, 17):
            for p in (1, 3, 4):
                spans = [slice_bounds(n, p, w) for w in range(p)]
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (a, b), (c, d) in zip(spans, spans[1:]):
                    assert b == c and b >= a
