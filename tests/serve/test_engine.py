"""SortEngine unit tests: warmup coverage and steady-state accounting.

The warmup race is timing-dependent in real pools (a fast worker can
drain every touch round before its slow-booting sibling pulls a single
task), so these tests script the pool's behavior instead: a stub pool
replays a fixed schedule of (slots, attaches) rounds and the tests pin
exactly when warmup is allowed to declare the engine warm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.native.pool import PhaseTiming
from repro.serve.engine import MAX_WARMUP_ROUNDS, SortEngine


class ScriptedPool:
    """Stands in for WorkerPool during warmup: each run_phase call
    appends the next scripted round's timings."""

    def __init__(self, n_workers, rounds):
        self.n_workers = n_workers
        self.timings = []
        self.phase_failures = 0
        self._rounds = list(rounds)
        self.calls = 0

    def run_phase(self, fn, tasks, name=None):
        slots, attaches = (
            self._rounds.pop(0) if self._rounds else self._rounds_exhausted()
        )
        self.timings.append(
            PhaseTiming(
                name=name or "serve.warmup",
                begin=0.0,
                end=0.0,
                tasks=tuple((0.0, 0.0) for _ in slots),
                slots=tuple(slots),
                attaches=tuple(attaches),
            )
        )
        self.calls += 1
        return [len(t) for t in tasks]

    @staticmethod
    def _rounds_exhausted():
        return ((1, 2), (0, 0))  # fully covered, fully warm

    def close(self, force=False):
        pass


@pytest.fixture
def engine():
    eng = SortEngine(n_workers=1)  # real (inline) engine owns a real arena
    try:
        yield eng
    finally:
        eng.close()


def _scripted_engine(engine, rounds, n_workers=2):
    """Swap the engine's pool for a scripted one (the inline original is
    a plain in-process shim with nothing to tear down beyond close())."""
    engine.pool.close()
    engine.pool = ScriptedPool(n_workers, rounds)
    return engine


class TestWarmupCoverage:
    def test_zero_attach_round_alone_is_not_warm(self, engine):
        # Worker slot 2 boots slowly: rounds 1-2 run entirely on slot 1.
        # Round 2 reports zero fresh attaches -- the pre-fix exit
        # condition -- but slot 2 is still stone cold; warmup must keep
        # going until slot 2 participates AND a round is attach-free.
        _scripted_engine(engine, rounds=[
            ((1, 1, 1, 1), (5, 0, 0, 0)),   # slot 1 attaches everything
            ((1, 1, 1, 1), (0, 0, 0, 0)),   # zero attaches, slot 2 absent
            ((1, 2, 1, 2), (0, 5, 0, 0)),   # slot 2 finally joins, cold
            ((1, 2, 1, 2), (0, 0, 0, 0)),   # everyone warm
        ])
        assert engine.warmup() == 4
        assert engine.pool.calls == 4

    def test_covered_and_attach_free_round_ends_warmup(self, engine):
        _scripted_engine(engine, rounds=[
            ((1, 2, 1, 2), (5, 5, 0, 0)),
            ((1, 2, 1, 2), (0, 0, 0, 0)),
        ])
        assert engine.warmup() == 2

    def test_coverage_may_accumulate_across_rounds(self, engine):
        # Slots need not all appear in the *same* round -- only ever.
        _scripted_engine(engine, rounds=[
            ((1, 1, 1, 1), (5, 0, 0, 0)),
            ((2, 2, 2, 2), (5, 0, 0, 0)),
            ((1, 1, 1, 1), (0, 0, 0, 0)),   # covered by now, attach-free
        ])
        assert engine.warmup() == 3

    def test_warmup_gives_up_after_max_rounds(self, engine):
        # A worker that never shows up must not hang server startup.
        _scripted_engine(engine, rounds=[
            ((1, 1, 1, 1), (0, 0, 0, 0)) for _ in range(MAX_WARMUP_ROUNDS + 5)
        ])
        assert engine.warmup() == MAX_WARMUP_ROUNDS

    def test_real_inline_engine_warms_in_one_round(self):
        # The inline pool runs touch tasks in-process: slot coverage is
        # immediate and the second round is attach-free.
        with SortEngine(n_workers=1) as eng:
            rounds = eng.warmup()
            assert 1 <= rounds <= 2
            keys = np.random.default_rng(0).integers(0, 1 << 20, 5_000)
            out = eng.run("j0", keys.astype(np.int64), "radix")
            assert np.array_equal(out.sorted_keys, np.sort(keys))
            assert out.shm_creates == 0
            assert out.shm_attaches == 0

