"""The sort engine: a persistent supervised pool + arena behind a queue.

One engine owns the process-heavy state the server amortizes across
jobs: a supervised :class:`~repro.native.pool.WorkerPool` whose workers
run :func:`repro.native.shm.enable_attach_cache` at start (and after
every supervised rebuild), and a shared-memory :class:`~.arena.Arena` whose slab names those
caches memoize.  Jobs execute one at a time on a
dedicated thread (the server's single-lane executor): within-job
parallelism comes from the pool, between-job concurrency from the
queue, and the serial lane is what makes the arena's two-data-slab
budget and the fault plan's per-job attribution exact.

``warmup`` runs attach-touch phases until every worker slot has executed
at least one touch task *and* a full round completes with zero fresh
attaches -- i.e. until every worker demonstrably holds every slab in its
cache -- so "steady state" is established by measurement, not hope.  After that,
each job's trace span (``serve.job`` on the ``PID_SERVE`` track) carries
the job's shared-memory create/attach counts, which are zero on the
steady-state path and nonzero exactly when a supervised rebuild replaced
workers (whose fresh caches must re-attach).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..faults.context import use_fault_plan
from ..faults.plan import FaultPlan
from ..native import shm
from ..native.pool import WorkerPool, default_workers
from ..native.radix import parallel_radix_sort
from ..native.sample import parallel_sample_sort
from ..trace import PID_SERVE, TraceRecorder, current_recorder, use_recorder
from .arena import Arena

#: Warmup gives up after this many touch rounds (a worker that never
#: gets scheduled a task in any of them is pathological).
MAX_WARMUP_ROUNDS = 20

#: Pause between warmup rounds while some worker has yet to run a touch
#: task: a freshly forked worker needs a moment to reach the task queue,
#: and without the pause a fast sibling can drain every round before the
#: slow one boots.
_WARMUP_ROUND_PAUSE_S = 0.1


def _touch_task(args: tuple[tuple[str, int], ...]) -> int:
    """Attach every named slab (populating this worker's cache)."""
    touched = 0
    for name, nbytes in args:
        sa = shm.SharedArray.attach(name, (nbytes,), np.uint8)
        touched += 1
        sa.close()  # cached: drops the view, keeps the mapping
    # Hold the slot briefly so one fast worker cannot drain the whole
    # round before its siblings pull their first task.
    time.sleep(0.01)
    return touched


@dataclass(frozen=True)
class EngineOutcome:
    """One executed job, as the engine saw it."""

    sorted_keys: np.ndarray
    wall_s: float
    shm_creates: int
    shm_attaches: int
    phase_failures: int
    faults: dict[str, Any] | None


class SortEngine:
    """Runs sort jobs on the persistent pool with arena buffers."""

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        arena: Arena | None = None,
        data_slab_bytes: int = 8 << 20,
        meta_slab_bytes: int = 4 << 20,
        fault_plan: FaultPlan | None = None,
        recorder: TraceRecorder | None = None,
        phase_timeout_s: float | None = 10.0,
    ):
        self.n_workers = n_workers if n_workers is not None else default_workers()
        self.arena = arena if arena is not None else Arena(
            data_bytes=data_slab_bytes, meta_bytes=meta_slab_bytes
        )
        self._own_arena = arena is None
        self._plan = fault_plan
        self._recorder = recorder
        self._inline = self.n_workers == 1
        self.pool = WorkerPool(
            self.n_workers,
            collect_timings=True,
            supervise=True,
            phase_timeout_s=phase_timeout_s,
            initializer=shm.enable_attach_cache,
        )
        self.warmup_rounds = 0
        self.jobs_run = 0
        self.steady_shm_creates = 0
        self.steady_shm_attaches = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _drain_timing_attaches(self) -> int:
        """Sum and clear the pool's accumulated per-phase attach counts
        (the pool is long-lived; unbounded timing growth would leak)."""
        total = sum(sum(t.attaches) for t in self.pool.timings)
        self.pool.timings.clear()
        return total

    def warmup(self) -> int:
        """Prime every worker's attach cache; returns rounds needed.

        A round of touch tasks proves nothing about workers that did not
        run one -- a slow-booting worker can sit out a round its fast
        sibling drains -- so warmth requires *both* a zero-fresh-attach
        round and that every worker slot has executed at least one touch
        task across the rounds so far.
        """
        touch = tuple((name, 1) for name in self.arena.slab_names)
        self.pool.timings.clear()
        slots_seen: set[int] = set()
        for round_i in range(MAX_WARMUP_ROUNDS):
            self.pool.run_phase(
                _touch_task,
                [touch] * max(2, self.pool.n_workers * 2),
                name="serve.warmup",
            )
            self.warmup_rounds = round_i + 1
            for timing in self.pool.timings:
                slots_seen.update(timing.slots)
            attaches = self._drain_timing_attaches()
            covered = len(slots_seen) >= self.pool.n_workers
            if covered and attaches == 0:
                break
            if not covered:
                time.sleep(_WARMUP_ROUND_PAUSE_S)
        return self.warmup_rounds

    # ------------------------------------------------------------------
    def run(
        self,
        job_id: str,
        keys: np.ndarray,
        algorithm: str,
        radix: int | None = None,
        queue_wait_s: float | None = None,
    ) -> EngineOutcome:
        """Execute one job with arena buffers; never creates segments on
        the steady-state path (asserted by the emitted trace span)."""
        if self._closed:
            raise RuntimeError("engine is closed")
        plan_ctx = (
            use_fault_plan(self._plan) if self._plan is not None else nullcontext()
        )
        creates_before = shm.create_count()
        stats_before = self._plan.stats() if self._plan is not None else None
        failures_before = self.pool.phase_failures
        bufs = self.arena.buffers()
        t0 = time.perf_counter()
        with use_recorder(self._recorder), plan_ctx:
            try:
                if algorithm == "radix":
                    kwargs = {} if radix is None else {"radix": radix}
                    out = parallel_radix_sort(
                        keys, pool=self.pool, buffers=bufs, **kwargs
                    )
                elif algorithm == "sample":
                    out = parallel_sample_sort(keys, pool=self.pool, buffers=bufs)
                else:
                    raise ValueError(f"unknown algorithm {algorithm!r}")
            finally:
                bufs.release_all()  # idempotent: the sorts release too
            t1 = time.perf_counter()
            attaches = self._drain_timing_attaches()
            creates = shm.create_count() - creates_before
            rec = current_recorder()
            if rec.enabled:
                rec.complete(
                    "serve.job",
                    cat="serve.job",
                    ts_us=t0 * 1e6,
                    dur_us=(t1 - t0) * 1e6,
                    pid=PID_SERVE,
                    tid=0,
                    args={
                        "job_id": job_id,
                        "algorithm": algorithm,
                        "n_keys": int(len(keys)),
                        "shm_creates": creates,
                        "shm_attaches": attaches,
                        "queue_wait_ms": (
                            None if queue_wait_s is None else queue_wait_s * 1e3
                        ),
                    },
                )
        self.jobs_run += 1
        self.steady_shm_creates += creates
        self.steady_shm_attaches += attaches
        faults = None
        if self._plan is not None and stats_before is not None:
            delta = self._plan.stats().since(stats_before)
            faults = {
                "injected": dict(delta.injected),
                "recovered": dict(delta.recovered),
            }
        return EngineOutcome(
            sorted_keys=out,
            wall_s=t1 - t0,
            shm_creates=creates,
            shm_attaches=attaches,
            phase_failures=self.pool.phase_failures - failures_before,
            faults=faults,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "n_workers": self.pool.n_workers,
            "jobs_run": self.jobs_run,
            "warmup_rounds": self.warmup_rounds,
            "steady_shm_creates": self.steady_shm_creates,
            "steady_shm_attaches": self.steady_shm_attaches,
            "phase_failures": self.pool.phase_failures,
            "arena": self.arena.stats(),
        }

    def close(self, force: bool = False) -> None:
        """Reap workers and unlink every slab; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        try:
            self.pool.close(force=force)
        finally:
            if self._own_arena:
                self.arena.close()
            if self._inline:
                # The inline "pool" enabled the attach cache in *this*
                # process; drop the cached mappings so tests and
                # long-lived parents do not accumulate dead segments.
                shm.enable_attach_cache(False)
                shm.detach_cached()

    def __enter__(self) -> "SortEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
