"""inmem-sample: the in-memory native sample sort on a persistent pool.

Each op is ``repro.sort(keys, "sample", backend=NativeBackend(pool))`` on
4 Mi uniform 48-bit int64 keys (32 MiB), cycling over a few seeded
arrays generated at set-up.  ``np.sort`` of the same array is timed right
after every op, so the ratio of the two medians is measured under the
same host conditions.

Traced runs tile every op from the pool's :class:`PhaseTiming` records:
copy-in (call entry to the first phase), the four phases, the parent's
coordination gaps between phases, and copy-out (last phase end to
return).  These stages sum to the op wall exactly.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.native import shm
from repro.native.pool import WorkerPool
from repro.trace import MemoryRecorder, use_recorder, write_chrome_trace

from ledger import MIN_OPS, Ledger, median, tree_peak_rss_mb

N_KEYS = 4 << 20
N_INPUTS = 3
KEY_BITS = 48
WORKERS = 2


def native_stages(timings, t0: float, t1: float) -> dict[str, float]:
    """Stages of one native sort call that tile ``t1 - t0``."""
    stages = {
        "native.copy_in": timings[0].begin - t0,
        "native.copy_out": t1 - timings[-1].end,
        "native.coordinate": sum(
            b.begin - a.end for a, b in zip(timings, timings[1:])
        ),
    }
    for t in timings:
        key = f"native.phase.{t.name}"
        stages[key] = stages.get(key, 0.0) + t.elapsed_s
    return stages


def _setup(seed: int, spinups: list[float]):
    t0 = time.perf_counter()
    # The pool forks before the inputs exist, so workers do not map them.
    pool = WorkerPool(WORKERS, collect_timings=True)
    spinups.append(time.perf_counter() - t0)
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(0, 1 << KEY_BITS, size=N_KEYS, dtype=np.int64)
        for _ in range(N_INPUTS)
    ]
    refs = [np.sort(k) for k in inputs]
    backend = repro.NativeBackend(pool)
    repro.sort(inputs[0], "sample", backend=backend)  # untimed warm-up op
    pool.timings.clear()
    return pool, backend, inputs, refs


def run(ctx, ledger: Ledger) -> None:
    spinups: list[float] = []
    pool, backend, inputs, refs = ledger.repeated_setup(
        lambda: _setup(ctx.seed, spinups), lambda state: state[0].close()
    )
    ledger.notes["input_bytes"] = int(inputs[0].nbytes)
    rec = MemoryRecorder() if ctx.traced else None
    sync_s = []
    creates0 = shm.create_count()
    # Leaving the block closes the pool, terminating it on an error.
    with pool, use_recorder(rec):
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < ctx.seconds or i < MIN_OPS:
            keys, ref = inputs[i % N_INPUTS], refs[i % N_INPUTS]
            i += 1
            pool.timings.clear()
            t0 = time.perf_counter()
            res = repro.sort(keys, "sample", backend=backend)
            t1 = time.perf_counter()
            ok = ledger.check(ctx.corrupt(res.sorted_keys), ref)
            ledger.op(t1 - t0, N_KEYS, ok)
            t2 = time.perf_counter()
            np.sort(keys)
            ledger.npsort_s.append(time.perf_counter() - t2)
            if ctx.traced and ok:
                stages = native_stages(pool.timings, t0, t1)
                ledger.stage_row(t1 - t0, stages)
                # Barrier idle: the report's SYNC per worker, less the
                # coordination gaps it also books as SYNC.
                sync_ns = np.mean([c.sync_ns for c in res.report.counters])
                sync_s.append(sync_ns / 1e9 - stages["native.coordinate"])
        ledger.peak_rss_mb = tree_peak_rss_mb()
    ops = max(1, ledger.attempted)
    ledger.set_layer(
        "shm.creates_per_op", (shm.create_count() - creates0) / ops, "count"
    )
    ledger.set_layer("pool.phase_failures", pool.phase_failures, "count")
    ledger.set_layer("native.pool_spinup_ms", median(spinups) * 1e3, "ms")
    if rec is not None:
        ledger.set_stage_layers("native.other")
        ledger.set_layer("native.sync_ms", median(sync_s) * 1e3, "ms")
        ledger.set_layer(
            "native.shm_creates_per_op",
            ledger.layer["shm.creates_per_op"][0], "count",
        )
        write_chrome_trace(str(ctx.out_dir / f"{ctx.workload}.trace.json"), rec)
