"""stream-file: the out-of-core sort of a key file on a persistent pool.

Each op is ``external_sort`` of a 4 Mi-key int64 file written at set-up
(keys below 2**31, the paper's key width).  ``chunk_keys`` is 1/8 of the
input and ``fan_in`` 4, so every op forms 8 runs and needs one
intermediate merge pass before the final merge.  Output blocks stream
into a sink that compares each block with the matching slice of the
``np.sort`` reference; ``np.sort`` of the same keys is timed after every
op.

Traced runs tile every op: the radix pool phases (run formation), the
``stream.merge.passN`` pool phases, the ``stream.merge.final`` span less
the sink's own time, the sink, and ``other`` (ingest, spill writes, and
the radix sorts' copy-in/out).
"""

from __future__ import annotations

import time

import numpy as np

from repro.native import shm
from repro.native.pool import WorkerPool
from repro.stream.external import external_sort
from repro.trace import MemoryRecorder, use_recorder, write_chrome_trace

from ledger import MIN_OPS, Ledger, tree_peak_rss_mb

N_KEYS = 4 << 20
CHUNK_KEYS = N_KEYS // 8
FAN_IN = 4
KEY_LIMIT = 1 << 31
WORKERS = 2


class CheckingSink:
    """``on_block`` callback: compares blocks against the reference."""

    def __init__(self, ref: np.ndarray, corrupt):
        self.ref = ref
        self.corrupt = corrupt
        self.pos = 0
        self.ok = True
        self.seconds = 0.0

    def __call__(self, block: np.ndarray) -> None:
        t0 = time.perf_counter()
        block = self.corrupt(block)
        end = self.pos + len(block)
        if end > len(self.ref) or not np.array_equal(block, self.ref[self.pos:end]):
            self.ok = False
        self.pos = end
        self.seconds += time.perf_counter() - t0


def _sort_file(path, pool, spill_root, ref, corrupt):
    sink = CheckingSink(ref, corrupt)
    t0 = time.perf_counter()
    res = external_sort(
        path, dtype=np.int64, chunk_keys=CHUNK_KEYS, fan_in=FAN_IN,
        pool=pool, workdir=spill_root, on_block=sink,
    )
    t1 = time.perf_counter()
    ok = sink.ok and sink.pos == len(ref) and res.n_keys == len(ref)
    return res, sink, t0, t1, ok


def _setup(ctx, path, spill_root):
    pool = WorkerPool(
        WORKERS, collect_timings=True, supervise=True, phase_timeout_s=20.0
    )
    rng = np.random.default_rng(ctx.seed)
    keys = rng.integers(0, KEY_LIMIT, size=N_KEYS, dtype=np.int64)
    keys.tofile(path)
    ref = np.sort(keys)
    _sort_file(path, pool, spill_root, ref, lambda b: b)  # untimed warm-up
    pool.timings.clear()
    return pool, keys, ref


def _stages(timings, events, sink_s: float) -> dict[str, float]:
    """Stages of one external sort from the pool timings and spans."""
    run_sort = sum(
        t.elapsed_s for t in timings if not t.name.startswith("stream.")
    )
    merge_pass = sum(
        t.elapsed_s for t in timings if t.name.startswith("stream.merge.pass")
    )
    final = sum(e.dur_us for e in events if e.name == "stream.merge.final") / 1e6
    return {
        "stream.run_sort": run_sort,
        "stream.merge_pass": merge_pass,
        "stream.final_merge": final - sink_s,
        "bench.verify": sink_s,
    }


def run(ctx, ledger: Ledger) -> None:
    work = ctx.out_dir / "stream-file"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "input.bin"
    spill_root = ctx.out_dir / "spill"
    pool, keys, ref = ledger.repeated_setup(
        lambda: _setup(ctx, path, spill_root), lambda state: state[0].close()
    )
    ledger.notes["input_bytes"] = int(keys.nbytes)
    rec = MemoryRecorder() if ctx.traced else None
    creates0 = shm.create_count()
    last = None
    # Leaving the block closes the pool, terminating it on an error.
    with pool, use_recorder(rec):
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds or ledger.attempted < MIN_OPS:
            pool.timings.clear()
            mark = len(rec.events) if rec is not None else 0
            res, sink, t0, t1, ok = _sort_file(path, pool, spill_root, ref, ctx.corrupt)
            ledger.verify_s.append(sink.seconds)
            ledger.op(t1 - t0, N_KEYS, ok)
            t2 = time.perf_counter()
            np.sort(keys)
            ledger.npsort_s.append(time.perf_counter() - t2)
            if rec is not None and ok:
                ledger.stage_row(
                    t1 - t0, _stages(pool.timings, rec.events[mark:], sink.seconds)
                )
            last = res
        ledger.peak_rss_mb = tree_peak_rss_mb()
    path.unlink()
    ops = max(1, ledger.attempted)
    ledger.set_layer(
        "shm.creates_per_op", (shm.create_count() - creates0) / ops, "count"
    )
    ledger.set_layer("pool.phase_failures", pool.phase_failures, "count")
    if last is not None:
        ledger.set_layer("stream.runs", last.runs, "count")
        ledger.set_layer("stream.merge_passes", last.merge_passes, "count")
        ledger.set_layer(
            "stream.spill_bytes_per_key", last.bytes_spilled / last.n_keys, "B"
        )
        ledger.set_layer(
            "stream.merge_read_bytes_per_key",
            last.bytes_merge_read / last.n_keys, "B",
        )
    if rec is not None:
        ledger.set_stage_layers("stream.other")
        write_chrome_trace(str(ctx.out_dir / f"{ctx.workload}.trace.json"), rec)
