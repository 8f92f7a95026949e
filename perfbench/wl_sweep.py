"""sweep-cold: paper grid cells answered by the simulator, then predict.

A fixed list of 24 cells covers both algorithms x every model at 1M/16p
and 16M/64p labeled, with the gauss, random and remote distributions.
Each op is one cell: ``ExperimentRunner(backend="sim").run(spec)`` with a
:class:`GridCache` on an empty directory, then the same spec on
``ExperimentRunner(backend="predict")``.

A run is a whole number of passes over the list, as many as start within
``--seconds``.  The sweep is cold by construction: every pass runs in
a freshly spawned process with a fresh cache directory, so nothing the
program memoizes in-process or on disk survives from an earlier pass.
Each pass must end with ``GridCache.stats.hits == 0`` and one miss per
cell.  Both answers' sorted keys are compared with ``np.sort`` of the
cell's keys (generated at set-up by the benchmark), and the median
predict-vs-sim error of the pass must stay inside the 15% band.

Traced runs wrap ``repro.data.generate`` (at the binding the runner
calls) and the cache's ``put`` to split each cell into key generation,
simulation, cache store and prediction.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import time

import numpy as np

from repro.trace import MemoryRecorder, write_chrome_trace

from ledger import MIN_OPS, PID_BENCH, Ledger, tree_peak_rss_mb

#: The repo's existing predict-vs-sim error band (``repro check``).
PREDICT_BAND = 0.15

RADIX_MODELS = ("ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem")
SAMPLE_MODELS = ("ccsas", "mpi-new", "mpi-sgi", "shmem")
SIZES = ((1 << 20, 16), (1 << 24, 64))  # labeled keys, processors
DISTRIBUTIONS = ("gauss", "random", "remote")
RADIX = 8
N_CELLS = 24


def cells(seed: int) -> list[tuple]:
    """The fixed cell list: every (algorithm, model, size) once, with the
    distributions rotating so each appears at every size and algorithm,
    then the first six again under the next distribution."""
    base = [
        (alg, model, n, p)
        for n, p in SIZES
        for alg, models in (("radix", RADIX_MODELS), ("sample", SAMPLE_MODELS))
        for model in models
    ]
    out = []
    for i in range(N_CELLS):
        alg, model, n, p = base[i % len(base)]
        dist = DISTRIBUTIONS[(i + i // len(base)) % len(DISTRIBUTIONS)]
        out.append((alg, model, n, p, RADIX, dist, seed))
    return out


def _spec(cell):
    from repro.core.experiment import RunSpec

    alg, model, n, p, radix, dist, seed = cell
    return RunSpec(alg, model, n, p, radix, dist, seed=seed)


def _key_id(spec) -> tuple:
    return (spec.distribution, spec.n_actual, spec.n_procs, spec.radix, spec.seed)


def make_inputs(cell_list) -> dict:
    """Each distinct key array the cells sort, with its ``np.sort``."""
    from repro.data import generate

    inputs = {}
    for cell in cell_list:
        spec = _spec(cell)
        kid = _key_id(spec)
        if kid not in inputs:
            keys = generate(spec.distribution, spec.n_actual, spec.n_procs,
                            radix=spec.radix, seed=spec.seed)
            inputs[kid] = (keys, np.sort(keys))
    return inputs


class _Clock:
    """Accumulates the time spent inside a wrapped function."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def _hwm_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def pass_main(conn, cfg: dict) -> None:
    """One cold pass in a fresh process: build the runners, report ready,
    then answer every cell of the list once."""
    import repro.core.experiment as experiment
    import repro.data
    from repro.core.gridcache import GridCache
    from repro.native import shm

    from ledger import Corruptor

    cache = GridCache(cfg["cache_dir"])
    sim = experiment.ExperimentRunner(cache=cache, backend="sim")
    pred = experiment.ExperimentRunner(backend="predict")
    keygen = put = None
    if cfg["traced"]:
        keygen = _Clock(experiment.generate)
        experiment.generate = repro.data.generate = keygen
        put = cache.put = _Clock(cache.put)
    corrupt = Corruptor(cfg["wrong_sort_rate"], cfg["corrupt_seed"])
    inputs = cfg["inputs"]
    creates0 = shm.create_count()
    conn.send("ready")
    try:
        conn.recv()
    except EOFError:  # a discarded set-up repetition
        return
    rows = []
    for cell in cfg["cells"]:
        spec = _spec(cell)
        keys, ref = inputs[_key_id(spec)]
        k0 = keygen.seconds if keygen else 0.0
        p0 = put.seconds if put else 0.0
        t0 = time.perf_counter()
        a = sim.run(spec)
        t1 = time.perf_counter()
        k1 = keygen.seconds if keygen else 0.0
        b = pred.run(spec)
        t2 = time.perf_counter()
        k2 = keygen.seconds if keygen else 0.0
        p1 = put.seconds if put else 0.0
        v0 = time.perf_counter()
        ok = bool(np.array_equal(corrupt(a.sorted_keys), ref)
                  and np.array_equal(corrupt(b.sorted_keys), ref))
        v1 = time.perf_counter()
        np.sort(keys)
        rows.append({
            "label": spec.cell_label(),
            "ts": (t0, t1, t2, v0, v1),
            "wall_s": t2 - t0,
            "keys": int(spec.n_actual),
            "ok": ok,
            "err": abs(b.time_us - a.time_us) / a.time_us,
            "verify_s": v1 - v0,
            "npsort_s": time.perf_counter() - v1,
            "stages": {
                "data.keygen": k2 - k0,
                "sim.cell": (t1 - t0) - (k1 - k0) - (p1 - p0),
                "gridcache.put": p1 - p0,
                "predict.cell": (t2 - t1) - (k2 - k1),
            } if cfg["traced"] else None,
        })
    stats = cache.stats
    conn.send({
        "rows": rows,
        "hits": stats.hits,
        "misses": stats.misses,
        "shm_creates": shm.create_count() - creates0,
        "hwm_mb": _hwm_mb(),
    })
    conn.close()


def _record_cell(rec, row: dict, n_pass: int) -> None:
    """Spans of one cell: the simulator answer, the predict answer and
    the benchmark's check, on the pass's track."""
    t0, t1, t2, v0, v1 = row["ts"]
    for name, a, b in (("sim", t0, t1), ("predict", t1, t2), ("verify", v0, v1)):
        rec.complete(
            f"sweep.{name}", cat="perfbench", ts_us=a * 1e6,
            dur_us=(b - a) * 1e6, pid=PID_BENCH, tid=n_pass,
            args={"cell": row["label"]},
        )


class _Pass:
    """A spawned pass process, started and waiting for its budget."""

    def __init__(self, cfg: dict):
        ctx = mp.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=pass_main, args=(child, cfg))
        self.proc.start()
        child.close()
        if not self.conn.poll(60.0) or self.conn.recv() != "ready":
            self.close()
            raise RuntimeError("sweep pass process did not start")

    def run(self) -> dict:
        self.conn.send("go")
        if not self.conn.poll(120.0):
            raise RuntimeError("sweep pass process did not finish")
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()
        self.proc.join(30.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def run(ctx, ledger: Ledger) -> None:
    spec_seed = ctx.seed + 1  # the generators' seeds are 1-based
    cache_root = ctx.out_dir / "sweep-cache"
    shutil.rmtree(cache_root, ignore_errors=True)
    n_pass = 0

    def new_pass(cell_list, inputs) -> _Pass:
        nonlocal n_pass
        n_pass += 1
        return _Pass({
            "cells": cell_list,
            "inputs": inputs,
            "cache_dir": str(cache_root / f"pass{n_pass}"),
            "traced": ctx.traced,
            "wrong_sort_rate": ctx.wrong_sort_rate,
            "corrupt_seed": ctx.seed + n_pass,
        })

    def setup():
        cell_list = cells(spec_seed)
        inputs = make_inputs(cell_list)
        return cell_list, inputs, new_pass(cell_list, inputs)

    cell_list, inputs, current = ledger.repeated_setup(
        setup, lambda state: state[2].close()
    )
    ledger.notes["input_bytes"] = int(sum(k.nbytes for k, _r in inputs.values()))
    ledger.notes["cells"] = len(cell_list)

    rec = MemoryRecorder() if ctx.traced else None
    child_hwm = 0.0
    hits = 0
    shm_creates = 0
    errors = []
    start = time.perf_counter()
    try:
        # Whole passes only, so every run weighs the cells alike.
        while time.perf_counter() - start < ctx.seconds or ledger.attempted < MIN_OPS:
            if current is None:
                current = new_pass(cell_list, inputs)
            out = current.run()
            current.close()
            current = None
            shutil.rmtree(cache_root, ignore_errors=True)
            child_hwm = max(child_hwm, out["hwm_mb"])
            hits += out["hits"]
            shm_creates += out["shm_creates"]
            rows = out["rows"]
            pass_err = float(np.median([r["err"] for r in rows])) if rows else 0.0
            errors.append(pass_err)
            in_band = pass_err <= PREDICT_BAND
            if out["hits"] != 0 or out["misses"] != len(rows):
                ledger.fail(f"sweep not cold: {out['hits']} hits, "
                            f"{out['misses']} misses for {len(rows)} cells")
            for r in rows:
                ok = r["ok"] and in_band
                note = "" if in_band else f"predict error {pass_err:.3f} > band"
                ledger.op(r["wall_s"], r["keys"], ok, note or f"{r['label']}: wrong")
                ledger.verify_s.append(r["verify_s"])
                ledger.npsort_s.append(r["npsort_s"])
                if rec is not None and ok:
                    ledger.stage_row(r["wall_s"], r["stages"])
                    _record_cell(rec, r, n_pass)
    finally:
        if current is not None:
            current.close()
        shutil.rmtree(cache_root, ignore_errors=True)
    ledger.peak_rss_mb = tree_peak_rss_mb() + child_hwm
    ledger.set_layer("gridcache.hits", hits, "count")
    ledger.set_layer("shm.creates_per_op", shm_creates / max(1, ledger.attempted),
                     "count")
    ledger.set_layer("predict.median_abs_rel_err",
                     float(np.median(errors)) if errors else 0.0, "fraction")
    if ctx.traced:
        # Key generation lands on the first cell of each key array only,
        # so per-cell stage times are reported as means, not medians.
        ledger.set_stage_layers("sweep.other", stat="mean_ms")
        write_chrome_trace(str(ctx.out_dir / f"{ctx.workload}.trace.json"), rec,
                           process_names={PID_BENCH: "perfbench sweep-cold"})
