"""Command-line interface: regenerate any of the paper's tables/figures,
or trace one sort end to end.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig3                 # full grid (slow, minutes)
    python -m repro fig3 --small         # 2 sizes x 2 processor counts
    python -m repro table1 fig4 --small  # several at once
    python -m repro fig3 --small --trace-out fig3.json   # + Perfetto trace
    python -m repro tables2_and_3 --parallel 4           # fan cells out
    python -m repro fig3 --no-cache      # skip the persistent disk cache

    # Inspect / manage the persistent result cache (~/.cache/repro or
    # $REPRO_CACHE_DIR; see docs/CACHE.md):
    python -m repro cache stats
    python -m repro cache gc --max-age-days 30
    python -m repro cache clear

    # Run a single sort under either backend and export its trace:
    python -m repro trace --backend native --algorithm sample --out t.json
    python -m repro trace --backend sim --model ccsas --procs 16

    # Analytic prediction (no simulation; milliseconds per cell):
    python -m repro predict --size 256M --procs 64 --sweep
    python -m repro calibrate --small     # fit the predictor to the DES
    python -m repro fig3 --small --backend predict

    # Verify the whole stack: run the model x algorithm x distribution
    # grid (plus the machine-zoo x workload matrix, docs/MACHINES.md) on
    # both backends under the runtime sanitizer, checking every result
    # against np.sort / np.argsort:
    python -m repro check --small
    python -m repro check --small --machine bsp
    python -m repro check --small --workload f64

    # Machine-zoo sweep as a reportable experiment (BENCH_5.json):
    python -m repro machine_zoo --small --json benchmarks/BENCH_5.json

    # Chaos-test the resilience machinery: inject a seeded, deterministic
    # fault schedule (worker crashes/hangs, shm failures, cache
    # corruption, message drops) and assert every sort still equals
    # np.sort with all faults recovered (see docs/FAULTS.md):
    python -m repro chaos --seed 0 --small
    python -m repro chaos --soak 10
    python -m repro chaos --small --scenario serve-traffic

    # Sort-as-a-service: a persistent job server on the resilient native
    # pool, and the load/latency harness that drives it (docs/SERVE.md):
    python -m repro serve --port 7453
    python -m repro loadgen --port 7453 --clients 8 --duration 30
    python -m repro loadgen --spawn-server --clients 8 --duration 30 \\
        --json benchmarks/BENCH_2.json
"""

from __future__ import annotations

import argparse
import sys

from .core.experiment import ExperimentRunner
from .report.experiments import EXPERIMENTS
from .trace import MemoryRecorder, write_chrome_trace

SMALL_GRID = {
    "table1": dict(sizes=["1M", "16M"]),
    "fig1": dict(sizes=["1M", "64M"], procs=[16, 64]),
    "fig2": dict(sizes=["1M", "64M"], procs=[16, 64]),
    "fig3": dict(sizes=["1M", "64M"], procs=[16, 64]),
    "fig4": dict(),
    "fig5": dict(sizes=["1M", "256M"]),
    "fig6": dict(sizes=["1M", "256M"]),
    "fig7": dict(sizes=["1M", "64M"], procs=[16, 64]),
    "fig8": dict(),
    "fig9": dict(sizes=["1M", "256M"]),
    "fig10": dict(sizes=["1M", "256M"]),
    "tables2_and_3": dict(
        sizes=["1M", "64M"], procs=[16, 64], radix_choices=[8, 11]
    ),
    "summary": dict(sizes=["1M", "64M"], procs=[16, 64]),
    "predict_compare": dict(sizes=["1M"], procs=[16]),
    "native_path": dict(
        sizes=[1 << 18], distributions=["random", "zero"], repeats=2
    ),
    "stream_path": dict(
        sizes=[1 << 18], distributions=["random", "zero"], n_workers=2
    ),
    "machine_zoo": dict(n=16 * 128, p=16),
}


def _trace_main(argv: list[str]) -> int:
    """The ``trace`` subcommand: run one sort, export a Chrome trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one sort on a chosen backend and write a "
        "Chrome-trace JSON (chrome://tracing / Perfetto).",
    )
    parser.add_argument(
        "--backend", choices=["sim", "native"], default="sim",
        help="execution substrate (default: sim)",
    )
    parser.add_argument(
        "--algorithm", choices=["radix", "sample"], default="radix"
    )
    parser.add_argument(
        "--model", default="shmem",
        help="programming model, sim backend only (default: shmem)",
    )
    parser.add_argument(
        "--size", type=int, default=1 << 16,
        help="number of keys (default: 65536)",
    )
    parser.add_argument(
        "--procs", type=int, default=None,
        help="simulated processors / native workers (default: backend's)",
    )
    parser.add_argument(
        "--distribution", default="gauss",
        help="key distribution (default: gauss)",
    )
    parser.add_argument(
        "--verbose-trace", action="store_true",
        help="include per-message and per-DES-process events",
    )
    parser.add_argument(
        "--out", "--trace-out", dest="out", default="trace.json",
        help="output path (default: trace.json)",
    )
    args = parser.parse_args(argv)

    from .core.api import sort
    from .data import generate

    n_procs = args.procs
    if args.backend == "sim" and n_procs is None:
        n_procs = 16
    gen_procs = n_procs if args.backend == "sim" else 1
    keys = generate(args.distribution, args.size, gen_procs or 1)
    recorder = MemoryRecorder(verbose=args.verbose_trace)
    result = sort(
        keys,
        algorithm=args.algorithm,
        backend=args.backend,
        model=args.model,
        n_procs=n_procs,
        trace=recorder,
    )
    write_chrome_trace(args.out, recorder)
    means = result.report.category_means_ns()
    print(
        f"{args.backend}/{args.algorithm}: {len(keys)} keys on "
        f"{result.n_procs} procs -> {result.time_us:,.1f} us"
        + (f" ({result.wall_time_s * 1e3:.1f} ms wall)" if result.wall_time_s else "")
    )
    print(
        "  " + "  ".join(f"{k}={v / 1e3:,.1f}us" for k, v in means.items())
    )
    print(f"  {len(recorder.events)} trace events -> {args.out}")
    return 0


def _check_main(argv: list[str]) -> int:
    """The ``check`` subcommand: sanitized differential verification."""
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Run every model x algorithm x distribution through "
        "both backends under the runtime sanitizer and compare each "
        "result against np.sort.  Exit 0 iff every invariant held.",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="reduced grid: 3 distributions, 2K keys (seconds, not minutes)",
    )
    parser.add_argument(
        "--no-native", action="store_true",
        help="skip the native (real host processes) backend",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run the simulated grid points across N worker processes",
    )
    parser.add_argument(
        "--backend", choices=["all", "sim", "native", "predict"],
        default="all",
        help="restrict the sweep: 'predict' cross-validates the analytic "
        "predictor against the simulated grid on the same keys "
        "(default: all)",
    )
    parser.add_argument(
        "--machine", metavar="NAME", default=None,
        help="restrict the sweep to one machine-zoo member "
        "(origin2000, multicore, bsp, ap1000; see docs/MACHINES.md)",
    )
    parser.add_argument(
        "--workload", metavar="KIND", default=None,
        help="restrict the sweep to one workload kind "
        "(u32, u64, f64, payload, dupheavy, antisample)",
    )
    args = parser.parse_args(argv)

    from .verify import run_check

    return run_check(
        small=args.small, native=not args.no_native, parallel=args.parallel,
        backend=args.backend, machine=args.machine, workload=args.workload,
    )


def _parse_size(text: str) -> int:
    """Accept the paper's size labels ('256M') or raw key counts."""
    from .core.experiment import SIZES

    if text in SIZES:
        return SIZES[text]
    try:
        return int(text)
    except ValueError:
        raise SystemExit(
            f"unknown size {text!r}; use a key count or one of "
            f"{', '.join(SIZES)}"
        ) from None


def _predict_main(argv: list[str]) -> int:
    """The ``predict`` subcommand: analytic prediction, no simulation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description="Predict sort performance analytically (the "
        "calibrated 'predict' backend) -- milliseconds per cell, no "
        "discrete-event simulation, no key array at paper scale.",
    )
    parser.add_argument(
        "--algorithm", choices=["radix", "sample"], default="radix"
    )
    parser.add_argument(
        "--model", default="shmem",
        help="programming model (default: shmem); ignored with --sweep",
    )
    parser.add_argument(
        "--size", default="256M",
        help="labeled key count: a paper label like 256M or an integer "
        "(default: 256M)",
    )
    parser.add_argument(
        "--procs", type=int, default=64,
        help="processor count (default: 64)",
    )
    parser.add_argument(
        "--radix", type=int, default=None,
        help="radix-digit width (default: the algorithm's tuned choice)",
    )
    parser.add_argument(
        "--distribution", default="gauss",
        help="key-distribution family (default: gauss)",
    )
    parser.add_argument(
        "--calibration", metavar="PATH", default=None,
        help="calibration artifact to apply (default: the active one -- "
        "$REPRO_CALIBRATION, the user cache, or the packaged default)",
    )
    parser.add_argument(
        "--uncalibrated", action="store_true",
        help="disable calibration (raw closed-form predictions)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="predict every model x both algorithms at this size/procs "
        "and print one table (the paper-scale sweep)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the predictions as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    import time as _time

    import numpy as np

    from .core.api import sort
    from .predict import PredictedBackend, load_calibration
    from .verify.differential import RADIX_MODELS, SAMPLE_MODELS

    if args.uncalibrated:
        backend = PredictedBackend(calibration=False)
    elif args.calibration is not None:
        backend = PredictedBackend(
            calibration=load_calibration(args.calibration)
        )
    else:
        backend = PredictedBackend()
    n = _parse_size(args.size)

    cells = (
        [
            (alg, model)
            for alg, models in (
                ("radix", RADIX_MODELS), ("sample", SAMPLE_MODELS)
            )
            for model in models
        ]
        if args.sweep
        else [(args.algorithm, args.model)]
    )
    rows = []
    t0 = _time.perf_counter()
    for alg, model in cells:
        result = sort(
            np.empty(0, dtype=np.int64),
            algorithm=alg,
            backend=backend,
            model=model,
            n_procs=args.procs,
            radix=args.radix,
            n_labeled=n,
            distribution=args.distribution,
        )
        rows.append((alg, model, result))
    wall_s = _time.perf_counter() - t0

    print(
        f"predicted: {n:,} {args.distribution} keys on {args.procs} procs "
        f"({wall_s * 1e3:.0f} ms wall for {len(rows)} cell"
        f"{'s' if len(rows) != 1 else ''})"
    )
    print(f"  {'cell':<18} {'time':>12}  per-processor category means")
    for alg, model, result in rows:
        means = result.report.category_means_ns()
        detail = "  ".join(f"{k}={v / 1e6:,.1f}ms" for k, v in means.items())
        print(
            f"  {alg + '/' + model:<18} {result.time_us / 1e3:>9,.1f} ms  "
            f"{detail}"
        )
    if args.json:
        import json

        payload = {
            "n_labeled": n,
            "n_procs": args.procs,
            "distribution": args.distribution,
            "wall_s": wall_s,
            "cells": [
                {
                    "algorithm": alg,
                    "model": model,
                    "time_ns": result.time_ns,
                    "category_means_ns": result.report.category_means_ns(),
                }
                for alg, model, result in rows
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"{len(rows)} predictions -> {args.json}", file=sys.stderr)
    return 0


def _calibrate_main(argv: list[str]) -> int:
    """The ``calibrate`` subcommand: fit the predictor to the simulator."""
    parser = argparse.ArgumentParser(
        prog="python -m repro calibrate",
        description="Fit the analytic predictor's per-(algorithm, model) "
        "exchange overhead factors against simulated grid cells and "
        "persist the calibration artifact with its error bands.",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="reduced fitting grid (seconds, not minutes)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="artifact path (default: the user cache, "
        "$REPRO_CACHE_DIR/calibration.json)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="compute the simulated reference cells across N workers",
    )
    args = parser.parse_args(argv)

    from .predict import default_calibration_path, fit_calibration

    cal = fit_calibration(small=args.small, parallel=args.parallel)
    out = args.out if args.out is not None else str(default_calibration_path())
    cal.save(out)
    print(f"calibration ({cal.meta.get('n_cells', '?')} cells) -> {out}")
    print(f"  {'group':<16} {'BUSY':>6} {'LMEM':>6} {'RMEM':>6} {'SYNC':>6}"
          f"  {'median err':>10} {'p95 err':>8}")
    for group in sorted(cal.factors):
        f = cal.factors[group]
        band = cal.error.get(group, {})
        print(
            f"  {group:<16} "
            + " ".join(f"{f[c]:>6.3f}" for c in ("BUSY", "LMEM", "RMEM", "SYNC"))
            + f"  {band.get('median_abs_rel', 0.0):>10.2%}"
            + f" {band.get('p95_abs_rel', 0.0):>8.2%}"
        )
    worst = cal.worst_median_error()
    print(f"  worst per-group median |rel error|: {worst:.2%}")
    return 0


def _chaos_main(argv: list[str]) -> int:
    """The ``chaos`` subcommand: seeded fault-injection matrix."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run the deterministic chaos matrix: inject seeded "
        "faults (worker crash/hang/slowdown, shared-memory and cache "
        "failures, simulated message delay/drop) across both backends "
        "and assert every sort equals np.sort with every fault "
        "recovered.  Exit 0 iff all scenarios pass.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="fault-schedule seed; the same seed replays the identical "
        "schedule (default: 0)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="reduced key counts (seconds, not minutes)",
    )
    parser.add_argument(
        "--soak", type=int, default=1, metavar="N",
        help="repeat the matrix N times with derived seeds (default: 1)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write a Chrome-trace JSON including the fault track",
    )
    parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="run only the named scenario (e.g. serve-traffic); the "
        "fault-kind coverage floor applies to full runs only",
    )
    args = parser.parse_args(argv)

    from .faults import run_chaos

    return run_chaos(
        seed=args.seed, small=args.small, soak=args.soak,
        trace_out=args.trace_out, scenario=args.scenario,
    )


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the sort job server until stopped."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve sort jobs over TCP on the resilient native "
        "worker pool with a preallocated shared-memory arena (zero "
        "per-job segment create/attach at steady state).  Runs until "
        "Ctrl-C or a client 'shutdown' op; see docs/SERVE.md.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = pick a free port and print it)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="pool width (default: $REPRO_WORKERS or the CPU count)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=8,
        help="admission cap on queued+running jobs (default: 8)",
    )
    parser.add_argument(
        "--data-slab-mb", type=int, default=8,
        help="data-slab size; bounds the largest job (default: 8 MiB)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=30.0,
        help="default per-job deadline (default: 30)",
    )
    parser.add_argument(
        "--max-frame-mb", type=int, default=64,
        help="per-frame wire cap; FrameTooLarge rejections report it and "
        "streaming jobs chunk under it (default: 64 MiB)",
    )
    parser.add_argument(
        "--max-streams", type=int, default=2,
        help="concurrent streaming sessions (default: 2)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome-trace JSON (serve.job spans on the serve "
        "track) on shutdown",
    )
    args = parser.parse_args(argv)

    import asyncio
    import signal

    from .serve import ServeServer

    recorder = MemoryRecorder() if args.trace_out else None
    server = ServeServer(
        args.host, args.port,
        n_workers=args.workers,
        queue_depth=args.queue_depth,
        data_slab_bytes=args.data_slab_mb << 20,
        default_deadline_s=args.deadline_s,
        recorder=recorder,
        max_frame=args.max_frame_mb << 20,
        max_streams=args.max_streams,
    )

    async def _amain() -> None:
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"({server.engine.pool.n_workers} workers, "
              f"queue depth {server.queue_depth})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_stop)
        try:
            await server._stop_event.wait()
        finally:
            await server.aclose()

    asyncio.run(_amain())
    if recorder is not None:
        write_chrome_trace(args.trace_out, recorder)
        print(f"{len(recorder.events)} trace events -> {args.trace_out}",
              file=sys.stderr)
    return 0


def _loadgen_main(argv: list[str]) -> int:
    """The ``loadgen`` subcommand: drive a server, verify, measure."""
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Generate concurrent sort jobs against a repro.serve "
        "endpoint, verify every result against np.sort, and report "
        "jobs/sec with p50/p99 latency.  Exit 0 iff every completed job "
        "was correct and no client errored.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="server port (omit with --spawn-server)",
    )
    parser.add_argument(
        "--spawn-server", action="store_true",
        help="run a server in-process for the duration of the test",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads (default: 4)",
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, metavar="S",
        help="seconds of load (default: 10)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="spawned server's pool width (with --spawn-server)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=8,
        help="spawned server's admission cap (with --spawn-server)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the metrics as a BENCH_2.json-style document",
    )
    args = parser.parse_args(argv)

    if args.port is None and not args.spawn_server:
        parser.error("need --port or --spawn-server")

    from contextlib import nullcontext

    from .serve import loadgen_ok, loadgen_results, run_loadgen, server_in_thread

    ctx = (
        server_in_thread(
            n_workers=args.workers, queue_depth=args.queue_depth
        )
        if args.spawn_server
        else nullcontext()
    )
    with ctx as server:
        port = server.port if server is not None else args.port
        metrics = run_loadgen(
            args.host, port,
            clients=args.clients, duration_s=args.duration, seed=args.seed,
        )

    jobs, thr, lat = metrics["jobs"], metrics["throughput"], metrics["latency"]
    steady = metrics["steady_state"]
    print(
        f"loadgen: {jobs['completed']} jobs in {thr['wall_s']:.1f}s "
        f"({thr['jobs_per_s']:.1f} jobs/s) across {args.clients} clients"
    )
    if lat["p50_s"] is not None:
        print(
            f"  latency p50={lat['p50_s'] * 1e3:.1f}ms "
            f"p99={lat['p99_s'] * 1e3:.1f}ms max={lat['max_s'] * 1e3:.1f}ms"
        )
    rejected = ", ".join(f"{k}={v}" for k, v in jobs["rejected"].items())
    print(
        f"  incorrect={jobs['incorrect']} errors={jobs['errors']}"
        + (f" rejected: {rejected}" if rejected else "")
    )
    print(
        f"  steady state: shm_creates={steady['shm_creates']} "
        f"shm_attaches={steady['shm_attaches']} "
        f"(warmup took {steady['warmup_rounds']} rounds)"
    )
    for sample in jobs["error_samples"]:
        print(f"  ERROR {sample}", file=sys.stderr)
    if args.json:
        from .report.emit import write_results_json

        write_results_json(
            args.json, loadgen_results(metrics),
            meta={"clients": args.clients, "duration_s": args.duration,
                  "seed": args.seed},
        )
        print(f"metrics -> {args.json}", file=sys.stderr)
    return 0 if loadgen_ok(metrics) else 1


def _cache_main(argv: list[str]) -> int:
    """The ``cache`` subcommand: stats / clear / gc for the disk cache."""
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or manage the persistent experiment result "
        "cache (default ~/.cache/repro, override with REPRO_CACHE_DIR).",
    )
    parser.add_argument("action", choices=["stats", "clear", "gc"])
    parser.add_argument(
        "--dir", metavar="PATH", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="gc only: additionally remove entries older than D days",
    )
    args = parser.parse_args(argv)

    from .core.gridcache import GridCache, format_stats

    cache = GridCache(args.dir)
    if args.action == "stats":
        print(format_stats(cache))
    elif args.action == "clear":
        n = cache.clear()
        print(f"removed {n} cached entries from {cache.root}")
    else:  # gc
        removed = cache.gc(max_age_days=args.max_age_days)
        total = sum(removed.values())
        detail = ", ".join(f"{k}={v}" for k, v in removed.items() if v)
        print(
            f"gc removed {total} entries from {cache.root}"
            + (f" ({detail})" if detail else "")
        )
    return 0


def _stream_main(argv: list[str]) -> int:
    """The ``stream`` subcommand: out-of-core sort / top-k over a file
    or a generated distribution (docs/STREAM.md)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro stream",
        description="Externally sort (or take the top-k of) a key stream "
        "that need not fit the chunk budget: chunked ingest, sorted spill "
        "runs on the native pool, fault-tolerant k-way merge.",
    )
    parser.add_argument(
        "mode", choices=["sort", "topk"],
        help="'sort': full external sort; 'topk': bounded-memory largest-k",
    )
    parser.add_argument(
        "--input", metavar="PATH", default=None,
        help="raw little-endian key file to ingest (default: generate)",
    )
    parser.add_argument(
        "--dtype", default="<i8",
        choices=["<i4", "<i8", "<u4", "<u8"],
        help="key dtype of the input stream (default: <i8)",
    )
    parser.add_argument(
        "--size", type=int, default=1 << 20,
        help="generated keys when no --input (default: 1Mi)",
    )
    parser.add_argument(
        "--distribution", default="random",
        help="generated key distribution (default: random)",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--chunk-keys", type=int, default=None,
        help="keys per in-memory chunk / spill run (default: 4Mi, or "
        "size/8 for generated input so runs and a merge are exercised)",
    )
    parser.add_argument(
        "--fan-in", type=int, default=None,
        help="max runs merged per pass (default: 16)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="native pool width for intermediate merge passes; runs are "
        "always formed in-process with np.sort (default: auto)",
    )
    parser.add_argument(
        "--k", type=int, default=100,
        help="topk only: how many largest keys to keep (default: 100)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="sort only: write the sorted keys as raw bytes here",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="sort only: skip the streaming order/conservation checks",
    )
    args = parser.parse_args(argv)

    import numpy as np

    from .stream import DEFAULT_FAN_IN, external_sort, stream_topk

    if args.input is not None:
        source: object = args.input
        n_hint = None
    else:
        from .data import generate

        n = args.size - (args.size % 4) or 4
        keys = generate(args.distribution, n, 4, seed=max(1, args.seed))
        source = keys.astype(np.dtype(args.dtype))
        n_hint = n

    if args.mode == "topk":
        chunk = args.chunk_keys or (1 << 20)
        top = stream_topk(source, args.k, chunk_keys=chunk, dtype=args.dtype)
        print(
            f"top-{args.k} of stream ({top.dtype.str}): "
            f"min={top[0]} max={top[-1]}" if len(top) else "empty stream"
        )
        if args.out:
            np.ascontiguousarray(top).tofile(args.out)
            print(f"{len(top)} keys -> {args.out}")
        return 0

    chunk = args.chunk_keys
    if chunk is None:
        chunk = max(4, n_hint // 8) if n_hint else 4 << 20
    result = external_sort(
        source,
        chunk_keys=chunk,
        dtype=args.dtype,
        fan_in=args.fan_in or DEFAULT_FAN_IN,
        n_workers=args.workers,
        out=args.out,
        verify=not args.no_verify,
    )
    print(
        f"externally sorted {result.n_keys:,} keys "
        f"({result.mb_sorted:.1f} MB, {result.dtype}) in "
        f"{result.elapsed_s * 1e3:,.1f} ms: {result.runs} run(s), "
        f"{result.merge_passes} merge pass(es), "
        f"{result.bytes_spilled / 1e6:.1f} MB spilled, "
        f"{result.throughput_mb_s:.1f} MB/s"
        + (", verified" if result.verified else "")
    )
    if result.faults.injected:
        print(
            f"  faults: {result.faults.injected} injected, "
            f"{result.faults.recovered} recovered"
        )
    if args.out:
        print(f"sorted keys -> {args.out}")
    return 0


#: Subcommand name -> (handler taking the remaining argv, one-line help).
SUBCOMMANDS = {
    "trace": (_trace_main, "run one sort on a backend and export its trace"),
    "predict": (_predict_main, "analytic prediction (no simulation)"),
    "calibrate": (_calibrate_main, "fit the predictor against the simulator"),
    "check": (_check_main, "sanitized check of every backend vs np.sort"),
    "cache": (_cache_main, "stats / clear / gc for the result cache"),
    "chaos": (_chaos_main, "seeded fault-injection matrix, both backends"),
    "serve": (_serve_main, "TCP sort-job server on the native pool"),
    "loadgen": (_loadgen_main, "load/latency harness for a serve endpoint"),
    "stream": (_stream_main, "out-of-core sort / top-k over a key stream"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        handler, _ = SUBCOMMANDS[argv[0]]
        return handler(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from Shan & Singh (SC 1999).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), 'list' / 'all', or a "
        "subcommand (see 'python -m repro <subcommand> --help')",
    )
    parser.add_argument(
        "--small", action="store_true", help="reduced grid (much faster)"
    )
    parser.add_argument(
        "--backend",
        choices=["sim", "predict"],
        default="sim",
        help="execution substrate for experiment grid cells: 'sim' (the "
        "discrete-event simulation) or 'predict' (the calibrated "
        "analytic model; milliseconds per cell, bypasses the cache and "
        "process pool).  Use the 'trace' subcommand for the native "
        "backend",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also record a structured trace of every simulated run and "
        "write it as Chrome-trace JSON (chrome://tracing / Perfetto); "
        "implies --no-cache (a cached cell would run no simulation to "
        "trace)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write every experiment's numbers as machine-readable "
        "JSON (diff against benchmarks/BENCH_0.json)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="compute grid cells missing from the cache across N worker "
        "processes (default: serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the persistent disk cache (results are neither read "
        "from nor written to $REPRO_CACHE_DIR / ~/.cache/repro)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for exp_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:<14} {doc}")
        for name, (_, help_line) in SUBCOMMANDS.items():
            print(f"{name:<14} {help_line}")
        return 0

    wanted = (
        list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    )
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    recorder = MemoryRecorder() if args.trace_out else None
    runner = ExperimentRunner(
        cache=False if (args.no_cache or args.trace_out) else None,
        parallel=args.parallel,
        backend=args.backend,
    )
    from .trace import use_recorder

    collected = []
    with use_recorder(recorder):
        for exp_id in wanted:
            kwargs = SMALL_GRID.get(exp_id, {}) if args.small else {}
            result = EXPERIMENTS[exp_id](runner, **kwargs)
            results = result if isinstance(result, tuple) else (result,)
            for r in results:
                collected.append(r)
                print()
                print(r.text)
    if args.json:
        from .report.emit import write_results_json

        write_results_json(
            args.json,
            collected,
            meta={"experiments": wanted, "small": args.small},
        )
        print(f"\n{len(collected)} experiment results -> {args.json}",
              file=sys.stderr)
    if recorder is not None:
        write_chrome_trace(args.trace_out, recorder)
        print(
            f"\n{len(recorder.events)} trace events -> {args.trace_out}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
