"""serve-closed: the job server in its own process, driven in a closed loop.

``python -m repro serve --workers 2`` runs as a child process.  This
process is the load generator: two client threads, each with its own
connection, issue the next job only after the previous one returned.
The job list is fixed and seeded: every size of loadgen's
``SIZE_CHOICES`` with each algorithm equally often (so 50/50
radix/sample), with seeded 48-bit keys, issued in seeded shuffles of the
whole set.  The jobs and their ``np.sort`` references are built at
set-up.  Each op is one job, with ``submit``, ``wait`` and ``result``
timed separately; they tile the op with ``other``, the client's own
gaps.  After the op's clock stops, the client checks the result against
the reference and times ``np.sort`` of the same keys, so both sides of
``npsort_ratio`` see the same host conditions.

The server's ``stats`` op is read at the end: refusals, and any
steady-state shared-memory create or attach or supervised phase failure,
count as failures.  Traced runs also start the server with
``--trace-out`` and read its ``serve.job`` spans for queue wait and
engine time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve import ServeClient
from repro.serve.client import ServeError, ServeRejected
from repro.serve.loadgen import SIZE_CHOICES
from repro.trace import MemoryRecorder, write_chrome_trace

from ledger import MIN_OPS, PID_BENCH, Ledger, median, tree_peak_rss_mb

CONNECTIONS = 2
WORKERS = 2
N_JOBS = 40
DECKS = 200
KEY_BITS = 48
START_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 30.0


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, ctx, trace_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.src) + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", str(WORKERS)]
        if trace_path is not None:
            cmd += ["--trace-out", str(trace_path)]
        self.log = open(ctx.out_dir / "serve-closed.server.log", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.port = None

    def wait_ready(self) -> int:
        """Block until the server prints its port."""
        timer = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith("serving on"):
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        return self.port

    def stop(self) -> None:
        """Ask for shutdown; kill if the server does not exit."""
        try:
            if self.port is not None and self.proc.poll() is None:
                with ServeClient(port=self.port, timeout_s=CLIENT_TIMEOUT_S) as c:
                    c.shutdown()
            self.proc.wait(CLIENT_TIMEOUT_S)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def make_jobs(seed: int):
    """``N_JOBS`` distinct jobs, every (size, algorithm) pair equally
    often, and the order to issue them in: a seeded shuffle of the whole
    set, repeated ``DECKS`` times.  Every seed offers the server the same
    mix of work, and the shuffles vary which jobs overlap in the queue."""
    mix = [(n, alg) for n in SIZE_CHOICES for alg in ("radix", "sample")]
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(N_JOBS):
        n, algorithm = mix[i % len(mix)]
        keys = rng.integers(0, 1 << KEY_BITS, size=n, dtype=np.int64)
        jobs.append((algorithm, keys, np.sort(keys)))
    order = np.concatenate([rng.permutation(N_JOBS) for _ in range(DECKS)])
    return jobs, order


def _setup(ctx, trace_path):
    server = Server(ctx, trace_path)
    try:
        jobs, order = make_jobs(ctx.seed)  # overlaps the server's start-up
        port = server.wait_ready()
        clients = [ServeClient(port=port, timeout_s=CLIENT_TIMEOUT_S)
                   for _ in range(CONNECTIONS)]
        _a, largest, ref = max(jobs, key=lambda job: len(job[1]))
        for c in clients:  # untimed warm-up: one job per algorithm
            for algorithm in ("radix", "sample"):
                if not np.array_equal(c.sort(largest, algorithm), ref):
                    raise RuntimeError("warm-up job returned a wrong sort")
    except BaseException:
        server.stop()
        raise
    return server, clients, jobs, order


def _discard(state) -> None:
    server, clients = state[:2]
    for c in clients:
        c.close()
    server.stop()


@dataclass
class _Op:
    """One job as its client saw it; times in seconds."""

    job: int
    tid: int
    t0: float
    submit: float = 0.0
    wait: float = 0.0
    result: float = 0.0
    wall: float = 0.0
    verify: float = 0.0
    npsort: float = 0.0
    ok: bool = False
    note: str = ""


def _client_loop(tid, client, jobs, order, next_job, deadline, done_count, ops,
                 corrupt, lock):
    """One closed-loop connection: the next job starts when this one ends."""
    while True:
        with lock:
            if time.perf_counter() >= deadline and done_count[0] >= MIN_OPS:
                return
            j = int(order[next_job[0] % len(order)])
            next_job[0] += 1
        algorithm, keys, ref = jobs[j]
        op = _Op(job=j, tid=tid, t0=time.perf_counter())
        t0 = op.t0
        try:
            job_id = client.submit(keys, algorithm)
            t1 = time.perf_counter()
            status = client.wait(job_id, timeout_s=CLIENT_TIMEOUT_S)
            t2 = time.perf_counter()
            if status.get("status") != "done":
                raise ServeError(status.get("error") or status.get("status", "?"))
            out = client.result(job_id)
            t3 = time.perf_counter()
            op.submit, op.wait, op.result, op.wall = t1 - t0, t2 - t1, t3 - t2, t3 - t0
            op.ok = bool(np.array_equal(corrupt(out), ref))
            t4 = time.perf_counter()
            op.verify = t4 - t3
            np.sort(keys)  # the reference, timed under the same load
            op.npsort = time.perf_counter() - t4
            if not op.ok:
                op.note = f"{algorithm}/{len(keys)}: result differs from np.sort"
        except ServeRejected as rej:
            op.note = f"refused: {rej.code}"
            time.sleep(min(rej.retry_after_s or 0.05, 1.0))
        except (ServeError, OSError) as err:
            op.note = f"{algorithm}/{len(keys)}: {type(err).__name__}: {err}"
        ops.append(op)
        with lock:
            done_count[0] += 1


def run(ctx, ledger: Ledger) -> None:
    trace_path = ctx.out_dir / "serve-closed.server.trace.json" if ctx.traced else None
    server, clients, jobs, order = ledger.repeated_setup(
        lambda: _setup(ctx, trace_path), _discard
    )
    ledger.notes["input_bytes"] = int(sum(k.nbytes for _a, k, _r in jobs))
    try:
        lock = threading.Lock()
        next_job, done_count = [0], [0]
        per_thread = [[] for _ in clients]
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(i, c, jobs, order, next_job, start + ctx.seconds, done_count,
                      per_thread[i], ctx.corrupt, lock),
                name=f"perfbench-client-{i}",
            )
            for i, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledger.timed_wall_s = time.perf_counter() - start
        stats = clients[0].stats()
        ledger.peak_rss_mb = tree_peak_rss_mb()
    finally:
        for c in clients:
            c.close()
        server.stop()

    rec = MemoryRecorder() if ctx.traced else None
    ops = sorted((op for lst in per_thread for op in lst), key=lambda o: o.t0)
    for op in ops:
        ledger.op(op.wall, len(jobs[op.job][1]), op.ok, op.note)
        if not op.ok:
            continue
        ledger.verify_s.append(op.verify)
        ledger.npsort_s.append(op.npsort)
        if rec is not None:
            stages = {"serve.submit": op.submit, "serve.wait": op.wait,
                      "serve.result": op.result}
            ledger.stage_row(op.wall, stages)
            ts = op.t0
            for name, dur in stages.items():
                rec.complete(name, cat="perfbench", ts_us=ts * 1e6,
                             dur_us=dur * 1e6, pid=PID_BENCH, tid=op.tid)
                ts += dur
            rec.complete("serve.verify", cat="perfbench", ts_us=ts * 1e6,
                         dur_us=op.verify * 1e6, pid=PID_BENCH, tid=op.tid)

    engine = stats.get("engine") or {}
    rejects = sum((stats.get("admission") or {}).get("rejected", {}).values())
    counters = {
        "serve.steady_shm_creates": engine.get("steady_shm_creates", 0),
        "serve.steady_shm_attaches": engine.get("steady_shm_attaches", 0),
        "serve.phase_failures": engine.get("phase_failures", 0),
    }
    for name, value in counters.items():
        ledger.set_layer(name, value, "count")
        if value:
            ledger.fail(f"{name} = {value}")
    ledger.set_layer("serve.rejects", rejects, "count")
    ledger.set_layer("pool.phase_failures", counters["serve.phase_failures"], "count")
    jobs_run = max(1, engine.get("jobs_run", 0))
    ledger.set_layer("shm.creates_per_op",
                     counters["serve.steady_shm_creates"] / jobs_run, "count")
    ledger.notes["server_stats"] = stats
    if rec is not None:
        ledger.set_stage_layers("serve.other")
        ledger.set_layer("serve.verify_ms", median(ledger.verify_s) * 1e3, "ms")
        with open(trace_path, encoding="utf-8") as f:
            server_trace = json.load(f)["traceEvents"]
        spans = [e for e in server_trace if e.get("name") == "serve.job"]
        ledger.set_layer("serve.engine_ms",
                         median(e["dur"] / 1e3 for e in spans), "ms")
        ledger.set_layer(
            "serve.queue_wait_ms",
            median(e["args"].get("queue_wait_ms") or 0.0 for e in spans), "ms",
        )
        write_chrome_trace(str(ctx.out_dir / f"{ctx.workload}.trace.json"), rec,
                           process_names={PID_BENCH: "perfbench clients"})
