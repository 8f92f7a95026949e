"""Shared bookkeeping for the perfbench workloads.

A :class:`Ledger` collects one workload run: per-op latencies, failures
against attempts, the interleaved ``np.sort`` reference times, set-up
repetitions, and (traced runs) the per-op stage tables whose stages plus
``other`` tile each op's wall time.  It also owns the run-level audits
every workload shares: the host record, the ``/dev/shm`` and spill-dir
leak audit, and the peak-RSS reading of a process tree from ``/proc``.

Everything here observes the program from outside: it times the
benchmark's own calls and reads records the program already publishes.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: Fewest samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: A run keeps going past ``--seconds`` until it has this many ops, so a
#: tail percentile with ``TAIL_BEYOND`` samples beyond it always exists.
MIN_OPS = TAIL_BEYOND + 1

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

#: Chrome-trace process id of the spans the benchmark records itself.
PID_BENCH = 90

#: Shared-memory name prefixes the program creates: the serve arena's
#: ``repro_slab_*`` and CPython's default ``psm_*`` for per-sort buffers.
SHM_PREFIXES = ("repro_", "psm_")

#: Spill directories the external sort creates under its workdir.
SPILL_PREFIX = "repro_stream_"

#: Every end-to-end metric, in print order, with its unit (METRICS.md
#: says what each means).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("keys_per_s", "keys/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("npsort_ratio", "x"),
    ("fail_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it: ``(value, percentile, n_samples, n_beyond)``.  With too few
    samples the maximum is returned at percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0, 0
    k = n - 1 - TAIL_BEYOND
    if k < 0:
        return float(xs[-1]), 100.0, n, 0
    return float(xs[k]), 100.0 * (k + 1) / n, n, TAIL_BEYOND


# ----------------------------------------------------------------------
# Host, leaks, memory
# ----------------------------------------------------------------------
def host_record() -> dict:
    """nproc, CPU model, cache sizes and library versions of this host."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def leak_snapshot(spill_root: Path) -> dict[str, set[str]]:
    """Names of the program's shared-memory segments and spill dirs."""
    try:
        shm = {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIXES)}
    except OSError:
        shm = set()
    spill = (
        {n for n in os.listdir(spill_root) if n.startswith(SPILL_PREFIX)}
        if spill_root.is_dir()
        else set()
    )
    return {"shm": shm, "spill": spill}


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as f:
                kids.extend(int(x) for x in f.read().split())
        except (OSError, ValueError):
            continue
    return kids


def tree_peak_rss_mb(pid: int | None = None) -> float:
    """Sum of peak RSS over ``pid`` (default: this process) and every live
    descendant -- read it before closing pools or servers."""
    root = os.getpid() if pid is None else pid
    total_kb = 0
    stack = [root]
    seen: set[int] = set()
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        total_kb += _hwm_kb(p)
        stack.extend(_children(p))
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Process hygiene: every process a run starts has ended when it exits
# ----------------------------------------------------------------------
#: ``prctl`` option that makes orphaned descendants re-parent to us.
PR_SET_CHILD_SUBREAPER = 36

#: How long ``reap_children`` lets live children finish on their own.
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Become a child subreaper, so a descendant that outlives its parent
    (a server's resource tracker, a killed pool's worker) re-parents to
    this process and :func:`reap_children` can wait for it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_resource_tracker() -> None:
    """End this process's multiprocessing resource tracker and wait for it.

    Creating a shared-memory segment or spawning a process starts the
    tracker, which otherwise only exits after this process has, orphaned.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def reap_children(grace_s: float = REAP_GRACE_S) -> list[str]:
    """Wait for every child of this process to end, killing any still alive
    after ``grace_s``; returns the command lines of the killed ones."""
    _stop_resource_tracker()
    killed: list[str] = []
    gone: set[int] = set()
    deadline = time.monotonic() + grace_s
    while True:
        kids = [pid for pid in _children(os.getpid()) if pid not in gone]
        if not kids:
            return killed
        for pid in kids:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # already reaped elsewhere
                gone.add(pid)
                continue
            if done == 0 and time.monotonic() > deadline:
                killed.append(_cmdline(pid))
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
        time.sleep(0.02)


# ----------------------------------------------------------------------
# Output corruption for the wrong-sort self-test
# ----------------------------------------------------------------------
class Corruptor:
    """Seeded wrong-sort injector: with probability ``rate`` an output
    has two unequal keys swapped, so a correct check must flag it."""

    def __init__(self, rate: float, seed: int):
        self.rate = rate
        self._rng = np.random.default_rng(seed + 7919)
        self.injected = 0

    def __call__(self, out: np.ndarray) -> np.ndarray:
        if self.rate <= 0 or len(out) < 2 or self._rng.random() >= self.rate:
            return out
        out = np.array(out, copy=True)
        i = int(self._rng.integers(0, len(out) - 1))
        j = int(np.searchsorted(out, out[i], side="right"))
        if j >= len(out):  # out[i] is the maximum: swap with the minimum
            j = 0
        out[i], out[j] = out[j], out[i]
        self.injected += 1
        return out


def _stage_row(seconds: list[float], total_s: float) -> dict:
    return {
        "median_ms": median(seconds) * 1e3,
        "mean_ms": sum(seconds) / len(seconds) * 1e3,
        "share": sum(seconds) / total_s,
    }


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class Ledger:
    """One workload run's measurements and verdicts."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.op_keys: list[int] = []
        self.npsort_s: list[float] = []
        self.verify_s: list[float] = []
        #: Wall of the timed window; defaults to the sum of op walls for
        #: workloads that issue one op at a time.
        self.timed_wall_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.fail_notes: list[str] = []
        #: Traced runs: (op wall, {stage: seconds}) per op, without other.
        self.stages: list[tuple[float, dict[str, float]]] = []
        #: Per-layer scalars a workload reads from the program's records.
        self.layer: dict[str, tuple[float, str]] = {}
        self.notes: dict = {}
        self.peak_rss_mb = 0.0

    # ------------------------------------------------------------------
    def repeated_setup(self, build, discard):
        """Run ``build()`` ``SETUP_REPS`` times, timing each, and return the
        last result; earlier results go to ``discard`` before the next
        build, so at most one set-up holds memory and processes."""
        state = None
        for _ in range(SETUP_REPS):
            if state is not None:
                discard(state)
                state = None
            t0 = time.perf_counter()
            state = build()
            self.setup_s.append(time.perf_counter() - t0)
        return state

    def op(self, wall_s: float, keys: int, ok: bool, note: str = "") -> None:
        """Record one attempted op; a wrong or failed op still counts."""
        self.attempted += 1
        if ok:
            self.op_s.append(wall_s)
            self.op_keys.append(keys)
        else:
            self.fail(note or "wrong output")

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.fail_notes) < 20:
            self.fail_notes.append(note)

    def check(self, out: np.ndarray, ref: np.ndarray) -> bool:
        """``np.array_equal`` against the set-up reference, timed."""
        t0 = time.perf_counter()
        ok = bool(np.array_equal(out, ref))
        self.verify_s.append(time.perf_counter() - t0)
        return ok

    def stage_row(self, wall_s: float, stages: dict[str, float]) -> None:
        self.stages.append((wall_s, dict(stages)))

    def set_layer(self, name: str, value: float, unit: str) -> None:
        self.layer[name] = (float(value), unit)

    def set_stage_layers(self, other: str, stat: str = "median_ms") -> None:
        """One ``<stage>_ms`` per-layer metric per tiled stage; ``other``
        names this workload's remainder stage."""
        for name, row in self.stage_table().items():
            layer = other if name == "other" else name
            self.set_layer(f"{layer}_ms", row[stat], "ms")

    def leaks(self, before: dict[str, set[str]], after: dict[str, set[str]]) -> None:
        """Any segment or spill dir left behind is a failure."""
        for kind in ("shm", "spill"):
            left = sorted(after[kind] - before[kind])
            self.notes[f"leaked_{kind}"] = left
            for name in left:
                self.fail(f"leaked {kind}: {name}")

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        wall = self.timed_wall_s
        if wall is None:
            wall = sum(self.op_s)
        tail_v, tail_q, tail_n, beyond = tail(self.op_s)
        self.notes["tail"] = {
            "percentile": tail_q, "samples": tail_n, "beyond": beyond,
        }
        p50 = median(self.op_s)
        ref = median(self.npsort_s)
        values = {
            "setup_s": median(self.setup_s),
            "ops_per_s": len(self.op_s) / wall if wall > 0 else 0.0,
            "keys_per_s": sum(self.op_keys) / wall if wall > 0 else 0.0,
            "op_p50_ms": p50 * 1e3,
            "op_tail_ms": tail_v * 1e3,
            "npsort_ratio": p50 / ref if ref > 0 else 0.0,
            "fail_frac": self.failed / self.attempted if self.attempted else 1.0,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def stage_table(self) -> dict:
        """Median and mean ms and share of op wall per stage, plus
        ``other``, the part of each op's wall no named stage covers."""
        if not self.stages:
            return {}
        names = sorted({k for _wall, row in self.stages for k in row})
        table = {}
        others = [wall - sum(row.values()) for wall, row in self.stages]
        total = sum(wall for wall, _row in self.stages) or 1.0
        for name in names:
            xs = [row.get(name, 0.0) for _wall, row in self.stages]
            table[name] = _stage_row(xs, total)
        table["other"] = _stage_row(others, total)
        # A negative ``other`` would mean the named stages overlap.
        self.notes["other_min_ms"] = min(others) * 1e3
        self.notes["tiled_ops"] = len(self.stages)
        return table
