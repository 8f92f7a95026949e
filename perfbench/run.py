"""perfbench: the repository's one benchmark.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload inmem-sample --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that measures the per-layer metrics, writes each
op's stage table and a Chrome trace under ``.bench_out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name and unit.  The exit code is non-zero when any op failed or leaked.

Run every workload, untraced and traced, and print one table::

    python3 perfbench/run.py --all --seconds 20

See ``perfbench/METRICS.md`` for every metric and the workloads.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

from ledger import (
    END_TO_END, Corruptor, Ledger, adopt_orphans, host_record, leak_snapshot,
    median, reap_children,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("inmem-sample", "stream-file", "sweep-cold", "serve-closed")

#: Lists the metrics the JSON line carries: ``end_to_end`` on untraced
#: runs and ``per_layer`` on traced ones.
SPEC = ROOT / "BENCHMARK.json"

#: A run that overruns ``--seconds`` by this much is stopped and failed,
#: so a hung server or pool cannot keep the benchmark from exiting.
WATCHDOG_S = 120


class Overrun(Exception):
    """Raised in the main thread when the watchdog fires."""


def _overrun(signum, frame):
    raise Overrun(f"run exceeded --seconds + {WATCHDOG_S}s")


class Context:
    """What a workload needs from the command line."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 wrong_sort_rate: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.root = ROOT
        self.src = SRC
        self.out_dir = OUT_DIR
        self.wrong_sort_rate = wrong_sort_rate
        self.corrupt = Corruptor(wrong_sort_rate, seed)


def _workload_module(name: str):
    if name == "inmem-sample":
        import wl_inmem as mod
    elif name == "stream-file":
        import wl_stream as mod
    elif name == "sweep-cold":
        import wl_sweep as mod
    else:
        import wl_serve as mod
    return mod


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, default=str)


def run_one(args) -> int:
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.inject_wrong_sort)
    OUT_DIR.mkdir(exist_ok=True)
    spill_root = OUT_DIR / "spill"
    spill_root.mkdir(exist_ok=True)
    ledger = Ledger()
    adopt_orphans()
    before = leak_snapshot(spill_root)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(int(ctx.seconds) + WATCHDOG_S)
    try:
        _workload_module(ctx.workload).run(ctx, ledger)
    except Exception as err:  # a crashed workload is a failed run
        import traceback

        traceback.print_exc()
        ledger.fail(f"workload raised {type(err).__name__}: {err}")
    finally:
        signal.alarm(0)
    ledger.leaks(before, leak_snapshot(spill_root))
    # After the leak audit: stopping the resource tracker unlinks any
    # segment still registered with it.
    for cmd in reap_children():
        ledger.fail(f"process still running after the run: {cmd}")

    e2e = ledger.end_to_end()
    kind = "traced" if ctx.traced else "untraced"
    print(f"perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"{kind}")
    print(f"host {json.dumps(host_record())}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    tail = ledger.notes["tail"]
    print(f"  op_tail_ms is p{tail['percentile']:.4g} of {tail['samples']} "
          f"ops ({tail['beyond']} beyond it)")
    print(f"  input_bytes {ledger.notes.get('input_bytes')}")
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    if ctx.traced:
        ledger.set_layer("trace.ops_per_s", e2e["ops_per_s"][0], "1/s")
        ledger.set_layer("reference.npsort_ms",
                         median(ledger.npsort_s) * 1e3, "ms")
        ledger.set_layer("bench.verify_ms", median(ledger.verify_s) * 1e3, "ms")
        # A layer this workload never calls reads 0.
        for m in spec["per_layer"]:
            ledger.layer.setdefault(m["name"], (0.0, m["unit"]))
        print("  per-layer:")
        for name, (value, unit) in sorted(ledger.layer.items()):
            print(f"  {name:<28} {_fmt(value):>14} {unit}")
    table = ledger.stage_table()
    if table:
        print("  stage tile (median ms, share of op wall):")
        for name, row in table.items():
            print(f"  {name:<28} {row['median_ms']:>14.4f} {row['share']:.4f}")
    if ledger.fail_notes:
        print(f"  failures: {ledger.fail_notes}")
    record = OUT_DIR / f"{ctx.workload}.{kind}.json"
    _write_json(record, {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.traced,
        "host": host_record(),
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in ledger.layer.items()},
        "stage_tile": table,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_notes": ledger.fail_notes,
        "notes": ledger.notes,
    })
    print(f"  record: {record.relative_to(ROOT)}")

    values = {n: v for n, (v, _u) in (ledger.layer if ctx.traced else e2e).items()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if ctx.traced else "end_to_end"]
    }
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process; the
    summary reads each run's record file, which holds all eight metrics."""
    status = 0
    records = {}
    for workload in WORKLOADS:
        for kind, trace in (("untraced", 0), ("traced", 1)):
            record = OUT_DIR / f"{workload}.{kind}.json"
            record.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not record.is_file():
                status = 1
            if record.is_file():
                with open(record, encoding="utf-8") as f:
                    records[(workload, kind)] = json.load(f)
    print("\nperfbench summary (end-to-end, untraced runs)")
    print(f"  {'metric':<14} {'unit':<9}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name, unit in END_TO_END:
        cells = []
        for w in WORKLOADS:
            rec = records.get((w, "untraced"))
            cells.append(_fmt(rec["end_to_end"][name]["value"]) if rec else "n/a")
        print(f"  {name:<14} {unit:<9}" + "".join(f"{c:>15}" for c in cells))
    print("  tracing overhead (1 - traced/untraced ops_per_s):")
    for w in WORKLOADS:
        plain, traced = records.get((w, "untraced")), records.get((w, "traced"))
        if plain and traced:
            base = plain["end_to_end"]["ops_per_s"]["value"]
            with_trace = traced["end_to_end"]["ops_per_s"]["value"]
            frac = 1.0 - with_trace / base if base > 0 else 0.0
            print(f"  {w:<14} {frac:+.4f}")
    print("perfbench:", "all outputs correct" if status == 0 else "FAILURES")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-sort", type=float, default=0.0,
                        metavar="RATE",
                        help="self-test: corrupt this share of op outputs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no repro package under {SRC} or no {SPEC.name}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
