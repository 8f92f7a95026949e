#!/usr/bin/env python
"""Diff two experiment-results JSON files (``--json`` output, e.g. the
checked-in ``BENCH_0.json``/``BENCH_1.json`` baselines vs. a fresh run).

Values are compared per experiment id over the shared numeric leaves of
``data`` (dotted paths).  Wall-clock keys (anything containing
``wall_s``) are never diffed against a tolerance -- they are machine
dependent -- and neither are predictor error measures (``rel_err``,
``abs_rel``): those are near-zero quantities whose relative drift is
meaningless and which the error-band gate bounds absolutely instead.
The predictor's sweep latency can be given an absolute budget, and
predictor error bands a gate:

    python benchmarks/compare.py benchmarks/BENCH_0.json fresh.json
    python benchmarks/compare.py benchmarks/BENCH_1.json fresh.json \
        --rtol 0.25 --predict-budget 20

The serve load test (``BENCH_2.json``) is never diffed — its
throughput, latency, and job counts depend on the machine and on load —
but ``--serve`` (or the mere presence of a ``serve_loadgen`` result)
enforces its absolute invariants: correct results, no client errors,
and zero steady-state shared-memory creates/attaches:

    python benchmarks/compare.py benchmarks/BENCH_2.json fresh.json --serve

The native hot-path bench (``BENCH_3.json``) is likewise never diffed —
its wall clocks are machine dependent — but ``--native`` (or the
presence of a ``native_path`` result) enforces its absolute invariants:
every sort's output matched ``np.sort``, and at every cell with
n >= 2^22 both the radix and the sample sort ran within
``NATIVE_MAX_NPSORT_RATIO`` times ``np.sort``'s wall (see docs/PERF.md):

    python benchmarks/compare.py benchmarks/BENCH_3.json fresh.json --native

Exit code 0 iff every shared value is within tolerance and every
requested budget/gate holds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

#: ``repro check --backend predict`` enforces the same gate; keep in sync
#: with repro.verify.differential.PREDICT_ERROR_GATE.
PREDICT_ERROR_GATE = 0.15

#: Leaf-path fragments excluded from the relative drift diff: wall
#: clocks are machine dependent, and predictor error measures are
#: near-zero values gated absolutely by :func:`check_predict`.
SKIP_FRAGMENTS = ("wall_s", "rel_err", "abs_rel")

#: Experiments excluded from the drift diff entirely: the serve load
#: test's throughput/latency/job counts are machine- and load-dependent
#: by nature (gated by :func:`check_serve`), the native hot-path
#: bench's np.sort ratios likewise vary with the host (gated by
#: :func:`check_native`), and the out-of-core stream bench's MB/s
#: depends on the host's disk and core count (gated absolutely by
#: :func:`check_stream`).
SKIP_EXPERIMENTS = ("serve_loadgen", "native_path", "stream_path",
                    "machine_zoo")

#: Coverage floors for the machine-zoo sweep (benchmarks/BENCH_5.json):
#: every zoo machine and every workload kind must appear, with every
#: cell's output verified against NumPy.  Simulated times depend on the
#: zoo's cost parameters and are deliberately not diffed.
ZOO_MIN_MACHINES = 4
ZOO_MIN_WORKLOADS = 6

#: The native np.sort-ratio gate only applies from this input size up:
#: below it the fixed per-pass overheads dominate and the ratio is
#: noise.  Keep in sync with native_path's ``gate_min_n``.
NATIVE_GATE_MIN_N = 1 << 22

#: Upper bound on each gated cell's radix and sample wall as a multiple
#: of ``np.sort``'s on the same keys and host.  Set below half of the
#: retired seed-equivalent radix kernel's own ratio (23-28x at n = 2^22
#: on a 2-vCPU host), where the radix sort measures 4.2-5.7x and sample
#: sort 2.5-3.4x.
NATIVE_MAX_NPSORT_RATIO = 10.0

#: Absolute external-sort throughput floor for ``check_stream``, in
#: MB/s per cell.  Deliberately far below the ~28-47 MB/s measured on a
#: single-core dev box (benchmarks/BENCH_4.json): the gate exists to
#: catch a pathological merge regression (the key-at-a-time degenerate
#: merge ran at ~0.4 MB/s), not to pin machine-dependent disk speed.
STREAM_FLOOR_MB_S = 4.0


def numeric_leaves(value, prefix=""):
    """Flatten nested dicts/lists into {dotted.path: float}."""
    out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            out.update(numeric_leaves(v, f"{prefix}{k}." if prefix or k else k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.update(numeric_leaves(v, f"{prefix}{i}."))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix.rstrip(".")] = float(value)
    return out


def load_results(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {r["exp_id"]: r for r in doc.get("results", [])}


def diff_shared(baseline, current, rtol):
    """Yield (exp_id, path, base, cur, rel) for out-of-tolerance leaves."""
    for exp_id in sorted(set(baseline) & set(current)):
        if exp_id in SKIP_EXPERIMENTS:
            continue  # gated absolutely, not diffed (see SKIP_EXPERIMENTS)
        base = numeric_leaves(baseline[exp_id].get("data", {}))
        cur = numeric_leaves(current[exp_id].get("data", {}))
        for path in sorted(set(base) & set(cur)):
            if any(fragment in path for fragment in SKIP_FRAGMENTS):
                continue  # see SKIP_FRAGMENTS; budget/gate cover these
            b, c = base[path], cur[path]
            if b == c:
                continue
            scale = max(abs(b), abs(c))
            rel = abs(c - b) / scale if scale > 0 else math.inf
            if rel > rtol:
                yield exp_id, path, b, c, rel


def check_predict(current, budget):
    """Enforce the predictor's latency budget and error gate on every
    predict_compare result in ``current``.  Yields failure strings."""
    result = current.get("predict_compare")
    if result is None:
        yield "no predict_compare result in current file"
        return
    data = result.get("data", {})
    band = data.get("band", {})
    latency = data.get("latency", {})
    median = band.get("median_abs_rel")
    if median is None:
        yield "predict_compare has no error band"
    elif median > PREDICT_ERROR_GATE:
        yield (
            f"predictor median |rel error| {median:.2%} exceeds the "
            f"{PREDICT_ERROR_GATE:.0%} gate"
        )
    wall = latency.get("predict_wall_s")
    if budget is not None:
        if wall is None:
            yield "predict_compare has no predicted sweep latency"
        elif wall > budget:
            yield (
                f"predicted sweep took {wall:.2f}s for "
                f"{latency.get('n_cells', '?')} cells, over the "
                f"{budget:.1f}s budget"
            )


def check_serve(current):
    """Enforce the serve load test's absolute invariants on ``current``:
    work was done, every result was correct, no client errored, and the
    steady-state path performed no shared-memory creates or attaches.
    Throughput and latency are machine dependent and deliberately not
    gated.  Yields failure strings."""
    result = current.get("serve_loadgen")
    if result is None:
        yield "no serve_loadgen result in current file"
        return
    data = result.get("data", {})
    jobs = data.get("jobs", {})
    steady = data.get("steady_state", {})
    if not jobs.get("completed"):
        yield "serve_loadgen completed no jobs"
    if jobs.get("incorrect", 1) != 0:
        yield f"serve_loadgen: {jobs.get('incorrect')} incorrect result(s)"
    if jobs.get("errors", 1) != 0:
        yield f"serve_loadgen: {jobs.get('errors')} client error(s)"
    for counter in ("shm_creates", "shm_attaches"):
        if steady.get(counter) != 0:
            yield (
                f"serve_loadgen: steady-state {counter}="
                f"{steady.get(counter)!r}, expected 0 (the arena must "
                "remove per-job shared-memory traffic)"
            )


def check_native(current):
    """Enforce the native hot-path bench's absolute invariants on
    ``current``: every cell's outputs matched ``np.sort``, and at every
    cell with n >= NATIVE_GATE_MIN_N the radix and sample walls stayed
    within NATIVE_MAX_NPSORT_RATIO times ``np.sort``'s.  Raw wall clocks
    are machine dependent and deliberately not gated.  Yields failure
    strings."""
    result = current.get("native_path")
    if result is None:
        yield "no native_path result in current file"
        return
    data = result.get("data", {})
    cells = data.get("cells", {})
    if not cells:
        yield "native_path has no cells"
        return
    gated = 0
    for label, cell in sorted(cells.items()):
        if cell.get("verified") != 1:
            yield f"native_path: cell {label} output did not match np.sort"
        if cell.get("n", 0) >= NATIVE_GATE_MIN_N:
            gated += 1
            for algorithm in ("radix", "sample"):
                ratio = cell.get(f"{algorithm}_npsort_ratio", math.inf)
                if not ratio <= NATIVE_MAX_NPSORT_RATIO:
                    yield (
                        f"native_path: cell {label} {algorithm} sort took "
                        f"{ratio:.2f}x np.sort's wall "
                        f"(bound {NATIVE_MAX_NPSORT_RATIO:.1f}x)"
                    )
    if gated == 0:
        yield (
            f"native_path: no cell reaches the n >= {NATIVE_GATE_MIN_N} "
            "gate (run without --small to produce gated sizes)"
        )


def check_stream(current):
    """Enforce the out-of-core stream bench's absolute invariants on
    ``current``: every cell's streamed output matched ``np.sort`` (zero
    incorrect keys), every cell actually spilled runs and merged (no
    in-memory shortcut), and throughput stayed at or above the
    :data:`STREAM_FLOOR_MB_S` floor.  Raw MB/s is machine dependent and
    deliberately not diffed.  Yields failure strings."""
    result = current.get("stream_path")
    if result is None:
        yield "no stream_path result in current file"
        return
    data = result.get("data", {})
    cells = data.get("cells", {})
    if not cells:
        yield "stream_path has no cells"
        return
    merged = 0
    for label, cell in sorted(cells.items()):
        if cell.get("verified") != 1:
            yield f"stream_path: cell {label} output did not match np.sort"
        if cell.get("incorrect", 1) != 0:
            yield (
                f"stream_path: cell {label} has "
                f"{cell.get('incorrect')} incorrect key(s)"
            )
        if cell.get("runs", 0) < 2:
            yield (
                f"stream_path: cell {label} spilled "
                f"{cell.get('runs')} run(s); the bench must exercise "
                "the external path (>= 2 runs)"
            )
        if cell.get("merge_passes", 0) >= 1:
            merged += 1
        throughput = cell.get("throughput_mb_s", 0.0)
        if throughput < STREAM_FLOOR_MB_S:
            yield (
                f"stream_path: cell {label} sorted at "
                f"{throughput:.1f} MB/s, under the "
                f"{STREAM_FLOOR_MB_S:.1f} MB/s floor"
            )
    if merged == 0:
        yield (
            "stream_path: no cell performed an intermediate merge pass "
            "(fan-in never exceeded; the bench must exercise multi-pass "
            "merging)"
        )


def check_zoo(current):
    """Enforce the machine-zoo sweep's absolute invariants on
    ``current``: every cell verified against NumPy, and full coverage of
    the zoo (>= ZOO_MIN_MACHINES machines x ZOO_MIN_WORKLOADS workload
    kinds, both algorithms).  Simulated times depend on each machine's
    cost parameters and are deliberately not diffed.  Yields failure
    strings."""
    result = current.get("machine_zoo")
    if result is None:
        yield "no machine_zoo result in current file"
        return
    data = result.get("data", {})
    cells = data.get("cells", {})
    if not cells:
        yield "machine_zoo has no cells"
        return
    machines, workloads, algorithms = set(), set(), set()
    for label, cell in sorted(cells.items()):
        machines.add(cell.get("machine"))
        workloads.add(cell.get("workload"))
        algorithms.add(cell.get("algorithm"))
        if cell.get("verified") != 1:
            yield (
                f"machine_zoo: cell {label} output did not match "
                "np.sort/np.argsort"
            )
        if cell.get("time_ns", 0) <= 0:
            yield f"machine_zoo: cell {label} accumulated no simulated time"
    if len(machines) < ZOO_MIN_MACHINES:
        yield (
            f"machine_zoo: only {len(machines)} machine(s) covered "
            f"({', '.join(sorted(m for m in machines if m))}); "
            f"need >= {ZOO_MIN_MACHINES}"
        )
    if len(workloads) < ZOO_MIN_WORKLOADS:
        yield (
            f"machine_zoo: only {len(workloads)} workload kind(s) covered; "
            f"need >= {ZOO_MIN_WORKLOADS}"
        )
    if algorithms != {"radix", "sample"}:
        yield (
            f"machine_zoo: algorithms covered: "
            f"{', '.join(sorted(a for a in algorithms if a))}; "
            "need both radix and sample"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline results JSON")
    parser.add_argument("current", help="freshly generated results JSON")
    parser.add_argument(
        "--rtol", type=float, default=0.05,
        help="relative tolerance for shared numeric values (default 0.05)",
    )
    parser.add_argument(
        "--predict-budget", type=float, default=None, metavar="SECONDS",
        help="also enforce the predicted sweep's wall-clock budget and "
        "error gate on the current file's predict_compare result",
    )
    parser.add_argument(
        "--native", action="store_true",
        help="require and enforce the native hot-path invariants "
        "(verified outputs, radix and sample within "
        f"{NATIVE_MAX_NPSORT_RATIO:.0f}x np.sort at n >= 2^22) on the "
        "current file; also enforced whenever the current file contains "
        "a native_path result",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="require and enforce the serve_loadgen invariants "
        "(correct results, no errors, zero steady-state shm traffic) "
        "on the current file; also enforced whenever the current file "
        "contains a serve_loadgen result",
    )
    parser.add_argument(
        "--zoo", action="store_true",
        help="require and enforce the machine_zoo invariants (every "
        f"cell verified, >= {ZOO_MIN_MACHINES} machines x "
        f">= {ZOO_MIN_WORKLOADS} workload kinds, both algorithms) on "
        "the current file; also enforced whenever the current file "
        "contains a machine_zoo result",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="require and enforce the stream_path invariants (verified "
        "streamed output, zero incorrect keys, runs + a merge pass "
        f"exercised, throughput >= {STREAM_FLOOR_MB_S:.0f} MB/s) on the "
        "current file; also enforced whenever the current file "
        "contains a stream_path result",
    )
    args = parser.parse_args(argv)

    baseline = load_results(args.baseline)
    current = load_results(args.current)
    shared = sorted(set(baseline) & set(current))
    print(
        f"comparing {args.current} against {args.baseline}: "
        f"shared experiments: {', '.join(shared) or '(none)'}"
    )

    failures = 0
    for exp_id, path, b, c, rel in diff_shared(baseline, current, args.rtol):
        failures += 1
        print(
            f"  DRIFT {exp_id}:{path}: {b:g} -> {c:g} "
            f"({rel:+.2%} vs rtol {args.rtol:.0%})"
        )
    if args.predict_budget is not None or "predict_compare" in current:
        for message in check_predict(current, args.predict_budget):
            failures += 1
            print(f"  FAIL {message}")
    if args.serve or "serve_loadgen" in current:
        for message in check_serve(current):
            failures += 1
            print(f"  FAIL {message}")
    if args.native or "native_path" in current:
        for message in check_native(current):
            failures += 1
            print(f"  FAIL {message}")
    if args.stream or "stream_path" in current:
        for message in check_stream(current):
            failures += 1
            print(f"  FAIL {message}")
    if args.zoo or "machine_zoo" in current:
        for message in check_zoo(current):
            failures += 1
            print(f"  FAIL {message}")
    if failures:
        print(f"{failures} failure(s)")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
