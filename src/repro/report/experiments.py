"""One experiment harness per table/figure of the paper's evaluation.

Every function takes an :class:`~repro.core.experiment.ExperimentRunner`
(results are memoized across harnesses) plus optional grid restrictions,
and returns an :class:`ExperimentResult` whose ``data`` holds the numbers
and whose ``text`` renders them the way the paper presents them.  The
benchmark scripts print ``text``; the integration tests assert shapes on
``data``.

Each harness first enumerates every grid cell it will read and hands the
whole batch to :meth:`~repro.core.experiment.ExperimentRunner.run_many`,
so cells are served from the persistent disk cache and -- when the
runner was built with ``parallel=N`` (CLI ``--parallel``) -- cache
misses are computed concurrently in worker processes.  The rendering
loops below then hit the warm in-process memo.

Paper reference values (Tables 1 and 2) are included for side-by-side
comparison; figures are referenced by their qualitative claims (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.experiment import (
    PROC_COUNTS,
    SIZE_ORDER,
    SIZES,
    ExperimentRunner,
    RunSpec,
)
from ..data.distributions import PAPER_ORDER
from .figures import bar_chart, breakdown_panel, grouped_series, per_proc_strip
from .tables import format_table

#: Paper Table 1: sequential radix-sort time (microseconds), Gauss keys.
PAPER_TABLE1_US = {
    "1M": 1_610_142,
    "4M": 7_013_044,
    "16M": 33_668_308,
    "64M": 143_693_696,
    "256M": 947_575_676,
}

#: Paper Table 2: best execution time (microseconds) over models and radix
#: sizes, Gauss keys.
PAPER_TABLE2_US = {
    "radix": {
        "1M": {16: 63_249, 32: 55_068, 64: 33_546},
        "4M": {16: 229_182, 32: 133_296, 64: 134_407},
        "16M": {16: 1_008_322, 32: 483_560, 64: 306_429},
        "64M": {16: 6_547_243, 32: 2_557_912, 64: 1_147_412},
        "256M": {16: 29_650_916, 32: 15_054_134, 64: 7_191_246},
    },
    "sample": {
        "1M": {16: 74_301, 32: 42_998, 64: 29_470},
        "4M": {16: 343_466, 32: 148_800, 64: 98_720},
        "16M": {16: 1_490_045, 32: 634_267, 64: 380_864},
        "64M": {16: 13_699_476, 32: 3_902_624, 64: 1_503_827},
        "256M": {16: 54_852_935, 32: 23_838_522, 64: 11_891_683},
    },
}

#: Paper Table 3: winning (model, radix) per cell.
PAPER_TABLE3 = {
    "radix": {
        "1M": {16: ("ccsas", 8), 32: ("ccsas", 9), 64: ("ccsas", 8)},
        "4M": {16: ("shmem", 8), 32: ("shmem", 8), 64: ("shmem", 8)},
        "16M": {16: ("shmem", 11), 32: ("shmem", 11), 64: ("shmem", 8)},
        "64M": {16: ("shmem", 12), 32: ("shmem", 11), 64: ("shmem", 8)},
        "256M": {16: ("shmem", 14), 32: ("shmem", 13), 64: ("shmem", 12)},
    },
    "sample": {
        "1M": {16: ("ccsas", 11), 32: ("ccsas", 11), 64: ("ccsas", 11)},
        "4M": {16: ("ccsas", 11), 32: ("ccsas", 11), 64: ("ccsas", 11)},
        "16M": {16: ("ccsas", 11), 32: ("ccsas", 12), 64: ("shmem", 11)},
        "64M": {16: ("ccsas", 12), 32: ("ccsas", 12), 64: ("shmem", 11)},
        "256M": {16: ("ccsas", 14), 32: ("ccsas", 13), 64: ("shmem", 12)},
    },
}

RADIX_MODELS = ["ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem"]
SAMPLE_MODELS = ["ccsas", "mpi-new", "mpi-sgi", "shmem"]


@dataclass
class ExperimentResult:
    exp_id: str
    description: str
    data: dict
    text: str
    paper_reference: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1(
    runner: ExperimentRunner, sizes: list[str] | None = None
) -> ExperimentResult:
    """Sequential radix-sort times (paper Table 1)."""
    sizes = sizes or SIZE_ORDER
    rows = []
    data = {}
    for label in sizes:
        seq = runner.sequential(SIZES[label])
        us = seq.time_ns / 1e3
        data[label] = us
        paper = PAPER_TABLE1_US.get(label)
        rows.append(
            [label, f"{us:,.0f}", f"{paper:,}" if paper else "-",
             f"{us / paper:.2f}" if paper else "-"]
        )
    text = format_table(
        ["size", "model (us)", "paper (us)", "ratio"],
        rows,
        title="Table 1: sequential radix sort, Gauss keys",
    )
    return ExperimentResult("table1", "sequential baseline", data, text,
                            PAPER_TABLE1_US)


# ----------------------------------------------------------------------
# Speedup figures (1, 2, 3, 7)
# ----------------------------------------------------------------------
def _speedup_grid(
    runner: ExperimentRunner,
    algorithm: str,
    models: list[str],
    radix: int,
    sizes: list[str],
    procs: list[int],
) -> dict[str, dict[str, float]]:
    runner.run_many(
        [
            RunSpec(algorithm, m, SIZES[label], p, radix)
            for label in sizes
            for p in procs
            for m in models
        ]
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        for p in procs:
            key = f"{label}/{p}p"
            grid[key] = {}
            for m in models:
                spec = RunSpec(algorithm, m, SIZES[label], p, radix)
                grid[key][m] = runner.speedup(spec)
    return grid


def figure1(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Radix speedups under the two MPI implementations (paper Figure 1)."""
    grid = _speedup_grid(
        runner, "radix", ["mpi-sgi", "mpi-new"], 8,
        sizes or SIZE_ORDER, procs or PROC_COUNTS,
    )
    text = grouped_series(grid, "Figure 1: radix sort, MPI SGI vs NEW (speedup)")
    return ExperimentResult(
        "fig1", "radix MPI SGI vs NEW", grid, text,
        {"claim": "NEW outperforms SGI, increasingly so at higher p"},
    )


def figure2(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Sample-sort speedups under the two MPI implementations (Figure 2)."""
    grid = _speedup_grid(
        runner, "sample", ["mpi-sgi", "mpi-new"], 11,
        sizes or SIZE_ORDER, procs or PROC_COUNTS,
    )
    text = grouped_series(grid, "Figure 2: sample sort, MPI SGI vs NEW (speedup)")
    return ExperimentResult(
        "fig2", "sample MPI SGI vs NEW", grid, text,
        {"claim": "gap smaller than radix (fewer messages, more compute)"},
    )


def figure3(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Radix speedups: SHMEM / CC-SAS / MPI / CC-SAS-NEW (Figure 3)."""
    grid = _speedup_grid(
        runner, "radix", ["shmem", "ccsas", "mpi-new", "ccsas-new"], 8,
        sizes or SIZE_ORDER, procs or PROC_COUNTS,
    )
    text = grouped_series(grid, "Figure 3: radix sort speedups by model")
    return ExperimentResult(
        "fig3", "radix speedups by model", grid, text,
        {"claim": "SHMEM best except 1M at high p where CC-SAS wins; "
                  "original CC-SAS collapses at large sizes; superlinear >=16M"},
    )


def figure7(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Sample-sort speedups: SHMEM / CC-SAS / MPI (Figure 7)."""
    grid = _speedup_grid(
        runner, "sample", ["shmem", "ccsas", "mpi-new"], 11,
        sizes or SIZE_ORDER, procs or PROC_COUNTS,
    )
    text = grouped_series(grid, "Figure 7: sample sort speedups by model")
    return ExperimentResult(
        "fig7", "sample speedups by model", grid, text,
        {"claim": "CC-SAS best small; CC-SAS ~ SHMEM large; MPI behind"},
    )


# ----------------------------------------------------------------------
# Breakdown figures (4, 8)
# ----------------------------------------------------------------------
def figure4(
    runner: ExperimentRunner,
    size: str = "64M",
    n_procs: int = 64,
) -> ExperimentResult:
    """Per-processor time breakdown for radix sort (Figure 4)."""
    models = ["ccsas", "ccsas-new", "mpi-new", "shmem"]
    runner.run_many([RunSpec("radix", m, SIZES[size], n_procs, 8) for m in models])
    panels = {}
    text_parts = [f"Figure 4: radix sort ({size}) breakdown on {n_procs} processors"]
    for m in models:
        rep = runner.run(RunSpec("radix", m, SIZES[size], n_procs, 8)).report
        means = rep.category_means_ns()
        panels[m] = {
            "means_ns": means,
            "total_ns": rep.total_time_ns,
            "per_proc_total_ns": [c.total_ns for c in rep.counters],
        }
        text_parts.append(breakdown_panel(m, means, rep.total_time_ns))
        text_parts.append(
            per_proc_strip(panels[m]["per_proc_total_ns"], "  per-proc ")
        )
    return ExperimentResult(
        "fig4", "radix breakdown", panels, "\n".join(text_parts),
        {"claim": "CC-SAS dominated by MEM; MPI SYNC > SHMEM SYNC"},
    )


def figure8(
    runner: ExperimentRunner,
    size: str = "64M",
    n_procs: int = 64,
) -> ExperimentResult:
    """Per-processor time breakdown for sample sort (Figure 8)."""
    models = ["ccsas", "mpi-new", "shmem"]
    runner.run_many([RunSpec("sample", m, SIZES[size], n_procs, 11) for m in models])
    panels = {}
    text_parts = [f"Figure 8: sample sort ({size}) breakdown on {n_procs} processors"]
    for m in models:
        rep = runner.run(RunSpec("sample", m, SIZES[size], n_procs, 11)).report
        means = rep.category_means_ns()
        panels[m] = {
            "means_ns": means,
            "total_ns": rep.total_time_ns,
            "per_proc_total_ns": [c.total_ns for c in rep.counters],
        }
        text_parts.append(breakdown_panel(m, means, rep.total_time_ns))
        text_parts.append(
            per_proc_strip(panels[m]["per_proc_total_ns"], "  per-proc ")
        )
    return ExperimentResult(
        "fig8", "sample breakdown", panels, "\n".join(text_parts),
        {"claim": "BUSY much larger than radix (two local sorts); "
                  "models closer together"},
    )


# ----------------------------------------------------------------------
# Distribution figures (5, 9)
# ----------------------------------------------------------------------
def figure5(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    distributions: list[str] | None = None,
) -> ExperimentResult:
    """Radix relative times across key distributions, SHMEM (Figure 5)."""
    return _distribution_figure(
        runner, "fig5", "radix", "shmem", 8, sizes, n_procs, distributions,
        "Figure 5: radix/SHMEM relative time by key distribution",
        {"claim": "local best; others similar; remote gains at 256M"},
    )


def figure9(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    distributions: list[str] | None = None,
) -> ExperimentResult:
    """Sample relative times across key distributions, CC-SAS (Figure 9)."""
    return _distribution_figure(
        runner, "fig9", "sample", "ccsas", 11, sizes, n_procs, distributions,
        "Figure 9: sample/CC-SAS relative time by key distribution",
        {"claim": "locality-favorable distributions gain from 64M up"},
    )


def _distribution_figure(
    runner, exp_id, algorithm, model, radix, sizes, n_procs, distributions,
    title, claim,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    distributions = distributions or PAPER_ORDER
    runner.run_many(
        [
            RunSpec(algorithm, model, SIZES[label], n_procs, radix, d)
            for label in sizes
            for d in dict.fromkeys(["gauss", *distributions])
        ]
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        base = runner.run(
            RunSpec(algorithm, model, SIZES[label], n_procs, radix, "gauss")
        ).time_ns
        grid[label] = {}
        for d in distributions:
            t = runner.run(
                RunSpec(algorithm, model, SIZES[label], n_procs, radix, d)
            ).time_ns
            grid[label][d] = t / base
    text = grouped_series(grid, title, unit="x gauss")
    return ExperimentResult(exp_id, title, grid, text, claim)


# ----------------------------------------------------------------------
# Radix-size figures (6, 10)
# ----------------------------------------------------------------------
def figure6(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    radix_range: range = range(6, 13),
) -> ExperimentResult:
    """Radix-size sweep for radix sort, SHMEM (Figure 6; relative to r=8)."""
    return _radix_sweep(
        runner, "fig6", "radix", "shmem", 8, sizes, n_procs, radix_range,
        "Figure 6: radix sort, effect of radix size (relative to r=8)",
        {"claim": "optimal radix grows with data set size"},
    )


def figure10(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    radix_range: range = range(6, 13),
) -> ExperimentResult:
    """Radix-size sweep for sample sort, CC-SAS (Figure 10; rel. to r=11)."""
    return _radix_sweep(
        runner, "fig10", "sample", "ccsas", 11, sizes, n_procs, radix_range,
        "Figure 10: sample sort, effect of radix size (relative to r=11)",
        {"claim": "r=11 best up to 64M, 12 at 256M; best/worst < 2"},
    )


def _radix_sweep(
    runner, exp_id, algorithm, model, base_radix, sizes, n_procs, radix_range,
    title, claim,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    runner.run_many(
        [
            RunSpec(algorithm, model, SIZES[label], n_procs, r)
            for label in sizes
            for r in dict.fromkeys([base_radix, *radix_range])
        ]
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        base = runner.run(
            RunSpec(algorithm, model, SIZES[label], n_procs, base_radix)
        ).time_ns
        grid[label] = {}
        for r in radix_range:
            t = runner.run(
                RunSpec(algorithm, model, SIZES[label], n_procs, r)
            ).time_ns
            grid[label][f"r={r}"] = t / base
    text = grouped_series(grid, title, unit=f"x r={base_radix}")
    return ExperimentResult(exp_id, title, grid, text, claim)


# ----------------------------------------------------------------------
# Tables 2 and 3
# ----------------------------------------------------------------------
def tables2_and_3(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
    radix_choices: list[int] | None = None,
    radix_models: list[str] | None = None,
    sample_models: list[str] | None = None,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Best times (Table 2) and best model+radix combos (Table 3)."""
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    radix_choices = radix_choices or [7, 8, 11, 12]
    radix_models = radix_models or RADIX_MODELS
    sample_models = sample_models or SAMPLE_MODELS

    runner.run_many(
        [
            RunSpec(algorithm, m, SIZES[label], p, r)
            for algorithm, models in (("radix", radix_models), ("sample", sample_models))
            for label in sizes
            for p in procs
            for m in models
            for r in radix_choices
        ]
    )
    best_time: dict[str, dict[str, dict[int, float]]] = {"radix": {}, "sample": {}}
    best_combo: dict[str, dict[str, dict[int, tuple[str, int]]]] = {
        "radix": {},
        "sample": {},
    }
    for algorithm, models in (("radix", radix_models), ("sample", sample_models)):
        for label in sizes:
            best_time[algorithm][label] = {}
            best_combo[algorithm][label] = {}
            for p in procs:
                cell_best = None
                cell_combo = None
                for m in models:
                    for r in radix_choices:
                        t = runner.run(
                            RunSpec(algorithm, m, SIZES[label], p, r)
                        ).time_ns
                        if cell_best is None or t < cell_best:
                            cell_best, cell_combo = t, (m, r)
                best_time[algorithm][label][p] = cell_best / 1e3  # us
                best_combo[algorithm][label][p] = cell_combo

    rows2, rows3 = [], []
    for label in sizes:
        row2, row3 = [label], [label]
        for algorithm in ("radix", "sample"):
            for p in procs:
                row2.append(f"{best_time[algorithm][label][p]:,.0f}")
                m, r = best_combo[algorithm][label][p]
                row3.append(f"{m} {r}")
                paper = PAPER_TABLE2_US.get(algorithm, {}).get(label, {}).get(p)
                if paper:
                    row2[-1] += f" ({paper:,})"
        rows2.append(row2)
        rows3.append(row3)
    headers = ["size"] + [
        f"{alg[:1]}{p}p" for alg in ("radix", "sample") for p in procs
    ]
    t2 = ExperimentResult(
        "table2",
        "best execution times (us), model(paper)",
        best_time,
        format_table(headers, rows2, title="Table 2: best times, us (paper in parens)"),
        PAPER_TABLE2_US,
    )
    t3 = ExperimentResult(
        "table3",
        "best model + radix per cell",
        best_combo,
        format_table(headers, rows3, title="Table 3: best model + radix size"),
        PAPER_TABLE3,
    )
    return t2, t3


# ----------------------------------------------------------------------
# Section 4.4 "Putting it All Together"
# ----------------------------------------------------------------------
def summary(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """The paper's closing comparison: per grid cell, which *algorithm x
    model* combination wins (at each algorithm's best standard radix)."""
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    combos = [
        ("radix", "ccsas", 8),
        ("radix", "shmem", 8),
        ("radix", "mpi-new", 8),
        ("sample", "ccsas", 11),
        ("sample", "shmem", 11),
        ("sample", "mpi-new", 11),
    ]
    runner.run_many(
        [
            RunSpec(alg, m, SIZES[label], p, r)
            for label in sizes
            for p in procs
            for alg, m, r in combos
        ]
    )
    data: dict[str, dict] = {}
    rows = []
    for label in sizes:
        for p in procs:
            cell = {}
            for alg, m, r in combos:
                cell[f"{alg}/{m}"] = runner.run(
                    RunSpec(alg, m, SIZES[label], p, r)
                ).time_ns
            winner = min(cell, key=cell.get)
            keys_per_proc = SIZES[label] // p
            data[f"{label}/{p}p"] = {
                "winner": winner,
                "keys_per_proc": keys_per_proc,
                "times_ns": cell,
            }
            rows.append(
                [f"{label}/{p}p", f"{keys_per_proc:,}", winner,
                 f"{cell[winner] / 1e6:,.1f}"]
            )
    text = format_table(
        ["cell", "keys/proc", "best combination", "time (ms)"],
        rows,
        title="Section 4.4: best algorithm x model per cell",
    )
    return ExperimentResult(
        "summary", "best combination per cell", data, text,
        {"claim": "sample/CC-SAS small, radix/SHMEM large"},
    )


# ----------------------------------------------------------------------
# Predictor cross-validation (docs/PREDICT.md)
# ----------------------------------------------------------------------
def predict_compare(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Predicted vs. simulated totals per grid cell, plus sweep latency.

    Runs every algorithm x model at each size/processor count on both the
    simulated backend (via ``runner``, so cells come from the shared
    cache/memo) and the analytic ``predict`` backend, and reports the
    per-cell relative error band alongside the wall-clock cost of each
    sweep.  ``benchmarks/BENCH_1.json`` pins this result; CI's predict
    job regenerates and diffs it.
    """
    import time

    sizes = sizes or ["1M", "16M"]
    procs = procs or [16, 64]
    combos = [("radix", m, 8) for m in RADIX_MODELS] + [
        ("sample", m, 11) for m in SAMPLE_MODELS
    ]
    specs = [
        RunSpec(alg, m, SIZES[label], p, r)
        for label in sizes
        for p in procs
        for alg, m, r in combos
    ]
    t0 = time.perf_counter()
    runner.run_many(specs)
    sim_wall_s = time.perf_counter() - t0

    predictor = ExperimentRunner(costs=runner.costs, backend="predict")
    t0 = time.perf_counter()
    predictor.run_many(specs)
    predict_wall_s = time.perf_counter() - t0

    cells: dict[str, dict[str, float]] = {}
    rels: list[float] = []
    rows = []
    for spec in specs:
        sim_ns = runner.run(spec).time_ns
        pred_ns = predictor.run(spec).time_ns
        rel = (pred_ns - sim_ns) / sim_ns
        rels.append(abs(rel))
        label = (
            f"{spec.algorithm}/{spec.model}/{spec.size_label()}/"
            f"{spec.n_procs}p"
        )
        cells[label] = {
            "sim_ns": sim_ns, "pred_ns": pred_ns, "rel_err": rel,
        }
        rows.append(
            [label, f"{sim_ns / 1e6:,.1f}", f"{pred_ns / 1e6:,.1f}",
             f"{rel:+.2%}"]
        )
    rels_sorted = sorted(rels)
    band = {
        "median_abs_rel": rels_sorted[len(rels_sorted) // 2],
        "p95_abs_rel": rels_sorted[
            max(0, int(round(0.95 * len(rels_sorted))) - 1)
        ],
        "max_abs_rel": rels_sorted[-1],
        "n_cells": len(rels_sorted),
    }
    data = {
        "cells": cells,
        "band": band,
        "latency": {
            "sim_wall_s": sim_wall_s,  # may be cache-warm; see CACHE.md
            "predict_wall_s": predict_wall_s,
            "n_cells": len(specs),
        },
    }
    text = format_table(
        ["cell", "sim (ms)", "predicted (ms)", "rel err"],
        rows,
        title="Predictor cross-validation: predicted vs simulated",
    ) + (
        f"\nerror band: median {band['median_abs_rel']:.2%}, "
        f"p95 {band['p95_abs_rel']:.2%}, max {band['max_abs_rel']:.2%} "
        f"over {band['n_cells']} cells\n"
        f"sweep latency: sim {sim_wall_s:.2f}s "
        f"(cache-dependent), predicted {predict_wall_s:.2f}s"
    )
    return ExperimentResult(
        "predict_compare",
        "predicted vs simulated sweep",
        data,
        text,
        {"gate": "median abs rel error <= 0.15 (repro check --backend predict)"},
    )


def native_path(
    runner: ExperimentRunner,
    sizes: list[int] | None = None,
    distributions: list[str] | None = None,
    repeats: int = 3,
    n_workers: int | None = None,
) -> ExperimentResult:
    """Measured native hot-path timings vs ``np.sort`` (BENCH_3).

    Times three sorts per (distribution, size) cell on the host machine:
    ``np.sort`` (the sequential reference every output is verified
    against), the parallel radix sort and the parallel sample sort, and
    reports each parallel sort's wall as a ratio to ``np.sort``'s.  Each
    timing is the best of ``repeats`` runs on a pool reused across cells
    (fork cost amortized, as in serving).  ``benchmarks/BENCH_3.json``
    pins this result; ``compare.py --native`` gates it absolutely --
    every cell verified, and both ratios at or under a fixed bound at
    n >= 2**22 -- rather than diffing the machine-dependent timings.
    """
    import time

    import numpy as np

    from ..data.distributions import generate
    from ..native.pool import WorkerPool, default_workers
    from ..native.radix import parallel_radix_sort
    from ..native.sample import parallel_sample_sort

    sizes = sizes or [1 << 20, 1 << 22]
    distributions = distributions or ["random", "gauss", "zero"]
    workers = n_workers if n_workers is not None else max(2, default_workers())

    def best_of(fn) -> tuple[float, np.ndarray]:
        walls, out = [], None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            walls.append(time.perf_counter() - t0)
        return min(walls), out

    cells: dict[str, dict[str, float | int]] = {}
    rows = []
    with WorkerPool(workers) as pool:
        for dist in distributions:
            for n in sizes:
                keys = generate(dist, n, 4, seed=1234)
                np_wall, ref = best_of(lambda: np.sort(keys))
                radix_wall, radix_out = best_of(
                    lambda: parallel_radix_sort(keys, pool=pool)
                )
                sample_wall, sample_out = best_of(
                    lambda: parallel_sample_sort(keys, pool=pool)
                )
                verified = int(
                    np.array_equal(radix_out, ref)
                    and np.array_equal(sample_out, ref)
                )
                cells[f"{dist}/{n}"] = {
                    "n": n,
                    "np_sort_wall_s": np_wall,
                    "radix_wall_s": radix_wall,
                    "sample_wall_s": sample_wall,
                    "radix_npsort_ratio": radix_wall / np_wall,
                    "sample_npsort_ratio": sample_wall / np_wall,
                    "verified": verified,
                }
                rows.append(
                    [f"{dist}/{n}", f"{np_wall * 1e3:,.1f}",
                     f"{radix_wall * 1e3:,.1f}", f"{sample_wall * 1e3:,.1f}",
                     f"{radix_wall / np_wall:.2f}x",
                     f"{sample_wall / np_wall:.2f}x",
                     "yes" if verified else "NO"]
                )
    gate_min_n = 1 << 22
    gated = [c for c in cells.values() if c["n"] >= gate_min_n]
    summary = {
        "n_cells": len(cells),
        "all_verified": int(all(c["verified"] for c in cells.values())),
        "gated_cells": len(gated),
        "max_npsort_ratio_at_gate": max(
            (max(c["radix_npsort_ratio"], c["sample_npsort_ratio"])
             for c in gated),
            default=0.0,
        ),
    }
    data = {
        "workers": workers,
        "gate_min_n": gate_min_n,
        "cells": cells,
        "summary": summary,
    }
    text = format_table(
        ["cell", "np.sort (ms)", "radix (ms)", "sample (ms)",
         "radix / np.sort", "sample / np.sort", "verified"],
        rows,
        title=f"Native hot path ({workers} workers)",
    ) + (
        f"\nworst radix or sample ratio to np.sort at n >= 2^22: "
        f"{summary['max_npsort_ratio_at_gate']:.2f}x over "
        f"{summary['gated_cells']} cell(s)"
    )
    return ExperimentResult(
        "native_path",
        "native hot-path timings vs np.sort",
        data,
        text,
        {"gate": "compare.py --native: verified cells, np.sort ratio "
                 "<= NATIVE_MAX_NPSORT_RATIO at n >= 2^22"},
    )


def stream_path(
    runner: ExperimentRunner,
    sizes: list[int] | None = None,
    distributions: list[str] | None = None,
    n_workers: int | None = None,
    chunk_divisor: int = 8,
    fan_in: int = 4,
) -> ExperimentResult:
    """Measured out-of-core sort throughput (BENCH_4).

    Every cell externally sorts an input ``chunk_divisor`` times larger
    than its chunk budget (so spill runs and a multi-pass merge are
    exercised, not an in-memory shortcut) on a pool reused across cells,
    and verifies the streamed output block-by-block against ``np.sort``
    of the input.  ``benchmarks/BENCH_4.json`` pins this result;
    ``compare.py --stream`` gates it absolutely -- zero incorrect cells,
    every cell verified, throughput at or above a conservative floor --
    rather than diffing the machine-dependent MB/s.
    """
    import numpy as np

    from ..data.distributions import generate
    from ..native.pool import WorkerPool, default_workers
    from ..stream import external_sort

    sizes = sizes or [1 << 20, 1 << 22]
    distributions = distributions or ["random", "gauss", "zero"]
    workers = n_workers if n_workers is not None else max(2, default_workers())

    cells: dict[str, dict[str, float | int]] = {}
    rows = []
    with WorkerPool(workers, supervise=True, phase_timeout_s=60.0) as pool:
        for dist in distributions:
            for n in sizes:
                keys = generate(dist, n, 4, seed=1234)
                expect = np.sort(keys)
                chunk_keys = max(4, n // chunk_divisor)
                cursor = 0
                incorrect = 0

                def check_block(block: np.ndarray) -> None:
                    nonlocal cursor, incorrect
                    ref = expect[cursor : cursor + len(block)]
                    incorrect += int(np.count_nonzero(block != ref))
                    cursor += len(block)

                result = external_sort(
                    keys,
                    chunk_keys=chunk_keys,
                    fan_in=fan_in,
                    pool=pool,
                    on_block=check_block,
                )
                incorrect += abs(cursor - n)
                cells[f"{dist}/{n}"] = {
                    "n": n,
                    "chunk_keys": chunk_keys,
                    "runs": result.runs,
                    "merge_passes": result.merge_passes,
                    "bytes_spilled": result.bytes_spilled,
                    "wall_s": result.elapsed_s,
                    "throughput_mb_s": result.throughput_mb_s,
                    "verified": int(result.verified and incorrect == 0),
                    "incorrect": incorrect,
                }
                rows.append(
                    [f"{dist}/{n}", f"{chunk_keys}", f"{result.runs}",
                     f"{result.merge_passes}",
                     f"{result.elapsed_s * 1e3:,.1f}",
                     f"{result.throughput_mb_s:.1f}",
                     "yes" if incorrect == 0 else "NO"]
                )
    summary = {
        "n_cells": len(cells),
        "all_verified": int(all(c["verified"] for c in cells.values())),
        "total_incorrect": int(sum(c["incorrect"] for c in cells.values())),
        "min_throughput_mb_s": (
            min(c["throughput_mb_s"] for c in cells.values()) if cells else 0.0
        ),
    }
    data = {
        "workers": workers,
        "fan_in": fan_in,
        "chunk_divisor": chunk_divisor,
        "cells": cells,
        "summary": summary,
    }
    text = format_table(
        ["cell", "chunk", "runs", "passes", "wall (ms)", "MB/s", "verified"],
        rows,
        title=f"Out-of-core stream path ({workers} workers, "
        f"fan-in {fan_in}, input {chunk_divisor}x chunk)",
    ) + (
        f"\nmin throughput {summary['min_throughput_mb_s']:.1f} MB/s over "
        f"{summary['n_cells']} cell(s), "
        f"{summary['total_incorrect']} incorrect key(s)"
    )
    return ExperimentResult(
        "stream_path",
        "out-of-core sort throughput (ingest/spill/merge)",
        data,
        text,
        {"gate": "compare.py --stream: 0 incorrect, throughput >= floor"},
    )


def machine_zoo(
    runner: ExperimentRunner,
    n: int = 16 * 512,
    p: int = 16,
    machines: list[str] | None = None,
    workloads: list[str] | None = None,
) -> ExperimentResult:
    """Machine-zoo x workload sweep on the simulator (BENCH_5).

    Runs every machine-zoo member (docs/MACHINES.md) against every
    workload kind (u32 plus the widened matrix) under both algorithms,
    verifying each cell's output against ``np.sort``/``np.argsort`` and
    recording the simulated total time and the BUSY/LMEM/RMEM/SYNC
    split.  ``benchmarks/BENCH_5.json`` pins this result;
    ``compare.py --zoo`` gates it absolutely -- full machine and
    workload coverage with every cell verified -- rather than diffing
    the cost-parameter-dependent simulated times.
    """
    del runner  # the zoo axis is not in RunSpec; cells run sort() directly
    from ..core.api import sort
    from ..data.workloads import (
        Workload, make_workload, reference_sort, workloads_equal,
    )
    from ..machine.zoo import MACHINES, get_machine
    from ..verify.differential import ALL_WORKLOADS, machine_model

    machines = machines or list(MACHINES)
    workloads = workloads or list(ALL_WORKLOADS)

    cells: dict[str, dict[str, float | int]] = {}
    rows = []
    for machine_name in machines:
        machine = (
            None if machine_name == "origin2000"
            else get_machine(machine_name, n_procs=p)
        )
        model = machine_model(machine_name)
        for kind in workloads:
            w = make_workload(kind, n, p, seed=1)
            expect = reference_sort(w)
            for algorithm in ("radix", "sample"):
                result = sort(
                    w.keys, algorithm=algorithm, model=model, n_procs=p,
                    machine=machine, payload=w.payload,
                )
                got = Workload(kind, result.sorted_keys, result.payload)
                verified = int(workloads_equal(got, expect))
                means = result.report.category_means_ns()
                cells[f"{machine_name}/{kind}/{algorithm}"] = {
                    "machine": machine_name,
                    "workload": kind,
                    "algorithm": algorithm,
                    "model": model,
                    "time_ns": result.time_ns,
                    "category_means_ns": means,
                    "verified": verified,
                }
                rows.append(
                    [f"{machine_name}/{kind}", algorithm, model,
                     f"{result.time_ns / 1e6:,.2f}",
                     f"{means.get('RMEM', 0.0) / 1e6:,.2f}",
                     "yes" if verified else "NO"]
                )
    summary = {
        "n_cells": len(cells),
        "all_verified": int(all(c["verified"] for c in cells.values())),
        "machines_covered": len({c["machine"] for c in cells.values()}),
        "workloads_covered": len({c["workload"] for c in cells.values()}),
    }
    data = {
        "n": n,
        "p": p,
        "machines": list(machines),
        "workloads": list(workloads),
        "cells": cells,
        "summary": summary,
    }
    text = format_table(
        ["machine/workload", "algorithm", "model", "total (ms)",
         "RMEM (ms)", "verified"],
        rows,
        title=f"Machine zoo x workload matrix ({n} keys, {p} procs)",
    ) + (
        f"\n{summary['machines_covered']} machines x "
        f"{summary['workloads_covered']} workloads, "
        f"{summary['n_cells']} cells, all verified: "
        f"{'yes' if summary['all_verified'] else 'NO'}"
    )
    return ExperimentResult(
        "machine_zoo",
        "machine-zoo x workload matrix on the simulator",
        data,
        text,
        {"gate": "compare.py --zoo: full coverage, every cell verified"},
    )


#: Registry: experiment id -> harness.
EXPERIMENTS: dict[str, Callable[..., object]] = {
    "summary": summary,
    "table1": table1,
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "tables2_and_3": tables2_and_3,
    "predict_compare": predict_compare,
    "native_path": native_path,
    "stream_path": stream_path,
    "machine_zoo": machine_zoo,
}
