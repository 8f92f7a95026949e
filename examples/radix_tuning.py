#!/usr/bin/env python
"""Radix-size tuning (Figures 6/10): how wide should a digit be?

The radix r fixes the pass count (ceil(31/r)) against the per-pass message
count (2**r per processor).  Small data sets want few messages (small r
... wait, the opposite!): small data sets amortize message overhead badly,
so FEWER, larger messages -- i.e. a small radix and more passes -- win;
large data sets want fewer passes.  This script sweeps r for several
labeled sizes and reports the winner, reproducing the paper's observation
that the optimal radix grows with the data-set size.

Run:  python examples/radix_tuning.py
"""

import repro
from repro.report import format_table

N_PROCS = 64
SAMPLE = 1 << 16
RADIXES = range(6, 13)


def best_radix(algorithm: str, model: str, n_labeled: int) -> tuple[int, dict]:
    times = {}
    for r in RADIXES:
        keys = repro.data.generate("gauss", SAMPLE, N_PROCS, radix=r)
        out = repro.sort(
            keys, algorithm=algorithm, model=model, n_procs=N_PROCS,
            radix=r, n_labeled=n_labeled,
        )
        times[r] = out.time_ns
    winner = min(times, key=times.get)
    return winner, times


def main() -> None:
    rows = []
    for label in ("1M", "4M", "16M", "64M", "256M"):
        n = repro.SIZES[label]
        r_radix, t_radix = best_radix("radix", "shmem", n)
        r_sample, t_sample = best_radix("sample", "ccsas", n)
        rows.append(
            [
                label,
                r_radix,
                f"{t_radix[r_radix] / 1e6:.1f} ms",
                r_sample,
                f"{t_sample[r_sample] / 1e6:.1f} ms",
            ]
        )
    print(
        format_table(
            ["size", "radix: best r", "time", "sample: best r", "time"],
            rows,
            title="Optimal radix size per data-set size (paper Figs 6/10)",
        )
    )
    print("\nPaper: radix sort's best r grows 7 -> 12 with size; sample")
    print("sort prefers r=11 almost everywhere (local passes dominate).")


if __name__ == "__main__":
    main()
