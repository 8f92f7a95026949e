#!/usr/bin/env python
"""Key-distribution study: does the input's shape matter? (Figures 5/9.)

Sorts all eight of the paper's key distributions at a large labeled size
under both algorithms and prints times relative to Gauss.  The punchline
(Section 4.2.2): realistic distributions barely differ, but distributions
whose keys arrive pre-grouped by destination (local, remote) avoid TLB and
cache misses in the local permutation and win once the per-processor data
no longer fits in L2.

Run:  python examples/distribution_study.py
"""

import numpy as np

import repro
from repro.data import PAPER_ORDER
from repro.report import bar_chart

N_PROCS = 64
N_LABELED = repro.SIZES["64M"]
SAMPLE = 1 << 17


def study(algorithm: str, model: str, radix: int) -> None:
    times = {}
    for dist in PAPER_ORDER:
        keys = repro.data.generate(dist, SAMPLE, N_PROCS, radix=radix)
        out = repro.sort(
            keys, algorithm=algorithm, model=model, n_procs=N_PROCS,
            radix=radix, n_labeled=N_LABELED,
        )
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        times[dist] = out.time_ns
    rel = {d: t / times["gauss"] for d, t in times.items()}
    print()
    print(bar_chart(rel, title=f"{algorithm}/{model}, 64M keys, rel. gauss",
                    unit="x"))


def main() -> None:
    study("radix", "shmem", 8)
    study("sample", "ccsas", 11)


if __name__ == "__main__":
    main()
