#!/usr/bin/env python
"""Performance prediction without sorting anything.

Implements the paper's stated future work ("developing a formula ... to
predict performance for each programming model"): the ``predict`` backend
gives calibrated closed-form per-model times for uniform random keys,
instantly, for any (n, p, r) -- including configurations far beyond what
the paper measured.

Run:  python examples/performance_prediction.py
"""

import numpy as np

import repro
from repro.predict import sequential_time_ns
from repro.report import format_table

MODELS = ["ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem"]


def predict_ns(model: str, n: int, p: int, radix: int) -> float:
    """Predicted radix-sort time (ns) for ``n`` uniform keys; no keys
    are generated."""
    return repro.sort(
        np.empty(0, dtype=np.int64), "radix", backend="predict", model=model,
        n_procs=p, radix=radix, n_labeled=n, distribution="random",
    ).time_ns


def main() -> None:
    rows = []
    for label in ("1M", "16M", "256M"):
        n = repro.SIZES[label]
        for p in (16, 64):
            row = [f"{label}/{p}p"]
            for m in MODELS:
                row.append(f"{predict_ns(m, n, p, 8) / 1e6:,.0f}")
            rows.append(row)
    print(
        format_table(
            ["cell"] + MODELS, rows,
            title="Predicted radix-sort times (ms), uniform keys",
        )
    )

    print("\nExtrapolating beyond the paper's grid:")
    seconds = {
        label: predict_ns("shmem", 1 << n_log, 64, 12) / 1e9
        for n_log, label in ((28, "256M"), (30, "1G"), (32, "4G"))
    }
    for label, t_s in seconds.items():
        print(f"  {label:>4} keys, radix 12, 64p:  {t_s:6.1f} s")
    print("\nThe paper measured 30 s for 1G keys at radix 12 (Section 4.2.3);")
    print(f"the calibrated formula predicts {seconds['1G']:.1f} s.")

    print("\n128-processor what-if (the machine the paper's reference [8]")
    print("studied):")
    n = repro.SIZES["256M"]
    for m in ("ccsas", "shmem"):
        s = sequential_time_ns(n, 8) / predict_ns(m, n, 128, 12)
        print(f"  radix/{m:<6} 256M keys on 128p: predicted speedup {s:6.1f}x")


if __name__ == "__main__":
    main()
