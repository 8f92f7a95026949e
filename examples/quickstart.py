#!/usr/bin/env python
"""Quickstart: sort one workload on the simulated machine.

Generates 256K Gauss-distributed keys (the NAS-IS workload the paper
defaults to), sorts them with parallel radix sort under the SHMEM model on
a simulated 64-processor Origin2000, and prints where the time went.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro

N = 1 << 18
N_PROCS = 64


def main() -> None:
    keys = repro.data.generate("gauss", N, N_PROCS)
    print(f"sorting {N:,} Gauss keys on {N_PROCS} simulated processors...")

    out = repro.sort(keys, algorithm="radix", backend="sim", model="shmem",
                     n_procs=N_PROCS, radix=8)
    assert np.array_equal(out.sorted_keys, np.sort(keys))

    seq = repro.sequential_baseline(keys)
    print(f"  sorted correctly in {out.outcome.passes} radix passes")
    print(f"  simulated parallel time : {out.time_us / 1e3:10.2f} ms")
    print(f"  simulated 1-cpu baseline: {seq.time_us / 1e3:10.2f} ms")
    print(f"  speedup vs baseline     : {out.speedup_vs(seq.time_ns):10.1f}x")

    print("\nwhere the time goes (mean per processor):")
    for category, ns in out.report.category_means_ns().items():
        frac = out.report.category_fractions()[category]
        print(f"  {category:<5} {ns / 1e6:9.2f} ms  ({frac:6.1%})")

    print("\ntry:  model='ccsas' | 'ccsas-new' | 'mpi-new' | 'mpi-sgi',")
    print("      algorithm='sample', n_procs=16/32/64, radix=6..12")


if __name__ == "__main__":
    main()
