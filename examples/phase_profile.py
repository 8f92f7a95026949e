#!/usr/bin/env python
"""Phase-level profiling: where does a parallel sort spend its time?

Reproduces the paper's instrumentation view for two contrasting runs --
the collapsed CC-SAS radix sort (exchange-dominated) and the healthy
SHMEM one (compute-dominated) -- phase by phase with imbalance factors.

Run:  python examples/phase_profile.py
"""

import repro
from repro.report import format_profile, profile_by_step

N_PROCS = 64
N_LABELED = repro.SIZES["64M"]
SAMPLE = 1 << 17


def main() -> None:
    keys = repro.data.generate("gauss", SAMPLE, N_PROCS)
    for model in ("ccsas", "shmem"):
        out = repro.sort(
            keys, algorithm="radix", model=model, n_procs=N_PROCS,
            radix=8, n_labeled=N_LABELED,
        ).outcome
        print()
        print(format_profile(out, min_ns=1e6))  # phases above 1 ms
        steps = profile_by_step(out)
        total = sum(steps.values()) or 1.0
        top = max(steps, key=steps.get)
        print(f"-> dominant step under {model}: '{top}' "
              f"({steps[top] / total:.0%} of phase time)")


if __name__ == "__main__":
    main()
