"""Cost shape of one local radix-sort pass (sample sort's local sorts).

Sample sort runs two complete local radix sorts (phases 1 and 5).  The
walk in :mod:`repro.sorts.program` measures each pass's write streams and
destination locality with :func:`local_pass_stats`; the phase driver
emits each pass as one compute phase with :func:`local_sort_pass_phase`,
with per-processor busy time and cache/TLB access patterns.

Residency matters here: when a processor's partition fits in its L2 cache,
passes after the first run out of cache -- this is precisely the
capacity-induced superlinear speedup the paper highlights for data sets of
16M keys and up (Section 4.2).
"""

from __future__ import annotations

import numpy as np

from ..machine.access import BucketedAppend, SequentialScan
from ..smp.phases import uniform_compute
from ..smp.team import Team
from ..machine.placement import partition_home
from .common import ELEM_BYTES, digits_for_pass, measure_locality


def local_pass_stats(part: np.ndarray, k: int, radix: int) -> tuple[int, float]:
    """Measured (active write streams, destination locality) of one local
    radix pass over ``part`` -- the workload statistics that drive the
    pass's cache/TLB cost."""
    nb = 1 << radix
    digits = digits_for_pass(part, k, radix)
    locality = measure_locality(digits, 1)
    # Only the digit values that actually occur form write streams
    # (the 'half' distribution activates half the buckets).
    active = int(
        np.count_nonzero(np.bincount(digits.astype(np.int64), minlength=nb))
    ) or 1
    return active, locality


def local_sort_pass_phase(
    team: Team,
    name: str,
    k: int,
    labeled_counts: np.ndarray,
    actives: np.ndarray,
    localities: np.ndarray,
    received_cached: bool = False,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one local radix-sort pass as a compute phase.

    ``labeled_counts[i]`` is processor ``i``'s labeled key count,
    ``actives[i]``/``localities[i]`` its measured (or analytically
    derived) write-stream count and destination locality for this pass.
    """
    p = team.n_procs
    costs = team.costs
    l2_bytes = team.machine.l2.size_bytes
    per_key = costs.hist_busy_ns_per_key + costs.permute_busy_ns_per_key
    busy = np.zeros(p)
    patterns: list[list] = [[] for _ in range(p)]
    for i in range(p):
        n_i = float(labeled_counts[i])
        if n_i <= 0:
            continue
        busy[i] = per_key * n_i
        fits = n_i * elem_bytes <= l2_bytes
        hist_resident = fits and (k > 0 or received_cached)
        n_int = int(round(n_i))
        span = n_int * elem_bytes
        patterns[i] = [
            # Histogram pass reads the partition...
            (SequentialScan(n_int, elem_bytes, resident=hist_resident), None),
            # ...the permutation reads it again (now warm if it fits)...
            (SequentialScan(n_int, elem_bytes, resident=fits), None),
            # ...and appends into the radix buckets of the local output.
            (
                BucketedAppend(
                    n_int, int(actives[i]), elem_bytes, span,
                    locality=float(localities[i]),
                ),
                None,
            ),
        ]
    home = partition_home(team.machine)
    patterns = [
        [(pat, h or home) for pat, h in plist] for plist in patterns
    ]
    team.compute(uniform_compute(f"{name}.pass{k}", busy, patterns))
