"""Reusable shared-memory arena for the job server.

A bare :class:`~repro.native.pool.WorkerPool` reuses its own sort buffers
across calls, but its workers still attach them per task.  The arena
takes the job server to zero creates *and* zero attaches: the server
creates a small fixed set of *slabs* once (two data slabs sized for the
largest admissible job, two smaller meta slabs for the radix histogram
and offsets), and every job's buffers are ndarray views into leased
slabs.  Slab names are stable for the server's lifetime, so pool workers
-- whose attach cache (:func:`repro.native.shm.enable_attach_cache`)
memoizes by name -- map each slab exactly once and every later job runs
with zero creates and zero attaches, which the per-job trace spans
assert.  Because every job passes :class:`ArenaBuffers`, the engine
pool's own buffers are never created.

Slabs carry a recognizable ``repro_slab_*`` name (instead of CPython's
anonymous ``psm_*``) so a leaked segment in ``/dev/shm`` is attributable;
the test suite's leak audit covers both prefixes.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass

import numpy as np

from ..native.shm import (
    BlockView,
    SharedArray,
    SortBuffers,
    allocate,
    buffer_layout,
)

#: Name prefix for arena slabs in /dev/shm (leak-audit greps for it).
SLAB_PREFIX = "repro_slab"


class ArenaError(RuntimeError):
    """Base class for arena failures."""


class ArenaExhausted(ArenaError):
    """No free slab can satisfy a lease (arena too small or a leak)."""


class JobTooLarge(ArenaError):
    """A requested buffer exceeds every slab's capacity."""


@dataclass
class _Slab:
    sa: SharedArray
    nbytes: int
    in_use: bool = False

    @property
    def name(self) -> str:
        return self.sa.name


class Arena:
    """A fixed set of preallocated slabs with lease/release bookkeeping.

    ``data_bytes``/``n_data`` size the large slabs (a sort needs two: the
    double-buffered src/dst pair), ``meta_bytes``/``n_meta`` the small
    ones (radix leases two: histogram + offsets; sample sort none).
    Creation is the only time the arena touches the shared-memory system;
    ``close`` unlinks everything, including on the server's exception
    path.
    """

    def __init__(
        self,
        data_bytes: int = 8 << 20,
        n_data: int = 2,
        meta_bytes: int = 4 << 20,
        n_meta: int = 2,
    ):
        if data_bytes < 1 or meta_bytes < 1:
            raise ValueError("slab sizes must be positive")
        if n_data < 2:
            raise ValueError("a sort double-buffers: need >= 2 data slabs")
        if n_meta < 2:
            raise ValueError("radix sort needs >= 2 meta slabs")
        self.data_bytes = int(data_bytes)
        self.meta_bytes = int(meta_bytes)
        self._lock = threading.Lock()
        self._slabs: list[_Slab] = []
        self._closed = False
        token = secrets.token_hex(4)
        try:
            for i in range(n_data):
                self._add_slab(self.data_bytes, f"{SLAB_PREFIX}_{os.getpid()}_{token}_d{i}")
            for i in range(n_meta):
                self._add_slab(self.meta_bytes, f"{SLAB_PREFIX}_{os.getpid()}_{token}_m{i}")
        except BaseException:
            self.close()
            raise
        self.leases = 0
        self.peak_in_use = 0

    def _add_slab(self, nbytes: int, name: str) -> None:
        sa = allocate((nbytes,), np.uint8, name=name)
        self._slabs.append(_Slab(sa, nbytes))

    # ------------------------------------------------------------------
    @property
    def slab_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._slabs)

    @property
    def slab_sizes(self) -> tuple[int, ...]:
        return tuple(s.nbytes for s in self._slabs)

    def max_job_bytes(self) -> int:
        """Largest per-buffer payload a job may need (one data slab)."""
        return self.data_bytes

    def in_use(self) -> int:
        with self._lock:
            return sum(1 for s in self._slabs if s.in_use)

    # ------------------------------------------------------------------
    def lease(self, nbytes: int) -> _Slab:
        """Smallest free slab with capacity >= ``nbytes``."""
        if self._closed:
            raise ArenaError("arena is closed")
        with self._lock:
            best: _Slab | None = None
            for slab in self._slabs:
                if slab.in_use or slab.nbytes < nbytes:
                    continue
                if best is None or slab.nbytes < best.nbytes:
                    best = slab
            if best is None:
                if any(s.nbytes >= nbytes for s in self._slabs):
                    raise ArenaExhausted(
                        f"no free slab for a {nbytes}-byte lease "
                        f"({self.in_use_unlocked()} of {len(self._slabs)} in use)"
                    )
                raise JobTooLarge(
                    f"{nbytes}-byte buffer exceeds the largest "
                    f"{max(self.slab_sizes)}-byte slab"
                )
            best.in_use = True
            self.leases += 1
            self.peak_in_use = max(
                self.peak_in_use, sum(1 for s in self._slabs if s.in_use)
            )
            return best

    def in_use_unlocked(self) -> int:
        return sum(1 for s in self._slabs if s.in_use)

    def release(self, slab: _Slab) -> None:
        with self._lock:
            slab.in_use = False

    def buffers(self) -> "ArenaBuffers":
        """A per-sort buffer provider drawing from this arena."""
        return ArenaBuffers(self)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every slab; safe to call twice and mid-construction."""
        self._closed = True
        slabs, self._slabs = self._slabs, []
        for slab in slabs:
            try:
                slab.sa.close()
            except OSError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "slabs": len(self._slabs),
            "data_bytes": self.data_bytes,
            "meta_bytes": self.meta_bytes,
            "leases": self.leases,
            "in_use": self.in_use(),
            "peak_in_use": self.peak_in_use,
        }


class ArenaBuffers(SortBuffers):
    """The arena-backed :class:`~repro.native.shm.SortBuffers`: ``empty``
    and ``from_array`` lease slab views instead of creating blocks, and
    ``release_all`` returns the leases (nothing is unlinked)."""

    def __init__(self, arena: Arena):
        self._arena = arena
        self._leased: list[_Slab] = []

    def empty(
        self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.int64
    ) -> BlockView:
        shape, dtype, nbytes = buffer_layout(shape, dtype)
        slab = self._arena.lease(nbytes)
        self._leased.append(slab)
        return BlockView(slab.sa, shape, dtype)

    def release_all(self) -> None:
        leased, self._leased = self._leased, []
        for slab in reversed(leased):
            self._arena.release(slab)
