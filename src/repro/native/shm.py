"""Shared-memory NumPy arrays for the native parallel sorts.

The GIL makes thread-based shared-memory sorting pointless in Python (the
very reason this reproduction simulates the paper's machine), so the
native backend uses *processes* sharing buffers through
:mod:`multiprocessing.shared_memory`.  :class:`SharedArray` wraps the
block lifecycle: create, view as ndarray, attach from a worker by name,
and unlink exactly once.

Two fault sites live here (see :mod:`repro.faults` and docs/FAULTS.md):
``shm.create`` makes creation raise ENOSPC (the classic full ``/dev/shm``)
and ``shm.attach`` makes the next attach in this process raise EACCES.
:func:`allocate` / :func:`allocate_from` are the resilient allocation
front doors: bounded retry with backoff, so a transient creation failure
degrades to a short stall instead of a failed sort.

Every successful create and every *fresh* attach bumps a process-local
counter (:func:`create_count` / :func:`attach_count`), which is how the
steady-state tests and the job server prove a sort touched no new
segment.

Sort buffers
------------
The sorts never allocate directly; they ask a :class:`SortBuffers`
provider for :class:`BlockView` buffers (an ndarray view over the prefix
of a named block, which workers attach by name).  Radix sort leases four:
the double-buffered ``src``/``dst`` key arrays plus the ``(p, 2**radix)``
histogram and offset matrices.  Sample sort leases two: ``src`` and
``dst``; its splitters and count matrix stay in the parent.  Per-block
kernel state lives in ordinary worker-local memory, never in a shared
segment.

Two providers exist.  The default :class:`SortBuffers` is *pool-scoped*:
each :class:`~repro.native.pool.WorkerPool` lazily owns one, a sort's
``release_all`` returns its blocks to the pool's free list, the next sort
reuses every block that fits (so a steady stream of same-sized sorts
creates no segment after the first), and ``WorkerPool.close`` unlinks
them.  A persistent pool therefore holds its largest buffers until it is
closed.  The job server's :class:`repro.serve.arena.ArenaBuffers` leases
views into preallocated slabs instead; a pool whose sorts all pass one
never creates a block of its own.
"""

from __future__ import annotations

import errno
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from ..faults.context import current_fault_plan
from ..trace import PID_FAULTS, current_recorder

#: Python 3.13+ grows ``SharedMemory(..., track=...)``; older versions
#: need the resource-tracker registration suppressed by monkey-patch.
_HAS_TRACK_PARAM = sys.version_info >= (3, 13)

#: Serializes the register monkey-patch on < 3.13: concurrent attaches
#: from several threads used to race on saving/restoring the original
#: function, which could leave the no-op permanently installed.
_ATTACH_LOCK = threading.Lock()

#: Pending injected attach failures in *this* process (armed by the pool's
#: per-task fault directives; consumed, one per attach, by ``SharedArray``).
_fail_attach_count = 0

#: Process-local lifetime counters: successful creations and *fresh*
#: attaches (cache hits do not count).  The serve layer diffs these to
#: assert a steady-state job touched no new shared memory.
_create_count = 0
_attach_count = 0

#: When enabled (long-lived pool workers via ``enable_attach_cache``),
#: fresh attaches are memoized by block name and reused across tasks.
_attach_cache_enabled = False
_attach_cache: dict[str, shared_memory.SharedMemory] = {}


def create_count() -> int:
    """Shared-memory blocks created by this process so far."""
    return _create_count


def attach_count() -> int:
    """Fresh (non-cached) attaches performed by this process so far."""
    return _attach_count


def enable_attach_cache(on: bool = True) -> None:
    """Memoize attaches by block name in this process.

    Installed as the pool-worker initializer by the job server: arena
    slab names are stable for the server's lifetime, so after the first
    task touching a slab every later attach is a cache hit (no ``shm_open``,
    no counter bump).  Disabling does not drop existing cached mappings;
    call :func:`detach_cached` for that.

    Only safe when block names are stable.  Nothing evicts the cache, so
    each worker keeps every page it ever touched mapped: with a fresh
    block per sort it grew a 2-worker tree to 4.7 GB peak RSS over 40
    sorts of 4 Mi keys, and even with the reused pool buffers it raised
    that tree's peak RSS from ~537 MB to ~601 MB.  Plain pool workers
    therefore attach per task.
    """
    global _attach_cache_enabled
    _attach_cache_enabled = on


def attach_cache_size() -> int:
    return len(_attach_cache)


def detach_cached() -> int:
    """Close every cached attachment; returns how many were dropped."""
    n = len(_attach_cache)
    for cached in _attach_cache.values():
        try:
            cached.close()
        except OSError:  # pragma: no cover - already gone
            pass
    _attach_cache.clear()
    return n


def fail_next_attach(n: int = 1) -> None:
    """Arm ``n`` injected ``shm.attach`` failures in this process."""
    global _fail_attach_count
    _fail_attach_count += n


def _consume_injected_attach_failure() -> None:
    global _fail_attach_count
    if _fail_attach_count > 0:
        _fail_attach_count -= 1
        raise OSError(
            errno.EACCES, "injected shm.attach failure (repro.faults)"
        )


def _maybe_injected_create_failure() -> None:
    plan = current_fault_plan()
    if plan is not None and plan.should("shm.create"):
        rec = current_recorder()
        if rec.enabled:
            rec.instant(
                "fault.shm.create",
                cat="fault.inject",
                ts_us=time.perf_counter() * 1e6,
                pid=PID_FAULTS,
            )
        raise OSError(
            errno.ENOSPC, "injected shm.create failure (repro.faults)"
        )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    CPython < 3.13 registers attachments with the resource tracker, which
    is shared with the parent under fork -- the worker's registration /
    unregistration then fights the owner's (bpo-38119).  Only the creating
    process should track the block.  On 3.13+ ``track=False`` says exactly
    that; earlier versions need ``resource_tracker.register`` swapped for
    a no-op during the attach, which must be lock-guarded: two threads
    attaching concurrently could otherwise each save the *other's* no-op
    as "the original" and leave registration permanently disabled.
    """
    if _HAS_TRACK_PARAM:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = real_register


class SharedArray:
    """A NumPy array backed by a named shared-memory block."""

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.int64,
        name: str | None = None,
        create: bool = True,
    ):
        global _create_count, _attach_count
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        self._cached = False
        if create:
            _maybe_injected_create_failure()
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
            self._owner = True
            _create_count += 1
        else:
            if name is None:
                raise ValueError("attaching requires a block name")
            _consume_injected_attach_failure()
            cached = _attach_cache.get(name) if _attach_cache_enabled else None
            if cached is not None:
                self._shm = cached
                self._cached = True
            else:
                self._shm = _attach_untracked(name)
                _attach_count += 1
                if _attach_cache_enabled:
                    _attach_cache[name] = self._shm
                    self._cached = True
            self._owner = False
        self.array: np.ndarray = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def attach(
        cls, name: str, shape: tuple[int, ...] | int, dtype: np.dtype | type
    ) -> "SharedArray":
        """Attach to an existing block from a worker process."""
        return cls(shape, dtype, name=name, create=False)

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Create a shared copy of ``source``."""
        sa = cls(source.shape, source.dtype)
        sa.array[...] = source
        return sa

    def close(self) -> None:
        """Detach; the owner also unlinks the block.

        A cache-backed attachment (see :func:`enable_attach_cache`) only
        drops its ndarray view: the underlying mapping stays open for the
        next attach to the same name, released by :func:`detach_cached`
        or process exit.
        """
        # Drop the ndarray view first: SharedMemory.close() refuses while
        # exported buffers exist.
        self.array = None  # type: ignore[assignment]
        if self._cached and not self._owner:
            return
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass
            self._owner = False

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedArray {self.name} {self.shape} {self.dtype}>"


# ----------------------------------------------------------------------
# Resilient allocation
# ----------------------------------------------------------------------
def _alloc_with_retry(factory, retries: int, backoff_s: float) -> SharedArray:
    failures = 0
    for attempt in range(retries + 1):
        try:
            sa = factory()
        except OSError:
            failures += 1
            if attempt == retries:
                raise
            time.sleep(backoff_s * (2.0**attempt))
            continue
        if failures:
            plan = current_fault_plan()
            if plan is not None:
                plan.note_recovered("shm.create", failures)
            rec = current_recorder()
            if rec.enabled:
                rec.instant(
                    "fault.shm.create.recovered",
                    cat="fault.recovery",
                    ts_us=time.perf_counter() * 1e6,
                    pid=PID_FAULTS,
                    args={"retries": failures},
                )
        return sa
    raise AssertionError("unreachable")  # pragma: no cover


def allocate(
    shape: tuple[int, ...] | int,
    dtype: np.dtype | type = np.int64,
    *,
    name: str | None = None,
    retries: int = 2,
    backoff_s: float = 0.005,
) -> SharedArray:
    """Create a :class:`SharedArray`, retrying transient OS failures
    (full ``/dev/shm``, injected ``shm.create`` faults) with backoff.
    ``name`` pins the block name (the serve arena uses a recognizable
    ``repro_slab_*`` prefix so leaks are attributable)."""
    return _alloc_with_retry(
        lambda: SharedArray(shape, dtype, name=name), retries, backoff_s
    )


def allocate_from(
    source: np.ndarray, *, retries: int = 2, backoff_s: float = 0.005
) -> SharedArray:
    """Create a shared copy of ``source`` with the same retry policy."""
    return _alloc_with_retry(
        lambda: SharedArray.from_array(source), retries, backoff_s
    )


# ----------------------------------------------------------------------
# Sort buffers
# ----------------------------------------------------------------------
class BlockView:
    """One sort buffer: an ndarray view over the prefix of a named block.

    Exposes what the sorts need -- ``.name`` (workers attach the block and
    build the same view over its prefix) and ``.array`` (the parent's
    view) -- without owning the block.
    """

    def __init__(
        self, block: SharedArray, shape: tuple[int, ...], dtype: np.dtype
    ):
        self.name = block.name
        self.array: np.ndarray = np.ndarray(shape, dtype=dtype, buffer=block.array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockView {self.name} {self.array.shape} {self.array.dtype}>"


def buffer_layout(shape: tuple[int, ...] | int, dtype: np.dtype | type) -> tuple:
    """Normalized ``(shape, dtype, nbytes)`` of a requested buffer."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    dtype = np.dtype(dtype)
    return shape, dtype, max(1, int(np.prod(shape)) * dtype.itemsize)


class SortBuffers:
    """The pool-scoped buffer provider: blocks outlive the sort.

    ``empty`` hands out the smallest free block that fits (creating one
    only when none does, after unlinking the free blocks that are all too
    small), ``release_all`` returns every block handed out since the last
    release to the free list, and ``close`` unlinks them all.  One sort
    runs at a time per provider: ``release_all`` releases everything.
    """

    def __init__(self) -> None:
        self._free: list[SharedArray] = []
        self._held: list[SharedArray] = []

    def empty(
        self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.int64
    ) -> BlockView:
        shape, dtype, nbytes = buffer_layout(shape, dtype)
        fits = [b for b in self._free if b.array.nbytes >= nbytes]
        if fits:
            block = min(fits, key=lambda b: b.array.nbytes)
            self._free.remove(block)
        else:
            _close_all(self._free)  # every free block is too small
            self._free = []
            block = allocate((nbytes,), np.uint8)
        self._held.append(block)
        return BlockView(block, shape, dtype)

    def from_array(self, source: np.ndarray) -> BlockView:
        view = self.empty(source.shape, source.dtype)
        view.array[...] = source
        return view

    def release_all(self) -> None:
        """Return every block handed out to the free list; idempotent."""
        self._free.extend(self._held)
        self._held = []

    def close(self) -> None:
        """Unlink every block, free or held; idempotent."""
        blocks = self._held + self._free
        self._held, self._free = [], []
        _close_all(blocks)


def _close_all(blocks: list[SharedArray]) -> None:
    """Close (and unlink) every block, raising the first error after."""
    first_err: BaseException | None = None
    for block in blocks:
        try:
            block.close()
        except BaseException as err:  # noqa: BLE001 - close them all
            first_err = first_err or err
    if first_err is not None:
        raise first_err
