"""Negative tests: every sanitizer invariant catches a deliberately
injected corruption with a VerifyError naming it, and clean runs pass
with nonzero check counters."""

import heapq

import numpy as np
import pytest

from repro.core.api import sort
from repro.data import generate
from repro.machine.costs import DEFAULT_COSTS
from repro.sim.engine import SimError, Simulator
from repro.sim.resources import Channel, Resource
from repro.smp.perf import PerfCounters, PerfReport, PhaseRecord
from repro.smp.team import Team
from repro.sorts.radix import default_machine
from repro.verify import (
    Sanitizer,
    VerifyError,
    check_comm_conservation,
    check_report,
    use_sanitizer,
)

pytestmark = pytest.mark.no_sanitize  # tests install their own sanitizer


def expect_violation(invariant: str):
    # Match the invariant name in the bracketed message prefix; allow
    # sub-invariant suffixes like comm.key-conservation.send.
    return pytest.raises(VerifyError, match=rf"\[{invariant}")


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_sanitized_sort_is_clean_and_covered(sanitizer):
    keys = generate("gauss", 1024, 16)
    result = sort(keys, algorithm="radix", model="mpi-new", n_procs=16)
    assert np.array_equal(result.sorted_keys, np.sort(keys))
    assert not sanitizer.violations
    for invariant in (
        "sim.clock-monotone",
        "resource.mutual-exclusion",
        "resource.fifo-grant",
        "resource.idle-release",
        "channel.occupancy",
        "exchange.drained",
        "team.phase-outcome",
        "team.barrier-epoch",
        "comm.key-conservation",
        "report.accounting-identity",
    ):
        assert sanitizer.checks[invariant] > 0, invariant


def test_verify_error_is_a_sim_error_and_names_invariant():
    err = VerifyError("some.invariant", "what went wrong", detail=3)
    assert isinstance(err, SimError)
    assert err.invariant == "some.invariant"
    assert "[some.invariant]" in str(err) and "what went wrong" in str(err)
    assert err.context == {"detail": 3}


def test_sanitizer_records_violations():
    san = Sanitizer()
    with pytest.raises(VerifyError):
        san.violation("x.y", "boom")
    assert [v.invariant for v in san.violations] == ["x.y"]


# ----------------------------------------------------------------------
# DES kernel causality
# ----------------------------------------------------------------------
def test_clock_monotone_violation_caught(sanitizer):
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    # A buggy scheduler bypassing _schedule() plants an event in the past.
    heapq.heappush(sim._queue, (1.0, sim._seq + 1, lambda v: None, None))
    with expect_violation("sim.clock-monotone"):
        sim.step()


def test_schedule_past_violation_caught(sanitizer):
    sim = Simulator()
    sim.now = 5.0
    with expect_violation("sim.schedule-past"):
        sim._schedule(1.0, lambda v: None, None)


def test_event_refire_violation_caught(sanitizer):
    sim = Simulator()
    ev = sim.event("once")
    ev.succeed()
    with expect_violation("sim.event-refire"):
        ev.succeed()
    assert sanitizer.violations[-1].invariant == "sim.event-refire"


def test_late_resume_violation_caught(sanitizer):
    sim = Simulator()

    def body():
        yield 1.0

    proc = sim.process(body(), name="p0")
    sim.run()
    assert proc.triggered
    with expect_violation("sim.event-after-complete"):
        proc._resume(None)


# ----------------------------------------------------------------------
# Resources and channels
# ----------------------------------------------------------------------
def test_idle_release_violation_caught(sanitizer):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="hub")
    res.acquire()
    res.release()
    with expect_violation("resource.idle-release"):
        res.release()


def test_fifo_grant_violation_caught(sanitizer):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="link")
    res.acquire()  # ticket 0, granted
    res.acquire()  # ticket 1, waits
    res.acquire()  # ticket 2, waits
    res._waiters.reverse()  # corrupt the queue: LIFO instead of FIFO
    with expect_violation("resource.fifo-grant"):
        res.release()


def test_mutual_exclusion_violation_caught(sanitizer):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="lock")
    res.acquire()
    # A buggy grant path that forgets to check occupancy:
    res.in_use += 1
    with expect_violation("resource.mutual-exclusion"):
        res._grant(1)


def test_channel_occupancy_violation_caught(sanitizer):
    sim = Simulator()
    ch = Channel(sim, capacity=1, name="p0->p1")
    ch._items.extend(["a", "b"])  # corrupt: two messages in a 1-deep buffer
    with expect_violation("channel.occupancy"):
        ch.get()


def test_exchange_drained_violation_caught(sanitizer):
    sim = Simulator()
    sim.timeout(1.0)  # queued work the "finished" exchange never ran
    with expect_violation("exchange.drained"):
        sanitizer.on_exchange_drained(sim, (), "permute")


def test_exchange_drained_flags_stuck_channel(sanitizer):
    sim = Simulator()
    ch = Channel(sim, capacity=1, name="p0->p1")
    ch.put("undelivered")
    with expect_violation("exchange.drained"):
        sanitizer.on_exchange_drained(sim, (ch,), "permute")


# ----------------------------------------------------------------------
# SPMD phase runtime
# ----------------------------------------------------------------------
def _team(p=4):
    return Team(default_machine(p), p, DEFAULT_COSTS, label="test")


def test_barrier_epoch_violation_caught(sanitizer):
    team = _team()
    team.barrier("ok")
    team.epochs[0] += 1  # processor 0 "skips ahead" one barrier
    with expect_violation("team.barrier-epoch"):
        team.barrier("broken")


def test_phase_outcome_negative_time_caught(sanitizer):
    # ProcWork rejects negative busy at construction, so forge the
    # executor-level outcome a buggy phase model could produce.
    from repro.smp.executor import PhaseOutcome

    team = _team()
    bad = PhaseOutcome(team.n_procs)
    bad.sync[1] = -10.0
    with expect_violation("team.phase-outcome"):
        team._apply("bad", bad)


def test_phase_outcome_wrong_width_caught(sanitizer):
    from repro.smp.executor import PhaseOutcome

    team = _team()
    with expect_violation("team.phase-outcome"):
        team._apply("bad", PhaseOutcome(team.n_procs + 1))


# ----------------------------------------------------------------------
# Accounting and conservation checkers
# ----------------------------------------------------------------------
def _report(busy=100.0, span=100.0, p=2):
    return PerfReport(
        n_procs=p,
        counters=[PerfCounters(busy_ns=busy) for _ in range(p)],
        phases=[PhaseRecord("phase", np.full(p, span))],
        label="test",
    )


def test_check_report_accepts_consistent_report():
    check_report(_report())


def test_accounting_identity_violation_caught():
    with expect_violation("report.accounting-identity"):
        check_report(_report(busy=100.0, span=90.0))


def test_report_negative_category_caught():
    with expect_violation("report.category-sane"):
        check_report(_report(busy=-1.0, span=-1.0))


def test_report_phase_shape_caught():
    bad = PerfReport(
        n_procs=2,
        counters=[PerfCounters(), PerfCounters()],
        phases=[PhaseRecord("phase", np.zeros(3))],
    )
    with expect_violation("report.phase-shape"):
        check_report(bad)


def test_comm_conservation_accepts_balanced_matrix():
    b = np.full((2, 2), 10.0)
    check_comm_conservation(b, np.ones((2, 2)), row_bytes=20.0, col_bytes=20.0)


def test_comm_send_conservation_violation_caught():
    b = np.full((2, 2), 10.0)
    b[0, 1] += 5.0  # corrupt: processor 0 ships bytes it does not own
    with expect_violation(r"comm.key-conservation.send"):
        check_comm_conservation(
            b, np.ones((2, 2)), row_bytes=20.0, col_bytes=None, where="radix"
        )


def test_comm_recv_conservation_violation_caught():
    b = np.full((2, 2), 10.0)
    b[0, 1] += 5.0
    with expect_violation(r"comm.key-conservation.recv"):
        check_comm_conservation(
            b, np.ones((2, 2)), row_bytes=None, col_bytes=20.0, where="radix"
        )


def test_comm_chunkless_traffic_caught():
    b = np.full((2, 2), 10.0)
    chunks = np.ones((2, 2))
    chunks[1, 0] = 0.0  # bytes flow 1->0 in zero chunks
    with expect_violation("comm.chunkless-traffic"):
        check_comm_conservation(b, chunks)


def test_comm_shape_mismatch_caught():
    with expect_violation("comm.matrix-shape"):
        check_comm_conservation(np.zeros((2, 2)), np.zeros((3, 3)))


def test_corrupted_comm_histogram_caught_in_sort(monkeypatch):
    """End to end: a bug planted upstream of the comm-matrix builder (a
    histogram that invents keys) is caught by the sanitizer's conservation
    check during an otherwise normal run."""
    from repro.sorts import common, program

    real = common.proc_histograms

    def corrupted(digits, p, r):
        hist = real(digits, p, r).copy()
        hist[0, 0] += 3  # processor 0 "counts" keys it does not hold
        return hist

    monkeypatch.setattr(program, "proc_histograms", corrupted)
    keys = generate("gauss", 512, 8)
    with use_sanitizer(Sanitizer()):
        with expect_violation(r"comm.key-conservation"):
            sort(keys, algorithm="radix", model="shmem", n_procs=8)
