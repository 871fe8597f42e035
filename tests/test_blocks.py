"""The block-loop thread pool: coverage, inline fallback, errors and fork."""

import os
import sys
import threading
import time

import pytest

from voxtrait import _blocks
from voxtrait._blocks import MIN_BLOCKS_PER_WORKER, run_blocks


def _record_runs(starts):
    runs = []
    lock = threading.Lock()

    def fn(run):
        with lock:
            runs.append((run, threading.current_thread()))

    run_blocks(fn, starts)
    return runs


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "n_blocks",
    [0, 1] + [k * MIN_BLOCKS_PER_WORKER + d for k, d in ((2, -1), (2, 0), (3, 2))] + [100],
)
def test_runs_cover_each_start_once(monkeypatch, workers, n_blocks):
    monkeypatch.setattr(_blocks, "_workers", workers)
    starts = range(7, 7 + 62 * n_blocks, 62)
    runs = _record_runs(starts)
    expected = max(1, min(workers, n_blocks // MIN_BLOCKS_PER_WORKER))
    assert len(runs) == expected
    assert [s for run, _ in sorted(runs, key=lambda r: r[0].start) for s in run] == list(starts)
    if expected == 1:  # too few blocks, or one CPU: inline in the caller's thread
        assert runs == [(starts, threading.current_thread())]
    else:
        assert all(len(run) >= MIN_BLOCKS_PER_WORKER for run, _ in runs)
        assert threading.current_thread() in {thread for _, thread in runs}
        assert len({thread for _, thread in runs}) > 1


def test_every_run_finishes_before_the_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_blocks, "_workers", 3)
    done = []

    def fn(run):
        if run.start == 0:
            raise KeyError("first run")  # the caller's own run
        time.sleep(0.05)
        done.append(run)

    with pytest.raises(KeyError, match="first run"):
        run_blocks(fn, range(3 * MIN_BLOCKS_PER_WORKER))
    assert len(done) == 2

    def fail_late(run):
        if run.start > 0:
            raise ZeroDivisionError(f"run at {run.start}")

    with pytest.raises(ZeroDivisionError, match="run at"):  # the same class, from a pool thread
        run_blocks(fail_late, range(3 * MIN_BLOCKS_PER_WORKER))


def test_many_threads_write_disjoint_blocks(monkeypatch):
    # more threads than CPUs and a short switch interval: a block lost or run
    # twice would show in the counts
    monkeypatch.setattr(_blocks, "_workers", 8)
    counts = [0] * 4000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):

            def fn(run):
                for start in run:
                    for i in range(start, start + 10):
                        counts[i] += 1

            run_blocks(fn, range(0, len(counts), 10))
    finally:
        sys.setswitchinterval(switch)
    assert counts == [20] * len(counts)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_blocks_inline(monkeypatch):
    # the child inherits the started pool but not its threads
    monkeypatch.setattr(_blocks, "_workers", 2)
    assert len(_record_runs(range(2 * MIN_BLOCKS_PER_WORKER))) == 2
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        code = 1
        try:
            runs = _record_runs(range(4 * MIN_BLOCKS_PER_WORKER))
            code = 0 if [thread for _, thread in runs] == [threading.current_thread()] else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung in run_blocks")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
