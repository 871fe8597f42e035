"""Block loops of long recordings, shared out over a process-wide thread pool.

WAV decoding, `resample` and the NCC blocks of frame voicing and F0 each
walk a clip block by block, and each block spends its time in numpy and
scipy kernels that release the GIL. `run_blocks` hands one contiguous run
of blocks to each of as many threads as the process has CPUs. Every block
writes only its own slice of an output the caller allocated beforehand,
so the result is the serial one, bit for bit, however the runs fall.

A loop with too few blocks runs inline in the caller's thread, as does
every loop in a forked child (the worker processes of `extract --jobs N`,
which already fill the CPUs).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

# Fewest blocks a thread must get for a loop to be shared out; a loop with
# fewer than twice this many blocks runs inline. Measured on a 2-vCPU VM
# (4 MiB L2 per core), two threads against one on synthetic speech clips of
# 3 to 120 s, medians of 21 to 61 alternating runs, as the threaded time
# over the serial one at so many blocks per thread:
#   analyze_frames  0.83 at 2.5, 0.80 at 4.5, 0.67 at 8.5, 0.74 at 97;
#   _f0_tracks      1.36 at 1.5, 1.13 at 3, 0.83 at 4.5, 0.94 at 7.5,
#                   1.00 and 0.87 at 9 (the most Python per block);
#   WAV decode      0.93 at 2, 0.82 at 3.5, 0.79 at 7, 0.62 at 40;
#   resample        0.71 at 1, 0.64 at 2, 0.54 at 20.
# Whole recordings (load to descriptors) with every loop of 2 or more
# blocks threaded: 11025 Hz mono 1.03-1.05 at 5 s, 0.92-0.95 at 10 s,
# 0.84-0.93 at 40 s; 44.1 kHz stereo 0.93-1.06 at 5 s, 0.77-0.81 at 40 s.
# They cross between 5 and 10 s, 4 to 8 frame blocks per thread, and F0
# blocks only pay from about 4.5; 8 is past every crossing, and puts the
# switch for frame analysis at clips of about 10 s.
MIN_BLOCKS_PER_WORKER = 8


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


_workers = _available_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _reset_after_fork() -> None:
    # A forked child inherits the pool object but none of its threads, so a
    # block handed to it would never run.
    global _workers, _pool, _pool_lock
    _workers = 1
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # the calling thread works one run itself
            _pool = ThreadPoolExecutor(_workers - 1, thread_name_prefix="voxtrait-blocks")
        return _pool


def run_blocks(fn: Callable[[range], None], starts: range) -> None:
    """Call fn on contiguous runs of `starts` that cover each start once.

    With at least 2 * MIN_BLOCKS_PER_WORKER starts and more than one CPU,
    `starts` is cut into one run per thread, at most one per CPU and each
    of at least MIN_BLOCKS_PER_WORKER starts: the caller's thread takes
    the first run and pool threads the others. Otherwise fn(starts) runs
    inline. Returns once every run has finished, and then re-raises the
    exception of the first run that failed, if any. fn must write only to
    the blocks of its own run and must not call run_blocks.
    """
    n = len(starts)
    workers = min(_workers, n // MIN_BLOCKS_PER_WORKER)
    if workers < 2:
        fn(starts)
        return
    cuts = [n * i // workers for i in range(workers + 1)]
    runs = [starts[a:b] for a, b in zip(cuts, cuts[1:])]
    pool = _shared_pool()
    futures = [pool.submit(fn, run) for run in runs[1:]]
    try:
        fn(runs[0])
    finally:
        wait(futures)  # the other runs still write into the caller's arrays
    for future in futures:
        future.result()
