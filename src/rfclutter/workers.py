"""The process's one worker-thread pool.

Cube assembly (`rxsim`), line of sight (`terrain.lines_of_sight`),
the counter-based draws (`seeding.philox_words`), the sea surface
(`ocean.surface_series`), tap accumulation (`channel.synthesize_ir`),
the dataset file hashes (`challenge`) and range-Doppler beamforming
and pulse compression (`dsp`) split their work into blocks that run
on every CPU this process may use.  Each block writes only its own
part of the output, and every sample, word, sea row, tap, digest and
map row keeps the arithmetic it has in a serial evaluation, so the
bytes are the same at any core count.

The caller runs the first block itself, so one CPU runs everything
inline and the other blocks add one worker thread's memory each.  The
pool is built on first use with one thread per CPU and lives as long
as the process.  A block that asks for blocks of its own (a sea chunk
drawing its Philox words) runs them all on its own thread, so no pool
task waits on the pool and any number of calling threads can share it
without deadlock.  A forked child has none of its parent's threads, so
it drops the pool and builds its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, TypeVar

T = TypeVar("T")

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_local = threading.local()   # in_block: this thread is running a block


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity on this platform
        return os.cpu_count() or 1


def pool() -> ThreadPoolExecutor:
    """The shared pool, built on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cpu_count(), thread_name_prefix="rfclutter")
        return _pool


def _drop_pool() -> None:
    """A forked child has none of its parent's threads: it builds its own pool."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _as_block(task: Callable[[range], T], blocks: range) -> T:
    """`task(blocks)`, with any blocks it asks for run on this thread."""
    _local.in_block = True
    try:
        return task(blocks)
    finally:
        _local.in_block = False


def run_blocks(task: Callable[[range], T], count: int) -> list[T]:
    """`task(range(b, count, w))` for each block b < w, where w is the
    smaller of `count` and the CPU count; results in block order.

    Item i goes to block i % w.  The calling thread runs block 0 and
    the shared pool runs the others, so all of it runs inline when w
    is 1.  Called from inside a block, it runs all of it inline as one
    block.  Every block finishes before this returns, and the first
    block error is raised.
    """
    if getattr(_local, "in_block", False):
        return [task(range(count))]
    w = min(cpu_count(), count)
    futures = [pool().submit(_as_block, task, range(b, count, w)) for b in range(1, w)]
    try:
        first = _as_block(task, range(0, count, max(w, 1)))
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
