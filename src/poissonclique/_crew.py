"""A helper thread that shares one job at a time with its caller, chunk by chunk.

NumPy releases the GIL inside each ufunc, so two threads that run ufuncs on
disjoint blocks of an array run at the same time.  Nothing here knows what
the blocks hold: the whole-level kernel in ``inference`` opens a ``helper``
per call and hands its row tiles to ``run``.  The module is imported by the
functions that build arrays, so importing the package does not compile it,
and ``concurrent.futures`` (which imports ``logging``) is imported only when
a helper is opened.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def helper(share: bool) -> contextlib.AbstractContextManager[ThreadPoolExecutor | None]:
    """A one-thread executor for ``run`` if ``share``, else a context that
    holds None.  The thread starts with the first job and is joined on exit,
    so none outlives the ``with`` block.  NumPy keeps the ufunc buffer size
    and the floating-point error state per thread (1.x) or per context (2.x),
    so the thread takes the caller's, as they are when the helper is opened.
    """
    if not share:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    bufsize, err = np.getbufsize(), np.geterr()

    def adopt() -> None:
        np.setbufsize(bufsize)
        np.seterr(**err)

    return ThreadPoolExecutor(1, initializer=adopt)


def run(pool: ThreadPoolExecutor | None, count: int, work: Callable[[int, int], None], unit: int = 1) -> None:
    """``work(lo, hi)`` on every chunk [lo, hi) of range(count), cut at
    multiples of ``unit``, each chunk on one thread: the caller and the
    ``pool``'s thread, if any, each take the next chunk until none is left.
    The caller waits only for a chunk that the pool thread has started, never
    for that thread to take up the job.  Returns once every chunk is done; an
    error in any chunk is then raised in the caller, the lowest chunk's."""
    if pool is None:
        work(0, count)
        return
    starts = iter(range(0, count, unit))
    lock = threading.Lock()
    errors: dict[int, BaseException] = {}

    def take() -> None:
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            try:
                work(lo, min(count, lo + unit))
            except BaseException as exc:  # re-raised below, in the caller
                errors[lo] = exc

    share = pool.submit(take)
    take()
    if not share.cancel():  # the pool thread took up the job
        share.result()
    if errors:
        raise errors[min(errors)]
