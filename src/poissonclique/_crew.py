"""A helper thread that shares one job at a time with its caller, chunk by chunk.

NumPy releases the GIL inside each ufunc, so two threads that run ufuncs on
disjoint blocks of an array run at the same time.  Nothing here knows what
the blocks hold: the whole-level kernel in ``inference`` hands its row tiles
to a ``Crew``.  The module is imported by the functions that build arrays, so
importing the package does not compile it.
"""

from __future__ import annotations

import os
import threading
from typing import Callable


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Job:
    """``work(lo, hi)`` over range(count) in chunks of ``unit``, handed out in
    order to whichever thread asks next."""

    def __init__(self, count: int, work: Callable[[int, int], None], unit: int) -> None:
        self.count, self.work, self.unit = count, work, unit
        self.chunks = -(-count // unit)
        self.claimed = 0
        self.pending = self.chunks
        self.errors: dict[int, BaseException] = {}
        self.lock = threading.Lock()
        self.done = threading.Event()
        if not self.chunks:
            self.done.set()

    def help(self) -> None:
        """Run chunks until none is left to claim."""
        while True:
            with self.lock:
                i = self.claimed
                self.claimed += 1
            if i >= self.chunks:
                return
            try:
                self.work(i * self.unit, min(self.count, (i + 1) * self.unit))
            except BaseException as exc:  # re-raised by Crew.run, in the caller
                self.errors[i] = exc
            with self.lock:
                self.pending -= 1
                if not self.pending:
                    self.done.set()


class Crew:
    """The caller and, if ``share``, one helper thread, running one job at a
    time, each thread taking the job's next chunk until none is left.

    The caller works on every job and waits only for a chunk that the helper
    has started, never for the helper to wake up.  The helper starts with the
    first job and is joined on exit, so none outlives the ``with`` block.
    NumPy keeps the ufunc buffer size and the floating-point error state per
    thread (1.x) or per context (2.x), so the helper takes the caller's when
    it starts.
    """

    def __init__(self, share: bool) -> None:
        self.share = share
        self._helper: threading.Thread | None = None

    def __enter__(self) -> Crew:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._helper is not None:
            with self._posted:
                self._closed = True
                self._posted.notify_all()
            self._helper.join()

    def _serve(self, bufsize: int, err: dict) -> None:
        import numpy as np

        np.setbufsize(bufsize)
        np.seterr(**err)
        job = None
        while True:
            with self._posted:
                while self._job is job and not self._closed:
                    self._posted.wait()
                if self._closed:
                    return
                job = self._job
            job.help()

    def run(self, count: int, work: Callable[[int, int], None], unit: int = 1) -> None:
        """``work(lo, hi)`` on every chunk [lo, hi) of range(count), cut at
        multiples of ``unit``, each chunk on one thread.  Returns once every
        chunk is done; an error in any chunk is then raised in the caller, the
        lowest chunk's."""
        if not self.share:
            work(0, count)
            return
        if self._helper is None:
            import numpy as np

            self._job: _Job | None = None
            self._closed = False
            self._posted = threading.Condition()
            self._helper = threading.Thread(target=self._serve, args=(np.getbufsize(), np.geterr()))
            self._helper.start()
        job = _Job(count, work, unit)
        with self._posted:
            self._job = job
            self._posted.notify_all()
        job.help()
        job.done.wait()
        if job.errors:
            raise job.errors[min(job.errors)]
