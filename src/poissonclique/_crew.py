"""A helper thread that shares one job at a time with its caller, by halves.

NumPy releases the GIL inside each ufunc, so two threads that run ufuncs on
disjoint blocks of an array run at the same time.  Nothing here knows what
the arrays hold: the whole-level kernel in ``inference`` opens a ``helper``
per call and hands ``halves`` its level array, whose halves are the two
sub-cubes below and above the cube's top index bit.  The module is imported
by the functions that build arrays, so importing the package does not
compile it, and ``concurrent.futures`` (which imports ``logging``) is
imported only when a helper is opened.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def helper(share: bool) -> contextlib.AbstractContextManager[ThreadPoolExecutor | None]:
    """A one-thread executor for ``halves`` if ``share``, else a context that
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


def halves(pool: ThreadPoolExecutor | None, work: Callable[..., object], *arrays: np.ndarray) -> bool:
    """``work(*arrays)`` on the caller if ``pool`` is None; returns False.

    Otherwise ``work`` runs once on the lower halves of the flat ``arrays``,
    on the caller, and once on their upper halves, on the ``pool``'s thread
    if that thread has started them by the time the caller is done, else on
    the caller too: the caller never waits for the thread to take up the
    job.  Returns True once both halves are done; an error in either is then
    raised in the caller, the lower half's if both raise.
    """
    if pool is None:
        work(*arrays)
        return False
    lower, upper = zip(*(a.reshape(2, -1) for a in arrays))
    share = pool.submit(work, *upper)
    try:
        work(*lower)
    except BaseException:
        if not share.cancel():  # the pool thread took up the job
            share.exception()
        raise
    if share.cancel():
        work(*upper)
    else:
        share.result()
    return True
