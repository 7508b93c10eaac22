"""NumPy's OpenBLAS on one thread, and a helper thread that shares row blocks.

NumPy's bundled OpenBLAS rounds a product on one and on two threads
apart once its inner dimension reaches about 400.  Every analysis and
campaign therefore makes its products inside ``one_blas_thread``, each
on the thread that calls it, so the library, ``ttpool test`` and any
worker count give the same bits.

Resampling products are made in fixed row blocks
(``estimators.product_row_dots``) and a Gram matrix in row blocks of
its own, through ``share``.  Outside ``helper_thread`` the blocks run
one after another on the calling thread.  Inside it, one helper thread
takes blocks too, and ``submit`` queues other work on it.  A block's
bits do not depend on the thread that made it, so both schedules give
the same bytes.
"""

from __future__ import annotations

import ctypes
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

_log = logging.getLogger(__name__)


@cache
def numpy_openblas() -> Optional[ctypes.CDLL]:
    """NumPy's bundled ``scipy_openblas64_`` library, or ``None`` where it is not found.

    Loading the file NumPy already loaded returns the same library, so its
    thread setter acts on NumPy's own BLAS calls.
    """
    numpy_dir = Path(np.__file__).parent
    for lib_dir in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs"):
        for path in sorted(lib_dir.glob("*scipy_openblas64_*")):
            try:
                lib = ctypes.CDLL(str(path))
                lib.scipy_openblas_get_num_threads64_.argtypes = []
                lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
                lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                lib.scipy_openblas_set_num_threads64_.restype = None
            except (OSError, AttributeError):
                continue
            return lib
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextmanager
def one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread; restore the saved count after.

    The count is process-wide: while it is 1, each thread that calls into
    OpenBLAS runs its product on itself, with no helper threads.  Entries
    are counted under a lock, so nested entries and entries from several
    threads share one pin: the first entry saves the count and the last
    exit restores it.
    """
    global _pin_depth, _pin_saved
    lib = numpy_openblas()
    if lib is None:
        _log.debug("no NumPy OpenBLAS found; products keep the default BLAS threading")
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = lib.scipy_openblas_get_num_threads64_()
            _log.debug("pinning OpenBLAS %s to 1 thread (saved count %d)", lib._name, _pin_saved)
            lib.scipy_openblas_set_num_threads64_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                lib.scipy_openblas_set_num_threads64_(_pin_saved)


#: The helper pool of ``helper_thread`` on this thread, if one is open.
_helper: ContextVar[Optional[ThreadPoolExecutor]] = ContextVar("ttpool_helper", default=None)


class Job:
    """``fn(*args)`` queued on the helper thread.

    ``result`` waits for it; if the helper has not started it yet, the
    caller takes it back and runs it itself, so no thread idles while
    work it could do is queued.
    """

    def __init__(self, pool: Optional[ThreadPoolExecutor], fn, *args) -> None:
        self._call = partial(fn, *args)
        self._future = None if pool is None else pool.submit(self._call)
        if pool is None:
            self._value = self._call()

    def result(self):
        if self._future is None:
            return self._value
        if self._future.cancel():
            self._future = None
            self._value = self._call()
            return self._value
        return self._future.result()


def submit(fn, *args) -> Job:
    """Queue ``fn(*args)`` on this thread's helper; without one, run it now."""
    return Job(_helper.get(), fn, *args)


@contextmanager
def helper_thread():
    """Open one helper thread for this thread's ``submit`` and ``share`` calls.

    The thread is stopped on exit, after its running job; jobs it has not
    started are dropped.
    """
    pool = ThreadPoolExecutor(1, thread_name_prefix="ttpool-helper")
    token = _helper.set(pool)
    try:
        yield
    finally:
        _helper.reset(token)
        pool.shutdown(wait=True, cancel_futures=True)


#: Marks the end of ``share``'s queue.
_DONE = object()


def share(work, items) -> None:
    """Call ``work(item)`` for each of ``items``; inside ``helper_thread`` the helper joins in.

    Both threads take the next item from one queue until it is empty, so
    the helper takes items as soon as it is free.  Without a helper the
    items run here, in order.  Returns once every item is done.
    """
    pool = _helper.get()
    if pool is None:
        for item in items:
            work(item)
        return
    queue = iter(items)
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                item = next(queue, _DONE)
            if item is _DONE:
                return
            work(item)

    helper = Job(pool, drain)
    drain()
    helper.result()
