"""The one-BLAS-thread pin, the helper thread and the row blocks they share."""

import sys
import threading

import pytest

from ttpool.blas import helper_thread, numpy_openblas, one_blas_thread, share, submit

needs_openblas = pytest.mark.skipif(
    numpy_openblas() is None,
    reason="NumPy's bundled OpenBLAS (scipy_openblas64_) was not found",
)


def _blas_threads() -> int:
    return numpy_openblas().scipy_openblas_get_num_threads64_()


@needs_openblas
def test_interleaved_entries_restore_the_count_at_the_last_exit():
    # Thread a enters, b enters, a exits, b exits: the pin holds until b's
    # exit, and only that exit restores the saved count.
    saved = _blas_threads()
    steps = {name: threading.Event() for name in ("a_in", "b_in", "a_out", "b_go_out")}
    seen = {}

    def a():
        with one_blas_thread():
            seen["a inside"] = _blas_threads()
            steps["a_in"].set()
            steps["b_in"].wait(5)
        seen["after a's exit"] = _blas_threads()
        steps["a_out"].set()

    def b():
        steps["a_in"].wait(5)
        with one_blas_thread():
            steps["b_in"].set()
            steps["a_out"].wait(5)
            seen["b inside after a's exit"] = _blas_threads()
            steps["b_go_out"].wait(5)
        seen["after b's exit"] = _blas_threads()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    steps["a_out"].wait(5)
    steps["b_go_out"].set()
    for t in threads:
        t.join(5)
    assert not any(t.is_alive() for t in threads)
    assert seen == {
        "a inside": 1,
        "after a's exit": 1,
        "b inside after a's exit": 1,
        "after b's exit": saved,
    }
    assert _blas_threads() == saved


@needs_openblas
def test_nested_entries_restore_the_count_once():
    saved = _blas_threads()
    with one_blas_thread():
        with one_blas_thread():
            assert _blas_threads() == 1
        assert _blas_threads() == 1
    assert _blas_threads() == saved


def test_share_runs_every_item_once_and_the_helper_stops():
    before = threading.enumerate()
    done = []
    lock = threading.Lock()

    def work(item):
        with lock:
            done.append((item, threading.current_thread().name))

    with helper_thread():
        share(work, range(200))
    assert sorted(item for item, _ in done) == list(range(200))
    assert threading.enumerate() == before


def test_without_a_helper_everything_runs_here_in_order():
    names, items = set(), []

    def work(item):
        names.add(threading.current_thread().name)
        items.append(item)

    share(work, range(5))
    assert submit(lambda x: x + 1, 1).result() == 2
    assert names == {threading.current_thread().name}
    assert items == [0, 1, 2, 3, 4]


def test_an_error_on_either_thread_reaches_the_caller():
    def fail_at(bad):
        def work(item):
            if item == bad:
                raise ValueError(f"item {item}")

        return work

    with helper_thread():
        for bad in (0, 99):
            with pytest.raises(ValueError, match=f"item {bad}"):
                share(fail_at(bad), range(100))
        job = submit(fail_at(3), 3)
        with pytest.raises(ValueError, match="item 3"):
            job.result()


def test_a_queued_job_runs_here_if_the_helper_has_not_started_it():
    release = threading.Event()
    with helper_thread():
        busy = submit(release.wait, 5)
        queued = submit(threading.current_thread)
        # The helper is busy, so the caller takes the queued job back.
        assert queued.result() is threading.current_thread()
        release.set()
        assert busy.result() is True


def test_pins_and_shares_from_many_threads_under_fast_switching():
    # Eight threads, each pinning and sharing 50 items with its own helper,
    # while the interpreter switches threads every microsecond: every item
    # runs once, the count is 1 inside every pin and restored after the last.
    saved = _blas_threads() if numpy_openblas() is not None else None
    done, inside = [], []
    lock = threading.Lock()

    def run(name):
        for _ in range(5):
            with one_blas_thread(), helper_thread():
                if saved is not None:
                    inside.append(_blas_threads())

                def work(item):
                    with lock:
                        done.append((name, item))

                share(work, range(10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == sorted((k, i) for k in range(8) for i in range(10) for _ in range(5))
    if saved is not None:
        assert set(inside) == {1}
        assert _blas_threads() == saved
