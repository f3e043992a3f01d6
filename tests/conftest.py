import multiprocessing
import threading

import pytest

import corrcolor  # noqa: F401  before any test module loads numpy: BLAS loads pinned


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive which was not there before it,
    such as a view-pair worker that a run did not join."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive which was not there
    before it, such as a sweep's worker."""
    before = set(multiprocessing.active_children())
    yield
    left = [child.name for child in multiprocessing.active_children() if child not in before]
    if left:
        pytest.fail(f"processes left running: {left}")
