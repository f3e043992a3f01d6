import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive which was not there before it,
    such as a view-pair worker that a run did not join."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
