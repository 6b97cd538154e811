import threading

import pytest


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs: ``threading.Thread`` is
    replaced by a subclass that records each thread it starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            super().start()
            started.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started
