import os

import pytest

from graphchoice import _writer


@pytest.fixture
def fresh_pool(monkeypatch):
    """`set_cpus(n)` shuts the process's worker pool down and sets the CPU
    count to n, so that the next write makes a pool of that size. The pool
    is shut down again when the test ends, and the next use makes one of
    the real size."""
    def shut_down():
        if _writer._pool is not None:
            _writer._pool[0].shutdown()
            _writer._pool = None

    def set_cpus(cpus):
        shut_down()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    yield set_cpus
    shut_down()
