"""Session-scoped Ray fixture — at most ONE ray.init per pytest session.

Only the modules that run Ray use ``ray_session`` (a module-level
``pytestmark``); the kernel and per-row rule tests run without a Ray
session. Ray's implicit ``ray.init`` on a first ``ray.put``/``.remote``
is turned off, so a test that runs Ray without the fixture fails
instead of starting a session with other settings than this one.
"""

from __future__ import annotations

import os
import sys

import pytest

# read when ray is first imported, which is after this module
os.environ.setdefault("RAY_ENABLE_AUTO_CONNECT", "0")

# this checkout's package, wherever the checkout lives
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
