"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import os
import sys

import pytest
import ray

# this checkout's package, wherever the checkout lives
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
