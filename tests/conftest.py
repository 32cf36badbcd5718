import logging
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per driver instruction)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


class _Executions(logging.Handler):
    """Counts Ray Data executions started while installed (one
    "Starting execution of Dataset" line of the ``ray.data`` logger per
    streaming execution)."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.n = 0

    def emit(self, record):
        self.n += record.getMessage().startswith("Starting execution of Dataset")

    def __enter__(self):
        self.logger = logging.getLogger("ray.data")
        self.level = self.logger.level
        self.logger.setLevel(logging.INFO)
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level)


@pytest.fixture
def executions():
    """``with executions() as ex:`` counts the Ray Data executions the
    block starts in ``ex.n``."""
    return _Executions
