"""Spans and counters for the traced run.

Spans are recorded around the benchmark's own calls into each engine
layer and summed per name in memory. Ray Data executions are counted
from Ray's own ``ray.data`` logger, which logs one "Starting execution
of Dataset" line per streaming execution.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from contextlib import contextmanager

EXECUTION_MARK = "Starting execution of Dataset"


class ExecutionCounter(logging.Handler):
    """Counts Ray Data executions started while it is installed."""

    def __init__(self) -> None:
        super().__init__(level=logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith(EXECUTION_MARK):
            self.count += 1

    def __enter__(self) -> "ExecutionCounter":
        logger = logging.getLogger("ray.data")
        if logger.getEffectiveLevel() > logging.INFO:
            logger.setLevel(logging.INFO)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger("ray.data").removeHandler(self)


class Tracer:
    """Seconds spent in named spans, summed per name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
