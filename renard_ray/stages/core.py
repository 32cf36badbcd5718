"""Stage protocol + pipeline validation over Arrow schemas.

Re-expresses the reference's user-extension surface
(``renard/pipeline/core.py:65-151`` ``PipelineStep``;
``core.py:643-693`` ``Pipeline.check_valid``): each stage declares the
columns it ``needs``, optionally uses, and ``produces``; a pipeline of
stages is validated up-front by simulating the column set through the
stage list — the same needs/production check, now over real
``pyarrow`` schemas instead of state-attribute names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import pyarrow as pa

from ray.data import Dataset


class PipelineValidationError(ValueError):
    """A stage's needs are not satisfied by upstream productions
    (reference analog: ``PipelineCheckError``/invalid-pipeline raise in
    ``core.py:668-678``)."""


@dataclass
class Stage:
    """One Ray Data stage: a ``map_batches`` task function plus its
    declared column contract.

    - ``fn``: callable(batch, **fn_kwargs) -> batch, run as plain tasks
      over pyarrow batches.
    - ``needs`` / ``optional_needs`` / ``produces``: column names
      (``production()``/``needs()``/``optional_needs()`` analogs,
      ``core.py:129-151``).
    - ``removes``: columns this stage drops (no reference analog — the
      reference only accretes state; dropping is how a columnar engine
      keeps batches narrow, e.g. ``html`` after text extraction).
    - ``batch_size``: rows per batch (Ray Data's default when None).
    - ``fn_kwargs``: keyword arguments bound into every call of ``fn``.
    """

    name: str
    fn: Callable
    needs: frozenset[str] = frozenset()
    optional_needs: frozenset[str] = frozenset()
    produces: frozenset[str] = frozenset()
    removes: frozenset[str] = frozenset()
    batch_size: int | None = None
    fn_kwargs: dict = field(default_factory=dict)

    def apply(self, ds: Dataset) -> Dataset:
        kwargs: dict = {"batch_format": "pyarrow"}
        if self.batch_size is not None:
            kwargs["batch_size"] = self.batch_size
        if self.fn_kwargs:
            kwargs["fn_kwargs"] = self.fn_kwargs
        return ds.map_batches(self.fn, **kwargs)


def check_valid(
    stages: Sequence[Stage], input_schema: pa.Schema | Sequence[str]
) -> list[str]:
    """Simulate the column set through the stage list.

    Returns warnings for unmet *optional* needs; raises
    ``PipelineValidationError`` on unmet hard needs (the reference's
    exact split: errors for ``needs``, warnings for ``optional_needs``,
    ``core.py:655-686``)."""
    # accepts pyarrow.Schema, Ray Data's Schema wrapper, or plain names
    names = getattr(input_schema, "names", input_schema)
    cols: set[str] = set(names)
    warnings: list[str] = []
    for stage in stages:
        missing = stage.needs - cols
        if missing:
            raise PipelineValidationError(
                f"stage {stage.name!r} needs columns {sorted(missing)} "
                f"but only {sorted(cols)} are available"
            )
        soft = stage.optional_needs - cols
        if soft:
            warnings.append(
                f"stage {stage.name!r} optionally needs {sorted(soft)} (absent)"
            )
        cols |= stage.produces
        cols -= stage.removes
    return warnings


def run_stages(
    ds: Dataset, stages: Sequence[Stage], validate: bool = True
) -> Dataset:
    """Validate then chain the stages onto ``ds``."""
    if validate:
        schema = ds.schema()
        check_valid(stages, schema if schema is not None else [])
    for stage in stages:
        ds = stage.apply(ds)
    return ds
