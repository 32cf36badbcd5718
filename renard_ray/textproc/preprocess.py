"""Text preprocessing: ordered regex substitutions.

Capability parity with the reference's
``CustomSubstitutionPreprocessor``
(``renard/pipeline/preprocessing.py:6-32``): an ordered list of
(pattern, replacement) rules applied to ``text``.  Patterns are
compiled once per worker process (module-level cache keyed on the rule
tuple), the batch application is a column sweep.
"""

from __future__ import annotations

import re

import pyarrow as pa

_COMPILED: dict[tuple, list] = {}


def _rules(substitutions: tuple[tuple[str, str], ...]) -> list:
    got = _COMPILED.get(substitutions)
    if got is None:
        got = [(re.compile(p), r) for p, r in substitutions]
        _COMPILED[substitutions] = got
    return got


def substitution_batch(
    batch: pa.Table, substitutions: tuple[tuple[str, str], ...]
) -> pa.Table:
    """``map_batches`` fn rewriting the ``text`` column."""
    rules = _rules(substitutions)
    texts = batch.column("text").to_pylist()
    out = []
    for t in texts:
        if t:
            for rx, repl in rules:
                t = rx.sub(repl, t)
        out.append(t)
    i = batch.column_names.index("text")
    return batch.set_column(i, "text", pa.array(out, batch.column("text").type))
