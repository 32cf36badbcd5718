"""Ray Data stage wrappers: ``map_batches`` task functions over
zero-copy Arrow batches, plus schema (needs/produces) validation
mirroring the reference's ``Pipeline.check_valid``
(``renard/pipeline/core.py:643-693``)."""
