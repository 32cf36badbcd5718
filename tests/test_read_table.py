"""The house Parquet reader, ``relational.read_table``: a single-file,
one-row-group table is one Ray task and no Ray Data execution; every
other input goes through ``ray.data.read_parquet``."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.01"


def _frame() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "k": [3, 1, 2, 5, 4],
            "x": [0.5, 1.25, -2.0, 3.0, 4.5],
            "s": ["a", "bb", None, "dddd", "e"],
            "ts": pd.to_datetime(
                ["1998-09-02", "1995-01-01", "1992-06-30", "1997-12-31", "1996-02-29"]
            ),
            "flag": [True, False, True, True, False],
        }
    )


def _blocks(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.fixture
def read_parquet_calls(monkeypatch):
    """Paths handed to ``ray.data.read_parquet`` while the test runs."""
    import ray

    calls = []
    real = ray.data.read_parquet

    def spy(paths, **kwargs):
        calls.append(paths)
        return real(paths, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    return calls


@pytest.mark.parametrize("columns", [None, ["s", "k", "ts"]])
def test_small_file_equals_read_parquet(
    ray_session, tmp_path, read_parquet_calls, executions, columns
):
    """A one-row-group file written from pandas (so its schema carries
    the pandas metadata blob) reads in one task, with no Ray Data
    execution, to the same names, types and values as
    ``read_parquet``, and with no schema metadata."""
    import ray

    from renard_ray.ops.relational import read_table

    path = str(tmp_path / "t.parquet")
    _frame().to_parquet(path)
    assert pq.read_schema(path).metadata
    assert pq.ParquetFile(path).metadata.num_row_groups == 1

    with executions() as ex:
        got = read_table(path, columns)
        got_tab = _blocks(got)
    assert ex.n == 0 and read_parquet_calls == []
    assert got.num_blocks() == 1

    want = ray.data.read_parquet(path, columns=columns)
    want_tab = _blocks(want)
    assert got.schema().names == want.schema().names
    assert got.schema().types == want.schema().types
    assert got_tab.schema.metadata is None
    assert got_tab.equals(want_tab.replace_schema_metadata(None))


def test_two_row_groups_and_directory_take_read_parquet(
    ray_session, tmp_path, read_parquet_calls
):
    """A file of two row groups and a directory of files are read by
    ``read_parquet``, still without schema metadata."""
    from renard_ray.ops.relational import read_table

    t = pa.Table.from_pandas(_frame(), preserve_index=False)
    two = str(tmp_path / "two.parquet")
    pq.write_table(t, two, row_group_size=3)
    assert pq.ParquetFile(two).metadata.num_row_groups == 2
    d = tmp_path / "dir"
    d.mkdir()
    pq.write_table(t.slice(0, 2), str(d / "part-0.parquet"))
    pq.write_table(t.slice(2), str(d / "part-1.parquet"))

    for path in (two, str(d)):
        got = _blocks(read_table(path, ["k", "s"])).sort_by("k")
        assert got.schema.metadata is None
        assert got.equals(t.select(["k", "s"]).sort_by("k"))
    assert read_parquet_calls == [two, str(d)]


def test_missing_column_raises_key_error(ray_session, tmp_path):
    from renard_ray.ops.relational import read_table

    path = str(tmp_path / "t.parquet")
    _frame().to_parquet(path)
    with pytest.raises(KeyError):
        read_table(path, ["k", "nope"])


# entries built on ``sorted_run_scan``: on 0-row tables they return the
# twin's columns, not a schema-less Dataset
_SORTED_RUN_ENTRIES = [
    ("events_asof_last_purchase", "events"),
    ("events_running_total", "events"),
    ("orders_price_ntile", "orders"),
    ("orders_rank_in_customer", "orders"),
    ("doc_pack_blocks", "documents"),
    ("doc_domain_cap", "documents"),
    ("lineitem_price_percentiles_exact", "lineitem"),
    ("events_peak_moving_sum", "events"),
    ("events_sessionize", "events"),
    ("doc_tfidf_topk", "documents"),
    ("customer_order_history", "customer+orders"),
]


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not present")
@pytest.mark.parametrize(
    "name, table",
    [("doc_exact_dedup", "documents"), ("q1_pricing_summary", "lineitem")]
    + _SORTED_RUN_ENTRIES,
)
def test_zero_row_table_matches_duckdb(
    ray_session, tmp_path, read_parquet_calls, name, table
):
    """0-row tables (``table`` names them, ``+``-joined) of one (empty)
    row group take the one-task path and the entry still returns what
    its DuckDB twin returns: no rows.  Ray Data hands no empty block to
    a ``map_batches`` function, so ``doc_exact_dedup`` and
    ``q1_pricing_summary`` are schema-less, as they are when
    ``read_parquet`` reads the same file; a schema, where there is one,
    names the twin's columns.  The sorted-run entries always have the
    twin's columns."""
    import duckdb

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in table.split("+"):
        path = str(tmp_path / f"{t}.parquet")
        pq.write_table(pq.read_table(f"{SF}/{t}.parquet").slice(0, 0), path)
        meta = pq.ParquetFile(path).metadata
        assert (meta.num_row_groups, meta.num_rows) == (1, 0)
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")

    got = entry.queries()[name](str(tmp_path))
    got_df = got.to_pandas()
    assert read_parquet_calls == []
    want = con.sql(entry.oracle_sql()[name]).df()
    assert len(got_df) == len(want) == 0
    schema = got.schema if isinstance(got, pa.Table) else got.schema()
    if (name, table) in _SORTED_RUN_ENTRIES:
        assert schema is not None
    if schema is not None:
        assert sorted(schema.names) == sorted(want.columns)


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not present")
def test_query_entries_execution_counts(ray_session, executions):
    """The Ray Data executions each timed query-mix entry starts,
    consumed to pandas, on sf0.01: a one-row-group table is read
    without one, and a broadcast side that is already materialized is
    not projected by one."""
    import __ray_entry__ as entry

    fns = entry.queries()
    most = {
        "q5_nation_revenue": 2,
        "events_funnel": 4,
        "doc_exact_dedup": 1,
        "embedding_kmeans": 2,
    }
    got = {}
    for name in most:
        with executions() as ex:
            assert len(fns[name](SF).to_pandas()) > 0
        got[name] = ex.n
    assert all(got[q] <= most[q] for q in most), got
