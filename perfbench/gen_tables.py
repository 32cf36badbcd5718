"""Seeded tables for the ``query_mix`` workload.

A small TPC-H-like star schema plus ``events``, ``documents`` and
``embeddings``, with the column names, types and value grids the engine's
query entries and their DuckDB twins expect (prices in cents, discounts
in hundredths, timestamps in microseconds). One Parquet file per table,
``<dir>/<table>.parquet``, as the query entries read them.

The join keys, nation assignments, quantities and discounts come from a
fixed stream, not from the seed. They fix the shape of the trade graph
(customer nation -> supplier nation over lineitems with quantity >= 48
and discount >= 0.09), and so the number of rounds the iterative graph
entries take; with them drawn from the seed, one entry's execution count
moved between 28 and 38 from seed to seed. The seed varies every other
column.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

N_CUSTOMER = 750
N_SUPPLIER = 50
N_PART = 1000
N_ORDERS = 7_500
N_LINEITEM = 30_000
N_EVENTS = 5_000
N_USERS = 150
N_DOCUMENTS = 120
N_EMBEDDINGS = 400
EMB_DIM = 64

_DOC_WORDS = (
    "a the agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "value vector window"
).split()


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(round(lo * 100), round(hi * 100), n) / 100.0


def _days(rng: np.random.Generator, start: dt.date, span: int, n: int) -> pa.Array:
    base = np.datetime64(start, "us")
    days = rng.integers(0, span, n).astype("timedelta64[D]").astype("timedelta64[us]")
    return pa.array(base + days, pa.timestamp("us"))


SHAPE_SEED = 20_240_101


def make_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    c_nation = shape.integers(0, 25, N_CUSTOMER)
    s_nation = shape.integers(0, 25, N_SUPPLIER)
    o_cust = shape.integers(0, N_CUSTOMER, N_ORDERS)
    l_order = shape.integers(0, N_ORDERS, N_LINEITEM)
    l_supp = shape.integers(0, N_SUPPLIER, N_LINEITEM)
    qty = shape.integers(1, 51, N_LINEITEM).astype(np.float64)
    disc = shape.integers(0, 11, N_LINEITEM) / 100.0
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table(
        {
            "r_regionkey": pa.array(range(5), pa.int32()),
            "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
        }
    )
    t["nation"] = pa.table(
        {
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
        }
    )
    segments = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    t["customer"] = pa.table(
        {
            "c_custkey": pa.array(range(N_CUSTOMER), pa.int64()),
            "c_name": [f"Customer#{i:09d}" for i in range(N_CUSTOMER)],
            "c_nationkey": pa.array(c_nation, pa.int32()),
            "c_acctbal": _money(rng, -999.99, 9999.99, N_CUSTOMER),
            "c_mktsegment": segments[rng.integers(0, 5, N_CUSTOMER)],
        }
    )
    t["supplier"] = pa.table(
        {
            "s_suppkey": pa.array(range(N_SUPPLIER), pa.int64()),
            "s_name": [f"Supplier#{i:09d}" for i in range(N_SUPPLIER)],
            "s_nationkey": pa.array(s_nation, pa.int32()),
            "s_acctbal": _money(rng, -999.99, 9999.99, N_SUPPLIER),
        }
    )
    adjs = ["small", "red", "blue", "hot", "cold", "big", "green", "old"]
    nouns = ["ring", "widget", "bolt", "gear", "pipe", "valve", "nut", "spring"]
    types = np.array(["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"])
    t["part"] = pa.table(
        {
            "p_partkey": pa.array(range(N_PART), pa.int64()),
            "p_name": [f"{adjs[a]} {nouns[b]}" for a, b in rng.integers(0, 8, (N_PART, 2))],
            "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, N_PART)],
            "p_type": types[rng.integers(0, 6, N_PART)],
            "p_size": pa.array(rng.integers(1, 51, N_PART), pa.int32()),
            "p_retailprice": 900.0 + (np.arange(N_PART) % 1000) / 10.0,
        }
    )
    prios = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    t["orders"] = pa.table(
        {
            "o_orderkey": pa.array(range(N_ORDERS), pa.int64()),
            "o_custkey": pa.array(o_cust, pa.int64()),
            "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, N_ORDERS)],
            "o_totalprice": _money(rng, 1000.0, 500_000.0, N_ORDERS),
            "o_orderdate": _days(rng, dt.date(1995, 1, 1), 2400, N_ORDERS),
            "o_orderpriority": prios[rng.integers(0, 5, N_ORDERS)],
        }
    )
    t["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(l_order, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, N_PART, N_LINEITEM), pa.int64()),
            "l_suppkey": pa.array(l_supp, pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, N_LINEITEM), pa.int32()),
            "l_quantity": qty,
            "l_extendedprice": np.round(qty * _money(rng, 900.0, 2100.0, N_LINEITEM), 2),
            "l_discount": disc,
            "l_tax": rng.integers(0, 9, N_LINEITEM) / 100.0,
            "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, N_LINEITEM)],
            "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, N_LINEITEM)],
            "l_shipdate": _days(rng, dt.date(1995, 1, 2), 2500, N_LINEITEM),
        }
    )
    gaps = rng.integers(1, 2 * 30 * 86_400_000_000 // N_EVENTS, N_EVENTS)
    ts = np.datetime64(dt.date(2024, 1, 1), "us") + np.cumsum(gaps).astype("timedelta64[us]")
    t["events"] = pa.table(
        {
            "event_id": pa.array(range(N_EVENTS), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, N_USERS, N_EVENTS), pa.int64()),
            "event_type": np.array(["click", "error", "purchase", "signup", "view"])[
                rng.integers(0, 5, N_EVENTS)
            ],
            "value": np.maximum(0.01, np.round(rng.exponential(50.0, N_EVENTS), 2)),
            "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS)],
        }
    )
    t["documents"] = _documents(rng)
    centers = rng.normal(size=(10, EMB_DIM))
    labels = rng.integers(0, 10, N_EMBEDDINGS)
    vecs = centers[labels] + 0.6 * rng.normal(size=(N_EMBEDDINGS, EMB_DIM))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    t["embeddings"] = pa.table(
        {
            "vec_id": pa.array(range(N_EMBEDDINGS), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }
    )
    return t


def _documents(rng: np.random.Generator) -> pa.Table:
    """Keyword-soup documents; about one in twelve is a near copy of an
    earlier one (its tail cut and ``dup`` appended), for the dedup entries."""
    langs = np.array(["en", "en", "de", "es", "fr", "zh"])
    texts: list[str] = []
    for i in range(N_DOCUMENTS):
        if i > 10 and rng.random() < 1 / 12:
            src = texts[int(rng.integers(0, i))].split()
            keep = max(3, len(src) - int(rng.integers(0, 3)))
            texts.append(" ".join(src[:keep] + ["dup"]))
        else:
            words = rng.integers(0, len(_DOC_WORDS), int(rng.integers(8, 60)))
            texts.append(" ".join(_DOC_WORDS[w] for w in words))
    return pa.table(
        {
            "doc_id": pa.array(range(N_DOCUMENTS), pa.int64()),
            "text": texts,
            "lang": langs[rng.integers(0, len(langs), N_DOCUMENTS)],
            "source": [f"src{i % 20}" for i in range(N_DOCUMENTS)],
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, table in tables.items():
        pq.write_table(table, f"{out_dir}/{name}.parquet")
