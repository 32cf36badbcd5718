"""Correctness checks, all made outside the timed region.

- Build workloads: the graph on disk must equal the golden single-process
  oracle's triples on the same pages, and must satisfy properties read
  from the generator's record of where it placed each character's names.
- ``query_mix``: each result must match its DuckDB twin by value hash.

No check reads the engine's in-band metric rows.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

from gen_pages import Corpus

TITLES = {"Mr.", "Mrs.", "Miss", "Lady", "Sir"}


def fail(msg: str) -> bool:
    print(f"perfbench: check failed: {msg}", file=sys.stderr)
    return False


def read_graph(path: str) -> pa.Table:
    return pads.dataset(path, format="parquet", partitioning="hive").to_table(
        columns=["subj", "pred", "obj", "block_id", "weight"]
    )


def triple_set(graph: pa.Table) -> set[tuple]:
    cols = [graph.column(c).to_pylist() for c in ("subj", "pred", "obj", "block_id", "weight")]
    return {(s, p, o, b, round(w, 6)) for s, p, o, b, w in zip(*cols)}


def matches_oracle(graph: pa.Table, oracle: list[tuple]) -> bool:
    got = triple_set(graph)
    want = {(s, p, o, b, round(w, 6)) for s, p, o, b, w in oracle}
    if got != want:
        return fail(
            f"graph differs from the golden oracle: {len(got - want)} extra, "
            f"{len(want - got)} missing of {len(want)}"
        )
    return True


def _families(corpus: Corpus) -> list[int]:
    """Union of characters that share a name token: the coarsest grouping
    the engine's canonicalization can produce from these pages."""
    parent = list(range(len(corpus.cast)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict[str, int] = {}
    for i, c in enumerate(corpus.cast):
        for tok in c.tokens():
            if tok in owner:
                parent[find(i)] = find(owner[tok])
            else:
                owner[tok] = i
    return [find(i) for i in range(len(corpus.cast))]


def name_family(name: str, token_owner: dict[str, int], family: list[int]) -> int | None:
    toks = name.split()
    if toks and toks[0] in TITLES:
        toks = toks[1:]
    fams = {family[token_owner[t]] for t in toks if t in token_owner}
    if not toks or len(toks) > 2 or len(fams) != 1 or any(t not in token_owner for t in toks):
        return None
    return fams.pop()


def placement_properties(graph: pa.Table, corpus: Corpus) -> bool:
    """Properties taken from the generator's placement record:

    1. every graph node is a name the generator placed (an optional title
       and one or two name tokens of one family of characters);
    2. every family named in a sentence together with another family is
       a node of the graph;
    3. with a hub, the hub's family holds the node of largest
       ``co_occurs_with`` weight.
    """
    family = _families(corpus)
    placed = set().union(*corpus.placed)
    token_owner = {t: i for i in placed for t in corpus.cast[i].tokens()}
    nodes = set(graph.column("subj").to_pylist()) | set(graph.column("obj").to_pylist())
    node_family = {}
    for n in nodes:
        f = name_family(n, token_owner, family)
        if f is None:
            return fail(f"graph node {n!r} is not a placed name")
        node_family[n] = f
    present = set(node_family.values())
    needed = {family[a] for pair in corpus.co_mentions for a in pair if family[pair[0]] != family[pair[1]]}
    if needed - present:
        return fail(f"{len(needed - present)} co-mentioned name families missing from the graph")
    if corpus.hub is not None:
        degree: Counter = Counter()
        for s, p, o, w in zip(
            *(graph.column(c).to_pylist() for c in ("subj", "pred", "obj", "weight"))
        ):
            if p == "co_occurs_with":
                degree[s] += w
                degree[o] += w
        top = degree.most_common(1)[0][0] if degree else None
        if top is None or node_family[top] != family[corpus.hub]:
            return fail(f"hub character is not the top co-occurrence node (top: {top!r})")
    return True


# ------------------------------------------------------------- query twins


def to_pandas(result) -> pd.DataFrame:
    from ray.data import Dataset

    if isinstance(result, Dataset):
        df = result.to_pandas()
        if len(df) == 0 and len(df.columns) == 0 and result.schema() is not None:
            # an empty Dataset loses its columns in to_pandas
            df = pd.DataFrame({n: pd.Series(dtype=object) for n in result.schema().names})
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive hash of a frame's values, columns sorted by name."""
    df = df[sorted(df.columns)].copy()
    if len(df) == 0:
        return hashlib.md5(b"").hexdigest()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply("|".join, axis=1).tolist())
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def twin_matches(name: str, got: pd.DataFrame, want: pd.DataFrame) -> bool:
    if len(got) != len(want):
        return fail(f"{name}: {len(got)} rows, DuckDB twin has {len(want)}")
    if sorted(got.columns) != sorted(want.columns):
        return fail(f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}")
    if value_hash(got) != value_hash(want):
        return fail(f"{name}: value hash differs from the DuckDB twin")
    return True


def duckdb_twins(table_dir: str, tables: list[str], sql: dict[str, str]) -> dict[str, pd.DataFrame]:
    import duckdb

    con = duckdb.connect()
    try:
        con.sql("SET threads TO 2")
        for t in tables:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{table_dir}/{t}.parquet')")
        return {name: con.sql(q).df() for name, q in sql.items()}
    finally:
        con.close()

