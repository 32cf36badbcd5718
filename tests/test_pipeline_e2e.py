"""E2E parity: distributed Ray pipeline vs golden single-process oracle.

The north-star criterion (BASELINE.json): triples P/R >= 0.95.  Both
implementations share the per-document kernels, so we assert exact
equality (P = R = 1.0) — stronger than the target.
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from renard_ray.oracle.golden import oracle_triples, triple_precision_recall
from renard_ray.pipelines.kg import KGConfig, build_kg
from renard_ray.sources.pages import generate_pages_table
from renard_ray.textproc.document import DocConfig


def _ray_triples(pages_tbl: pa.Table, cfg: KGConfig):
    import ray

    pages = ray.data.from_arrow(pages_tbl)
    df = build_kg(pages, cfg).to_pandas()
    return [
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in df.itertuples()
    ]


@pytest.mark.parametrize(
    "doc_cfg",
    [
        DocConfig(),
        DocConfig(
            with_sentiment=True,
            with_conversations=True,
            with_quote_mentions=True,
            with_relations=True,
        ),
        DocConfig(unifier="naive", with_corefs=False),
        DocConfig(co_occurrences_dist=(10, "tokens")),
        DocConfig(dynamic_blocks_unit="paragraphs"),
    ],
    ids=["default", "full", "naive", "token-dist", "paragraphs"],
)
def test_distributed_matches_oracle(ray_session, doc_cfg):
    pages_tbl = generate_pages_table(40, seed=7)
    cfg = KGConfig(doc=doc_cfg, kernel_batch_size=8)
    got = _ray_triples(pages_tbl, cfg)
    want = oracle_triples(pages_tbl, cfg)
    p, r = triple_precision_recall(got, want)
    assert p == 1.0 and r == 1.0, (
        f"P={p} R={r}; missing={set(want)-set(got)}; extra={set(got)-set(want)}"
    )


def test_dynamic_windows_match_oracle(ray_session):
    pages_tbl = generate_pages_table(25, seed=3)
    cfg = KGConfig(
        doc=DocConfig(dynamic_window=8, dynamic_overlap=2),
        kernel_batch_size=8,
    )
    got = _ray_triples(pages_tbl, cfg)
    want = oracle_triples(pages_tbl, cfg)
    assert set(got) == set(want)
    assert any(b >= 1 for (_, _, _, b, _) in got)  # really dynamic


def test_distributed_cc_matches_driver_cc(ray_session):
    import random

    import networkx as nx
    import ray

    from renard_ray.pipelines.cc import connected_components

    rng = random.Random(13)
    nodes = [f"n{i:03d}" for i in range(120)]
    edges = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(200)
    ]
    ds = ray.data.from_items([{"u": a, "v": b} for a, b in edges])

    label_map, _ = connected_components(ds, mode="driver")
    _, label_ds = connected_components(ds, mode="distributed")
    dist = {
        row["node"]: row["label"] for row in label_ds.take_all()
    }

    G = nx.Graph()
    G.add_edges_from((a, b) for a, b in edges if a != b)
    for comp in nx.connected_components(G):
        if len(comp) < 2:
            continue
        want_label = min(comp)
        for n in comp:
            assert label_map[n] == want_label, (n, label_map[n], want_label)
            assert dist[n] == want_label, (n, dist.get(n), want_label)


def test_edge_case_pages(ray_session):
    """Empty texts, non-eng pages and the giant page flow through."""
    pages_tbl = generate_pages_table(120, seed=42, with_edge_cases=True)
    cfg = KGConfig()
    got = _ray_triples(pages_tbl, cfg)
    want = oracle_triples(pages_tbl, cfg)
    p, r = triple_precision_recall(got, want)
    assert p == 1.0 and r == 1.0


def test_distributed_canonicalization_path(ray_session):
    """Force the scale path (distributed CC + hash-join relabel) and
    check it produces the same triples as the driver path."""
    import ray

    pages_tbl = generate_pages_table(30, seed=21)
    pages = ray.data.from_arrow(pages_tbl)
    drv = _ray_triples(pages_tbl, KGConfig())
    dist = build_kg(
        ray.data.from_arrow(pages_tbl),
        KGConfig(cc_mode="distributed"),
    ).to_pandas()
    dist_set = {
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in dist.itertuples()
    }
    assert dist_set == set(drv)


def test_auto_probe_bails_to_distributed(ray_session, monkeypatch):
    """cc_mode="auto" with a vocabulary over broadcast_limit must pick
    the distributed plan WITHOUT ever materializing the full alias
    vocabulary driver-side: the probe returns a sentinel the moment the
    merged pair set crosses the limit, and the driver union-find is
    never invoked.  Triples must still match the driver path exactly."""
    import ray

    import renard_ray.pipelines.kg as kgmod
    from renard_ray.pipelines.kg import (
        _driver_alias_summary,
        pages_to_stage_rows,
    )

    pages_tbl = generate_pages_table(30, seed=21)
    cfg = KGConfig()
    stage_rows = pages_to_stage_rows(
        ray.data.from_arrow(pages_tbl), cfg
    ).materialize()

    # the fixture really has alias pairs (else limit=0 would not bail)
    pairs, _ = _driver_alias_summary(stage_rows)
    assert pairs and len(pairs) > 0
    # unit level: the probe abandons the stream past the limit
    bailed, _ = _driver_alias_summary(stage_rows, pair_limit=0)
    assert bailed is None

    drv = _ray_triples(pages_tbl, cfg)

    def _boom(*a, **k):  # the driver CC must be unreachable
        raise AssertionError("driver union-find ran on the auto scale path")

    monkeypatch.setattr(kgmod, "_driver_cc_and_names", _boom)
    auto = build_kg(
        ray.data.from_arrow(pages_tbl),
        KGConfig(cc_mode="auto", broadcast_limit=0),
    ).to_pandas()
    auto_set = {
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in auto.itertuples()
    }
    assert auto_set == set(drv)


def test_kg_growth_distributed_parity(ray_session, monkeypatch):
    """kg_growth past the broadcast limit takes the distributed relabel
    (month threaded through the star-CC hash joins) and matches the
    driver path row for row; the old NotImplementedError is gone."""
    import pandas as pd
    import ray

    import renard_ray.pipelines.kg as kgmod
    from renard_ray.pipelines.kg import kg_growth

    pages_tbl = generate_pages_table(30, seed=21)
    want = kg_growth(ray.data.from_arrow(pages_tbl)).to_pandas()

    def _boom(*a, **k):
        raise AssertionError("driver union-find ran on the growth scale path")

    monkeypatch.setattr(kgmod, "_driver_cc_and_names", _boom)
    got = kg_growth(
        ray.data.from_arrow(pages_tbl), KGConfig(broadcast_limit=0)
    ).to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


def test_kg_growth_forced_distributed(ray_session, monkeypatch):
    """kg_growth honours cc_mode="distributed" the way build_kg does:
    the driver union-find never runs, and the output equals the default
    (driver-path) kg_growth."""
    import pandas as pd
    import ray

    import renard_ray.pipelines.kg as kgmod
    from renard_ray.pipelines.kg import kg_growth

    pages_tbl = generate_pages_table(30, seed=21)
    want = kg_growth(ray.data.from_arrow(pages_tbl)).to_pandas()

    def _boom(*a, **k):
        raise AssertionError("driver union-find ran under cc_mode='distributed'")

    monkeypatch.setattr(kgmod, "_driver_cc_and_names", _boom)
    got = kg_growth(
        ray.data.from_arrow(pages_tbl), KGConfig(cc_mode="distributed")
    ).to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


def test_dedup_pages_by_url(ray_session):
    """Recrawled urls: only the latest crawl survives."""
    import datetime as dt

    import pyarrow as pa
    import ray

    from renard_ray.pipelines.kg import dedup_pages_by_url

    rows = []
    for i in range(10):
        rows.append(
            {
                "url": f"https://x.test/{i}",
                "warc_ts": dt.datetime(2025, 1, 1, 0, 0, i),
                "html": b"",
                "text": f"old {i}",
                "lang": "eng",
            }
        )
    # recrawl of url 3 with newer ts
    rows.append(
        {
            "url": "https://x.test/3",
            "warc_ts": dt.datetime(2025, 6, 1),
            "html": b"",
            "text": "new 3",
            "lang": "eng",
        }
    )
    # ts TIE at the max for url 7 (same crawl landed twice)
    rows.append(
        {
            "url": "https://x.test/7",
            "warc_ts": dt.datetime(2025, 1, 1, 0, 0, 7),
            "html": b"",
            "text": "old 7",
            "lang": "eng",
        }
    )
    # NULL-ts recrawl of url 5: a real timestamp must always win
    rows.append(
        {
            "url": "https://x.test/5",
            "warc_ts": None,
            "html": b"",
            "text": "null-ts 5",
            "lang": "eng",
        }
    )
    ds = ray.data.from_items(rows)
    out = dedup_pages_by_url(ds).to_pandas()
    assert len(out) == 10
    assert out[out.url == "https://x.test/3"].text.iloc[0] == "new 3"
    assert len(out[out.url == "https://x.test/7"]) == 1
    assert out[out.url == "https://x.test/5"].text.iloc[0] == "old 5"

    # huge-dup-set fallback (forced with broadcast_limit=0): same result,
    # including never preferring a NULL-ts row over a real crawl time
    out2 = (
        dedup_pages_by_url(ray.data.from_items(rows), broadcast_limit=0)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(out2) == 10
    assert out2[out2.url == "https://x.test/3"].text.iloc[0] == "new 3"
    assert out2[out2.url == "https://x.test/5"].text.iloc[0] == "old 5"


def test_canonical_tiebreak_parity_driver_vs_distributed(ray_session):
    """On a name-count TIE the distributed display-name pick (encoded-key
    Min aggregate) must choose the same canonical name as the driver
    union-find path: count desc, then name LENGTH desc, then lex asc."""
    import ray

    from renard_ray.pipelines.kg import KGConfig, relabel_and_aggregate

    def stage_rows():
        rows = []

        def add(subj, pred, obj, w):
            rows.append(
                {
                    "subj": subj, "pred": pred, "obj": obj,
                    "weight": float(w), "polarity": 0.0, "block_id": 0,
                }
            )

        # alias cluster with a COUNT TIE: short vs long name, both 3
        add("Darcy", "alias_of", "doc1#c0", 1)
        add("Mr. Fitzwilliam Darcy", "alias_of", "doc1#c0", 1)
        add("Darcy", "name_count", "", 3)
        add("Mr. Fitzwilliam Darcy", "name_count", "", 3)
        add("Bingley", "name_count", "", 1)
        add("Darcy", "co_occurs_with", "Bingley", 2)
        return ray.data.from_items(rows)

    out = {}
    for mode in ("driver", "distributed"):
        trip = relabel_and_aggregate(
            stage_rows(), KGConfig(cc_mode=mode)
        ).to_pandas()
        out[mode] = {
            (r.subj, r.pred, r.obj, float(r.weight)) for r in trip.itertuples()
        }
    # length-desc tie-break: the LONG name is canonical in both paths
    assert out["driver"] == {
        ("Bingley", "co_occurs_with", "Mr. Fitzwilliam Darcy", 2.0)
    }
    assert out["distributed"] == out["driver"]


def test_cumulative_final_streamed_matches_oracle(ray_session):
    """The streamed final-cumulative-snapshot query (filter + one
    groupby sum) must equal the last frame of the pandas
    ``cumulative_blocks`` oracle on a dynamic KG build."""
    import pandas as pd

    import __ray_entry__ as entry
    from renard_ray.sinks.gexf import cumulative_blocks

    sf_dir = "/root/testdata/sf0.001"
    import os

    if not os.path.isdir(sf_dir):
        pytest.skip("testdata not present")
    q = entry.queries()
    dyn = q["kg_triples_dynamic"](sf_dir).to_pandas()
    blocks = cumulative_blocks(dyn)
    want = blocks[-1].sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    got = q["kg_cumulative_final"](sf_dir).to_pandas().reset_index(drop=True)
    got = got[want.columns.tolist()]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_kg_growth_planted_months(ray_session):
    """Temporal growth: first-seen entity/edge counts per crawl month
    on a planted two-month corpus (month 2 re-observes one edge — it
    must not count again)."""
    import datetime

    import ray

    from renard_ray.pipelines.kg import kg_growth

    def page(url, ym, text):
        y, m = divmod(ym, 100)
        return {
            "url": url,
            "warc_ts": datetime.datetime(y, m, 15),
            "text": text,
            "lang": "eng",
        }

    pages_tbl = pa.Table.from_pylist(
        [
            page(
                "https://a.example/1",
                202401,
                "Yesterday Alice Smith met Bob Jones in town. "
                "Later Alice Smith smiled at Bob Jones.",
            ),
            # month 2 re-observes the existing pair -> nothing new
            page(
                "https://a.example/2",
                202402,
                "Today Bob Jones met Alice Smith again.",
            ),
            # ... and introduces one new entity + one new edge
            page(
                "https://a.example/3",
                202402,
                "Then Carol White met Bob Jones at noon.",
            ),
        ]
    )
    got = kg_growth(ray.data.from_arrow(pages_tbl)).to_pandas()
    assert [tuple(r) for r in got.values.tolist()] == [
        (202401, 2, 1),
        (202402, 1, 1),
    ]


def test_snapshot_diff_matches_pandas_merge(ray_session):
    """snapshot_diff vs a pandas outer-merge oracle on hand-planted
    triple tables: all four statuses, exact centi-weight deltas, and
    the one-sided degenerate cases."""
    import pandas as pd
    import pyarrow as pa

    import ray
    from renard_ray.pipelines.kg import snapshot_diff

    def triples(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj": pa.array([r[0] for r in rows], pa.string()),
                    "pred": pa.array(["co_occurs_with"] * len(rows), pa.string()),
                    "obj": pa.array([r[1] for r in rows], pa.string()),
                    "weight": pa.array([r[2] for r in rows], pa.float64()),
                }
            )
        )

    # old: ab=1.0, ac=2.5, ad=0.5 (split over two rows: groupby must
    # re-aggregate); new: ab=1.0 (unchanged), ac=3.0 (changed),
    # ae=4.0 (added); ad removed
    old = triples([("a", "b", 1.0), ("a", "c", 2.5), ("a", "d", 0.25),
                   ("a", "d", 0.25)])
    new = triples([("a", "b", 1.0), ("a", "c", 3.0), ("a", "e", 4.0)])
    df = snapshot_diff(old, new).to_pandas()
    got = {
        (r.subj, r.obj): (r.status, int(r.w_old_c), int(r.w_new_c), int(r.delta_c))
        for r in df.itertuples()
    }
    assert got == {
        ("a", "b"): ("unchanged", 100, 100, 0),
        ("a", "c"): ("changed", 250, 300, 50),
        ("a", "d"): ("removed", 50, 0, -50),
        ("a", "e"): ("added", 0, 400, 400),
    }

    # independent oracle: pandas outer merge over the same recipe
    def pdf(rows):
        d = pd.DataFrame(rows, columns=["subj", "obj", "w"])
        d["w_c"] = (d.w * 100).round().astype("int64")
        return d.groupby(["subj", "obj"], as_index=False).w_c.sum()

    m = pdf([("a", "b", 1.0), ("a", "c", 2.5), ("a", "d", 0.25), ("a", "d", 0.25)]).merge(
        pdf([("a", "b", 1.0), ("a", "c", 3.0), ("a", "e", 4.0)]),
        on=["subj", "obj"], how="outer", suffixes=("_o", "_n"),
    )
    for r in m.itertuples():
        wo = 0 if pd.isna(r.w_c_o) else int(r.w_c_o)
        wn = 0 if pd.isna(r.w_c_n) else int(r.w_c_n)
        st = ("added" if pd.isna(r.w_c_o) else
              "removed" if pd.isna(r.w_c_n) else
              "unchanged" if wo == wn else "changed")
        assert got[(r.subj, r.obj)] == (st, wo, wn, wn - wo)

    # degenerate: empty old -> everything added; empty new -> removed
    empty = triples([])
    all_added = snapshot_diff(empty, new).to_pandas()
    assert set(all_added.status) == {"added"} and len(all_added) == 3
    all_removed = snapshot_diff(old, empty).to_pandas()
    assert set(all_removed.status) == {"removed"} and len(all_removed) == 3
    none = snapshot_diff(empty, empty).to_pandas()
    assert len(none) == 0
