"""Tests: stage protocol validation, preprocessing, CoNLL source,
GEXF sinks, preconfigured presets."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest


def test_check_valid_needs_and_warnings():
    from renard_ray.stages.core import (
        PipelineValidationError,
        Stage,
        check_valid,
    )

    ident = lambda b: b  # noqa: E731
    s1 = Stage("extract", ident, needs=frozenset({"html"}),
               produces=frozenset({"text"}), removes=frozenset({"html"}))
    s2 = Stage("tokenize", ident, needs=frozenset({"text"}),
               optional_needs=frozenset({"lang"}),
               produces=frozenset({"tokens"}))
    warnings = check_valid([s1, s2], ["url", "html"])
    assert warnings and "lang" in warnings[0]

    with pytest.raises(PipelineValidationError):
        check_valid([s2, s1], ["url", "html"])  # tokenize before text exists

    # removes are honored: html is gone after s1
    with pytest.raises(PipelineValidationError):
        check_valid([s1, s1], ["url", "html"])


def test_run_stages_executes(ray_session):
    import ray

    from renard_ray.stages.core import Stage, run_stages

    def up(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column("upper", pc.utf8_upper(batch.column("text")))

    ds = ray.data.from_items([{"text": "ab"}, {"text": "cd"}])
    out = run_stages(
        ds,
        [Stage("up", up, needs=frozenset({"text"}), produces=frozenset({"upper"}))],
    )
    assert sorted(r["upper"] for r in out.take_all()) == ["AB", "CD"]


def test_substitution_preprocessor(ray_session):
    import ray

    from renard_ray.textproc.preprocess import substitution_batch

    subs = (("Mr\\.", "Mister"), ("\\s+", " "))
    ds = ray.data.from_items([{"text": "Mr.  Darcy\n spoke"}]).map_batches(
        substitution_batch, fn_kwargs={"substitutions": subs},
        batch_format="pyarrow",
    )
    assert ds.take_all()[0]["text"] == "Mister Darcy spoke"


def test_conll_roundtrip(ray_session, tmp_path):
    from renard_ray.sources.conll import parse_conll2002_bio, read_conll2002_bio

    content = "John B-PER\nSmith I-PER\nmet O\nMary B-PER\n\nShe O\nleft O\n"
    doc = parse_conll2002_bio(content)
    assert doc.tokens == ["John", "Smith", "met", "Mary", "She", "left"]
    assert len(doc.sentences) == 2
    assert [(e.start, e.end, e.tag) for e in doc.entities] == [
        (0, 2, "PER"), (3, 4, "PER"),
    ]

    f = tmp_path / "x.bio"
    f.write_text(content)
    ds = read_conll2002_bio(str(f))
    rows = ds.take_all()
    assert len(rows) == 2
    assert list(rows[0]["tokens"]) == ["John", "Smith", "met", "Mary"]
    assert rows[0]["entities"][0]["tag"] == "PER"

    # multi-file dir, one file with NO trailing blank line: files must
    # parse independently (no cross-file sentence merge) with per-file
    # sent_id
    d = tmp_path / "multi"
    d.mkdir()
    (d / "a.bio").write_text("John B-PER\nran O")  # no trailing newline
    (d / "b.bio").write_text("Mary B-PER\nsat O\n")
    rows = sorted(
        read_conll2002_bio(str(d)).take_all(), key=lambda r: r["path"]
    )
    assert len(rows) == 2
    assert list(rows[0]["tokens"]) == ["John", "ran"]
    assert list(rows[1]["tokens"]) == ["Mary", "sat"]
    assert rows[0]["sent_id"] == 0 and rows[1]["sent_id"] == 0


def test_gexf_sinks(tmp_path):
    from renard_ray.sinks.gexf import (
        cumulative_blocks,
        triples_to_nx,
        write_dynamic_gexf,
        write_gexf,
    )

    triples = pd.DataFrame(
        [
            {"subj": "A", "pred": "co_occurs_with", "obj": "B", "block_id": 0, "weight": 2.0, "polarity": 0.0},
            {"subj": "A", "pred": "co_occurs_with", "obj": "B", "block_id": 1, "weight": 3.0, "polarity": 0.0},
            {"subj": "B", "pred": "co_occurs_with", "obj": "C", "block_id": 1, "weight": 1.0, "polarity": 0.0},
        ]
    )
    blocks = cumulative_blocks(triples)
    assert len(blocks) == 2
    b1 = blocks[1]
    ab = b1[(b1.subj == "A") & (b1.obj == "B")].weight.iloc[0]
    assert ab == 5.0  # cumulative: 2 + 3

    G = triples_to_nx(triples.assign(block_id=-1))
    assert G.has_edge("A", "B")

    write_gexf(triples.assign(block_id=-1), str(tmp_path / "g.gexf"))
    write_dynamic_gexf(triples, str(tmp_path / "d.gexf"))
    assert (tmp_path / "g.gexf").read_text().startswith("<?xml")
    assert "dweight" in (tmp_path / "d.gexf").read_text()


def test_presets_run(ray_session):
    import ray

    from renard_ray.pipelines.kg import build_kg
    from renard_ray.pipelines.preconfigured import PRESETS
    from renard_ray.sources.pages import generate_pages_table

    pages = ray.data.from_arrow(generate_pages_table(15, seed=2))
    for name, make in PRESETS.items():
        n = build_kg(pages, make()).count()
        assert n >= 0, name


import pytest as _pytest


@_pytest.mark.parametrize(
    "doc_kwargs",
    [
        {},
        {
            "with_sentiment": True,
            "with_conversations": True,
            "with_quote_mentions": True,
            "with_relations": True,
        },
        {"unifier": "naive", "with_corefs": False},
        {"dynamic_window": 8, "dynamic_overlap": 2},
        {"with_corefs": False},
        {"dynamic_blocks_unit": "paragraphs", "with_relations": True},
    ],
    ids=["default", "full", "naive", "dynamic", "no-corefs", "paragraphs-relations"],
)
def test_granular_pipeline_matches_fused(ray_session, doc_kwargs):
    """The composable per-step chain (explicit Arrow columns between
    stages) produces the same canonical triples as the fused kernel —
    for EVERY DocConfig, not just the default (the chain threads cfg
    through coref/unify/edges and shares build_edge_blocks)."""
    import ray

    from renard_ray.pipelines.kg import KGConfig, build_kg, relabel_and_aggregate
    from renard_ray.sources.pages import generate_pages_table
    from renard_ray.stages.granular import granular_stage_rows
    from renard_ray.textproc.document import DocConfig

    pages_tbl = generate_pages_table(25, seed=17)
    doc_cfg = DocConfig(**doc_kwargs)

    fused = build_kg(ray.data.from_arrow(pages_tbl), KGConfig(doc=doc_cfg)).to_pandas()
    rows = granular_stage_rows(ray.data.from_arrow(pages_tbl), doc_cfg).materialize()
    granular = relabel_and_aggregate(rows, KGConfig(doc=doc_cfg)).to_pandas()

    f = {
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in fused.itertuples()
    }
    g = {
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in granular.itertuples()
    }
    assert f == g


def test_granular_stage_rows_carry_url(ray_session):
    """Under ``DocConfig(emit_url=True)`` the granular chain's stage
    rows equal the fused kernel's, url included (the fused kernel's
    per-batch METRIC rows aside).  Triples carry no url, so the
    triple-level parity test above cannot see this column."""
    import ray

    from renard_ray.pipelines.kg import KGConfig, pages_to_stage_rows
    from renard_ray.sources.pages import generate_pages_table
    from renard_ray.stages.granular import granular_stage_rows
    from renard_ray.textproc.document import METRIC, DocConfig

    pages_tbl = generate_pages_table(12, seed=29)
    doc_cfg = DocConfig(emit_url=True)
    fused = pages_to_stage_rows(
        ray.data.from_arrow(pages_tbl), KGConfig(doc=doc_cfg)
    ).to_pandas()
    granular = granular_stage_rows(ray.data.from_arrow(pages_tbl), doc_cfg).to_pandas()
    cols = ["subj", "pred", "obj", "block_id", "weight", "polarity", "url"]

    def rows(df):
        df = df[df["pred"] != METRIC][cols]
        return sorted(map(tuple, df.itertuples(index=False)))

    want = rows(fused)
    assert len(want) > 0
    assert len({r[-1] for r in want}) > 1
    assert rows(granular) == want


def test_ntriples_sink_roundtrip(ray_session, tmp_path):
    """N-Triples export: IRIs percent-encode unsafe names, weights
    reify under deterministic statement IRIs, shards are
    content-addressed (idempotent re-runs) and concatenate into a
    parseable .nt file."""
    import re
    import urllib.parse

    import pyarrow as pa

    import ray as _ray

    from renard_ray.sinks.ntriples import write_ntriples

    # duplicate (s,p,o) rows (the dynamic-block shape) must aggregate
    # to ONE weight statement; exponent-repr weights must serialize
    # fixed-point
    trip = _ray.data.from_arrow(
        pa.table(
            {
                "subj": ["Mr Darcy", 'Eliza "Lizzy" Bennet', "A&B",
                         "Mr Darcy"],
                "pred": ["co_occurs_with"] * 4,
                "obj": ["Jane", "Mr Darcy", "Jane", "Jane"],
                "weight": pa.array([3.0, 2.0, 0.00001, 2.0], pa.float64()),
            }
        )
    ).repartition(2)
    out = tmp_path / "nt"
    manifest = write_ntriples(trip, str(out))
    # 3 aggregated edges x 6 lines (edge + 4 reification + weight)
    assert sum(r["n_lines"] for r in manifest) == 18

    text = ""
    for f in sorted(out.iterdir()):
        assert re.fullmatch(r"part-[0-9a-f]{32}\.nt", f.name)
        text += f.read_text()
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == 18
    edge_re = re.compile(r"^<(\S+)> <(\S+)> <(\S+)> \.$")
    w_re = re.compile(
        r'^<(\S+)> <(\S+)> "([^"]+)"'
        r"\^\^<http://www\.w3\.org/2001/XMLSchema#decimal> \.$"
    )
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    edges = set()
    stmt_subj, stmt_obj, weights = {}, {}, {}
    for l in lines:
        m = w_re.match(l)
        if m:
            weights[m.group(1)] = m.group(3)
            continue
        m = edge_re.match(l)
        assert m, l
        if "/statement/" in m.group(1):
            if m.group(2) == rdf + "subject":
                stmt_subj[m.group(1)] = urllib.parse.unquote(
                    m.group(3).split("/entity/")[1]
                )
            elif m.group(2) == rdf + "object":
                stmt_obj[m.group(1)] = urllib.parse.unquote(
                    m.group(3).split("/entity/")[1]
                )
        else:
            s = urllib.parse.unquote(m.group(1).split("/entity/")[1])
            o = urllib.parse.unquote(m.group(3).split("/entity/")[1])
            p = urllib.parse.unquote(m.group(2).split("/rel/")[1])
            edges.add((s, p, o))
    assert edges == {
        ("Mr Darcy", "co_occurs_with", "Jane"),
        ('Eliza "Lizzy" Bennet', "co_occurs_with", "Mr Darcy"),
        ("A&B", "co_occurs_with", "Jane"),
    }
    # weights joinable through the STANDARD reification, duplicates
    # summed (3.0 + 2.0), exponent value fixed-point
    by_edge = {
        (stmt_subj[k], stmt_obj[k]): v for k, v in weights.items()
    }
    assert by_edge[("Mr Darcy", "Jane")] == "5"
    assert by_edge[("A&B", "Jane")] == "0.00001"
    assert by_edge[('Eliza "Lizzy" Bennet', "Mr Darcy")] == "2"

    # idempotent rewrite: same shards, no leftovers
    names1 = sorted(f.name for f in out.iterdir())
    write_ntriples(trip, str(out))
    assert sorted(f.name for f in out.iterdir()) == names1
