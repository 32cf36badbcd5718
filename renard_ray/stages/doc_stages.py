"""Ray Data stages of the KG-construction pipeline (per-document part).

Design (SURVEY.md §7):
- ``extract_text_batch`` — stateless ``map_batches`` fn: html -> text,
  enforcing the per-row invariant that our extraction is byte-identical
  to the stored ``text`` column (``BASELINE.json input_hint``); counts
  mismatches instead of failing, drops ``html`` immediately so the big
  binary column never travels further down the pipeline.
- ``doc_kernel_batch`` — the fused per-document NLP chain (tokenize ->
  NER -> coref -> unify -> edge extraction) as a plain ``map_batches``
  task function: one Arrow batch of pages in, exploded edge/alias rows
  out.  Lexicons and gazetteers are module-level singletons, built once
  per worker process (the reference loads its models once per run in
  ``_pipeline_init_``, ``renard/pipeline/core.py:608-625``).

Fusing the whole per-doc chain into ONE stage is deliberate: the
intermediate per-doc state (tokens, entities, chains) is large and
row-local; materializing it between stages would move tens of TB
through the object store for nothing.  Per-document state remains
inspectable through ``doc_state_batch`` (the PipelineState-as-a-table
debug surface).
"""

from __future__ import annotations

import pyarrow as pa

from renard_ray.textproc.document import METRIC, DocConfig, emit_rows, process_document
from renard_ray.textproc.html import extract_text

# straggler guard: the kernel cuts a page's text to this many characters
MAX_TEXT_LEN = 2_000_000

EDGES_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("weight", pa.float64()),
        ("polarity", pa.float64()),
        ("block_id", pa.int32()),
        ("url", pa.string()),
    ]
)


def extract_text_batch(batch: pa.Table, langs: tuple[str, ...] | None = None) -> pa.Table:
    """html -> text with the byte-identical invariant check.

    Emits columns: url, warc_ts, text, lang, text_ok (bool).  The
    stored ``text`` is authoritative (the invariant says they must be
    equal; on mismatch we keep the stored text and flag the row).
    ``langs`` folds the language filter into this pass (a standalone
    Filter operator costs a full extra scan).
    """
    if langs:
        import pyarrow.compute as pc

        batch = batch.filter(
            pc.is_in(batch.column("lang"), value_set=pa.array(list(langs)))
        )
    html_col = batch.column("html").to_pylist()
    text_col = batch.column("text").to_pylist()
    ok = []
    for h, t in zip(html_col, text_col):
        extracted = extract_text(h) if h is not None else ""
        ok.append(extracted == (t or ""))
    cols = {
        "url": batch.column("url"),
        "warc_ts": batch.column("warc_ts"),
        "text": batch.column("text"),
        "lang": batch.column("lang"),
        "text_ok": pa.array(ok, pa.bool_()),
    }
    return pa.table(cols)


def batch_langs(batch: pa.Table) -> list[str]:
    """Each row's ``lang``, ``eng`` where the batch has no ``lang``
    column or the value is null or empty."""
    if "lang" not in batch.column_names:
        return ["eng"] * batch.num_rows
    return [lang or "eng" for lang in batch.column("lang").to_pylist()]


def edges_table(cols: dict[str, list]) -> pa.Table:
    """Stage-row columns (one list per ``EDGES_SCHEMA`` field) -> table."""
    return pa.Table.from_pydict(cols, schema=EDGES_SCHEMA)


def doc_kernel_batch(batch: pa.Table, cfg: DocConfig) -> pa.Table:
    """The fused per-document kernel: one Arrow batch of pages in,
    exploded edge/alias/name-count rows plus per-batch ``METRIC`` rows
    out.  Runs as plain ``map_batches`` tasks: the only per-worker state
    (lexicons, gazetteer) is module-level singletons loaded once per
    worker process.

    Reference analog: the whole preconfigured step chain
    (``renard/pipeline/preconfigured.py:6-47``) run per document.
    """
    out: dict[str, list] = {name: [] for name in EDGES_SCHEMA.names}
    urls = batch.column("url").to_pylist()
    texts = batch.column("text").to_pylist()
    n_truncated = 0
    for url, text, lang in zip(urls, texts, batch_langs(batch)):
        if not text:
            continue
        # straggler guard: cap giant documents (counted, not dropped)
        if len(text) > MAX_TEXT_LEN:
            n_truncated += 1
            text = text[:MAX_TEXT_LEN]
        res = process_document(text, cfg, lang)
        rows = emit_rows(res, url, include_url=cfg.emit_url)
        for k in out:
            out[k].extend(rows[k])

    # per-batch metric rows (aggregated by the checkpoint runner /
    # dropped before the triple aggregate): per-row text invariant
    # violations (BASELINE per-row invariant) + truncation count
    metrics = {"docs": float(len(urls)), "truncated": float(n_truncated)}
    if "text_ok" in batch.column_names:
        import pyarrow.compute as pc

        n_bad = batch.num_rows - (pc.sum(pc.cast(batch.column("text_ok"), pa.int8())).as_py() or 0)
        metrics["text_mismatch"] = float(n_bad)
    for name, val in metrics.items():
        out["subj"].append(name)
        out["pred"].append(METRIC)
        out["obj"].append("")
        out["weight"].append(val)
        out["polarity"].append(0.0)
        out["block_id"].append(-1)
        out["url"].append("")
    t = edges_table(out)
    if not cfg.emit_url and t.num_rows:
        # cross-document combine within the batch: hub entities
        # repeat the same (subj, pred, obj) across most documents,
        # so this collapses the stage output (and every downstream
        # pass and shuffle) several-fold.  Summing is correct for
        # every row kind: edge weights, name counts, alias
        # multiplicity and metric counters are all additive.
        g = t.group_by(["subj", "pred", "obj", "block_id", "url"]).aggregate(
            [("weight", "sum"), ("polarity", "sum")]
        )
        # select by NAME before the positional rename — robust to
        # pyarrow changing the key/aggregate output column order
        g = g.select(
            ["subj", "pred", "obj", "block_id", "url", "weight_sum", "polarity_sum"]
        )
        t = g.rename_columns(
            ["subj", "pred", "obj", "block_id", "url", "weight", "polarity"]
        )
    return t


def doc_state_batch(batch: pa.Table, cfg: DocConfig | None = None) -> pa.Table:
    """Per-document NLP state as a TABLE row (the reference's
    ``PipelineState``, ``renard/pipeline/core.py:154-201``, re-expressed
    columnar): one row per document with counts + the unified character
    list (names, gender, mention count) as a nested column.  Debug /
    inspection surface; the production path emits edges directly."""
    cfg = cfg or DocConfig()
    urls = batch.column("url").to_pylist()
    texts = batch.column("text").to_pylist()
    out = {
        "url": [], "n_tokens": [], "n_sentences": [], "n_entities": [],
        "n_corefs": [], "n_quotes": [], "n_characters": [], "characters": [],
    }
    for url, text, lang in zip(urls, texts, batch_langs(batch)):
        if not text:
            continue
        res = process_document(text[:MAX_TEXT_LEN], cfg, lang)
        out["url"].append(url)
        out["n_tokens"].append(res.tok.n_tokens())
        out["n_sentences"].append(len(res.tok.sent_bounds))
        out["n_entities"].append(len(res.entities))
        out["n_corefs"].append(len(res.corefs))
        out["n_quotes"].append(len(res.quotes))
        out["n_characters"].append(len(res.characters))
        out["characters"].append(
            [
                {
                    "names": sorted(c.names),
                    "gender": int(c.gender),
                    "n_mentions": len(c.mentions),
                }
                for c in res.characters
            ]
        )
    char_type = pa.list_(
        pa.struct(
            [
                ("names", pa.list_(pa.string())),
                ("gender", pa.int8()),
                ("n_mentions", pa.int32()),
            ]
        )
    )
    return pa.table(
        {
            "url": pa.array(out["url"], pa.string()),
            "n_tokens": pa.array(out["n_tokens"], pa.int32()),
            "n_sentences": pa.array(out["n_sentences"], pa.int32()),
            "n_entities": pa.array(out["n_entities"], pa.int32()),
            "n_corefs": pa.array(out["n_corefs"], pa.int32()),
            "n_quotes": pa.array(out["n_quotes"], pa.int32()),
            "n_characters": pa.array(out["n_characters"], pa.int32()),
            "characters": pa.array(out["characters"], char_type),
        }
    )
