"""End-to-end KG-construction pipeline (the flagship, SURVEY.md §3.4).

read pages Parquet -> filter(lang) -> extract/verify text -> fused
per-doc NLP kernel (``map_batches`` tasks) -> exploded edge/alias rows ->
cross-document alias canonicalization (connected components over alias
links + global most-frequent-name selection) -> relabel triples ->
global ``groupby([subj,pred,obj]).sum(weight)`` -> partitioned Parquet
edge list.

The kernel's materialize is the only Ray Data execution of a build on
the driver canonicalization path: the alias summary, the relabel and
the sink are plain Ray tasks over the materialized blocks'
``to_arrow_refs()``, and the aggregate is ``ops.hashagg``'s task
exchange over the relabel tasks' outputs (the mechanism of
``ops.kmeans``).  A Ray Data execution costs 0.10-0.17 CPU s of fixed
overhead, a Ray task about 0.006 s (2 logical CPUs on a 1-vCPU host).

Reference parity: per-document semantics are exactly
``renard_ray.textproc.document.process_document`` (shared with the
golden oracle); canonicalization is the cross-document extension the
north rule requires — it only *relabels* node keys, so per-document
triple structure is preserved by construction (SURVEY.md §7.4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_join

from renard_ray.stages.doc_stages import EDGES_SCHEMA, doc_kernel_batch, extract_text_batch
from renard_ray.textproc.document import ALIAS_OF, METRIC, NAME_COUNT, DocConfig
from renard_ray.pipelines.cc import connected_components, union_find

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto

# predicates whose edges are undirected (normalize subj<=obj after relabel)
UNDIRECTED_PREDS = ("co_occurs_with", "talks_with")


def _partial_agg(t: pa.Table) -> pa.Table:
    """Map-side combine before the global triple shuffle: aggregate
    (subj, pred, obj, block_id) within the batch.  Cross-document
    duplication is huge (hub entities), so this collapses the shuffle
    input from O(doc-pairs) rows to near the distinct-triple count."""
    if t.num_rows == 0:
        # same column order as the grouped output: blocks of one
        # Dataset must agree on their schema
        return t.select(["subj", "pred", "obj", "block_id", "weight", "polarity"])
    g = t.group_by(["subj", "pred", "obj", "block_id"]).aggregate(
        [("weight", "sum"), ("polarity", "sum")]
    )
    # select by NAME, then rename on the selected order — robust to
    # pyarrow changing the key/aggregate column output order
    g = g.select(["subj", "pred", "obj", "block_id", "weight_sum", "polarity_sum"])
    return g.rename_columns(["subj", "pred", "obj", "block_id", "weight", "polarity"])


@dataclass
class KGConfig:
    doc: DocConfig = field(default_factory=DocConfig)
    langs: tuple[str, ...] = ("eng",)
    kernel_batch_size: int = 256
    cc_mode: str = "auto"  # driver | distributed | auto
    broadcast_limit: int = 2_000_000  # max distinct names for broadcast path


def read_pages(path: str, columns: list[str] | None = None) -> Dataset:
    from renard_ray.ops.relational import read_table

    cols = columns or ["url", "warc_ts", "html", "text", "lang"]
    try:
        return read_table(path, cols)
    except KeyError:
        # the file lacks some requested column; let the read resolve
        return ray.data.read_parquet(path, columns=cols)


_TS_OFFSET = 1 << 62  # keeps encoded timestamps non-negative (NULL -> 0)


def _row_digest(h, t, l) -> str:
    """md5 over (html, text, lang) for ONE row — the single digest
    recipe shared by the broadcast path and the join fallback, so both
    sides of the ``broadcast_limit`` boundary pick the same winner."""
    import hashlib

    return hashlib.md5(
        (h or b"") + b"\x00" + (t or "").encode() + b"\x00" + (l or "").encode()
    ).hexdigest()


def _content_digests_pd(df) -> list[str]:
    """Per-row digests — the deterministic tie-break for
    equal-max-timestamp recrawls.  Byte-identical rows (the only digest
    collisions that matter) are interchangeable."""
    html = df["html"] if "html" in df.columns else [b""] * len(df)
    text = df["text"] if "text" in df.columns else [""] * len(df)
    lang = df["lang"] if "lang" in df.columns else [""] * len(df)
    return [_row_digest(h, t, l) for h, t, l in zip(html, text, lang)]


def _row_keys(batch: pa.Table) -> list[str]:
    """Sortable per-row winner key: zero-padded encoded warc_ts + '|' +
    content digest.  NULL ts encodes as all-zeros, so a real crawl time
    always wins; digest breaks exact-ts ties deterministically."""
    names = batch.column_names
    ts = (
        pc.cast(batch.column("warc_ts"), pa.int64()).to_pylist()
        if "warc_ts" in names
        else [None] * batch.num_rows
    )
    html = batch.column("html").to_pylist() if "html" in names else [b""] * batch.num_rows
    text = batch.column("text").to_pylist() if "text" in names else [""] * batch.num_rows
    lang = batch.column("lang").to_pylist() if "lang" in names else [""] * batch.num_rows
    out = []
    for ti, h, t, l in zip(ts, html, text, lang):
        d = _row_digest(h, t, l)
        out.append(f"{(ti + _TS_OFFSET) if ti is not None else 0:020d}|{d}")
    return out


def _pick_one(group):
    """One winner row of a url group: the latest ``warc_ts``, ties
    broken on a content digest (shuffle order is not stable) — the same
    rule as the join path's winner key, so both paths agree.
    ``na_position='first'`` so a NULL warc_ts never beats a real
    timestamp (matches the broadcast path, which drops null-ts rows
    whenever the url has any real crawl time)."""
    g = group.copy()
    g["_d"] = _content_digests_pd(g)
    g = g.sort_values(["warc_ts", "_d"], kind="stable", na_position="first")
    return g.tail(1).drop(columns=["_d"])


def _resolve_url_ties(masked: Dataset, ties: set[str]) -> Dataset:
    """Keep one row per url in ``ties`` (urls that still have several
    rows after masking) with a per-group ``_pick_one`` over those rows
    only; every other row passes through."""
    if not ties:
        return masked
    tie_ref = ray.put(pa.array(sorted(ties), pa.string()))

    def split(batch: pa.Table, keep_tie: bool) -> pa.Table:
        tk = ray.get(tie_ref)
        hit = pc.is_valid(
            pc.index_in(batch.column("url").combine_chunks(), value_set=tk)
        )
        return batch.filter(hit if keep_tie else pc.invert(hit))

    clean = masked.map_batches(
        split, fn_kwargs={"keep_tie": False}, batch_format="pyarrow"
    )
    resolved = (
        masked.map_batches(split, fn_kwargs={"keep_tie": True}, batch_format="pyarrow")
        .groupby("url")
        .map_groups(_pick_one, batch_format="pandas")
    )
    return clean.union(resolved)


def _dedup_urls_by_join(pages: Dataset) -> Dataset:
    """Shuffle fallback for dup-url sets too large to broadcast.

    The digest pass (md5 over each page's full payload) is the dominant
    CPU cost, so pages are tagged ONCE and materialized (spillable);
    the winner table (url -> max (ts, digest) key) derives from the
    tagged key columns, then ONE hash join moves the pages through the
    exchange to be masked.  Residual ties (same url, ts AND digest) are
    byte-identical rows; they are detected with a key-column count and
    resolved per-group on that subset only."""

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("wk", pa.array(_row_keys(batch), pa.string()))

    tagged = pages.map_batches(tag, batch_format="pyarrow").materialize()

    def combine_keys(batch: pa.Table) -> pa.Table:
        # map-side combine before the key shuffle
        if batch.num_rows:
            return (
                batch.group_by(["url"])
                .aggregate([("wk", "max")])
                .rename_columns(["url", "w_max"])
            )
        return pa.table({"url": batch.column("url"), "w_max": batch.column("wk")})

    winners = (
        _hagg_auto(tagged.select_columns(["url", "wk"])
        .map_batches(combine_keys, batch_format="pyarrow"), "url", [('w_max', 'max', 'max(w_max)')])
        .map_batches(
            lambda b: pa.table(
                {"url": b.column("url"), "w_max": b.column("max(w_max)")}
            ),
            batch_format="pyarrow",
        )
    )

    cols = [c for c in pages.schema().names]
    joined = hash_join(tagged, winners, "url")

    def keep_winner(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("wk"), batch.column("w_max"))
        return batch.filter(keep).select(cols)

    masked = joined.map_batches(keep_winner, batch_format="pyarrow").materialize()

    # byte-identical residual ties: key-column count, tiny by nature
    ties = {
        r["url"]
        for r in _hagg_auto(masked.select_columns(["url"]), "url", [('', 'count_all', 'n')])
        .filter(expr="n > 1")
        .take_all()
    }
    return _resolve_url_ties(masked, ties)


def dedup_pages_by_url(pages: Dataset, broadcast_limit: int = 2_000_000) -> Dataset:
    """Keep the LATEST crawl per url (Common-Crawl reality: recrawled
    urls appear multiple times).

    Streaming plan — the heavy page payloads (html/text) NEVER go
    through a shuffle:

    1. one key-column pass (url, warc_ts only — parquet projection
       pushdown makes this a fraction of the bytes):
       ``groupby(url)`` -> per-url max ts + row count; the dup-url
       table keeps only urls with n > 1.
    2. if the dup table fits ``broadcast_limit``: broadcast it as
       sorted parallel arrays, then ONE full-data pass applies a
       vectorized ``index_in``/``take`` mask — a row survives iff its
       url is not duplicated or its ts equals the url's max.
    3. exact-one-per-url guarantee: ts TIES at the max (same url
       crawled twice with the same timestamp) are detected with another
       key-column pass over the masked rows; only those (vanishingly
       rare) urls go through a per-group pick.  No silent multi-keeps.

    Past ``broadcast_limit`` distinct dup urls, falls back to a
    key-only winner computation + ONE hash join: every row gets a
    sortable (warc_ts, content-digest) key, ``groupby(url).max(key)``
    over the key columns picks the winner, and the pages move once
    through the join exchange to be masked against it.  No per-url
    ``map_groups`` — residual ties after the digest are byte-identical
    rows and resolved on that (vanishingly rare) subset only.
    """
    stats = (
        _hagg_auto(pages.select_columns(["url", "warc_ts"]), "url", [('warc_ts', 'max', 'keep_ts'), ('', 'count_all', 'n')])
        .filter(expr="n > 1")
        .materialize()
    )
    n_dup = stats.count()
    if n_dup == 0:
        return pages
    if n_dup > broadcast_limit:
        return _dedup_urls_by_join(pages)

    dup_urls: list[str] = []
    keep_ts: list = []
    ts_type = pa.timestamp("us")
    for b in stats.iter_batches(batch_format="pyarrow", batch_size=None):
        dup_urls += b.column("url").to_pylist()
        keep_ts += b.column("keep_ts").to_pylist()
        ts_type = b.schema.field("keep_ts").type
    order = sorted(range(len(dup_urls)), key=lambda i: dup_urls[i])
    keys = pa.array([dup_urls[i] for i in order], pa.string())
    vals = pa.array([keep_ts[i] for i in order], ts_type)
    ref = ray.put((keys, vals))

    def keep_latest(batch: pa.Table) -> pa.Table:
        keys_, vals_ = ray.get(ref)
        url = batch.column("url").combine_chunks()
        idx = pc.index_in(url, value_set=keys_)
        ts_max = pc.take(vals_, idx)  # null where url is not duplicated
        ts = batch.column("warc_ts").combine_chunks()
        # null-safe equality: a dup url whose crawls all have null ts
        # has null max — keep its rows here, the tie pass picks one
        same = pc.or_kleene(
            pc.equal(ts, ts_max), pc.and_(pc.is_null(ts), pc.is_null(ts_max))
        )
        mask = pc.if_else(pc.is_null(idx), pa.scalar(True), same)
        return batch.filter(pc.fill_null(mask, False))

    masked = pages.map_batches(keep_latest, batch_format="pyarrow")

    # tie detection: key-column pass over survivors among dup urls only
    def dup_url_col(batch: pa.Table) -> pa.Table:
        keys_, _ = ray.get(ref)
        url = batch.column("url").combine_chunks()
        hit = pc.is_valid(pc.index_in(url, value_set=keys_))
        return pa.table({"url": url.filter(hit)})

    ties = {
        r["url"]
        for r in _hagg_auto(masked.select_columns(["url", "warc_ts"])
        .map_batches(dup_url_col, batch_format="pyarrow"), "url", [('', 'count_all', 'n')])
        .filter(expr="n > 1")
        .take_all()
    }
    return _resolve_url_ties(masked, ties)


def pages_to_stage_rows(pages: Dataset, cfg: KGConfig) -> Dataset:
    """pages -> exploded edge/alias/name-count rows (one fused pass).

    The stage chain is declared once through the Stage protocol: the
    needs/produces validation (reference ``Pipeline.check_valid``,
    ``renard/pipeline/core.py:643-693``) runs on that list before
    execution, and ``Stage.apply`` chains the same list onto the pages.
    """
    from renard_ray.stages.core import Stage, check_valid

    langs = list(cfg.langs)
    # grab the schema BEFORE filtering: an empty post-filter dataset has
    # no schema (ds.schema() -> None)
    schema = pages.schema()
    col_names = schema.names if schema is not None else []

    stages: list[Stage] = []
    if "html" in col_names:
        # lang filter folded into the extract pass (no standalone
        # Filter operator = one fewer full scan)
        stages.append(
            Stage(
                "extract_text",
                extract_text_batch,
                needs=frozenset({"url", "html", "text"}),
                produces=frozenset({"text_ok"}),
                removes=frozenset({"html"}),
                fn_kwargs={"langs": tuple(langs) if langs else None},
            )
        )
        ds = pages
    else:
        ds = pages.filter(expr=f"lang in {langs!r}") if langs else pages
    stages.append(
        Stage(
            "doc_kernel",
            doc_kernel_batch,
            needs=frozenset({"url", "text"}),
            optional_needs=frozenset({"lang", "text_ok"}),
            produces=frozenset(
                {"subj", "pred", "obj", "weight", "polarity", "block_id"}
            ),
            removes=frozenset({"url", "warc_ts", "text", "lang", "text_ok"}),
            batch_size=cfg.kernel_batch_size,
            fn_kwargs={"cfg": cfg.doc},
        )
    )
    if col_names:
        check_valid(stages, col_names)
    for stage in stages:
        ds = stage.apply(ds)
    return ds


def _stage_block(block: pa.Table) -> pa.Table:
    """A stage-row block with its columns: a kernel batch that kept no
    page comes back as a 0-row, 0-column block."""
    return block if block.num_columns else EDGES_SCHEMA.empty_table()


@ray.remote
def _alias_summary_block(
    batch: pa.Table,
) -> tuple[set[tuple[str, str]], dict[str, float]]:
    """One stage-row block -> its distinct alias pairs, each as (lower,
    higher) with self-pairs dropped, and its per-name named-mention
    counts."""
    batch = _stage_block(batch)
    pred = batch.column("pred")
    alias = batch.filter(pc.equal(pred, ALIAS_OF))
    pairs = {
        (a, b) if a < b else (b, a)
        for a, b in zip(alias.column("subj").to_pylist(), alias.column("obj").to_pylist())
        if a != b
    }
    counts = (
        batch.filter(pc.equal(pred, NAME_COUNT))
        .group_by(["subj"])
        .aggregate([("weight", "sum")])
    )
    return pairs, dict(
        zip(counts.column("subj").to_pylist(), counts.column("weight_sum").to_pylist())
    )


def _driver_alias_summary(
    stage_rows: Dataset, pair_limit: int | None = None
) -> tuple[set[tuple[str, str]] | None, dict[str, float]]:
    """One shuffle-free pass extracting BOTH the distinct alias-pair set
    and the per-name named-mention counts: one task per stage-row
    block, merged on the driver as the tasks finish.  The driver-merged
    data is the distinct-name scale (bounded by entity vocabulary, not
    corpus size); the distributed CC path takes over past
    ``broadcast_limit``.

    ``pair_limit``: the probe's own memory guard.  The moment the merged
    distinct-pair set exceeds it, the merge is abandoned and ``(None,
    partial_counts)`` is returned — the caller must take the distributed
    path.  Without this bail-out, deciding *whether* to broadcast would
    itself materialize the full vocabulary on the driver, OOM-ing at
    exactly the scale the distributed fallback exists for."""
    pairs: set[tuple[str, str]] = set()
    counts: dict[str, float] = {}
    pending = [_alias_summary_block.remote(r) for r in stage_rows.to_arrow_refs()]
    while pending:
        done, pending = ray.wait(pending, num_returns=1)
        block_pairs, block_counts = ray.get(done[0])
        pairs |= block_pairs
        for name, cnt in block_counts.items():
            counts[name] = counts.get(name, 0.0) + cnt
        if pair_limit is not None and len(pairs) > pair_limit:
            return None, counts
    return pairs, counts


def _driver_cc_and_names(
    pairs: set[tuple[str, str]], counts: dict[str, float]
) -> dict[str, str]:
    """Union-find + global most-frequent-name selection (driver path).
    Same semantics as ``oracle.golden`` (shared tie-break rule)."""
    labels = union_find(pairs)
    best: dict[str, tuple] = {}
    for name, cnt in counts.items():
        label = labels.get(name, name)
        key = (cnt, len(name), [-ord(c) for c in name])
        if label not in best or key > best[label][0]:
            best[label] = (key, name)
    out: dict[str, str] = {}
    for name in set(labels) | set(counts):
        label = labels.get(name, name)
        out[name] = best.get(label, (None, label))[1]
    return out


def _distributed_node_canon(stage_rows: Dataset) -> Dataset:
    """Distributed canonical-name table: large/small-star CC over the
    alias edges plus ONE stock Min aggregate for the per-component
    display name — no single machine ever holds the name vocabulary.
    Returns the (node, canonical) Dataset."""
    alias = stage_rows.filter(expr=f"pred == {ALIAS_OF!r}").select_columns(
        ["subj", "obj"]
    )
    _, label_ds = connected_components(
        alias, u="subj", v="obj", mode="distributed"
    )
    assert label_ds is not None
    canon_counts = (
        _hagg_auto(stage_rows.filter(expr=f"pred == {NAME_COUNT!r}"), "subj", [('weight', 'sum', 'sum(weight)')])
    )
    # display name per label: join counts with labels, argmax per label
    labeled_counts = hash_join(canon_counts, label_ds, "subj", "node")

    # display-name pick per label via ONE stock Min aggregate over an
    # order-encoded key (no per-label map_groups — per-tiny-group
    # framework cost is exactly what kills this at the >2M-entity
    # scale where the distributed path activates).  The key encodes
    # the driver/golden tie-break (count desc, name length desc,
    # lexicographic asc) so its lexicographic MIN is the winner:
    # fixed-width inverted count | fixed-width inverted length | name.
    def _encode_pick_key(batch: pa.Table) -> pa.Table:
        names = batch.column("subj").to_pylist()
        weights = batch.column("sum(weight)").to_pylist()
        # integer arithmetic: a float "1e18 - w" loses everything
        # below its 128-ULP and collapses distinct counts.  Clamp
        # both fields to their fixed width — an overflow would go
        # negative and the leading '-' would break the
        # lexicographic-min ordering silently.
        # clamp into [0, 10**16 - 1]: a NEGATIVE aggregated weight
        # would otherwise encode as an 18-char field (10**16 + |w|)
        # and silently outrank every 17-digit one.
        enc = [
            f"{10**16 - max(0, min(int(round(float(w) * 100)), 10**16 - 1)):017d}"
            f"|{10**6 - min(len(s), 10**6 - 1):07d}|{s}"
            for w, s in zip(weights, names)
        ]
        return pa.table(
            {
                "label": batch.column("label"),
                "enc": pa.array(enc, pa.string()),
            }
        )

    display = (
        _hagg_auto(
            labeled_counts.map_batches(
                _encode_pick_key, batch_format="pyarrow"
            ),
            "label",
            [("enc", "min", "enc_min")],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "label": b.column("label"),
                    "canonical": pa.array(
                        [e.split("|", 2)[2] for e in b.column("enc_min").to_pylist()],
                        pa.string(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    node_canon = hash_join(label_ds, display, "label", how="left outer")

    def _fallback(batch: pa.Table) -> pa.Table:
        canon = batch.column("canonical")
        label = batch.column("label")
        fixed = pc.if_else(pc.is_null(canon), label, canon)
        return pa.table({"node": batch.column("node"), "canonical": fixed})

    return node_canon.map_batches(_fallback, batch_format="pyarrow")


def _distributed_relabel(edges: Dataset, node_canon: Dataset) -> Dataset:
    """Relabel subj/obj through the (node, canonical) table with two
    left-outer hash joins, then normalize undirected predicates and drop
    the self-loops cross-doc merging creates.  Every non-key column of
    ``edges`` (weight, polarity, block_id, month, ...) passes through
    untouched, so callers can thread arbitrary payload columns
    (``kg_growth`` threads the crawl month)."""

    step1 = hash_join(edges, node_canon, "subj", "node", how="left outer")

    def _apply_subj(batch: pa.Table) -> pa.Table:
        c = batch.column("canonical")
        s = pc.if_else(pc.is_null(c), batch.column("subj"), c)
        return batch.drop_columns(["subj", "canonical", "node"] if "node" in batch.column_names else ["subj", "canonical"]).append_column("subj", s)

    step1 = step1.map_batches(_apply_subj, batch_format="pyarrow")
    step2 = hash_join(step1, node_canon, "obj", "node", how="left outer")

    def _apply_obj(batch: pa.Table) -> pa.Table:
        c = batch.column("canonical")
        o = pc.if_else(pc.is_null(c), batch.column("obj"), c)
        t = batch.drop_columns(["obj", "canonical", "node"] if "node" in batch.column_names else ["obj", "canonical"]).append_column("obj", o)
        return _order_and_drop(t, t.column("subj"), o)

    return step2.map_batches(_apply_obj, batch_format="pyarrow")


def _order_and_drop(batch: pa.Table, s: pa.Array, o: pa.Array) -> pa.Table:
    """``batch`` with its endpoints replaced by the relabeled ``s`` /
    ``o``: undirected predicates put in (lower, higher) order and the
    self-loops cross-doc merging creates (a doc-local pair that became
    one entity) dropped.  Every other column passes through."""
    is_und = pc.is_in(
        batch.column("pred"), value_set=pa.array(UNDIRECTED_PREDS, pa.string())
    )
    ns = pc.if_else(is_und, pc.min_element_wise(s, o), s)
    no = pc.if_else(is_und, pc.max_element_wise(s, o), o)
    t = batch.set_column(batch.schema.get_field_index("subj"), "subj", ns)
    t = t.set_column(t.schema.get_field_index("obj"), "obj", no)
    return t.filter(pc.not_equal(ns, no))


def _relabel(batch: pa.Table, canon: tuple[pa.Array, pa.Array]) -> pa.Table:
    """Edge rows with both endpoints mapped through the broadcast
    (sorted names, canonical names) arrays — a name absent from them
    keeps its label — then ``_order_and_drop``."""
    keys, vals = canon

    def remap(col: pa.ChunkedArray) -> pa.Array:
        col = col.combine_chunks()
        mapped = pc.take(vals, pc.index_in(col, value_set=keys))
        return pc.if_else(pc.is_null(mapped), col, mapped)

    return _order_and_drop(batch, remap(batch.column("subj")), remap(batch.column("obj")))


def _broadcast_canon(stage_rows: Dataset, cfg: KGConfig) -> ray.ObjectRef | None:
    """The canonicalization decision.  Under ``cc_mode`` "auto" the
    alias summary is probed under ``cfg.broadcast_limit`` (so the probe
    itself never holds a larger vocabulary); a forced "driver" carries
    no limit (the caller asserts it fits).  On the driver path returns
    an object ref to the (sorted names, canonical names) arrays; returns
    None when the distributed path must run (forced "distributed", or
    the probe crossed the limit)."""
    if cfg.cc_mode not in ("auto", "driver"):
        return None
    limit = None if cfg.cc_mode == "driver" else cfg.broadcast_limit
    pairs, counts = _driver_alias_summary(stage_rows, pair_limit=limit)
    if pairs is None:
        return None
    name2canon = _driver_cc_and_names(pairs, counts)
    # two parallel arrays, so the lookup is a vectorized pyarrow
    # index_in/take, not a per-row dict loop
    names_sorted = sorted(name2canon)
    return ray.put(
        (
            pa.array(names_sorted, pa.string()),
            pa.array([name2canon[n] for n in names_sorted], pa.string()),
        )
    )


@ray.remote
def _relabel_block(batch: pa.Table, canon: tuple[pa.Array, pa.Array]) -> pa.Table:
    """One stage-row block -> its edge rows relabeled (``_relabel``)
    and the block combined (``_partial_agg``)."""
    batch = _stage_block(batch)
    not_edge = pa.array([ALIAS_OF, NAME_COUNT, METRIC], pa.string())
    batch = batch.filter(pc.invert(pc.is_in(batch.column("pred"), value_set=not_edge)))
    return _partial_agg(_relabel(batch, canon))


def relabel_and_aggregate(
    stage_rows: Dataset, cfg: KGConfig
) -> Dataset:
    """Map edge endpoints through the canonical-name table and run the
    final global triple aggregation.

    Driver path (default, "auto"): the stage rows are materialized once
    (free when they already are); one summary task per block -> driver
    union-find over distinct alias pairs -> broadcast name->canonical
    map -> one relabel task per block -> ``hash_aggregate`` over the
    relabel tasks' outputs.  No Ray Data execution past the
    materialize.  Distributed path (forced, or when the distinct-name
    vocabulary exceeds ``broadcast_limit``): large/small-star CC + hash
    joins — no single machine holds the vocabulary.
    """
    stage_rows = stage_rows.materialize()
    canon_ref = _broadcast_canon(stage_rows, cfg)
    if canon_ref is not None:
        relabeled = ray.data.from_arrow_refs(
            [_relabel_block.remote(r, canon_ref) for r in stage_rows.to_arrow_refs()]
        )
    else:
        # distributed path: two hash joins against the (node, label) table
        # (scale path when distinct names exceed the broadcast limit)
        edges = stage_rows.filter(
            expr=f"pred != {ALIAS_OF!r} and pred != {NAME_COUNT!r} and pred != {METRIC!r}"
        )
        node_canon = _distributed_node_canon(stage_rows)
        relabeled = _distributed_relabel(edges, node_canon)

    return _hagg_auto(
        relabeled,
        ["subj", "pred", "obj", "block_id"],
        [("weight", "sum", "weight"), ("polarity", "sum", "polarity")],
    )


def build_kg(pages: Dataset, cfg: KGConfig | None = None) -> Dataset:
    """pages -> aggregated canonical triple table.

    The stage-row Dataset is materialized once — the build's only Ray
    Data execution on the driver path — because three downstream
    branches consume it (alias links, name counts, edges).
    """
    cfg = cfg or KGConfig()
    return relabel_and_aggregate(pages_to_stage_rows(pages, cfg), cfg)


def bucket_of(subj: pa.ChunkedArray, num_buckets: int) -> pa.Array:
    """The graph sink's bucket (``bucket=N`` directory) of each subject:
    crc32 of its UTF-8 bytes modulo ``num_buckets``."""
    import zlib

    return pa.array(
        [zlib.crc32(s.encode()) % num_buckets for s in subj.to_pylist()], pa.int32()
    )


@ray.remote
def _write_graph_block(block: pa.Table, path: str, num_buckets: int, part: int) -> None:
    """One triple block -> hive ``bucket=N/part-<part>-<i>.parquet``
    files under ``path``."""
    import pyarrow.dataset as pads

    if not block.num_rows:
        return
    pads.write_dataset(
        block.append_column("bucket", bucket_of(block.column("subj"), num_buckets)),
        path,
        format="parquet",
        partitioning=["bucket"],
        partitioning_flavor="hive",
        basename_template=f"part-{part:05d}-{{i}}.parquet",
        existing_data_behavior="overwrite_or_ignore",
        max_partitions=num_buckets,
    )


def write_graph(
    triples: Dataset, path: str, num_buckets: int = 64
) -> None:
    """Partitioned Parquet edge-list sink: bucket by hash(subj), one
    directory per bucket (SURVEY.md §7.3), one write task per triple
    block.  Stale ``bucket=N`` dirs from a previous/killed attempt are
    cleared first so a re-run never double-counts leftover files
    (resume granularity lives upstream in ``pipelines.checkpoint`` —
    the sink itself is always rewritten, it's the cheap final stage)."""
    import shutil

    os.makedirs(path, exist_ok=True)
    for d in os.listdir(path):
        if d.startswith("bucket="):
            shutil.rmtree(os.path.join(path, d), ignore_errors=True)
    ray.get(
        [
            _write_graph_block.remote(r, path, num_buckets, i)
            for i, r in enumerate(triples.to_arrow_refs())
        ]
    )


def kg_growth(pages: Dataset, cfg: KGConfig | None = None) -> Dataset:
    """Temporal KG growth: per crawl month, how many CANONICAL entities
    and aggregated edges enter the graph for the first time — the
    longitudinal view a continuously-crawled corpus needs (which month's
    crawl actually added knowledge vs re-observed it).

    Plan (everything corpus-sized stays distributed):

    1. the doc kernel runs with ``emit_url=True`` so every edge row
       keeps its source page;
    2. months attach to edge rows via the size-adaptive url lookup
       (broadcast under the row budget, hash join past it);
    3. endpoints relabel through the canonical-name map, chosen by the
       same decision as ``relabel_and_aggregate`` (``cfg.cc_mode`` and
       ``cfg.broadcast_limit``): the driver union-find + broadcast
       ``_relabel``, or the distributed star-CC + two-hash-join relabel,
       with the month column carried as a payload column;
    4. first-seen reduction: ``groupby(subj,pred,obj).min(month)`` for
       edges, endpoint fan-out + ``groupby(node).min(month)`` for
       entities — two shuffles over (key, month) pairs only;
    5. the per-month counts union into one tiny table via tagged
       indicator columns + ``groupby(month)`` — no driver reshaping.

    Output: (month, n_new_entities, n_new_edges), month as yyyymm int.
    """
    from renard_ray.ops.relational import broadcast_lookup_join

    cfg = cfg or KGConfig()
    if not cfg.doc.emit_url:
        from dataclasses import replace

        cfg = replace(cfg, doc=replace(cfg.doc, emit_url=True))

    def to_month(batch: pa.Table) -> pa.Table:
        ts = batch.column("warc_ts")
        month = pc.add(
            pc.multiply(pc.cast(pc.year(ts), pa.int64()), 100),
            pc.cast(pc.month(ts), pa.int64()),
        )
        return pa.table({"url": batch.column("url"), "month": month})

    months = pages.select_columns(["url", "warc_ts"]).map_batches(
        to_month, batch_format="pyarrow"
    )

    stage_rows = pages_to_stage_rows(pages, cfg).materialize()
    canon_ref = _broadcast_canon(stage_rows, cfg)

    edges = stage_rows.filter(
        expr=(
            f"pred != {ALIAS_OF!r} and pred != {NAME_COUNT!r} "
            f"and pred != {METRIC!r} and url != ''"
        )
    ).select_columns(["subj", "pred", "obj", "url"])
    edges = broadcast_lookup_join(
        edges, months, on="url", right_on="url", payload=["month"]
    )

    def _combine_months(t: pa.Table) -> pa.Table:
        # per-batch combine: min month per key before the shuffle
        g = (
            t.select(["subj", "pred", "obj", "month"])
            .group_by(["subj", "pred", "obj"])
            .aggregate([("month", "min")])
        )
        # select by aggregate-generated name, not position (key-column
        # placement differs across pyarrow majors)
        return pa.table(
            {
                "subj": g.column("subj"),
                "pred": g.column("pred"),
                "obj": g.column("obj"),
                "month": g.column("month_min"),
            }
        )

    if canon_ref is not None:

        def relabel_with_month(batch: pa.Table) -> pa.Table:
            return _combine_months(_relabel(batch, ray.get(canon_ref)))

        relabeled = edges.map_batches(
            relabel_with_month, batch_format="pyarrow", batch_size=None
        ).materialize()
    else:
        # distributed branch: the same star-CC + two-hash-join relabel
        # as relabel_and_aggregate, with the month column threaded
        # through as an ordinary payload column — no single machine
        # ever holds the alias vocabulary
        node_canon = _distributed_node_canon(stage_rows)
        slim = edges.map_batches(
            lambda b: b.select(["subj", "pred", "obj", "month"]),
            batch_format="pyarrow",
        )
        relabeled = (
            _distributed_relabel(slim, node_canon)
            .map_batches(_combine_months, batch_format="pyarrow", batch_size=None)
            .materialize()
        )

    first_edge = _hagg_auto(relabeled, ["subj", "pred", "obj"], [('month', 'min', 'first_month')])

    def node_months(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("subj").combine_chunks(),
                        batch.column("obj").combine_chunks(),
                    ]
                ),
                "month": pa.concat_arrays(
                    [
                        batch.column("month").combine_chunks(),
                        batch.column("month").combine_chunks(),
                    ]
                ),
            }
        )
        g = t.group_by(["node"]).aggregate([("month", "min")])
        return g.rename_columns(["node", "month"])

    first_node = (
        _hagg_auto(relabeled.map_batches(node_months, batch_format="pyarrow"), "node", [('month', 'min', 'first_month')])
    )

    def tag(ent: bool):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            one = pa.array([1] * n, pa.int64())
            zero = pa.array([0] * n, pa.int64())
            return pa.table(
                {
                    "month": pc.cast(
                        batch.column("first_month").combine_chunks(), pa.int64()
                    ),
                    "n_new_entities": one if ent else zero,
                    "n_new_edges": zero if ent else one,
                }
            )

        return f

    return (
        _hagg_auto(first_node.map_batches(tag(True), batch_format="pyarrow")
        .union(first_edge.map_batches(tag(False), batch_format="pyarrow")), "month", [('n_new_entities', 'sum', 'n_new_entities'), ('n_new_edges', 'sum', 'n_new_edges')])
        .sort("month")
    )


def snapshot_diff(old: Dataset, new: Dataset) -> Dataset:
    """Diff two aggregated triple tables (two crawl snapshots of the
    KG): every (subj, pred, obj) classified as ``added`` / ``removed``
    / ``changed`` / ``unchanged`` with exact integer centi-weight
    deltas — the observability complement to ``ingest_snapshot``
    (what did this crawl change?).

    Scale shape: both sides collapse to (key -> centi-weight) via one
    ``groupby`` each (exact even if a side arrives un-aggregated or
    block-split), then ONE full-outer hash join on the packed triple
    key moves |distinct triples| rows; classification is a vectorized
    batch pass.  Nothing lands on the driver.

    Output: (subj, pred, obj, status, w_old_c, w_new_c, delta_c),
    absent sides reported as weight 0."""
    def keyed(ds: Dataset, out: str) -> Dataset:
        def derive(batch: pa.Table) -> pa.Table:
            w = pc.cast(
                pc.round(
                    pc.multiply(
                        pc.cast(batch.column("weight"), pa.float64()),
                        pa.scalar(100.0),
                    )
                ),
                pa.int64(),
            )
            return pa.table(
                {
                    "subj": batch.column("subj"),
                    "pred": batch.column("pred"),
                    "obj": batch.column("obj"),
                    out: w,
                }
            )

        return _hagg_auto(
            ds.select_columns(["subj", "pred", "obj", "weight"]).map_batches(
                derive, batch_format="pyarrow"
            ),
            ["subj", "pred", "obj"],
            [(out, "sum", out)],
        )

    empty = pa.table(
        {
            "subj": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "obj": pa.array([], pa.string()),
            "status": pa.array([], pa.string()),
            "w_old_c": pa.array([], pa.int64()),
            "w_new_c": pa.array([], pa.int64()),
            "delta_c": pa.array([], pa.int64()),
        }
    )

    def finalize(batch: pa.Table, w_old_present: bool, w_new_present: bool) -> pa.Table:
        import numpy as np

        n = batch.num_rows
        zero = pa.array(np.zeros(n, dtype=np.int64))
        wo = (
            pc.fill_null(batch.column("w_old_c"), pa.scalar(0, pa.int64()))
            if w_old_present else zero
        )
        wn = (
            pc.fill_null(batch.column("w_new_c"), pa.scalar(0, pa.int64()))
            if w_new_present else zero
        )
        had_old = (
            pc.is_valid(batch.column("w_old_c"))
            if w_old_present
            else pa.array(np.zeros(n, dtype=bool))
        )
        had_new = (
            pc.is_valid(batch.column("w_new_c"))
            if w_new_present
            else pa.array(np.zeros(n, dtype=bool))
        )
        status = pc.if_else(
            pc.invert(had_old),
            pa.scalar("added"),
            pc.if_else(
                pc.invert(had_new),
                pa.scalar("removed"),
                pc.if_else(
                    pc.equal(wo, wn), pa.scalar("unchanged"), pa.scalar("changed")
                ),
            ),
        )
        return pa.table(
            {
                "subj": batch.column("subj"),
                "pred": batch.column("pred"),
                "obj": batch.column("obj"),
                "status": status,
                "w_old_c": wo,
                "w_new_c": wn,
                "delta_c": pc.subtract(wn, wo),
            }
        )

    # a schema-less side (no rows at all) joins as its key columns only,
    # so its weight column is present exactly when that side is
    joined = hash_join(
        keyed(old, "w_old_c"), keyed(new, "w_new_c"),
        ["subj", "pred", "obj"], how="full outer",
    )
    if joined.count() == 0:
        return ray.data.from_arrow(empty)
    return joined.map_batches(
        lambda b: finalize(
            b, "w_old_c" in b.column_names, "w_new_c" in b.column_names
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# URL canonicalization (crawl-dedup normalization)
# ---------------------------------------------------------------------------

def normalize_url(url: str) -> str:
    """Crawl-grade URL canonicalization (the normalization every
    real URL-dedup runs BEFORE exact matching — RFC 3986 §6 syntax-
    based normalization plus the common crawl-pipeline conventions):

    - scheme and host lowercased;
    - default ports dropped (``:80`` for http, ``:443`` for https);
    - fragment dropped (never sent to the server);
    - query parameters SORTED by (key, value) — order is almost never
      semantic — with blank-valued params kept;
    - empty path normalized to ``/``; trailing slash preserved
      otherwise (``/a/`` vs ``/a`` CAN differ server-side).

    Pure function, no network; anything unparseable returns unchanged
    (never corrupt what we cannot read).
    """
    from urllib.parse import urlsplit, urlunsplit, parse_qsl, urlencode

    try:
        parts = urlsplit(url)
        if not parts.scheme or not parts.netloc:
            return url
        host = parts.hostname.lower() if parts.hostname else ""
        port = parts.port  # raises ValueError on malformed/out-of-range
    except ValueError:
        return url
    scheme = parts.scheme.lower()
    if ":" in host:  # IPv6 literal: hostname unwraps the brackets
        host = f"[{host}]"
    default = {"http": 80, "https": 443}.get(scheme)
    netloc = host if (port is None or port == default) else f"{host}:{port}"
    if parts.username:
        cred = parts.username + (f":{parts.password}" if parts.password else "")
        netloc = f"{cred}@{netloc}"
    path = parts.path or "/"
    query = urlencode(sorted(parse_qsl(parts.query, keep_blank_values=True)))
    return urlunsplit((scheme, netloc, path, query, ""))


def canonical_url_dedup(pages: Dataset, **kwargs) -> Dataset:
    """URL dedup under canonicalization: normalize every URL with
    :func:`normalize_url` (one batch pass over the url column), then
    keep the latest crawl per CANONICAL url via the existing
    :func:`dedup_pages_by_url` machinery — the canonical form becomes
    the ``url`` key column (the original rides along as ``orig_url``),
    so port/fragment/param-order variants of one resource collapse to
    a single kept page with zero changes to the dedup plan."""

    def canon(batch: "pa.Table") -> "pa.Table":
        urls = batch.column("url").to_pylist()
        i = batch.schema.get_field_index("url")
        batch = batch.append_column("orig_url", batch.column("url"))
        return batch.set_column(
            i, "url", pa.array([normalize_url(u) for u in urls], pa.string())
        )

    with_c = pages.map_batches(canon, batch_format="pyarrow")
    return dedup_pages_by_url(with_c, **kwargs)
