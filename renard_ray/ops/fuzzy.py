"""Edit-distance-1 fuzzy pair discovery by deletion-neighborhood join
(FastSS candidate generation — Bocek et al. 2007, the SymSpell index
recipe — verified exactly).

Reference semantics analog: the reference unifies character name
VARIANTS with hand rules (hypocorism table + title stripping,
``renard/pipeline/character_unification.py``); this operator is the
corpus-scale generalization for *unanticipated* variants — find ALL
value pairs within edit distance 1 (typos, OCR slips, id drift)
without an O(n^2) comparison.

The FastSS identity: ``ed(s, t) <= 1  iff  D(s) ∩ D(t) != ∅`` where
``D(x) = {x} ∪ {x with one character deleted}`` — substitution at i:
both sides delete position i; insertion/deletion: the longer side
deletes the extra char; equality: x itself.  The intersection test
becomes a distributed groupby: every distinct value emits its
``<= len+1`` deletion variants, values sharing a variant bucket are
candidates, and an exact verification pass removes the false
positives the identity allows ('ab'/'ba' share variant 'a' but
ed = 2).

Scale shape: ONE distinct-value reduce, ONE variant flat-map whose
exchange carries (int64 variant hash, value) — never variant strings
— then either a driver numpy pair emission when the signature table
fits a row budget, or the LSH-style self-join on the variant key
(same plan family as ``ops/dedup.py::minhash_candidate_pairs``).
Oversized variant buckets (> ``max_bucket`` members) are dropped
LOUDLY: unlike banded minhash there is no second band to recover a
dropped bucket's pairs, so the drop is a documented recall cap on
pathological inputs (e.g. thousands of values that all collapse to
one variant), never a silent one.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

logger = logging.getLogger(__name__)

# local fast-path budgets, mirroring ops/dedup.py's candidate-pair caps
_SIG_ROW_LIMIT = 2_000_000
_PAIR_LIMIT = 2_000_000
_BUCKET_KEY_LIMIT = 2_000_000

_EMPTY_PAIRS = pa.table(
    {
        "name_a": pa.array([], pa.string()),
        "name_b": pa.array([], pa.string()),
        "dist": pa.array([], pa.int64()),
    }
)


def _vh(s: str) -> int:
    """int64 hash of a variant string (md5 prefix, same recipe as
    ``ops/walks.py::_node_id_u64`` shifted into signed range)."""
    h = int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
    return h - (1 << 64) if h >= (1 << 63) else h


def _variants(s: str) -> list[int]:
    """Hashed deletion neighborhood D(s), deduped per value (leading
    zeros etc. make several deletion positions collide)."""
    seen = {s}
    for i in range(len(s)):
        seen.add(s[:i] + s[i + 1 :])
    return [_vh(v) for v in seen]


def ed_le1(a: str, b: str) -> bool:
    """Exact ``ed(a, b) <= 1`` — O(len) two-pointer, no DP table."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        diff = 0
        for x, y in zip(a, b):
            if x != y:
                diff += 1
                if diff > 1:
                    return False
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def _emit_variants(batch: pa.Table, col: str, max_len: int) -> pa.Table:
    vals = batch.column(col).to_pylist()
    vh: list[int] = []
    out_v: list[str] = []
    n_long = 0
    for s in vals:
        if s is None:
            continue
        if len(s) > max_len:
            n_long += 1
            continue
        for h in _variants(s):
            vh.append(h)
            out_v.append(s)
    if n_long:
        logger.warning(
            "ed1_pairs: dropping %d values longer than max_len=%d from "
            "fuzzy pairing (edit distance 1 on long payloads is not a "
            "meaningful variant signal; raise max_len to include them)",
            n_long,
            max_len,
        )
    return pa.table(
        {"vh": pa.array(vh, pa.int64()), "val": pa.array(out_v, pa.string())}
    )


def _pairs_local(
    tab: pa.Table, max_bucket: int, log_drops: bool
) -> Dataset | None:
    """Distinct verified pairs from a collected (vh, val) table — one
    driver numpy group scan.  None when the worst-case pair count
    exceeds the budget (caller runs the distributed join instead)."""
    if tab.num_rows == 0:
        return ray.data.from_arrow(_EMPTY_PAIRS)
    vh = tab.column("vh").to_numpy(zero_copy_only=False)
    val = np.asarray(tab.column("val").to_pylist(), dtype=object)
    order = np.lexsort((val, vh))
    k_s, v_s = vh[order], val[order]
    starts = np.flatnonzero(np.r_[True, k_s[1:] != k_s[:-1]])
    ends = np.r_[starts[1:], len(k_s)]
    sizes = ends - starts
    big = sizes > max_bucket
    dup_idx = np.flatnonzero((sizes >= 2) & ~big)
    s_dup = sizes[dup_idx]
    # budget check BEFORE the drop warning: on the fall-through path
    # the distributed plan recomputes and logs the drops itself, and a
    # double warning would misreport the recall cap
    if int((s_dup * (s_dup - 1) // 2).sum()) > _PAIR_LIMIT:
        return None
    if log_drops and big.any():
        logger.warning(
            "ed1_pairs: dropping %d oversized variant buckets (> %d "
            "members, %d signature rows) — a dropped bucket's pairs are "
            "NOT recoverable elsewhere (single-band index); this is a "
            "recall cap on pathological collision inputs",
            int(big.sum()),
            max_bucket,
            int(sizes[big].sum()),
        )
    pairs: set[tuple[str, str]] = set()
    for gi in dup_idx:
        g = v_s[starts[gi] : ends[gi]]
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                if g[i] != g[j]:
                    pairs.add((g[i], g[j]))  # g sorted asc -> a < b
    keep = sorted(p for p in pairs if ed_le1(*p))
    return ray.data.from_arrow(
        pa.table(
            {
                "name_a": pa.array([p[0] for p in keep], pa.string()),
                "name_b": pa.array([p[1] for p in keep], pa.string()),
                "dist": pa.array([1] * len(keep), pa.int64()),
            }
        )
    )


def _verify_batch(batch: pa.Table) -> pa.Table:
    a = batch.column("name_a").to_pylist()
    b = batch.column("name_b").to_pylist()
    keep = pa.array([ed_le1(x, y) for x, y in zip(a, b)], pa.bool_())
    t = batch.filter(keep)
    return t.append_column("dist", pa.array([1] * t.num_rows, pa.int64()))


def ed1_pairs_dataset(
    values: Dataset,
    col: str,
    max_bucket: int = 200,
    max_len: int = 128,
    sig_row_limit: int = _SIG_ROW_LIMIT,
) -> Dataset:
    """All distinct value pairs of ``values[col]`` within edit distance
    1, as (name_a, name_b, dist) with ``name_a < name_b`` (dist is
    always 1: the inputs are distinct, so ed = 0 cannot occur).

    ``sig_row_limit`` exists for tests to force the distributed
    self-join plan (set 0); the default matches the dedup family's
    local-path budget.
    """
    from ray.data.aggregate import Count

    if values.schema() is None:  # empty input has no schema
        return ray.data.from_arrow(_EMPTY_PAIRS)

    distinct = (
        _hagg_auto(values.select_columns([col]), col, [('', 'count_all', '_n')])
        .select_columns([col])
    )
    sigs = distinct.map_batches(
        _emit_variants,
        fn_kwargs={"col": col, "max_len": max_len},
        batch_format="pyarrow",
    ).materialize()

    n_sig = sigs.count()
    if n_sig == 0:
        return ray.data.from_arrow(_EMPTY_PAIRS)
    if n_sig <= sig_row_limit:
        tabs = [t for t in ray.get(sigs.to_arrow_refs()) if t.num_rows]
        local = _pairs_local(
            pa.concat_tables(tabs).combine_chunks(), max_bucket, log_drops=True
        )
        if local is not None:
            return local

    # distributed plan: size the buckets, drop oversized loudly, keep
    # only signatures of pairable buckets (2 <= n <= max_bucket), then
    # self-join on the variant hash.  The semi join is the shared
    # size-adaptive helper (broadcast under the key budget, hash join
    # past it) — no bespoke index_in plumbing here.
    from renard_ray.ops.relational import broadcast_semi_join

    sizes = _hagg_auto(sigs, "vh", [('', 'count_all', 'n')]).materialize()
    coll = sizes.filter(expr="n >= 2").materialize()
    big_ds = coll.filter(expr=f"n > {max_bucket}").materialize()
    n_big = big_ds.count()
    if n_big:
        n_big_rows = int(big_ds.sum("n") or 0)
        logger.warning(
            "ed1_pairs: dropping %d oversized variant buckets (> %d "
            "members, %d signature rows) — a dropped bucket's pairs are "
            "NOT recoverable elsewhere (single-band index); this is a "
            "recall cap on pathological collision inputs",
            n_big,
            max_bucket,
            n_big_rows,
        )
    pairable = coll.filter(expr=f"n <= {max_bucket}").materialize()
    if pairable.count() <= _BUCKET_KEY_LIMIT:
        sigs = broadcast_semi_join(
            sigs, pairable, on="vh", limit=_BUCKET_KEY_LIMIT
        )
    else:
        # pairable key set too large to broadcast: drop only the
        # (rare, by definition few) OVERSIZED keys via an anti mask —
        # singleton buckets stay (they emit no pairs in the self-join)
        # and the TB-scale signature table never crosses an exchange
        # just to be filtered.
        sigs = broadcast_semi_join(
            sigs, big_ds, on="vh", anti=True, limit=_BUCKET_KEY_LIMIT,
        )

    rhs = sigs.map_batches(
        lambda b: pa.table({"vh": b.column("vh"), "val_b": b.column("val")}),
        batch_format="pyarrow",
    )
    joined = hash_join(sigs, rhs, "vh")

    def ordered(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("val"), batch.column("val_b"))
        t = batch.filter(keep)
        return pa.table(
            {"name_a": t.column("val"), "name_b": t.column("val_b")}
        )

    pairs = (
        _hagg_auto(joined.map_batches(ordered, batch_format="pyarrow"), ["name_a", "name_b"], [('', 'count_all', '_c')])
        .select_columns(["name_a", "name_b"])
    )
    return pairs.map_batches(_verify_batch, batch_format="pyarrow")


def customer_fuzzy_name_pairs(sf_dir: str) -> Dataset:
    """All customer-name pairs within edit distance 1 — the typo/id-
    drift variant-discovery query over the TPC-H customer table (the
    zero-padded numeric suffixes make single-digit substitutions
    plentiful, so the result is a real pair table, not a degenerate)."""
    from renard_ray.ops.relational import _read

    names = _read(sf_dir, "customer", ["c_name"])
    return ed1_pairs_dataset(names, "c_name").sort(["name_a", "name_b"])
