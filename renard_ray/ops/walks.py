"""Deterministic random-walk corpus generation over the KG.

DeepWalk-style (Perozzi et al. 2014, KDD — public paper) sequence
corpus for downstream skip-gram / node2vec-style embedding training:
``walks_per_node`` uniform random walks of length ``walk_len`` from
every node of the co-occurrence graph, emitted as a (src, walk, step,
node) sequence table.

Scale shape — the walk state NEVER lands on the driver:

- node ids: one vocabulary-bounded pass assigns each node a stable
  64-bit md5-derived integer (partitioning-independent), attached to
  the adjacency's dst side once via the size-adaptive lookup join;
- per step: ONE join (walk frontier x adjacency on the current node —
  broadcast per-batch Arrow join while the edge table fits the row
  budget, ``hash_join`` past it) fans each walk out to its
  candidate neighbors, then ONE ``groupby(walk).Min`` over an
  Arrow-packed (priority, neighbor) string picks the next hop — the
  same encoded-key argmin trick as label propagation / display-name
  pick.  Priorities are splitmix64 mixes of (walk salt, step,
  neighbor id): pure functions of the walk identity, so the corpus is
  reproducible under retries and independent of partitioning;
- the corpus table is unioned + materialized per round, so the loop
  never re-executes its prefix (same pattern as ``bfs_hops_dataset``).

Uniform neighbor choice (the DeepWalk regime): every distinct
neighbor is equally likely under the 64-bit priority hash.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from renard_ray.ops.graphstats import _distinct_adjacency

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

__all__ = ["random_walks_dataset", "random_walks_bruteforce"]

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants) over a
    uint64 array; the scalar python replica in tests must match
    bit-for-bit."""
    z = (x + _U64(0x9E3779B97F4A7C15)).astype(_U64)
    z = ((z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)).astype(_U64)
    z = ((z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)).astype(_U64)
    return z ^ (z >> _U64(31))


def _node_id_u64(name: str) -> int:
    """Stable 64-bit node id: top 8 md5 bytes of the utf-8 name."""
    return int.from_bytes(hashlib.md5(name.encode("utf-8")).digest()[:8], "big")


def _walk_salt(nid: np.ndarray, walk: np.ndarray, seed: int) -> np.ndarray:
    """Per-walk uint64 salt — a pure function of (node id, walk index,
    seed)."""
    return _splitmix64(
        nid.astype(_U64)
        ^ _splitmix64(walk.astype(_U64) + _U64(seed & 0xFFFFFFFFFFFFFFFF))
    )


def _step_priority(
    salt: np.ndarray, step: int, nbr_nid: np.ndarray
) -> np.ndarray:
    """uint64 priority of a candidate neighbor at a given step; the
    walk takes the candidate with the MINIMUM (priority, name)."""
    return _splitmix64(
        salt.astype(_U64) ^ _splitmix64(np.full(len(salt), step, dtype=_U64))
        ^ nbr_nid.astype(_U64)
    )


def _pack_choice(prio_u64: np.ndarray, names: pa.Array) -> pa.Array:
    """Arrow-vectorized '%020d:<name>' packing of ((priority >> 1) as
    int64, name): lexicographic string order == (priority, name) order.
    One bit of priority is sacrificed to stay in non-negative int64;
    the name tie-break keeps the choice total regardless."""
    hp = (prio_u64 >> _U64(1)).astype(np.int64)
    padded = pc.utf8_lpad(
        pc.cast(pa.array(hp, pa.int64()), pa.string()), 20, padding="0"
    )
    return pc.binary_join_element_wise(padded, names, ":")


def _race_key_bits(prio: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Deterministic WEIGHTED choice (Efraimidis–Spirakis race): key =
    -ln(u)/w with u = (h+1)/2^64 from the uint64 priority — the min
    key wins with probability w_i / sum(w).  Non-negative IEEE doubles
    order identically to their raw bit patterns, so the float key is
    packed EXACTLY by viewing its bits as uint64 (no rounding, no
    fixed-point scale to overflow)."""
    u = (prio.astype(np.float64) + 1.0) / 2.0**64
    key = -np.log(u) / weight
    return key.view(_U64)


def random_walks_dataset(
    triples: Dataset,
    walks_per_node: int = 2,
    walk_len: int = 5,
    seed: int = 0,
    p: float = 1.0,
    q: float = 1.0,
    broadcast_limit: int = 5_000_000,
) -> Dataset:
    """Random-walk corpus over the undirected distinct-pair graph of a
    triple table — uniform (DeepWalk) by default, node2vec-biased
    (Grover & Leskovec 2016, KDD — public paper) when ``p``/``q`` are
    set: stepping from ``cur`` with predecessor ``prev``, a candidate
    neighbor is weighted 1/p if it returns to ``prev``, 1 if it is
    adjacent to ``prev`` (BFS-ish), 1/q otherwise (DFS-ish); the
    weighted choice is the deterministic Efraimidis–Spirakis race over
    the same hash priorities (first step is uniform — no predecessor).

    Output: (src, walk, step, node) — for every graph node ``src`` and
    walk index ``walk`` in [0, walks_per_node), the visited node at
    each step in [0, walk_len); step 0 is ``src`` itself.  Walks never
    dead-end (undirected adjacency: every node in the edge list has a
    neighbor).  Isolated nodes (no edges) have no walks, matching
    DeepWalk on the edge list.

    The node2vec bias needs one extra input per candidate — is the
    neighbor adjacent to the walk's predecessor — answered by a packed
    (prev, nbr) membership probe: an ``index_in`` mask against the
    broadcast edge-key set while the edge list fits the row budget, a
    LEFT hash join against it past that (one extra join per step,
    documented cost of the biased regime).

    Deterministic: the corpus is a pure function of (graph, seed,
    walks_per_node, walk_len, p, q) — independent of partitioning,
    retries and execution order (priorities are content hashes; the
    per-step reduce is an exact string Min)."""
    from renard_ray.ops.relational import _collect_small, broadcast_lookup_join

    out_schema = pa.schema(
        [
            ("src", pa.string()),
            ("walk", pa.int64()),
            ("step", pa.int64()),
            ("node", pa.string()),
        ]
    )
    edges = _distinct_adjacency(triples, directed=False)
    if edges is None or walks_per_node <= 0 or walk_len <= 0:
        return ray.data.from_arrow(out_schema.empty_table())
    edges = edges.materialize()

    # vocabulary pass: stable md5-derived int id per node (undirected
    # adjacency emits both directions, so 'src' covers every node)
    def to_ids(batch: pa.Table) -> pa.Table:
        names = batch.column("src").to_pylist()
        return pa.table(
            {
                "node": batch.column("src"),
                # uint64 stored in int64 (bit pattern; order irrelevant)
                "nid": pa.array(
                    np.array(
                        [_node_id_u64(n) for n in names], dtype=_U64
                    ).view(np.int64),
                    pa.int64(),
                ),
            }
        )

    ids = (
        _hagg_auto(edges, "src", [('', 'count_all', '_n')])
        .select_columns(["src"])
        .map_batches(to_ids, batch_format="pyarrow")
        .materialize()
    )

    # adjacency with the dst id attached once: (cur, nxt, nxt_nid)
    adj = broadcast_lookup_join(
        edges.map_batches(
            lambda b: pa.table(
                {"cur": b.column("src"), "nxt": b.column("dst")}
            ),
            batch_format="pyarrow",
        ),
        ids.map_batches(
            lambda b: b.rename_columns(["node", "nxt_nid"]),
            batch_format="pyarrow",
        ),
        on="nxt", right_on="node", payload=["nxt_nid"],
        limit=broadcast_limit,
    ).materialize()

    biased = not (p == 1.0 and q == 1.0)
    assert p > 0 and q > 0

    # start frontier: walks_per_node rows per node, salt carried along;
    # prev = "" (no predecessor -> first step uniform, as in node2vec)
    def start_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        names = batch.column("node").combine_chunks()
        nid = np.asarray(batch.column("nid"), dtype=np.int64).view(_U64)
        reps = np.repeat(np.arange(n, dtype=np.int64), walks_per_node)
        walk = np.tile(
            np.arange(walks_per_node, dtype=np.int64), n
        )
        salt = _walk_salt(nid[reps], walk.view(np.int64), seed)
        return pa.table(
            {
                "w_src": names.take(pa.array(reps)),
                "walk": pa.array(walk, pa.int64()),
                "salt": pa.array(salt.view(np.int64), pa.int64()),
                "cur": names.take(pa.array(reps)),
                "prev": pa.array([""] * len(reps), pa.string()),
            }
        )

    frontier = ids.map_batches(start_rows, batch_format="pyarrow").materialize()

    corpus = frontier.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("w_src"),
                "walk": b.column("walk"),
                "step": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "node": b.column("cur"),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    small_adj = _collect_small(adj, broadcast_limit)
    adj_ref = ray.put(small_adj.combine_chunks()) if small_adj is not None else None

    def _ek(prev_col, nxt_col) -> pa.Array:
        return pc.binary_join_element_wise(prev_col, nxt_col, "\x1f")

    ek_ref = None
    ekds = None
    if biased:
        if small_adj is not None:
            ek_ref = ray.put(
                _ek(
                    small_adj.column("cur").combine_chunks(),
                    small_adj.column("nxt").combine_chunks(),
                )
            )
        else:
            ekds = adj.map_batches(
                lambda b: pa.table(
                    {
                        "ek": _ek(
                            b.column("cur").combine_chunks(),
                            b.column("nxt").combine_chunks(),
                        ),
                        "adjflag": pa.array(
                            np.ones(b.num_rows, dtype=np.int64)
                        ),
                    }
                ),
                batch_format="pyarrow",
            ).materialize()

    def score(batch: pa.Table, _step: int, adjflag=None) -> pa.Table:
        """Candidate rows -> packed (priority, name) choice key;
        node2vec weighting when biased (adjflag: bool array = neighbor
        adjacent to the walk's predecessor)."""
        if batch.num_rows == 0:
            return pa.table(
                {
                    "w_src": pa.array([], pa.string()),
                    "walk": pa.array([], pa.int64()),
                    "salt": pa.array([], pa.int64()),
                    "cur": pa.array([], pa.string()),
                    "pick": pa.array([], pa.string()),
                }
            )
        salt = np.asarray(batch.column("salt"), dtype=np.int64).view(_U64)
        nid = np.asarray(
            batch.column("nxt_nid"), dtype=np.int64
        ).view(_U64)
        prio = _step_priority(salt, _step, nid)
        if biased:
            prev = np.asarray(batch.column("prev"))
            nxt = np.asarray(batch.column("nxt"))
            w = np.where(
                prev == "", 1.0,
                np.where(
                    nxt == prev, 1.0 / p,
                    np.where(np.asarray(adjflag, dtype=bool), 1.0, 1.0 / q),
                ),
            )
            bits = _race_key_bits(prio, w)
        else:
            bits = prio
        return pa.table(
            {
                "w_src": batch.column("w_src"),
                "walk": batch.column("walk"),
                "salt": batch.column("salt"),
                "cur": batch.column("cur"),
                "pick": _pack_choice(
                    bits, batch.column("nxt").combine_chunks()
                ),
            }
        )

    for step in range(1, walk_len):
        if adj_ref is not None:

            def expand(batch: pa.Table, _step=step) -> pa.Table:
                at = ray.get(adj_ref)
                joined = batch.join(
                    at, keys=["cur"], right_keys=["cur"], join_type="inner"
                )
                flag = None
                if biased:
                    flag = pc.is_valid(
                        pc.index_in(
                            _ek(
                                joined.column("prev").combine_chunks(),
                                joined.column("nxt").combine_chunks(),
                            ),
                            value_set=ray.get(ek_ref),
                        )
                    ).to_numpy(zero_copy_only=False)
                return score(joined, _step, flag)

            cands = frontier.map_batches(expand, batch_format="pyarrow")
        else:
            joined = hash_join(frontier, adj, "cur")
            if biased:
                with_ck = joined.map_batches(
                    lambda b: b.append_column(
                        "ck",
                        _ek(
                            b.column("prev").combine_chunks(),
                            b.column("nxt").combine_chunks(),
                        ),
                    ),
                    batch_format="pyarrow",
                )
                flagged = hash_join(
                    with_ck,
                    ekds,
                    "ck",
                    "ek",
                    how="left outer",
                )

                def score_flag(batch: pa.Table, _step=step) -> pa.Table:
                    f = pc.fill_null(
                        pc.cast(batch.column("adjflag"), pa.int64()), 0
                    ).to_numpy(zero_copy_only=False).astype(bool)
                    return score(batch, _step, f)

                cands = flagged.map_batches(score_flag, batch_format="pyarrow")
            else:
                cands = joined.map_batches(
                    lambda b, _step=step: score(b, _step),
                    batch_format="pyarrow",
                )

        winners = (
            _hagg_auto(cands, ["w_src", "walk", "salt", "cur"], [('pick', 'min', 'pick')])
        )

        def unpack(batch: pa.Table, _step=step) -> pa.Table:
            node = pc.utf8_slice_codeunits(
                batch.column("pick"), 21, 2**31
            )
            return pa.table(
                {
                    "w_src": batch.column("w_src"),
                    "walk": batch.column("walk"),
                    "salt": batch.column("salt"),
                    "cur": node,
                    "prev": batch.column("cur"),
                }
            )

        frontier = winners.map_batches(
            unpack, batch_format="pyarrow"
        ).materialize()

        corpus = corpus.union(
            frontier.map_batches(
                lambda b, _step=step: pa.table(
                    {
                        "src": b.column("w_src"),
                        "walk": b.column("walk"),
                        "step": pa.array(
                            np.full(b.num_rows, _step, dtype=np.int64)
                        ),
                        "node": b.column("cur"),
                    }
                ),
                batch_format="pyarrow",
            )
        ).materialize()

    return corpus


def random_walks_bruteforce(
    edges: "list[tuple[str, str]]",
    walks_per_node: int = 2,
    walk_len: int = 5,
    seed: int = 0,
    p: float = 1.0,
    q: float = 1.0,
) -> "list[tuple[str, int, int, str]]":
    """Single-machine replica: identical hash primitives, plain-python
    frontier loop — validates the distributed join/argmin machinery
    (uniform and node2vec-biased regimes)."""
    biased = not (p == 1.0 and q == 1.0)
    adj: dict[str, set] = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out = []
    for src in sorted(adj):
        nid = np.array([_node_id_u64(src)], dtype=_U64)
        for w in range(walks_per_node):
            salt = _walk_salt(nid, np.array([w], dtype=np.int64), seed)
            cur, prev = src, ""
            out.append((src, w, 0, cur))
            for step in range(1, walk_len):
                best = None
                for nbr in sorted(adj[cur]):
                    prio = _step_priority(
                        salt, step, np.array([_node_id_u64(nbr)], dtype=_U64)
                    )
                    if biased:
                        if prev == "":
                            wt = 1.0
                        elif nbr == prev:
                            wt = 1.0 / p
                        elif nbr in adj[prev]:
                            wt = 1.0
                        else:
                            wt = 1.0 / q
                        bits = int(
                            _race_key_bits(prio, np.array([wt]))[0]
                        )
                    else:
                        bits = int(prio[0])
                    key = ("%020d" % (bits >> 1), nbr)
                    if best is None or key < best[0:2]:
                        best = (key[0], nbr)
                cur, prev = best[1], cur
                out.append((src, w, step, cur))
    return out
