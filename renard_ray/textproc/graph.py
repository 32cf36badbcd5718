"""Per-document graph/edge extraction kernels.

Re-implements the semantics of the reference's extractors as *edge-row
producers* (the Ray-Data-native output: exploded ``(subj, pred, obj,
weight, polarity, block_id)`` rows per document, later summed by a
global groupby):

- co-occurrence (static + dynamic):
  ``renard/pipeline/graph_extraction.py:105-448``
- conversational (conversation + mention):
  ``graph_extraction.py:475-713``
- relational: ``graph_extraction.py:716-762``

Key reference semantics preserved:
- mentions sorted by start index before windowing
  (``graph_extraction.py:204``);
- co-occurrence blocks: token-distance (± dist around each mention,
  ``:248-255``) or sentence-distance (sentence windows, ``:257-277``);
- co-occurrence weight counts *ordered mention pairs* (i<j in
  apparition order) that share at least one block, self-pairs excluded
  (``:315-333,343-351``);
- polarity of a pair = max-by-|.| sentence polarity between the two
  mentions, summed per edge (``:353-369``);
- dynamic windows: ``windowed(mentions, window, step=window-overlap)``
  (``:400-409``) or user block bounds (``:411-448``).

The per-document edge dict this module returns is the unit that the
distributed stage explodes into Arrow rows — all order-sensitive logic
stays inside one row (one document).

The scans are sorted sweeps: a block's mentions are a ``bisect`` range
of the sorted mention starts, a quote's mentions of a character a range
of that character's sorted starts, and each mention's sentence index is
taken once. A document costs O(mentions + in-block pairs), up to log
factors, not O(blocks x mentions). The pair set keeps the insertion
sequence of the nested scan it replaced: its iteration order fixes the
order, hence the float bits, of each edge's polarity sum.
"""

from __future__ import annotations

from renard_ray.textproc.quotes import Quote
from renard_ray.textproc.tokenize import Tokenized
from renard_ray.textproc.unify import Character, Mention

# pred constants
CO_OCCURS = "co_occurs_with"
TALKS_WITH = "talks_with"
MENTIONS = "mentions"

Span = tuple[int, int]
# edge key -> [weight, polarity]; key = (subj_key, pred, obj_key, directed)
EdgeDict = dict[tuple[str, str, str], list[float]]


def _sorted_mentions(
    characters: list[Character],
    key_of: dict[int, str],
) -> list[tuple[str, Mention]]:
    mentions: list[tuple[str, Mention]] = []
    for ci, c in enumerate(characters):
        k = key_of[ci]
        for m in c.mentions:
            mentions.append((k, m))
    mentions.sort(key=lambda km: (km[1].start, km[1].end))
    return mentions


def _co_occurrence_blocks(
    mentions: list[tuple[str, Mention]],
    tok: Tokenized,
    dist: int,
    unit: str,
) -> list[Span]:
    if unit == "tokens":
        return [(m.start - dist, m.end + dist) for _, m in mentions]
    if unit == "sentences":
        from bisect import bisect_right

        # sentence i spans tokens [bounds[i - 1], bounds[i])
        bounds = tok.sent_bounds
        last = len(bounds) - 1
        blocks: set[Span] = set()
        for _, m in mentions:
            s0 = bisect_right(bounds, m.start) - dist
            s1 = min(last, bisect_right(bounds, m.end - 1) + dist)
            blocks.add((bounds[s0 - 1] if s0 > 0 else 0, bounds[s1]))
        return sorted(blocks)
    raise ValueError(f"unknown co_occurrences unit: {unit}")


def _pair_edges(
    mentions: list[tuple[str, Mention]],
    blocks: list[Span],
    tok: Tokenized | None,
    sentence_polarities: list[float] | None,
) -> EdgeDict:
    """Weights from the 0/1 ordered-pair co-occurrence relation
    (reference ``graph_extraction.py:313-369``)."""
    from bisect import bisect_left, bisect_right
    from itertools import combinations

    keys = [k for k, _ in mentions]
    starts = [m.start for _, m in mentions]
    ends = [m.end for _, m in mentions]
    # pair set of (i, j) apparition-order indices with i < j; its
    # insertion sequence fixes its iteration order, hence the float
    # bits of the polarity sums below
    pairs: set[tuple[int, int]] = set()
    for block_start, block_end in blocks:
        in_block = [
            i
            for i in range(
                bisect_left(starts, block_start), bisect_right(starts, block_end)
            )
            if ends[i] <= block_end
        ]
        pairs.update(
            [ij for ij in combinations(in_block, 2) if keys[ij[0]] != keys[ij[1]]]
        )

    compute_polarity = sentence_polarities is not None and tok is not None
    if compute_polarity:
        sent = [tok.sent_index_of_token(s) for s in starts]
        # (first sentence, last sentence) -> max-by-|.| polarity
        window_max: dict[tuple[int, int], float] = {}
    edges: EdgeDict = {}
    for i, j in pairs:
        k1, k2 = keys[i], keys[j]
        key = (k1, CO_OCCURS, k2) if k1 <= k2 else (k2, CO_OCCURS, k1)
        edge = edges.get(key)
        if edge is None:
            edge = edges[key] = [0.0, 0.0]
        edge[0] += 1.0
        if compute_polarity:
            span = (sent[i], sent[j])
            polarity = window_max.get(span)
            if polarity is None:
                # an empty window adds 0.0, which leaves a sum exact
                window = sentence_polarities[span[0] : span[1] + 1]
                polarity = max(window, key=abs) if window else 0.0
                window_max[span] = polarity
            edge[1] += polarity
    return edges


def co_occurrence_edges(
    characters: list[Character],
    tok: Tokenized,
    dist: tuple[int, str] = (1, "sentences"),
    sentence_polarities: list[float] | None = None,
    co_occurrences_blocks: list[Span] | None = None,
) -> EdgeDict:
    """Static co-occurrence network as an edge dict keyed by
    (subj_key, 'co_occurs_with', obj_key) with [weight, polarity]."""
    key_of = {ci: _char_key(c) for ci, c in enumerate(characters)}
    mentions = _sorted_mentions(characters, key_of)
    if not mentions:
        return {}
    blocks = (
        co_occurrences_blocks
        if co_occurrences_blocks is not None
        else _co_occurrence_blocks(mentions, tok, dist[0], dist[1])
    )
    return _pair_edges(mentions, blocks, tok, sentence_polarities)


def dynamic_co_occurrence_edges(
    characters: list[Character],
    tok: Tokenized,
    dist: tuple[int, str],
    dynamic_window: int | None = None,
    dynamic_overlap: int = 0,
    dynamic_blocks: list[Span] | None = None,
    sentence_polarities: list[float] | None = None,
) -> list[EdgeDict]:
    """Dynamic variant: one edge dict per window / block
    (``graph_extraction.py:373-448``)."""
    key_of = {ci: _char_key(c) for ci, c in enumerate(characters)}
    mentions = _sorted_mentions(characters, key_of)

    if dynamic_window is not None:
        step = dynamic_window - dynamic_overlap
        assert step > 0
        out = []
        i = 0
        if not mentions:
            return []
        while True:
            window = mentions[i : i + dynamic_window]
            if not window:
                break
            out.append(
                _pair_edges(
                    window,
                    _co_occurrence_blocks(window, tok, dist[0], dist[1]),
                    tok,
                    sentence_polarities,
                )
            )
            if i + dynamic_window >= len(mentions):
                break
            i += step
        return out

    assert dynamic_blocks is not None
    from bisect import bisect_left

    starts = [m.start for _, m in mentions]
    out = []
    for block_start, block_end in dynamic_blocks:
        block_mentions = [
            (k, m)
            for k, m in mentions[
                bisect_left(starts, block_start) : bisect_left(starts, block_end)
            ]
            if m.end < block_end
        ]
        out.append(
            _pair_edges(
                block_mentions,
                _co_occurrence_blocks(block_mentions, tok, dist[0], dist[1]),
                tok,
                sentence_polarities,
            )
        )
    return out


def _char_key(c: Character) -> str:
    """Per-document identity key for a character: its deterministic
    most-frequent name (relabeling analog of ``graph_with_names``,
    ``renard/graph_utils.py:50-83``)."""
    return c.most_frequent_name() or ""


def _quotes_interact(
    q1: Quote, q2: Quote, tok: Tokenized, dist: int, unit: str
) -> bool:
    """``graph_extraction.py:538-561``."""
    ordered = q2.start >= q1.end
    if unit == "tokens":
        gap = (q2.start - q1.end) if ordered else (q1.start - q2.end)
        return abs(gap) <= dist
    if unit == "sentences":
        if ordered:
            s1 = tok.sent_index_of_token(min(q1.end, tok.n_tokens() - 1))
            s2 = tok.sent_index_of_token(min(q2.start, tok.n_tokens() - 1))
        else:
            s1 = tok.sent_index_of_token(min(q1.start, tok.n_tokens() - 1))
            s2 = tok.sent_index_of_token(min(q2.end, tok.n_tokens() - 1))
        return abs(s1 - s2) <= dist
    raise ValueError(f"unknown conversation_dist unit: {unit}")


def conversation_edges(
    quotes: list[Quote],
    speakers: list[str | None],
    tok: Tokenized,
    conversation_dist: tuple[int, str] = (1, "sentences"),
) -> EdgeDict:
    """Undirected speaker-to-speaker edges between nearby quotes
    (``graph_extraction.py:563-599``)."""
    edges: EdgeDict = {}
    for i, (q1, s1) in enumerate(zip(quotes, speakers)):
        if s1 is None:
            continue
        for q2, s2 in zip(quotes[i + 1 :], speakers[i + 1 :]):
            if s2 is None:
                continue
            if not _quotes_interact(q1, q2, tok, *conversation_dist):
                break
            if q1 == q2 or s1 == s2:
                continue
            a, b = (s1, s2) if s1 <= s2 else (s2, s1)
            key = (a, TALKS_WITH, b)
            if key not in edges:
                edges[key] = [0.0, 0.0]
            edges[key][0] += 1.0
    return edges


def quote_mention_edges(
    quotes: list[Quote],
    speakers: list[str | None],
    characters: list[Character],
    ignore_self_mention: bool = True,
) -> EdgeDict:
    """Directed speaker -> mentioned-character edges for mentions inside
    quotes (``graph_extraction.py:601-632``): one increment per
    (quote, mentioned character)."""
    from bisect import bisect_left, bisect_right

    edges: EdgeDict = {}
    keys = [_char_key(c) for c in characters]
    # per character: its mention spans sorted by start, and the starts
    spans = [sorted((m.start, m.end) for m in c.mentions) for c in characters]
    starts = [[a for a, _ in sp] for sp in spans]
    for quote, speaker in zip(quotes, speakers):
        if speaker is None:
            continue
        for key, sp, st in zip(keys, spans, starts):
            if key == speaker and ignore_self_mention:
                continue
            lo, hi = bisect_left(st, quote.start), bisect_right(st, quote.end)
            if any(end <= quote.end for _, end in sp[lo:hi]):
                ekey = (speaker, MENTIONS, key)
                if ekey not in edges:
                    edges[ekey] = [0.0, 0.0]
                edges[ekey][0] += 1.0
    return edges


def relational_edges(
    sentence_relations: list[list[tuple[str, str, str]]],
    min_rel_occurrences: int = 1,
) -> EdgeDict:
    """Typed-relation edges with a min-occurrence threshold
    (``graph_extraction.py:716-762``)."""
    counts: dict[tuple[str, str, str], int] = {}
    for relations in sentence_relations:
        for subj, rel, obj in relations:
            key = (subj, rel, obj)
            counts[key] = counts.get(key, 0) + 1
    return {
        key: [float(c), 0.0]
        for key, c in counts.items()
        if c >= min_rel_occurrences
    }


def cumulative_edge_dicts(dicts: list[EdgeDict]) -> list[EdgeDict]:
    """Running sum over a dynamic edge-dict sequence (reference analog:
    ``renard/graph_utils.py:11-42`` ``cumulative_graph``)."""
    out: list[EdgeDict] = []
    acc: EdgeDict = {}
    for d in dicts:
        for k, (w, p) in d.items():
            if k not in acc:
                acc[k] = [0.0, 0.0]
            acc[k][0] += w
            acc[k][1] += p
        out.append({k: list(v) for k, v in acc.items()})
    return out
