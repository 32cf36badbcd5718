"""Frozen reference copy of the per-document kernel steps.

Verbatim copies of the nested-scan versions of ``_pair_edges``,
``co_occurrence_edges``, ``dynamic_co_occurrence_edges``,
``quote_mention_edges`` (``textproc/graph.py``),
``extract_sentence_relations`` (``textproc/relation.py``),
``graph_rules_unify`` and ``assign_coreference_mentions``
(``textproc/unify.py``), with the private helpers they call, taken
before those functions were rewritten as sorted sweeps;
``graph_rules_unify`` still builds its alias graph with networkx, as
the live one did before it moved to an adjacency map. Then the
per-token versions of ``rule_ner_tags`` (``textproc/ner.py``),
``resolve_corefs`` (``textproc/coref.py``) and ``sentence_polarity`` /
``sentence_polarities`` (``textproc/sentiment.py``), taken before each
distinct token was classified once per document. The golden
oracle runs the same ``process_document`` as the distributed stage, so
graph parity cannot catch a slip in the kernel itself;
``tests/test_kernel_frozen.py`` compares the live kernel against this
module instead. Only data (lexicons, dataclasses, the tokenizer) is
shared with the live code. Do not edit the function bodies.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import networkx as nx

from renard_ray.resources.hypocorisms import HypocorismGazetteer, shared_gazetteer
from renard_ray.resources.lexicons import (
    ALL_TITLES,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    SINGULAR_DETERMINERS,
    STOPWORDS,
    Gender,
    is_female_pronoun,
    is_male_pronoun,
)
from renard_ray.textproc.graph import CO_OCCURS, MENTIONS, EdgeDict, Span
from renard_ray.textproc.names import parse_name, title_gender
from renard_ray.textproc.ner import Entity
from renard_ray.textproc.quotes import Quote
from renard_ray.textproc.relation import MAX_GAP, RELATION_VERBS
from renard_ray.textproc.tokenize import Tokenized
from renard_ray.textproc.unify import Character, Mention


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
        blocks: set[Span] = set()
        n_sents = len(tok.sent_bounds)
        for _, m in mentions:
            s0 = max(0, tok.sent_index_of_token(m.start) - dist)
            s1 = min(n_sents - 1, tok.sent_index_of_token(m.end - 1) + dist)
            start_tok = tok.sent_token_range(s0)[0]
            end_tok = tok.sent_token_range(s1)[1]
            blocks.add((start_tok, end_tok))
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
    # pair set of (i, j) apparition-order indices with i < j
    pairs: set[tuple[int, int]] = set()
    n = len(mentions)
    for block_start, block_end in blocks:
        in_block: list[int] = []
        for i in range(n):
            m = mentions[i][1]
            if m.start >= block_start and m.end <= block_end:
                in_block.append(i)
            if m.start > block_end:
                break
        for a in range(len(in_block)):
            for b in range(a + 1, len(in_block)):
                i, j = in_block[a], in_block[b]
                if mentions[i][0] == mentions[j][0]:
                    continue
                pairs.add((i, j))

    compute_polarity = sentence_polarities is not None and tok is not None
    edges: EdgeDict = {}
    for i, j in pairs:
        k1, m1 = mentions[i]
        k2, m2 = mentions[j]
        subj, obj = (k1, k2) if k1 <= k2 else (k2, k1)
        key = (subj, CO_OCCURS, obj)
        if key not in edges:
            edges[key] = [0.0, 0.0]
        edges[key][0] += 1.0
        if compute_polarity:
            s1 = tok.sent_index_of_token(m1.start)
            s2 = tok.sent_index_of_token(m2.start)
            window = sentence_polarities[s1 : s2 + 1]
            if window:
                edges[key][1] += max(window, key=abs)
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
    out = []
    for block_start, block_end in dynamic_blocks:
        block_mentions = [
            (k, m)
            for k, m in mentions
            if m.start >= block_start and m.end < block_end
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


def quote_mention_edges(
    quotes: list[Quote],
    speakers: list[str | None],
    characters: list[Character],
    ignore_self_mention: bool = True,
) -> EdgeDict:
    """Directed speaker -> mentioned-character edges for mentions inside
    quotes (``graph_extraction.py:601-632``): one increment per
    (quote, mentioned character)."""
    edges: EdgeDict = {}
    keys = [_char_key(c) for c in characters]
    for quote, speaker in zip(quotes, speakers):
        if speaker is None:
            continue
        for c, key in zip(characters, keys):
            if key == speaker and ignore_self_mention:
                continue
            if any(
                m.start >= quote.start and m.end <= quote.end for m in c.mentions
            ):
                ekey = (speaker, MENTIONS, key)
                if ekey not in edges:
                    edges[ekey] = [0.0, 0.0]
                edges[ekey][0] += 1.0
    return edges


def extract_sentence_relations(
    tokens: list[str],
    tok: Tokenized,
    characters: list[Character],
) -> list[list[tuple[str, str, str]]]:
    # mention start -> (end, char key), only named mentions
    mention_spans: list[tuple[int, int, str]] = []
    for c in characters:
        key = _char_key(c)
        for m in c.mentions:
            if m.surface in c.names:
                mention_spans.append((m.start, m.end, key))
    mention_spans.sort()

    n_sents = len(tok.sent_bounds)
    out: list[list[tuple[str, str, str]]] = [[] for _ in range(n_sents)]
    if not mention_spans or n_sents == 0:
        return out

    for s_i in range(n_sents):
        lo, hi = tok.sent_token_range(s_i)
        sent_mentions = [(a, b, k) for a, b, k in mention_spans if a >= lo and b <= hi]
        if len(sent_mentions) < 2:
            continue
        rels: list[tuple[str, str, str]] = []
        for i in range(len(sent_mentions)):
            a_start, a_end, a_key = sent_mentions[i]
            for j in range(i + 1, len(sent_mentions)):
                b_start, b_end, b_key = sent_mentions[j]
                if a_key == b_key:
                    continue
                # find a relation verb between the two mentions
                for t in range(a_end, min(b_start, a_end + MAX_GAP)):
                    lemma = RELATION_VERBS.get(tokens[t].lower())
                    if lemma is not None and b_start - t <= MAX_GAP:
                        rels.append((a_key, lemma, b_key))
                        break
        out[s_i] = rels
    return out


def _mention_from_entity(e: Entity, tokens: list[str]) -> Mention:
    return Mention(e.start, e.end, e.surface(tokens))


def assign_coreference_mentions(
    characters: list[Character], corefs: list[list[Span]], tokens: list[str]
) -> list[Character]:
    """Assign each coref chain to the character whose names occur most
    in the chain; discard chains with zero name occurrences
    (reference: ``character_unification.py:48-96``)."""
    char_mentions: list[set[tuple[int, int, str]]] = [
        {(m.start, m.end, m.surface) for m in c.mentions} for c in characters
    ]
    for chain in corefs:
        if not characters:
            break
        chain_mentions = [
            Mention(s, e, " ".join(tokens[s:e])) for s, e in chain
        ]
        best_i, best_count = 0, -1
        for i, c in enumerate(characters):
            count = sum(1 for m in chain_mentions if m.surface in c.names)
            if count > best_count:
                best_i, best_count = i, count
        if best_count == 0:
            continue
        for m in chain_mentions:
            char_mentions[best_i].add((m.start, m.end, m.surface))
    return [
        Character(
            c.names,
            [Mention(*t) for t in sorted(ms)],
            c.gender,
        )
        for c, ms in zip(characters, char_mentions)
    ]

def _strip_leading_determiner(name: str, lang: str) -> str:
    low = name.lower()
    for det in SINGULAR_DETERMINERS.get(lang, frozenset()):
        if low.startswith(det + " "):
            return name[len(det) + 1 :]
    return name


def _names_related_after_title_removal(
    name1: str, name2: str, lang: str, gaz: HypocorismGazetteer
) -> bool:
    """``character_unification.py:380-396``."""
    raw1 = parse_name(name1, lang).without_title
    raw2 = parse_name(name2, lang).without_title
    if raw1 == "" or raw2 == "":
        return False
    return raw1.lower() == raw2.lower() or gaz.are_related(raw1, raw2)


def _names_in_same_coref(
    name1: str, name2: str, corefs: list[list[Span]], tokens: list[str]
) -> bool:
    """``character_unification.py:398-409``: every chain containing one
    must contain the other, and at least one chain contains both."""
    once_together = False
    for chain in corefs:
        surfs = {" ".join(tokens[s:e]) for s, e in chain}
        in1, in2 = name1 in surfs, name2 in surfs
        if in1 != in2:
            return False
        if in1 and in2:
            once_together = True
    return once_together


def _infer_name_gender(
    name: str,
    corefs: list[list[Span]] | None,
    tokens: list[str],
    lang: str,
) -> Gender:
    """``character_unification.py:411-452``: title first, else majority
    of gendered pronouns across coref chains containing the name."""
    g = Gender(title_gender(parse_name(name, lang).title, lang))
    if g != Gender.UNKNOWN:
        return g
    if corefs is None:
        return Gender.UNKNOWN
    male = female = 0
    for chain in corefs:
        surfs = {" ".join(tokens[s:e]) for s, e in chain}
        if name not in surfs:
            continue
        for surf in surfs:
            if is_male_pronoun(surf, lang):
                male += 1
            elif is_female_pronoun(surf, lang):
                female += 1
    if male == female:
        return Gender.UNKNOWN
    return Gender.MALE if male > female else Gender.FEMALE


def _cut_shortest_paths(G: nx.Graph, a: str, b: str) -> None:
    """Remove the first edge of every shortest path between a and b
    (see module docstring: this is the reference's effective behavior)."""
    try:
        paths = list(nx.all_shortest_paths(G, source=a, target=b))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return
    edges = {(p[0], p[1]) for p in paths if len(p) >= 2}
    G.remove_edges_from(edges)


def graph_rules_unify(
    tokens: list[str],
    entities: list[Entity],
    corefs: list[list[Span]] | None = None,
    lang: str = "eng",
    min_appearances: int = 0,
    link_corefs_mentions: bool = False,
    ignore_lone_titles: frozenset[str] | None = None,
    ignore_leading_determiner: bool = False,
    hypocorisms: HypocorismGazetteer | None = None,
    character_tag: str = "PER",
) -> list[Character]:
    gaz = hypocorisms or shared_gazetteer(lang if lang == "eng" else "eng")
    ignore_lone = ignore_lone_titles or frozenset()

    mentions = [
        _mention_from_entity(e, tokens) for e in entities if e.tag == character_tag
    ]
    names = sorted({m.surface for m in mentions if m.surface not in ignore_lone})

    def prep(name: str) -> str:
        if ignore_leading_determiner:
            return _strip_leading_determiner(name, lang)
        return name

    G: nx.Graph = nx.Graph()
    G.add_nodes_from(names)

    parsed = {n: parse_name(prep(n), lang) for n in names}

    # positive rules (``character_unification.py:242-282``)
    for n1, n2 in combinations(names, 2):
        p1, p2 = prep(n1), prep(n2)
        if gaz.are_related(p1, p2):
            G.add_edge(n1, n2)
            continue
        if _names_related_after_title_removal(p1, p2, lang, gaz):
            G.add_edge(n1, n2)
            continue
        h1, h2 = parsed[n1], parsed[n2]
        if h1.last and h1.last.lower() == h2.last.lower():
            G.add_edge(n1, n2)
            continue
        if h1.first and h1.first.lower() == h2.first.lower():
            G.add_edge(n1, n2)
            continue
        if corefs is not None and link_corefs_mentions:
            if _names_in_same_coref(n1, n2, corefs, tokens):
                G.add_edge(n1, n2)

    genders = {n: _infer_name_gender(n, corefs, tokens, lang) for n in names}

    # negative rules (``character_unification.py:299-327``)
    for n1, n2 in combinations(names, 2):
        h1, h2 = parsed[n1], parsed[n2]
        if (
            h1.last
            and h2.last
            and h1.first
            and h2.first
            and h1.last.lower() == h2.last.lower()
            and h1.first.lower() != h2.first.lower()
        ):
            _cut_shortest_paths(G, n1, n2)
            continue
        g1, g2 = genders[n1], genders[n2]
        if g1 != g2 and g1 != Gender.UNKNOWN and g2 != Gender.UNKNOWN:
            _cut_shortest_paths(G, n1, n2)

    # components -> characters with majority gender
    # (``character_unification.py:330-342``)
    characters: list[Character] = []
    for comp in sorted(nx.connected_components(G), key=lambda c: sorted(c)):
        comp_names = sorted(comp)
        counts = Counter(genders[n] for n in comp_names)
        gender = max(counts, key=lambda g: (counts[g], -int(g)))
        characters.append(
            Character(
                frozenset(comp_names),
                [m for m in mentions if m.surface in comp],
                gender,
            )
        )

    if corefs is not None:
        characters = assign_coreference_mentions(characters, corefs, tokens)

    # min-appearances over *named* mentions (``character_unification.py:349-355``)
    characters = [
        c
        for c in characters
        if sum(1 for m in c.mentions if m.surface in c.names) >= min_appearances
    ]
    return characters


# ------------------------------------------------- tagging, coref, polarity
# (copied before each distinct token was classified once per document)


def _is_capitalized_word(tok: str) -> bool:
    return len(tok) > 1 and tok[0].isupper() and tok[1:].islower() and tok.isalpha()


def rule_ner_tags(
    tokens: list[str],
    sent_bounds: list[int],
    lang: str = "eng",
) -> list[str]:
    """Deterministic rule NER producing BIO tags (class ``PER``).

    Rules (two passes over the document):
    1. Collect an in-document gazetteer of capitalized words seen at a
       non-sentence-initial position (these are proper-noun evidence).
    2. Tag runs: a title token (``Mr.`` …) followed by a capitalized
       word starts a PER span including the title; a capitalized word
       that is (a) not sentence-initial, or (b) sentence-initial but in
       the in-doc gazetteer, starts/continues a PER span.  Stopwords
       never start a span.
    """
    titles = ALL_TITLES.get(lang, frozenset())
    sent_starts = {0}
    for b in sent_bounds[:-1]:
        sent_starts.add(b)

    # pass 1: in-doc proper-noun gazetteer
    evidence: set[str] = set()
    for i, tok in enumerate(tokens):
        if i not in sent_starts and _is_capitalized_word(tok):
            if tok.lower() not in STOPWORDS and tok.lower() not in titles:
                evidence.add(tok)

    tags = ["O"] * len(tokens)
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        low = tok.lower()
        is_title = low in titles
        starts_sentence = i in sent_starts

        if is_title and i + 1 < n and _is_capitalized_word(tokens[i + 1]):
            tags[i] = "B-PER"
            j = i + 1
            while j < n and _is_capitalized_word(tokens[j]) and tokens[j].lower() not in STOPWORDS:
                tags[j] = "I-PER"
                j += 1
            i = j
            continue

        if (
            _is_capitalized_word(tok)
            and low not in STOPWORDS
            and not is_title
            and (not starts_sentence or tok in evidence)
        ):
            tags[i] = "B-PER"
            j = i + 1
            while (
                j < n
                and _is_capitalized_word(tokens[j])
                and tokens[j].lower() not in STOPWORDS
                and tokens[j].lower() not in titles
            ):
                tags[j] = "I-PER"
                j += 1
            i = j
            continue

        i += 1
    return tags


def resolve_corefs(
    tokens: list[str],
    entities: list[Entity],
    lang: str = "eng",
    max_dist: int = 50,
    character_tag: str = "PER",
) -> list[list[Span]]:
    persons = [e for e in entities if e.tag == character_tag]
    if not persons:
        return []

    # chains keyed by antecedent surface string, seeded with the first
    # name mention of that string
    chain_order: list[str] = []
    chains: dict[str, list[Span]] = {}
    name_gender: dict[str, Gender] = {}
    for ent in persons:
        surf = ent.surface(tokens)
        if surf not in chains:
            chain_order.append(surf)
            chains[surf] = []
            name_gender[surf] = Gender(title_gender(parse_name(surf, lang).title, lang))
        chains[surf].append((ent.start, ent.end))

    ent_by_pos = sorted(persons, key=lambda e: e.start)
    ends = [e.end for e in ent_by_pos]

    inside = [False] * len(tokens)
    for e in persons:
        for i in range(e.start, e.end):
            inside[i] = True

    import bisect

    for i, tok in enumerate(tokens):
        if inside[i]:
            continue
        if is_male_pronoun(tok, lang):
            want = Gender.MALE
        elif is_female_pronoun(tok, lang):
            want = Gender.FEMALE
        else:
            continue
        # nearest preceding mention with compatible gender
        k = bisect.bisect_right(ends, i) - 1
        while k >= 0:
            ent = ent_by_pos[k]
            if i - ent.end > max_dist:
                break
            surf = ent.surface(tokens)
            g = name_gender[surf]
            if g == want or g == Gender.UNKNOWN:
                chains[surf].append((i, i + 1))
                break
            k -= 1

    # only chains that actually corefer (>= 2 mentions) are emitted
    out = []
    for surf in chain_order:
        chain = sorted(chains[surf])
        if len(chain) >= 2:
            out.append(chain)
    return out


_NEGATORS = frozenset({"not", "no", "never", "n't", "neither", "nor"})


def sentence_polarity(sentence_tokens: list[str]) -> float:
    score = 0.0
    prev = ""  # the previous token, lower-cased
    for tok in sentence_tokens:
        low = tok.lower()
        val = 0.0
        if low in POSITIVE_WORDS:
            val = 1.0
        elif low in NEGATIVE_WORDS:
            val = -1.0
        if val != 0.0 and prev in _NEGATORS:
            val = -val
        score += val
        prev = low
    if score == 0.0:
        return 0.0
    # VADER-style normalization: score / sqrt(score^2 + alpha)
    return score / math.sqrt(score * score + 15.0)


def sentence_polarities(sentences: list[list[str]]) -> list[float]:
    return [sentence_polarity(s) for s in sentences]
