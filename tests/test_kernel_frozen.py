"""The per-document kernel steps against their frozen reference copy.

``frozen_kernel.py`` holds the nested-scan versions of the edge,
relation, quote-mention, unify and coref-assignment steps, and the
per-token versions of the NER tagger, the coref resolver and the
sentence polarities; the live steps are sorted sweeps and
once-per-distinct-token classifications over the same inputs. Every
test asserts equal characters, tags, chains, sentence relations and
EdgeDicts, the latter also float-bit for float-bit and in insertion
order: a pair visited in another order sums its polarities to different
bits. Polarities are compared bit for bit too. The unifier's alias-graph
helpers are checked against networkx itself. No Ray.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frozen_kernel as frozen
from renard_ray.resources.hypocorisms import HypocorismGazetteer
from renard_ray.sources.pages import generate_page_text
from renard_ray.textproc import graph, relation, unify
from renard_ray.textproc.coref import resolve_corefs
from renard_ray.textproc.document import _paragraph_token_blocks
from renard_ray.textproc.ner import Entity, bio_to_entities, extract_entities, rule_ner_tags
from renard_ray.textproc.quotes import Quote, detect_quotes
from renard_ray.textproc.sentiment import sentence_polarities, sentence_polarity
from renard_ray.textproc.speaker import attribute_speakers
from renard_ray.textproc.tokenize import Tokenized, tokenize
from renard_ray.textproc.unify import Character, Mention


def _bits(edges: graph.EdgeDict) -> list[tuple]:
    return [(k, w.hex(), p.hex()) for k, (w, p) in edges.items()]


def _same_edges(live: graph.EdgeDict, ref: graph.EdgeDict) -> None:
    assert live == ref
    assert _bits(live) == _bits(ref)


def _same_edge_lists(live: list[graph.EdgeDict], ref: list[graph.EdgeDict]) -> None:
    assert len(live) == len(ref)
    for a, b in zip(live, ref):
        _same_edges(a, b)


def _check_edges(characters, tok, tokens, polarities, quotes, speakers, paragraphs):
    """Every edge and relation step, live vs frozen, on one document."""
    for dist in [(1, "sentences"), (2, "sentences"), (0, "tokens"), (5, "tokens")]:
        for pols in (None, polarities):
            _same_edges(
                graph.co_occurrence_edges(characters, tok, dist, sentence_polarities=pols),
                frozen.co_occurrence_edges(characters, tok, dist, sentence_polarities=pols),
            )
        for window, overlap in [(1, 0), (3, 1), (6, 2)]:
            _same_edge_lists(
                graph.dynamic_co_occurrence_edges(
                    characters, tok, dist, dynamic_window=window,
                    dynamic_overlap=overlap, sentence_polarities=polarities,
                ),
                frozen.dynamic_co_occurrence_edges(
                    characters, tok, dist, dynamic_window=window,
                    dynamic_overlap=overlap, sentence_polarities=polarities,
                ),
            )
        _same_edge_lists(
            graph.dynamic_co_occurrence_edges(
                characters, tok, dist, dynamic_blocks=paragraphs,
                sentence_polarities=polarities,
            ),
            frozen.dynamic_co_occurrence_edges(
                characters, tok, dist, dynamic_blocks=paragraphs,
                sentence_polarities=polarities,
            ),
        )
    # caller-supplied co-occurrence blocks
    _same_edges(
        graph.co_occurrence_edges(
            characters, tok, sentence_polarities=polarities, co_occurrences_blocks=paragraphs
        ),
        frozen.co_occurrence_edges(
            characters, tok, sentence_polarities=polarities, co_occurrences_blocks=paragraphs
        ),
    )
    for ignore_self in (True, False):
        _same_edges(
            graph.quote_mention_edges(quotes, speakers, characters, ignore_self),
            frozen.quote_mention_edges(quotes, speakers, characters, ignore_self),
        )
    assert relation.extract_sentence_relations(
        tokens, tok, characters
    ) == frozen.extract_sentence_relations(tokens, tok, characters)


# ---------------------------------------------------------------- pages


def _long_page(seed: int) -> str:
    """A several-KB narrative page: 12 generated pages as paragraphs."""
    return "\n\n".join(generate_page_text(seed * 100 + k, seed) for k in range(12))


def test_kernel_matches_frozen_on_long_pages():
    for seed in range(6):
        text = _long_page(seed)
        assert len(text) > 3000
        tok = tokenize(text)
        tokens = tok.tokens(text)
        entities = extract_entities(tokens, tok.sent_bounds, "eng")
        corefs = resolve_corefs(tokens, entities, "eng")

        for corefs_arg, kwargs in [
            (corefs, {}),
            (corefs, {"link_corefs_mentions": True}),
            (corefs, {"ignore_leading_determiner": True, "min_appearances": 2}),
            (corefs, {"ignore_lone_titles": frozenset({"Mr.", "Miss"})}),
            (None, {}),
        ]:
            live = unify.graph_rules_unify(tokens, entities, corefs_arg, **kwargs)
            ref = frozen.graph_rules_unify(tokens, entities, corefs_arg, **kwargs)
            assert live == ref

        naive = unify.naive_unify(tokens, entities)
        assert unify.assign_coreference_mentions(
            naive, corefs, tokens
        ) == frozen.assign_coreference_mentions(naive, corefs, tokens)

        characters = unify.graph_rules_unify(tokens, entities, corefs, min_appearances=1)
        assert len(characters) >= 2
        bounds = tok.sent_bounds
        polarities = sentence_polarities(
            [tokens[a:b] for a, b in zip([0, *bounds], bounds)]
        )
        assert any(p != 0.0 for p in polarities)
        quotes = detect_quotes(tokens)
        speakers = attribute_speakers(tokens, quotes, characters)
        assert quotes and any(s is not None for s in speakers)
        assert any(relation.extract_sentence_relations(tokens, tok, characters))
        _check_edges(
            characters, tok, tokens, polarities, quotes, speakers,
            _paragraph_token_blocks(text, tok),
        )


# --------------------------------------------------------------- layouts

_VOCAB = ["x", "and", "loves", "met", "helped", "the", "said", ","]


@st.composite
def layouts(draw):
    """A document of ``n`` tokens: random sentence bounds, characters
    whose mentions (named or not) sit anywhere, quotes with speakers,
    sentence polarities and arbitrary blocks."""
    n = draw(st.integers(0, 60))
    cuts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=12)) if n > 1 else set()
    sent_bounds = sorted(c for c in cuts if c < n) + ([n] if n else [])
    tok = Tokenized(list(range(n)), list(range(1, n + 1)), sent_bounds)
    tokens = [draw(st.sampled_from(_VOCAB)) for _ in range(n)]

    n_chars = draw(st.integers(1, 5))
    characters = []
    for ci in range(n_chars):
        names = frozenset({f"C{ci}", f"C{ci} Jr"} if ci % 2 else {f"C{ci}"})
        mentions = []
        if n:
            for start, length, named in draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(1, 3), st.booleans()),
                    max_size=8,
                )
            ):
                surface = sorted(names)[0] if named else "he"
                mentions.append(Mention(start, min(n, start + length), surface))
        characters.append(Character(names, mentions))

    polarities = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False),
            min_size=len(sent_bounds), max_size=len(sent_bounds),
        )
    )
    keys = [graph._char_key(c) for c in characters]
    spans = st.tuples(st.integers(0, max(n, 1)), st.integers(0, 8)).map(
        lambda t: (t[0], t[0] + t[1])
    )
    quotes, speakers = [], []
    for a, b in draw(st.lists(spans, max_size=6)):
        quotes.append(Quote(a, max(a + 1, b)))
        speakers.append(draw(st.sampled_from([None, *keys])))
    blocks = draw(st.lists(spans, max_size=6))
    return characters, tok, tokens, polarities, quotes, speakers, blocks


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_edges_and_relations_match_frozen_on_layouts(doc):
    _check_edges(*doc)


def test_empty_and_single_mention_documents():
    empty = Tokenized([], [], [])
    one = Tokenized([0, 1, 2], [1, 2, 3], [3])
    for tok, chars in [
        (empty, []),
        (empty, [Character(frozenset({"A"}))]),
        (one, [Character(frozenset({"A"}), [Mention(1, 2, "A")])]),
        (one, [Character(frozenset({"A"}), [Mention(1, 2, "A")]), Character(frozenset({"B"}))]),
    ]:
        n_sents = len(tok.sent_bounds)
        quotes = [Quote(0, 3)] if n_sents else []
        speakers = ["B"] if n_sents else []
        _check_edges(
            chars, tok, ["x"] * tok.n_tokens(), [0.5] * n_sents, quotes, speakers,
            [(0, tok.n_tokens())],
        )


_NAME_VOCAB = [
    "Mr.", "Mrs.", "Miss", "Dr.", "the", "Elizabeth", "Lizzy", "Bennet",
    "Darcy", "Jane", "Janie", "William", "Bill", "he", "she", "him", "her",
]


@st.composite
def unify_inputs(draw):
    n = draw(st.integers(1, 40))
    tokens = [draw(st.sampled_from(_NAME_VOCAB)) for _ in range(n)]
    span = st.tuples(st.integers(0, n - 1), st.integers(1, 3)).map(
        lambda t: (t[0], min(n, t[0] + t[1]))
    )
    entities = [
        Entity(a, b, draw(st.sampled_from(["PER", "PER", "LOC"])))
        for a, b in draw(st.lists(span, max_size=12))
    ]
    corefs = draw(st.none() | st.lists(st.lists(span, min_size=1, max_size=5), max_size=5))
    return tokens, entities, corefs


@settings(max_examples=300, deadline=None)
@given(
    unify_inputs(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2),
)
def test_unify_matches_frozen(inputs, link_corefs, strip_determiner, min_appearances):
    tokens, entities, corefs = inputs
    kwargs = {
        "link_corefs_mentions": link_corefs,
        "ignore_leading_determiner": strip_determiner,
        "min_appearances": min_appearances,
    }
    assert unify.graph_rules_unify(
        tokens, entities, corefs, **kwargs
    ) == frozen.graph_rules_unify(tokens, entities, corefs, **kwargs)


@settings(max_examples=200, deadline=None)
@given(
    unify_inputs(),
    st.lists(st.sets(st.sampled_from(_NAME_VOCAB[5:]), max_size=3), max_size=5),
)
def test_assign_coreference_mentions_matches_frozen(inputs, name_sets):
    """Characters whose name sets overlap count a chain surface each."""
    tokens, entities, corefs = inputs
    characters = [
        Character(frozenset(ns), [Mention(e.start, e.end, e.surface(tokens))])
        for ns, e in zip(name_sets, entities)
    ]
    assert unify.assign_coreference_mentions(
        characters, corefs or [], tokens
    ) == frozen.assign_coreference_mentions(characters, corefs or [], tokens)


def test_are_related_matches_reference_rule():
    """``are_related`` (now a ``related_names`` membership test) against
    the pairwise rule it replaced, including a user-added empty nickname."""
    gaz = HypocorismGazetteer(additional_hypocorisms=[("Zed", ["", "Z"])])

    def pairwise(name1: str, name2: str) -> bool:
        if name1 == "" or name2 == "":
            return False
        n1, n2 = name1.lower(), name2.lower()
        return (
            n1 == n2
            or n2 in gaz.name_to_nicknames.get(n1, ())
            or n2 in gaz.nickname_to_names.get(n1, ())
        )

    names = ["", "Elizabeth", "lizzy", "LIZZY", "Beth", "William", "Bill", "Jane", "Zed", "z"]
    for a in names:
        for b in names:
            assert gaz.are_related(a, b) == pairwise(a, b)
    assert gaz.are_related("Lizzy", "ELIZABETH") and gaz.are_related("Z", "zed")


# ------------------------------------------------ tagging, coref, polarity


def _sentences(tokens: list[str], bounds: list[int]) -> list[list[str]]:
    return [tokens[a:b] for a, b in zip([0, *bounds], bounds)]


def _same_tagging(tokens: list[str], bounds: list[int], max_dist: int = 50) -> None:
    """Tags, chains and polarity bits of one document, live vs frozen."""
    tags = rule_ner_tags(tokens, bounds)
    assert tags == frozen.rule_ner_tags(tokens, bounds)
    entities = bio_to_entities(tags)
    for tag in ("PER", "LOC"):
        assert resolve_corefs(
            tokens, entities, "eng", max_dist, character_tag=tag
        ) == frozen.resolve_corefs(tokens, entities, "eng", max_dist, character_tag=tag)
    sentences = _sentences(tokens, bounds)
    live = [p.hex() for p in sentence_polarities(sentences)]
    assert live == [p.hex() for p in frozen.sentence_polarities(sentences)]
    assert [sentence_polarity(s).hex() for s in sentences] == live


def test_tagging_matches_frozen_on_long_pages():
    for seed in range(6):
        text = _long_page(seed)
        tok = tokenize(text)
        tokens = tok.tokens(text)
        assert any(t != "O" for t in rule_ner_tags(tokens, tok.sent_bounds))
        _same_tagging(tokens, tok.sent_bounds)


# titles, stopwords (some capitalized), capitalized words, pronouns in
# any case, valence words, negators and punctuation
_TAG_VOCAB = [
    "Mr.", "mr.", "MR.", "Mrs.", "Miss", "miss", "Lady", "Sir", "M.",
    "the", "The", "And", "and", "of", "She", "she", "He", "he", "HIM",
    "her", "his", "Himself", "herself", "it", "Elizabeth", "Darcy",
    "Bennet", "London", "Jane", "X", "Ab1", "O'Neil", "happy", "Happy",
    "bad", "ANGRY", "amiable", "not", "Not", "NEVER", "n't", "nor",
    "no", ",", ".", "said", "was",
]


@st.composite
def token_streams(draw):
    """Tokens from ``_TAG_VOCAB`` with random sentence bounds, so each
    kind of word also lands at sentence starts."""
    tokens = draw(st.lists(st.sampled_from(_TAG_VOCAB), max_size=80))
    n = len(tokens)
    cuts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=20)) if n > 1 else set()
    bounds = sorted(c for c in cuts if c < n) + ([n] if n else [])
    return tokens, bounds


@settings(max_examples=400, deadline=None)
@given(token_streams(), st.sampled_from([0, 3, 50]))
def test_tagging_matches_frozen(stream, max_dist):
    tokens, bounds = stream
    _same_tagging(tokens, bounds, max_dist)


# ------------------------------------------------------- alias graph


@st.composite
def graphs_and_cuts(draw):
    """A random undirected graph on up to 8 nodes and a sequence of
    node pairs to cut, in order."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    cuts = draw(st.lists(st.sampled_from(pairs), max_size=6))
    return nodes, edges, cuts


def _edge_set(adj: dict[str, set[str]]) -> set[frozenset[str]]:
    return {frozenset((a, b)) for a, nbrs in adj.items() for b in nbrs}


@settings(max_examples=400, deadline=None)
@given(graphs_and_cuts())
# a 4-cycle: two equal-length shortest paths from n0 to n2, then cut again
@example((["n0", "n1", "n2", "n3"], [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n0", "n3")],
          [("n0", "n2"), ("n0", "n2"), ("n1", "n3")]))
# disconnected pair
@example((["n0", "n1", "n2"], [("n0", "n1")], [("n0", "n2"), ("n2", "n1")]))
def test_cut_and_components_match_networkx(case):
    """``_cut_shortest_paths`` removes exactly the first edges of the
    ``nx.all_shortest_paths`` paths, cut after cut, and ``_components``
    gives ``nx.connected_components``."""
    nodes, edges, cuts = case
    G = nx.Graph()
    G.add_nodes_from(nodes)
    G.add_edges_from(edges)
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for a, b in cuts:
        try:
            paths = list(nx.all_shortest_paths(G, a, b))
        except nx.NetworkXNoPath:
            paths = []
        G.remove_edges_from({(p[0], p[1]) for p in paths})
        unify._cut_shortest_paths(adj, a, b)
        assert _edge_set(adj) == {frozenset(e) for e in G.edges}
        assert all(b in adj[a] for b in adj for a in adj[b])  # symmetric
        assert sorted(map(sorted, unify._components(adj))) == sorted(
            map(sorted, nx.connected_components(G))
        )
