"""Unit + property tests for the pure per-document kernels.

Ports the reference's test strategy (SURVEY.md §5): hypothesis
properties from ``tests/test_tokenization.py``, ``test_quote_detection
.py``, ``test_ner.py``, ``test_graph_extraction.py``,
``test_character_unification.py``, ``test_graph_utils.py``."""

from __future__ import annotations

import itertools
import os
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from renard_ray.textproc.graph import (
    CO_OCCURS,
    co_occurrence_edges,
    cumulative_edge_dicts,
    dynamic_co_occurrence_edges,
)
from renard_ray.textproc.html import extract_text, wrap_text_as_html
from renard_ray.textproc.ner import Entity, bio_to_entities, rule_ner_tags
from renard_ray.textproc.quotes import detect_quotes
from renard_ray.textproc.sentiment import sentence_polarity
from renard_ray.textproc.tokenize import Tokenized, make_char2token, tokenize
from renard_ray.textproc.unify import (
    Character,
    Mention,
    assign_coreference_mentions,
    graph_rules_unify,
    naive_unify,
)


# ---------- tokenization (ref: tests/test_tokenization.py:20-26) ----------


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_tokens_equal_flattened_sentences(text: str):
    tok = tokenize(text)
    toks = tok.tokens(text)
    flat = [w for s in tok.sentences(text) for w in s]
    assert toks == flat
    # offsets are valid, ordered, non-overlapping
    prev_end = -1
    for s, e in zip(tok.token_starts, tok.token_ends):
        assert 0 <= s < e <= len(text)
        assert s >= prev_end
        prev_end = e


def test_tokenize_sentences_and_abbrevs():
    text = 'Mr. Darcy met Lizzy. "Hello!" said Jane. She smiled.'
    tok = tokenize(text)
    sents = tok.sentences(text)
    assert sents[0] == ["Mr.", "Darcy", "met", "Lizzy", "."]
    # a sentence ender absorbs an adjacent closing quote
    assert sents[1] == ['"', "Hello", "!", '"']
    assert sents[2] == ["said", "Jane", "."]
    assert sents[3] == ["She", "smiled", "."]


def test_make_char2token_gaps():
    text = "ab  cd"
    tok = tokenize(text)
    c2t = make_char2token(len(text), tok.token_starts, tok.token_ends)
    assert c2t == [0, 0, 0, 0, 1, 1]


# ---------- quotes (ref: tests/test_quote_detection.py:9-38) ----------


@given(
    st.text(alphabet=string.ascii_letters + " ", max_size=30),
    st.text(alphabet=string.ascii_letters + " ", max_size=30),
    st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=30),
    st.sampled_from([('"', '"'), ("``", "''"), ("«", "»"), ("“", "”")]),
)
@settings(max_examples=100, deadline=None)
def test_quote_recovered(pre: str, post: str, inner: str, pair):
    text = f"{pre} {pair[0]}{inner}{pair[1]} {post}"
    tok = tokenize(text)
    toks = tok.tokens(text)
    quotes = detect_quotes(toks)
    assert len(quotes) == 1
    q = quotes[0]
    assert toks[q.start] == pair[0]
    assert toks[q.end - 1] == pair[1]


def test_no_quote_chars_no_quotes():
    tok_text = "plain text without quotes here"
    toks = tokenize(tok_text).tokens(tok_text)
    assert detect_quotes(toks) == []


# ---------- NER BIO decode (ref: tests/test_ner.py:30-34; ner_utils.py:126-180) ----


@given(st.lists(st.sampled_from(string.ascii_uppercase), max_size=20))
def test_all_b_tags_one_entity_per_token(tokens):
    tags = ["B-PER"] * len(tokens)
    ents = bio_to_entities(tags)
    assert len(ents) == len(tokens)
    for i, e in enumerate(ents):
        assert (e.start, e.end, e.tag) == (i, i + 1, "PER")


def test_bio_inconsistency_resolution():
    # I- without B- starts an entity when resolving
    ents = bio_to_entities(["O", "I-PER", "I-PER", "O"])
    assert ents == [Entity(1, 3, "PER")]
    assert bio_to_entities(["O", "I-PER", "O"], resolve_inconsistencies=False) == []
    # B-/I- class change
    ents = bio_to_entities(["B-PER", "I-LOC", "B-LOC"])
    assert ents == [Entity(0, 2, "PER"), Entity(2, 3, "LOC")]


def test_rule_ner_basic():
    text = "Yesterday Mr. Darcy met Elizabeth Bennet. Walking was nice."
    tok = tokenize(text)
    toks = tok.tokens(text)
    tags = rule_ner_tags(toks, tok.sent_bounds)
    ents = bio_to_entities(tags)
    surfaces = {e.surface(toks) for e in ents}
    assert "Mr. Darcy" in surfaces
    assert "Elizabeth Bennet" in surfaces
    # sentence-initial ordinary words are not entities
    assert "Yesterday" not in surfaces
    assert "Walking" not in surfaces


# ---------- co-occurrence graph (ref: tests/test_graph_extraction.py:30-64) ----


def _chars_from_letter_tokens(tokens: list[str]) -> list[Character]:
    ents = bio_to_entities(["B-PER"] * len(tokens))
    by_name: dict[str, list[Mention]] = {}
    for e in ents:
        by_name.setdefault(tokens[e.start], []).append(
            Mention(e.start, e.end, tokens[e.start])
        )
    return [Character(frozenset([n]), ms) for n, ms in by_name.items()]


def _single_sentence_tok(tokens: list[str]) -> Tokenized:
    n = len(tokens)
    return Tokenized(list(range(n)), list(range(1, n + 1)), [n] if n else [])


@given(st.lists(st.sampled_from(string.ascii_uppercase), max_size=7))
@settings(max_examples=200, deadline=None)
def test_basic_graph_extraction(tokens):
    characters = _chars_from_letter_tokens(tokens)
    tok = _single_sentence_tok(tokens)
    edges = co_occurrence_edges(characters, tok, (len(tokens), "tokens"))

    # independently computed expectation (as the reference test does)
    expected: dict[tuple[str, str, str], float] = {}
    for i, j in itertools.combinations(range(len(tokens)), 2):
        a, b = tokens[i], tokens[j]
        if a == b:
            continue
        key = (min(a, b), CO_OCCURS, max(a, b))
        expected[key] = expected.get(key, 0.0) + 1.0

    got = {k: v[0] for k, v in edges.items()}
    assert got == expected


@given(
    st.lists(st.sampled_from(string.ascii_uppercase), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_dynamic_graph_extraction(tokens, window):
    characters = _chars_from_letter_tokens(tokens)
    tok = _single_sentence_tok(tokens)
    out = dynamic_co_occurrence_edges(
        characters, tok, (len(tokens), "tokens"), dynamic_window=window
    )
    assert isinstance(out, list)
    assert len(out) > 0


def test_sentence_unit_distance():
    sent1 = ["A", "B"]
    sent2 = ["C", "D"]
    tokens = sent1 + sent2
    characters = _chars_from_letter_tokens(tokens)
    tok = Tokenized(list(range(4)), list(range(1, 5)), [2, 4])
    edges = co_occurrence_edges(characters, tok, (1, "sentences"))
    assert len(edges) > 0
    # distance 0 sentences: only same-sentence pairs
    edges0 = co_occurrence_edges(characters, tok, (0, "sentences"))
    assert set(edges0) == {("A", CO_OCCURS, "B"), ("C", CO_OCCURS, "D")}


def test_polarity_attribute():
    tokens = ["A", "B"]
    characters = _chars_from_letter_tokens(tokens)
    tok = _single_sentence_tok(tokens)
    edges = co_occurrence_edges(characters, tok, (10, "tokens"), [1.0])
    ((_, v),) = edges.items()
    assert v[1] != 0.0


def test_cumulative_edges():
    d1 = {("A", CO_OCCURS, "B"): [1.0, 0.0]}
    d2 = {("A", CO_OCCURS, "B"): [2.0, 0.0], ("A", CO_OCCURS, "C"): [1.0, 0.0]}
    out = cumulative_edge_dicts([d1, d2])
    assert out[0][("A", CO_OCCURS, "B") if False else ("A", CO_OCCURS, "B")][0] == 1.0
    assert out[1][("A", CO_OCCURS, "B")][0] == 3.0
    assert out[1][("A", CO_OCCURS, "C")][0] == 1.0


# ---------- unification (ref: tests/test_character_unification.py + F4) ----


def test_coref_chain_assignment():
    # ref tests/test_character_unification.py:8-16
    tokens = ["John", "Traitor", "He", "smiled"]
    chars = [Character(frozenset(["John Traitor"]), [Mention(0, 2, "John Traitor")])]
    out = assign_coreference_mentions(chars, [[(0, 2), (2, 3)]], tokens)
    assert len(out) == 1
    assert {(m.start, m.end) for m in out[0].mentions} == {(0, 2), (2, 3)}


def _unify_names(names_and_genders: list[str], corefs=None, **kw):
    """Build one entity per name (sequential positions) and unify."""
    tokens: list[str] = []
    ents: list[Entity] = []
    for name in names_and_genders:
        parts = name.split()
        start = len(tokens)
        tokens.extend(parts)
        ents.append(Entity(start, len(tokens), "PER"))
    return graph_rules_unify(tokens, ents, corefs, **kw), tokens


def test_f4_hypocorism_link():
    chars, _ = _unify_names(["Elizabeth", "Lizzy"])
    assert len(chars) == 1
    assert chars[0].names == frozenset({"Elizabeth", "Lizzy"})


def test_f4_title_removal_link():
    chars, _ = _unify_names(["Mr. Darcy", "Darcy"])
    assert len(chars) == 1


def test_f4_same_last_name_link_and_first_name_cut():
    chars, _ = _unify_names(["Fitzwilliam Darcy", "Mr. Darcy"])
    assert len(chars) == 1
    chars, _ = _unify_names(["Fitzwilliam Darcy", "Georgiana Darcy"])
    assert len(chars) == 2


def test_f4_gender_conflict_cut():
    chars, _ = _unify_names(["Mr. Smith", "Mrs. Smith"])
    assert len(chars) == 2


def test_f4_lone_title_ignored():
    chars, _ = _unify_names(
        ["Mr.", "Elizabeth"], ignore_lone_titles=frozenset({"Mr."})
    )
    assert len(chars) == 1
    assert chars[0].names == frozenset({"Elizabeth"})


def test_f4_min_appearances():
    chars, _ = _unify_names(["Elizabeth", "Elizabeth", "Wickham"], min_appearances=2)
    assert len(chars) == 1
    assert "Elizabeth" in chars[0].names


def test_f4_coref_gender_inference():
    # name coreferent with 'she' => FEMALE (ref character_unification.py:431-452)
    from renard_ray.resources.lexicons import Gender

    tokens = ["Morgan", "said", "she", "was", "glad", ".", "Mr.", "Smith", "left", "."]
    ents = [Entity(0, 1, "PER"), Entity(6, 8, "PER")]
    corefs = [[(0, 1), (2, 3)]]
    chars = graph_rules_unify(tokens, ents, corefs)
    by_name = {next(iter(c.names)): c for c in chars}
    assert by_name["Morgan"].gender == Gender.FEMALE
    assert by_name["Mr. Smith"].gender == Gender.MALE


def test_naive_unifier():
    tokens = ["Anne", "met", "Anne", "and", "Basil"]
    ents = [Entity(0, 1, "PER"), Entity(2, 3, "PER"), Entity(4, 5, "PER")]
    chars = naive_unify(tokens, ents)
    assert {frozenset(c.names) for c in chars} == {
        frozenset({"Anne"}),
        frozenset({"Basil"}),
    }
    anne = next(c for c in chars if "Anne" in c.names)
    assert len(anne.mentions) == 2


# ---------- sentiment ----------


def test_sentiment_sign():
    assert sentence_polarity(["she", "was", "happy"]) > 0
    assert sentence_polarity(["she", "was", "miserable"]) < 0
    assert sentence_polarity(["she", "was", "not", "happy"]) < 0
    assert sentence_polarity(["the", "table"]) == 0.0


# ---------- html round-trip ----------


@given(
    st.lists(
        st.text(
            alphabet=string.ascii_letters + " .,&<>'\"!?",
            min_size=1,
            max_size=80,
        ).map(lambda s: " ".join(s.split())).filter(bool),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_html_roundtrip(paragraphs):
    text = "\n\n".join(paragraphs)
    assert extract_text(wrap_text_as_html(text)) == text


# ---------- NER context retrieval (ref: ner/retrieval.py:31-375) ----------


def test_context_retrievers():
    from renard_ray.textproc.retrieval import (
        bm25_context,
        ensemble_context,
        neighbors_context,
        samenoun_context,
    )

    sents = [
        "Elizabeth walked to Netherfield".split(),
        "Darcy spoke with Elizabeth".split(),
        "The weather was fine".split(),
        "Darcy went riding".split(),
    ]
    nb = neighbors_context(sents, k=2)
    assert nb[0] == [1] and nb[1] == [0, 2]

    sn = samenoun_context(sents, k=5, seed=1)
    assert 1 in sn[0]          # shares "Elizabeth"
    assert 3 in sn[1]          # shares "Darcy"
    assert sn[2] == []         # no shared content words
    assert sn == samenoun_context(sents, k=5, seed=1)  # deterministic

    bm = bm25_context(sents, k=2)
    assert 3 in bm[1]          # Darcy sentence retrieves Darcy sentence

    en = ensemble_context(sents, ["neighbors", "bm25"], k=2)
    assert set(nb[1]) <= set(en[1])


def test_neural_context_reranker():
    """Reference NERNeuralContextRetriever slot (retrieval.py:213-342):
    heuristic pre-match + scorer rerank, top-k above threshold;
    deterministic proxy scorer by default, pluggable model head."""
    from renard_ray.textproc.retrieval import (
        NeuralContextReranker,
        ensemble_context,
    )

    sents = [
        "Elizabeth walked to Netherfield with Darcy yesterday".split(),
        "Darcy spoke with Elizabeth about Netherfield".split(),
        "The weather was fine".split(),
        "Darcy went riding near Netherfield".split(),
        "Nothing shared here whatsoever".split(),
    ]
    rr = NeuralContextReranker(heuristic="bm25", k=2)
    out = rr.rerank_all(sents)
    assert out == rr.rerank_all(sents)  # deterministic
    assert 1 in out[0]  # highest-overlap context survives the rerank
    assert len(out[0]) <= 2
    assert out[4] == []  # nothing above threshold

    # k caps AFTER rerank, not before: with k=1 only the best survives
    rr1 = NeuralContextReranker(heuristic="bm25", k=1)
    assert all(len(c) <= 1 for c in rr1.rerank_all(sents))

    # a plugged-in scorer overrides the proxy (model slot interface)
    rr_model = NeuralContextReranker(
        heuristic="neighbors", k=1, scorer=lambda q, c: float(len(c) % 2)
    )
    assert all(
        all(len(sents[j]) % 2 == 1 for j in ctx)
        for ctx in rr_model.rerank_all(sents)
    )

    # participates in the ensemble alongside the heuristics
    en = ensemble_context(sents, ["neighbors", "neural"], k=2)
    assert set(en[0]) >= set(NeuralContextReranker(k=2).rerank_all(sents)[0])


def test_paragraph_dynamic_blocks():
    from renard_ray.textproc.document import (
        DocConfig,
        _paragraph_token_blocks,
        process_document,
    )
    from renard_ray.textproc.tokenize import tokenize

    # names mid-sentence so the in-doc-evidence NER rule tags them
    text = "Today Anna met Bella.\n\nToday Carla met Dora."
    tok = tokenize(text)
    blocks = _paragraph_token_blocks(text, tok)
    assert len(blocks) == 2
    toks = tok.tokens(text)
    assert toks[blocks[0][0]] == "Today" and toks[blocks[1][0]] == "Today"

    res = process_document(text, DocConfig(dynamic_blocks_unit="paragraphs"))
    assert res.is_dynamic and len(res.edge_blocks) == 2
    keys0 = {frozenset((s, o)) for (s, _, o) in res.edge_blocks[0]}
    keys1 = {frozenset((s, o)) for (s, _, o) in res.edge_blocks[1]}
    assert frozenset(("Anna", "Bella")) in keys0
    assert frozenset(("Carla", "Dora")) in keys1
    assert frozenset(("Anna", "Carla")) not in keys0 | keys1


def test_kernel_import_loads_no_graph_library():
    """Importing the flagship pipelines and the golden oracle (what every
    Ray worker running the kernel and every driver pays at start) does
    not import networkx: the unifier's alias graph is an adjacency map,
    and networkx stays with the GEXF sink."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "import renard_ray.pipelines.kg, renard_ray.pipelines.checkpoint, "
        "renard_ray.oracle.golden\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=repo, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
