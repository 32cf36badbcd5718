"""Lexicon sentiment: one compound polarity per sentence.

Capability parity with the reference's ``NLTKSentimentAnalyzer``
(``renard/pipeline/sentiment_analysis.py:7-39``), which scores each
space-joined sentence with VADER's compound score.  VADER's lexicon is
unavailable offline, so this is a small deterministic valence model with
the same interface/shape (float in [-1, 1] per sentence): normalized
difference of positive/negative lexicon hits, with simple negation
flipping ("not good" counts negative).
"""

from __future__ import annotations

import math

from renard_ray.resources.lexicons import NEGATIVE_WORDS, POSITIVE_WORDS

_NEGATORS = frozenset({"not", "no", "never", "n't", "neither", "nor"})


def sentence_polarities(sentences: list[list[str]]) -> list[float]:
    """One polarity per sentence. Each distinct token is classified once
    per call: (valence, negator), both read from its lower-cased form."""
    kinds: dict[str, tuple[float, bool]] = {}
    out: list[float] = []
    for sentence_tokens in sentences:
        score = 0.0
        negated = False  # the previous token is a negator
        for tok in sentence_tokens:
            kind = kinds.get(tok)
            if kind is None:
                low = tok.lower()
                val = 1.0 if low in POSITIVE_WORDS else -1.0 if low in NEGATIVE_WORDS else 0.0
                kind = kinds[tok] = (val, low in _NEGATORS)
            val, negator = kind
            if val != 0.0:
                score += -val if negated else val
            negated = negator
        if score == 0.0:
            out.append(0.0)
        else:
            # VADER-style normalization: score / sqrt(score^2 + alpha)
            out.append(score / math.sqrt(score * score + 15.0))
    return out


def sentence_polarity(sentence_tokens: list[str]) -> float:
    return sentence_polarities([sentence_tokens])[0]
