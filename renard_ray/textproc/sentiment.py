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
