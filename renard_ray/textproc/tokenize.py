"""Deterministic regex tokenizer: sentence split + word tokenize with
character offsets.

Capability parity with the reference's ``NLTKTokenizer``
(``renard/pipeline/tokenization.py:35-85``): produces ``tokens``,
``sentences`` (list of token lists) and ``char2token``, with the same
invariant ``tokens == flatten(sentences)``
(``tests/test_tokenization.py:26``).  NLTK isn't available offline, so
this is a from-scratch rule tokenizer; it is the engine's default and is
shared by the oracle, so parity is against *this* tokenizer's output.

Design notes
------------
- Tokens are produced by a single compiled regex sweep (no Python
  char loop); sentence boundaries are derived from the token stream
  (a token in ``.!?`` ends a sentence, absorbing an adjacent closing
  quote), which makes ``tokens == flatten(sentences)`` hold by
  construction.
- Common title abbreviations (``Mr.`` etc.) are single tokens, so they
  never trigger a sentence split (the reference gets this from punkt).
- We keep character offsets (``token_starts/token_ends``) instead of
  materializing token strings into Arrow — at 100 TB the text column is
  stored once and tokens are views into it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Abbreviations kept as one token (period attached).  Must cover the
# title set used by the unifier so "Mr. Darcy" tokenizes as
# ["Mr.", "Darcy"].
_ABBREVS = (
    "Mr|Mrs|Ms|Dr|Prof|Rev|Col|Capt|Gen|Hon|St|Sgt|Lt|Jr|Sr|Messrs|Mme|Mlle|M"
)

_TOKEN_RE = re.compile(
    rf"(?:{_ABBREVS})\."  # title abbreviation with its period
    r"|``|''|--"  # multi-char punctuation tokens
    r"|\d+(?:[.,]\d+)*"  # numbers with separators
    r"|\w+(?:'\w+)*"  # words incl. internal apostrophes
    r"|[^\w\s]",  # any other single non-space char
    re.UNICODE,
)

_SENT_END = frozenset({".", "!", "?"})
_CLOSING_QUOTES = frozenset({'"', "''", "”", "»"})


@dataclass
class Tokenized:
    """Per-document tokenization result (offsets into the original text)."""

    token_starts: list[int]
    token_ends: list[int]
    # sent_bounds[i] = index one-past the last token of sentence i
    sent_bounds: list[int]

    def tokens(self, text: str) -> list[str]:
        return [text[s:e] for s, e in zip(self.token_starts, self.token_ends)]

    def sentences(self, text: str) -> list[list[str]]:
        toks = self.tokens(text)
        out, prev = [], 0
        for b in self.sent_bounds:
            out.append(toks[prev:b])
            prev = b
        return out

    def n_tokens(self) -> int:
        return len(self.token_starts)

    def sent_index_of_token(self, token_index: int) -> int:
        """Index of the sentence containing ``token_index`` (reference
        analog: ``graph_extraction.py:18-21``)."""
        import bisect

        return bisect.bisect_right(self.sent_bounds, token_index)

    def sent_token_range(self, sent_i: int) -> tuple[int, int]:
        start = self.sent_bounds[sent_i - 1] if sent_i > 0 else 0
        return start, self.sent_bounds[sent_i]


def tokenize(text: str) -> Tokenized:
    """Tokenize one document into word tokens + sentence bounds."""
    starts: list[int] = []
    ends: list[int] = []
    sent_bounds: list[int] = []

    matches = _TOKEN_RE.finditer(text)
    pending_end = False  # saw a sentence-ending token; may absorb a close quote
    for m in matches:
        tok = m.group(0)
        if pending_end:
            # absorb one closing quote directly adjacent to the
            # sentence-ending punctuation (e.g. `smiled."`)
            if tok in _CLOSING_QUOTES and starts and m.start() == ends[-1]:
                starts.append(m.start())
                ends.append(m.end())
                sent_bounds.append(len(starts))
                pending_end = False
                continue
            sent_bounds.append(len(starts))
            pending_end = False
        starts.append(m.start())
        ends.append(m.end())
        if tok in _SENT_END:
            pending_end = True

    if pending_end or (starts and (not sent_bounds or sent_bounds[-1] != len(starts))):
        sent_bounds.append(len(starts))

    return Tokenized(starts, ends, sent_bounds)


def make_char2token(text_len: int, starts: list[int], ends: list[int]) -> list[int]:
    """char index -> token index, gaps filled (reference analog:
    ``renard/pipeline/tokenization.py:10-32``; gap chars map to the
    *previous* token, leading chars to token 0, trailing chars to the
    last token index — we fix the reference's trailing-value quirk,
    which stored a char offset there)."""
    if not starts:
        return []
    c2t = [0] * text_len
    tok = 0
    for i in range(starts[0], text_len):
        if tok + 1 < len(starts) and i >= starts[tok + 1]:
            tok += 1
        c2t[i] = tok
    return c2t
