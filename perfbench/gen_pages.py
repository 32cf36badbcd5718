"""Seeded page generators for the build workloads.

The benchmark owns its inputs, so a change to the engine's own fixture
generator (``renard_ray/sources/pages.py``) cannot move a workload.
Every generator records where it placed each character's names, which
the property checks in ``checks.py`` read back.

Two corpora:

- ``long_pages``: several-KB narrative pages over a fixed P&P-style cast
  with one hub character in about half of the pages.
- ``web_pages``: short web-style pages whose characters come from a large
  synthetic vocabulary sampled with a Zipf skew.

Schema of both tables: ``url, warc_ts, html, text, lang``. ``html`` is a
minimal wrapper whose block-level text extraction gives ``text`` back
byte for byte.
"""

from __future__ import annotations

import datetime as dt
import html as html_mod
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import pyarrow as pa

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)


@dataclass(frozen=True)
class Character:
    title: str
    first: str
    last: str
    nicks: tuple[str, ...]
    male: bool

    def surfaces(self) -> tuple[str, ...]:
        return (f"{self.title} {self.last}", f"{self.first} {self.last}", self.first, *self.nicks)

    def tokens(self) -> frozenset[str]:
        return frozenset((self.first, self.last, *self.nicks))


@dataclass
class Corpus:
    """A pages table plus the generator's record of what it placed."""

    table: pa.Table
    cast: list[Character]
    # per page: indices of the characters named in it
    placed: list[set[int]]
    # (i, j) character pairs named together in one sentence, i < j
    co_mentions: set[tuple[int, int]]
    hub: int | None = None


def wrap_html(text: str, title: str) -> bytes:
    paras = "".join(f"<p>{html_mod.escape(p)}</p>" for p in text.split("\n\n"))
    return (
        f"<html><head><title>{html_mod.escape(title)}</title></head>"
        f"<body>{paras}</body></html>"
    ).encode()


def _table(urls: list[str], texts: list[str], langs: list[str]) -> pa.Table:
    epoch = dt.datetime(2025, 1, 1)
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array([epoch + dt.timedelta(seconds=i) for i in range(len(urls))], pa.timestamp("us")),
            pa.array([wrap_html(t, u) for t, u in zip(texts, urls)], pa.binary()),
            pa.array(texts, pa.large_string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


# ---------------------------------------------------------------- long pages

# No two characters share a name or a nickname, and no nickname is a
# stopword, so each character is its own family of names.
PP_CAST = [
    Character("Mr.", "Fitzwilliam", "Darcy", (), True),
    Character("Miss", "Elizabeth", "Bennet", ("Lizzy",), False),
    Character("Mr.", "Henry", "Tilney", (), True),
    Character("Mrs.", "Jane", "Gardiner", ("Janie",), False),
    Character("Mr.", "Charles", "Bingley", (), True),
    Character("Miss", "Anne", "Elliot", (), False),
    Character("Mr.", "William", "Collins", (), True),
    Character("Lady", "Catherine", "Bourgh", ("Kitty",), False),
    Character("Mr.", "George", "Wickham", (), True),
    Character("Miss", "Charlotte", "Lucas", ("Lottie",), False),
    Character("Mrs.", "Louisa", "Hurst", (), False),
    Character("Mr.", "Edward", "Ferrars", ("Ned",), True),
    Character("Miss", "Marianne", "Dashwood", (), False),
    Character("Sir", "Christopher", "Brandon", (), True),
    Character("Mrs.", "Frances", "Price", ("Fanny",), False),
]
PP_HUB = 0

_PLACES = ["the ball", "the garden", "the village", "the parsonage", "the library"]
_POS = ["delighted", "charming", "happy", "pleased", "amiable"]
_NEG = ["vexed", "miserable", "angry", "disappointed", "unhappy"]
_REL = ["loves", "hates", "marries", "meets", "visits", "admires"]
_SAY = ["said", "replied", "cried", "observed"]
_QUOTES = [
    "you must come to dinner",
    "it is a truth universally acknowledged",
    "we shall dance tonight",
    "your letter was most welcome",
]


def long_pages(seed: int, n_pages: int, paragraphs: tuple[int, int] = (12, 16)) -> Corpus:
    """Several-KB narrative pages; the hub character is in every even page."""
    urls, texts = [], []
    pages: list[set[int]] = []
    co_mentions: set[tuple[int, int]] = set()
    for p in range(n_pages):
        rng = random.Random(seed * 1_000_003 + p)
        cast = rng.sample(range(len(PP_CAST)), rng.randint(3, 5))
        if p % 2 == 0 and PP_HUB not in cast:
            cast[0] = PP_HUB
        placed: set[int] = set()
        paras = []
        for _ in range(rng.randint(*paragraphs)):
            sents = []
            for _ in range(rng.randint(5, 8)):
                a, b = rng.sample(cast, 2)
                ra, rb = rng.choice(PP_CAST[a].surfaces()), rng.choice(PP_CAST[b].surfaces())
                kind = rng.randrange(5)
                if kind == 0:
                    sents.append(f"{ra} {rng.choice(_REL)} {rb}.")
                elif kind == 1:
                    sents.append(f"{ra} and {rb} walked to {rng.choice(_PLACES)}.")
                elif kind == 2:
                    sents.append(f"{ra} was {rng.choice(_POS if rng.random() < 0.6 else _NEG)}.")
                elif kind == 3:
                    sents.append(f'"{rng.choice(_QUOTES)}," {rng.choice(_SAY)} {ra}.')
                else:
                    pron = "He" if PP_CAST[a].male else "She"
                    sents.append(f"{pron} was {rng.choice(_POS)} with {ra}.")
                placed.add(a)
                if kind in (0, 1):
                    placed.add(b)
                    co_mentions.add((min(a, b), max(a, b)))
            paras.append(" ".join(sents))
        pages.append(placed)
        urls.append(f"https://novel.example/{seed}/p{p}")
        texts.append("\n\n".join(paras))
    return Corpus(_table(urls, texts, ["eng"] * n_pages), PP_CAST, pages, co_mentions, PP_HUB)


# ----------------------------------------------------------------- web pages

_ONSET = "b d f g k l m n p r s t v z br dr gr kr tr st".split()
_VOWEL = "a e i o u ai ei ou".split()
_CODA = "k l n r s t x".split()


def _word(rng: random.Random, syllables: int) -> str:
    w = "".join(rng.choice(_ONSET) + rng.choice(_VOWEL) for _ in range(syllables))
    return (w + rng.choice(_CODA)).capitalize()


def synthetic_cast(seed: int, n_characters: int, n_first: int, n_last: int) -> list[Character]:
    """Distinct (first, last) pairs drawn from two invented vocabularies.

    Words have at least two syllables and end in a consonant, so none is
    an English stopword, title or common given name."""
    rng = random.Random(seed ^ 0x5EED)
    firsts: list[str] = []
    lasts: list[str] = []
    seen: set[str] = set()
    while len(firsts) < n_first or len(lasts) < n_last:
        w = _word(rng, rng.randint(2, 3))
        if w in seen:
            continue
        seen.add(w)
        (firsts if len(firsts) < n_first else lasts).append(w)
    cast, pairs = [], set()
    while len(cast) < n_characters:
        pair = (rng.randrange(n_first), rng.randrange(n_last))
        if pair in pairs:
            continue
        pairs.add(pair)
        male = rng.random() < 0.5
        cast.append(Character("Mr." if male else "Mrs.", firsts[pair[0]], lasts[pair[1]], (), male))
    return cast


_VENUE = ["summit", "conference", "market", "festival", "hearing"]
_VERB = ["met", "praised", "criticised", "hired", "interviewed", "thanked"]
_ROLE = ["director", "mayor", "author", "coach", "founder"]
_ADJ = ["promising", "late", "costly", "popular", "surprising"]


def web_pages(
    seed: int,
    n_pages: int,
    n_characters: int,
    zipf_s: float = 1.1,
) -> Corpus:
    """Short web-style pages; every name sits mid-sentence, so the rule
    tagger sees it as a proper noun wherever it is placed."""
    cast = synthetic_cast(seed, n_characters, n_characters // 4, n_characters // 2)
    cum = list(accumulate(1.0 / (r + 1) ** zipf_s for r in range(n_characters)))
    urls, texts = [], []
    pages: list[set[int]] = []
    co_mentions: set[tuple[int, int]] = set()
    for p in range(n_pages):
        rng = random.Random(seed * 7_919 + p)
        k = rng.randint(2, 4)
        chosen: list[int] = []
        while len(chosen) < k:
            c = bisect_left(cum, rng.random() * cum[-1])
            if c not in chosen:
                chosen.append(c)
        placed: set[int] = set()
        paras = []
        for _ in range(rng.randint(2, 3)):
            sents = []
            for _ in range(rng.randint(2, 3)):
                a, b = rng.sample(chosen, 2)
                ra, rb = rng.choice(cast[a].surfaces()), rng.choice(cast[b].surfaces())
                kind = rng.randrange(4)
                if kind == 0:
                    sents.append(f"Yesterday {ra} {rng.choice(_VERB)} {rb} at the {rng.choice(_VENUE)}.")
                elif kind == 1:
                    sents.append(f"According to the report, {ra} and {rb} signed the deal.")
                elif kind == 2:
                    sents.append(f"The {rng.choice(_ROLE)} {ra} said the plan was {rng.choice(_ADJ)}.")
                else:
                    sents.append(f"Later the crowd cheered for {ra}.")
                placed.add(a)
                if kind < 2:
                    placed.add(b)
                    co_mentions.add((min(a, b), max(a, b)))
            paras.append(" ".join(sents))
        pages.append(placed)
        urls.append(f"https://news.example/{seed}/{p % 97}/{p}")
        texts.append("\n\n".join(paras))
    return Corpus(_table(urls, texts, ["eng"] * n_pages), cast, pages, co_mentions)
