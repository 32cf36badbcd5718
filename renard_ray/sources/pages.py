"""Deterministic synthetic Common-Crawl-style pages table.

Schema (``BASELINE.json input_hint``)::

    url: string, warc_ts: timestamp[us], html: binary,
    text: string, lang: string

The narrative generator mirrors the shape of the reference's E2E
fixture (Pride-&-Prejudice chapters,
``renard/resources/novels/`` of the reference, used by
``tests/test_pipeline.py:56-77``): paragraphs of templated sentences
mentioning characters from a fixed cast with titles, first/last names
and hypocorisms, plus gendered pronouns, quoted dialogue with speaker
attribution, relation verbs and sentiment words.  Everything is seeded
per page, so the same (seed, n_pages) always produces byte-identical
tables, and the html column round-trips through
``renard_ray.textproc.html.extract_text`` to the exact ``text`` value.

A configurable *hub* character appears in ~50% of pages to exercise
skewed-key handling downstream.
"""

from __future__ import annotations

import datetime as _dt
import glob
import os
import random
from pathlib import Path

import pyarrow as pa

from renard_ray.textproc.html import wrap_text_as_html

# The reference's Pride & Prejudice fixture, one ``chapter_*.txt`` per
# chapter, in the reference implementation's checkout:
# ``$RENARD_REFERENCE_DIR``, else a ``reference`` directory beside this
# repository's checkout.
PNP_DIR = os.path.join(
    os.environ.get("RENARD_REFERENCE_DIR") or Path(__file__).resolve().parents[3] / "reference",
    "renard", "resources", "novels", "pride_and_prejudice",
)

# (title, first, last, hypocorisms, gender 'M'/'F')
CAST: list[tuple[str, str, str, list[str], str]] = [
    ("Mr.", "Fitzwilliam", "Darcy", [], "M"),
    ("Miss", "Elizabeth", "Bennet", ["Lizzy"], "F"),
    ("Mrs.", "Jane", "Gardiner", ["Janie"], "F"),
    ("Mr.", "Charles", "Bingley", ["Charlie"], "M"),
    ("Miss", "Georgiana", "Darcy", ["Georgie"], "F"),
    ("Mr.", "William", "Collins", ["Will"], "M"),
    ("Lady", "Catherine", "Bourgh", ["Kitty"], "F"),
    ("Mr.", "George", "Wickham", [], "M"),
    ("Miss", "Charlotte", "Lucas", ["Lottie"], "F"),
    ("Mr.", "Thomas", "Bennet", ["Tom"], "M"),
    ("Mrs.", "Louisa", "Hurst", ["Lou"], "F"),
    ("Mr.", "Edward", "Ferrars", ["Ned"], "M"),
    ("Miss", "Marianne", "Dashwood", [], "F"),
    ("Col.", "Christopher", "Brandon", ["Kit"], "M"),
    ("Mrs.", "Frances", "Price", ["Fanny"], "F"),
]

HUB_INDEX = 0  # Mr. Darcy appears in ~half of all pages (skew fixture)

_PLACES = ["the ball", "Netherfield", "the garden", "London", "the parsonage"]
_POS_ADJ = ["delighted", "charming", "happy", "pleased", "amiable"]
_NEG_ADJ = ["vexed", "miserable", "angry", "disappointed", "unhappy"]
_REL_VERBS = ["loves", "hates", "marries", "meets", "visits", "admires"]
_SAY_VERBS = ["said", "replied", "cried", "observed"]
_QUOTE_SNIPPETS = [
    "You must come to dinner",
    "I am quite at your service",
    "It is a truth universally acknowledged",
    "Pray tell me more",
    "I shall never agree to it",
]

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)


def _name_variants(member: tuple[str, str, str, list[str], str]) -> list[str]:
    title, first, last, nicks, _ = member
    variants = [f"{title} {last}", f"{first} {last}", first]
    variants.extend(nicks)
    return variants


def _ref(rng: random.Random, member) -> str:
    return rng.choice(_name_variants(member))


def _pronoun(member) -> str:
    return "He" if member[4] == "M" else "She"


def generate_page_text(page_i: int, seed: int = 42) -> str:
    """One page's narrative text, deterministic in (seed, page_i)."""
    rng = random.Random((seed << 20) ^ page_i)
    cast_idx = rng.sample(range(len(CAST)), k=rng.randint(2, 4))
    if page_i % 2 == 0 and HUB_INDEX not in cast_idx:
        cast_idx[0] = HUB_INDEX  # hub character in ~50% of pages
    members = [CAST[i] for i in cast_idx]

    n_paragraphs = rng.randint(2, 4)
    paragraphs = []
    for _ in range(n_paragraphs):
        sentences = []
        n_sentences = rng.randint(3, 6)
        for _ in range(n_sentences):
            kind = rng.randrange(5)
            a, b = rng.sample(members, k=2) if len(members) >= 2 else (members[0], members[0])
            if kind == 0:
                sentences.append(
                    f"{_ref(rng, a)} {rng.choice(_REL_VERBS)} {_ref(rng, b)}."
                )
            elif kind == 1:
                sentences.append(
                    f"{_ref(rng, a)} and {_ref(rng, b)} walked to {rng.choice(_PLACES)}."
                )
            elif kind == 2:
                adj = rng.choice(_POS_ADJ if rng.random() < 0.6 else _NEG_ADJ)
                sentences.append(f"{_ref(rng, a)} was {adj}.")
            elif kind == 3:
                sentences.append(
                    f'"{rng.choice(_QUOTE_SNIPPETS)}," {rng.choice(_SAY_VERBS)} {_ref(rng, a)}.'
                )
            else:
                sentences.append(f"{_pronoun(a)} was {rng.choice(_POS_ADJ)}.")
        paragraphs.append(" ".join(sentences))
    return "\n\n".join(paragraphs)


def generate_pages_table(
    n_pages: int,
    seed: int = 42,
    with_edge_cases: bool = True,
) -> pa.Table:
    """Build the pages table.  With ``with_edge_cases``, includes a few
    empty-text pages, one very long page and a few non-English pages."""
    epoch = _dt.datetime(2025, 1, 1)
    urls, tss, htmls, texts, langs = [], [], [], [], []
    for i in range(n_pages):
        lang = "eng"
        if with_edge_cases and i % 97 == 3:
            text = ""
        elif with_edge_cases and i % 211 == 7:
            lang = "fra" if i % 2 else "deu"
            text = "Ceci est une page dans une autre langue."
        elif with_edge_cases and i == 11 and n_pages > 11:
            text = "\n\n".join(generate_page_text(i * 1000 + k, seed) for k in range(60))
        else:
            text = generate_page_text(i, seed)
        urls.append(f"https://fixture.test/src{i % 20}/{i}")
        tss.append(epoch + _dt.timedelta(seconds=i))
        htmls.append(wrap_text_as_html(text, title=f"page {i}"))
        texts.append(text)
        langs.append(lang)
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(texts, pa.large_string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def write_pages_parquet(
    path: str, n_pages: int, seed: int = 42, rows_per_file: int = 2000
) -> str:
    """Write the pages table as a directory of parquet files (multiple
    files so Ray Data gets read parallelism)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    table = generate_pages_table(n_pages, seed)
    n_files = max(1, (n_pages + rows_per_file - 1) // rows_per_file)
    for f in range(n_files):
        lo = f * rows_per_file
        hi = min(n_pages, lo + rows_per_file)
        pq.write_table(table.slice(lo, hi - lo), f"{path}/part-{f:05d}.parquet")
    return path


def pnp_pages_table() -> pa.Table:
    """The reference's Pride & Prejudice fixture (``PNP_DIR``) as a
    pages table, one page per chapter, in chapter-file order."""
    files = sorted(glob.glob(f"{PNP_DIR}/chapter_*.txt"))
    texts = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            texts.append(fh.read())
    n = len(files)
    return pa.table(
        {
            "url": pa.array(
                [f"https://fixture.test/pnp/{os.path.basename(f)}" for f in files],
                pa.string(),
            ),
            "warc_ts": pa.array([None] * n, pa.timestamp("us")),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(["eng"] * n, pa.string()),
        }
    )
