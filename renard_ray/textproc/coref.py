"""Deterministic rule coreference: gendered pronouns -> nearest
compatible preceding PER mention.

Produces the same ``corefs`` shape as the reference's neural resolvers
(``List[List[Mention]]`` — ``renard/pipeline/corefs/corefs.py:13-141``):
a list of chains, each chain a list of token spans.  The neural
(tibert/spacy) resolvers are interchangeable producers of this schema;
this rule resolver is the offline default and the oracle's resolver.

Rule: scan tokens; for each gendered pronoun, attach it to the most
recent PER mention within ``max_dist`` tokens whose inferred gender
(from its title, see ``names.title_gender``) is compatible (equal or
UNKNOWN).  One chain per antecedent mention-string, ordered by first
appearance; the chain's first mention is the name mention itself.
"""

from __future__ import annotations

import bisect

from renard_ray.resources.lexicons import (
    Gender,
    is_female_pronoun,
    is_male_pronoun,
)
from renard_ray.textproc.names import parse_name, title_gender
from renard_ray.textproc.ner import Entity

# (start, end) token spans
Span = tuple[int, int]


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
    surf_by_pos = [e.surface(tokens) for e in ent_by_pos]

    inside = [False] * len(tokens)
    for e in persons:
        for i in range(e.start, e.end):
            inside[i] = True

    # each distinct token classified once per document: the gender a
    # pronoun asks for, None for a non-pronoun
    wants: dict[str, Gender | None] = {}
    for tok in set(tokens):
        if is_male_pronoun(tok, lang):
            wants[tok] = Gender.MALE
        elif is_female_pronoun(tok, lang):
            wants[tok] = Gender.FEMALE
        else:
            wants[tok] = None

    for i, tok in enumerate(tokens):
        want = wants[tok]
        if want is None or inside[i]:
            continue
        # nearest preceding mention with compatible gender
        k = bisect.bisect_right(ends, i) - 1
        while k >= 0:
            if i - ends[k] > max_dist:
                break
            surf = surf_by_pos[k]
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
