"""Per-document character unification (entity linking within one doc).

Re-implements the semantics of the reference's two unifiers:

- ``naive_unify``  — ``NaiveCharacterUnifier``
  (``renard/pipeline/character_unification.py:99-156``): one character
  per distinct PER surface string.
- ``graph_rules_unify`` — ``GraphRulesCharacterUnifier``
  (``character_unification.py:159-464``, Vala et al. 2015 style):
  an alias graph over distinct PER surface strings with positive link
  rules (hypocorism, title-removal match, same last name, same first
  name, optional shared-coref-chain), per-name gender inference
  (title, then coref pronoun majority,
  ``character_unification.py:411-452``), negative rules that cut all
  shortest paths between incompatible names (same last+different
  first, or conflicting gender, ``character_unification.py:293-327``),
  connected components as characters with majority-vote gender, coref
  mention assignment (``character_unification.py:48-96``) and a
  min-appearances filter.

Deliberate, documented divergences from the reference implementation
(not its intent):
- Node/pair iteration is in sorted-name order (the reference iterates a
  Python ``set``, which is run-nondeterministic); ties in majority votes
  break deterministically.
- The negative rule removes the *first edge of each shortest path*
  between the offending pair (all paths are found before any removal).
  This matches the reference's actual runtime behavior: it passes
  node-paths to ``nx.Graph.remove_edges_from``, which interprets a
  path ``[a, b, c]`` as the edge ``(a, b)`` with data ``c`` — i.e.
  only the first edge of each ≤3-node path is removed (longer paths
  would raise in the reference; we handle them by still removing the
  first edge).
- Last/first-name comparisons are case-insensitive in both positive and
  negative rules (the reference's negative rule compares last names
  case-sensitively, inconsistently with its positive rule).

The alias graph is a plain adjacency map (name -> set of names), not a
graph-library object: one breadth-first search from the second name
finds the first edges of all shortest paths, and one depth-first walk
finds the connected components.

This module is pure per-document Python shared by the distributed stage
and the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from renard_ray.resources.hypocorisms import HypocorismGazetteer, shared_gazetteer
from renard_ray.resources.lexicons import (
    SINGULAR_DETERMINERS,
    Gender,
    is_female_pronoun,
    is_male_pronoun,
)
from renard_ray.textproc.names import parse_name, title_gender
from renard_ray.textproc.ner import Entity

Span = tuple[int, int]


@dataclass
class Mention:
    start: int
    end: int
    surface: str


@dataclass
class Character:
    """Reference analog: ``character_unification.py:18-45``."""

    names: frozenset[str]
    mentions: list[Mention] = field(default_factory=list)
    gender: Gender = Gender.UNKNOWN

    def longest_name(self) -> str | None:
        if not self.names:
            return None
        return max(self.names, key=lambda n: (len(n), n))

    def shortest_name(self) -> str | None:
        if not self.names:
            return None
        return min(self.names, key=lambda n: (len(n), n))

    def most_frequent_name(self) -> str | None:
        """Most frequent of the character's names among its mentions
        (``character_unification.py:34-39``); deterministic tie-break by
        (count desc, length desc, lexicographic).  Cached — called once
        per mention by key lookups in the hot path."""
        cached = getattr(self, "_mfn", None)
        if cached is not None:
            return cached
        out = self._most_frequent_name()
        object.__setattr__(self, "_mfn", out)
        return out

    def _most_frequent_name(self) -> str | None:
        counts = Counter(m.surface for m in self.mentions)
        counts = {n: c for n, c in counts.items() if n in self.names}
        if not counts:
            return self.longest_name()
        return max(counts, key=lambda n: (counts[n], len(n), [-ord(c) for c in n]))

    def sort_key(self) -> tuple:
        return tuple(sorted(self.names))


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
    chars_of: dict[str, list[int]] = {}
    for i, c in enumerate(characters):
        for n in c.names:
            chars_of.setdefault(n, []).append(i)
    for chain in corefs:
        chain_mentions = [(s, e, " ".join(tokens[s:e])) for s, e in chain]
        counts: dict[int, int] = {}
        for _, _, surface in chain_mentions:
            for i in chars_of.get(surface, ()):
                counts[i] = counts.get(i, 0) + 1
        if not counts:
            continue
        # ties go to the first character, as in a scan in character order
        best = max(counts.values())
        best_i = min(i for i, n in counts.items() if n == best)
        char_mentions[best_i].update(chain_mentions)
    return [
        Character(
            c.names,
            [Mention(*t) for t in sorted(ms)],
            c.gender,
        )
        for c, ms in zip(characters, char_mentions)
    ]


def naive_unify(
    tokens: list[str],
    entities: list[Entity],
    corefs: list[list[Span]] | None = None,
    min_appearances: int = 0,
    character_tag: str = "PER",
) -> list[Character]:
    """One character per distinct PER surface string
    (``character_unification.py:115-144``)."""
    by_name: dict[str, list[Mention]] = {}
    for e in entities:
        if e.tag != character_tag:
            continue
        m = _mention_from_entity(e, tokens)
        by_name.setdefault(m.surface, []).append(m)
    characters = [Character(frozenset([n]), ms) for n, ms in by_name.items()]
    if corefs is not None:
        characters = assign_coreference_mentions(characters, corefs, tokens)
    return [c for c in characters if len(c.mentions) >= min_appearances]


def _strip_leading_determiner(name: str, lang: str) -> str:
    low = name.lower()
    for det in SINGULAR_DETERMINERS.get(lang, frozenset()):
        if low.startswith(det + " "):
            return name[len(det) + 1 :]
    return name


def _coref_index(
    corefs: list[list[Span]], tokens: list[str], lang: str
) -> tuple[dict[str, list[int]], list[tuple[int, int]]]:
    """Once per document: surface -> indices of the coref chains whose
    surface set holds it, ascending, and each chain's (male, female)
    pronoun surface counts. Two names are in the same chains
    (``character_unification.py:398-409``: every chain containing one
    contains the other, and at least one contains both) iff both have
    the same non-empty index list."""
    chains_of: dict[str, list[int]] = {}
    pronouns: list[tuple[int, int]] = []
    for ci, chain in enumerate(corefs):
        male = female = 0
        for surf in {" ".join(tokens[s:e]) for s, e in chain}:
            chains_of.setdefault(surf, []).append(ci)
            if is_male_pronoun(surf, lang):
                male += 1
            elif is_female_pronoun(surf, lang):
                female += 1
        pronouns.append((male, female))
    return chains_of, pronouns


def _infer_name_gender(
    name: str,
    chains_of: dict[str, list[int]] | None,
    chain_pronouns: list[tuple[int, int]],
    lang: str,
) -> Gender:
    """``character_unification.py:411-452``: title first, else majority
    of gendered pronouns across coref chains containing the name;
    ``chain_pronouns[i]`` = (male, female) pronoun surfaces of chain i."""
    g = Gender(title_gender(parse_name(name, lang).title, lang))
    if g != Gender.UNKNOWN:
        return g
    if chains_of is None:
        return Gender.UNKNOWN
    male = female = 0
    for ci in chains_of.get(name, ()):
        male += chain_pronouns[ci][0]
        female += chain_pronouns[ci][1]
    if male == female:
        return Gender.UNKNOWN
    return Gender.MALE if male > female else Gender.FEMALE


def _components(adj: dict[str, set[str]]) -> list[set[str]]:
    """Connected components of an undirected adjacency map, each found
    by one iterative depth-first walk."""
    seen: set[str] = set()
    comps: list[set[str]] = []
    for root in adj:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in comp:
                    comp.add(nbr)
                    stack.append(nbr)
        seen |= comp
        comps.append(comp)
    return comps


def _cut_shortest_paths(adj: dict[str, set[str]], a: str, b: str) -> None:
    """Remove the first edge of every shortest path between a and b
    (see module docstring: this is the reference's effective behavior).
    One breadth-first search from ``b`` gives each node's distance to
    ``b``; the first edges of the shortest a-b paths are the edges
    ``(a, x)`` with ``dist(x) == dist(a) - 1``. No path, no cut."""
    dist = {b: 0}
    frontier = [b]
    while frontier and a not in dist:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if a not in dist:
        return
    for x in [x for x in adj[a] if dist.get(x) == dist[a] - 1]:
        adj[a].discard(x)
        adj[x].discard(a)


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

    # the alias graph: name -> adjacent names
    adj: dict[str, set[str]] = {n: set() for n in names}

    def link(a: str, b: str) -> None:
        adj[a].add(b)
        adj[b].add(a)

    # per-name forms, once per document: prepped and title-free (the
    # reference's title-removal reformat, ``character_unification.py:380-396``),
    # each lower-cased and with its ``gaz.related_names``, and lower-cased
    # first / last
    prepped = {n: prep(n) for n in names}
    parsed = {n: parse_name(prepped[n], lang) for n in names}
    forms = {n: (prepped[n], parsed[n].without_title) for n in names}
    lowered = {n: (p.lower(), u.lower()) for n, (p, u) in forms.items()}
    related = {
        n: (gaz.related_names(p), gaz.related_names(u)) for n, (p, u) in forms.items()
    }
    first = {n: parsed[n].first.lower() for n in names}
    last = {n: parsed[n].last.lower() for n in names}

    chains_of, chain_pronouns = (
        _coref_index(corefs, tokens, lang) if corefs is not None else (None, [])
    )

    # positive rules (``character_unification.py:242-282``)
    for n1, n2 in combinations(names, 2):
        # hypocorism, then title removal: ``gaz.are_related`` on the
        # prepped, then on the title-free forms
        (p1, u1), (p2, u2) = related[n1], lowered[n2]
        if p2 in p1 or u2 in u1:
            link(n1, n2)
            continue
        if last[n1] and last[n1] == last[n2]:
            link(n1, n2)
            continue
        if first[n1] and first[n1] == first[n2]:
            link(n1, n2)
            continue
        if chains_of is not None and link_corefs_mentions:
            if chains_of.get(n1) and chains_of.get(n1) == chains_of.get(n2):
                link(n1, n2)

    genders = {
        n: _infer_name_gender(n, chains_of, chain_pronouns, lang) for n in names
    }

    # negative rules (``character_unification.py:299-327``); cuts only
    # split components, so a pair in two components has no path to cut
    comp0 = {n: ci for ci, comp in enumerate(_components(adj)) for n in comp}
    for n1, n2 in combinations(names, 2):
        if comp0[n1] != comp0[n2]:
            continue
        if (
            last[n1]
            and first[n1]
            and first[n2]
            and last[n1] == last[n2]
            and first[n1] != first[n2]
        ):
            _cut_shortest_paths(adj, n1, n2)
            continue
        g1, g2 = genders[n1], genders[n2]
        if g1 != g2 and g1 != Gender.UNKNOWN and g2 != Gender.UNKNOWN:
            _cut_shortest_paths(adj, n1, n2)

    # components -> characters with majority gender
    # (``character_unification.py:330-342``)
    comps = sorted(_components(adj), key=lambda c: sorted(c))
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    comp_mentions: list[list[Mention]] = [[] for _ in comps]
    for m in mentions:
        if m.surface in comp_of:
            comp_mentions[comp_of[m.surface]].append(m)
    characters: list[Character] = []
    for comp, comp_ms in zip(comps, comp_mentions):
        comp_names = sorted(comp)
        counts = Counter(genders[n] for n in comp_names)
        gender = max(counts, key=lambda g: (counts[g], -int(g)))
        characters.append(Character(frozenset(comp_names), comp_ms, gender))

    if corefs is not None:
        characters = assign_coreference_mentions(characters, corefs, tokens)

    # min-appearances over *named* mentions (``character_unification.py:349-355``)
    characters = [
        c
        for c in characters
        if sum(1 for m in c.mentions if m.surface in c.names) >= min_appearances
    ]
    return characters
