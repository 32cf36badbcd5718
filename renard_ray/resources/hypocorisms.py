"""Hypocorism (nickname) gazetteer.

Capability parity with the reference's
``renard/resources/hypocorisms/hypocorisms.py:8-84`` (a name↔nickname
lookup with a symmetric ``are_related`` check).  The table below is a
compact list of well-known English given-name/diminutive pairs (common
knowledge; the same kind of data as the public
nickname-and-diminutive-names-lookup dataset the reference cites).

The gazetteer is deliberately tiny and immutable: on a cluster it is
constructed once per worker process (module import / actor ``__init__``),
never shipped per batch.
"""

from __future__ import annotations

from collections import defaultdict


# name -> nicknames (all lowercase).  Extend via additional_hypocorisms.
_BASE_TABLE: dict[str, tuple[str, ...]] = {
    "abigail": ("abby", "gail", "nabby"),
    "albert": ("al", "bert", "bertie"),
    "alexander": ("alex", "sandy", "xander"),
    "alexandra": ("alex", "sandra", "lexie"),
    "alfred": ("al", "fred", "freddy"),
    "amelia": ("amy", "mel", "millie"),
    "andrew": ("andy", "drew"),
    "anne": ("annie", "nan", "nancy"),
    "anthony": ("tony", "ant"),
    "barbara": ("barb", "babs"),
    "benjamin": ("ben", "benny"),
    "caroline": ("carrie", "caro", "lina"),
    "catherine": ("cathy", "kate", "kitty", "cat"),
    "charles": ("charlie", "chuck", "chas"),
    "charlotte": ("lottie", "charlie"),
    "christopher": ("chris", "kit", "topher"),
    "daniel": ("dan", "danny"),
    "david": ("dave", "davy"),
    "dorothy": ("dot", "dolly", "dottie"),
    "edward": ("ed", "ned", "ted", "eddie", "teddy"),
    "eleanor": ("ellie", "nell", "nora"),
    "elizabeth": ("eliza", "lizzy", "lizzie", "liz", "beth", "betsy", "bess"),
    "emily": ("em", "emmy"),
    "frances": ("fanny", "fran"),
    "francis": ("frank", "fran"),
    "frederick": ("fred", "freddy", "fritz"),
    "george": ("georgie",),
    "georgiana": ("georgie", "gia"),
    "gerald": ("gerry", "jerry"),
    "gregory": ("greg",),
    "harold": ("harry", "hal"),
    "henry": ("harry", "hank", "hal"),
    "isabella": ("bella", "izzy"),
    "jacob": ("jake",),
    "james": ("jim", "jimmy", "jamie"),
    "jane": ("janie", "jenny"),
    "jennifer": ("jen", "jenny"),
    "john": ("jack", "johnny", "jock"),
    "jonathan": ("jon", "jonny"),
    "joseph": ("joe", "joey"),
    "josephine": ("jo", "josie"),
    "katherine": ("kathy", "kate", "katie", "kitty"),
    "laurence": ("larry", "laurie"),
    "leonard": ("leo", "len", "lenny"),
    "louisa": ("lou", "lulu"),
    "margaret": ("maggie", "meg", "peggy", "madge", "daisy"),
    "martha": ("mattie", "patty"),
    "mary": ("molly", "polly", "mamie", "may"),
    "matthew": ("matt", "matty"),
    "michael": ("mike", "mickey", "mick"),
    "nathaniel": ("nat", "nate"),
    "nicholas": ("nick", "nicky"),
    "oliver": ("ollie",),
    "patricia": ("pat", "patty", "trish"),
    "patrick": ("pat", "paddy"),
    "peter": ("pete",),
    "philip": ("phil", "pip"),
    "rebecca": ("becky", "becca"),
    "richard": ("rick", "dick", "richie", "ricky"),
    "robert": ("rob", "bob", "bobby", "robbie", "bert"),
    "samuel": ("sam", "sammy"),
    "sarah": ("sally", "sadie"),
    "stephen": ("steve", "stevie"),
    "susan": ("sue", "susie", "suzy"),
    "theodore": ("ted", "teddy", "theo"),
    "thomas": ("tom", "tommy"),
    "timothy": ("tim", "timmy"),
    "victoria": ("vicky", "tori"),
    "william": ("will", "bill", "billy", "willy", "liam"),
    "zachary": ("zach", "zack"),
}


class HypocorismGazetteer:
    """Name↔nickname lookup with the same surface as the reference
    (``hypocorisms.py:8-84``): ``get_nicknames``, ``get_possible_names``
    and a symmetric ``are_related`` that also accepts equal names.
    """

    supported_langs = frozenset({"eng"})

    def __init__(
        self,
        lang: str = "eng",
        additional_hypocorisms: list[tuple[str, list[str]]] | None = None,
    ):
        self.name_to_nicknames: dict[str, set[str]] = defaultdict(set)
        self.nickname_to_names: dict[str, set[str]] = defaultdict(set)
        if lang in self.supported_langs:
            for name, nicknames in _BASE_TABLE.items():
                self.add_hypocorism(name, list(nicknames))
        for name, nicknames in additional_hypocorisms or []:
            self.add_hypocorism(name, nicknames)

    def add_hypocorism(self, name: str, nicknames: list[str]) -> None:
        name = name.lower()
        for nickname in nicknames:
            nickname = nickname.lower()
            self.name_to_nicknames[name].add(nickname)
            self.nickname_to_names[nickname].add(name)

    def get_nicknames(self, name: str) -> set[str]:
        return self.name_to_nicknames.get(name.lower(), set())

    def get_possible_names(self, nickname: str) -> set[str]:
        return self.nickname_to_names.get(nickname.lower(), set())

    def related_names(self, name: str) -> frozenset[str]:
        """The lower-cased names ``name`` is related to: itself and its
        nicknames and possible full names, never ''; none for ''."""
        if name == "":
            return frozenset()
        n = name.lower()
        return frozenset(
            {n, *self.name_to_nicknames.get(n, ()), *self.nickname_to_names.get(n, ())}
        ) - {""}

    def are_related(self, name1: str, name2: str) -> bool:
        """True iff equal (case-insensitive) or one is a nickname of the
        other.  Empty strings are never related (reference
        ``hypocorisms.py:73-84``)."""
        return name2.lower() in self.related_names(name1)


_SHARED: dict[str, HypocorismGazetteer] = {}


def shared_gazetteer(lang: str = "eng") -> HypocorismGazetteer:
    """Per-process singleton (one construction per Ray worker, not per
    batch)."""
    if lang not in _SHARED:
        _SHARED[lang] = HypocorismGazetteer(lang=lang)
    return _SHARED[lang]
