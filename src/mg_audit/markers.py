"""Inclusive-language markers: pair forms, neutral words, feminine endings.

Five marker families are tracked. Greeting and pair phrases match as
case-insensitive token sequences, neutral pronouns and neutral words as
whole tokens. Feminine endings come in three shapes: a middle-dot
separator (auteur·ice), a parenthesized ending (auteur(ice)) and a
capitalized ending on a lowercase stem (auteurICE). The capital pattern
needs at least two trailing capitals on a stem of three or more letters
so acronyms do not fire it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .config import read_json

MARKER_FAMILIES = (
    "incl_greetings",
    "incl_pairs",
    "neutral_prons",
    "fem_ending",
    "neutral_words",
)

_LOWER = "a-zà-öø-ÿœæ"
_UPPER = "A-ZÀ-ÖØ-ÞŒÆ"
_LETTER = _LOWER + _UPPER

_DOT_SEPARATORS = "·•‧"  # middle dot and look-alikes

_FEM_DOT_RE = re.compile(
    rf"(?<![{_LETTER}])[{_LETTER}]{{2,}}[{_DOT_SEPARATORS}][{_LOWER}]{{1,6}}(?![{_LETTER}])"
)
_FEM_PAREN_RE = re.compile(
    rf"(?<![{_LETTER}])[{_LETTER}]{{3,}}\([{_LOWER}]{{2,6}}\)"
)
_FEM_CAPS_RE = re.compile(
    rf"(?<![{_LETTER}])[{_LOWER}]{{3,}}[{_UPPER}]{{2,}}s?(?![{_LETTER}])"
)


def _phrase_pattern(phrase: str) -> re.Pattern:
    tokens = [re.escape(t) for t in phrase.split()]
    body = r"\s+".join(tokens)
    return re.compile(
        rf"(?<![{_LETTER}])(?:{body})(?![{_LETTER}])", re.IGNORECASE
    )


def _token_pattern(token: str) -> re.Pattern:
    return re.compile(
        rf"(?<![{_LETTER}]){re.escape(token)}(?![{_LETTER}])", re.IGNORECASE
    )


# How each word-list family's entries are matched.
_WORD_LIST_PATTERNS = {
    "incl_greetings": _phrase_pattern,
    "incl_pairs": _phrase_pattern,
    "neutral_prons": _token_pattern,
    "neutral_words": _token_pattern,
}


@dataclass(frozen=True)
class MarkerLexicon:
    incl_greetings: tuple[str, ...] = ()
    incl_pairs: tuple[str, ...] = ()
    neutral_prons: tuple[str, ...] = ()
    neutral_words: tuple[str, ...] = ()
    fem_ending_enabled: bool = field(default=True, metadata={"json": "fem_ending"})
    _patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Lowercased `neutral_words`, read once per document or text.
    neutral_lemmas: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._patterns.clear()
        for family, compile_entry in _WORD_LIST_PATTERNS.items():
            entries = getattr(self, family)
            blank = [entry for entry in entries if not entry.strip()]
            if blank:  # its pattern would match the empty string in every text
                raise ValueError(f"{family}: blank entry {blank[0]!r}")
            self._patterns[family] = [compile_entry(entry) for entry in entries]
        object.__setattr__(self, "neutral_lemmas",
                           frozenset(w.lower() for w in self.neutral_words))

    @classmethod
    def load_json(cls, path: str | Path) -> "MarkerLexicon":
        """The lexicon in JSON file `path`: a list of strings under each word
        list's name and a bool under "fem_ending", each optional."""
        return read_json(cls, path)


DEFAULT_MARKER_LEXICON = MarkerLexicon(
    incl_greetings=("mesdames et messieurs", "tous et toutes", "toutes et tous"),
    incl_pairs=("un ou une", "une ou un", "il ou elle", "elle ou il",
                "ils et elles", "elles et ils", "ceux et celles", "celles et ceux"),
    neutral_prons=("iel", "iels", "celleux"),
    neutral_words=("personne", "personnes", "individu", "individus"),
)


def detect_markers(text: str, lex: MarkerLexicon) -> dict[str, list[tuple[int, int]]]:
    """Character spans of every marker hit, grouped by family."""
    hits: dict[str, list[tuple[int, int]]] = {family: [] for family in MARKER_FAMILIES}
    for family, patterns in lex._patterns.items():
        for pattern in patterns:
            for match in pattern.finditer(text):
                hits[family].append(match.span())
    if lex.fem_ending_enabled:
        for pattern in (_FEM_DOT_RE, _FEM_PAREN_RE, _FEM_CAPS_RE):
            for match in pattern.finditer(text):
                hits["fem_ending"].append(match.span())
    for family in hits:
        hits[family] = sorted(set(hits[family]))
    return hits
