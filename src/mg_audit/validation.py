"""Human-noun validation protocol for LLM post-processing.

A text and its candidate nouns are packed into an in-context-learning
prompt; the model must answer with a JSON object mapping each noun id to
0 or 1. Repeated nouns are distinguished by ids suffixed _2, _3, ... in
order of appearance. Parsing is lenient: the first JSON object found in
the raw response is used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

VALIDATION_SYSTEM_PROMPT = (
    "You are an assistant that validates human noun classifications in French texts."
)

VALIDATION_USER_TEMPLATE = """\
Given a text and nouns, for each noun, determine if it is a human noun in context.
Some nouns may appear multiple times in the text. In such cases, they are distinguished by ID ('noun_1', 'noun_2'...), following the order in which they appear.
Do not assume that all occurrences of the same noun are either human or non-human; instead, assess each occurrence individually based on its unique context.
Only respond in this format, where human_noun is the noun being considered.
{{
  "human_noun": 0,
  "human_noun_2": 1
}}

## Examples
Text: Les facteurs d'employabilité des facteurs, chargés de distribuer le courrier, vont évoluer.
Nouns: facteurs, facteurs_2
Output: {{ "facteurs": 0, "facteurs_2": 1 }}

Text: Le président a annoncé aux citoyens une série de mesures pour renforcer l'économie du pays.
Nouns: président, citoyens, mesures
Output: {{ "président": 1, "citoyens": 1, "mesures": 0 }}

Text: Il croit aux esprits et aux fantômes depuis qu'il est enfant.
Nouns: esprits, fantômes, enfant
Output: {{ "esprits": 0, "fantômes": 0, "enfant": 1 }}

Text: {text}
Nouns: {human_nouns}
Output:"""

VALIDATION_TEMPERATURE = 0.0
VALIDATION_MAX_TOKENS = 500


def occurrence_ids(nouns: list[str]) -> list[str]:
    """Assign ids to nouns in textual order; repeats get _2, _3, ... suffixes."""
    seen: dict[str, int] = {}
    ids = []
    for noun in nouns:
        seen[noun] = seen.get(noun, 0) + 1
        ids.append(noun if seen[noun] == 1 else f"{noun}_{seen[noun]}")
    return ids


def build_validation_prompt(text: str, nouns: list[str]) -> tuple[str, str]:
    """System and user prompts for one validation call.

    Nouns must be listed in the order they occur in the text; an empty
    list is an error since there is nothing to validate.
    """
    if not nouns:
        raise ValueError("nothing to validate: noun list is empty")
    ids = occurrence_ids(nouns)
    user = VALIDATION_USER_TEMPLATE.format(text=text, human_nouns=", ".join(ids))
    return VALIDATION_SYSTEM_PROMPT, user


@dataclass
class ParsedValidation:
    verdicts: dict[str, int] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    extraneous: list[str] = field(default_factory=list)
    parse_error: str | None = None


def _first_json_object(raw: str) -> dict | None:
    # Try to decode a JSON value at each '{'; the first object wins.
    decoder = json.JSONDecoder()
    start = raw.find("{")
    while start != -1:
        try:
            parsed, _ = decoder.raw_decode(raw, start)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict):
            return parsed
        start = raw.find("{", start + 1)
    return None


def parse_validation_response(raw: str, expected_ids: list[str]) -> ParsedValidation:
    """Map each expected id to its 0/1 verdict from a raw model response.

    Extraneous keys are reported and ignored; missing keys are reported as
    per-id errors. A response with no parseable JSON object yields an
    empty verdict map flagged with the parse error.
    """
    obj = _first_json_object(raw)
    if obj is None:
        return ParsedValidation(parse_error="no JSON object found in response")

    result = ParsedValidation()
    for key, value in obj.items():
        if key not in expected_ids:
            result.extraneous.append(key)
            continue
        if value in (0, 1, "0", "1"):
            result.verdicts[key] = int(value)
        else:
            result.missing.append(key)
    for expected in expected_ids:
        if expected not in result.verdicts and expected not in result.missing:
            result.missing.append(expected)
    return result
