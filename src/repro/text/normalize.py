"""Token and phrase normalisation helpers.

Normalisation is shared by the corpus generator (when producing gold data)
and the runtime pipeline (when consuming raw text) so that both sides agree
on the canonical form of quantities, fractions and case.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from repro.text.tokenizer import tokenize

__all__ = [
    "UNICODE_FRACTIONS",
    "fold_unicode_fractions",
    "normalize_phrase",
    "normalize_token",
    "parse_quantity",
    "split_quantity_range",
]

#: Mapping of unicode vulgar-fraction characters to ASCII "a/b" strings.
UNICODE_FRACTIONS: dict[str, str] = {
    "¼": "1/4",
    "½": "1/2",
    "¾": "3/4",
    "⅓": "1/3",
    "⅔": "2/3",
    "⅕": "1/5",
    "⅖": "2/5",
    "⅗": "3/5",
    "⅘": "4/5",
    "⅙": "1/6",
    "⅚": "5/6",
    "⅛": "1/8",
    "⅜": "3/8",
    "⅝": "5/8",
    "⅞": "7/8",
}

#: ``(pattern, " a/b", "a/b")`` per fraction character, in dict order: the
#: pattern matches the character right after a digit (a mixed fraction).
_FRACTION_FOLDS: dict[str, tuple[re.Pattern, str, str]] = {
    char: (re.compile(rf"(?<=\d){re.escape(char)}"), f" {ascii_form}", ascii_form)
    for char, ascii_form in UNICODE_FRACTIONS.items()
}

#: Distinct phrases kept by the :func:`normalize_phrase` memo.
_PHRASE_MEMO_SIZE = 16384

_RANGE_PATTERN = re.compile(r"^(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)$")
_MIXED_PATTERN = re.compile(r"^(\d+) (\d+)/(\d+)$")
_FRACTION_PATTERN = re.compile(r"^(\d+)/(\d+)$")
_NUMBER_PATTERN = re.compile(r"^\d+(?:\.\d+)?$")


def fold_unicode_fractions(text: str) -> str:
    """Replace unicode vulgar fractions with ASCII equivalents.

    A digit immediately followed by a unicode fraction ("1½") becomes a mixed
    fraction with an explicit space ("1 1/2").  Characters are folded one
    at a time in :data:`UNICODE_FRACTIONS` order, so ``"¼½"`` becomes
    ``"1/4 1/2"`` but ``"½¼"`` becomes ``"1/21/4"``: a character only sees
    a digit on its left once its left neighbour was folded first.
    Replacements are ASCII, so a character absent from the input stays
    absent and skipping it changes nothing.
    """
    if text.isascii():
        return text
    for char, (after_digit, spaced, ascii_form) in _FRACTION_FOLDS.items():
        if char in text:
            text = after_digit.sub(spaced, text)
            text = text.replace(char, ascii_form)
    return text


def normalize_token(token: str) -> str:
    """Lower-case a token and strip surrounding hyphens/apostrophes."""
    return token.lower().strip("-'")


@lru_cache(maxsize=_PHRASE_MEMO_SIZE)
def normalize_phrase(text: str) -> str:
    """Canonical whitespace/case/fraction form of an entire phrase.

    Memoized: index builds, entity extraction and every posting lookup
    normalize the same few thousand phrases over and over.  The function
    must therefore stay pure — its result may depend on ``text`` only.
    """
    folded = fold_unicode_fractions(text)
    normalized = (normalize_token(token) for token in tokenize(folded))
    return " ".join(token for token in normalized if token)


def split_quantity_range(token: str) -> tuple[str, str] | None:
    """Split a range token like ``"2-3"`` into its endpoints, else ``None``."""
    match = _RANGE_PATTERN.match(token)
    if match is None:
        return None
    return match.group(1), match.group(2)


def parse_quantity(token: str) -> float | None:
    """Parse a quantity token into a float, returning ``None`` when not numeric.

    Supported forms: integers ("2"), decimals ("0.5"), fractions ("3/4"),
    mixed fractions ("1 1/2") and ranges ("2-3", interpreted as the midpoint,
    which is the convention RecipeDB uses for nutritional estimation).
    """
    token = token.strip()
    match = _MIXED_PATTERN.match(token)
    if match is not None:
        whole, num, den = (int(group) for group in match.groups())
        if den == 0:
            return None
        return float(whole + Fraction(num, den))
    match = _FRACTION_PATTERN.match(token)
    if match is not None:
        num, den = int(match.group(1)), int(match.group(2))
        if den == 0:
            return None
        return float(Fraction(num, den))
    match = _RANGE_PATTERN.match(token)
    if match is not None:
        low, high = float(match.group(1)), float(match.group(2))
        return (low + high) / 2.0
    if _NUMBER_PATTERN.match(token):
        return float(token)
    return None
