"""Words over the fixed alphabet {0, 1, #}: the universal value domain.

Every runtime value is a word, represented as a plain Python string whose
symbols come from :data:`ALPHABET`.  The one-symbol word ``"1"`` (``TRUE``) is
the only true value, so truth is ``w == TRUE``; everything else (including
the empty word) counts as false.  ``v in w`` says that v is a factor of w.
"""

from __future__ import annotations

import sys

ALPHABET = "01#"
EPSILON = ""
TRUE = "1"
FALSE = "0"

# No string, so no word, is longer than this: the digits of sys.maxsize.
_LONGEST = str(sys.maxsize)

# Symbol order used by shortlex: 0 < 1 < #.  With '#' read as '2', code
# point order agrees with it.
_SHORTLEX = str.maketrans("#", "2")


class WordError(ValueError):
    """A string that is not a word over {0, 1, #}."""


def is_word(text: str) -> bool:
    return not text.strip(ALPHABET)


def word(text: str) -> str:
    """Validate ``text`` as a word; the identity on valid input."""
    if not is_word(text):
        raise WordError(f"not a word over {{0,1,#}}: {text!r}")
    return text


def shortlex_compare(v: str, w: str) -> int:
    """-1, 0, or 1 as v is below, equal to, or above w in shortlex order."""
    if len(v) != len(w):
        return -1 if len(v) < len(w) else 1
    if v == w:
        return 0
    return -1 if v.translate(_SHORTLEX) < w.translate(_SHORTLEX) else 1


def unary(n: int) -> str:
    """The unary numeral 1^n (zero is the empty word)."""
    return "1" * n


def unary_digits(digits: str) -> str:
    """The unary numeral 1^N for N written in decimal ``digits``.

    An N past ``sys.maxsize``, or too long to allocate, is a WordError.
    """
    n = digits.lstrip("0")
    if (len(n), n) > (len(_LONGEST), _LONGEST):
        raise WordError(f"u{digits} is longer than the longest word, {_LONGEST} symbols")
    try:
        return "1" * int(n or "0")
    except MemoryError:
        raise WordError(f"u{digits} is too long a word to allocate") from None


def unary_value(w: str) -> int | None:
    """len(w) if w is a unary numeral, else None."""
    if w.count("1") == len(w):
        return len(w)
    return None


def binary_value(w: str) -> int | None:
    """The number denoted by w read as a binary numeral, else None.

    The empty word denotes zero (the failure convention used by the
    length operator keeps outputs no longer than inputs).
    """
    if w == EPSILON:
        return 0
    if "#" in w:
        return None
    return int(w, 2)


def binary(n: int) -> str:
    """Canonical binary numeral for n >= 0; zero is the empty word."""
    if n == 0:
        return EPSILON
    return format(n, "b")
