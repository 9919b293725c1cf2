"""Independent test oracle: the step-by-step tokenizer.

Matches one whitespace run, comment or token at a time and tracks the line
and column as it goes.  ``parser.tokenize`` reads the text in one
``findall`` pass and works out lines and columns only when asked; the tests
judge it against this one on kinds, values, lines and columns, and on the
errors both raise.

Deliberately separate from the production scanner: only ``ParseError`` and
the keyword set are shared.
"""

from __future__ import annotations

import re

from tierlang.parser import KEYWORDS, ParseError

_STEP_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<string>"[01\#]*")
  | (?P<badstring>"[^"\n]*")
  | (?P<ulit>u[0-9]+\b)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<ovar>[A-Z][A-Za-z0-9_]*)
  | (?P<sym>:=|<=|>=|!=|[=<>+\-(){}\[\];,.|])
    """,
    re.VERBOSE,
)


def tokenize_stepwise(text: str) -> list:
    """(kind, value, line, col) of every token, ending in eof."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _STEP_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "badstring":
            raise ParseError("word literals may only contain 0, 1, #", line, col)
        if kind != "ws":
            if (kind == "ident" and lexeme in KEYWORDS) or kind == "sym":
                kind = lexeme
            tokens.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens
