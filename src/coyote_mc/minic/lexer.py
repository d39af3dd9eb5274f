"""Lexer for MiniC: one master pattern of named groups scans the text.

Each match is a run of blanks, a newline with the blanks after it, a comment,
an integer literal, a word or the longest punctuator; a character that starts
none of these is an error. Lines and columns come from the offset of the
current line's start, advanced at each newline.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..diagnostics import Diagnostic, SourceLoc

KEYWORDS = {
    "int",
    "bool",
    "void",
    "record",
    "external",
    "if",
    "else",
    "while",
    "return",
    "assert",
    "null",
    "true",
    "false",
}

# Two-character punctuators come first, so the longest one matches. Integer
# literals are ASCII digits only. A word is `\w+`, which is exactly `isalnum`
# or `_`; it names something only if it starts with a letter or `_`.
_TOKEN_RE = re.compile(r"""
    (?P<blank>[ \t\r]+)
  | (?P<newline>\n[ \t\r\n]*)
  | (?P<punct>&&|\|\||==|!=|<=|>=|[{}()\[\];,.=<>+\-*%!&]|/(?![/*]))
  | (?P<int>[0-9]+)
  | (?P<word>\w+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_DOMAIN_RE = re.compile(r"@domain\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")

# Builds a NamedTuple without the Python-level __new__ its class call runs.
_tuple_new = tuple.__new__


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "kw" | "eof"
    text: str
    loc: SourceLoc


class Annotation(NamedTuple):
    """A @domain(lo,hi) marker found in a comment; attaches to the next function."""

    line: int
    lo: int
    hi: int


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


def tokenize(path: str, text: str) -> tuple[list[Token], list[Annotation]]:
    """Produce the token stream and any annotation comments for one unit."""
    tokens: list[Token] = []
    annotations: list[Annotation] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        start = m.start()
        if kind == "newline":
            end = m.end()
            line += text.count("\n", start, end)
            line_start = text.rindex("\n", start, end) + 1
            continue
        lexeme = m.group()
        loc = _tuple_new(SourceLoc, (path, line, start - line_start + 1))
        if kind == "punct":
            tokens.append(_tuple_new(Token, ("punct", lexeme, loc)))
        elif kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(_tuple_new(Token, ("kw" if lexeme in KEYWORDS else "ident", lexeme, loc)))
        elif kind == "int":
            if int(lexeme) > 2**31 - 1:
                raise LexError(Diagnostic(loc, "error", f"integer literal {lexeme} out of range"))
            tokens.append(_tuple_new(Token, ("int", lexeme, loc)))
        elif kind == "line_comment":
            ann = _DOMAIN_RE.search(lexeme)
            if ann:
                annotations.append(Annotation(line, int(ann.group(1)), int(ann.group(2))))
        elif kind == "block_comment":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
        elif text.startswith("/*", start):  # `other` at a `/*` with no `*/`
            raise LexError(Diagnostic(loc, "error", "unterminated block comment"))
        else:
            raise LexError(Diagnostic(loc, "error", f"unexpected character {lexeme[0]!r}"))
    tokens.append(Token("eof", "", SourceLoc(path, line, len(text) - line_start + 1)))
    return tokens, annotations
