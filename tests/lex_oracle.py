"""Character-at-a-time MiniC lexer used as the reference for `minic.lexer`.

It walks the text one character at a time and keeps line and column by
counting, with no regular expression for tokens, so agreement with the
package's master-pattern lexer is meaningful. It imports nothing from
`coyote_mc`: tokens come back as (kind, text, line, col) tuples, annotations
as (line, lo, hi) tuples, and a lexical error as `OracleLexError` whose text
is the rendered diagnostic, `path:line:col: error: message`.
"""

from __future__ import annotations

import re

KEYWORDS = {
    "int", "bool", "void", "record", "external", "if", "else", "while",
    "return", "assert", "null", "true", "false",
}

# Longest match first.
PUNCT = [
    "&&", "||", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".",
    "=", "<", ">", "+", "-", "*", "/", "%", "!", "&",
]

DIGITS = "0123456789"

_DOMAIN_RE = re.compile(r"@domain\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


class OracleLexError(Exception):
    pass


def tokenize(path: str, text: str) -> tuple[list[tuple], list[tuple]]:
    """The token stream, ending in an `eof` token, and the annotations."""
    tokens: list[tuple] = []
    annotations: list[tuple] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(at_line: int, at_col: int, message: str) -> OracleLexError:
        return OracleLexError(f"{path}:{at_line}:{at_col}: error: {message}")

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end == -1:
                end = n
            m = _DOMAIN_RE.search(text[i:end])
            if m:
                annotations.append((line, int(m.group(1)), int(m.group(2))))
            advance(end - i)
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise error(line, col, "unterminated block comment")
            advance(end + 2 - i)
            continue
        if c in DIGITS:
            start, start_line, start_col = i, line, col
            while i < n and text[i] in DIGITS:
                advance(1)
            lit = text[start:i]
            if int(lit) > 2**31 - 1:
                raise error(start_line, start_col, f"integer literal {lit} out of range")
            tokens.append(("int", lit, start_line, start_col))
            continue
        if c.isalpha() or c == "_":
            start, start_line, start_col = i, line, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance(1)
            word = text[start:i]
            tokens.append(("kw" if word in KEYWORDS else "ident", word, start_line, start_col))
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line, col))
                advance(len(p))
                break
        else:
            raise error(line, col, f"unexpected character {c!r}")

    tokens.append(("eof", "", line, col))
    return tokens, annotations
