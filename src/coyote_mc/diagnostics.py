"""Source locations and diagnostics shared by every compilation stage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class SourceLoc(NamedTuple):
    """Position inside one source unit. Lines and columns are 1-based. A
    tuple, because the lexer makes one for every token."""

    path: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    loc: SourceLoc
    severity: str  # "error" | "warning"
    message: str

    def render(self) -> str:
        return f"{self.loc}: {self.severity}: {self.message}"


class DiagnosticList(Exception):
    """A non-empty batch of diagnostics.

    Raised by frontend entry points so callers can either catch the batch or
    let it surface; it is also a plain container (iterable, len-able).
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


class InternalError(Exception):
    """Invariant violation inside the tool itself (never a user error)."""
