"""Shared helper for tests that build models by hand."""

import coyote_mc.symexpr as sx


def syms(values: dict) -> dict:
    """The model of 32-bit symbols given as symbol id -> value."""
    return {sx.SymRef(sid): v for sid, v in values.items()}
