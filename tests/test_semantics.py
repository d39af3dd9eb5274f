"""The 32-bit operator tables that the interpreter, the evaluator and the
solver's model check share."""

import random

import pytest

from coyote_mc import semantics
from coyote_mc.semantics import INT_MAX, INT_MIN, binop, compare


@pytest.mark.parametrize("op, a, b, expected", [
    ("/", INT_MIN, -1, INT_MIN),  # the one quotient that overflows wraps
    ("%", INT_MIN, -1, 0),
    ("/", 7, 0, 0),  # division is total: the interpreter's checks stop x / 0 first
    ("%", 7, 0, 0),
    ("/", -7, 0, 0),
    ("%", -7, 0, 0),
    ("%", 7, 3, 1),  # the remainder takes the dividend's sign
    ("%", -7, 3, -1),
    ("%", 7, -3, 1),
    ("%", -7, -3, -1),
    ("/", 7, -2, -3),  # the quotient truncates toward zero
    ("/", -7, 2, -3),
    ("*", 65536, 65536, 0),
    ("*", INT_MAX, 2, -2),
    ("*", INT_MIN, -1, INT_MIN),
    ("+", INT_MAX, 1, INT_MIN),
    ("-", INT_MIN, 1, INT_MAX),
])
def test_binop_edge_cases(op, a, b, expected):
    assert binop(op, a, b) == expected
    assert semantics.ARITH[op](a, b) == expected


def _exact_quotient(a, b):
    """The truncated quotient over unbounded integers; x / 0 is 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_EXACT = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": _exact_quotient,
}


@pytest.mark.parametrize("op", sorted(_EXACT))
def test_operators_wrap_the_exact_result_at_the_limits(op):
    edge = [INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, INT_MAX - 1, INT_MAX]
    for a in edge:
        for b in edge:
            assert semantics.ARITH[op](a, b) == semantics.wrap32(_EXACT[op](a, b)), (a, b)


def test_compare_table():
    pairs = [(-1, 0), (0, 0), (3, -3), (INT_MIN, INT_MAX)]
    expected = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
    assert set(semantics.COMPARE) == set(expected)
    for op, truth in expected.items():
        for a, b in pairs:
            assert compare(op, a, b) is semantics.COMPARE[op](a, b) is truth(a, b)


def test_unknown_operator_raises_value_error():
    with pytest.raises(ValueError, match="arithmetic"):
        binop("<<", 1, 2)
    with pytest.raises(ValueError, match="comparison"):
        compare("<>", 1, 2)
    with pytest.raises(ValueError):
        binop("==", 1, 2)  # each table holds only its own operators


def _rem_by_quotient(a, b):
    """The remainder as a − (a/b)·b, with both products wrapped."""
    if b == 0:
        return 0
    return semantics.wrap32(a - semantics.wrap32(semantics.div_trunc(a, b) * b))


def test_rem_trunc_matches_the_quotient_formula():
    edge = [INT_MIN, INT_MIN + 1, *range(-7, 8), INT_MAX - 1, INT_MAX]
    pairs = [(a, b) for a in edge for b in edge]
    rng = random.Random(20241018)
    for _ in range(10_000):
        b = rng.randint(INT_MIN, INT_MAX) if rng.random() < 0.5 else rng.randint(-300, 300)
        pairs.append((rng.randint(INT_MIN, INT_MAX), b))
    for a, b in pairs:
        assert semantics.rem_trunc(a, b) == _rem_by_quotient(a, b), (a, b)
