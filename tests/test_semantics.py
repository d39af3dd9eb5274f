"""The 32-bit operator tables that the interpreter, the evaluator and the
solver's model check share."""

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
