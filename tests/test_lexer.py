"""The lexer against `lex_oracle`, its character-at-a-time reference: the same
tokens (kind, text, line, column), annotations and error texts on the
benchmark's sources and harnesses, on generated programs and on edge cases."""

import random
from pathlib import Path

import lex_oracle
import pytest
from ast_oracle import ProgramGen, record_graph_source

from coyote_mc import harness
from coyote_mc.diagnostics import DiagnosticList
from coyote_mc.minic.lexer import LexError, tokenize
from coyote_mc.minic.linker import link_program, list_functions
from coyote_mc.minic.parser import parse_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def lexed(path, text):
    try:
        tokens, annotations = tokenize(path, text)
    except LexError as exc:
        return str(exc)
    assert all(t.loc.path == path for t in tokens)
    return (
        [(t.kind, t.text, t.loc.line, t.loc.col) for t in tokens],
        [(a.line, a.lo, a.hi) for a in annotations],
    )


def expected(path, text):
    try:
        return lex_oracle.tokenize(path, text)
    except lex_oracle.OracleLexError as exc:
        return str(exc)


def assert_agrees(path, text):
    assert lexed(path, text) == expected(path, text), (path, text)


def test_benchmark_sources_and_harnesses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    texts = 0
    for workload in workloads.WORKLOADS.values():
        sources = workload.sources(1)
        program = link_program([parse_text(path, text) for path, text in sources])
        names, _ = list_functions(program)
        harnesses = [(f"<harness:{name}>", harness.plan_harness(program, name).source)
                     for name in names]
        for path, text in sources + harnesses:
            assert_agrees(path, text)
            texts += 1
    assert texts >= 90


def test_generated_programs():
    rng = random.Random(2024)
    gen = ProgramGen(rng)
    for i in range(200):
        src, _, _ = gen.program(i)
        assert_agrees(f"gen{i}.mc", src)
    for round_no in range(20):
        assert_agrees(f"rec{round_no}.mc", record_graph_source(rng, round_no))


EDGES = [
    "",
    "int\tf(int x){\treturn x;\t}\n",
    "/* one\n   two\n*/ int f(){ return 1; }\n  int g(){ return 2; }",
    "int f(){ return 1; } /* never closed\n\n",
    "int f(){ return 2147483648; }",
    "int f(){ return 2147483647 + 007; }",
    "// @domain(-3, 4)\nint f(int x){ return x; }",
    "/* @domain(1,2) */\nint f(int x){ return x; }\n//@domain( 5 ,9 ) trailing",
    "int f(){ return $; }",
    "int f(){\r\n  return 1;\r\n}\r\n",
    "int f(){ return 1; } // no newline at the end",
    "/*/ still a comment */ int x",
    "a&&b||c<=d>=e!=f==g<h>i+j-k*l/m%n!o&p.q[r](s,t);",
    "123abc _x9 café x² if iff",
    "int f(){ return 1; }\n\fint g",
    "int f(){ return 1٣; }",
    "int f(){ return ²; }",
    "int f(){ return ٣; }",
]


@pytest.mark.parametrize("text", EDGES)
def test_edge_cases(text):
    assert_agrees("e.mc", text)


@pytest.mark.parametrize("digit", ["²", "٣", "１"])
def test_non_ascii_digit_is_an_unexpected_character(digit):
    # Only 0-9 make an integer literal. A digit outside ASCII once reached
    # `int()` and escaped as a bare ValueError, or joined a literal.
    for text in (f"int f(){{ return {digit}; }}", f"int f(){{ return 1{digit}; }}"):
        with pytest.raises(DiagnosticList) as exc:
            parse_text("d.mc", text)
        [diag] = exc.value
        assert diag.message == f"unexpected character {digit!r}"
        assert diag.loc.col == text.index(digit) + 1
