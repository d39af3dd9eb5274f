"""Solver tests: spec examples, soundness/completeness fuzzing against
exhaustive enumeration, monotonicity, and SMT-LIB export."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coyote_mc.symexpr as sx
from coyote_mc import semantics
from coyote_mc.semantics import INT_MAX, INT_MIN
from coyote_mc.solver import (
    DEFAULT_STEP_LIMIT,
    Query,
    SolverError,
    _Search,
    eval_model,
    export_smtlib,
    solve,
)

from models import assertions, inline_lets, parse_sexprs, render_sexpr, smt_eval, syms

X = sx.SymRef(0)
Y = sx.SymRef(1)
Z = sx.SymRef(2)


def i32(v):
    return sx.ConstI32(v)


def propagated(query):
    """Each symbol's interval once propagation reaches its fixpoint, or None
    when propagation empties one."""
    search = _Search(query)
    intervals = search.initial_intervals()
    if intervals is None or not search.propagate(intervals):
        return None
    return {key[1]: intervals[rep] for key, rep in search.class_of.items() if key[0] == 0}


class TestSolve:
    def test_unique_integer(self):
        r = solve(Query([sx.mk_cmp(">", X, i32(0)), sx.mk_cmp("<", X, i32(2))]))
        assert r.status == "sat"
        assert r.model == {X: 1}

    def test_empty_gap_unsat(self):
        r = solve(Query([sx.mk_cmp(">", X, i32(0)), sx.mk_cmp("<", X, i32(1))]))
        assert r.status == "unsat"

    def test_linear_pair_brute_force_unique(self):
        # 3x + y == 10 and x > y over [0,15]^2; enumeration confirms {3,1} is
        # the only model, so the solver must return exactly it.
        constraints = [
            sx.mk_cmp("==", sx.mk_bin("+", sx.mk_bin("*", i32(3), X), Y), i32(10)),
            sx.mk_cmp(">", X, Y),
        ]
        matches = [
            (x, y)
            for x in range(16)
            for y in range(16)
            if 3 * x + y == 10 and x > y
        ]
        assert matches == [(3, 1)]
        r = solve(Query(constraints, domains={0: (0, 15), 1: (0, 15)}))
        assert r.status == "sat"
        assert r.model == {X: 3, Y: 1}

    def test_models_respect_domains(self):
        r = solve(Query([sx.mk_cmp(">", X, i32(3))], domains={0: (0, 10)}))
        assert r.status == "sat"
        assert 3 < r.model[X] <= 10

    def test_bool_symbols(self):
        b = sx.SymRef(5, 1)
        r = solve(Query([b]))
        assert r.status == "sat"
        assert r.model[b] is True
        r2 = solve(Query([b, sx.mk_not(b)]))
        assert r2.status == "unsat"

    def test_full_range_equality(self):
        r = solve(Query([sx.mk_cmp("==", X, i32(1234567))]))
        assert r.model == {X: 1234567}

    def test_wrapping_constraint_never_unsound(self):
        # x + 1 < x is satisfiable only at INT_MAX, where the sum wraps. On a
        # bounded domain excluding it the solver proves unsat; over the full
        # range it may give up with unknown, but must never answer unsat (the
        # wrap point exists) and any sat answer must verify.
        c = sx.mk_cmp("<", sx.mk_bin("+", X, i32(1)), X)
        bounded = solve(Query([c], domains={0: (-8, 7)}))
        assert bounded.status == "unsat"
        full = solve(Query([c]))
        assert full.status in ("sat", "unknown")
        if full.status == "sat":
            assert full.model == {X: 2**31 - 1}


class TestParentModel:
    """Flips whose parent input satisfies the whole prefix: the solver starts
    from the parent's values instead of searching the box low to high."""

    def test_sort8_flip(self):
        # Bubble sort over v[8] with no swap on the all-zero seed: the 28
        # ordering constraints are 7 distinct ones, repeated. The parent took
        # v0 + v7 == 102 with v3 == v4; the flip asks for v3 != v4.
        v = [sx.SymRef(k) for k in range(8)]
        constraints = [
            sx.mk_not(sx.mk_cmp(">", v[j], v[j + 1]))
            for i in range(7)
            for j in range(7 - i)
        ]
        constraints.append(sx.mk_cmp("==", sx.mk_bin("+", v[0], v[7]), i32(102)))
        constraints.append(sx.mk_not(sx.mk_cmp("==", v[3], v[4])))
        hint = {v[k]: 102 if k == 7 else 0 for k in range(8)}
        r = solve(Query(constraints, hint=hint, step_limit=20000))
        assert r.status == "sat"
        assert eval_model(constraints, r.model)

    def test_division_flip(self):
        d = sx.mk_bin("-", Y, i32(4))
        constraints = [
            sx.mk_cmp(">", X, i32(19)),
            sx.mk_cmp("!=", d, i32(0)),
            sx.mk_not(sx.mk_cmp("<", X, i32(19))),
            sx.mk_cmp(">", sx.mk_bin("/", X, d), i32(4)),
        ]
        r = solve(Query(constraints, hint={X: 20, Y: 0}, step_limit=5000))
        assert r.status == "sat"
        assert eval_model(constraints, r.model)

    def test_hinted_values_come_first(self):
        # Without hints the box's low ends come first (x = 4, f = 42).
        f = sx.FreshRef(3, 0)
        constraints = [sx.mk_cmp(">", f, i32(40)), sx.mk_cmp("!=", f, i32(41)),
                       sx.mk_cmp(">", X, i32(3))]
        r = solve(Query(constraints, domains={0: (0, 9)},
                        hint={X: 7, f: 500}))
        assert r.model == {X: 7, f: 500}
        # Propagation cannot narrow f * f; the hint fails and moves by one.
        square = sx.mk_cmp(">", sx.mk_bin("*", f, f), i32(1600))
        r = solve(Query([square], hint={f: 40}))
        assert r.model == {f: 41}


class TestSettledUnknowns:
    """Query shapes that used to end unknown on the generated project: an
    equality next to a strict order, contradictory bounds on one shared
    quotient, and a division flip that needs two variables moved."""

    def test_equal_pair_strictly_ordered_is_unsat(self):
        p, q = X, Y
        constraints = [
            sx.mk_cmp("!=", sx.mk_bin("+", p, q), i32(20)),
            sx.mk_cmp("==", p, q),
            sx.mk_cmp("<", p, q),
        ]
        search = _Search(Query(constraints, hint={X: 0, Y: 0}))
        assert search.solve().status == "unsat"
        assert search.steps <= 100

    def test_shared_quotient_bounds_refute_in_propagation(self):
        a, b = X, Y
        q = sx.mk_bin("/", a, sx.mk_bin("-", b, i32(3)))
        constraints = [
            sx.mk_cmp(">", a, i32(-26)),
            sx.mk_cmp("!=", sx.mk_bin("-", b, i32(3)), i32(0)),
            sx.mk_not(sx.mk_cmp("<", a, i32(-26))),
            sx.mk_cmp(">", q, i32(3)),
            sx.mk_cmp(">", q, i32(5)),
            sx.mk_cmp("<", q, i32(4)),
        ]
        query = Query(constraints, hint={X: 0, Y: 0}, step_limit=5000)
        assert propagated(query) is None
        assert solve(query).status == "unsat"

    @staticmethod
    def division_flip(k, low, bound):
        a, b = X, Y
        d = sx.mk_bin("-", b, i32(k))
        return [
            sx.mk_cmp(">", a, i32(low)),
            sx.mk_cmp("!=", d, i32(0)),
            sx.mk_not(sx.mk_cmp("<", a, i32(low))),
            sx.mk_cmp(">", sx.mk_bin("/", a, d), i32(bound)),
        ]

    def test_division_flip_moves_two_variables(self):
        # Needs b - 6 == 1 and a >= 7 at once: no single move from (0, 0)
        # works. The local phase finds it in a few hundred steps; the search
        # alone takes about 2,000.
        constraints = self.division_flip(6, -4, 6)
        search = _Search(Query(constraints, hint={X: 0, Y: 0}, step_limit=5000))
        r = search.solve()
        assert r.status == "sat"
        assert eval_model(constraints, r.model)
        assert search.steps <= 1000

    def test_division_flip_moves_divisor_to_constant(self):
        # The parent's a = 16 stays; b moves to the query's constant 8, plus 1.
        constraints = self.division_flip(8, 15, 8)
        r = solve(Query(constraints, hint={X: 16, Y: 0}, step_limit=5000))
        assert r.model == {X: 16, Y: 9}


class TestModularLinear:
    """Linear equalities are decided modulo 2^32: an inconsistent reduced row
    refutes the query at once, and elimination gives the point to try."""

    @staticmethod
    def scaled_chain(x_value, factor):
        # x == x_value, y == x * factor, z * x == y + 11: z * x_value is
        # fixed modulo 2^32 once x and y are.
        return [
            sx.mk_cmp("==", X, i32(x_value)),
            sx.mk_cmp("==", Y, sx.mk_bin("*", X, i32(factor))),
            sx.mk_cmp("==", sx.mk_bin("*", Z, X), sx.mk_bin("+", Y, i32(11))),
        ]

    def test_even_factor_is_refuted_by_parity(self):
        # 6z == 59 (mod 2^32): 6z is even for every z, 59 is odd.
        search = _Search(Query(self.scaled_chain(6, 8), step_limit=20000))
        assert search.solve().status == "unsat"
        assert search.steps <= 50

    def test_odd_factor_is_solved_by_its_inverse(self):
        # 9z == 74 (mod 2^32) has the one solution 74 * 9^-1.
        constraints = self.scaled_chain(9, 7)
        r = solve(Query(constraints, step_limit=20000))
        assert r.status == "sat"
        assert r.model[Z] == 1908874362
        assert eval_model(constraints, r.model)

    @pytest.mark.parametrize("c, d", [
        (75, 36), (20, 4), (0, 1), (-7, 3), (100, -100), (2**31 - 1, -(2**31)),
        (-(2**31), 2**31 - 1), (2**31 - 1, 2**31 - 1), (-(2**31), 0), (123456789, -987654321),
    ])
    @pytest.mark.parametrize("hint", [{}, {X: 0, Y: 0}, {X: 2**31 - 1, Y: -5}])
    def test_sum_and_difference_over_the_full_range(self, c, d, hint):
        # x + y and x - y differ by 2y, which is even modulo 2^32 too.
        constraints = [sx.mk_cmp("==", sx.mk_bin("+", X, Y), i32(c)),
                       sx.mk_cmp("==", sx.mk_bin("-", X, Y), i32(d))]
        search = _Search(Query(constraints, hint=hint, step_limit=20000))
        r = search.solve()
        if (c - d) % 2:
            assert r.status == "unsat"
        else:
            assert r.status == "sat"
            assert eval_model(constraints, r.model)
        assert search.steps < 300

    @given(st.data())
    def test_planted_systems_are_never_refuted(self, data):
        # Up to four equalities over up to four symbols, with random
        # coefficients, all holding at a planted int32 point.
        n = data.draw(st.integers(1, 4), label="symbols")
        refs = [sx.SymRef(k) for k in range(n)]
        planted = {ref: data.draw(st.integers(INT_MIN, INT_MAX)) for ref in refs}
        coefficient = st.one_of(st.integers(-9, 9), st.integers(INT_MIN, INT_MAX))
        constraints = []
        for _ in range(data.draw(st.integers(1, 4), label="equalities")):
            terms = [sx.mk_bin("*", i32(data.draw(coefficient)), ref) for ref in refs]
            lhs = terms[0]
            for term in terms[1:]:
                lhs = sx.mk_bin(data.draw(st.sampled_from("+-")), lhs, term)
            constant = i32(data.draw(st.integers(INT_MIN, INT_MAX)))
            lhs = sx.mk_bin("+", lhs, constant)
            constraints.append(sx.mk_cmp("==", lhs, i32(sx.evaluate(lhs, planted))))
        hint = {ref: data.draw(st.integers(INT_MIN, INT_MAX)) for ref in refs}
        r = solve(Query(constraints, hint=hint, step_limit=2000))
        assert r.status != "unsat"
        if r.status == "sat":
            assert eval_model(constraints, r.model)


class TestBackward:
    @pytest.mark.parametrize("rounds", [13, 16])
    def test_shared_chain_hint_settles_at_once(self, rounds):
        # y = x; then y = y + y; y = y - x per round, so y stays x and the
        # hint x = 1 satisfies not(y > 70). Propagation must not walk the
        # tree form, which doubles each round.
        y = X
        for _ in range(rounds):
            y = sx.mk_bin("-", sx.mk_bin("+", y, y), X)
        query = Query([sx.mk_not(sx.mk_cmp(">", y, i32(70)))], domains={0: (0, 100)},
                      hint={X: 1}, step_limit=20000)
        search = _Search(query)
        r = search.solve()
        assert (r.status, r.model) == ("sat", {X: 1})
        assert search.steps < 100


class TestForward:
    def test_division_and_remainder_ranges_hold_every_value(self):
        # Intervals near 0 and at the int32 edges, where INT_MIN / -1 wraps;
        # every point tried must land in the forward range.
        points = [-(2**31), -(2**31) + 1, -9, -2, -1, 0, 1, 2, 9, 2**31 - 2, 2**31 - 1]
        rng = random.Random(5)
        intervals = [tuple(sorted(rng.sample(points, 2))) for _ in range(30)]
        intervals += [(p, p) for p in points]

        def tried(iv):
            near = range(max(iv[0], -3), min(iv[1], 3) + 1)
            return [v for v in points if iv[0] <= v <= iv[1]] + list(near)

        for op in ("/", "%"):
            node = sx.BinExpr(op, X, Y)
            search = _Search(Query([sx.mk_cmp(">", node, i32(0))]))
            for a in intervals:
                for b in intervals:
                    lo, hi = search.forward(node, {(0, 0): a, (0, 1): b}, {})
                    for x in tried(a):
                        for y in tried(b):
                            assert lo <= semantics.binop(op, x, y) <= hi, (op, a, b, x, y)


class TestPropagate:
    def test_equality_class_shares_one_interval(self):
        q = Query([sx.mk_cmp("==", X, Y), sx.mk_cmp(">", X, i32(5))],
                  domains={0: (0, 9), 1: (0, 9)})
        assert propagated(q) == {0: (6, 9), 1: (6, 9)}

    def test_shared_quotient_stops_trading_values(self):
        # 5 + q == q has no int32 solution. Each pass would narrow the
        # quotient's interval by five values only; propagation must leave the
        # budget to the search, which proves it.
        q = sx.mk_bin("/", sx.mk_bin("-", X, i32(4)), X)
        query = Query([sx.mk_cmp("==", sx.mk_bin("+", i32(5), q), q)],
                      hint={X: 3}, step_limit=5000)
        assert solve(query).status == "unsat"

    def test_pinch_to_singleton(self):
        out = propagated(
            Query([sx.mk_cmp(">=", X, i32(5)), sx.mk_cmp("<=", X, i32(5))])
        )
        assert out == {0: (5, 5)}

    def test_self_comparison_unsat(self):
        assert propagated(Query([sx.mk_cmp("<", X, X)])) is None

    def test_a_kept_range_met_empty_refutes_the_box(self):
        # In the search's box x = 0, y <= -1 is kept on y*86 as (-258, -1);
        # the child box y = 0 meets it with the product's range (0, 0), which
        # leaves nothing, so the quotient over it had no divisor to take a
        # range from and the solver raised ValueError. Found by running
        # generated programs on every input of @domain(-3,3).
        product = sx.mk_bin("*", Y, i32(86))
        query = Query([
            sx.mk_cmp(">", sx.mk_bin("-", i32(1), X), sx.mk_bin("+", X, Y)),
            sx.mk_cmp("!=", product, i32(0)),
            sx.mk_cmp("!=", sx.mk_bin("/", Y, product), i32(0)),
        ], domains={0: (-3, 3), 1: (-3, 3)})
        assert solve(query).status == "unsat"

    def test_offset_interval(self):
        out = propagated(
            Query(
                [sx.mk_cmp("==", Y, sx.mk_bin("+", X, i32(1)))],
                domains={0: (0, 3)},
            )
        )
        # Oracle: enumerate x in [0,3] -> y in [1,4].
        assert out[1] == (1, 4)

    def test_never_removes_satisfying_assignment(self):
        # Fuzz vs brute force on 4-bit domains.
        rng = random.Random(31337)
        gen = _QueryGen(rng, n_vars=3, lo=-8, hi=7)
        for _ in range(300):
            constraints = gen.constraints()
            q = Query(constraints, domains=gen.domains())
            out = propagated(q)
            solutions = gen.enumerate_solutions(constraints)
            if out is None:
                assert solutions == [], [sx.to_prefix(c) for c in constraints]
            else:
                for sol in solutions:
                    for sid, value in sol.items():
                        lo, hi = out.get(sid, (-(2**31), 2**31 - 1))
                        assert lo <= int(value) <= hi


class TestCharge:
    @staticmethod
    def outcome(search, charge):
        try:
            charge()
        except Exception as exc:  # the search's _Budget or _SubtreeQuota
            return type(exc).__name__, search.steps
        return None, search.steps

    @pytest.mark.parametrize("expired", [False, True])
    def test_charge_raises_where_its_ticks_would(self, expired):
        # From each start, n steps charged at once and as n ticks raise the
        # same exception with the same steps: the budget at the step limit,
        # the subtree quota past its cap, an expired deadline at the first
        # multiple of 512 reached.
        deadline = time.monotonic() + (-1000 if expired else 1000)
        raised = set()
        for limit, cap, start, n in itertools.product(
                (0, 3, 511, 512, 700, 2000), (None, 0, 5, 511, 600, 1500),
                (0, 1, 509, 510, 511, 512, 1023), (0, 1, 2, 3, 600, 1500)):
            results = []
            for charge in ("ticks", "charge"):
                search = _Search(Query([sx.mk_cmp(">", X, i32(0))], step_limit=limit))
                search.steps, search.cap, search.deadline = start, cap, deadline
                if charge == "ticks":
                    results.append(self.outcome(
                        search, lambda: [search.tick() for _ in range(n)]))
                else:
                    results.append(self.outcome(search, lambda: search.charge(n)))
            assert results[0] == results[1], (limit, cap, start, n)
            raised.add(results[0][0])
        assert raised == {None, "_Budget", "_SubtreeQuota"}


class TestEvalModel:
    def test_basic(self):
        assert eval_model([sx.mk_cmp(">", X, i32(0))], {X: 1}) is True
        assert eval_model([sx.mk_cmp(">", X, i32(0))], {X: 0}) is False

    def test_wrapping(self):
        # x + 1 > x is false at INT_MAX because the sum wraps.
        c = sx.mk_cmp(">", sx.mk_bin("+", X, i32(1)), X)
        assert eval_model([c], {X: 2**31 - 1}) is False
        assert eval_model([c], {X: 5}) is True

    def test_missing_binding_is_error(self):
        with pytest.raises(SolverError):
            eval_model([sx.mk_cmp(">", X, Y)], {X: 1})


class TestSmtExport:
    def test_single_constraint(self):
        text = export_smtlib(Query([sx.mk_cmp(">", X, i32(0))]))
        assert "(declare-const s0 (_ BitVec 32))" in text
        assert "(assert (bvsgt s0 (_ bv0 32)))" in text
        assert text.rstrip().endswith("(check-sat)")

    def test_empty_query(self):
        text = export_smtlib(Query([]))
        assert text.strip().splitlines()[-1] == "(check-sat)"

    def test_negative_constant_two_complement(self):
        text = export_smtlib(Query([sx.mk_cmp("==", X, i32(-1))]))
        assert f"(_ bv{2**32 - 1} 32)" in text

    def test_fresh_and_bool_declarations(self):
        f = sx.FreshRef(2, 1)
        b = sx.SymRef(4, 1)
        text = export_smtlib(Query([sx.mk_cmp("==", X, f), b]))
        assert "(declare-const f2_1 (_ BitVec 32))" in text
        assert "(declare-const s4 Bool)" in text

    @staticmethod
    def chain(rounds):
        """y = x; then y = y + y; y = y - x per round: 2 * rounds + 1 distinct
        nodes, whose tree doubles each round."""
        y = X
        for _ in range(rounds):
            y = sx.mk_bin("-", sx.mk_bin("+", y, y), X)
        return y

    def test_shared_chain_exports_in_time(self):
        query = Query([sx.mk_cmp("==", self.chain(20), i32(7))])
        start = time.perf_counter()
        text = export_smtlib(query)
        assert time.perf_counter() - start < 1.0
        assert len(text) < 10_000

    def test_node_used_twice_is_bound_once(self):
        text = export_smtlib(Query([sx.mk_cmp("==", self.chain(2), i32(7))]))
        assert text == (
            "(set-logic QF_BV)\n"
            "(declare-const s0 (_ BitVec 32))\n"
            "(assert (let ((t0 (bvsub (bvadd s0 s0) s0))) "
            "(= (bvsub (bvadd t0 t0) s0) (_ bv7 32))))\n"
            "(check-sat)\n"
        )

    def test_bindings_expand_to_the_tree(self):
        tree = "s0"
        for _ in range(8):
            tree = f"(bvsub (bvadd {tree} {tree}) s0)"
        text = export_smtlib(Query([sx.mk_cmp(">", self.chain(8), X), sx.mk_cmp("<", X, i32(3))]))
        assert [render_sexpr(inline_lets(term, {})) for term in assertions(text)] == [
            f"(bvsgt {tree} s0)", "(bvslt s0 (_ bv3 32))"
        ]

    def test_division_by_zero_exports_as_minic_defines_it(self):
        # MiniC makes x / 0 and x % 0 zero; bvsdiv and bvsrem do not, so the
        # script must guard them for the solver's model to satisfy it.
        query = Query([sx.mk_cmp("==", sx.mk_bin("/", X, Y), i32(0)),
                       sx.mk_cmp("==", sx.mk_bin("%", X, Y), i32(0)),
                       sx.mk_cmp("==", Y, i32(0)), sx.mk_cmp("==", X, i32(5))])
        result = solve(query)
        assert result.status == "sat" and result.model == {X: 5, Y: 0}
        terms = assertions(export_smtlib(query))
        assert len(terms) == 4
        assert all(smt_eval(term, result.model) is True for term in terms)

    def test_nested_divisions_export_linearly(self):
        # Each divisor is read twice, by its guard and by its division, so an
        # inner divisor is bound once and the text stays linear; spelled out,
        # it would double with each of the 16 levels.
        y = X
        for _ in range(16):
            y = sx.mk_bin("/", X, y)
        c = sx.mk_cmp("==", y, i32(1))
        text = export_smtlib(Query([c]))
        assert len(text) <= 80 * len(list(sx.nodes([c])))
        (term,) = assertions(text)
        for x in (-3, 0, 1, 3):
            assert smt_eval(term, {X: x}) is sx.evaluate(c, {X: x})

    def test_terms_evaluate_as_expressions(self):
        # Well-typed queries with shared `*`, `/` and `%` nodes, zero divisors
        # included: each conjunct's term, read by an evaluator written from
        # SMT-LIB's definitions, has the conjunct's value under every grid model
        # and at int32's edges.
        rng = random.Random(31)
        gen = _QueryGen(rng, n_vars=2, lo=-4, hi=3, shared=True)
        edge = [-(2**31), -1, 0, 1, 7, 2**31 - 1]
        models = [syms(dict(enumerate(row))) for row in gen.grid().tolist()]
        models += [syms(dict(enumerate(row))) for row in itertools.product(edge, repeat=2)]
        for _ in range(60):
            for c in gen.constraints():
                term = parse_sexprs(sx.to_prefix(c))[0]
                for model in models:
                    assert smt_eval(term, model) == sx.evaluate(c, model), sx.to_prefix(c)


class _QueryGen:
    """Random small queries plus an exhaustive-enumeration oracle.

    With `shared`, each query also draws a pool of `*`, `/` and `%` nodes that
    its comparisons reuse by identity, and equalities between two variables
    (as `x == y` or `not(x != y)`) join its conjuncts."""

    def __init__(self, rng, n_vars, lo, hi, shared=False):
        self.rng = rng
        self.n_vars = n_vars
        self.lo = lo
        self.hi = hi
        self.shared = shared
        self.pool = []

    def domains(self):
        return {i: (self.lo, self.hi) for i in range(self.n_vars)}

    def int_expr(self, depth):
        r = self.rng
        if self.pool and r.random() < 0.3:
            return r.choice(self.pool)
        if depth == 0 or r.random() < 0.4:
            if r.random() < 0.6:
                return sx.SymRef(r.randrange(self.n_vars))
            return sx.ConstI32(r.randrange(-8, 8))
        op = r.choice(["+", "-", "*"])
        return sx.BinExpr(op, self.int_expr(depth - 1), self.int_expr(depth - 1))

    def bool_expr(self, depth):
        r = self.rng
        if depth == 0 or r.random() < 0.5:
            op = r.choice(sx.CMP_OPS)
            return sx.CmpExpr(op, self.int_expr(1), self.int_expr(1))
        kind = r.randrange(3)
        if kind == 0:
            return sx.NotExpr(self.bool_expr(depth - 1))
        return sx.BinExpr(
            "and" if kind == 1 else "or",
            self.bool_expr(depth - 1),
            self.bool_expr(depth - 1),
        )

    def constraints(self):
        if not self.shared:
            return [self.bool_expr(2) for _ in range(self.rng.randrange(1, 4))]
        r = self.rng
        self.pool = []
        self.pool = [sx.BinExpr(r.choice("*/%"), self.int_expr(1), self.int_expr(1))
                     for _ in range(r.randrange(1, 3))]
        out = [self.bool_expr(2) for _ in range(r.randrange(1, 4))]
        for _ in range(r.randrange(3)):
            x, y = (sx.SymRef(i) for i in r.sample(range(self.n_vars), 2))
            eq = sx.CmpExpr("==", x, y) if r.random() < 0.5 else sx.NotExpr(sx.CmpExpr("!=", x, y))
            out.insert(r.randrange(len(out) + 1), eq)
        return out

    def grid(self):
        """Every assignment over the domains, one row each, in product order."""
        values = range(self.lo, self.hi + 1)
        rows = list(itertools.product(values, repeat=self.n_vars))
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.n_vars)

    def enumerate_solutions(self, constraints):
        grid = self.grid()
        holds = np.ones(len(grid), dtype=bool)
        for c in constraints:
            holds &= grid_evaluate(c, grid)
        return [dict(enumerate(row)) for row in grid[holds].tolist()]


def _wrap32(values):
    return ((values + 2**31) & 0xFFFFFFFF) - 2**31


def _grid_div(a, b):
    """C division truncating toward zero, x/0 == 0, like semantics.div_trunc."""
    safe = np.where(b == 0, 1, b)
    q = np.abs(a) // np.abs(safe)
    return np.where(b == 0, 0, _wrap32(np.where((a < 0) != (safe < 0), -q, q)))


_GRID_OPS = {
    "+": lambda a, b: _wrap32(a + b),
    "-": lambda a, b: _wrap32(a - b),
    "*": lambda a, b: _wrap32(a * b),  # |a*b| <= 2**62 fits in int64
    "/": _grid_div,
    "%": lambda a, b: np.where(b == 0, 0, _wrap32(a - _wrap32(_grid_div(a, b) * b))),
    "and": np.logical_and,
    "or": np.logical_or,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def grid_evaluate(e, grid):
    """Evaluate a generated expression on every row of an int64 grid at once
    (column i holds symbol i), with exact 32-bit wrapping. Covers the nodes
    _QueryGen emits."""
    if isinstance(e, sx.SymRef):
        return grid[:, e.symbol_id]
    if isinstance(e, sx.ConstI32):
        return np.full(len(grid), e.value, dtype=np.int64)
    if isinstance(e, (sx.BinExpr, sx.CmpExpr)):
        return _GRID_OPS[e.op](grid_evaluate(e.lhs, grid), grid_evaluate(e.rhs, grid))
    if isinstance(e, sx.NotExpr):
        return ~grid_evaluate(e.operand, grid)
    raise TypeError(f"grid cannot evaluate {type(e).__name__}")


def over_grid(exprs, edge):
    """Each expression's values on the grid of `edge` squared, in its product
    order, computed as columns: symbol 0 takes every value of `edge` at once
    while symbol 1 is fixed per column, and the expressions share one memo
    per column."""
    out = [[None] * len(edge) ** 2 for _ in exprs]
    for iy, y in enumerate(edge):
        memo = {}
        for rows, expr in zip(out, exprs):
            column = sx.evaluate_over(expr, [X], edge, {Y: y}, memo=memo)
            rows[iy::len(edge)] = column if type(column) is list else [column] * len(edge)
    return out


class TestGridOracle:
    def test_grid_matches_evaluate_row_by_row(self):
        # Extreme values make + - * wrap; every row must agree with sx.evaluate.
        rng = random.Random(99)
        gen = _QueryGen(rng, n_vars=2, lo=-8, hi=7)
        edge = [-(2**31), -(2**31) + 1, -70000, -1, 0, 1, 3, 70000, 2**31 - 1]
        grid = np.array(list(itertools.product(edge, repeat=2)), dtype=np.int64)
        for _ in range(200):
            expr = gen.int_expr(3) if rng.random() < 0.5 else gen.bool_expr(2)
            got = grid_evaluate(expr, grid).tolist()
            want = [sx.evaluate(expr, syms(dict(enumerate(row)))) for row in grid.tolist()]
            assert got == want, sx.to_prefix(expr)
            assert over_grid([expr], edge) == [got], sx.to_prefix(expr)

    # Cases the grid cannot emit, each against sx.evaluate value by value:
    # (expression, the refs that take the values).
    B = sx.SymRef(5, 1)
    F = sx.FreshRef(3, 0)
    COLUMN_CASES = [
        (sx.IteExpr(sx.CmpExpr(">", X, i32(0)), sx.BinExpr("+", X, i32(1)), Y), [X]),
        (sx.IteExpr(sx.CmpExpr("<", X, i32(2)), i32(5), i32(9)), [X]),
        (sx.IteExpr(sx.CmpExpr(">", Y, i32(0)), X, i32(7)), [X]),
        (sx.IteExpr(sx.CmpExpr("<", Y, i32(0)), X, i32(7)), [X]),
        (B, [B]),
        (sx.NotExpr(B), [B]),
        (sx.BinExpr("and", B, sx.CmpExpr(">", Y, i32(0))), [B]),
        (sx.BinExpr("or", sx.NotExpr(B), sx.CmpExpr("==", X, i32(0))), [B]),
        (sx.BinExpr("or", sx.CmpExpr("<", Y, i32(0)), B), [X]),
        (sx.CmpExpr(">", sx.BinExpr("+", F, i32(1)), i32(0)), [F]),
        (sx.BinExpr("-", X, F), [X]),
        (sx.BinExpr("/", X, i32(0)), [X]),
        (sx.BinExpr("%", X, i32(0)), [X]),
        (sx.BinExpr("/", X, i32(-1)), [X]),
        (sx.BinExpr("%", X, i32(-1)), [X]),
        (sx.BinExpr("/", Y, X), [X]),
        (sx.BinExpr("%", Y, X), [X]),
        (sx.BinExpr("and", sx.CmpExpr(">", X, i32(0)), sx.CmpExpr("<", Y, i32(5))), [X]),
        (sx.BinExpr("and", sx.NotExpr(sx.CmpExpr(">", X, i32(0))),
                    sx.CmpExpr("!=", X, i32(-1))), [X]),
        (sx.NotExpr(sx.BinExpr("or", sx.CmpExpr(">", Y, i32(0)), sx.CmpExpr("<", Y, i32(0)))),
         [X]),
        (sx.CmpExpr("==", sx.BinExpr("-", X, Z), i32(0)), [X, Z]),
        (sx.BinExpr("*", X, Z), [X]),
    ]

    @pytest.mark.parametrize("expr, refs", COLUMN_CASES)
    def test_columns_match_evaluate_value_by_value(self, expr, refs):
        values = [-(2**31), -(2**31) + 1, -1, 0, 1, 2, 2**31 - 1]
        if refs == [self.B]:
            # A model holds a width-1 symbol's value as a bool; the sweep
            # passes a bool class's interval bounds, the ints 0 and 1.
            values = [0, 1, False, True]
        for y in (-(2**31), -1, 0, 3):
            model = {X: 4, Y: y, Z: 6, self.B: True, self.F: y}

            def at(v):
                return sx.evaluate(expr, {**model, **dict.fromkeys(refs, v)})

            want = [at(v) for v in values]
            got = sx.evaluate_over(expr, refs, values, model)
            if type(got) is not list:  # the value does not depend on the refs here
                got = [got] * len(values)
            assert got == want, (sx.to_prefix(expr), y)
            assert [type(v) for v in got] == [type(v) for v in want], (sx.to_prefix(expr), y)


class TestSharedNodes:
    """Queries whose conjuncts share `*`, `/` and `%` nodes and equate pairs
    of variables, against exhaustive enumeration."""

    def test_grid_matches_evaluate_row_by_row(self):
        rng = random.Random(1729)
        gen = _QueryGen(rng, n_vars=2, lo=-8, hi=7, shared=True)
        edge = [-(2**31), -(2**31) + 1, -70000, -1, 0, 1, 3, 70000, 2**31 - 1]
        grid = np.array(list(itertools.product(edge, repeat=2)), dtype=np.int64)
        for _ in range(100):
            constraints = gen.constraints()
            columns = over_grid(constraints, edge)  # one memo across the conjuncts
            for expr, column in zip(constraints, columns):
                got = grid_evaluate(expr, grid).tolist()
                want = [sx.evaluate(expr, syms(dict(enumerate(row)))) for row in grid.tolist()]
                assert got == want, sx.to_prefix(expr)
                assert column == got, sx.to_prefix(expr)

    def test_solver_agrees_with_grid(self):
        # Never unsat where the grid has a solution, every model verifies and
        # lies in the grid, propagation keeps every solution; hints inside,
        # outside and missing from the domain exercise the local moves.
        rng = random.Random(1618)
        gen = _QueryGen(rng, n_vars=3, lo=-8, hi=7, shared=True)
        for _ in range(300):
            constraints = gen.constraints()
            bindings = {}
            for sid in range(gen.n_vars):
                kind = rng.randrange(3)
                if kind == 0:
                    bindings[sid] = rng.randrange(gen.lo, gen.hi + 1)
                elif kind == 1:
                    bindings[sid] = rng.choice([-(2**31), -9, 8, 1000, 2**31 - 1])
            query = Query(constraints, domains=gen.domains(), hint=syms(bindings))
            result = solve(query)
            solutions = gen.enumerate_solutions(constraints)
            shown = [sx.to_prefix(c) for c in constraints]
            if result.status == "sat":
                assert eval_model(constraints, result.model)
                assert any(all(sol[ref.symbol_id] == value for ref, value in result.model.items())
                           for sol in solutions), shown
            else:
                assert result.status == "unsat", shown
                assert solutions == [], shown
            narrowed = propagated(query)
            if narrowed is None:
                assert solutions == [], shown
            for sol in solutions:
                for sid, (lo, hi) in narrowed.items():
                    assert lo <= sol[sid] <= hi, shown


class TestCompleteness:
    def test_small_domain_agreement(self):
        # Smaller inline version of the acceptance fuzz: the full 10,000-query
        # run lives in the acceptance suite.
        rng = random.Random(4242)
        gen = _QueryGen(rng, n_vars=3, lo=-8, hi=7)
        for _ in range(400):
            constraints = gen.constraints()
            result = solve(Query(constraints, domains=gen.domains()))
            solutions = gen.enumerate_solutions(constraints)
            if result.status == "sat":
                assert eval_model(constraints, result.model)
                for value in result.model.values():
                    assert gen.lo <= int(value) <= gen.hi
                assert solutions, "solver sat but enumeration found nothing"
            elif result.status == "unsat":
                assert solutions == [], [sx.to_prefix(c) for c in constraints]
            else:
                pytest.fail("unknown on a 4-bit domain query")

    def test_hints_keep_soundness_and_step_limit(self):
        # Hints inside, outside and missing from the domain, some conjuncts
        # repeated, under budgets from a handful of steps to the default:
        # every sat model satisfies the oracle, unsat only where it has no
        # solution, and the search never takes more steps than its limit.
        rng = random.Random(2718)
        gen = _QueryGen(rng, n_vars=3, lo=-8, hi=7)
        for _ in range(300):
            constraints = gen.constraints()
            constraints += rng.sample(constraints, rng.randrange(len(constraints) + 1))
            bindings = {}
            for sid in range(gen.n_vars):
                kind = rng.randrange(3)
                if kind == 0:
                    bindings[sid] = rng.randrange(gen.lo, gen.hi + 1)
                elif kind == 1:
                    bindings[sid] = rng.choice([-(2**31), -9, 8, 1000, 2**31 - 1])
            step_limit = rng.choice([1, 5, 20, 60, 200, DEFAULT_STEP_LIMIT])
            query = Query(constraints, domains=gen.domains(), hint=syms(bindings),
                          step_limit=step_limit)
            search = _Search(query)
            result = search.solve()
            assert search.steps <= step_limit
            solutions = gen.enumerate_solutions(constraints)
            if result.status == "sat":
                # Symbols the constraints do not mention are left out of the model.
                assert any(all(sol[ref.symbol_id] == value for ref, value in result.model.items())
                           for sol in solutions)
            elif result.status == "unsat":
                assert solutions == [], [sx.to_prefix(c) for c in constraints]
            else:
                assert step_limit < DEFAULT_STEP_LIMIT, "unknown on a 4-bit domain query"

    def test_monotonicity(self):
        # Adding a constraint never turns Unsat into Sat.
        rng = random.Random(777)
        gen = _QueryGen(rng, n_vars=2, lo=-8, hi=7)
        for _ in range(200):
            base = gen.constraints()
            extra = base + [gen.bool_expr(1)]
            r_base = solve(Query(base, domains=gen.domains()))
            r_extra = solve(Query(extra, domains=gen.domains()))
            if r_base.status == "unsat":
                assert r_extra.status == "unsat"
