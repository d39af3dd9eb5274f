"""Coverage aggregation tests: merge monoid laws and percentage rendering."""

import random

import pytest

from coyote_mc import coverage, ir
from coyote_mc.coverage import CoverageMap, CoverageMergeError, FunctionRow, merge, percentage
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text


def random_map(rng, denominators):
    cmap = CoverageMap()
    for name, (st, bt, path) in denominators.items():
        cmap.per_function[name] = FunctionRow(
            file=path,
            stmt_covered={i for i in range(st) if rng.random() < 0.5},
            stmt_total=st,
            branch_covered={100 + i for i in range(bt) if rng.random() < 0.5},
            branch_total=bt,
        )
    return cmap


DENOMS = {"f": (4, 2, "a.mc"), "g": (3, 0, "a.mc"), "h": (5, 4, "b.mc")}


def as_tuples(cmap):
    return {n: (frozenset(r.stmt_covered), frozenset(r.branch_covered))
            for n, r in cmap.per_function.items()}


class TestMerge:
    def test_identity(self):
        rng = random.Random(1)
        x = random_map(rng, DENOMS)
        assert as_tuples(merge(x, CoverageMap())) == as_tuples(x)
        assert as_tuples(merge(CoverageMap(), x)) == as_tuples(x)

    def test_commutative_associative_idempotent(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_map(rng, DENOMS)
            b = random_map(rng, DENOMS)
            c = random_map(rng, DENOMS)
            assert as_tuples(merge(a, b)) == as_tuples(merge(b, a))
            assert as_tuples(merge(merge(a, b), c)) == as_tuples(merge(a, merge(b, c)))
            assert as_tuples(merge(a, a)) == as_tuples(a)

    def test_denominator_mismatch_rejected(self):
        rng = random.Random(3)
        a = random_map(rng, {"f": (4, 2, "a.mc")})
        b = random_map(rng, {"f": (5, 2, "a.mc")})
        with pytest.raises(CoverageMergeError):
            merge(a, b)

    def test_complementary_runs_union(self):
        # Two abs runs covering complementary branches: union covers both.
        from coyote_mc.harness import assemble_unit, plan_harness
        from coyote_mc.interp import TestInput, execute

        program = link_program(
            [parse_text("abs.mc", "int abs(int x){ if (x < 0) { return 0 - x; } return x; }")]
        )
        plan = plan_harness(program, "abs")
        module = ir.lower(assemble_unit(program, plan))
        base = coverage.from_module(module, ["abs"])
        neg = base.copy()
        coverage.add_covered(
            neg, module, execute(module, plan.driver_name, TestInput({0: -5})).covered_points
        )
        pos = base.copy()
        coverage.add_covered(
            pos, module, execute(module, plan.driver_name, TestInput({0: 5})).covered_points
        )
        assert len(neg.per_function["abs"].branch_covered) == 1  # one branch direction each
        assert len(pos.per_function["abs"].branch_covered) == 1
        row = merge(neg, pos).per_function["abs"]
        assert len(row.stmt_covered) == row.stmt_total
        assert (len(row.branch_covered), row.branch_total) == (2, 2)

    def test_totals_equal_sum_of_rows(self):
        rng = random.Random(4)
        for _ in range(20):
            a = random_map(rng, DENOMS)
            b = random_map(rng, DENOMS)
            m = merge(a, b)
            sc, st, bc, bt = m.totals()
            assert sc == sum(len(r.stmt_covered) for r in m.per_function.values())
            assert st == sum(r.stmt_total for r in m.per_function.values())
            per_file = m.per_file()
            assert sum(v[0] for v in per_file.values()) == sc
            assert sum(v[2] for v in per_file.values()) == bc


class TestPercentages:
    def test_table_style_rounding(self):
        # 777 of 778 statements: the same rounding regime as the published
        # comparison tables (half-up, 2 decimals).
        assert percentage(777, 778) == "99.87"

    def test_zero_denominator(self):
        assert percentage(0, 0) == "n/a"

    def test_third(self):
        assert percentage(1, 3) == "33.33"

    def test_half_up(self):
        assert percentage(1, 8) == "12.50"
        assert percentage(5, 800) == "0.63"  # 0.625 rounds up

    def test_report_rows_shape(self):
        rng = random.Random(5)
        cmap = random_map(rng, DENOMS)
        rows = coverage.report_rows(cmap)
        kinds = [r.kind for r in rows]
        assert kinds == ["function"] * 3 + ["file"] * 2 + ["total"]
        total = rows[-1]
        assert total.stmt_total == 12
        assert total.branch_total == 6
