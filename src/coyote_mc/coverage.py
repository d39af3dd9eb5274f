"""Coverage aggregation: per-function covered-point sets rolled up into
per-file and project totals. Percentages are always derived, never stored."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from . import ir


class CoverageMergeError(Exception):
    pass


@dataclass
class FunctionRow:
    file: str
    stmt_covered: set[int] = field(default_factory=set)
    stmt_total: int = 0
    branch_covered: set[int] = field(default_factory=set)
    branch_total: int = 0

    def copy(self) -> "FunctionRow":
        return FunctionRow(
            self.file,
            set(self.stmt_covered),
            self.stmt_total,
            set(self.branch_covered),
            self.branch_total,
        )


@dataclass
class CoverageMap:
    per_function: dict[str, FunctionRow] = field(default_factory=dict)

    def copy(self) -> "CoverageMap":
        return CoverageMap({name: row.copy() for name, row in self.per_function.items()})

    def per_file(self) -> dict[str, tuple[int, int, int, int]]:
        out: dict[str, list[int]] = {}
        for row in self.per_function.values():
            agg = out.setdefault(row.file, [0, 0, 0, 0])
            agg[0] += len(row.stmt_covered)
            agg[1] += row.stmt_total
            agg[2] += len(row.branch_covered)
            agg[3] += row.branch_total
        return {path: tuple(v) for path, v in sorted(out.items())}

    def totals(self) -> tuple[int, int, int, int]:
        sc = st = bc = bt = 0
        for row in self.per_function.values():
            sc += len(row.stmt_covered)
            st += row.stmt_total
            bc += len(row.branch_covered)
            bt += row.branch_total
        return (sc, st, bc, bt)


def from_module(module: ir.IrModule, tested: list[str]) -> CoverageMap:
    """Empty coverage map with denominators taken from a lowered module."""
    stmt_totals, branch_totals = module.coverage_totals
    cmap = CoverageMap()
    for name in tested:
        fn = module.functions[name]
        cmap.per_function[name] = FunctionRow(
            file=fn.src_path,
            stmt_total=stmt_totals.get(name, 0),
            branch_total=branch_totals.get(name, 0),
        )
    return cmap


def add_covered(cmap: CoverageMap, module: ir.IrModule, covered: set[int]) -> None:
    """Fold a unit run's covered point ids into the map (tested functions only)."""
    for point_id in covered:
        point = module.points[point_id]
        row = cmap.per_function.get(point.func_name)
        if row is None or point.is_error_edge:
            continue
        if point.kind == "stmt":
            row.stmt_covered.add(point_id)
        else:
            row.branch_covered.add(point_id)


def merge(a: CoverageMap, b: CoverageMap) -> CoverageMap:
    """Union of covered sets; associative, commutative, idempotent.

    Denominators must agree per function (mixing stale builds is an error).
    """
    out = a.copy()
    for name, row in b.per_function.items():
        mine = out.per_function.get(name)
        if mine is None:
            out.per_function[name] = row.copy()
            continue
        if (mine.stmt_total, mine.branch_total) != (row.stmt_total, row.branch_total):
            raise CoverageMergeError(
                f"denominator mismatch for {name!r}: "
                f"{(mine.stmt_total, mine.branch_total)} vs {(row.stmt_total, row.branch_total)}"
            )
        mine.stmt_covered |= row.stmt_covered
        mine.branch_covered |= row.branch_covered
    return out


def percentage(covered: int, total: int) -> str:
    """Half-up, two decimals; zero denominators render n/a."""
    if total == 0:
        return "n/a"
    pct = Decimal(covered * 100) / Decimal(total)
    return str(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ReportRow:
    name: str
    kind: str  # "function" | "file" | "total"
    file: str
    stmt_covered: int
    stmt_total: int
    stmt_pct: str
    branch_covered: int
    branch_total: int
    branch_pct: str


def report_rows(cmap: CoverageMap) -> list[ReportRow]:
    """Function rows (definition order preserved), then file rows, then the
    project total."""
    rows = []
    for name, row in cmap.per_function.items():
        rows.append(
            ReportRow(
                name, "function", row.file,
                len(row.stmt_covered), row.stmt_total,
                percentage(len(row.stmt_covered), row.stmt_total),
                len(row.branch_covered), row.branch_total,
                percentage(len(row.branch_covered), row.branch_total),
            )
        )
    for path, (sc, st, bc, bt) in cmap.per_file().items():
        rows.append(
            ReportRow(path, "file", path, sc, st, percentage(sc, st),
                      bc, bt, percentage(bc, bt))
        )
    sc, st, bc, bt = cmap.totals()
    rows.append(
        ReportRow("total", "total", "", sc, st, percentage(sc, st),
                  bc, bt, percentage(bc, bt))
    )
    return rows
