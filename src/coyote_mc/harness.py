"""Test-harness synthesis: drivers, per-record symbolic initializers, stubs.

The generated code is plain MiniC that binds every scalar input leaf to a
symbol id via the `__sym_i32` / `__sym_bool` intrinsics, then calls the target
exactly once. External functions are replaced by stubs that return fresh
symbolic values via `__sym_fresh_i32`. Generation is deterministic:
identical (program, target, depth limit) yields byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import InternalError
from .minic import ast
from .minic import types as ty
from .minic.linker import Program, link_program
from .minic.parser import parse_text

DEFAULT_DEPTH_LIMIT = 3


class HarnessError(Exception):
    pass


@dataclass(frozen=True)
class SymbolEntry:
    symbol_id: int
    path: str  # dotted access path, e.g. "min.x" or "v[2]"
    width: int  # 32 or 1
    domain: tuple[int, int] | None


@dataclass
class SymbolMap:
    entries: list[SymbolEntry] = field(default_factory=list)

    def ids(self) -> list[int]:
        return [e.symbol_id for e in self.entries]

    def domains(self) -> dict[int, tuple[int, int]]:
        return {e.symbol_id: e.domain for e in self.entries if e.domain is not None}

    def widths(self) -> dict[int, int]:
        return {e.symbol_id: e.width for e in self.entries}


@dataclass(frozen=True)
class InitializerSpec:
    record_name: str
    fn_name: str
    credit: int | None  # None when the record needs no depth variants


@dataclass(frozen=True)
class StubSpec:
    external_name: str
    stub_fn_name: str
    tag: int


@dataclass
class HarnessPlan:
    target: str
    driver_name: str
    initializers: list[InitializerSpec]
    stubs: list[StubSpec]
    symbol_map: SymbolMap
    depth_limit: int


def _record_has_address(records: dict[str, ty.RecordDef], t: ty.TypeExpr,
                        seen: frozenset = frozenset()) -> bool:
    """True when t reaches an Address edge through value fields."""
    if isinstance(t, ty.Address):
        return True
    if isinstance(t, ty.Array):
        return _record_has_address(records, t.elem, seen)
    if isinstance(t, ty.Record):
        if t.name in seen:
            return False
        return any(
            _record_has_address(records, ftype, seen | {t.name})
            for _, ftype in records[t.name].fields
        )
    return False


def _leaf_count(records: dict[str, ty.RecordDef], t: ty.TypeExpr, credit: int) -> int:
    """Symbol leaves contributed by a value of type t with allocation credit."""
    if isinstance(t, (ty.Int32, ty.Bool)):
        return 1
    if isinstance(t, ty.Record):
        return sum(_leaf_count(records, ftype, credit) for _, ftype in records[t.name].fields)
    if isinstance(t, ty.Array):
        return t.length * _leaf_count(records, t.elem, credit)
    if isinstance(t, ty.Address):
        if credit <= 0:
            return 0
        return _leaf_count(records, t.elem, credit - 1)
    raise InternalError(f"cannot count leaves of {t}")


# --- planning -------------------------------------------------------------------


def plan_harness(program: Program, target: str,
                 depth_limit: int = DEFAULT_DEPTH_LIMIT) -> HarnessPlan:
    """Plan the harness for one function under test."""
    if depth_limit < 1:
        raise HarnessError(f"depth limit must be >= 1, got {depth_limit}")
    fn = program.functions.get(target)
    if fn is None:
        raise HarnessError(f"target function {target!r} not found")
    if fn.external:
        raise HarnessError(f"target {target!r} is external")

    records = program.records
    domain = fn.domain
    entries: list[SymbolEntry] = []
    initializers: list[InitializerSpec] = []
    seen_inits: set[tuple[str, int | None]] = set()

    def initializer_for(record_name: str, credit: int) -> InitializerSpec:
        variant = (
            None if not _record_has_address(records, ty.Record(record_name)) else credit
        )
        fn_name = f"__SYM_{record_name}" if variant is None else f"__SYM_{record_name}__r{variant}"
        spec = InitializerSpec(record_name, fn_name, variant)
        if (record_name, variant) not in seen_inits:
            seen_inits.add((record_name, variant))
            initializers.append(spec)
            # Plan nested initializers this body will call.
            for _, ftype in records[record_name].fields:
                plan_value_inits(ftype, credit)
        return spec

    def plan_value_inits(t: ty.TypeExpr, credit: int) -> None:
        if isinstance(t, ty.Record):
            initializer_for(t.name, credit)
        elif isinstance(t, ty.Array):
            plan_value_inits(t.elem, credit)
        elif isinstance(t, ty.Address) and credit > 0:
            plan_value_inits(t.elem, credit - 1)

    def walk_symbols(t: ty.TypeExpr, path: str, credit: int) -> None:
        if isinstance(t, ty.Int32):
            entries.append(SymbolEntry(len(entries), path, 32, domain))
        elif isinstance(t, ty.Bool):
            entries.append(SymbolEntry(len(entries), path, 1, domain))
        elif isinstance(t, ty.Record):
            for fname, ftype in records[t.name].fields:
                walk_symbols(ftype, f"{path}.{fname}", credit)
        elif isinstance(t, ty.Array):
            for i in range(t.length):
                walk_symbols(t.elem, f"{path}[{i}]", credit)
        elif isinstance(t, ty.Address):
            if credit > 0:
                walk_symbols(t.elem, path, credit - 1)
        else:
            raise InternalError(f"cannot symbolize type {t}")

    for pname, ptype in fn.params:
        # The driver materializes a pointee for top-level pointer params, so
        # the first Address edge of a parameter costs no depth credit: the
        # pointee is the first object on the chain, exactly like a by-value
        # parameter's own storage.
        if isinstance(ptype, ty.Address):
            plan_value_inits(ptype.elem, depth_limit - 1)
            walk_symbols(ptype.elem, pname, depth_limit - 1)
        else:
            plan_value_inits(ptype, depth_limit - 1)
            walk_symbols(ptype, pname, depth_limit - 1)

    stubs = [
        StubSpec(name, name, tag)
        for tag, name in enumerate(sorted(_reachable_externals(program, target)))
    ]
    return HarnessPlan(
        target=target,
        driver_name=f"__DRIVER_{target}",
        initializers=initializers,
        stubs=stubs,
        symbol_map=SymbolMap(entries),
        depth_limit=depth_limit,
    )


def _reachable_externals(program: Program, target: str) -> set[str]:
    intrinsics = {"__sym_i32", "__sym_bool", "__sym_fresh_i32"}
    calls: dict[str, set[str]] = {}

    def collect(e) -> set[str]:
        out: set[str] = set()
        stack = [e]
        while stack:
            node = stack.pop()
            if node is None or not isinstance(node, (ast.Expr, ast.Stmt)):
                continue
            if isinstance(node, ast.Call):
                out.add(node.name)
                stack.extend(node.args)
                continue
            for attr in ("stmts", "args"):
                stack.extend(getattr(node, attr, []) or [])
            for attr in ("cond", "then_body", "else_body", "body", "value",
                         "target", "init", "expr", "lhs", "rhs", "operand",
                         "base", "index"):
                stack.append(getattr(node, attr, None))
        return out

    externals: set[str] = set()
    visited: set[str] = set()
    frontier = [target]
    while frontier:
        name = frontier.pop()
        if name in visited or name in intrinsics:
            continue
        visited.add(name)
        fn = program.functions.get(name)
        if fn is None:
            continue
        if fn.external:
            externals.add(name)
            continue
        callees = calls.get(name)
        if callees is None:
            callees = collect(fn.body)
            calls[name] = callees
        frontier.extend(callees)
    return externals


# --- code generation ------------------------------------------------------------------


class _NameGen:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}__{self.counter}"


def _decl(t: ty.TypeExpr, name: str) -> str:
    if isinstance(t, ty.Array):
        return f"{ast.format_type(t.elem)} {name}[{t.length}]"
    return f"{ast.format_type(t)} {name}"


def _initializer_name(plan: HarnessPlan, record_name: str, credit: int) -> str:
    for spec in plan.initializers:
        if spec.record_name == record_name and spec.credit in (None, credit):
            return spec.fn_name
    raise InternalError(f"no planned initializer for {record_name} at credit {credit}")


def _emit_value_init(
    program: Program,
    plan: HarnessPlan,
    lines: list[str],
    names: _NameGen,
    t: ty.TypeExpr,
    lvalue: str,
    base_expr: str,
    offset: int,
    credit: int,
    indent: str,
) -> int:
    """Emit code initializing `lvalue` of type t; returns leaves consumed.

    `base_expr + offset` is the symbol id expression for the first leaf.
    """
    records = program.records

    def id_expr(extra: int) -> str:
        total = offset + extra
        if base_expr == "":
            return str(total)
        return f"{base_expr} + {total}" if total else base_expr

    if isinstance(t, ty.Int32):
        lines.append(f"{indent}__sym_i32({id_expr(0)}, &{lvalue});")
        return 1
    if isinstance(t, ty.Bool):
        lines.append(f"{indent}__sym_bool({id_expr(0)}, &{lvalue});")
        return 1
    if isinstance(t, ty.Record):
        fn_name = _initializer_name(plan, t.name, credit)
        lines.append(f"{indent}{fn_name}({id_expr(0)}, &{lvalue});")
        return _leaf_count(records, t, credit)
    if isinstance(t, ty.Array):
        consumed = 0
        for i in range(t.length):
            consumed += _emit_value_init(
                program, plan, lines, names, t.elem, f"{lvalue}[{i}]",
                base_expr, offset + consumed, credit, indent,
            )
        return consumed
    if isinstance(t, ty.Address):
        if credit <= 0:
            lines.append(f"{indent}{lvalue} = null;")
            return 0
        obj = names.fresh(_sanitize(lvalue))
        lines.append(f"{indent}{_decl(t.elem, obj)};")
        consumed = _emit_value_init(
            program, plan, lines, names, t.elem, obj, base_expr, offset,
            credit - 1, indent,
        )
        lines.append(f"{indent}{lvalue} = &{obj};")
        return consumed
    raise InternalError(f"cannot initialize type {t}")


def _sanitize(path: str) -> str:
    out = []
    for ch in path:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def gen_type_initializer(program: Program, spec: InitializerSpec, plan: HarnessPlan) -> str:
    """One `__SYM_<Record>` function binding each scalar field of one record.

    Nested records are initialized through their own functions, never by
    direct field binds here.
    """
    rec = program.records[spec.record_name]
    credit = plan.depth_limit - 1 if spec.credit is None else spec.credit
    names = _NameGen()
    lines = [f"void {spec.fn_name}(int baseId, {spec.record_name}* obj) {{"]
    consumed = 0
    for fname, ftype in rec.fields:
        consumed += _emit_value_init(
            program, plan, lines, names, ftype, f"obj.{fname}", "baseId",
            consumed, credit, "    ",
        )
    lines.append("    return;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gen_driver(program: Program, plan: HarnessPlan) -> str:
    """The driver: allocate locals for each parameter, bind symbols in
    symbol-map order, then call the target exactly once."""
    fn = program.functions[plan.target]
    names = _NameGen()
    lines = [f"void {plan.driver_name}() {{"]
    arg_exprs: list[str] = []
    offset = 0
    credit = plan.depth_limit - 1
    for pname, ptype in fn.params:
        if isinstance(ptype, ty.Address):
            # First Address level is free: the pointee is the chain's first
            # object (mirrors the symbol-map walk in plan_harness).
            lines.append(f"    {_decl(ptype.elem, pname)};")
            offset += _emit_value_init(
                program, plan, lines, names, ptype.elem, pname, "",
                offset, credit, "    ",
            )
            arg_exprs.append(f"&{pname}")
        else:
            lines.append(f"    {_decl(ptype, pname)};")
            offset += _emit_value_init(
                program, plan, lines, names, ptype, pname, "", offset, credit, "    ",
            )
            arg_exprs.append(pname)
    lines.append(f"    {plan.target}({', '.join(arg_exprs)});")
    lines.append("    return;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gen_stub(program: Program, spec: StubSpec, plan: HarnessPlan) -> tuple[str, list[str]]:
    """Stub for one external: fresh symbolic values, no other side effects."""
    fn = program.functions[spec.external_name]
    warnings: list[str] = []
    lines: list[str] = []
    params = ", ".join(_decl(t, n) for n, t in fn.params)
    ret = ast.format_type(fn.return_type)
    lines.append(f"{ret} {spec.stub_fn_name}({params}) {{")

    def fresh_scalar(t: ty.TypeExpr) -> str:
        if isinstance(t, ty.Bool):
            return f"__sym_fresh_i32({spec.tag}) != 0"
        return f"__sym_fresh_i32({spec.tag})"

    def symbolize_pointee(t: ty.TypeExpr, lvalue: str) -> None:
        if isinstance(t, (ty.Int32, ty.Bool)):
            lines.append(f"    {lvalue} = {fresh_scalar(t)};")
        elif isinstance(t, ty.Record):
            for fname, ftype in program.records[t.name].fields:
                symbolize_pointee(ftype, f"{lvalue}.{fname}")
        elif isinstance(t, ty.Array):
            for i in range(t.length):
                symbolize_pointee(t.elem, f"{lvalue}[{i}]")
        elif isinstance(t, ty.Address):
            lines.append(f"    {lvalue} = null;")

    for pname, ptype in fn.params:
        if isinstance(ptype, ty.Address):
            if isinstance(ptype.elem, (ty.Int32, ty.Bool)):
                lines.append(f"    *{pname} = {fresh_scalar(ptype.elem)};")
            elif isinstance(ptype.elem, ty.Record):
                symbolize_pointee(ptype.elem, pname)

    if isinstance(fn.return_type, ty.Void):
        lines.append("    return;")
    elif isinstance(fn.return_type, (ty.Int32, ty.Bool)):
        lines.append(f"    return {fresh_scalar(fn.return_type)};")
    elif isinstance(fn.return_type, ty.Address):
        lines.append("    return null;")
    else:
        warnings.append(
            f"stub {spec.external_name!r}: unsupported return type "
            f"{fn.return_type}; returning zero-initialized value"
        )
        lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n", warnings


def harness_source(program: Program, plan: HarnessPlan) -> str:
    """Complete harness unit text: initializers, stubs, then the driver."""
    parts = [gen_type_initializer(program, spec, plan) for spec in plan.initializers]
    for spec in plan.stubs:
        text, _ = gen_stub(program, spec, plan)
        parts.append(text)
    parts.append(gen_driver(program, plan))
    return "\n".join(parts)


def assemble_unit(program: Program, plan: HarnessPlan) -> Program:
    """Original program plus generated harness, re-linked.

    External declarations that received stubs are replaced; the result must
    link cleanly (a failure here is a generator bug and surfaces verbatim).
    """
    text = harness_source(program, plan)
    try:
        harness_unit = parse_text(f"<harness:{plan.target}>", text)
    except Exception as exc:
        raise InternalError(f"generated harness fails to parse: {exc}") from exc
    stubbed = {spec.external_name for spec in plan.stubs}
    for fn in harness_unit.functions:
        fn.synthetic = True
    units = []
    for unit in program.units:
        kept = [fn for fn in unit.functions if not (fn.external and fn.name in stubbed)]
        units.append(ast.Ast(unit.path, unit.records, kept))
    units.append(harness_unit)
    try:
        return link_program(units)
    except Exception as exc:
        raise InternalError(f"generated harness fails to link: {exc}") from exc
