"""Test-harness synthesis: drivers, per-record symbolic initializers, stubs.

The generated code is plain MiniC that binds every scalar input leaf to a
symbol id via the `__sym_i32` / `__sym_bool` intrinsics, then calls the target
exactly once. External functions are replaced by stubs that return fresh
symbolic values via `__sym_fresh_i32`.

`plan_harness` writes the driver in one walk over the target's parameter
types. Each scalar leaf is written as a bind at the next symbol id, and its
access path and width are appended to the symbol map as the bind is written,
so the map is read off the code. A record is initialized by a `__SYM_<Record>`
function that binds ids relative to its `baseId` argument; it is written on
first use, in pre-order, by the same walk, and keeps its own list of leaves,
which each call site appends to its caller's, prefixed by the call site's
path. Each pointer edge below a parameter's first costs one unit of depth
credit, and a pointer met with no credit left is null; a record that reaches
a pointer therefore gets one initializer per credit, `__SYM_<Record>__r<n>`.
Generation is deterministic: identical (program, target, depth limit) yields
byte-identical text.
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


@dataclass(frozen=True)
class InitializerSpec:
    record_name: str
    fn_name: str
    credit: int | None  # None when the record needs no depth variants


@dataclass(frozen=True)
class StubSpec:
    external_name: str
    tag: int


@dataclass
class HarnessPlan:
    target: str
    driver_name: str
    initializers: list[InitializerSpec]
    stubs: list[StubSpec]
    symbol_map: SymbolMap
    source: str  # initializers, stubs, then the driver


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


# --- writing ---------------------------------------------------------------------


class _Function:
    """One generated function: its lines, the (path, width) of each symbol it
    binds in id order, and its counter for fresh local names."""

    def __init__(self, name: str, header: str, base: str | None) -> None:
        self.name = name
        self.lines = [header]
        self.base = base  # symbol id of the first leaf; None means 0
        self.leaves: list[tuple[str, int]] = []
        self.names = 0

    def add(self, line: str) -> None:
        self.lines.append(f"    {line}")

    def next_id(self) -> str:
        k = len(self.leaves)
        if self.base is None:
            return str(k)
        return f"{self.base} + {k}" if k else self.base

    def fresh(self, lvalue: str) -> str:
        self.names += 1
        return f"{_sanitize(lvalue)}__{self.names}"

    def text(self) -> str:
        return "\n".join(self.lines + ["    return;", "}"]) + "\n"


def plan_harness(program: Program, target: str,
                 depth_limit: int = DEFAULT_DEPTH_LIMIT) -> HarnessPlan:
    """Write the harness for one function under test, and its symbol map."""
    if depth_limit < 1:
        raise HarnessError(f"depth limit must be >= 1, got {depth_limit}")
    fn = program.functions.get(target)
    if fn is None:
        raise HarnessError(f"target function {target!r} not found")
    if fn.external:
        raise HarnessError(f"target {target!r} is external")

    records = program.records
    initializers: list[InitializerSpec] = []
    written: dict[str, _Function] = {}

    def initializer(record_name: str, credit: int) -> _Function:
        """The `__SYM_` function for a record at this credit, written on first use."""
        variant = credit if _record_has_address(records, ty.Record(record_name)) else None
        fn_name = f"__SYM_{record_name}" if variant is None else f"__SYM_{record_name}__r{variant}"
        init = written.get(fn_name)
        if init is None:
            initializers.append(InitializerSpec(record_name, fn_name, variant))
            init = _Function(fn_name, f"void {fn_name}(int baseId, {record_name}* obj) {{",
                             "baseId")
            for fname, ftype in records[record_name].fields:
                value(init, ftype, f"obj.{fname}", f".{fname}", credit)
            written[fn_name] = init
        return init

    def value(out: _Function, t: ty.TypeExpr, lvalue: str, path: str, credit: int) -> None:
        """Write the initialization of `lvalue`, whose access path is `path`,
        and append each leaf it binds to `out.leaves` at the id it wrote."""
        if isinstance(t, ty.Int32):
            out.add(f"__sym_i32({out.next_id()}, &{lvalue});")
            out.leaves.append((path, 32))
        elif isinstance(t, ty.Bool):
            out.add(f"__sym_bool({out.next_id()}, &{lvalue});")
            out.leaves.append((path, 1))
        elif isinstance(t, ty.Record):
            init = initializer(t.name, credit)
            out.add(f"{init.name}({out.next_id()}, &{lvalue});")
            out.leaves += [(path + suffix, width) for suffix, width in init.leaves]
        elif isinstance(t, ty.Array):
            for i in range(t.length):
                value(out, t.elem, f"{lvalue}[{i}]", f"{path}[{i}]", credit)
        elif isinstance(t, ty.Address):
            if credit <= 0:
                out.add(f"{lvalue} = null;")
                return
            obj = out.fresh(lvalue)
            out.add(f"{_decl(t.elem, obj)};")
            value(out, t.elem, obj, path, credit - 1)
            out.add(f"{lvalue} = &{obj};")
        else:
            raise InternalError(f"cannot initialize type {t}")

    driver_name = f"__DRIVER_{target}"
    driver = _Function(driver_name, f"void {driver_name}() {{", None)
    args: list[str] = []
    for pname, ptype in fn.params:
        # The driver materializes a pointee for top-level pointer params, so
        # the first Address edge of a parameter costs no depth credit: the
        # pointee is the first object on the chain, exactly like a by-value
        # parameter's own storage.
        by_address = isinstance(ptype, ty.Address)
        pointee = ptype.elem if by_address else ptype
        driver.add(f"{_decl(pointee, pname)};")
        value(driver, pointee, pname, pname, depth_limit - 1)
        args.append(f"&{pname}" if by_address else pname)
    driver.add(f"{target}({', '.join(args)});")

    stubs = [
        StubSpec(name, tag)
        for tag, name in enumerate(sorted(_reachable_externals(program, target)))
    ]
    parts = [written[spec.fn_name].text() for spec in initializers]
    parts += [gen_stub(program, spec) for spec in stubs]
    parts.append(driver.text())
    return HarnessPlan(
        target=target,
        driver_name=driver_name,
        initializers=initializers,
        stubs=stubs,
        symbol_map=SymbolMap([
            SymbolEntry(i, path, width, fn.domain) for i, (path, width) in enumerate(driver.leaves)
        ]),
        source="\n".join(parts),
    )

def _reachable_externals(program: Program, target: str) -> set[str]:
    """The external functions `target` calls, directly or through other
    functions, read off the callee names the checker recorded."""
    intrinsics = {"__sym_i32", "__sym_bool", "__sym_fresh_i32"}
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
        frontier.extend(fn.callees)
    return externals


# --- code generation ------------------------------------------------------------------


def _decl(t: ty.TypeExpr, name: str) -> str:
    if isinstance(t, ty.Array):
        return f"{ast.format_type(t.elem)} {name}[{t.length}]"
    return f"{ast.format_type(t)} {name}"


def _sanitize(path: str) -> str:
    out = []
    for ch in path:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def gen_stub(program: Program, spec: StubSpec) -> str:
    """Stub for one external: fresh symbolic values, no other side effects."""
    fn = program.functions[spec.external_name]
    lines: list[str] = []
    params = ", ".join(_decl(t, n) for n, t in fn.params)
    ret = ast.format_type(fn.return_type)
    lines.append(f"{ret} {spec.external_name}({params}) {{")

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
        # The checker rejects record and array return types.
        raise InternalError(f"stub {spec.external_name!r}: cannot return {fn.return_type}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def assemble_unit(program: Program, plan: HarnessPlan) -> Program:
    """The unit for one plan: its harness source linked on top of `program`.

    Only the harness is checked; each stub replaces its external declaration
    in the unit, while `program` keeps the declaration. The unit shares the
    program's records and declarations, and lowers to a module that shares
    the program's IR, so nothing may mutate either. The harness must link
    cleanly (a failure here is a generator bug and surfaces verbatim).
    """
    try:
        harness_unit = parse_text(f"<harness:{plan.target}>", plan.source)
    except Exception as exc:
        raise InternalError(f"generated harness fails to parse: {exc}") from exc
    for fn in harness_unit.functions:
        fn.synthetic = True
    try:
        return link_program([harness_unit], base=program)
    except Exception as exc:
        raise InternalError(f"generated harness fails to link: {exc}") from exc
