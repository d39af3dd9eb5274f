"""Recursive-descent parser for MiniC source units.

Statements and declarations are parsed by recursive descent with one token of
lookahead, binary operators by precedence climbing over `ast.BINARY_PREC`,
the table the printer uses too.

The parser, and each stage after it, recurses once per level of nesting, so
a unit nested deeper than MAX_NESTING levels is a syntax error, reported
before Python's recursion limit is met. Parenthesised and bracketed
expressions, a prefix operator's operand and the body of a block, `if` or
`while` each count one level, all on one count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import Diagnostic, DiagnosticList, SourceLoc
from . import ast
from . import types as ty
from .lexer import Annotation, LexError, Token, tokenize

# C11 5.2.4.1 asks an implementation for at least 63 levels of nested
# parentheses and 127 of nested blocks.
MAX_NESTING = 127


@dataclass(frozen=True)
class SourceUnit:
    path: str
    text: str


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


class _Parser:
    def __init__(self, path: str, tokens: list[Token], annotations: list[Annotation]):
        self.path = path
        self.tokens = tokens
        self.annotations = annotations
        self.pos = 0
        self.depth = 0  # levels of nesting entered and not yet left

    def nest(self, tok: Token) -> None:
        """Enter one more level of nesting at the token; the caller leaves
        it by decrementing `depth`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _ParseError(
                Diagnostic(tok.loc, "error", f"nested more than {MAX_NESTING} levels deep")
            )

    # -- token plumbing ------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("punct", "kw")

    def at_kind(self, kind: str) -> bool:
        return self.cur.kind == kind

    def bump(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise _ParseError(
                Diagnostic(
                    self.cur.loc,
                    "error",
                    f"expected {text!r}, found {self.cur.text or '<eof>'!r}",
                )
            )
        return self.bump()

    def expect_ident(self) -> Token:
        if not self.at_kind("ident"):
            raise _ParseError(
                Diagnostic(
                    self.cur.loc,
                    "error",
                    f"expected identifier, found {self.cur.text or '<eof>'!r}",
                )
            )
        return self.bump()

    # -- types ----------------------------------------------------------------

    def parse_base_type(self) -> ty.TypeExpr:
        tok = self.bump()
        if tok.text == "int":
            base: ty.TypeExpr = ty.INT32
        elif tok.text == "bool":
            base = ty.BOOL
        elif tok.kind == "ident":
            base = ty.Record(tok.text)
        else:
            raise _ParseError(Diagnostic(tok.loc, "error", f"expected type, found {tok.text!r}"))
        while self.at("*"):
            self.bump()
            base = ty.Address(base)
        return base

    def parse_declarator(self, base: ty.TypeExpr) -> tuple[str, ty.TypeExpr, SourceLoc]:
        name_tok = self.expect_ident()
        result = base
        if self.at("["):
            self.bump()
            len_tok = self.bump()
            if len_tok.kind != "int":
                raise _ParseError(Diagnostic(len_tok.loc, "error", "expected array length"))
            length = int(len_tok.text)
            if length < 1:
                raise _ParseError(Diagnostic(len_tok.loc, "error", "array length must be >= 1"))
            self.expect("]")
            result = ty.Array(base, length)
        return name_tok.text, result, name_tok.loc

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: parse a unary operand, then fold in each
        binary operator that binds at least as tightly as `min_prec`; its
        right operand takes only tighter operators, so equal ones associate
        to the left."""
        lhs = self.parse_unary()
        while True:
            op_tok = self.cur
            prec = ast.BINARY_PREC.get(op_tok.text, 0)  # only punctuators spell operators
            if prec < min_prec:
                return lhs
            self.bump()
            node = ast.Binary(op_tok.loc)
            node.op = op_tok.text
            node.lhs = lhs
            node.rhs = self.parse_expr(prec + 1)
            lhs = node

    def parse_unary(self) -> ast.Expr:
        if self.cur.kind == "punct" and self.cur.text in ("-", "!", "*", "&"):
            op_tok = self.bump()
            self.nest(op_tok)
            operand = self.parse_unary()
            self.depth -= 1
            node = ast.Unary(op_tok.loc)
            node.op = op_tok.text
            node.operand = operand
            return node
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.at("."):
                dot = self.bump()
                name_tok = self.expect_ident()
                node = ast.FieldAccess(dot.loc)
                node.base = expr
                node.field_name = name_tok.text
                expr = node
            elif self.at("["):
                brk = self.bump()
                self.nest(brk)
                index = self.parse_expr()
                self.expect("]")
                self.depth -= 1
                node = ast.IndexAccess(brk.loc)
                node.base = expr
                node.index = index
                expr = node
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.bump()
            node = ast.IntLit(tok.loc)
            node.value = int(tok.text)
            return node
        if tok.text in ("true", "false") and tok.kind == "kw":
            self.bump()
            node = ast.BoolLit(tok.loc)
            node.value = tok.text == "true"
            return node
        if tok.text == "null" and tok.kind == "kw":
            self.bump()
            return ast.NullLit(tok.loc)
        if tok.kind == "ident":
            self.bump()
            if self.at("("):
                self.nest(self.bump())
                args: list[ast.Expr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.at(","):
                        self.bump()
                        args.append(self.parse_expr())
                self.expect(")")
                self.depth -= 1
                node = ast.Call(tok.loc)
                node.name = tok.text
                node.args = args
                return node
            node = ast.VarRef(tok.loc)
            node.name = tok.text
            return node
        if self.at("("):
            self.nest(self.bump())
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise _ParseError(
            Diagnostic(tok.loc, "error", f"expected expression, found {tok.text or '<eof>'!r}")
        )

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            if self.at_kind("eof"):
                raise _ParseError(Diagnostic(self.cur.loc, "error", "expected '}', found end of file"))
            stmts.append(self.parse_stmt())
        self.expect("}")
        block = ast.Block(open_tok.loc)
        block.stmts = stmts
        return block

    def parse_stmt(self) -> ast.Stmt:
        tok = self.cur
        if self.at("{"):
            self.nest(tok)
            block = self.parse_block()
            self.depth -= 1
            return block
        if self.at("if"):
            self.bump()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.nest(tok)
            then_body = self.parse_stmt()
            else_body = None
            if self.at("else"):
                self.bump()
                else_body = self.parse_stmt()
            self.depth -= 1
            node = ast.If(tok.loc)
            node.cond = cond
            node.then_body = then_body
            node.else_body = else_body
            return node
        if self.at("while"):
            self.bump()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.nest(tok)
            body = self.parse_stmt()
            self.depth -= 1
            node = ast.While(tok.loc)
            node.cond = cond
            node.body = body
            return node
        if self.at("return"):
            self.bump()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            node = ast.Return(tok.loc)
            node.value = value
            return node
        if self.at("assert"):
            self.bump()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            node = ast.Assert(tok.loc)
            node.cond = cond
            return node
        # Declaration: a type followed by an identifier. Distinguish `Point p;`
        # from an expression statement `p = q;` by one token of lookahead.
        if self.cur.text in ("int", "bool") or (
            self.at_kind("ident") and self._looks_like_decl()
        ):
            base = self.parse_base_type()
            name, decl_type, _ = self.parse_declarator(base)
            init = None
            if self.at("="):
                self.bump()
                init = self.parse_expr()
            self.expect(";")
            node = ast.VarDecl(tok.loc)
            node.name = name
            node.decl_type = decl_type
            node.init = init
            return node
        # Assignment or expression statement.
        expr = self.parse_expr()
        if self.at("="):
            self.bump()
            value = self.parse_expr()
            self.expect(";")
            node = ast.Assign(tok.loc)
            node.target = expr
            node.value = value
            return node
        self.expect(";")
        node = ast.ExprStmt(tok.loc)
        node.expr = expr
        return node

    def _looks_like_decl(self) -> bool:
        # ident (as record type) followed by '*'* ident
        k = self.pos + 1
        while self.tokens[k].text == "*" and self.tokens[k].kind == "punct":
            k += 1
        return self.tokens[k].kind == "ident"

    # -- top level -----------------------------------------------------------------

    def parse_unit(self) -> ast.Ast:
        records: list[ast.RecordDecl] = []
        functions: list[ast.FuncDecl] = []
        while not self.at_kind("eof"):
            if self.at("record"):
                records.append(self.parse_record())
            elif self.at("external"):
                functions.append(self.parse_function(external=True))
            else:
                functions.append(self.parse_function(external=False))
        self._attach_annotations(functions)
        return ast.Ast(self.path, records, functions)

    def parse_record(self) -> ast.RecordDecl:
        kw = self.expect("record")
        name = self.expect_ident()
        self.expect("{")
        fields: list[tuple[str, ty.TypeExpr]] = []
        while not self.at("}"):
            base = self.parse_base_type()
            fname, ftype, floc = self.parse_declarator(base)
            if any(f[0] == fname for f in fields):
                raise _ParseError(Diagnostic(floc, "error", f"duplicate field {fname!r}"))
            self.expect(";")
            fields.append((fname, ftype))
        close = self.expect("}")
        if not fields:
            raise _ParseError(
                Diagnostic(close.loc, "error", f"record {name.text!r} has no fields")
            )
        return ast.RecordDecl(kw.loc, name.text, fields)

    def parse_function(self, external: bool) -> ast.FuncDecl:
        start = self.cur.loc
        if external:
            self.expect("external")
        if self.at("void"):
            self.bump()
            ret: ty.TypeExpr = ty.VOID
        else:
            ret = self.parse_base_type()
        name = self.expect_ident()
        self.expect("(")
        params: list[tuple[str, ty.TypeExpr]] = []
        if not self.at(")"):
            while True:
                base = self.parse_base_type()
                pname, ptype, ploc = self.parse_declarator(base)
                if any(p[0] == pname for p in params):
                    raise _ParseError(
                        Diagnostic(ploc, "error", f"duplicate parameter {pname!r}")
                    )
                params.append((pname, ptype))
                if not self.at(","):
                    break
                self.bump()
        self.expect(")")
        if external:
            self.expect(";")
            return ast.FuncDecl(start, name.text, params, ret, None, external=True)
        body = self.parse_block()
        return ast.FuncDecl(start, name.text, params, ret, body, external=False)

    def _attach_annotations(self, functions: list[ast.FuncDecl]) -> None:
        # Each annotation narrows the function that starts next after it.
        for ann in self.annotations:
            best = None
            for fn in functions:
                if fn.loc.line > ann.line and (best is None or fn.loc.line < best.loc.line):
                    best = fn
            if best is not None:
                best.domain = (ann.lo, ann.hi)


def parse_unit(unit: SourceUnit) -> ast.Ast:
    """Parse one source unit; raises DiagnosticList on a syntax error."""
    try:
        tokens, annotations = tokenize(unit.path, unit.text)
        return _Parser(unit.path, tokens, annotations).parse_unit()
    except LexError as exc:
        raise DiagnosticList([exc.diagnostic]) from None
    except _ParseError as exc:
        raise DiagnosticList([exc.diagnostic]) from None


def parse_text(path: str, text: str) -> ast.Ast:
    return parse_unit(SourceUnit(path, text))
