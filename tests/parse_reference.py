"""Token-at-a-time reference for the surface parser.

``seqcore.surface.parse`` reads its token arrays by index and keeps source
offsets in its nodes.  This is the parser it replaced, kept as the ground
truth the differential tests compare it with: it takes one token at a time
through ``peek``/``next`` from the character-loop lexer
(``lex_reference``) and builds each node with its ``Span``.  Its nodes are
named tuples with the fields the surface nodes had, and it raises the same
``ParseError`` diagnostics.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional

from lex_reference import reference_lex
from seqcore.diag import Diagnostic, ParseError, Span

TName = namedtuple("TName", "name span")
TArrow = namedtuple("TArrow", "arg res")
TBin = namedtuple("TBin", "op left right")
TBind = namedtuple("TBind", "head var arg body span")
PVarS = namedtuple("PVarS", "name span")
PWildS = namedtuple("PWildS", "span")
PAsS = namedtuple("PAsS", "name pat span")
PPairS = namedtuple("PPairS", "left right")
PInlS = namedtuple("PInlS", "pat")
PInrS = namedtuple("PInrS", "pat")
EApp = namedtuple("EApp", "head args span")
EPair = namedtuple("EPair", "left right")
EInl = namedtuple("EInl", "body")
EInr = namedtuple("EInr", "body")
Clause = namedtuple("Clause", "lhs rhs span")
SurfaceDecl = namedtuple("SurfaceDecl", "kind name span type clauses",
                         defaults=(None, ()))

_KEYWORDS = {"atom", "postulate", "inl", "inr", "Pi", "Sigma"}


class _Tok(NamedTuple):
    kind: str    # NAME WILD SYM NL EOF
    text: str
    line: int
    col: int


class _P:
    def __init__(self, toks: list[_Tok], file: str):
        self.toks = toks
        self.pos = 0
        self.file = file

    def span(self, t: _Tok) -> Span:
        # The recursive productions below build their spans inline: a call
        # here would add a stack level under every nested type.
        return Span(self.file, t.line, t.col)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        found = t.text or ("end of input" if t.kind == "EOF" else "end of line")
        return ParseError(Diagnostic("parse", expected=expected, found=found,
                                     span=self.span(t)))

    def eat_sym(self, text: str) -> _Tok:
        t = self.peek()
        if t.kind != "SYM" or t.text != text:
            raise self.fail(repr(text))
        return self.next()

    def eat_name(self) -> _Tok:
        t = self.peek()
        if t.kind != "NAME" or t.text in _KEYWORDS:
            raise self.fail("identifier")
        return self.next()

    def eat_nl(self) -> None:
        if self.peek().kind == "EOF":
            return
        if self.peek().kind != "NL":
            raise self.fail("end of line")
        self.next()

    def skip_nls(self) -> None:
        while self.peek().kind == "NL":
            self.next()

    # types

    def type_(self) -> SType:
        t1 = self.type1()
        if self.peek().text == "->":
            self.next()
            return TArrow(t1, self.type_())
        return t1

    def type1(self) -> SType:
        t = self.type2()
        while self.peek().text in ("*", "+", "/\\"):
            op = self.next().text
            t = TBin(op, t, self.type2())
        return t

    def type2(self) -> SType:
        t = self.peek()
        if t.kind == "NAME" and t.text in ("Pi", "Sigma"):
            self.next()
            self.eat_sym("(")
            var = self.eat_name()
            self.eat_sym(":")
            arg = self.type_()
            self.eat_sym(")")
            self.eat_sym(".")
            return TBind(t.text, var.text, arg, self.type_(),
                         Span(self.file, t.line, t.col))
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            self.next()
            return TName(t.text, Span(self.file, t.line, t.col))
        if t.text == "(":
            self.next()
            inner = self.type_()
            self.eat_sym(")")
            return inner
        raise self.fail("type")

    # patterns

    def pattern(self) -> SPat:
        t = self.peek()
        if t.kind == "WILD":
            self.next()
            return PWildS(Span(self.file, t.line, t.col))
        if t.text == "inl":
            self.next()
            return PInlS(self.pattern())
        if t.text == "inr":
            self.next()
            return PInrS(self.pattern())
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            self.next()
            if self.peek().text == "@":
                self.next()
                return PAsS(t.text, self.pattern(),
                            Span(self.file, t.line, t.col))
            return PVarS(t.text, Span(self.file, t.line, t.col))
        if t.text == "(":
            self.next()
            p = self.pattern()
            if self.peek().text == ",":
                self.next()
                q = self.pattern()
                self.eat_sym(")")
                return PPairS(p, q)
            self.eat_sym(")")
            return p
        raise self.fail("pattern")

    # expressions

    def expr(self) -> SExpr:
        t = self.peek()
        if t.text in ("inl", "inr") or t.text == "(":
            return self.expr_atom()
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            self.next()
            args = []
            while self._at_arg():
                args.append(self.expr_atom())
            return EApp(t.text, tuple(args),
                        Span(self.file, t.line, t.col))
        raise self.fail("expression")

    def _at_arg(self) -> bool:
        t = self.peek()
        if t.text == "(" or t.text in ("inl", "inr"):
            return True
        return t.kind == "NAME" and t.text not in _KEYWORDS

    def expr_atom(self) -> SExpr:
        t = self.peek()
        if t.text == "inl":
            self.next()
            return EInl(self.expr_atom())
        if t.text == "inr":
            self.next()
            return EInr(self.expr_atom())
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            self.next()
            return EApp(t.text, (), Span(self.file, t.line, t.col))
        if t.text == "(":
            self.next()
            e = self.expr()
            if self.peek().text == ",":
                self.next()
                e2 = self.expr()
                self.eat_sym(")")
                return EPair(e, e2)
            self.eat_sym(")")
            return e
        raise self.fail("expression")


def _decl_name(p: _P, t: _Tok) -> _Tok:
    # Declared names must not start with an underscore; that prefix belongs
    # to the core syntax for or-pattern labels.
    if t.text.startswith("_"):
        raise ParseError(Diagnostic(
            "parse", expected="declaration name without leading underscore",
            found=t.text, span=p.span(t)))
    return t


def reference_parse(source: str, file: str = "<surface>") -> list[SurfaceDecl]:
    """Parse a surface program into declarations with their clauses."""
    p = _P([_Tok(*t) for t in reference_lex(source, file)], file)
    decls: list[SurfaceDecl] = []
    open_def: Optional[int] = None

    p.skip_nls()
    while p.peek().kind != "EOF":
        t = p.peek()
        if t.text == "atom":
            p.next()
            name = _decl_name(p, p.eat_name())
            p.eat_nl()
            decls.append(SurfaceDecl("atom", name.text, p.span(name)))
            open_def = None
        elif t.text == "postulate":
            p.next()
            name = _decl_name(p, p.eat_name())
            p.eat_sym(":")
            ty = p.type_()
            p.eat_nl()
            decls.append(SurfaceDecl("postulate", name.text, p.span(name),
                                     type=ty))
            open_def = None
        elif t.kind == "NAME":
            name = p.eat_name()
            span = p.span(name)
            if p.peek().text == ":":
                _decl_name(p, name)
                p.next()
                ty = p.type_()
                p.eat_nl()
                decls.append(SurfaceDecl("def", name.text, span, type=ty))
                open_def = len(decls) - 1
            else:
                pats = []
                while p.peek().text != "=":
                    pats.append(p.pattern())
                p.eat_sym("=")
                rhs = p.expr()
                p.eat_nl()
                if open_def is None or decls[open_def].name != name.text:
                    raise ParseError(Diagnostic(
                        "parse", expected="clause following its declaration",
                        found=name.text, span=span))
                d = decls[open_def]
                if d.clauses and len(d.clauses[0].lhs) != len(pats):
                    raise ParseError(Diagnostic(
                        "arity", expected=f"{len(d.clauses[0].lhs)} pattern(s)",
                        found=str(len(pats)), span=span))
                decls[open_def] = SurfaceDecl(
                    d.kind, d.name, d.span, d.type,
                    d.clauses + (Clause(tuple(pats), rhs, span),))
        else:
            raise p.fail("declaration")
        p.skip_nls()
    return decls
