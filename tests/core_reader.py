"""Reader for the canonical core text that ``seqcore.core_text`` prints.

The CLI only prints core terms; this reader parses them back, so the tests
can check that printing round-trips: print-then-parse returns an
alpha-equal term, and a second trip returns the same text.  It reads the
forms listed in ``seqcore.core_text`` and yields tag-0 names; a malformed
text raises ``ParseError`` with the span of the offending token.
"""

from __future__ import annotations

from seqcore.core_text import _KEYWORDS
from seqcore.diag import Diagnostic, ParseError, Span
from seqcore.record import record
from seqcore.syntax import (
    App, AppCut, BindCut, Cons, DataVal, Done, DPair, Inl, Inr, Kappa, Lam,
    Name, Nil, Pair, Pattern, PAt, POr, PPair, Proj1, Proj2, PWild, Spine,
    Split, Term, Thunk, Var,
)


@record
class _Tok:
    kind: str   # NAME UIDENT WILD PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT2 = ("::", "->", ".1", ".2")
_PUNCT1 = "\\.,<>{}()[]|;@="


def _lex(src: str, file: str = "<core>") -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c.isspace():
            col, i = col + 1, i + 1
            continue
        two = src[i:i + 2]
        if two in _PUNCT2:
            toks.append(_Tok("PUNCT", two, line, col))
            col, i = col + 2, i + 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            if text == "_":
                toks.append(_Tok("WILD", text, line, col))
            elif text.startswith("_"):
                toks.append(_Tok("UIDENT", text[1:], line, col))
            else:
                toks.append(_Tok("NAME", text, line, col))
            col, i = col + (j - i), j
            continue
        if c in _PUNCT1:
            toks.append(_Tok("PUNCT", c, line, col))
            col, i = col + 1, i + 1
            continue
        raise ParseError(Diagnostic("parse", expected="token", found=repr(c),
                                    span=Span(file, line, col)))
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Reader:
    def __init__(self, toks: list[_Tok], file: str):
        self.toks = toks
        self.pos = 0
        self.file = file

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        return ParseError(Diagnostic(
            "parse", expected=expected, found=t.text or "end of input",
            span=Span(self.file, t.line, t.col)))

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind not in ("PUNCT", "NAME"):
            raise self.fail(repr(text))
        return self.next()

    def name(self) -> Name:
        t = self.peek()
        if t.kind != "NAME" or t.text in _KEYWORDS:
            raise self.fail("identifier")
        self.next()
        return Name(t.text)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.text == "done":
            self.next()
            return Done(self.data())
        if t.text == "\\":
            self.next()
            p = self.pattern()
            self.expect(".")
            return Lam(p, self.term())
        if t.text == "<":
            self.next()
            l = self.term()
            self.expect(",")
            r = self.term()
            self.expect(">")
            return Pair(l, r)
        if t.text == "split":
            self.next()
            w = self.name()
            self.expect("{")
            self.expect("inl")
            self.expect("->")
            l = self.term()
            self.expect(";")
            self.expect("inr")
            self.expect("->")
            r = self.term()
            self.expect("}")
            return Split(w, l, r)
        if t.text == "let":
            self.next()
            p = self.pattern()
            self.expect("=")
            d = self.data()
            self.expect("in")
            return BindCut(p, d, self.term())
        if t.kind == "NAME":
            h = self.name()
            return App(h, self.spine())
        if t.text == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            if self._at_spine():
                return AppCut(inner, self.spine())
            return inner
        raise self.fail("term")

    def _at_spine(self) -> bool:
        return self.peek().text in ("[", "(", ".1", ".2", "kappa")

    # -- data ---------------------------------------------------------------

    def data(self) -> DataVal:
        t = self.peek()
        if t.text == "thunk":
            self.next()
            return Thunk(self.term())
        if t.text == "inl":
            self.next()
            return Inl(self.data())
        if t.text == "inr":
            self.next()
            return Inr(self.data())
        if t.text == "(":
            self.next()
            l = self.data()
            self.expect(",")
            r = self.data()
            self.expect(")")
            return DPair(l, r)
        raise self.fail("data")

    # -- spines -------------------------------------------------------------

    def spine(self) -> Spine:
        t = self.peek()
        if t.text == "[":
            self.next()
            self.expect("]")
            return Nil()
        if t.text == "(":
            self.next()
            d = self.data()
            self.expect("::")
            k = self.spine()
            self.expect(")")
            return Cons(d, k)
        if t.text == ".1":
            self.next()
            return Proj1(self.spine())
        if t.text == ".2":
            self.next()
            return Proj2(self.spine())
        if t.text == "kappa":
            self.next()
            p = self.pattern()
            self.expect(".")
            return Kappa(p, self.term())
        raise self.fail("spine")

    # -- patterns -----------------------------------------------------------

    def pattern(self) -> Pattern:
        p = self.pattern_atom()
        if self.peek().text == "@":
            self.next()
            return PAt(p, self.pattern())
        return p

    def pattern_atom(self) -> Pattern:
        t = self.peek()
        if t.kind == "WILD":
            self.next()
            return PWild()
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            return Var(self.name())
        if t.text == "(":
            self.next()
            p = self.pattern()
            if self.peek().text == ",":
                self.next()
                q = self.pattern()
                self.expect(")")
                return PPair(p, q)
            self.expect(")")
            return p
        if t.text == "[":
            self.next()
            p = self.pattern()
            self.expect("|")
            q = self.pattern()
            self.expect("]")
            lbl = self.peek()
            if lbl.kind != "UIDENT":
                raise self.fail("_label after or-pattern")
            self.next()
            return POr(Name(lbl.text), p, q)
        raise self.fail("pattern")


def parse_term(src: str, file: str = "<core>") -> Term:
    r = _Reader(_lex(src, file), file)
    t = r.term()
    if r.peek().kind != "EOF":
        raise r.fail("end of input")
    return t
