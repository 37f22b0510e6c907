"""Canonical text form of core syntax.

Term forms: ``done d``, ``\\p. t``, ``x [k]``-style applications (the spine is
printed after the head), ``<t, u>``, ``split x { inl -> t ; inr -> u }``,
``let p = d in t``, and ``(t) k`` for application cuts.  Spines print as
``[]`` for the empty spine, ``(d :: k)``, ``.1 k``, ``.2 k`` and
``kappa p. t``.  Patterns print as ``x``, ``_``, ``(p, q)``, ``[p|q]_w`` and
``p @ q``; data as ``thunk (t)``, ``(d, e)``, ``inl d``, ``inr d``.

The printer renames binders where display texts would collide (or shadow a
free name), so printed output of a closed term always re-parses.  The reader
lives with the tests (``tests/core_reader.py``): it yields tag-0 names, hence
print-then-parse returns an alpha-equal term and a second print round-trip is
the identity on the text.  The free names to keep clear of are found while
printing: a term is printed once with none reserved, and again with its free
names reserved only when a binder weighed a display text that one of them
has.

``print_type`` prints a type of either polarity by one walk: each connective
gives its text and its precedence, and a child is parenthesized when it binds
looser than its place asks.
"""

from __future__ import annotations

from .syntax import (
    App, AppCut, Atom, BindCut, Cons, DataVal, Done, Down, DPair, Imp, Inl,
    Inr, Kappa, Lam, Name, Nil, Or, Pair, Pattern, PAt, Pi, POr, PPair, Prod,
    Proj1, Proj2, PWild, Sigma, Spine, Split, Term, Thunk, Up, Var, With,
    pattern_labels, pattern_vars,
)

__all__ = ["print_term", "print_data", "print_pattern", "print_type"]

_KEYWORDS = {"done", "thunk", "inl", "inr", "split", "let", "in", "kappa"}


# ---------------------------------------------------------------------------
# Printing

class _Printer:
    def __init__(self, reserved: set[str]):
        self.reserved = set(reserved) | _KEYWORDS
        self.free: set[str] = set()     # texts of the free names printed
        self.tried: set[str] = set()    # display texts weighed for binders

    def _pick(self, scope: dict[Name, str], name: Name) -> str:
        # Leading underscores are label/wildcard syntax, never display names.
        taken = self.reserved | set(scope.values())
        base = name.text.lstrip("_") or "v"
        text, i = base, 1
        while True:
            self.tried.add(text)
            if text not in taken:
                return text
            i += 1
            text = f"{base}_{i}"

    def bind_pattern(self, scope: dict[Name, str], p: Pattern) -> dict[Name, str]:
        scope = dict(scope)
        for n in pattern_vars(p) + pattern_labels(p):
            scope[n] = self._pick(scope, n)
        return scope

    def name(self, scope: dict[Name, str], n: Name) -> str:
        if n in scope:
            return scope[n]
        self.free.add(n.text)
        return str(n)

    def pattern(self, scope: dict[Name, str], p: Pattern, atom: bool = False) -> str:
        c = type(p)
        if c is Var:
            return self.name(scope, p.name)
        elif c is PWild:
            return "_"
        elif c is PPair:
            return f"({self.pattern(scope, p.left)}, {self.pattern(scope, p.right)})"
        elif c is POr:
            return f"[{self.pattern(scope, p.left)}|{self.pattern(scope, p.right)}]_{self.name(scope, p.label)}"
        elif c is PAt:
            s = f"{self.pattern(scope, p.left, atom=True)} @ {self.pattern(scope, p.right, atom=True)}"
            return f"({s})" if atom else s
        raise TypeError(p)

    def term(self, scope: dict[Name, str], t: Term) -> str:
        c = type(t)
        if c is Done:
            return f"done {self.data(scope, t.data)}"
        elif c is Lam:
            inner = self.bind_pattern(scope, t.pat)
            return f"\\{self.pattern(inner, t.pat)}. {self.term(inner, t.body)}"
        elif c is App:
            return f"{self.name(scope, t.head)} {self.spine(scope, t.spine)}"
        elif c is Pair:
            return f"<{self.term(scope, t.left)}, {self.term(scope, t.right)}>"
        elif c is Split:
            return (f"split {self.name(scope, t.label)} {{ inl -> {self.term(scope, t.left)}"
                    f" ; inr -> {self.term(scope, t.right)} }}")
        elif c is BindCut:
            inner = self.bind_pattern(scope, t.pat)
            return (f"let {self.pattern(inner, t.pat)} = {self.data(scope, t.data)}"
                    f" in {self.term(inner, t.body)}")
        elif c is AppCut:
            return f"({self.term(scope, t.fun)}) {self.spine(scope, t.spine)}"
        raise TypeError(t)

    def data(self, scope: dict[Name, str], d: DataVal) -> str:
        c = type(d)
        if c is Thunk:
            return f"thunk ({self.term(scope, d.body)})"
        elif c is DPair:
            return f"({self.data(scope, d.left)}, {self.data(scope, d.right)})"
        elif c is Inl:
            return f"inl {self.data(scope, d.body)}"
        elif c is Inr:
            return f"inr {self.data(scope, d.body)}"
        raise TypeError(d)

    def spine(self, scope: dict[Name, str], k: Spine) -> str:
        c = type(k)
        if c is Nil:
            return "[]"
        elif c is Cons:
            return f"({self.data(scope, k.arg)} :: {self.spine(scope, k.rest)})"
        elif c is Proj1:
            return f".1 {self.spine(scope, k.rest)}"
        elif c is Proj2:
            return f".2 {self.spine(scope, k.rest)}"
        elif c is Kappa:
            inner = self.bind_pattern(scope, k.pat)
            return f"kappa {self.pattern(inner, k.pat)}. {self.term(inner, k.body)}"
        raise TypeError(k)


def _print(method, x) -> str:
    # With no free text among the texts the binders weighed, each binder
    # picks what it would pick with the free texts reserved.
    pr = _Printer(set())
    s = method(pr, {}, x)
    if pr.free & pr.tried:
        s = method(_Printer(pr.free), {}, x)
    return s


def print_term(t: Term) -> str:
    return _print(_Printer.term, t)


def print_data(d: DataVal) -> str:
    return _print(_Printer.data, d)


def print_pattern(p: Pattern) -> str:
    pr = _Printer(set())
    return pr.pattern(pr.bind_pattern({}, p), p)


# ---------------------------------------------------------------------------
# Type printing (diagnostics and `core` output; not parsed back)

def print_type(ty) -> str:
    return _type(ty, 0)


def _type(ty, prec: int) -> str:
    """``ty`` in parentheses when its connective binds looser than ``prec``:
    arrows and binders at 1, the other connectives at 2, a bare atom never."""
    c = type(ty)
    if c is Atom:
        if not ty.args:
            return str(ty.name)
        body = " ".join(f"({print_data(a)})" for a in ty.args)
        s, level = f"{ty.name} {body}", 2
    elif c is Down:
        s, level = f"dn {_type(ty.body, 3)}", 2
    elif c is Up:
        s, level = f"up {_type(ty.body, 3)}", 2
    elif c is Imp:
        s, level = f"{_type(ty.arg, 2)} -> {_type(ty.res, 1)}", 1
    elif c is With:
        s, level = f"{_type(ty.left, 3)} /\\ {_type(ty.right, 2)}", 2
    elif c is Or:
        s, level = f"{_type(ty.left, 3)} + {_type(ty.right, 2)}", 2
    elif c is Prod:
        s, level = f"{_type(ty.left, 3)} * {_type(ty.right, 2)}", 2
    elif c is Pi:
        s = f"Pi ({ty.binder} : {_type(ty.arg, 0)}). {_type(ty.res, 1)}"
        level = 1
    elif c is Sigma:
        s = (f"Sigma ({ty.binder} : {_type(ty.first, 0)})."
             f" {_type(ty.second, 1)}")
        level = 1
    else:
        raise TypeError(ty)
    return f"({s})" if prec > level else s
