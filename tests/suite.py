"""Shared fixtures: the example program suite, common signatures, and the
equation printer that reads a compiled program back as surface text."""

from __future__ import annotations

import gc
import importlib.util
import pathlib
import sys
from typing import Optional

from reference import ArgPool, enumerate_data
from seqcore.check import check_term
from seqcore.check_dep import dep_check_term
from seqcore.core_text import print_term
from seqcore.reduce import trace
from seqcore.surface import Program, load_program, parse
from seqcore.syntax import (
    App, Atom, BindCut, Cons, DataVal, Done, Down, DPair, Imp, Inl, Inr, Lam,
    Mode, Name, NegType, Nil, Or, Pair, Pattern, PAt, Pi, POr, PPair, Prod,
    PWild, Sig, SigEntry, Sigma, Split, Term, Thunk, Up, Var, With, fresh,
    subst_data,
)

PROGRAMS = pathlib.Path(__file__).parent / "programs"

# (file, mode, needs structural flag)
SUITE = (
    ("f.seq", Mode.PROP, False),
    ("f_run.seq", Mode.PROP, False),
    ("basics.seq", Mode.PROP, False),
    ("sums.seq", Mode.PROP, False),
    ("calls.seq", Mode.PROP, False),
    ("eta.seq", Mode.PROP, False),
    ("wild.seq", Mode.PROP, True),
    ("pfree.seq", Mode.PROP, False),
    ("swap_dep.seq", Mode.DEP, False),
)


def source(name: str) -> str:
    return (PROGRAMS / name).read_text(encoding="utf-8")


def load(name: str) -> Program:
    file, mode, _structural = next(e for e in SUITE if e[0] == name)
    return load_program(source(name), name, mode)


def check_program(prog: Program, mode: Mode, structural: bool):
    """Typecheck every definition; returns list of (name, diagnostic)."""
    bad = []
    for d in prog.decls:
        if d.kind != "def":
            continue
        if mode is Mode.DEP:
            diag = dep_check_term(prog.sig, [], d.term, d.type)
        else:
            diag = check_term(prog.sig, [], d.term, d.type, structural=structural)
        if diag is not None:
            bad.append((str(d.name), diag))
    return bad


def clause_set_variants():
    """Each example program as it is, with each clause and each pair of
    clauses dropped, and with each clause moved to the front of its block:
    ``(label, lines)`` pairs.  Dropping clauses yields coverage errors;
    moving one to the front yields "never used" and overlap warnings."""
    for path in sorted(PROGRAMS.glob("*.seq")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        blocks = [[cl.span.line - 1 for cl in d.clauses]
                  for d in parse(text) if d.clauses]
        clauses = [i for block in blocks for i in block]
        yield path.name, lines
        for n, i in enumerate(clauses):
            yield f"{path.name} -{i + 1}", lines[:i] + lines[i + 1:]
            for j in clauses[n + 1:]:
                yield (f"{path.name} -{i + 1} -{j + 1}",
                       [t for k, t in enumerate(lines) if k not in (i, j)])
        for block in blocks:
            for i in block[1:]:
                moved = lines[:block[0]] + [lines[i]] + [
                    t for k, t in enumerate(lines) if k >= block[0] and k != i]
                yield f"{path.name} ^{i + 1}", moved


def bench_workloads():
    """``bench/workloads.py``, the generator of the benchmark programs."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def cyclic_garbage(fn, *args, raises=()) -> int:
    """The number of objects the cyclic collector finds after ``fn(*args)``
    runs with the collector paused.  ``fn`` must raise ``raises`` when it is
    given, and must return otherwise."""
    gc.collect()
    gc.disable()
    try:
        try:
            fn(*args)
            raised = False
        except raises:
            raised = True
        assert raised == bool(raises)
        return gc.collect()
    finally:
        gc.enable()


def entry_applications(prog, mode, depth=2, per_type=1):
    """CLI-style runs of every definition: (extended sig, term, result goal)."""
    pool = ArgPool(prog.sig, per_type=per_type)
    runs = []
    for d in prog.decls:
        if d.kind != "def":
            continue
        ty = d.type
        if isinstance(ty, (Imp, Pi)):
            for arg in enumerate_data(ty.arg, depth, pool):
                if isinstance(ty, Pi):
                    goal = subst_data(ty.res, ty.binder, arg)
                else:
                    goal = ty.res
                runs.append((App(d.name, Cons(arg, Nil())), goal))
        else:
            runs.append((App(d.name, Nil()), ty))
    return pool.sig, runs


def tiny_sig() -> Sig:
    """One atom, one ground constant, one unary function."""
    a = Atom(Name("a"))
    return Sig(frozenset({Name("a")}),
               (SigEntry(Name("z"), a),
                SigEntry(Name("f"), Imp(Down(a), a))))


def cut_reducts(sig: Sig, t: Term) -> list[Term]:
    """The terms ``reduce.trace`` reaches from ``t`` by application-cut
    steps (R1-R4 and R7), up to its first step of another rule."""
    out = []
    for rule, u in trace(sig, t)[0]:
        if rule not in ("R1", "R2", "R3", "R4", "R7"):
            break
        out.append(u)
    return out


def embed_neg(ty):
    """A propositional type's dependent twin: every arrow a ``Pi`` and every
    product a ``Sigma``, each with a fresh binder that nothing uses."""
    match ty:
        case Atom(_, _):
            return ty
        case Up(p):
            return Up(embed_pos(p))
        case Imp(a, r):
            return Pi(fresh("_"), embed_pos(a), embed_neg(r))
        case With(l, r):
            return With(embed_neg(l), embed_neg(r))
    raise TypeError(ty)


def embed_pos(ty):
    match ty:
        case Down(n):
            return Down(embed_neg(n))
        case Or(l, r):
            return Or(embed_pos(l), embed_pos(r))
        case Prod(l, r):
            return Sigma(fresh("_"), embed_pos(l), embed_pos(r))
    raise TypeError(ty)


def pretty_equations(name, t: Term, ty: NegType) -> str:
    """Reconstruct equations from a compiled term: one equation per split
    leaf.  Terms outside the lambda/split image print as a single
    ``name = <core term>`` line."""
    label = name.text if isinstance(name, Name) else str(name)
    try:
        return "\n".join(_Pretty(label, t, ty).lines())
    except _Unrenderable:
        return f"{label} = {print_term(t)}"


class _Unrenderable(Exception):
    pass


class _Hole:
    """A pattern position being rebuilt while walking the body."""

    __slots__ = ("kind", "name", "subs")

    def __init__(self, kind: str, name: Optional[Name] = None,
                 subs: tuple = ()):
        self.kind = kind       # "var" | "pair" | "inl" | "inr" | "wild" | "at"
        self.name = name
        self.subs = subs

    def render(self, disp, atom: bool = False) -> str:
        if self.kind == "var":
            return disp(self.name)
        if self.kind == "wild":
            return "_"
        if self.kind == "pair":
            return f"({self.subs[0].render(disp)}, {self.subs[1].render(disp)})"
        if self.kind == "at":
            return f"{disp(self.name)}@{self.subs[0].render(disp, atom=True)}"
        if self.kind == "or":
            # An or-position the body never splits on: outside the
            # equational image.
            raise _Unrenderable()
        s = f"{self.kind} {self.subs[0].render(disp, atom=True)}"
        return f"({s})" if atom else s


class _Pretty:
    def __init__(self, label: str, t: Term, ty: NegType):
        self.label = label
        self.names: dict[Name, str] = {}
        self.taken: set[str] = set()
        self.args: list[_Hole] = []
        self.holes: dict[Name, _Hole] = {}   # binder -> its hole
        body = t
        cur = ty
        while isinstance(body, Lam) and isinstance(cur, (Imp, Pi)):
            hole = self._pattern_hole(body.pat)
            self.args.append(hole)
            body = body.body
            cur = cur.res
        if isinstance(body, Lam):
            raise _Unrenderable()
        self.result = cur
        self.body = body

    def disp(self, n: Name) -> str:
        if n in self.names:
            return self.names[n]
        base = n.text or "v"
        cand = base
        i = 2
        while cand in self.taken:
            cand = f"{base}_{i}"
            i += 1
        self.names[n] = cand
        self.taken.add(cand)
        return cand

    def _pattern_hole(self, p: Pattern) -> _Hole:
        c = type(p)
        if c is Var:
            h = _Hole("var", p.name)
            self.holes[p.name] = h
            return h
        elif c is PWild:
            return _Hole("wild")
        elif c is PPair:
            return _Hole("pair", subs=(self._pattern_hole(p.left),
                                       self._pattern_hole(p.right)))
        elif c is POr:
            h = _Hole("or", p.label, (self._pattern_hole(p.left), self._pattern_hole(p.right)))
            self.holes[p.label] = h
            return h
        elif c is PAt and type(p.left) is Var:
            h = _Hole("at", p.left.name, (self._pattern_hole(p.right),))
            self.holes[p.left.name] = h
            return h
        raise _Unrenderable()

    def lines(self) -> list[str]:
        rows: list[str] = []
        self._walk(self.body, rows)
        return rows

    def _walk(self, t: Term, rows: list[str]) -> None:
        c = type(t)
        if c is Split and t.label in self.holes and self.holes[t.label].kind == "or":
            hole = self.holes[t.label]
            saved = (hole.kind, hole.name, hole.subs)
            hole.kind, subs = "inl", hole.subs
            hole.subs = (subs[0],)
            self._walk(t.left, rows)
            hole.kind = "inr"
            hole.subs = (subs[1],)
            self._walk(t.right, rows)
            hole.kind, hole.name, hole.subs = saved
        elif c is Split and t.label in self.holes and self.holes[t.label].kind == "var":
            x = t.label
            hole = self.holes[x]
            sub = _Hole("var", x)
            saved = (hole.kind, hole.name, hole.subs)
            hole.kind, hole.name, hole.subs = "inl", None, (sub,)
            self.holes[x] = sub
            self._walk(t.left, rows)
            hole.kind = "inr"
            self._walk(t.right, rows)
            hole.kind, hole.name, hole.subs = saved
            self.holes[x] = hole
        elif (c is BindCut and type(p := t.pat) is PPair
              and type(p.left) is Var and type(p.right) is Var
              and type(d := t.data) is Thunk and type(d.body) is App
              and type(d.body.spine) is Nil
              and d.body.head in self.holes and self.holes[d.body.head].kind == "var"):
            hole = self.holes[d.body.head]
            y, z = p.left.name, p.right.name
            hy, hz = _Hole("var", y), _Hole("var", z)
            saved = (hole.kind, hole.name, hole.subs)
            hole.kind, hole.name, hole.subs = "pair", None, (hy, hz)
            self.holes[y] = hy
            self.holes[z] = hz
            self._walk(t.body, rows)
            hole.kind, hole.name, hole.subs = saved
        else:
            lhs = " ".join(h.render(self.disp, atom=True)
                           for h in self.args)
            rhs = self._expr(t)
            head = f"{self.label} {lhs}".rstrip()
            rows.append(f"{head} = {rhs}")

    def _expr(self, t: Term) -> str:
        c = type(t)
        if c is App and type(t.spine) is Nil:
            return self.disp(t.head)
        elif c is App:
            parts, k = [], t.spine
            while isinstance(k, Cons):
                parts.append(self._data(k.arg, atom=True))
                k = k.rest
            if not isinstance(k, Nil):
                raise _Unrenderable()
            return " ".join([self.disp(t.head)] + parts)
        elif c is Done:
            return self._data(t.data)
        elif c is Pair:
            return f"({self._expr(t.left)}, {self._expr(t.right)})"
        else:
            raise _Unrenderable()

    def _data(self, d: DataVal, atom: bool = False) -> str:
        c = type(d)
        if c is Thunk and type(d.body) is App and type(d.body.spine) is Nil:
            return self.disp(d.body.head)
        elif c is Thunk:
            s = self._expr(d.body)
            return f"({s})" if (atom and " " in s) else s
        elif c is DPair:
            return f"({self._data(d.left)}, {self._data(d.right)})"
        elif c is Inl:
            s = f"inl {self._data(d.body, atom=True)}"
            return f"({s})" if atom else s
        elif c is Inr:
            s = f"inr {self._data(d.body, atom=True)}"
            return f"({s})" if atom else s
        raise _Unrenderable()


def render_program(prog: Program) -> str:
    """Program back in surface syntax, one equation per split leaf."""
    out = []
    for d in prog.decls:
        if d.kind == "atom":
            out.append(f"atom {d.name}")
        elif d.kind == "postulate":
            out.append(f"postulate {d.name} : {surface_type(d.type)}")
        else:
            eqs = pretty_equations(d.name, d.term, d.type)
            out.append(f"{d.name} : {surface_type(d.type)}")
            out.append(eqs)
    return "\n".join(out) + "\n"


def surface_type(ty) -> str:
    from seqcore.syntax import Atom, Down, Imp, Or, Prod, Up, With
    match ty:
        case Atom(n, ()):
            return str(n)
        case Imp(a, r):
            return f"{surface_pos(a)} -> {surface_type(r)}"
        case With(l, r):
            return f"({surface_type(l)}) /\\ ({surface_type(r)})"
        case Up(p):
            return surface_pos(p)
    raise AssertionError(ty)


def surface_pos(ty) -> str:
    from seqcore.syntax import Down, Or, Prod
    match ty:
        case Down(n):
            s = surface_type(n)
            return f"({s})" if " " in s else s
        case Or(l, r):
            return f"({surface_pos(l)} + {surface_pos(r)})"
        case Prod(l, r):
            return f"({surface_pos(l)} * {surface_pos(r)})"
    raise AssertionError(ty)
