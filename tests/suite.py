"""Shared fixtures: the example program suite and common signatures."""

from __future__ import annotations

import gc
import pathlib

from reference import ArgPool, enumerate_data
from seqcore.check import check_term
from seqcore.check_dep import dep_check_term
from seqcore.surface import Program, load_program, parse
from seqcore.syntax import (App, Atom, Cons, Down, Imp, Mode, Name, Nil, Pi,
                            Sig, SigEntry, subst_data_in_neg)

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
                    goal = subst_data_in_neg(ty.res, ty.binder, arg)
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


def render_program(prog: Program) -> str:
    """Program back in surface syntax, one equation per split leaf."""
    from seqcore.surface import pretty_equations
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
