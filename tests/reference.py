"""First-match reference interpreter over surface clauses.

Independent of the reduction rules: running a declaration on argument data
tries its clauses top to bottom with direct structural matching of surface
patterns against data, then builds the expected normal form from the
right-hand side by plugging bindings, recursing into saturated calls of other
defined names.  Argument data is enumerated over the argument types to a
depth bound, using fresh postulates as the ground inhabitants of thunk
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from seqcore.core_text import print_type
from seqcore.surface import (Clause, EApp, EInl, EInr, EPair, PAsS, PInlS,
                             PInrS, PPairS, Program, PVarS, PWildS, SExpr,
                             SPat)
from seqcore.syntax import (
    App, Cons, DataVal, Done, Down, DPair, Imp, Inl, Inr, Name, NegType,
    Nil, Or, Pair, Pi, PosType, Prod, Sig, SigEntry, Sigma, Term, Thunk, Up,
    With, subst_data,
)


class NoMatch(Exception):
    pass


class Unrunnable(Exception):
    """The reference semantics does not cover this program shape (e.g. a
    partial application of a defined name)."""


# ---------------------------------------------------------------------------
# Argument enumeration

@dataclass
class ArgPool:
    """Supplies postulate inhabitants per thunk type, extending a signature."""

    sig: Sig
    per_type: int = 1
    _pool: dict = None
    _count: int = 0

    def __post_init__(self):
        self._pool = {}

    def thunks(self, n: NegType) -> list[DataVal]:
        key = print_type(n)
        if key not in self._pool:
            names = []
            for _ in range(self.per_type):
                self._count += 1
                name = Name(f"c{self._count}")
                self.sig = self.sig.with_entry(SigEntry(name, n))
                names.append(name)
            self._pool[key] = names
        return [Thunk(App(q, Nil())) for q in self._pool[key]]


def enumerate_data(ty: PosType, depth: int, pool: ArgPool) -> list[DataVal]:
    """All data of constructor depth <= depth at the given type, with thunk
    positions filled from the pool."""
    if depth <= 0:
        return []
    match ty:
        case Down(n):
            return pool.thunks(n)
        case Or(l, r):
            return [Inl(d) for d in enumerate_data(l, depth - 1, pool)] + \
                   [Inr(d) for d in enumerate_data(r, depth - 1, pool)]
        case Prod(l, r):
            return [DPair(a, b)
                    for a in enumerate_data(l, depth - 1, pool)
                    for b in enumerate_data(r, depth - 1, pool)]
        case Sigma(x, l, r):
            out = []
            for a in enumerate_data(l, depth - 1, pool):
                for b in enumerate_data(subst_data(r, x, a),
                                        depth - 1, pool):
                    out.append(DPair(a, b))
            return out
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Matching and evaluation

def smatch(sp: SPat, d: DataVal, binds: dict) -> bool:
    match sp, d:
        case PVarS(n, _), _:
            binds[n] = d
            return True
        case PWildS(_), _:
            return True
        case PAsS(n, p, _), _:
            binds[n] = d
            return smatch(p, d, binds)
        case PPairS(a, b), DPair(x, y):
            return smatch(a, x, binds) and smatch(b, y, binds)
        case PInlS(p), Inl(e):
            return smatch(p, e, binds)
        case PInrS(p), Inr(e):
            return smatch(p, e, binds)
        case _:
            return False


class Reference:
    def __init__(self, prog: Program, pool: ArgPool):
        self.prog = prog
        self.pool = pool

    @property
    def sig(self) -> Sig:
        return self.pool.sig

    def _decl(self, name: str):
        return self.prog.find(name)

    def run(self, name: str, args: list[DataVal]) -> Term:
        """The normal form of ``name`` fully applied to ``args``."""
        decl = self._decl(name)
        if decl is None or decl.kind == "atom":
            raise Unrunnable(name)
        if decl.kind == "postulate":
            return self._stuck(Name(name), args)
        surface = self._surface_clauses(name)
        if surface is None or _arity(surface) != len(args):
            raise Unrunnable(f"{name} applied to {len(args)} argument(s)")
        for clause in surface:
            binds: dict = {}
            if all(smatch(p, d, binds) for p, d in zip(clause.lhs, args)):
                return self._eval(clause.rhs, binds, self._result_type(decl.type, len(args)))
        raise NoMatch(name)

    def _surface_clauses(self, name: str) -> Optional[tuple[Clause, ...]]:
        return self.clauses.get(name) if hasattr(self, "clauses") else None

    def _result_type(self, ty: NegType, arity: int) -> NegType:
        for _ in range(arity):
            assert isinstance(ty, (Imp, Pi))
            ty = ty.res
        return ty

    def _stuck(self, head: Name, args: list[DataVal]) -> Term:
        spine = Nil()
        for d in reversed(args):
            spine = Cons(d, spine)
        return App(head, spine)

    # expression evaluation, type-directed

    def _eval(self, e: SExpr, binds: dict, goal: NegType) -> Term:
        match goal:
            case Up(p):
                return Done(self._eval_data(e, binds, p))
            case With(l, r) if isinstance(e, EPair):
                return Pair(self._eval(e.left, binds, l),
                            self._eval(e.right, binds, r))
            case _:
                return self._eval_app(e, binds, goal)

    def _head_info(self, e: EApp, binds: dict):
        if e.head in binds:
            return ("data", binds[e.head])
        entry = self.sig.lookup(Name(e.head))
        if entry is None:
            raise Unrunnable(f"unbound {e.head}")
        decl = self._decl(e.head)
        kind = "def" if (decl is not None and decl.kind == "def") else "postulate"
        return (kind, entry.type)

    def _eval_app(self, e: SExpr, binds: dict, goal: NegType) -> Term:
        if not isinstance(e, EApp):
            raise Unrunnable("non-application at a negative type")
        kind, info = self._head_info(e, binds)
        if kind == "data":
            d = info
            if not isinstance(d, Thunk):
                raise Unrunnable("composite data used as a function")
            inner = d.body
            if not e.args:
                return inner
            if not isinstance(inner, App):
                raise Unrunnable("non-neutral thunk applied")
            head_entry = self.sig.lookup(inner.head)
            assert head_entry is not None
            arg_data = self._args_data(e.args, binds, head_entry.type,
                                       _spine_len(inner.spine))
            spine = inner.spine
            tail = Nil()
            for d2 in reversed(arg_data):
                tail = Cons(d2, tail)
            return App(inner.head, _concat(spine, tail))
        ty = info
        arg_data = self._args_data(e.args, binds, ty, 0)
        if kind == "def":
            decl = self._decl(e.head)
            arity = _arity(self.clauses[e.head])
            if len(arg_data) != arity:
                raise Unrunnable(f"partial application of {e.head}")
            return self.run(e.head, arg_data)
        return self._stuck(Name(e.head), arg_data)

    def _args_data(self, args, binds: dict, head_ty: NegType,
                   skip: int) -> list[DataVal]:
        ty = head_ty
        for _ in range(skip):
            assert isinstance(ty, (Imp, Pi))
            ty = ty.res
        out = []
        for a in args:
            assert isinstance(ty, (Imp, Pi)), "over-application"
            d = self._eval_data(a, binds, ty.arg)
            out.append(d)
            if isinstance(ty, Pi):
                ty = subst_data(ty.res, ty.binder, d)
            else:
                ty = ty.res
        return out

    def _eval_data(self, e: SExpr, binds: dict, p: PosType) -> DataVal:
        if isinstance(e, EApp) and not e.args and e.head in binds:
            return binds[e.head]
        match p:
            case Down(n):
                t = self._eval(e, binds, n)
                return Thunk(t)
            case Or(l, r):
                match e:
                    case EInl(b):
                        return Inl(self._eval_data(b, binds, l))
                    case EInr(b):
                        return Inr(self._eval_data(b, binds, r))
                    case _:
                        raise Unrunnable("expected injection")
            case Prod(l, r):
                assert isinstance(e, EPair)
                return DPair(self._eval_data(e.left, binds, l),
                             self._eval_data(e.right, binds, r))
            case Sigma(x, l, r):
                assert isinstance(e, EPair)
                da = self._eval_data(e.left, binds, l)
                return DPair(da, self._eval_data(
                    e.right, binds, subst_data(r, x, da)))
        raise TypeError(p)


def _arity(clauses) -> int:
    return len(clauses[0].lhs)


def _spine_len(k) -> int:
    n = 0
    while isinstance(k, Cons):
        n += 1
        k = k.rest
    assert isinstance(k, Nil)
    return n


def _concat(a, b):
    if isinstance(a, Nil):
        return b
    assert isinstance(a, Cons)
    return Cons(a.arg, _concat(a.rest, b))


def make_reference(source: str, prog: Program, pool: ArgPool) -> Reference:
    """Builds the interpreter, re-parsing the source for the surface clauses
    (the compiled program does not retain them)."""
    from seqcore.surface import parse
    ref = Reference(prog, pool)
    ref.clauses = {}
    for d in parse(source):
        if d.kind == "def":
            ref.clauses[d.name] = d.clauses
    return ref
