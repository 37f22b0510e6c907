"""Random well-typed term generation by goal-directed derivation building.

Terms are built by walking the propositional rules downward from a goal, so
every emitted term carries a derivation by construction; the tests still
assert the checker accepts each one.  Cuts are generated with explicit cut
formulas drawn from subformulas of the ambient types, which makes the corpus
exercise every reduction rule.
"""

from __future__ import annotations

import functools
import random

from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr,
    Kappa, Lam, Name, NegType, Nil, Or, Pair, PAt, POr, PosType, PPair, Prod,
    Proj1, Proj2, PWild, Sig, SigEntry, Split, Thunk, Up, Var, With,
    alpha_eq, fresh,
)

A = Atom(Name("a"))


def std_sig() -> Sig:
    """One atom and a handful of postulates covering every connective."""
    return Sig(frozenset({Name("a")}), (
        SigEntry(Name("z"), A),
        SigEntry(Name("f"), Imp(Down(A), A)),
        SigEntry(Name("g"), Imp(Down(A), Imp(Down(A), A))),
        SigEntry(Name("h"), With(A, Imp(Down(A), A))),
        SigEntry(Name("u"), Up(Or(Down(A), Down(A)))),
        SigEntry(Name("s"), Imp(Or(Down(A), Prod(Down(A), Down(A))), A)),
    ))


GOALS = (
    A,
    Imp(Down(A), A),
    Imp(Or(Down(A), Down(A)), A),
    Imp(Prod(Down(A), Down(A)), A),
    With(A, A),
    Up(Down(A)),
    Up(Or(Down(A), Down(A))),
    Imp(Down(Imp(Down(A), A)), A),
)

_CUT_POS = (Down(A), Or(Down(A), Down(A)), Prod(Down(A), Down(A)),
            Down(Imp(Down(A), A)))
_CUT_NEG = (A, Imp(Down(A), A), With(A, A), Up(Down(A)))


class Gen:
    def __init__(self, sig: Sig, rng: random.Random, structural: bool = False):
        self.sig = sig
        self.rng = rng
        self.structural = structural

    # environment: psi is a dict Name -> NegType; pending a tuple of (POr, Or)

    def term(self, psi: dict, pending: tuple, goal: NegType, budget: int):
        rng = self.rng
        choices = []
        if pending:
            choices += ["split"] * 4
        if isinstance(goal, Imp) and budget >= 4:
            choices += ["lam"] * 3
        if isinstance(goal, With) and budget >= 5:
            choices += ["pair"] * 2
        if not pending:
            choices += ["leaf"] * 3
            if budget >= 6:
                choices += ["bindcut", "appcut"] * 2
        if not choices:
            choices = ["split" if pending else "leaf"]
        match rng.choice(choices):
            case "split":
                i = rng.randrange(len(pending))
                (p, ty) = pending[i]
                rest = pending[:i] + pending[i + 1:]
                psiL, pendL = self._bind(dict(psi), rest, p.left, ty.left)
                psiR, pendR = self._bind(dict(psi), rest, p.right, ty.right)
                half = max(2, budget // 2)
                return Split(p.label,
                             self.term(psiL, pendL, goal, half),
                             self.term(psiR, pendR, goal, half))
            case "lam":
                pat, entries = self.pattern(goal.arg, budget // 3)
                psi2, pend2 = self._bind(dict(psi), pending, pat, goal.arg)
                return Lam(pat, self.term(psi2, pend2, goal.res, budget - 2))
            case "pair":
                half = max(2, budget // 2)
                return Pair(self.term(psi, pending, goal.left, half),
                            self.term(psi, pending, goal.right, half))
            case "bindcut":
                ty = rng.choice(_CUT_POS)
                d = self.data(psi, ty, max(2, budget // 3))
                pat, _ = self.pattern(ty, budget // 4)
                psi2, pend2 = self._bind(dict(psi), pending, pat, ty)
                return BindCut(pat, d, self.term(psi2, pend2, goal, budget // 2))
            case "appcut":
                ty = rng.choice(_CUT_NEG)
                fun = self.term(psi, pending, ty, max(2, budget // 2))
                k = self.spine(psi, ty, goal, max(1, budget // 3))
                if k is None:
                    return self.term(psi, pending, goal, budget)
                return AppCut(fun, k)
            case _:
                return self.leaf(psi, goal, budget)

    def _bind(self, psi: dict, pending: tuple, p, ty):
        match p:
            case Var(x):
                assert isinstance(ty, Down)
                psi[x] = ty.body
                return psi, pending
            case PPair(a, b):
                psi, pending = self._bind(psi, pending, a, ty.left)
                return self._bind(psi, pending, b, ty.right)
            case POr(_, _, _):
                return psi, pending + ((p, ty),)
            case PAt(a, b):
                psi, pending = self._bind(psi, pending, a, ty)
                return self._bind(psi, pending, b, ty)
            case PWild():
                return psi, pending
        raise TypeError(p)

    def pattern(self, ty: PosType, budget: int):
        rng = self.rng
        if self.structural and budget >= 2 and rng.random() < 0.1:
            if isinstance(ty, Down) and rng.random() < 0.5:
                p, _ = self.pattern(ty, budget - 1)
                return PAt(Var(fresh("c")), p), None
            return PWild(), None
        match ty:
            case Down(_):
                return Var(fresh("x")), None
            case Prod(l, r):
                pl, _ = self.pattern(l, budget // 2)
                pr, _ = self.pattern(r, budget // 2)
                return PPair(pl, pr), None
            case Or(l, r):
                pl, _ = self.pattern(l, budget // 2)
                pr, _ = self.pattern(r, budget // 2)
                return POr(fresh("w"), pl, pr), None
        raise TypeError(ty)

    def leaf(self, psi: dict, goal: NegType, budget: int):
        entries = list(psi.items()) + [(e.name, e.type) for e in self.sig.entries]
        self.rng.shuffle(entries)
        for x, n in entries:
            k = self.spine(psi, n, goal, budget)
            if k is not None:
                return App(x, k)
        # No hypothesis reaches the goal: introduce instead.
        match goal:
            case Imp(a, r):
                pat, _ = self.pattern(a, budget // 3)
                psi2, pend2 = self._bind(dict(psi), (), pat, a)
                return Lam(pat, self.term(psi2, pend2, r, budget - 2))
            case With(l, r):
                return Pair(self.leaf(psi, l, budget // 2),
                            self.leaf(psi, r, budget // 2))
            case Up(p):
                return Done(self.data(psi, p, budget - 1))
        raise AssertionError(f"unreachable goal {goal}")

    def spine(self, psi: dict, focus: NegType, goal: NegType, budget: int):
        """A spine consuming ``focus`` and landing on ``goal``, or None."""
        if alpha_eq(focus, goal):
            return Nil()
        if budget <= 0:
            return None
        match focus:
            case Imp(p, n):
                rest = self.spine(psi, n, goal, budget - 2)
                if rest is None:
                    return None
                return Cons(self.data(psi, p, max(2, budget // 2)), rest)
            case With(l, r):
                first, second = (l, Proj1), (r, Proj2)
                if self.rng.random() < 0.5:
                    (l, Proj1_), (r, Proj2_) = (r, Proj2), (l, Proj1)
                    first, second = (l, Proj1_), (r, Proj2_)
                for side, ctor in (first, second):
                    rest = self.spine(psi, side, goal, budget - 1)
                    if rest is not None:
                        return ctor(rest)
                return None
            case Up(p):
                if budget < 4:
                    return None
                pat, _ = self.pattern(p, budget // 3)
                psi2, pend2 = self._bind(dict(psi), (), pat, p)
                return Kappa(pat, self.term(psi2, pend2, goal, budget - 3))
        return None

    def data(self, psi: dict, ty: PosType, budget: int):
        match ty:
            case Down(n):
                return Thunk(self.term(psi, (), n, max(2, budget - 1)))
            case Or(l, r):
                if self.rng.random() < 0.5:
                    return Inl(self.data(psi, l, budget - 1))
                return Inr(self.data(psi, r, budget - 1))
            case Prod(l, r):
                return DPair(self.data(psi, l, budget // 2),
                             self.data(psi, r, budget // 2))
        raise TypeError(ty)


def generate_corpus(count: int, max_size: int, seed: int = 2024,
                    structural: bool = False):
    """At least ``count`` distinct well-typed (term, goal) pairs of size
    <= max_size over the standard signature."""
    sig, corpus = _generate_corpus(count, max_size, seed, structural)
    return sig, list(corpus)


@functools.cache
def _generate_corpus(count: int, max_size: int, seed: int,
                     structural: bool):
    # Several test modules sweep the same corpora, and generating one (each
    # term is typechecked) costs far more than a sweep over it.
    from seqcore.check import check_term
    from seqcore.core_text import print_term
    from seqcore.syntax import size

    sig = std_sig()
    rng = random.Random(seed)
    gen = Gen(sig, rng, structural=structural)
    seen: set = set()
    corpus = []
    tries = 0
    while len(corpus) < count and tries < count * 200:
        tries += 1
        goal = rng.choice(GOALS)
        budget = rng.randrange(5, max_size + 3)
        t = gen.term({}, (), goal, budget)
        if size(t) > max_size:
            continue
        key = (print_term(t), id(goal) and str(goal))
        if key in seen:
            continue
        seen.add(key)
        assert check_term(sig, [], t, goal, structural=structural) is None, \
            f"generator produced ill-typed term: {print_term(t)}"
        corpus.append((t, goal))
    return sig, tuple(corpus)
