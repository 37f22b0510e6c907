"""Small-step cut elimination and fuel-bounded normalization.

One step rewrites the leftmost-outermost redex, where positions are ordered
by a preorder walk of the whole tree (a node before its children, children in
syntactic left-to-right order).  Reduction does descend into data, spines and
binder bodies: substitution plants application cuts at use sites, so normal
forms would otherwise retain cuts under binders.

Rules, with their trace names:

R1  ``(\\p. t) (d :: k)  ~>  (let p = d in t) k``
R2  ``(done d) (kappa p. t)  ~>  let p = d in t``
R3  ``<t, u> .1 k  ~>  t k``  (and ``.2`` symmetrically)
R4  ``t []  ~>  t``
R5  binding-cut decomposition: pair patterns split pair data, or-patterns
    select the split branch matching the injection, contraction duplicates,
    wildcard drops
R6  ``let x = d in t  ~>  t{d/x}``
R7  spine concatenation ``(x k1) k2 ~> x (k1 @ k2)`` (likewise on an inner
    application cut), the commuting cut ``(let p = d in t) k ~> let p = d in
    (t k)``, and delta-unfolding of signature definitions at applied names

``reassociated`` (R4; R7 but delta-unfolding) and ``decomposed`` (R5) are
also how both checkers judge a cut whose formula they cannot synthesize.

Postulate-headed applications are normal forms, not failures; a stuck result
is reserved for evaluation states no well-typed term reaches (a function
applied to a projection, pair data against an or-pattern, and similar shape
clashes).  ``_step_root`` raises ``syntax.Clash`` for each, the same exception
a substitution raises when R6 would apply non-thunk data, and its ``reason``
becomes the stuck text.

The reference, a ``step`` that searches from the root on every call, lives
with the tests (``tests/step_reference.py``) and reuses ``_step_root``.
``normalize`` and ``trace`` take the same steps in one preorder walk
(refocusing, Danvy & Nielsen, BRICS RS-04-26, 2004).  A rule rewrites only
the subtree at the redex, and everything left of it is already normal, so
after a rewrite the walk resumes at the rewritten position.  Every ancestor
of that position was found not to be a redex, and the walk visits a node
before its children, so the rewritten node is never the child an ancestor's
status reads: an application cut whose function is an application or a cut
is itself an R4/R7 redex and would have fired first, a binding cut reads
its pattern and data but never its body, its data is never rewritten, and
no other node class is a redex at all.  (A ``let`` of a variable
substitutes into its whole body, but it always fires or sticks, so it is
never left behind as an ancestor.)  The one exception is a binding cut of a
pair or or-pattern pending on a thunk, whose status reads the thunk's body:
when that body is rewritten the binding cut, two levels up, is checked
again, then the new subtree.  On ``f x = p (g x) ... (g x)`` with 200 calls
this is 2.99 root checks and 0.75 frame rebuilds per step, where checking
the parent and the grandparent again after every rewrite took 4.98 and
2.24.
"""

from __future__ import annotations

from collections.abc import Callable

from .diag import SeqcoreError
from .record import record
from .syntax import (
    App, AppCut, BindCut, Clash, Cons, DataVal, Done, DPair, Inl, Inr, Kappa,
    Lam, Nil, Pair, PAt, Pattern, POr, PPair, Proj1, Proj2, PWild, Sig, Spine,
    Split, Term, Thunk, Var, data_shape, select_branch, spine_concat,
    subst_data, with_children,
)

__all__ = ["normalize", "trace", "NormalizeResult", "FuelExhausted",
           "DEFAULT_FUEL"]

# The step budget of a normalization, and of a conversion check, when the
# caller names none.
DEFAULT_FUEL = 10000


@record
class NormalizeResult:
    term: Term
    steps: int
    stuck: str | None = None


class FuelExhausted(SeqcoreError):
    def __init__(self, term: Term, steps: int):
        super().__init__(f"fuel exhausted after {steps} steps")
        self.term = term
        self.steps = steps


def reassociated(f: Term, k: Spine) -> Term | None:
    """R4 and R7 on the cut ``f k``: an empty spine drops (R4), an applied
    variable or a nested cut absorbs ``k`` and a binding cut commutes (R7).
    None for every other ``f``."""
    if type(k) is Nil:
        return f
    c = type(f)
    if c is App:
        return App(f.head, spine_concat(f.spine, k))
    elif c is AppCut:
        return AppCut(f.fun, spine_concat(f.spine, k))
    elif c is BindCut:
        return BindCut(f.pat, f.data, AppCut(f.body, k))
    return None


def decomposed(p: Pattern, d: DataVal, b: Term) -> Term | None:
    """R5 on ``let p = d in b``: a pair pattern against a pair, an
    or-pattern against an injection, a contraction, a wildcard; else None."""
    cp, cd = type(p), type(d)
    if cp is PPair and cd is DPair:
        return BindCut(p.left, d.left, BindCut(p.right, d.right, b))
    elif cp is POr and cd is Inl:
        return BindCut(p.left, d.body, select_branch(p.label, "left", b))
    elif cp is POr and cd is Inr:
        return BindCut(p.right, d.body, select_branch(p.label, "right", b))
    elif cp is PAt:
        return BindCut(p.left, d, BindCut(p.right, d, b))
    elif cp is PWild:
        return b
    return None


def _step_root(sig: Sig, x) -> tuple[str, object] | None:
    c = type(x)
    if c is AppCut:
        f, k = x.fun, x.spine
        cf, ck = type(f), type(k)
        if cf is Lam and ck is Cons:
            return "R1", AppCut(BindCut(f.pat, k.arg, f.body), k.rest)
        elif cf is Done and ck is Kappa:
            return "R2", BindCut(k.pat, f.data, k.body)
        elif cf is Pair and ck is Proj1:
            return "R3", AppCut(f.left, k.rest)
        elif cf is Pair and ck is Proj2:
            return "R3", AppCut(f.right, k.rest)
        u = reassociated(f, k)
        if u is not None:
            return "R4" if ck is Nil else "R7", u
        if cf is Lam or cf is Done or cf is Pair:
            raise Clash(
                f"{_term_shape(f)} applied to {_spine_shape(k)} spine")
        return None   # a split: resolved by an enclosing or-binding
    elif c is BindCut:
        p, d, b = x.pat, x.data, x.body
        cp = type(p)
        if cp is Var:
            return "R6", subst_data(b, p.name, d)
        u = decomposed(p, d, b)
        if u is not None:
            return "R5", u
        if (cp is PPair or cp is POr) and type(d) is Thunk:
            # A thunk scrutinized by a decomposing pattern is normal
            # while its head may still compute (sigma-style lets on a
            # variable); it is a definite clash otherwise.
            if isinstance(d.body, (Lam, Done, Pair, Split)):
                raise Clash(
                    f"{_pattern_shape(p)} pattern against thunk data")
            return None
        raise Clash(
            f"{_pattern_shape(p)} pattern against {data_shape(d)} data")
    elif c is App:
        entry = sig.lookup(x.head)
        if entry is not None and entry.body is not None:
            return "R7", AppCut(entry.body, x.spine)
        return None
    return None


def _term_shape(t: Term) -> str:
    return {Done: "done", Lam: "function", App: "application", Pair: "pair",
            Split: "split", BindCut: "let", AppCut: "cut"}[type(t)]


def _pattern_shape(p) -> str:
    return {Var: "variable", PPair: "pair", POr: "or", PAt: "contraction",
            PWild: "wildcard"}[type(p)]


def _spine_shape(k: Spine) -> str:
    return {Nil: "empty", Cons: "argument", Proj1: "projection",
            Proj2: "projection", Kappa: "kappa"}[type(k)]


def normalize(sig: Sig, t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    """Reduce to a normal form or a stuck state, taking the steps ``step``
    would take.  Raises FuelExhausted when more than ``fuel`` steps would be
    needed."""
    return _refocus(sig, t, fuel)


def trace(sig: Sig, t: Term, fuel: int = DEFAULT_FUEL) -> tuple[list[tuple[str, Term]], NormalizeResult]:
    """As ``normalize`` but recording each applied rule and the term after."""
    out: list[tuple[str, Term]] = []
    res = _refocus(sig, t, fuel, lambda rule, term: out.append((rule, term)))
    return out, res


def _refocus(sig: Sig, t: Term, fuel: int,
             observe: Callable[[str, Term], None] | None = None
             ) -> NormalizeResult:
    """The reduction sequence of ``step``, found in one preorder walk.

    ``focus`` is the next position to search.  Each frame of ``stack`` holds
    a node above it and that node's children (both rebuilt with its finished
    children as the walk climbs back through it) and the index of the one
    being searched.  Every node in ``stack`` is not a redex, and
    every subtree left of the focus is normal.  After a rewrite the walk
    goes on at the rewritten node: no ancestor's status reads it, save a
    binding cut over the thunk whose body it is, which is checked again
    first (see the module docstring).  ``observe`` is called with each rule
    and the whole term after it."""
    stack: list[list] = []
    focus = t
    steps = 0
    while True:
        try:
            hit = _step_root(sig, focus)
        except Clash as e:
            return NormalizeResult(_plug(stack, focus), steps, stuck=e.reason)
        if hit is not None:
            steps += 1
            if steps > fuel:
                raise FuelExhausted(_plug(stack, focus), steps - 1)
            rule, focus = hit
            if observe is not None:
                observe(rule, _plug(stack, focus))
            # Only a binding cut over a thunk whose body was just rewritten
            # can have changed status: search again from it.  If it is no
            # redex, the walk goes back down through its data and the
            # thunk's body, each the first child of its node.
            if (len(stack) > 1 and type(stack[-1][0]) is Thunk
                    and type(stack[-2][0]) is BindCut):
                stack.pop()
                cut = stack.pop()[0]
                focus = BindCut(cut.pat, Thunk(focus), cut.body)
            continue
        kids = focus.layout.children(focus)
        if kids:
            stack.append([focus, kids, 0])
            focus = kids[0]
            continue
        # The focus is normal: climb to the next subtree on its right.
        while stack:
            frame = stack[-1]
            parent, kids, i = frame
            if focus is not kids[i]:
                kids = frame[1] = _put(kids, i, focus)
                parent = frame[0] = with_children(parent, kids)
            if i + 1 < len(kids):
                frame[2] = i + 1
                focus = kids[i + 1]
                break
            stack.pop()
            focus = parent
        else:
            return NormalizeResult(focus, steps)


def _plug(stack: list[list], x):
    """The whole term: ``x`` put back under every frame of ``stack``."""
    for parent, kids, i in reversed(stack):
        x = with_children(parent, _put(kids, i, x))
    return x


def _put(kids: tuple, i: int, x) -> tuple:
    return kids[:i] + (x,) + kids[i + 1:]
