"""Propositional typechecker: inversion, right focus and left focus.

Three judgment forms are implemented.  Inversion checks a term against a
negative goal under the persistent zone and a linear context of
pattern-annotated positive hypotheses; right focus checks data against a
positive type under the persistent zone alone; left focus consumes a spine
against a focused negative type.

The strategy is deterministic:

* the inversion context is decomposed eagerly, left to right: a variable at a
  thunk type is stored into the persistent zone, pair patterns split their
  product, contraction duplicates and wildcard drops (both behind the
  ``structural`` flag);
* or-pattern hypotheses are *deferred* and resolved term-directed: a
  ``split w`` subject locates the pending hypothesis labeled ``w`` wherever it
  sits, so any interleaving of left rules the calculus permits is accepted;
* with the context fully processed, checking dispatches on the subject.
  ``done`` and variable application insist on a fully discharged context.

Cut formulas are not written in terms, so the two cut rules recover them by
synthesis.  Data built from stores, pairs and thunked applications has a
unique synthesizable type; where synthesis is impossible (a thunked function,
an injection's missing side) the cut is judged by the shape of its own
reduct: binding cuts decompose pattern against data, application cuts consume
the spine structurally.  ``_reducts`` lists those reducts once for both
directions: checking judges each at the goal, synthesis infers each, just as
``_check_spine`` synthesizes when it has no goal.  This keeps every reduction
step re-checkable at the same goal.  Where a sub-derivation is discarded
along the way (a dropped injection side, a projected-away pair component) the
discarded part is still required to be well-typed whenever its type can be
decided.  The rules that read the same in both modes are stated here once
and imported by the dependent checker: the failure plumbing (a failing rule
raises ``CheckError`` built by ``_fail``, ``_clashed`` builds the one a
clashing substitution raises, and the entry points' ``_verdict`` catches
it), the zones (``_Zones``: lookup and head typing), the side conditions of
with-right, done, with-left and kappa, and the variable-cut reduct
``_var_cut_reduct``.  The axiom compares the type under focus with the goal
by identity first, in both checkers: the front end shares equal polarized
types (see ``surface.polarize``), so an application at its declared result
type is settled without a structural walk.  The untyped cut reducts are
``reduce``'s own rules (``reassociated`` for R4 and R7, ``decomposed`` for
R5).  A failure gains one trail line from each judgment it passes through,
written where the judgment is: ``check t : N`` from inversion,
``right-focus |= d : [P]`` from right focus, and
``left-focus [N] |- spine : M`` from left focus when it checks against a
goal.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .core_text import print_data, print_pattern, print_term, print_type
from .diag import CheckError, Diagnostic
from .record import record
from .reduce import decomposed, reassociated
from .syntax import (
    App, AppCut, BindCut, Clash, Cons, Ctx, DataVal, Done, Down, DPair, Imp,
    Inl, Inr, Kappa, Lam, Name, NegType, Nil, Or, Pair, Pattern, PAt, POr,
    PosType, PPair, Prod, Proj1, Proj2, PWild, Sig, Spine, Split, Term, Thunk,
    Up, Var, With, alpha_eq, data_shape, free_names, pattern_labels,
    pattern_vars, subst_data,
)

__all__ = ["check_term", "check_data", "check_spine", "infer_term",
           "UNKNOWN"]


def _clip(s: str, n: int = 60) -> str:
    return s if len(s) <= n else s[:n - 3] + "..."


class _Unknown:
    """Synthesis came back undecided (not a failure)."""


UNKNOWN = _Unknown()


def _fail(rule: str, expected: str = "", found: str = "", note: str = "") -> CheckError:
    return CheckError(Diagnostic(rule, expected, found, note))


def _clashed(rule: str, expected: str, x: Name, e: Clash) -> CheckError:
    """The ``rule`` failure of a substitution for ``x`` that put data other
    than a thunk where ``x`` is applied (the ``Clash`` ``e``)."""
    return _fail(rule, expected=expected, found=str(x), note=e.reason)


class _Zones:
    """The zones both checkers' states hold: thunk-typed hypotheses in
    ``stores``, newest last, over the signature ``sig``.  Each state reports
    an undischarged linear context in its own ``discharged``."""

    __slots__ = ()

    def lookup(self, x: Name) -> Optional[NegType]:
        for y, n in reversed(self.stores):
            if y == x:
                return n
        entry = self.sig.lookup(x)
        return entry.type if entry else None

    def head(self, x: Name) -> NegType:
        """The type of the applied variable ``x``; the context must be empty."""
        self.discharged("var-app")
        n = self.lookup(x)
        if n is None:
            raise _fail("unbound", expected="declared variable", found=str(x))
        return n


@record
class _State(_Zones):
    """Checker zones: local stores over the signature, deferred or-pattern
    hypotheses, and undischargeable residual variables."""

    sig: Sig
    structural: bool
    stores: tuple[tuple[Name, NegType], ...] = ()
    pending: tuple[tuple[POr, Or], ...] = ()
    residual: tuple[Name, ...] = ()

    def store(self, x: Name, n: NegType) -> "_State":
        return _State(self.sig, self.structural, self.stores + ((x, n),),
                      self.pending, self.residual)

    def defer(self, p: POr, ty: Or) -> "_State":
        return _State(self.sig, self.structural, self.stores,
                      self.pending + ((p, ty),), self.residual)

    def leave(self, x: Name) -> "_State":
        return _State(self.sig, self.structural, self.stores, self.pending,
                      self.residual + (x,))

    def drop_pending(self, i: int) -> "_State":
        return _State(self.sig, self.structural, self.stores,
                      self.pending[:i] + self.pending[i + 1:], self.residual)

    def focus_zone(self) -> "_State":
        """The zone data and spines are judged in: no linear hypotheses."""
        if not self.pending and not self.residual:
            return self
        return _State(self.sig, self.structural, self.stores, (), ())

    def discharged(self, rule: str) -> None:
        """Fail ``rule`` unless the inversion context is fully discharged."""
        if self.pending or self.residual:
            parts = [f"[{print_pattern(p)}] : {print_type(ty)}"
                     for p, ty in self.pending]
            parts += [f"{x} : <positive>" for x in self.residual]
            raise _fail(rule, expected="empty inversion context",
                        found="{" + ", ".join(parts) + "}")


def _structural(st: _State, found: str) -> None:
    if not st.structural:
        raise _fail("structural-disabled", expected="structural-patterns flag",
                    found=found)


# ---------------------------------------------------------------------------
# Side conditions both checkers apply; each returns what is judged next

def _with_right(goal: NegType) -> tuple[NegType, NegType]:
    """The goals of the two components of a pair checked at ``goal``."""
    if not isinstance(goal, With):
        raise _fail("with-right", expected="conjunction goal",
                    found=print_type(goal))
    return goal.left, goal.right


def _done(st: _Zones, goal: NegType) -> PosType:
    """The type the data of ``done`` is checked at."""
    st.discharged("done")
    if not isinstance(goal, Up):
        raise _fail("done", expected="shifted positive goal",
                    found=print_type(goal))
    return goal.body


def _with_left(focus: NegType, k: Spine) -> NegType:
    """The component of ``focus`` that the projection ``k`` selects."""
    first = type(k) is Proj1
    if not isinstance(focus, With):
        raise _fail("with-left-1" if first else "with-left-2",
                    expected="conjunction under focus",
                    found=print_type(focus))
    return focus.left if first else focus.right


def _kappa(focus: NegType) -> PosType:
    """The type a kappa spine's pattern is bound at under ``focus``."""
    if not isinstance(focus, Up):
        raise _fail("kappa", expected="shifted positive under focus",
                    found=print_type(focus))
    return focus.body


def _verdict(judgment, *args) -> Optional[Diagnostic]:
    """Run ``judgment(*args)``: None when it holds, else the diagnostic of
    the failure it raised."""
    try:
        judgment(*args)
    except CheckError as f:
        return f.diagnostic
    return None


def _var_cut_reduct(x: Name, d: DataVal, b: Term) -> Term:
    """The reduct of the variable cut ``x = d in b``: ``b`` with ``d`` for
    ``x``, unchanged when ``x`` is not free in it."""
    if x not in free_names(b):
        return b
    try:
        return subst_data(b, x, d)
    except Clash as e:
        raise _clashed("bind-cut", "well-sorted variable use", x, e)


# ---------------------------------------------------------------------------
# Context inversion

def _invert_one(st: _State, p: Pattern, ty: PosType) -> _State:
    c = type(p)
    if c is Var:
        if isinstance(ty, Down):
            return st.store(p.name, ty.body)
        # No rule consumes a variable at a composite positive type; the
        # hypothesis can never be discharged.
        return st.leave(p.name)
    elif c is PPair:
        if not isinstance(ty, Prod):
            raise _fail("prod-left", expected="positive product",
                        found=print_type(ty),
                        note=f"pair pattern {print_pattern(p)}")
        return _invert_one(_invert_one(st, p.left, ty.left), p.right, ty.right)
    elif c is POr:
        if not isinstance(ty, Or):
            raise _fail("or-left", expected="sum type",
                        found=print_type(ty),
                        note=f"or-pattern labeled {p.label}")
        if any(q.label == p.label for q, _ in st.pending):
            raise _fail("or-left", expected="unique split label",
                        found=str(p.label), note="label already bound")
        return st.defer(p, ty)
    elif c is PAt:
        _structural(st, "contraction pattern p @ q")
        return _invert_one(_invert_one(st, p.left, ty), p.right, ty)
    elif c is PWild:
        _structural(st, "wildcard pattern _")
        return st
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Inversion: check a term against a negative goal

def _check(st: _State, t: Term, goal: NegType) -> None:
    try:
        c = type(t)
        if c is Lam:
            if not isinstance(goal, Imp):
                raise _fail("lambda", expected="implication goal",
                            found=print_type(goal))
            _check(_invert_one(st, t.pat, goal.arg), t.body, goal.res)
        elif c is Pair:
            left, right = _with_right(goal)
            _check(st, t.left, left)
            _check(st, t.right, right)
        elif c is Done:
            _check_data(st, t.data, _done(st, goal))
        elif c is App:
            _check_spine(st, st.head(t.head), t.spine, goal)
        elif c is Split or c is BindCut or c is AppCut:
            for st1, u in _reducts(st, t):
                _check(st1, u, goal)
        else:
            raise TypeError(t)
    except CheckError as f:
        raise CheckError(f.diagnostic.pushed(
            f"check {_clip(print_term(t))} : {print_type(goal)}"))


# ---------------------------------------------------------------------------
# Splits and cuts: the judgments they reduce to

def _reducts(st: _State, t: Term) -> Iterator[tuple[_State, Term]]:
    """The judgments a split, a binding cut or an application cut reduces
    to, in order, each at the goal of ``t``: two for a split (one per
    branch), one for a cut.  Lazy, so a split's right branch is inverted
    only after the left one has been judged."""
    c = type(t)
    if c is Split:
        for i, (p, ty) in enumerate(st.pending):
            if p.label == t.label:
                base = st.drop_pending(i)
                yield _invert_one(base, p.left, ty.left), t.left
                yield _invert_one(base, p.right, ty.right), t.right
                return
        raise _fail("or-left", expected="pending or-hypothesis",
                    found=str(t.label), note="split label not at hand")
    elif c is BindCut:
        ty = _infer_data(st.focus_zone(), t.data)
        if ty is not UNKNOWN:
            yield _invert_one(st, t.pat, ty), t.body
            return
        yield _bind_cut(st, t.pat, t.data, t.body)
    elif c is AppCut:
        f, k = t.fun, t.spine
        u = reassociated(f, k)
        if u is not None:
            yield st, u
            return
        cf = type(f)
        if cf is Lam:
            if not isinstance(k, Cons):
                raise _fail("app-cut",
                            expected="argument spine for a function",
                            found=_spine_shape(k))
            yield st, BindCut(f.pat, k.arg, AppCut(f.body, k.rest))
        elif cf is Done:
            st.discharged("done")
            if not isinstance(k, Kappa):
                raise _fail("app-cut",
                            expected="kappa spine for returned data",
                            found=_spine_shape(k))
            yield st, BindCut(k.pat, f.data, k.body)
        elif cf is Pair:
            # The projected-away component must still be typeable:
            # reject definite failures, accept when undecided.
            ck = type(k)
            if ck is Proj1:
                _infer_term(st, f.right)
                yield st, AppCut(f.left, k.rest)
            elif ck is Proj2:
                _infer_term(st, f.left)
                yield st, AppCut(f.right, k.rest)
            else:
                raise _fail("app-cut",
                            expected="projection spine for a pair",
                            found=_spine_shape(k))
        elif cf is Split:
            for st1, u in _reducts(st, f):
                yield st1, AppCut(u, k)
        else:
            raise TypeError(f)


def _bind_cut(st: _State, p: Pattern, d: DataVal,
              b: Term) -> tuple[_State, Term]:
    """A binding cut whose data has no synthesizable type, decomposed
    pattern against data as the reduction rule does."""
    c = type(p)
    if c is PWild:
        _structural(st, "wildcard pattern _")
    elif c is PAt:
        _structural(st, "contraction pattern p @ q")
    elif c is Var and type(d) is Thunk:
        return st, _var_cut_reduct(p.name, d, b)
    elif c is Var:
        # Pair or injection data bound to a bare variable: the hypothesis
        # is positive-composite and can never be discharged.
        return st.leave(p.name), b
    u = decomposed(p, d, b)
    if u is not None:
        return st, u
    if c is PPair:
        raise _fail("bind-cut", expected="pair data", found=data_shape(d))
    elif c is POr:
        raise _fail("bind-cut", expected="injection data",
                    found=data_shape(d))
    raise TypeError(p)


def _spine_shape(k: Spine) -> str:
    return {Nil: "[]", Cons: "argument", Proj1: ".1", Proj2: ".2",
            Kappa: "kappa"}[type(k)]


# ---------------------------------------------------------------------------
# Right focus: check data against a positive type

def _check_data(st: _State, d: DataVal, goal: PosType) -> None:
    st = st.focus_zone()
    try:
        # Mismatches are named after the rule the goal demands.
        c, cd = type(goal), type(d)
        if c is Down and cd is Thunk:
            _check(st, d.body, goal.body)
        elif c is Down:
            raise _fail("thunk", expected=print_type(goal),
                        found=data_shape(d))
        elif c is Prod and cd is DPair:
            _check_data(st, d.left, goal.left)
            _check_data(st, d.right, goal.right)
        elif c is Prod:
            raise _fail("prod-right", expected=print_type(goal),
                        found=data_shape(d))
        elif c is Or and cd is Inl:
            _check_data(st, d.body, goal.left)
        elif c is Or and cd is Inr:
            _check_data(st, d.body, goal.right)
        elif c is Or:
            raise _fail("or-right", expected=print_type(goal),
                        found=data_shape(d))
        else:
            raise _fail("mode", expected="propositional positive type",
                        found=print_type(goal))
    except CheckError as f:
        raise CheckError(f.diagnostic.pushed(
            f"right-focus |= {_clip(print_data(d))} : [{print_type(goal)}]"))


# ---------------------------------------------------------------------------
# Left focus: consume a spine

def _check_spine(st: _State, focus: NegType, k: Spine,
                 goal: Optional[NegType]) -> Union[NegType, _Unknown, None]:
    """Consume ``k`` against ``focus`` and check the result against
    ``goal``; with no goal, synthesize the result instead."""
    st = st.focus_zone()
    try:
        c = type(k)
        if c is Nil:
            if goal is None:
                return focus
            if focus is not goal and not alpha_eq(focus, goal):
                raise _fail("axiom", expected=print_type(goal),
                            found=print_type(focus),
                            note="unfinished spine")
        elif c is Cons:
            if not isinstance(focus, Imp):
                raise _fail("imp-left", expected="implication under focus",
                            found=print_type(focus))
            _check_data(st, k.arg, focus.arg)
            return _check_spine(st, focus.res, k.rest, goal)
        elif c is Proj1 or c is Proj2:
            return _check_spine(st, _with_left(focus, k), k.rest, goal)
        elif c is Kappa:
            st = _invert_one(st, k.pat, _kappa(focus))
            if goal is None:
                return _infer_term(st, k.body)
            _check(st, k.body, goal)
        else:
            raise TypeError(k)
    except CheckError as f:
        if goal is None:
            raise
        raise CheckError(f.diagnostic.pushed(
            f"left-focus [{print_type(focus)}] |- spine : {print_type(goal)}"))


# ---------------------------------------------------------------------------
# Synthesis (three-valued: type, UNKNOWN, or failure)

def _infer_term(st: _State, t: Term) -> Union[NegType, _Unknown]:
    c = type(t)
    if c is Lam:
        return UNKNOWN
    elif c is Done:
        st.discharged("done")
        ty = _infer_data(st.focus_zone(), t.data)
        return UNKNOWN if ty is UNKNOWN else Up(ty)
    elif c is Pair:
        tl = _infer_term(st, t.left)
        tr = _infer_term(st, t.right)
        if tl is UNKNOWN or tr is UNKNOWN:
            return UNKNOWN
        return With(tl, tr)
    elif c is App:
        return _check_spine(st, st.head(t.head), t.spine, None)
    elif c is Split or c is BindCut or c is AppCut:
        # The branches of a split must agree on one type.
        n, *others = [_infer_term(st1, u) for st1, u in _reducts(st, t)]
        if any(n is UNKNOWN or m is UNKNOWN or not alpha_eq(n, m)
               for m in others):
            return UNKNOWN
        return n
    raise TypeError(t)


def _infer_data(st: _State, d: DataVal) -> Union[PosType, _Unknown]:
    c = type(d)
    if c is Thunk:
        n = _infer_term(st.focus_zone(), d.body)
        return UNKNOWN if n is UNKNOWN else Down(n)
    elif c is DPair:
        ta = _infer_data(st, d.left)
        tb = _infer_data(st, d.right)
        if ta is UNKNOWN or tb is UNKNOWN:
            return UNKNOWN
        return Prod(ta, tb)
    elif c is Inl or c is Inr:
        _infer_data(st, d.body)   # propagate definite failures
        return UNKNOWN
    raise TypeError(d)


# ---------------------------------------------------------------------------
# Public entry points

def _entered(judgment, sig: Sig, ctx: Ctx, structural: bool, *args) -> None:
    """Run ``judgment`` on ``args`` in the state that entering ``ctx``
    gives."""
    bound: list[Name] = []
    for p, _ in ctx:
        bound += pattern_vars(p) + pattern_labels(p)
    if len(bound) != len(set(bound)):
        raise _fail("linear", expected="pairwise distinct context binders",
                    found=", ".join(map(str, bound)))
    st = _State(sig, structural)
    for p, ty in ctx:
        st = _invert_one(st, p, ty)
    judgment(st, *args)


def check_term(sig: Sig, ctx: Ctx, t: Term, goal: NegType,
               structural: bool = False) -> Optional[Diagnostic]:
    """Check ``t`` against ``goal`` under ``ctx``.  None means ok."""
    return _verdict(_entered, _check, sig, ctx, structural, t, goal)


def check_data(sig: Sig, d: DataVal, goal: PosType,
               structural: bool = False) -> Optional[Diagnostic]:
    return _verdict(_check_data, _State(sig, structural), d, goal)


def check_spine(sig: Sig, focus: NegType, k: Spine, goal: NegType,
                structural: bool = False) -> Optional[Diagnostic]:
    return _verdict(_check_spine, _State(sig, structural), focus, k, goal)


def infer_term(sig: Sig, t: Term, structural: bool = False):
    """Synthesize a type for a closed term: a NegType, UNKNOWN, or a raised
    CheckError for definite failures."""
    return _infer_term(_State(sig, structural), t)
