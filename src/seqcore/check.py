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
an injection's missing side) the cut is checked against the shape of its own
reduct: binding cuts decompose pattern against data, application cuts consume
the spine structurally.  This keeps every reduction step re-checkable at the
same goal.  Where a sub-derivation is discarded along the way (a dropped
injection side, a projected-away pair component) the discarded part is still
required to be well-typed whenever its type can be decided.
"""

from __future__ import annotations

from typing import Optional, Union

from .core_text import print_pattern, print_term, print_type
from .diag import CheckError, Diagnostic
from .record import record
from .syntax import (
    App, AppCut, BindCut, Cons, Ctx, DataVal, Done, Down, DPair, Imp, Inl,
    Inr, Kappa, Lam, Name, NegType, Nil, Or, Pair, Pattern, PAt, POr, PosType,
    PPair, Prod, Proj1, Proj2, PWild, Sig, Spine, Split, SubstClash, Term,
    Thunk, Up, Var, With, alpha_eq, data_shape, free_names, pattern_labels,
    pattern_vars, select_branch, spine_concat, subst_data_in_term,
)

__all__ = ["Judgment", "check_term", "check_data", "check_spine",
           "infer_term", "infer_data", "UNKNOWN"]


@record
class Judgment:
    """One of the three judgment forms: inversion (a term against a negative
    goal under a context), right focus (data against a positive type), left
    focus (a spine consuming a focused negative).  Used to frame
    diagnostics."""

    kind: str                       # "inversion" | "right-focus" | "left-focus"
    sig: Sig
    subject: object                 # Term | DataVal | Spine
    goal: object                    # NegType | PosType
    ctx: tuple = ()                 # inversion only
    focus: Optional[NegType] = None  # left focus only

    def frame(self) -> str:
        from .core_text import print_data
        if self.kind == "left-focus":
            return (f"left-focus [{print_type(self.focus)}] |- spine"
                    f" : {print_type(self.goal)}")
        if self.kind == "right-focus":
            return (f"right-focus |= {_clip(print_data(self.subject))}"
                    f" : [{print_type(self.goal)}]")
        return f"check {_clip(print_term(self.subject))} : {print_type(self.goal)}"


def _clip(s: str, n: int = 60) -> str:
    return s if len(s) <= n else s[:n - 3] + "..."


class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Unknown:
    """Synthesis came back undecided (not a failure)."""

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


@record
class _State:
    """Checker zones: local stores over the signature, deferred or-pattern
    hypotheses, and undischargeable residual variables."""

    sig: Sig
    structural: bool
    psi: tuple[tuple[Name, NegType], ...] = ()
    pending: tuple[tuple[POr, Or], ...] = ()
    residual: tuple[Name, ...] = ()

    def store(self, x: Name, n: NegType) -> "_State":
        return _State(self.sig, self.structural, self.psi + ((x, n),),
                      self.pending, self.residual)

    def defer(self, p: POr, ty: Or) -> "_State":
        return _State(self.sig, self.structural, self.psi,
                      self.pending + ((p, ty),), self.residual)

    def leave(self, x: Name) -> "_State":
        return _State(self.sig, self.structural, self.psi, self.pending,
                      self.residual + (x,))

    def drop_pending(self, i: int) -> "_State":
        rest = self.pending[:i] + self.pending[i + 1:]
        return _State(self.sig, self.structural, self.psi, rest, self.residual)

    def focus_zone(self) -> "_State":
        """The zone data and spines are judged in: no linear hypotheses."""
        if not self.pending and not self.residual:
            return self
        return _State(self.sig, self.structural, self.psi, (), ())

    def lookup(self, x: Name) -> Optional[NegType]:
        for y, n in reversed(self.psi):
            if y == x:
                return n
        entry = self.sig.lookup(x)
        return entry.type if entry else None

    def gamma_discharged(self) -> bool:
        return not self.pending and not self.residual


def _fail(rule: str, expected: str = "", found: str = "", note: str = "") -> "_Fail":
    return _Fail(Diagnostic(rule, expected=expected, found=found, note=note))


# ---------------------------------------------------------------------------
# Context inversion

def _invert(st: _State, entries: list[tuple[Pattern, PosType]]) -> _State:
    for p, ty in entries:
        st = _invert_one(st, p, ty)
    return st


def _invert_one(st: _State, p: Pattern, ty: PosType) -> _State:
    match p:
        case Var(x):
            if isinstance(ty, Down):
                return st.store(x, ty.body)
            # No rule consumes a variable at a composite positive type; the
            # hypothesis can never be discharged.
            return st.leave(x)
        case PPair(a, b):
            if not isinstance(ty, Prod):
                raise _fail("prod-left", expected="positive product",
                            found=print_type(ty),
                            note=f"pair pattern {print_pattern(p)}")
            return _invert_one(_invert_one(st, a, ty.left), b, ty.right)
        case POr(w, _, _):
            if not isinstance(ty, Or):
                raise _fail("or-left", expected="sum type",
                            found=print_type(ty),
                            note=f"or-pattern labeled {w}")
            if any(q.label == w for q, _ in st.pending):
                raise _fail("or-left", expected="unique split label",
                            found=str(w), note="label already bound")
            return st.defer(p, ty)
        case PAt(a, b):
            if not st.structural:
                raise _fail("structural-disabled",
                            expected="structural-patterns flag",
                            found="contraction pattern p @ q")
            return _invert_one(_invert_one(st, a, ty), b, ty)
        case PWild():
            if not st.structural:
                raise _fail("structural-disabled",
                            expected="structural-patterns flag",
                            found="wildcard pattern _")
            return st
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Inversion: check a term against a negative goal

def _check(st: _State, t: Term, goal: NegType) -> None:
    try:
        _check_subject(st, t, goal)
    except _Fail as f:
        raise _Fail(f.diagnostic.pushed(
            Judgment("inversion", st.sig, t, goal,
                     ctx=st.pending).frame()))


def _check_subject(st: _State, t: Term, goal: NegType) -> None:
    match t:
        case Split(w, tl, tr):
            for i, (p, ty) in enumerate(st.pending):
                if p.label == w:
                    base = st.drop_pending(i)
                    _check(_invert_one(base, p.left, ty.left), tl, goal)
                    _check(_invert_one(base, p.right, ty.right), tr, goal)
                    return
            raise _fail("or-left", expected="pending or-hypothesis",
                        found=str(w), note="split label not at hand")
        case Lam(p, b):
            if not isinstance(goal, Imp):
                raise _fail("lambda", expected="implication goal",
                            found=print_type(goal))
            _check(_invert_one(st, p, goal.arg), b, goal.res)
        case Pair(l, r):
            if not isinstance(goal, With):
                raise _fail("with-right", expected="conjunction goal",
                            found=print_type(goal))
            _check(st, l, goal.left)
            _check(st, r, goal.right)
        case Done(d):
            if not st.gamma_discharged():
                raise _fail("done", expected="empty inversion context",
                            found=_gamma_shape(st))
            if not isinstance(goal, Up):
                raise _fail("done", expected="shifted positive goal",
                            found=print_type(goal))
            _check_data(st, d, goal.body)
        case App(x, k):
            if not st.gamma_discharged():
                raise _fail("var-app", expected="empty inversion context",
                            found=_gamma_shape(st))
            n = st.lookup(x)
            if n is None:
                raise _fail("unbound", expected="declared variable", found=str(x))
            _check_spine(st, n, k, goal)
        case BindCut(p, d, b):
            _check_bind_cut(st, p, d, b, goal)
        case AppCut(f, k):
            _check_app_cut(st, f, k, goal)
        case _:
            raise TypeError(t)


def _gamma_shape(st: _State) -> str:
    parts = [f"[{print_pattern(p)}] : {print_type(ty)}" for p, ty in st.pending]
    parts += [f"{x} : <positive>" for x in st.residual]
    return "{" + ", ".join(parts) + "}"


def _check_bind_cut(st: _State, p: Pattern, d: DataVal, b: Term,
                    goal: NegType) -> None:
    ty = _infer_data(st.focus_zone(), d)
    if ty is not UNKNOWN:
        _check(_invert_one(st, p, ty), b, goal)
        return
    match p, d:
        case PWild(), _:
            if not st.structural:
                raise _fail("structural-disabled",
                            expected="structural-patterns flag",
                            found="wildcard pattern _")
            _check(st, b, goal)
        case PAt(p1, p2), _:
            if not st.structural:
                raise _fail("structural-disabled",
                            expected="structural-patterns flag",
                            found="contraction pattern p @ q")
            _check(st, BindCut(p1, d, BindCut(p2, d, b)), goal)
        case PPair(p1, p2), DPair(d1, d2):
            _check(st, BindCut(p1, d1, BindCut(p2, d2, b)), goal)
        case PPair(_, _), _:
            raise _fail("bind-cut", expected="pair data",
                        found=data_shape(d))
        case POr(w, p1, _), Inl(e):
            _check(st, BindCut(p1, e, select_branch(w, "left", b)), goal)
        case POr(w, _, p2), Inr(e):
            _check(st, BindCut(p2, e, select_branch(w, "right", b)), goal)
        case POr(_, _, _), _:
            raise _fail("bind-cut", expected="injection data",
                        found=data_shape(d))
        case Var(x), Thunk(u):
            if x in free_names(b):
                try:
                    body = subst_data_in_term(b, x, Thunk(u))
                except SubstClash as e:
                    raise _fail("bind-cut", expected="well-sorted variable use",
                                found=str(x), note=e.reason)
                _check(st, body, goal)
            else:
                _check(st, b, goal)
        case Var(x), _:
            # Pair or injection data bound to a bare variable: the hypothesis
            # is positive-composite and can never be discharged.
            _check(st.leave(x), b, goal)
        case _:
            raise TypeError(p)


def _check_app_cut(st: _State, f: Term, k: Spine, goal: NegType) -> None:
    if isinstance(k, Nil):
        _check(st, f, goal)
        return
    match f:
        case App(x, k1):
            _check(st, App(x, spine_concat(k1, k)), goal)
        case AppCut(g, k1):
            _check(st, AppCut(g, spine_concat(k1, k)), goal)
        case BindCut(p, d, b):
            _check(st, BindCut(p, d, AppCut(b, k)), goal)
        case Lam(p, b):
            if not isinstance(k, Cons):
                raise _fail("app-cut", expected="argument spine for a function",
                            found=_spine_shape(k))
            _check(st, BindCut(p, k.arg, AppCut(b, k.rest)), goal)
        case Done(d):
            if not st.gamma_discharged():
                raise _fail("done", expected="empty inversion context",
                            found=_gamma_shape(st))
            if not isinstance(k, Kappa):
                raise _fail("app-cut", expected="kappa spine for returned data",
                            found=_spine_shape(k))
            _check(st, BindCut(k.pat, d, k.body), goal)
        case Pair(l, r):
            match k:
                case Proj1(k2):
                    _discard_check(st, r)
                    _check(st, AppCut(l, k2), goal)
                case Proj2(k2):
                    _discard_check(st, l)
                    _check(st, AppCut(r, k2), goal)
                case _:
                    raise _fail("app-cut", expected="projection spine for a pair",
                                found=_spine_shape(k))
        case Split(w, tl, tr):
            for i, (p, ty) in enumerate(st.pending):
                if p.label == w:
                    base = st.drop_pending(i)
                    _check(_invert_one(base, p.left, ty.left), AppCut(tl, k), goal)
                    _check(_invert_one(base, p.right, ty.right), AppCut(tr, k), goal)
                    return
            raise _fail("or-left", expected="pending or-hypothesis",
                        found=str(w), note="split label not at hand")
        case _:
            raise TypeError(f)


def _discard_check(st: _State, t: Term) -> None:
    """A discarded pair component must still be typeable; reject definite
    failures, accept when synthesis cannot decide."""
    _infer_term(st, t)


def _spine_shape(k: Spine) -> str:
    return {Nil: "[]", Cons: "argument", Proj1: ".1", Proj2: ".2",
            Kappa: "kappa"}[type(k)]


# ---------------------------------------------------------------------------
# Right focus: check data against a positive type

def _check_data(st: _State, d: DataVal, goal: PosType) -> None:
    st = st.focus_zone()
    try:
        # Mismatches are named after the rule the goal demands.
        match goal, d:
            case Down(n), Thunk(t):
                _check(st, t, n)
            case Down(_), _:
                raise _fail("thunk", expected=print_type(goal),
                            found=data_shape(d))
            case Prod(l, r), DPair(a, b):
                _check_data(st, a, l)
                _check_data(st, b, r)
            case Prod(_, _), _:
                raise _fail("prod-right", expected=print_type(goal),
                            found=data_shape(d))
            case Or(l, _), Inl(e):
                _check_data(st, e, l)
            case Or(_, r), Inr(e):
                _check_data(st, e, r)
            case Or(_, _), _:
                raise _fail("or-right", expected=print_type(goal),
                            found=data_shape(d))
            case _:
                raise _fail("mode", expected="propositional positive type",
                            found=print_type(goal))
    except _Fail as f:
        raise _Fail(f.diagnostic.pushed(
            Judgment("right-focus", st.sig, d, goal).frame()))


# ---------------------------------------------------------------------------
# Left focus: consume a spine

def _check_spine(st: _State, focus: NegType, k: Spine, goal: NegType) -> None:
    st = st.focus_zone()
    try:
        match k:
            case Nil():
                if not alpha_eq(focus, goal):
                    raise _fail("axiom", expected=print_type(goal),
                                found=print_type(focus),
                                note="unfinished spine")
            case Cons(d, rest):
                if not isinstance(focus, Imp):
                    raise _fail("imp-left", expected="implication under focus",
                                found=print_type(focus))
                _check_data(st, d, focus.arg)
                _check_spine(st, focus.res, rest, goal)
            case Proj1(rest):
                if not isinstance(focus, With):
                    raise _fail("with-left-1", expected="conjunction under focus",
                                found=print_type(focus))
                _check_spine(st, focus.left, rest, goal)
            case Proj2(rest):
                if not isinstance(focus, With):
                    raise _fail("with-left-2", expected="conjunction under focus",
                                found=print_type(focus))
                _check_spine(st, focus.right, rest, goal)
            case Kappa(p, t):
                if not isinstance(focus, Up):
                    raise _fail("kappa", expected="shifted positive under focus",
                                found=print_type(focus))
                _check(_invert_one(st, p, focus.body), t, goal)
            case _:
                raise TypeError(k)
    except _Fail as f:
        raise _Fail(f.diagnostic.pushed(
            Judgment("left-focus", st.sig, k, goal, focus=focus).frame()))


# ---------------------------------------------------------------------------
# Synthesis (three-valued: type, UNKNOWN, or failure)

def _infer_term(st: _State, t: Term) -> Union[NegType, _Unknown]:
    match t:
        case Lam(_, _):
            return UNKNOWN
        case Done(d):
            if not st.gamma_discharged():
                raise _fail("done", expected="empty inversion context",
                            found=_gamma_shape(st))
            ty = _infer_data(st.focus_zone(), d)
            return UNKNOWN if ty is UNKNOWN else Up(ty)
        case Pair(l, r):
            tl = _infer_term(st, l)
            tr = _infer_term(st, r)
            if tl is UNKNOWN or tr is UNKNOWN:
                return UNKNOWN
            return With(tl, tr)
        case App(x, k):
            if not st.gamma_discharged():
                raise _fail("var-app", expected="empty inversion context",
                            found=_gamma_shape(st))
            n = st.lookup(x)
            if n is None:
                raise _fail("unbound", expected="declared variable", found=str(x))
            return _infer_spine(st, n, k)
        case Split(w, tl, tr):
            for i, (p, ty) in enumerate(st.pending):
                if p.label == w:
                    base = st.drop_pending(i)
                    nl = _infer_term(_invert_one(base, p.left, ty.left), tl)
                    nr = _infer_term(_invert_one(base, p.right, ty.right), tr)
                    if nl is UNKNOWN or nr is UNKNOWN or not alpha_eq(nl, nr):
                        return UNKNOWN
                    return nl
            raise _fail("or-left", expected="pending or-hypothesis",
                        found=str(w), note="split label not at hand")
        case BindCut(p, d, b):
            ty = _infer_data(st.focus_zone(), d)
            if ty is not UNKNOWN:
                return _infer_term(_invert_one(st, p, ty), b)
            match p, d:
                case PWild(), _:
                    if not st.structural:
                        raise _fail("structural-disabled",
                                    expected="structural-patterns flag",
                                    found="wildcard pattern _")
                    return _infer_term(st, b)
                case PAt(p1, p2), _:
                    if not st.structural:
                        raise _fail("structural-disabled",
                                    expected="structural-patterns flag",
                                    found="contraction pattern p @ q")
                    return _infer_term(st, BindCut(p1, d, BindCut(p2, d, b)))
                case PPair(p1, p2), DPair(d1, d2):
                    return _infer_term(st, BindCut(p1, d1, BindCut(p2, d2, b)))
                case PPair(_, _), _:
                    raise _fail("bind-cut", expected="pair data",
                                found=data_shape(d))
                case POr(w, p1, _), Inl(e):
                    return _infer_term(st, BindCut(p1, e, select_branch(w, "left", b)))
                case POr(w, _, p2), Inr(e):
                    return _infer_term(st, BindCut(p2, e, select_branch(w, "right", b)))
                case POr(_, _, _), _:
                    raise _fail("bind-cut", expected="injection data",
                                found=data_shape(d))
                case Var(x), Thunk(u):
                    if x in free_names(b):
                        try:
                            body = subst_data_in_term(b, x, Thunk(u))
                        except SubstClash as e:
                            raise _fail("bind-cut",
                                        expected="well-sorted variable use",
                                        found=str(x), note=e.reason)
                        return _infer_term(st, body)
                    return _infer_term(st, b)
                case Var(x), _:
                    return _infer_term(st.leave(x), b)
            raise TypeError(p)
        case AppCut(f, k):
            if isinstance(k, Nil):
                return _infer_term(st, f)
            match f:
                case App(x, k1):
                    return _infer_term(st, App(x, spine_concat(k1, k)))
                case AppCut(g, k1):
                    return _infer_term(st, AppCut(g, spine_concat(k1, k)))
                case BindCut(p, d, b):
                    return _infer_term(st, BindCut(p, d, AppCut(b, k)))
                case Lam(p, b):
                    if not isinstance(k, Cons):
                        raise _fail("app-cut",
                                    expected="argument spine for a function",
                                    found=_spine_shape(k))
                    return _infer_term(st, BindCut(p, k.arg, AppCut(b, k.rest)))
                case Done(d):
                    if not st.gamma_discharged():
                        raise _fail("done", expected="empty inversion context",
                                    found=_gamma_shape(st))
                    if not isinstance(k, Kappa):
                        raise _fail("app-cut",
                                    expected="kappa spine for returned data",
                                    found=_spine_shape(k))
                    return _infer_term(st, BindCut(k.pat, d, k.body))
                case Pair(l, r):
                    match k:
                        case Proj1(k2):
                            _discard_check(st, r)
                            return _infer_term(st, AppCut(l, k2))
                        case Proj2(k2):
                            _discard_check(st, l)
                            return _infer_term(st, AppCut(r, k2))
                        case _:
                            raise _fail("app-cut",
                                        expected="projection spine for a pair",
                                        found=_spine_shape(k))
                case Split(w, tl, tr):
                    for i, (p, ty) in enumerate(st.pending):
                        if p.label == w:
                            base = st.drop_pending(i)
                            nl = _infer_term(_invert_one(base, p.left, ty.left),
                                             AppCut(tl, k))
                            nr = _infer_term(_invert_one(base, p.right, ty.right),
                                             AppCut(tr, k))
                            if nl is UNKNOWN or nr is UNKNOWN or not alpha_eq(nl, nr):
                                return UNKNOWN
                            return nl
                    raise _fail("or-left", expected="pending or-hypothesis",
                                found=str(w), note="split label not at hand")
            raise TypeError(f)
    raise TypeError(t)


def _infer_spine(st: _State, focus: NegType, k: Spine) -> Union[NegType, _Unknown]:
    match k:
        case Nil():
            return focus
        case Cons(d, rest):
            if not isinstance(focus, Imp):
                raise _fail("imp-left", expected="implication under focus",
                            found=print_type(focus))
            _check_data(st, d, focus.arg)
            return _infer_spine(st, focus.res, rest)
        case Proj1(rest):
            if not isinstance(focus, With):
                raise _fail("with-left-1", expected="conjunction under focus",
                            found=print_type(focus))
            return _infer_spine(st, focus.left, rest)
        case Proj2(rest):
            if not isinstance(focus, With):
                raise _fail("with-left-2", expected="conjunction under focus",
                            found=print_type(focus))
            return _infer_spine(st, focus.right, rest)
        case Kappa(p, t):
            if not isinstance(focus, Up):
                raise _fail("kappa", expected="shifted positive under focus",
                            found=print_type(focus))
            return _infer_term(_invert_one(st.focus_zone(), p, focus.body), t)
    raise TypeError(k)


def _infer_data(st: _State, d: DataVal) -> Union[PosType, _Unknown]:
    match d:
        case Thunk(t):
            n = _infer_term(st.focus_zone(), t)
            return UNKNOWN if n is UNKNOWN else Down(n)
        case DPair(a, b):
            ta = _infer_data(st, a)
            tb = _infer_data(st, b)
            if ta is UNKNOWN or tb is UNKNOWN:
                return UNKNOWN
            return Prod(ta, tb)
        case Inl(e) | Inr(e):
            _infer_data(st, e)   # propagate definite failures
            return UNKNOWN
    raise TypeError(d)


# ---------------------------------------------------------------------------
# Public entry points

def _entry_state(sig: Sig, ctx: Ctx, structural: bool) -> _State:
    bound: list[Name] = []
    for p, _ in ctx:
        bound += pattern_vars(p) + pattern_labels(p)
    if len(bound) != len(set(bound)):
        raise _Fail(Diagnostic("linear", expected="pairwise distinct context binders",
                               found=", ".join(map(str, bound))))
    return _invert(_State(sig, structural), list(ctx))


def check_term(sig: Sig, ctx: Ctx, t: Term, goal: NegType,
               structural: bool = False) -> Optional[Diagnostic]:
    """Check ``t`` against ``goal`` under ``ctx``.  None means ok."""
    try:
        _check(_entry_state(sig, ctx, structural), t, goal)
        return None
    except _Fail as f:
        return f.diagnostic


def check_data(sig: Sig, d: DataVal, goal: PosType,
               structural: bool = False) -> Optional[Diagnostic]:
    try:
        _check_data(_State(sig, structural), d, goal)
        return None
    except _Fail as f:
        return f.diagnostic


def check_spine(sig: Sig, focus: NegType, k: Spine, goal: NegType,
                structural: bool = False) -> Optional[Diagnostic]:
    try:
        _check_spine(_State(sig, structural), focus, k, goal)
        return None
    except _Fail as f:
        return f.diagnostic


def infer_term(sig: Sig, t: Term, structural: bool = False):
    """Synthesize a type for a closed term: a NegType, UNKNOWN, or a raised
    CheckError for definite failures."""
    try:
        return _infer_term(_State(sig, structural), t)
    except _Fail as f:
        raise CheckError(f.diagnostic) from None


def infer_data(sig: Sig, d: DataVal, structural: bool = False):
    try:
        return _infer_data(_State(sig, structural), d)
    except _Fail as f:
        raise CheckError(f.diagnostic) from None
