"""Dependent typechecker: products and sums over data, variables-only binding.

The dependent system replaces implication by ``Pi(x:P). N`` and the positive
product by ``Sigma(x:P). Q``; hypotheses are labeled by bare variables and
deep patterns are not accepted (pattern substitution into types would be a far
heavier operation, so decomposition happens through explicit eliminator
forms).  Two term shapes carry the eliminations:

* ``let (y, z) = x in t`` -- represented as a binding cut whose data is the
  eta-injection of a sigma-typed hypothesis ``x``; it replaces ``x`` by
  ``y : P`` and ``z : Q{y/y0}`` and checks ``t`` with ``(y, z)`` substituted
  for ``x`` in the goal and in later hypotheses;
* ``split x { ... }`` on a sum-typed hypothesis ``x``; each branch re-binds
  ``x`` at the refined type and is checked against the goal with ``inl x``
  (resp. ``inr x``) substituted for the scrutinee.

Type equality is conversion: embedded data is normalized with the evaluator
under a fuel bound, then compared up to alpha.  Cut formulas are recovered by
synthesis exactly as in the propositional checker, falling back to the
reduct's shape where synthesis cannot decide.
"""

from __future__ import annotations

from typing import Optional, Union

from .core_text import print_term, print_type
from .diag import CheckError, Diagnostic
from .record import record
from .reduce import FuelExhausted, normalize
from .syntax import (
    App, AppCut, BindCut, Cons, DataVal, Done, Down, DPair, Inl, Inr, Kappa,
    Lam, Name, NegType, Nil, Or, Pair, Pi, PosType, PPair, Prod, Proj1, Proj2,
    Sig, Sigma, Spine, Split, SubstClash, Term, Thunk, Up, Var, With,
    alpha_eq, eta, free_names, rewrite, spine_concat, subst_data_in_neg,
    subst_data_in_pos, subst_data_in_spine, subst_data_in_term,
)

__all__ = ["DepCtx", "dep_check_term", "dep_check_spine", "dep_bind_cut",
           "convert", "ConversionError"]

DepCtx = list  # list[tuple[Name, PosType]]; a telescope


class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


def _fail(rule: str, expected: str = "", found: str = "", note: str = "") -> _Fail:
    return _Fail(Diagnostic(rule, expected=expected, found=found, note=note))


class _Unknown:
    def __repr__(self) -> str:
        return "UNKNOWN"


_UNKNOWN = _Unknown()


@record
class _State:
    sig: Sig
    fuel: int
    stores: tuple[tuple[Name, NegType], ...] = ()
    pending: tuple[tuple[Name, PosType], ...] = ()

    def lookup(self, x: Name) -> Optional[NegType]:
        for y, n in reversed(self.stores):
            if y == x:
                return n
        entry = self.sig.lookup(x)
        return entry.type if entry else None

    def pending_index(self, x: Name) -> Optional[int]:
        for i in range(len(self.pending) - 1, -1, -1):
            if self.pending[i][0] == x:
                return i
        return None

    def focus_zone(self) -> "_State":
        if not self.pending:
            return self
        return _State(self.sig, self.fuel, self.stores, ())

    def extend(self, x: Name, ty: PosType) -> "_State":
        match ty:
            case Down(n):
                return _State(self.sig, self.fuel, self.stores + ((x, n),),
                              self.pending)
            case Or(_, _) | Sigma(_, _, _):
                return _State(self.sig, self.fuel, self.stores,
                              self.pending + ((x, ty),))
            case Prod(_, _):
                raise _fail("mode", expected="Sigma in dependent mode",
                            found=print_type(ty))
        raise TypeError(ty)

    def subst(self, x: Name, d: DataVal) -> "_State":
        """Substitute into every hypothesis type (earlier ones never mention
        x, so this is the telescope-suffix substitution)."""
        return _State(
            self.sig, self.fuel,
            tuple((y, subst_data_in_neg(n, x, d)) for y, n in self.stores),
            tuple((y, subst_data_in_pos(p, x, d)) for y, p in self.pending))

    def drop_pending(self, i: int) -> "_State":
        return _State(self.sig, self.fuel, self.stores,
                      self.pending[:i] + self.pending[i + 1:])


# ---------------------------------------------------------------------------
# Conversion

class ConversionError(CheckError):
    pass


def _normalize(sig: Sig, x, budget: list[int]):
    """``x`` with the term in each thunk of its data normalized."""
    def visit(y):
        if isinstance(y, Thunk):
            res = normalize(sig, y.body, budget[0])
            budget[0] -= res.steps
            return Thunk(res.term)
        return None

    return rewrite(x, visit)


def convert(a, b, sig: Optional[Sig] = None, fuel: int = 10000) -> bool:
    """Definitional equality: normalize embedded data, compare up to alpha.
    Raises ConversionError when the fuel bound is exhausted."""
    if alpha_eq(a, b):
        return True
    sig = sig or Sig()
    budget = [fuel]
    try:
        na = _normalize(sig, a, budget)
        nb = _normalize(sig, b, budget)
    except FuelExhausted:
        raise ConversionError(Diagnostic(
            "conversion-fuel", expected=f"normalization within {fuel} steps",
            found="fuel exhausted"))
    return alpha_eq(na, nb)


# ---------------------------------------------------------------------------
# Inversion

def _check(st: _State, t: Term, goal: NegType) -> None:
    try:
        _check_subject(st, t, goal)
    except _Fail as f:
        raise _Fail(f.diagnostic.pushed(
            f"dep-check {print_term(t)} : {print_type(goal)}"))


def _is_sigma_let(st: _State, t: Term) -> Optional[tuple[Name, Name, Name, Sigma, Term]]:
    match t:
        case BindCut(PPair(Var(y), Var(z)), Thunk(App(x, Nil())), body):
            i = st.pending_index(x)
            if i is not None and isinstance(st.pending[i][1], Sigma):
                return y, z, x, st.pending[i][1], body
    return None


def _check_subject(st: _State, t: Term, goal: NegType) -> None:
    sigma_let = _is_sigma_let(st, t)
    if sigma_let is not None:
        y, z, x, ty, body = sigma_let
        i = st.pending_index(x)
        base = st.drop_pending(i).subst(x, DPair(eta(y), eta(z)))
        goal2 = subst_data_in_neg(goal, x, DPair(eta(y), eta(z)))
        base = base.extend(y, ty.first)
        base = base.extend(z, subst_data_in_pos(ty.second, ty.binder, eta(y)))
        _check(base, body, goal2)
        return
    match t:
        case Split(x, tl, tr):
            i = st.pending_index(x)
            if i is None or not isinstance(st.pending[i][1], Or):
                raise _fail("or-left", expected="sum-typed hypothesis",
                            found=str(x), note="split variable not at hand")
            ty = st.pending[i][1]
            base = st.drop_pending(i)
            stL = base.subst(x, Inl(eta(x))).extend(x, ty.left)
            _check(stL, tl, subst_data_in_neg(goal, x, Inl(eta(x))))
            stR = base.subst(x, Inr(eta(x))).extend(x, ty.right)
            _check(stR, tr, subst_data_in_neg(goal, x, Inr(eta(x))))
        case Lam(p, b):
            if not isinstance(p, Var):
                raise _fail("dep-pattern", expected="variable binder",
                            found="deep pattern",
                            note="dependent mode binds variables only")
            if not isinstance(goal, Pi):
                raise _fail("lambda", expected="dependent product goal",
                            found=print_type(goal))
            body_goal = subst_data_in_neg(goal.res, goal.binder, eta(p.name))
            _check(st.extend(p.name, goal.arg), b, body_goal)
        case Pair(l, r):
            if not isinstance(goal, With):
                raise _fail("with-right", expected="conjunction goal",
                            found=print_type(goal))
            _check(st, l, goal.left)
            _check(st, r, goal.right)
        case Done(d):
            if st.pending:
                raise _fail("done", expected="empty inversion context",
                            found=", ".join(str(x) for x, _ in st.pending))
            if not isinstance(goal, Up):
                raise _fail("done", expected="shifted positive goal",
                            found=print_type(goal))
            _check_data(st, d, goal.body)
        case App(x, k):
            if st.pending:
                raise _fail("var-app", expected="empty inversion context",
                            found=", ".join(str(y) for y, _ in st.pending))
            n = st.lookup(x)
            if n is None:
                raise _fail("unbound", expected="declared variable", found=str(x))
            _check_spine(st, n, k, goal)
        case BindCut(Var(x), d, b):
            _check_var_cut(st, x, d, b, goal)
        case BindCut(PPair(Var(_), Var(_)), DPair(d1, d2), b):
            # Reduct of a sigma-let whose scrutinee got instantiated; accept
            # by decomposing, mirroring the reduction rule.
            p = t.pat
            _check(st, BindCut(p.left, d1, BindCut(p.right, d2, b)), goal)
        case BindCut(_, _, _):
            raise _fail("dep-pattern", expected="variable binder",
                        found="deep pattern in cut",
                        note="dependent mode binds variables only")
        case AppCut(f, k):
            _check_app_cut(st, f, k, goal)
        case _:
            raise TypeError(t)


def _check_var_cut(st: _State, x: Name, d: DataVal, b: Term,
                   goal: NegType) -> None:
    ty = _infer_data(st.focus_zone(), d)
    if ty is not _UNKNOWN:
        _check(st.extend(x, ty), b, goal)
        return
    if x in free_names(b):
        try:
            body = subst_data_in_term(b, x, d)
        except SubstClash as e:
            raise _fail("bind-cut", expected="well-sorted variable use",
                        found=str(x), note=e.reason)
        _check(st, body, goal)
    else:
        _check(st, b, goal)


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
        case Lam(Var(x), b):
            if not isinstance(k, Cons):
                raise _fail("app-cut", expected="argument spine for a function",
                            found=type(k).__name__)
            _check(st, BindCut(Var(x), k.arg, AppCut(b, k.rest)), goal)
        case Done(d):
            if st.pending:
                raise _fail("done", expected="empty inversion context",
                            found=", ".join(str(y) for y, _ in st.pending))
            if not isinstance(k, Kappa) or not isinstance(k.pat, Var):
                raise _fail("app-cut", expected="kappa x spine for returned data",
                            found=type(k).__name__)
            _check(st, BindCut(k.pat, d, k.body), goal)
        case Pair(l, r):
            match k:
                case Proj1(k2):
                    _infer_term(st, r)
                    _check(st, AppCut(l, k2), goal)
                case Proj2(k2):
                    _infer_term(st, l)
                    _check(st, AppCut(r, k2), goal)
                case _:
                    raise _fail("app-cut", expected="projection spine for a pair",
                                found=type(k).__name__)
        case Split(x, tl, tr):
            i = st.pending_index(x)
            if i is None or not isinstance(st.pending[i][1], Or):
                raise _fail("or-left", expected="sum-typed hypothesis",
                            found=str(x), note="split variable not at hand")
            ty = st.pending[i][1]
            base = st.drop_pending(i)
            kL = subst_data_in_spine(k, x, Inl(eta(x)))
            stL = base.subst(x, Inl(eta(x))).extend(x, ty.left)
            _check(stL, AppCut(tl, kL), subst_data_in_neg(goal, x, Inl(eta(x))))
            kR = subst_data_in_spine(k, x, Inr(eta(x)))
            stR = base.subst(x, Inr(eta(x))).extend(x, ty.right)
            _check(stR, AppCut(tr, kR), subst_data_in_neg(goal, x, Inr(eta(x))))
        case _:
            raise _fail("app-cut", expected="applicable term under cut",
                        found=print_term(f))


# ---------------------------------------------------------------------------
# Right focus

def _check_data(st: _State, d: DataVal, goal: PosType) -> None:
    st = st.focus_zone()
    match d, goal:
        case Thunk(t), Down(n):
            _check(st, t, n)
        case Thunk(_), _:
            raise _fail("thunk", expected=print_type(goal), found="thunk")
        case DPair(a, b), Sigma(x, p, q):
            _check_data(st, a, p)
            _check_data(st, b, subst_data_in_pos(q, x, a))
        case DPair(_, _), _:
            raise _fail("prod-right", expected=print_type(goal), found="pair")
        case Inl(e), Or(l, _):
            _check_data(st, e, l)
        case Inr(e), Or(_, r):
            _check_data(st, e, r)
        case (Inl(_), _) | (Inr(_), _):
            raise _fail("or-right", expected=print_type(goal),
                        found=type(d).__name__.lower())
        case _:
            raise TypeError(d)


# ---------------------------------------------------------------------------
# Left focus

def _check_spine(st: _State, focus: NegType, k: Spine, goal: NegType) -> None:
    st = st.focus_zone()
    match k:
        case Nil():
            if not convert(focus, goal, st.sig, st.fuel):
                raise _fail("axiom", expected=print_type(goal),
                            found=print_type(focus),
                            note="types are not convertible")
        case Cons(d, rest):
            if not isinstance(focus, Pi):
                raise _fail("imp-left", expected="dependent product under focus",
                            found=print_type(focus))
            _check_data(st, d, focus.arg)
            _check_spine(st, subst_data_in_neg(focus.res, focus.binder, d),
                         rest, goal)
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
            if not isinstance(p, Var):
                raise _fail("dep-pattern", expected="variable binder",
                            found="deep pattern",
                            note="dependent mode binds variables only")
            if not isinstance(focus, Up):
                raise _fail("kappa", expected="shifted positive under focus",
                            found=print_type(focus))
            _check(st.extend(p.name, focus.body), t, goal)
        case _:
            raise TypeError(k)


# ---------------------------------------------------------------------------
# Synthesis

def _infer_term(st: _State, t: Term) -> Union[NegType, _Unknown]:
    sigma_let = _is_sigma_let(st, t)
    if sigma_let is not None:
        return _UNKNOWN
    match t:
        case Lam(_, _) | Split(_, _, _):
            return _UNKNOWN
        case Done(d):
            if st.pending:
                raise _fail("done", expected="empty inversion context",
                            found=", ".join(str(x) for x, _ in st.pending))
            ty = _infer_data(st.focus_zone(), d)
            return _UNKNOWN if ty is _UNKNOWN else Up(ty)
        case Pair(l, r):
            tl = _infer_term(st, l)
            tr = _infer_term(st, r)
            if tl is _UNKNOWN or tr is _UNKNOWN:
                return _UNKNOWN
            return With(tl, tr)
        case App(x, k):
            if st.pending:
                raise _fail("var-app", expected="empty inversion context",
                            found=", ".join(str(y) for y, _ in st.pending))
            n = st.lookup(x)
            if n is None:
                raise _fail("unbound", expected="declared variable", found=str(x))
            return _infer_spine(st, n, k)
        case BindCut(Var(x), d, b):
            ty = _infer_data(st.focus_zone(), d)
            if ty is not _UNKNOWN:
                return _infer_term(st.extend(x, ty), b)
            if x in free_names(b):
                try:
                    return _infer_term(st, subst_data_in_term(b, x, d))
                except SubstClash as e:
                    raise _fail("bind-cut", expected="well-sorted variable use",
                                found=str(x), note=e.reason)
            return _infer_term(st, b)
        case BindCut(_, _, _):
            return _UNKNOWN
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
                case _:
                    return _UNKNOWN
    raise TypeError(t)


def _infer_spine(st: _State, focus: NegType, k: Spine) -> Union[NegType, _Unknown]:
    match k:
        case Nil():
            return focus
        case Cons(d, rest):
            if not isinstance(focus, Pi):
                raise _fail("imp-left", expected="dependent product under focus",
                            found=print_type(focus))
            _check_data(st, d, focus.arg)
            return _infer_spine(st, subst_data_in_neg(focus.res, focus.binder, d),
                                rest)
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
            if not isinstance(p, Var) or not isinstance(focus, Up):
                return _UNKNOWN
            return _infer_term(st.focus_zone().extend(p.name, focus.body), t)
    raise TypeError(k)


def _infer_data(st: _State, d: DataVal) -> Union[PosType, _Unknown]:
    match d:
        case Thunk(App(x, Nil())) if st.pending_index(x) is not None:
            # Eta-injected positive hypothesis: typed by its entry.
            return st.pending[st.pending_index(x)][1]
        case Thunk(t):
            n = _infer_term(st.focus_zone(), t)
            return _UNKNOWN if n is _UNKNOWN else Down(n)
        case DPair(a, b):
            ta = _infer_data(st, a)
            if ta is _UNKNOWN:
                return _UNKNOWN
            tb = _infer_data(st, b)
            if tb is _UNKNOWN:
                return _UNKNOWN
            # No dependency is recoverable from the pair alone.
            x = Name("_", 0)
            return Sigma(x, ta, tb)
        case Inl(e) | Inr(e):
            _infer_data(st, e)
            return _UNKNOWN
    raise TypeError(d)


# ---------------------------------------------------------------------------
# Public entry points

def _entry_state(sig: Sig, ctx: DepCtx, fuel: int) -> _State:
    names = [x for x, _ in ctx]
    if len(names) != len(set(names)):
        raise _Fail(Diagnostic("linear", expected="pairwise distinct hypotheses",
                               found=", ".join(map(str, names))))
    st = _State(sig, fuel)
    for x, ty in ctx:
        st = st.extend(x, ty)
    return st


def dep_check_term(sig: Sig, ctx: DepCtx, t: Term, goal: NegType,
                   fuel: int = 10000) -> Optional[Diagnostic]:
    try:
        _check(_entry_state(sig, ctx, fuel), t, goal)
        return None
    except _Fail as f:
        return f.diagnostic
    except ConversionError as e:
        return e.diagnostic


def dep_check_spine(sig: Sig, ctx: DepCtx, focus: NegType, k: Spine,
                    goal: NegType, fuel: int = 10000) -> Optional[Diagnostic]:
    try:
        _check_spine(_entry_state(sig, ctx, fuel), focus, k, goal)
        return None
    except _Fail as f:
        return f.diagnostic
    except ConversionError as e:
        return e.diagnostic


def dep_bind_cut(sig: Sig, ctx: DepCtx, x: Name, d: DataVal, t: Term,
                 goal: NegType, fuel: int = 10000) -> Optional[Diagnostic]:
    """Check the dependent binding cut ``x = d in t`` against ``goal``."""
    try:
        st = _entry_state(sig, ctx, fuel)
        _check_var_cut(st, x, d, t, goal)
        return None
    except _Fail as f:
        return f.diagnostic
    except ConversionError as e:
        return e.diagnostic
