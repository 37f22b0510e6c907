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
reduct's shape where synthesis cannot decide.  ``_var_cut`` gives the
judgment a binding cut reduces to for checking and synthesis alike, and
``_check_spine`` synthesizes when it has no goal.  The rules that read the
same in both modes (the ``CheckError`` failures with their clash guard and
verdict, zone lookup, head typing, with-right, done, with-left, kappa, the
variable-cut reduct) come from ``check``, the untyped cut rules R4, R5 and
R7 from ``reduce``; this module keeps the rules that differ, its own
``discharged`` text and its trail line, ``dep-check t : N``, which inversion
adds to a failure passing through it.  Running out of conversion fuel is one
more ``CheckError``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .check import (UNKNOWN, _Unknown, _Zones, _clashed, _done, _fail,
                    _kappa, _spine_shape, _var_cut_reduct, _verdict,
                    _with_left, _with_right)
from .core_text import print_term, print_type
from .diag import CheckError, Diagnostic
from .record import record
from .reduce import (DEFAULT_FUEL, FuelExhausted, decomposed, normalize,
                     reassociated)
from .syntax import (
    App, AppCut, BindCut, Clash, Cons, DataVal, Done, Down, DPair, Inl, Inr,
    Kappa, Lam, Name, NegType, Nil, Or, Pair, Pi, PosType, PPair, Prod, Proj1,
    Proj2, Sig, Sigma, Spine, Split, Term, Thunk, Up, Var, With, alpha_eq,
    data_shape, eta, rewrite, subst_data,
)

__all__ = ["DepCtx", "dep_check_term", "dep_check_spine", "dep_bind_cut",
           "convert"]

DepCtx = list  # list[tuple[Name, PosType]]; a telescope


@record
class _State(_Zones):
    sig: Sig
    fuel: int
    stores: tuple[tuple[Name, NegType], ...] = ()
    pending: tuple[tuple[Name, PosType], ...] = ()

    def pending_index(self, x: Name) -> int | None:
        for i in range(len(self.pending) - 1, -1, -1):
            if self.pending[i][0] == x:
                return i
        return None

    def focus_zone(self) -> "_State":
        if not self.pending:
            return self
        return _State(self.sig, self.fuel, self.stores, ())

    def extend(self, x: Name, ty: PosType) -> "_State":
        c = type(ty)
        if c is Down:
            return _State(self.sig, self.fuel, self.stores + ((x, ty.body),),
                          self.pending)
        elif c is Or or c is Sigma:
            return _State(self.sig, self.fuel, self.stores,
                          self.pending + ((x, ty),))
        elif c is Prod:
            raise _fail("mode", expected="Sigma in dependent mode",
                        found=print_type(ty))
        raise TypeError(ty)

    def subst(self, x: Name, d: DataVal) -> "_State":
        """Substitute into every hypothesis type (earlier ones never mention
        x, so this is the telescope-suffix substitution)."""
        return _State(
            self.sig, self.fuel,
            tuple((y, subst_data(n, x, d)) for y, n in self.stores),
            tuple((y, subst_data(p, x, d)) for y, p in self.pending))

    def drop_pending(self, i: int) -> "_State":
        return _State(self.sig, self.fuel, self.stores,
                      self.pending[:i] + self.pending[i + 1:])

    def discharged(self, rule: str) -> None:
        if self.pending:
            raise _fail(rule, expected="empty inversion context",
                        found=", ".join(str(x) for x, _ in self.pending))


# ---------------------------------------------------------------------------
# Conversion

def _normalize(sig: Sig, x, budget: list[int]):
    """``x`` with the term in each thunk of its data normalized."""
    def visit(y):
        if isinstance(y, Thunk):
            res = normalize(sig, y.body, budget[0])
            budget[0] -= res.steps
            return Thunk(res.term)
        return None

    return rewrite(x, visit)


def convert(a, b, sig: Sig | None = None, fuel: int = DEFAULT_FUEL) -> bool:
    """Definitional equality: normalize embedded data, compare up to alpha.
    Raises CheckError when the fuel bound is exhausted."""
    if alpha_eq(a, b):
        return True
    sig = sig or Sig()
    budget = [fuel]
    try:
        na = _normalize(sig, a, budget)
        nb = _normalize(sig, b, budget)
    except FuelExhausted:
        raise _fail("conversion-fuel",
                    expected=f"normalization within {fuel} steps",
                    found="fuel exhausted")
    return alpha_eq(na, nb)


# ---------------------------------------------------------------------------
# Inversion

def _check(st: _State, t: Term, goal: NegType) -> None:
    try:
        c = type(t)
        if c is Split:
            for branch in _split(st, t.label, t.left, t.right, None, goal):
                _check(*branch)
        elif c is Lam:
            if not isinstance(t.pat, Var):
                raise _fail("dep-pattern", expected="variable binder",
                            found="deep pattern",
                            note="dependent mode binds variables only")
            if not isinstance(goal, Pi):
                raise _fail("lambda", expected="dependent product goal",
                            found=print_type(goal))
            body_goal = subst_data(goal.res, goal.binder, eta(t.pat.name))
            _check(st.extend(t.pat.name, goal.arg), t.body, body_goal)
        elif c is Pair:
            left, right = _with_right(goal)
            _check(st, t.left, left)
            _check(st, t.right, right)
        elif c is Done:
            _check_data(st, t.data, _done(st, goal))
        elif c is App:
            _check_spine(st, st.head(t.head), t.spine, goal)
        elif (c is BindCut and type(p := t.pat) is PPair
              and type(p.left) is Var and type(p.right) is Var
              and type(d := t.data) is Thunk and type(d.body) is App
              and type(d.body.spine) is Nil
              and (i := st.pending_index(x := d.body.head)) is not None
              and type(ty := st.pending[i][1]) is Sigma):
            # A sigma-let: the pair variables replace the hypothesis x.
            y, z = p.left.name, p.right.name
            try:
                base = st.drop_pending(i).subst(x, DPair(eta(y), eta(z)))
                goal2 = subst_data(goal, x, DPair(eta(y), eta(z)))
            except Clash as e:
                raise _clashed("prod-left",
                               "well-sorted use of the pair variable", x, e)
            base = base.extend(y, ty.first)
            base = base.extend(z, subst_data(ty.second, ty.binder, eta(y)))
            _check(base, t.body, goal2)
        elif c is BindCut and type(t.pat) is Var:
            _check(*_var_cut(st, t.pat.name, t.data, t.body), goal)
        elif (c is BindCut and type(p := t.pat) is PPair and type(p.left) is Var
              and type(p.right) is Var and type(d := t.data) is DPair):
            # Reduct of a sigma-let whose scrutinee got instantiated; accept
            # by decomposing, as the reduction rule R5 does.
            _check(st, decomposed(p, d, t.body), goal)
        elif c is BindCut:
            raise _fail("dep-pattern", expected="variable binder",
                        found="deep pattern in cut",
                        note="dependent mode binds variables only")
        elif c is AppCut:
            _check_app_cut(st, t.fun, t.spine, goal)
        else:
            raise TypeError(t)
    except CheckError as f:
        raise CheckError(f.diagnostic.pushed(
            f"dep-check {print_term(t)} : {print_type(goal)}"))


def _var_cut(st: _State, x: Name, d: DataVal, b: Term) -> tuple[_State, Term]:
    """The judgment the binding cut ``x = d in b`` reduces to: ``b`` with
    ``x`` bound at the type of ``d`` when that synthesizes, else ``b`` with
    ``d`` substituted for ``x``."""
    ty = _infer_data(st.focus_zone(), d)
    if ty is not UNKNOWN:
        return st.extend(x, ty), b
    return st, _var_cut_reduct(x, d, b)


def _check_app_cut(st: _State, f: Term, k: Spine, goal: NegType) -> None:
    u = reassociated(f, k)
    if u is not None:
        _check(st, u, goal)
        return
    c = type(f)
    if c is Lam and type(f.pat) is Var:
        if not isinstance(k, Cons):
            raise _fail("app-cut", expected="argument spine for a function",
                        found=_spine_shape(k))
        _check(st, BindCut(f.pat, k.arg, AppCut(f.body, k.rest)), goal)
    elif c is Done:
        st.discharged("done")
        if not isinstance(k, Kappa) or not isinstance(k.pat, Var):
            raise _fail("app-cut", expected="kappa x spine for returned data",
                        found=_spine_shape(k))
        _check(st, BindCut(k.pat, f.data, k.body), goal)
    elif c is Pair:
        ck = type(k)
        if ck is Proj1:
            _infer_term(st, f.right)
            _check(st, AppCut(f.left, k.rest), goal)
        elif ck is Proj2:
            _infer_term(st, f.left)
            _check(st, AppCut(f.right, k.rest), goal)
        else:
            raise _fail("app-cut", expected="projection spine for a pair",
                        found=_spine_shape(k))
    elif c is Split:
        for branch in _split(st, f.label, f.left, f.right, k, goal):
            _check(*branch)
    else:
        raise _fail("app-cut", expected="applicable term under cut",
                    found=print_term(f))


def _split(st: _State, x: Name, tl: Term, tr: Term, k: Spine | None,
           goal: NegType) -> Iterator[tuple[_State, Term, NegType]]:
    """The two judgments of ``split x`` (applied to the spine ``k`` when
    there is one): each branch re-binds ``x`` at its side of the sum, with
    the injection substituted for ``x`` in the spine, the later hypotheses
    and the goal.  Lazy, so the right branch is built only after the left
    one has been checked."""
    i = st.pending_index(x)
    if i is None or not isinstance(st.pending[i][1], Or):
        raise _fail("or-left", expected="sum-typed hypothesis",
                    found=str(x), note="split variable not at hand")
    ty = st.pending[i][1]
    base = st.drop_pending(i)
    for inj, side, u in ((Inl, ty.left, tl), (Inr, ty.right, tr)):
        d = inj(eta(x))
        try:
            if k is not None:
                u = AppCut(u, subst_data(k, x, d))
            st1 = base.subst(x, d).extend(x, side)
            goal1 = subst_data(goal, x, d)
        except Clash as e:
            raise _clashed("or-left", "well-sorted use of the split variable",
                           x, e)
        yield st1, u, goal1


# ---------------------------------------------------------------------------
# Right focus

def _check_data(st: _State, d: DataVal, goal: PosType) -> None:
    st = st.focus_zone()
    c, cg = type(d), type(goal)
    if c is Thunk and cg is Down:
        _check(st, d.body, goal.body)
    elif c is Thunk:
        raise _fail("thunk", expected=print_type(goal), found=data_shape(d))
    elif c is DPair and cg is Sigma:
        _check_data(st, d.left, goal.first)
        try:
            q = subst_data(goal.second, goal.binder, d.left)
        except Clash as e:
            raise _clashed("prod-right", "well-sorted use of the Sigma binder",
                           goal.binder, e)
        _check_data(st, d.right, q)
    elif c is DPair:
        raise _fail("prod-right", expected=print_type(goal),
                    found=data_shape(d))
    elif c is Inl and cg is Or:
        _check_data(st, d.body, goal.left)
    elif c is Inr and cg is Or:
        _check_data(st, d.body, goal.right)
    elif c is Inl or c is Inr:
        raise _fail("or-right", expected=print_type(goal),
                    found=data_shape(d))
    else:
        raise TypeError(d)


# ---------------------------------------------------------------------------
# Left focus

def _check_spine(st: _State, focus: NegType, k: Spine,
                 goal: NegType | None) -> NegType | _Unknown | None:
    """Consume ``k`` against ``focus`` and check the result against ``goal``
    up to conversion; with no goal, synthesize the result instead."""
    st = st.focus_zone()
    c = type(k)
    if c is Nil:
        if goal is None:
            return focus
        if focus is not goal and not convert(focus, goal, st.sig, st.fuel):
            raise _fail("axiom", expected=print_type(goal),
                        found=print_type(focus),
                        note="types are not convertible")
    elif c is Cons:
        if not isinstance(focus, Pi):
            raise _fail("imp-left", expected="dependent product under focus",
                        found=print_type(focus))
        _check_data(st, k.arg, focus.arg)
        try:
            res = subst_data(focus.res, focus.binder, k.arg)
        except Clash as e:
            raise _clashed("imp-left", "well-sorted use of the Pi binder",
                           focus.binder, e)
        return _check_spine(st, res, k.rest, goal)
    elif c is Proj1 or c is Proj2:
        return _check_spine(st, _with_left(focus, k), k.rest, goal)
    elif c is Kappa:
        if goal is None and not (isinstance(k.pat, Var) and isinstance(focus, Up)):
            return UNKNOWN
        if not isinstance(k.pat, Var):
            raise _fail("dep-pattern", expected="variable binder",
                        found="deep pattern",
                        note="dependent mode binds variables only")
        st = st.extend(k.pat.name, _kappa(focus))
        if goal is None:
            return _infer_term(st, k.body)
        _check(st, k.body, goal)
    else:
        raise TypeError(k)


# ---------------------------------------------------------------------------
# Synthesis

def _infer_term(st: _State, t: Term) -> NegType | _Unknown:
    c = type(t)
    if c is BindCut and type(t.pat) is Var:
        return _infer_term(*_var_cut(st, t.pat.name, t.data, t.body))
    elif c is Lam or c is Split or c is BindCut:
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
    elif c is AppCut:
        # A lambda, done, pair or split under the cut is left undecided:
        # synthesizing through it would reject programs checking accepts.
        u = reassociated(t.fun, t.spine)
        return UNKNOWN if u is None else _infer_term(st, u)
    raise TypeError(t)


def _infer_data(st: _State, d: DataVal) -> PosType | _Unknown:
    """The type ``d`` synthesizes in the focus zone ``st``, where no
    hypothesis is pending: a thunk that applies one finds its head unbound."""
    c = type(d)
    if c is Thunk:
        n = _infer_term(st.focus_zone(), d.body)
        return UNKNOWN if n is UNKNOWN else Down(n)
    elif c is DPair:
        ta = _infer_data(st, d.left)
        if ta is UNKNOWN:
            return UNKNOWN
        tb = _infer_data(st, d.right)
        if tb is UNKNOWN:
            return UNKNOWN
        # No dependency is recoverable from the pair alone.
        return Sigma(Name("_"), ta, tb)
    elif c is Inl or c is Inr:
        _infer_data(st, d.body)
        return UNKNOWN
    raise TypeError(d)


# ---------------------------------------------------------------------------
# Public entry points

def _entered(judgment, sig: Sig, ctx: DepCtx, fuel: int, *args) -> None:
    """Run ``judgment`` on ``args`` in the state that entering ``ctx``
    gives."""
    names = [x for x, _ in ctx]
    if len(names) != len(set(names)):
        raise _fail("linear", expected="pairwise distinct hypotheses",
                    found=", ".join(map(str, names)))
    st = _State(sig, fuel)
    for x, ty in ctx:
        st = st.extend(x, ty)
    judgment(st, *args)


def dep_check_term(sig: Sig, ctx: DepCtx, t: Term, goal: NegType,
                   fuel: int = DEFAULT_FUEL) -> Diagnostic | None:
    return _verdict(_entered, _check, sig, ctx, fuel, t, goal)


def dep_check_spine(sig: Sig, ctx: DepCtx, focus: NegType, k: Spine,
                    goal: NegType, fuel: int = DEFAULT_FUEL) -> Diagnostic | None:
    return _verdict(_entered, _check_spine, sig, ctx, fuel, focus, k, goal)


def dep_bind_cut(sig: Sig, ctx: DepCtx, x: Name, d: DataVal, t: Term,
                 goal: NegType, fuel: int = DEFAULT_FUEL) -> Diagnostic | None:
    """Check the dependent binding cut ``x = d in t`` against ``goal``."""
    return _verdict(_entered, _check_var_cut, sig, ctx, fuel, x, d, t, goal)


def _check_var_cut(st: _State, x: Name, d: DataVal, t: Term,
                   goal: NegType) -> None:
    _check(*_var_cut(st, x, d, t), goal)
