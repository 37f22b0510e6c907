"""Dependent checker: sigma-lets, dependent products, motives, conversion."""

import pytest

from suite import embed_neg
from seqcore.check import check_term
from seqcore.check_dep import convert, dep_bind_cut, dep_check_spine, dep_check_term
from seqcore.core_text import print_term, print_type
from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr,
    Kappa, Lam, Name, NegType, Nil, Or, Pair, Pi, POr, PosType, PPair, Prod,
    Proj1, Proj2, PWild, Sig, SigEntry, Sigma, Split, Thunk, Up, Var, With,
    alpha_eq, eta, fresh, pattern_vars, subst_data,
)

A = Atom(Name("a"))
X, Y, Z, W = Name("x"), Name("y"), Name("z"), Name("w")
ID = Lam(Var(X), App(X, Nil()))
ID_TY_DEP = Pi(Name("_"), Down(A), A)
EMPTY = Sig(frozenset({Name("a")}))


def fam_sig() -> Sig:
    """Atom family P indexed by data, a ground constant, an indexed maker."""
    sig = Sig(frozenset({Name("a"), Name("c"), Name("P")}))
    sig = sig.with_entry(SigEntry(Name("n"), Atom(Name("c"))))
    xv = Name("xv")
    sig = sig.with_entry(SigEntry(
        Name("mk"), Pi(xv, Down(Atom(Name("c"))), Atom(Name("P"), (eta(xv),)))))
    return sig


class TestSigmaLet:
    def test_degenerate_swap(self):
        w0, u, v = Name("w0"), Name("u"), Name("v")
        ctx = [(w0, Sigma(Name("p"), Down(A), Down(A)))]
        body = BindCut(PPair(Var(u), Var(v)), eta(w0),
                       Done(DPair(eta(v), eta(u))))
        goal = Up(Sigma(Name("q"), Down(A), Down(A)))
        assert dep_check_term(EMPTY, ctx, body, goal) is None

    def test_dependent_second_component(self):
        # w : Sigma (x : dn c). P x; the let rebinds and repacks it.
        sig = fam_sig()
        c, P = Atom(Name("c")), Name("P")
        w0, u, v = Name("w0"), Name("u"), Name("v")
        ctx = [(w0, Sigma(X, Down(c), Down(Atom(P, (eta(X),)))))]
        body = BindCut(PPair(Var(u), Var(v)), eta(w0),
                       Done(DPair(eta(u), eta(v))))
        goal = Up(Sigma(Y, Down(c), Down(Atom(P, (eta(Y),)))))
        assert dep_check_term(sig, ctx, body, goal) is None
        # swapping the components no longer typechecks
        bad = BindCut(PPair(Var(u), Var(v)), eta(w0),
                      Done(DPair(eta(v), eta(u))))
        assert dep_check_term(sig, ctx, bad, goal) is not None

    def test_undischarged_sum_component_rejected(self):
        # The sum-typed first component stays pending when y is applied.
        s, u = Name("s"), Name("u")
        t = Lam(Var(s), BindCut(PPair(Var(u), Var(Y)), eta(s), App(Y, Nil())))
        goal = Pi(s, Sigma(Name("p"), Or(Down(A), Down(A)), Down(A)), A)
        d = dep_check_term(EMPTY, [], t, goal)
        assert (d.rule, d.found) == ("var-app", "u")

    def test_deep_patterns_rejected(self):
        ctx = [(W, Or(Down(A), Down(A)))]
        t = Lam(PPair(Var(X), Var(Y)), App(X, Nil()))
        goal = Pi(Z, Sigma(Name("p"), Down(A), Down(A)), A)
        d = dep_check_term(EMPTY, [], t, goal)
        assert d is not None and d.rule == "dep-pattern"


class TestDependentSpine:
    def test_vacuous_dependency_behaves_like_arrow(self):
        sig = EMPTY.with_entry(SigEntry(Z, A))
        focus = Pi(Name("_v"), Down(A), A)
        assert dep_check_spine(sig, [], focus, Cons(eta(Z), Nil()), A) is None

    def test_pi_substitutes_argument(self):
        sig = fam_sig()
        tm = App(Name("mk"), Cons(eta(Name("n")), Nil()))
        goal = Atom(Name("P"), (eta(Name("n")),))
        assert dep_check_term(sig, [], tm, goal) is None
        # and the occurrence-count oracle: the substituted goal carries
        # exactly the argument where the binder stood
        focus = sig.lookup(Name("mk")).type
        out = subst_data(focus.res, focus.binder, eta(Name("n")))
        assert out == goal

    def test_wrong_index_rejected(self):
        sig = fam_sig().with_entry(SigEntry(Name("m"), Atom(Name("c"))))
        tm = App(Name("mk"), Cons(eta(Name("n")), Nil()))
        d = dep_check_term(sig, [], tm, Atom(Name("P"), (eta(Name("m")),)))
        assert d is not None and d.rule == "axiom"

    def test_kappa_binds_variable_into_fresh_context(self):
        sig = fam_sig()
        focus = Up(Down(Atom(Name("c"))))
        k = Kappa(Var(Y), App(Y, Nil()))
        assert dep_check_spine(sig, [], focus, k, Atom(Name("c"))) is None
        deep = Kappa(PPair(Var(Y), Var(Z)), App(Y, Nil()))
        d = dep_check_spine(sig, [], Up(Sigma(X, Down(Atom(Name("c"))),
                                              Down(Atom(Name("c"))))),
                            deep, Atom(Name("c")))
        assert d is not None and d.rule == "dep-pattern"

    def test_nil_uses_conversion(self):
        # Focus type embeds a reducible script; the axiom accepts it against
        # its normal form.
        sig = fam_sig()
        script = Thunk(AppCut(Lam(Var(X), App(X, Nil())),
                              Cons(eta(Name("n")), Nil())))
        focus = Atom(Name("P"), (script,))
        goal = Atom(Name("P"), (eta(Name("n")),))
        assert dep_check_spine(sig, [], focus, Nil(), goal) is None


class TestOrLeftMotive:
    def test_hand_derivation(self):
        # ctx x : dn a + dn a, goal Q x; each branch checks against the goal
        # with the matching injection substituted for x.
        Q = Name("Q")
        sig = Sig(frozenset({Name("a"), Q}))
        yv, zv = Name("yv"), Name("zv")
        sig = sig.with_entry(SigEntry(
            Name("h1"), Pi(yv, Down(A), Atom(Q, (Inl(eta(yv)),)))))
        sig = sig.with_entry(SigEntry(
            Name("h2"), Pi(zv, Down(A), Atom(Q, (Inr(eta(zv)),)))))
        ctx = [(X, Or(Down(A), Down(A)))]
        goal = Atom(Q, (eta(X),))
        tm = Split(X, App(Name("h1"), Cons(eta(X), Nil())),
                   App(Name("h2"), Cons(eta(X), Nil())))
        assert dep_check_term(sig, ctx, tm, goal) is None
        # swapping the branch witnesses breaks both motives
        bad = Split(X, App(Name("h2"), Cons(eta(X), Nil())),
                    App(Name("h1"), Cons(eta(X), Nil())))
        assert dep_check_term(sig, ctx, bad, goal) is not None

    def test_split_variable_applied_in_the_spine(self):
        # The spine under a split cut applies the sum-typed x as a function,
        # so substituting an injection for x clashes.  That is a diagnostic,
        # when checking and when synthesis reaches it under a binding cut.
        U, Y, F = Name("u"), Name("y"), Name("f")
        ctx = [(X, Or(Down(A), Down(A)))]
        clash = AppCut(Split(X, Done(Inl(eta(X))), Done(Inr(eta(X)))),
                       Kappa(Var(Y), App(X, Nil())))
        d = dep_check_term(EMPTY, ctx, clash, A)
        assert d is not None and d.rule == "or-left" and d.found == "x"
        sig = EMPTY.with_entry(SigEntry(
            F, Pi(Name("_"), Down(Pi(X, Or(Down(A), Down(A)), A)), A)))
        use = App(F, Cons(Thunk(Lam(Var(X), clash)), Nil()))
        # z is bound to data with no synthesizable type, so synthesis
        # substitutes it into the body and then meets the split.
        cut = BindCut(Var(Z), Inl(Thunk(Lam(Var(U), App(U, Nil())))),
                      Pair(use, Done(eta(Z))))
        t = AppCut(Pair(App(F, Cons(Thunk(ID), Nil())), cut), Proj1(Nil()))
        d = dep_check_term(sig, [], t, A)
        assert d is not None and d.rule == "or-left" and d.found == "x"

    def test_application_cut_on_a_split(self):
        # Each branch takes the spine, with x re-bound at its side's type.
        f_ty = Pi(Name("_"), Down(A), A)
        ctx = [(X, Or(Down(f_ty), Down(f_ty)))]
        sig = EMPTY.with_entry(SigEntry(Z, A))
        t = AppCut(Split(X, App(X, Nil()), App(X, Nil())),
                   Cons(eta(Z), Nil()))
        assert dep_check_term(sig, ctx, t, A) is None
        d = dep_check_term(sig, ctx, t, With(A, A))
        assert (d.rule, d.expected, d.found) == ("axiom", "a /\\ a", "a")


class TestSubstClash:
    """A type index that applies a variable, and data other than a thunk
    substituted for that variable: a diagnostic at the substitution."""

    P, H, C, S = Name("P"), Name("h"), Name("c"), Name("s")

    def sig(self) -> Sig:
        return Sig(frozenset({Name("a"), self.P}),
                   (SigEntry(self.C, A), SigEntry(self.H, A)))

    def applied(self, x: Name) -> Atom:
        # P (thunk (x .1 []))
        return Atom(self.P, (Thunk(App(x, Proj1(Nil()))),))

    def test_sigma_let(self):
        ctx = [(X, Sigma(self.S, Down(A), Down(A)))]
        t = BindCut(PPair(Var(Y), Var(Z)), eta(X), App(self.H, Nil()))
        d = dep_check_term(self.sig(), ctx, t, self.applied(X))
        assert (d.rule, d.found) == ("prod-left", "x")
        assert "non-thunk" in d.note

    def test_pi_spine_step(self):
        q = Name("q")
        focus = Pi(q, Or(Down(A), Down(A)), self.applied(q))
        k = Cons(Inl(eta(self.C)), Nil())
        d = dep_check_spine(self.sig(), [], focus, k, A)
        assert (d.rule, d.found) == ("imp-left", "q")
        assert "non-thunk" in d.note

    def test_sigma_data_step(self):
        goal = Up(Sigma(self.S, Or(Down(A), Down(A)),
                        Down(self.applied(self.S))))
        t = Done(DPair(Inl(eta(self.C)), eta(self.H)))
        d = dep_check_term(self.sig(), [], t, goal)
        assert (d.rule, d.found) == ("prod-right", "s")
        assert "non-thunk" in d.note


class TestDependentCut:
    def test_non_dependent_instance(self):
        sig = EMPTY.with_entry(SigEntry(Z, A))
        d = Thunk(App(Z, Nil()))
        body = App(X, Nil())
        assert dep_bind_cut(sig, [], X, d, body, A) is None
        # degenerates to the propositional cut
        assert check_term(sig, [], BindCut(Var(X), d, body), A) is None

    def test_telescope_suffix_substitution(self):
        # A binder under the cut mentions x; its type sees the cut data.
        sig = fam_sig()
        d = eta(Name("n"))
        term = BindCut(Var(X), d, Lam(Var(Y), App(Y, Nil())))
        goal = Pi(Name("_y"), Down(Atom(Name("P"), (d,))),
                  Atom(Name("P"), (d,)))
        assert dep_check_term(sig, [], term, goal) is None

    def test_ill_scoped_data(self):
        sig = fam_sig()
        d = eta(Name("nowhere"))
        assert dep_bind_cut(sig, [], X, d, App(X, Nil()), Atom(Name("c"))) \
            is not None

    def test_substitution_stability(self):
        # If ctx,(x:A),suffix |- t : B and d : A then substituting d for x
        # everywhere preserves checking.
        sig = fam_sig()
        catom = Atom(Name("c"))
        P = Name("P")
        d = eta(Name("n"))
        suffix_ty = Down(Atom(P, (eta(X),)))
        t = App(Y, Nil())
        goal = Atom(P, (eta(X),))
        ctx = [(X, Down(catom)), (Y, suffix_ty)]
        assert dep_check_term(sig, ctx, t, goal) is None
        ctx2 = [(Y, subst_data(suffix_ty, X, d))]
        t2 = subst_data(t, X, d)
        goal2 = subst_data(goal, X, d)
        assert dep_check_term(sig, ctx2, t2, goal2) is None


class TestCutSynthesis:
    """A binding cut ``x = d in body`` types ``x`` by the type ``d``
    synthesizes, and substitutes ``d`` for ``x`` when synthesis is
    undecided.  Each case is judged differently the other way."""

    B, C, F, R = Name("b"), Name("c"), Name("f"), Name("r")
    SIG = Sig(frozenset({Name("a"), B}), (
        SigEntry(C, A), SigEntry(F, Pi(Name("_"), Down(A), A)),
        SigEntry(R, Up(Down(A)))))
    APPLY_C = App(C, Nil())
    # (id, d, body, goal, (rule, expected, found) or None for accepted)
    CASES = [
        # x : dn (up (dn a)).
        ("done", Thunk(Done(eta(C))), App(X, Nil()), A,
         ("axiom", "a", "up (dn a)")),
        ("with-pair", Thunk(Pair(APPLY_C, APPLY_C)), App(X, Nil()), A,
         ("axiom", "a", "a /\\ a")),
        # The lambda is undecided, so the pair is: its substituted
        # projection is checked instead.
        ("with-pair, one side undecided", Thunk(Pair(ID, APPLY_C)),
         App(X, Proj2(Nil())), A, None),
        ("application cut",
         Thunk(AppCut(App(F, Nil()), Cons(eta(C), Nil()))),
         App(X, Nil()), Atom(B), ("axiom", "b", "a")),
        ("application cut on a lambda",
         Thunk(AppCut(ID, Cons(eta(C), Nil()))), App(X, Nil()), A, None),
        ("kappa", Thunk(App(R, Kappa(Var(Y), App(Y, Nil())))),
         App(X, Nil()), Atom(B), ("axiom", "b", "a")),
        # A deep kappa pattern is undecided, not a failure: the body does
        # not use x.
        ("kappa with a deep pattern",
         Thunk(App(R, Kappa(PPair(Var(Y), Var(Z)), APPLY_C))), APPLY_C, A,
         None),
        ("pair, first side undecided", DPair(Thunk(ID), eta(C)), APPLY_C, A,
         None),
        ("pair, second side undecided", DPair(eta(C), Thunk(ID)), APPLY_C, A,
         None),
    ]

    @pytest.mark.parametrize("d, body, goal, expected",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_cut(self, d, body, goal, expected):
        found = dep_bind_cut(self.SIG, [], X, d, body, goal)
        assert (found and (found.rule, found.expected, found.found)) \
            == expected
        # Each failure is at a use of x, which substituting would remove.
        assert found is None or found.trail == (
            f"dep-check x [] : {found.expected}",)


class TestApplicationCuts:
    """The application-cut rules R1, R2 and R3 at the root of the subject,
    as ``test_check_prop.TestApplicationCuts`` has them, plus the cuts
    whose binder is not a variable, which dependent mode rejects."""

    SIG = EMPTY.with_entry(SigEntry(Z, A))
    ZZ = App(Z, Nil())
    PAIR = DPair(Thunk(ZZ), Thunk(ZZ))
    # A binder that is not a variable, as a lambda or a kappa reports it.
    DEEP = ("dep-pattern", "variable binder", "deep pattern",
            "dependent mode binds variables only")
    # (id, ctx, term, goal, None or (rule, expected, found, note))
    CASES = [
        ("R1", [], AppCut(Lam(Var(X), Lam(Var(Y), App(X, Nil()))),
                          Cons(Thunk(ZZ), Cons(Thunk(ZZ), Nil()))), A, None),
        ("R1 body", [], AppCut(ID, Cons(Thunk(ZZ), Nil())), Up(Down(A)),
         ("axiom", "up (dn a)", "a", "types are not convertible")),
        ("R1 spine", [], AppCut(ID, Kappa(Var(Y), ZZ)), A,
         ("app-cut", "argument spine for a function", "kappa", "")),
        ("R1 pattern", [], AppCut(Lam(PPair(Var(X), Var(Y)), ZZ),
                                  Cons(PAIR, Nil())), A, DEEP),
        # The binder is looked at before the spine's connective.
        ("R1 pattern spine", [], AppCut(Lam(PWild(), ZZ), Proj1(Nil())), A,
         DEEP),
        ("R2", [], AppCut(Done(Thunk(ZZ)), Kappa(Var(X), App(X, Nil()))), A,
         None),
        ("R2 body", [],
         AppCut(Done(Thunk(ZZ)), Kappa(Var(X), App(X, Proj1(Nil())))), A,
         ("with-left-1", "conjunction under focus", "a", "")),
        ("R2 spine", [], AppCut(Done(Thunk(ZZ)), Proj2(Nil())), A,
         ("app-cut", "kappa x spine for returned data", ".2", "")),
        ("R2 pattern", [],
         AppCut(Done(PAIR), Kappa(PPair(Var(X), Var(Y)), ZZ)), A, DEEP),
        # The context is discharged before the spine is looked at.
        ("R2 context", [(X, Or(Down(A), Down(A)))],
         AppCut(Done(Thunk(ZZ)), Proj2(Nil())), A,
         ("done", "empty inversion context", "x", "")),
        ("R2 pattern context", [(X, Or(Down(A), Down(A)))],
         AppCut(Done(PAIR), Kappa(PPair(Var(X), Var(Y)), ZZ)), A,
         ("done", "empty inversion context", "x", "")),
        ("R3", [], AppCut(Pair(ZZ, ID), Proj1(Nil())), A, None),
        ("R3 body", [], AppCut(Pair(ZZ, ID), Proj2(Nil())), A,
         ("lambda", "dependent product goal", "a", "")),
        ("R3 spine", [], AppCut(Pair(ZZ, ZZ), Kappa(Var(X), ZZ)), A,
         ("app-cut", "projection spine for a pair", "kappa", "")),
        # The projected-away component must still be typeable.
        ("R3 dropped", [],
         AppCut(Pair(ZZ, App(Name("ghost"), Nil())), Proj1(Nil())), A,
         ("unbound", "declared variable", "ghost", "")),
        # A split under an empty spine drops the spine before it splits.
        ("R4", [(X, Or(Down(A), Down(A)))],
         AppCut(Split(X, App(X, Nil()), App(X, Nil())), Nil()), A, None),
        ("R4 body", [(X, Or(Down(A), Down(A)))],
         AppCut(Split(X, App(X, Nil()), App(X, Proj1(Nil()))), Nil()), A,
         ("with-left-1", "conjunction under focus", "a", "")),
    ]

    @pytest.mark.parametrize("ctx, t, goal, expected",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_verdict(self, ctx, t, goal, expected):
        d = dep_check_term(self.SIG, ctx, t, goal)
        assert (d and (d.rule, d.expected, d.found, d.note)) == expected

    @pytest.mark.parametrize("ctx, t, goal", [case[1:4] for case in CASES
                                              if case[0].endswith(" body")],
                             ids=[case[0] for case in CASES
                                  if case[0].endswith(" body")])
    def test_body_trail_follows_the_reducer(self, ctx, t, goal):
        from suite import cut_reducts
        frames = list(reversed(dep_check_term(self.SIG, ctx, t, goal).trail))
        reducts = cut_reducts(self.SIG, t)
        assert reducts
        assert frames[1:1 + len(reducts)] == [
            f"dep-check {print_term(u)} : {print_type(goal)}"
            for u in reducts]


class TestConvert:
    def test_reflexivity(self):
        ty = Pi(X, Down(A), Atom(Name("a")))
        assert convert(ty, ty, EMPTY)

    def test_beta_script_converts_to_normal_form(self):
        sig = fam_sig()
        script = Thunk(AppCut(ID, Cons(eta(Name("n")), Nil())))
        assert convert(Atom(Name("P"), (script,)),
                       Atom(Name("P"), (eta(Name("n")),)), sig)

    def test_distinct_atoms(self):
        assert not convert(Atom(Name("a")), Atom(Name("b")), EMPTY)

    def test_equivalence_on_corpus(self):
        sig = fam_sig()
        n = eta(Name("n"))
        script = Thunk(AppCut(ID, Cons(n, Nil())))
        tys = [Atom(Name("P"), (n,)),
               Atom(Name("P"), (script,)),
               Pi(X, Down(Atom(Name("c"))), Atom(Name("P"), (eta(X),))),
               Up(Or(Down(Atom(Name("c"))), Down(Atom(Name("c"))))),
               With(Atom(Name("c")), Atom(Name("c")))]
        for t in tys:
            assert convert(t, t, sig)
        for i, t1 in enumerate(tys):
            for j, t2 in enumerate(tys):
                assert convert(t1, t2, sig) == convert(t2, t1, sig)
        for t1 in tys:
            for t2 in tys:
                for t3 in tys:
                    if convert(t1, t2, sig) and convert(t2, t3, sig):
                        assert convert(t1, t3, sig)

    def test_fuel_failure_has_its_trail(self):
        # loop = loop [] never normalizes, so comparing P n with
        # P (thunk (loop [])) runs out of fuel; the failure carries the
        # frame of the judgment it ends, like any other.
        loop, h = Name("loop"), Name("h")
        sig = fam_sig().with_entry(
            SigEntry(loop, Atom(Name("c")), App(loop, Nil())))
        sig = sig.with_entry(SigEntry(h, Atom(Name("P"), (eta(Name("n")),))))
        goal = Atom(Name("P"), (Thunk(App(loop, Nil())),))
        d = dep_check_term(sig, [], App(h, Nil()), goal, fuel=50)
        assert (d.rule, d.expected, d.found) == (
            "conversion-fuel", "normalization within 50 steps",
            "fuel exhausted")
        assert d.trail == ("dep-check h [] : P (thunk (loop []))",)


class TestFailureRules:
    """One subject per failure that the other tests never reach: the rule
    that fails, what it expected and what it found."""

    C, V = Name("c"), Name("v")
    SIG = EMPTY.with_entry(SigEntry(C, A))
    # (id, ctx, term, goal, (rule, expected, found))
    CASES = [
        ("linear context", [(X, Down(A)), (X, Down(A))], App(X, Nil()), A,
         ("linear", "pairwise distinct hypotheses", "x, x")),
        ("split variable not at hand", [],
         Split(X, App(C, Nil()), App(C, Nil())), A,
         ("or-left", "sum-typed hypothesis", "x")),
        ("pair at a non-Sigma goal", [], Done(DPair(eta(C), eta(C))),
         Up(Down(A)), ("prod-right", "dn a", "pair")),
        # The cut's data is typed without the pending hypothesis x; the
        # body still has it.
        ("focus zone with pending", [(X, Or(Down(A), Down(A)))],
         BindCut(Var(V), eta(C), App(V, Nil())), A,
         ("var-app", "empty inversion context", "x")),
        # Cut data is typed in the focus zone, where no hypothesis is
        # pending: one applied there is unbound, bare or with arguments.
        ("pending hypothesis in cut data", [(X, Or(Down(A), Down(A)))],
         BindCut(Var(V), eta(X), App(C, Nil())), A,
         ("unbound", "declared variable", "x")),
        ("pending hypothesis applied in cut data",
         [(X, Or(Down(A), Down(A)))],
         BindCut(Var(V), Thunk(App(X, Cons(eta(C), Nil()))), App(C, Nil())),
         A, ("unbound", "declared variable", "x")),
        ("product hypothesis", [(X, Prod(Down(A), Down(A)))], App(C, Nil()),
         A, ("mode", "Sigma in dependent mode", "(dn a) * dn a")),
    ]

    @pytest.mark.parametrize("ctx, t, goal, expected",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_failure(self, ctx, t, goal, expected):
        d = dep_check_term(self.SIG, ctx, t, goal)
        assert (d.rule, d.expected, d.found) == expected


def var_only(t) -> bool:
    """No split, and no pattern other than a variable."""
    match t:
        case Lam(p, b) | Kappa(p, b):
            return isinstance(p, Var) and var_only(b)
        case BindCut(p, d, b):
            return isinstance(p, Var) and var_only(d) and var_only(b)
        case Split(_, _, _) | POr(_, _, _):
            return False
        case App(_, k):
            return var_only(k)
        case Done(d) | Thunk(d) | Inl(d) | Inr(d):
            return var_only(d)
        case Pair(l, r) | DPair(l, r):
            return var_only(l) and var_only(r)
        case AppCut(f, k):
            return var_only(f) and var_only(k)
        case Cons(d, k):
            return var_only(d) and var_only(k)
        case Proj1(k) | Proj2(k):
            return var_only(k)
        case Nil():
            return True
    return False


class TestConservativity:
    def test_dependency_free_corpus(self):
        # Variable-only, split-free well-typed propositional terms are
        # accepted identically by the dependent checker after embedding
        # arrows and products into their degenerate dependent forms.
        from gen_corpus import generate_corpus

        sig, corpus = generate_corpus(400, 12, seed=77)
        dep_entries = tuple(
            SigEntry(e.name, embed_neg(e.type), e.body) for e in sig.entries)
        dep_sig = Sig(sig.atoms, dep_entries)
        tested = 0
        for t, goal in corpus:
            if not var_only(t):
                continue
            tested += 1
            prop_ok = check_term(sig, [], t, goal) is None
            dep_ok = dep_check_term(dep_sig, [], t, embed_neg(goal)) is None
            assert prop_ok == dep_ok, f"conservativity broke on {t}"
            assert prop_ok
        assert tested >= 30

    def test_variable_only_terms_up_to_size_8(self):
        # Every variable-only term of size <= 8 (criterion 5's enumeration,
        # cuts included) at five goals.  The checkers differ on one shape
        # only: a let whose variable the body never uses, bound to an
        # injection.  The propositional checker keeps the sum hypothesis in
        # the inversion context, where no rule discharges it; the dependent
        # checker cannot synthesize the injection's type, so it substitutes
        # the data into the body, which drops it.
        from enum_all import Enumerator
        from suite import tiny_sig
        sig = tiny_sig()
        dep_sig = Sig(sig.atoms, tuple(SigEntry(e.name, embed_neg(e.type))
                                       for e in sig.entries))
        sum_ = Or(Down(A), Down(A))
        goals = [A, Imp(Down(A), A), Imp(sum_, A),
                 Imp(Prod(Down(A), Down(A)), A), Up(sum_)]
        terms = [t for t in Enumerator((Z, Name("f")), structural=False)
                 .all_terms(8) if var_only(t)]
        assert len(terms) == 2856
        only = {"check": set(), "check_dep": set()}
        for goal in goals:
            dep_goal = embed_neg(goal)
            for t in terms:
                prop_ok = check_term(sig, [], t, goal) is None
                dep_ok = dep_check_term(dep_sig, [], t, dep_goal) is None
                if prop_ok != dep_ok:
                    only["check" if prop_ok else "check_dep"].add(
                        (print_term(t), print_type(goal)))
        lets = {(f"let v1 = {inj} thunk ({h} []) in {body} []", goal)
                for inj in ("inl", "inr") for h in ("z", "f")
                for body, goal in (("z", "a"), ("f", "dn a -> a"))}
        assert only == {"check": set(), "check_dep": lets}
        # The propositional checker's reason: the hypothesis is left over.
        d = check_term(sig, [], BindCut(Var(Name("v1")), Inl(eta(Z)),
                                        App(Z, Nil())), A)
        assert (d.rule, d.expected) == ("var-app",
                                        "empty inversion context")

    def test_dependency_free_rejections_agree(self):
        # A few ill-typed variable-only terms: both checkers reject.
        sig = EMPTY.with_entry(SigEntry(Z, A))
        dep_sig = EMPTY.with_entry(SigEntry(Z, A))
        cases = [
            (App(Z, Cons(eta(Z), Nil())), A),          # over-application
            (Lam(Var(X), App(Y, Nil())), Imp(Down(A), A)),   # unbound
            (Done(Thunk(App(Z, Nil()))), Imp(Down(A), A)),   # shape clash
        ]
        for t, goal in cases:
            assert check_term(sig, [], t, goal) is not None
            dep_goal = goal if isinstance(goal, Atom) else Pi(fresh("_"), Down(A), A)
            assert dep_check_term(dep_sig, [], t, dep_goal) is not None


class TestSharedRules:
    """The rules that ``check`` states once for both checkers say the same
    thing in both modes: a subject that fails one of them gets the same
    rule, expected, found and note from either entry point.  Only the trail
    frames differ.  Each mode's application cut names the spine it rejects
    in the same words (``check._spine_shape``)."""

    SIG = Sig(frozenset({Name("a")}), (SigEntry(Name("z"), A),))
    Z = Name("z")
    CASES = [
        ("with-right", Pair(App(Z, Nil()), App(Z, Nil()))),
        ("done", Done(eta(Z))),
        ("unbound", App(Name("nope"), Nil())),
        ("with-left-1", App(Z, Proj1(Nil()))),
        ("with-left-2", App(Z, Proj2(Nil()))),
        ("kappa", App(Z, Kappa(Var(X), App(Z, Nil())))),
        ("app-cut", AppCut(Lam(Var(X), App(X, Nil())), Proj1(Nil()))),
        ("app-cut", AppCut(Pair(App(Z, Nil()), App(Z, Nil())),
                           Cons(eta(Z), Nil()))),
    ]

    @pytest.mark.parametrize("rule, t", CASES, ids=[r for r, _ in CASES])
    def test_same_diagnostic_in_both_modes(self, rule, t):
        prop = check_term(self.SIG, [], t, A)
        dep = dep_check_term(self.SIG, [], t, A)
        assert prop.rule == rule
        assert ((prop.rule, prop.expected, prop.found, prop.note)
                == (dep.rule, dep.expected, dep.found, dep.note))

    def test_returned_data_under_an_argument_spine(self):
        # The application cut differs by mode in what it expects of a
        # kappa (dependent mode binds a variable), but both name the spine.
        t = AppCut(Done(eta(self.Z)), Cons(eta(self.Z), Nil()))
        prop = check_term(self.SIG, [], t, A)
        dep = dep_check_term(self.SIG, [], t, A)
        assert (prop.rule, prop.expected, prop.found) == (
            "app-cut", "kappa spine for returned data", "argument")
        assert (dep.rule, dep.expected, dep.found) == (
            "app-cut", "kappa x spine for returned data", "argument")
