"""Propositional checker: rule-level examples, structural patterns, and
agreement with the exhaustive rule-search oracle on small corpora."""

import random

import pytest

from oracle import make_oracle
from seqcore.check import (
    UNKNOWN, check_data, check_spine, check_term, infer_term,
)
from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr,
    Kappa, Lam, Name, Nil, Or, Pair, PAt, Pi, POr, PPair, Prod, Proj1, Proj2,
    PWild, Sig, SigEntry, Sigma, Split, Thunk, Up, Var, With, alpha_eq, eta,
    fresh,
)

A = Atom(Name("a"))
NAT = Atom(Name("nat"))
X, Y, Z, W = Name("x"), Name("y"), Name("z"), Name("w")
ID = Lam(Var(X), App(X, Nil()))
ID_TY = Imp(Down(A), A)
EMPTY = Sig(frozenset({Name("a")}))


def nat_sig() -> Sig:
    add_ty = Imp(Down(NAT), Imp(Down(NAT), NAT))
    return Sig(frozenset({Name("nat")}), (SigEntry(Name("add"), add_ty),))


class TestCheckTerm:
    def test_identity(self):
        assert check_term(EMPTY, [], ID, ID_TY) is None

    def test_worked_example_term(self):
        # The two-clause sum eliminator over pairs, with its coercions.
        sig = nat_sig()
        term = Lam(POr(W, PPair(Var(X), Var(Y)), Var(Z)),
                   Split(W,
                         App(Name("add"), Cons(eta(X), Cons(eta(Y), Nil()))),
                         App(Z, Nil())))
        goal = Imp(Or(Prod(Down(NAT), Down(NAT)), Down(NAT)), NAT)
        assert check_term(sig, [], term, goal) is None

    def test_done_inl_thunked_identity(self):
        # Checked against the rule-search oracle as well (derived example).
        t = Done(Inl(Thunk(ID)))
        goal = Up(Or(Down(ID_TY), Down(A)))
        assert check_term(EMPTY, [], t, goal) is None
        oracle = make_oracle(EMPTY, [goal], bound=6)
        assert oracle.inv((), (), t, goal)

    def test_done_requires_empty_context(self):
        d = check_term(EMPTY, [(Var(X), Down(A))],
                       Done(Inl(eta(X))), Up(Or(Down(A), Down(A))))
        assert d is None  # a thunk-typed variable stores away
        d = check_term(EMPTY, [(POr(W, Var(X), Var(Y)), Or(Down(A), Down(A)))],
                       Done(Inr(Thunk(ID))), Up(Or(Down(A), Down(ID_TY))))
        assert d is not None and d.rule == "done"

    def test_split_label_not_at_hand(self):
        d = check_term(EMPTY, [], Split(W, App(Z, Nil()), App(Z, Nil())), A)
        assert d is not None and d.rule == "or-left"

    def test_goal_shape_mismatch(self):
        d = check_term(EMPTY, [], ID, A)
        assert d is not None and d.rule == "lambda"

    def test_unbound_variable(self):
        d = check_term(EMPTY, [], App(Name("nope"), Nil()), A)
        assert d is not None and d.rule == "unbound"

    def test_variable_at_composite_positive_never_discharges(self):
        # No rule consumes x : P + Q bound as a bare variable.
        ctx = [(Var(X), Or(Down(A), Down(A)))]
        d = check_term(EMPTY, ctx, Done(Thunk(ID)), Up(Down(ID_TY)))
        assert d is not None and d.rule == "done"


class TestCheckData:
    def test_thunked_identity(self):
        assert check_data(EMPTY, Thunk(ID), Down(ID_TY)) is None

    def test_injection_against_product(self):
        d = check_data(EMPTY, Inl(Thunk(ID)), Prod(Down(A), Down(A)))
        assert d is not None and d.rule == "prod-right"

    def test_dependent_goal_is_a_mode_error(self):
        d = check_data(EMPTY, DPair(Thunk(ID), Thunk(ID)),
                       Sigma(X, Down(ID_TY), Down(ID_TY)))
        assert (d.rule, d.expected, d.found) == (
            "mode", "propositional positive type",
            "Sigma (x : dn (dn a -> a)). dn (dn a -> a)")

    def test_brute_force_agreement_small_trees(self):
        # All data trees over one closed thunk, both to constructor depth 3
        # and to five nodes, against the sum-of-product goal: the checker
        # agrees with the rule-search oracle everywhere.
        base = Thunk(ID)

        def by_depth(k):
            if k == 1:
                return [base]
            smaller = by_depth(k - 1)
            return smaller + \
                [Inl(d) for d in smaller if _depth(d) == k - 1] + \
                [Inr(d) for d in smaller if _depth(d) == k - 1] + \
                [DPair(l, r) for l in smaller for r in smaller
                 if max(_depth(l), _depth(r)) == k - 1]

        def _depth(d):
            match d:
                case Thunk(_):
                    return 1
                case Inl(e) | Inr(e):
                    return 1 + _depth(e)
                case DPair(l, r):
                    return 1 + max(_depth(l), _depth(r))

        def by_size(n):
            table = {1: [base]}
            for s in range(2, n + 1):
                out = [c(d) for d in table[s - 1] for c in (Inl, Inr)]
                for k in range(1, s - 1):
                    out += [DPair(l, r)
                            for l in table[k] for r in table[s - 1 - k]]
                table[s] = out
            return [d for s in range(1, n + 1) for d in table[s]], len(table[n])

        depth_trees = by_depth(3)
        size_trees, exactly5 = by_size(5)
        assert len(depth_trees) == 25
        assert exactly5 == 42
        goal = Or(Prod(Down(ID_TY), Down(ID_TY)), Down(ID_TY))
        oracle = make_oracle(EMPTY, [Up(goal)], bound=6)
        for d in depth_trees + size_trees:
            mine = check_data(EMPTY, d, goal) is None
            theirs = oracle.rfoc((), d, goal)
            assert mine == theirs


class TestCheckSpine:
    def test_axiom(self):
        assert check_spine(EMPTY, A, Nil(), A) is None

    def test_axiom_mismatch_is_unfinished_spine(self):
        d = check_spine(EMPTY, ID_TY, Nil(), A)
        assert d is not None and d.rule == "axiom"

    def test_add_spine(self):
        # The two-argument application spine of the worked example.
        sig = nat_sig()
        sig = sig.with_entry(SigEntry(X, NAT)).with_entry(SigEntry(Y, NAT))
        focus = Imp(Down(NAT), Imp(Down(NAT), NAT))
        k = Cons(eta(X), Cons(eta(Y), Nil()))
        assert check_spine(sig, focus, k, NAT) is None

    def test_kappa_releases_into_inversion(self):
        # Hand derivation: focus up(P + Q), kappa binds an or-pattern whose
        # split selects either injection into the goal.
        P, Q = Down(A), Down(ID_TY)
        focus = Up(Or(P, Q))
        k = Kappa(POr(W, Var(Y), Var(Z)),
                  Split(W, App(Y, Nil()), Done(Thunk(App(Z, Nil())))))
        goal_bad = A
        assert check_spine(EMPTY, focus, k, goal_bad) is not None
        # branches must agree on the goal; pick one where both check
        k2 = Kappa(POr(W, Var(Y), Var(Z)),
                   Split(W, Done(Inl(eta(Y))), Done(Inl(eta(Y)))))
        d = check_spine(EMPTY, focus, k2, Up(Or(P, P)))
        assert d is not None  # right branch uses y, bound only on the left
        k3 = Kappa(POr(W, Var(Y), Var(Z)),
                   Split(W, Done(Inl(eta(Y))), Done(Inr(eta(Z)))))
        assert check_spine(EMPTY, focus, k3, Up(Or(P, Q))) is None

    def test_projections(self):
        sig = EMPTY.with_entry(SigEntry(Name("h"), With(A, ID_TY)))
        assert check_spine(sig, With(A, ID_TY), Proj1(Nil()), A) is None
        assert check_spine(sig, With(A, ID_TY), Proj2(Nil()), ID_TY) is None
        d = check_spine(sig, A, Proj1(Nil()), A)
        assert d is not None and d.rule == "with-left-1"


class TestStructuralPatterns:
    def test_contraction_expansion(self):
        # x@(y,z) duplicates a product hypothesis: the named copy stays
        # undischargeable, so only fully decomposable uses check.
        ctx = [(PAt(PPair(Var(X), Var(Y)), PPair(Var(Z), PWild())),
                Prod(Down(A), Down(A)))]
        t = Pair(App(X, Nil()), App(Z, Nil()))
        assert check_term(EMPTY, ctx, t, With(A, A), structural=True) is None

    def test_weakening_drops(self):
        ctx = [(PWild(), Prod(Down(A), Down(A)))]
        assert check_term(EMPTY, ctx, Done(Thunk(ID)), Up(Down(ID_TY)),
                          structural=True) is None

    def test_flag_toggle(self):
        t = Lam(PAt(Var(X), Var(Y)),
                Done(DPair(eta(X), eta(Y))))
        goal = Imp(Down(A), Up(Prod(Down(A), Down(A))))
        assert check_term(EMPTY, [], t, goal, structural=True) is None
        d = check_term(EMPTY, [], t, goal, structural=False)
        assert d is not None and d.rule == "structural-disabled"

    def test_wildcard_flag_toggle(self):
        t = Lam(PWild(), Done(Thunk(ID)))
        goal = Imp(Down(A), Up(Down(ID_TY)))
        assert check_term(EMPTY, [], t, goal, structural=True) is None
        d = check_term(EMPTY, [], t, goal, structural=False)
        assert d is not None and d.rule == "structural-disabled"


class TestCutChecking:
    def test_cut_on_split_subject(self):
        # An application cut whose function is a pending split: each branch
        # is checked against the whole cut.
        U, V, W2 = Name("u"), Name("v"), Name("w2")
        term = Lam(POr(W, Var(X), Var(Y)),
                   AppCut(Split(W, Done(Inl(eta(X))), Done(Inr(eta(Y)))),
                          Kappa(POr(W2, Var(U), Var(V)),
                                Split(W2, App(U, Nil()), App(V, Nil())))))
        goal = Imp(Or(Down(A), Down(A)), A)
        assert check_term(EMPTY, [], term, goal) is None

    def test_cut_formula_recovered_for_reducts(self):
        # A thunked function bound by a cut is checked at each use site.
        t = BindCut(Var(X), Thunk(ID),
                    AppCut(App(X, Nil()), Cons(Thunk(App(Z, Nil())), Nil())))
        sig = EMPTY.with_entry(SigEntry(Z, A))
        assert check_term(sig, [], t, A) is None
        # ...and rejected when a use disagrees with the function's shape
        bad = BindCut(Var(X), Thunk(ID), App(X, Proj1(Nil())))
        assert check_term(sig, [], bad, A) is not None

    def test_kappa_spine_synthesizes_its_body(self):
        # A cut on a thunked kappa application is typed by the kappa's body.
        r = Name("r")
        sig = EMPTY.with_entry(SigEntry(r, Up(Down(A))))
        t = App(r, Kappa(Var(X), App(X, Nil())))
        assert infer_term(sig, t) == A
        assert check_term(sig, [], BindCut(Var(Y), Thunk(t), App(Y, Nil())),
                          A) is None

    def test_split_branches_of_two_types_synthesize_nothing(self):
        # Under r's kappa the split's branches synthesize a and b, so the
        # thunk has no type and the cut is judged by its reduct: the right
        # branch fails at a.  Typing the thunk by its left branch would
        # accept the cut.
        b, r, u, v = Name("b"), Name("r"), Name("u"), Name("v")
        sig = Sig(frozenset({Name("a"), b}),
                  (SigEntry(r, Up(Or(Down(A), Down(Atom(b))))),))
        forked = App(r, Kappa(POr(W, Var(u), Var(v)),
                              Split(W, App(u, Nil()), App(v, Nil()))))
        assert infer_term(sig, forked) is UNKNOWN
        d = check_term(sig, [], BindCut(Var(X), Thunk(forked), App(X, Nil())),
                       A)
        assert (d.rule, d.expected, d.found) == ("axiom", "a", "b")

    def test_discarded_pair_component_must_be_typeable(self):
        sig = EMPTY.with_entry(SigEntry(Z, A))
        good = AppCut(Pair(App(Z, Nil()), App(Z, Nil())), Proj1(Nil()))
        assert check_term(sig, [], good, A) is None
        bad = AppCut(Pair(App(Z, Nil()), App(Name("ghost"), Nil())),
                     Proj1(Nil()))
        assert check_term(sig, [], bad, A) is not None

    def test_unused_cut_data_still_screened(self):
        # Wildcard-dropped cut data must not be definitely ill-typed.
        bad = BindCut(PWild(), Thunk(App(Name("ghost"), Nil())),
                      Done(Thunk(ID)))
        d = check_term(EMPTY, [], bad, Up(Down(ID_TY)), structural=True)
        assert d is not None and d.rule == "unbound"


class TestApplicationCuts:
    """The application-cut rules R1, R2 and R3 at the root of the subject:
    for each, a cut that checks, a cut whose reduct fails (``body``) and a
    cut whose spine is of another connective (``spine``), plus the side
    conditions of R2 and R3.  A cut is judged by its reduct, so a failing
    body passes through the terms the reducer reaches from the cut."""

    SIG = EMPTY.with_entry(SigEntry(Z, A))
    ZZ = App(Z, Nil())
    SUM = Or(Down(A), Down(A))
    # (id, ctx, term, goal, None or (rule, expected, found, note))
    CASES = [
        ("R1", [], AppCut(Lam(Var(X), Lam(Var(Y), App(X, Nil()))),
                          Cons(Thunk(ZZ), Cons(Thunk(ZZ), Nil()))), A, None),
        ("R1 body", [], AppCut(ID, Cons(Thunk(ZZ), Nil())), Up(Down(A)),
         ("axiom", "up (dn a)", "a", "unfinished spine")),
        ("R1 spine", [], AppCut(ID, Kappa(Var(Y), ZZ)), A,
         ("app-cut", "argument spine for a function", "kappa", "")),
        ("R2", [], AppCut(Done(Thunk(ZZ)), Kappa(Var(X), App(X, Nil()))), A,
         None),
        ("R2 body", [],
         AppCut(Done(Thunk(ZZ)), Kappa(Var(X), App(X, Proj1(Nil())))), A,
         ("with-left-1", "conjunction under focus", "a", "")),
        ("R2 spine", [], AppCut(Done(Thunk(ZZ)), Proj2(Nil())), A,
         ("app-cut", "kappa spine for returned data", ".2", "")),
        # The context is discharged before the spine is looked at.
        ("R2 context", [(POr(W, Var(X), Var(Y)), SUM)],
         AppCut(Done(Thunk(ZZ)), Proj2(Nil())), A,
         ("done", "empty inversion context", "{[[x|y]_w] : (dn a) + dn a}",
          "")),
        ("R3", [], AppCut(Pair(ZZ, ID), Proj1(Nil())), A, None),
        ("R3 body", [], AppCut(Pair(ZZ, ID), Proj2(Nil())), A,
         ("lambda", "implication goal", "a", "")),
        ("R3 spine", [], AppCut(Pair(ZZ, ZZ), Kappa(Var(X), ZZ)), A,
         ("app-cut", "projection spine for a pair", "kappa", "")),
        # The projected-away component must still be typeable.
        ("R3 dropped", [],
         AppCut(Pair(ZZ, App(Name("ghost"), Nil())), Proj1(Nil())), A,
         ("unbound", "declared variable", "ghost", "")),
        # A split under an empty spine drops the spine before it splits.
        ("R4", [(POr(W, Var(X), Var(Y)), SUM)],
         AppCut(Split(W, App(X, Nil()), App(Y, Nil())), Nil()), A, None),
        ("R4 body", [(POr(W, Var(X), Var(Y)), SUM)],
         AppCut(Split(W, App(X, Nil()), App(Y, Proj1(Nil()))), Nil()), A,
         ("with-left-1", "conjunction under focus", "a", "")),
    ]

    @pytest.mark.parametrize("ctx, t, goal, expected",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_verdict(self, ctx, t, goal, expected):
        d = check_term(self.SIG, ctx, t, goal)
        assert (d and (d.rule, d.expected, d.found, d.note)) == expected

    @pytest.mark.parametrize("ctx, t, goal", [case[1:4] for case in CASES
                                              if case[0].endswith(" body")],
                             ids=[case[0] for case in CASES
                                  if case[0].endswith(" body")])
    def test_body_trail_follows_the_reducer(self, ctx, t, goal):
        from suite import cut_reducts
        from seqcore.core_text import print_term, print_type
        frames = list(reversed(check_term(self.SIG, ctx, t, goal).trail))
        reducts = cut_reducts(self.SIG, t)
        assert reducts
        assert frames[1:1 + len(reducts)] == [
            f"check {print_term(u)} : {print_type(goal)}" for u in reducts]


class TestFailureRules:
    """One subject per failure that the other tests never reach: the rule
    that fails, what it expected and what it found.  Data ``inl c`` has no
    synthesizable type, so a cut on it is judged by its reduct."""

    C = Name("c")
    SIG = EMPTY.with_entry(SigEntry(C, A))
    SUM = Or(Down(A), Down(A))
    UNTYPED = Inl(eta(C))
    V = Name("v")
    # (id, ctx, term, goal, structural, (rule, expected, found))
    CASES = [
        ("linear context", [(Var(X), Down(A)), (Var(X), Down(A))],
         App(X, Nil()), A, False,
         ("linear", "pairwise distinct context binders", "x, x")),
        ("cut contraction disabled", [],
         BindCut(PAt(Var(X), Var(Y)), UNTYPED, App(C, Nil())), A, False,
         ("structural-disabled", "structural-patterns flag",
          "contraction pattern p @ q")),
        # Both copies of the injection are left undischargeable.
        ("cut contraction", [],
         BindCut(PAt(Var(X), Var(Y)), UNTYPED, App(C, Nil())), A, True,
         ("var-app", "empty inversion context",
          "{x : <positive>, y : <positive>}")),
        ("cut pair against pair", [],
         BindCut(PPair(Var(X), Var(Y)), DPair(UNTYPED, eta(C)),
                 App(Y, Nil())), A, False,
         ("var-app", "empty inversion context", "{x : <positive>}")),
        ("cut pair against injection", [],
         BindCut(PPair(Var(X), Var(Y)), UNTYPED, App(C, Nil())), A, False,
         ("bind-cut", "pair data", "inl")),
        ("cut or-pattern against pair", [],
         BindCut(POr(W, Var(X), Var(Y)), DPair(UNTYPED, eta(C)),
                 App(C, Nil())), A, False,
         ("bind-cut", "injection data", "pair")),
        # The body does not mention x: the cut reduces to it unchanged.
        ("cut unused variable", [],
         BindCut(Var(X), Thunk(ID), App(Name("nope"), Nil())), A, False,
         ("unbound", "declared variable", "nope")),
        ("cut clash", [],
         BindCut(Var(X), Thunk(ID), Split(X, App(C, Nil()), App(C, Nil()))),
         A, False, ("bind-cut", "well-sorted variable use", "x")),
        ("unique split label", [],
         Lam(POr(W, Var(X), Var(Y)), Lam(POr(W, Var(Z), Var(V)),
                                         App(C, Nil()))),
         Imp(SUM, Imp(SUM, A)), False,
         ("or-left", "unique split label", "w")),
        # The cut's data is typed without the pending hypothesis; its body
        # still has it.
        ("focus zone with pending", [],
         Lam(POr(W, Var(X), Var(Y)), BindCut(Var(V), eta(C), App(V, Nil()))),
         Imp(SUM, A), False,
         ("var-app", "empty inversion context",
          "{[[x|y]_w] : (dn a) + dn a}")),
    ]

    @pytest.mark.parametrize("ctx, t, goal, structural, expected",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_failure(self, ctx, t, goal, structural, expected):
        d = check_term(self.SIG, ctx, t, goal, structural=structural)
        assert (d.rule, d.expected, d.found) == expected


class TestAdmissibility:
    def test_weakening(self):
        from gen_corpus import generate_corpus
        sig, corpus = generate_corpus(60, 10, seed=23)
        wide = sig.with_entry(SigEntry(fresh("extra"), With(A, A)))
        for t, goal in corpus:
            assert check_term(wide, [], t, goal) is None

    def test_store_rule_invariance(self):
        # Pre-moving a thunk-typed variable from the context into the
        # persistent zone does not change any verdict.
        rng = random.Random(4)
        from gen_corpus import Gen, std_sig
        sig = std_sig()
        gen = Gen(sig, rng)
        for _ in range(60):
            v = fresh("v")
            inner = Imp(Down(A), A)
            body = gen.term({v: inner}, (), A, 8)
            as_ctx = check_term(sig, [(Var(v), Down(inner))], body, A)
            as_sig = check_term(sig.with_entry(SigEntry(v, inner)), [], body, A)
            assert (as_ctx is None) == (as_sig is None)

    def test_checking_is_deterministic(self):
        from gen_corpus import generate_corpus
        _, corpus = generate_corpus(30, 10, seed=29)
        sig = EMPTY
        from gen_corpus import std_sig
        sig = std_sig()
        for t, goal in corpus:
            assert check_term(sig, [], t, goal) is None
            assert check_term(sig, [], t, goal) is None


class TestTotality:
    def test_checker_never_crashes_on_well_scoped_junk(self):
        # Every size<=6 term, well-typed or not, yields ok or a Diagnostic.
        from enum_all import Enumerator
        from suite import tiny_sig
        from seqcore.diag import Diagnostic
        sig = tiny_sig()
        en = Enumerator((Name("z"), Name("f")), structural=True)
        goals = [A, ID_TY]
        for t in en.all_terms(6):
            for g in goals:
                out = check_term(sig, [], t, g, structural=True)
                assert out is None or isinstance(out, Diagnostic)

    def test_evaluator_never_crashes_on_well_scoped_junk(self):
        from enum_all import Enumerator
        from suite import tiny_sig
        from step_reference import StepResult, step
        from seqcore.reduce import normalize
        sig = tiny_sig()
        en = Enumerator((Name("z"), Name("f")), structural=True)
        for t in en.all_terms(6):
            assert isinstance(step(sig, t), StepResult)
            res = normalize(sig, t, 50)
            assert res.steps <= 50


class TestOracleAgreementSmoke:
    """Fast small-size oracle agreement; the full size-8 sweep runs in the
    acceptance suite."""

    def test_terms_up_to_size_five(self):
        from enum_all import Enumerator
        from suite import tiny_sig
        sig = tiny_sig()
        goals = [A, ID_TY, Up(Or(Down(A), Down(A)))]
        oracle = make_oracle(sig, goals, bound=7, structural=True)
        en = Enumerator((Name("z"), Name("f")), structural=True)
        checked = 0
        for t in en.all_terms(5):
            for g in goals:
                mine = check_term(sig, [], t, g, structural=True) is None
                assert mine == oracle.inv((), (), t, g), \
                    f"{t} at {g}: checker={mine}"
                checked += 1
        assert checked > 100

    def test_cut_candidate_bound_has_plateaued(self):
        # Raising the oracle's cut-formula bound past the one the acceptance
        # sweep uses changes no verdict on the cut-bearing small corpus.
        from enum_all import Enumerator
        from suite import tiny_sig
        from seqcore.syntax import is_cut_free
        sig = tiny_sig()
        goals = [A, ID_TY, Up(Or(Down(A), Down(A)))]
        lo = make_oracle(sig, goals, bound=9, structural=True)
        hi = make_oracle(sig, goals, bound=11, structural=True)
        en = Enumerator((Name("z"), Name("f")), structural=True)
        checked = 0
        for t in en.all_terms(6):
            if is_cut_free(t):
                continue
            for g in goals:
                assert lo.inv((), (), t, g) == hi.inv((), (), t, g)
                checked += 1
        assert checked > 100


class TestDiagnosticPin:
    """Every checker outcome on a small enumerated corpus, hashed.

    The oracle sweeps compare verdicts only; this pins what a failure says:
    rule, expected, found, note and the judgment trail, plus the type that
    synthesis returns.  Any change to a diagnostic's text or to the frames
    pushed on its way out changes the digest."""

    SIZE = 7
    OUTCOMES = 38569
    DIGEST = "8f627556c16502b94ea0202f62def1aa53d06f15b2adc771a7a6645bc95dec1b"

    @staticmethod
    def _dep_sig() -> Sig:
        # z : a, f : Pi (x : dn a). up (Sigma (y : dn a). dn a)
        sigma = Sigma(Name("y"), Down(A), Down(A))
        return Sig(frozenset({Name("a")}),
                   (SigEntry(Name("z"), A),
                    SigEntry(Name("f"), Pi(X, Down(A), Up(sigma)))))

    def _outcomes(self):
        from enum_all import Enumerator
        from suite import tiny_sig
        from seqcore.check_dep import dep_bind_cut, dep_check_spine, dep_check_term
        from seqcore.core_text import print_type
        from seqcore.diag import CheckError

        def diag(d):
            if d is None:
                return "ok"
            return repr((d.rule, d.expected, d.found, d.note, d.trail))

        def inferred(sig, t, flag):
            try:
                ty = infer_term(sig, t, structural=flag)
            except CheckError as e:
                return "fail " + diag(e.diagnostic)
            return "unknown" if ty is UNKNOWN else "type " + print_type(ty)

        sig, dsig = tiny_sig(), self._dep_sig()
        sigma = Sigma(Name("y"), Down(A), Down(A))
        term_goals = [A, ID_TY, Up(Or(Down(A), Down(A)))]
        data_goals = [Down(ID_TY), Or(Down(A), Down(ID_TY)),
                      Prod(Down(A), Down(A))]
        spine_goals = [(ID_TY, A), (With(A, Up(Or(Down(A), Down(A)))), A)]
        dep_goals = [A, Pi(X, Down(A), A), Up(sigma)]
        dep_spine_goals = [(dsig.lookup(Name("f")).type, A), (Up(sigma), A)]
        sum_ctx = [(X, Or(Down(A), Down(A)))]
        for structural in (True, False):
            en = Enumerator((Name("z"), Name("f")), structural=structural)
            for t in en.all_terms(self.SIZE):
                for flag in (False, True):
                    for g in term_goals:
                        yield diag(check_term(sig, [], t, g, structural=flag))
                    yield inferred(sig, t, flag)
                for g in dep_goals:
                    yield diag(dep_check_term(dsig, [], t, g))
            for d in en.all_datas(self.SIZE):
                for flag in (False, True):
                    for g in data_goals:
                        yield diag(check_data(sig, d, g, structural=flag))
            for k in en.all_spines(self.SIZE):
                for flag in (False, True):
                    for focus, g in spine_goals:
                        yield diag(check_spine(sig, focus, k, g,
                                               structural=flag))
                for focus, g in dep_spine_goals:
                    yield diag(dep_check_spine(dsig, [], focus, k, g))
            # Open terms over x: a sum hypothesis to split, and binding cuts
            # of x to every small data value.
            opens = [t for n in range(1, 5)
                     for t in en.terms(n, (X,), (X,), 1, 1)]
            for t in opens:
                for g in (A, Up(sigma)):
                    yield diag(dep_check_term(dsig, sum_ctx, t, g))
            for d in en.all_datas(4):
                for t in opens:
                    yield diag(dep_bind_cut(dsig, [], X, d, t, A))

    def test_outcomes_digest(self, monkeypatch):
        import hashlib
        import itertools
        from seqcore import syntax
        # Substitution may regenerate binders; start their tags at a fixed
        # point so the digest does not depend on which tests ran first.
        monkeypatch.setattr(syntax, "_fresh_counter", itertools.count(1))
        h = hashlib.sha256()
        n = 0
        for line in self._outcomes():
            h.update(line.encode("utf-8") + b"\n")
            n += 1
        assert (n, h.hexdigest()) == (self.OUTCOMES, self.DIGEST)
