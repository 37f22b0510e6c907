"""Acceptance suite.

One test per criterion, each printing a pass line with its headline numbers.
Run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import pytest

from suite import (SUITE, check_program, entry_applications, load,
                   render_program, source)
from core_reader import parse_term
from oracle import make_oracle
from reference import ArgPool, NoMatch, Unrunnable, enumerate_data, make_reference
from step_reference import Stepped, Stuck, step
from seqcore.check import check_data, check_spine, check_term
from seqcore.check_dep import convert, dep_check_term
from seqcore.core_text import print_term, print_type
from seqcore.reduce import normalize, trace
from seqcore.surface import load_program
from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr,
    Kappa, Lam, Mode, Name, Nil, Or, Pair, PAt, Pi, POr, PPair, Prod, Proj1,
    PWild, Sig, SigEntry, Sigma, Split, Thunk, Up, Var, With, alpha_eq, eta,
    is_cut_free, size, subst_data,
)

NAT = Atom(Name("ℕ"))
A = Atom(Name("a"))


class TestAcceptance:
    def test_criterion_1_worked_example_typing(self):
        started = time.time()
        prog = load_program(source("f.seq"), "f.seq")
        assert len(prog.decls) == 3
        bad = check_program(prog, Mode.PROP, structural=False)
        assert not bad
        f = prog.find("f")
        x, y, z, w = Name("x"), Name("y"), Name("z"), Name("w")
        displayed = Lam(POr(w, PPair(Var(x), Var(y)), Var(z)),
                        Split(w,
                              App(Name("add"),
                                  Cons(eta(x), Cons(eta(y), Nil()))),
                              App(z, Nil())))
        assert alpha_eq(f.term, displayed)
        elapsed = time.time() - started
        assert elapsed < 1.0
        print(f"\nPASS criterion 1: worked example typechecks; compiled term "
              f"alpha-equal to the displayed one ({elapsed:.2f}s)")

    def test_criterion_2_worked_example_dynamics(self):
        prog = load_program(source("f_run.seq"), "f_run.seq")
        q, r = Name("q"), Name("r")
        inr_run = App(Name("f"), Cons(Inr(eta(q)), Nil()))
        res = normalize(prog.sig, inr_run, 10000)
        assert res.term == App(q, Nil())
        assert res.steps <= 20 and res.stuck is None
        inl_run = App(Name("f"), Cons(Inl(DPair(eta(q), eta(r))), Nil()))
        res2 = normalize(prog.sig, inl_run, 10000)
        stuck_add = App(Name("add"), Cons(eta(q), Cons(eta(r), Nil())))
        assert res2.term == stuck_add
        assert res2.steps <= 20
        print(f"\nPASS criterion 2: f (inr q) ~> q [] in {res.steps} steps; "
              f"f (inl (q, r)) ~> stuck add in {res2.steps} steps")

    def test_criterion_3_beta_and_kappa_redexes(self):
        # R1 fires exactly as printed on the worked example's trace.
        prog = load_program(source("f_run.seq"), "f_run.seq")
        q = Name("q")
        steps, _ = trace(prog.sig, App(Name("f"), Cons(Inr(eta(q)), Nil())), 100)
        rules = [rule for rule, _ in steps]
        assert rules[0] == "R7"          # delta-unfolding of f
        assert rules[1] == "R1"          # (\p.t) (d::k) ~> (let p = d in t) k
        after_beta = steps[1][1]
        assert isinstance(after_beta, AppCut)
        assert isinstance(after_beta.fun, BindCut)
        assert isinstance(after_beta.spine, Nil)
        # R2 fires exactly as printed on a done/kappa cut.
        x = Name("x")
        d = Thunk(Lam(Var(x), App(x, Nil())))
        t = AppCut(Done(d), Kappa(Var(x), App(x, Nil())))
        steps2, res2 = trace(Sig(frozenset({Name("a")})), t, 100)
        rules2 = [rule for rule, _ in steps2]
        assert rules2 == ["R2", "R6", "R4"]
        assert steps2[0][1] == BindCut(Var(x), d, App(x, Nil()))
        assert res2.stuck is None
        print(f"\nPASS criterion 3: R1 at trace position 2 ({rules}); "
              f"R2 at trace position 1 ({rules2})")

    def test_criterion_4_subject_reduction(self):
        from gen_corpus import generate_corpus
        started = time.time()
        sig, corpus = generate_corpus(500, 12, seed=2024)
        assert len(corpus) >= 500
        checked_steps = 0
        for t, goal in corpus:
            cur = t
            while True:
                r = step(sig, cur)
                if isinstance(r, Stepped):
                    cur = r.next
                    checked_steps += 1
                    assert check_term(sig, [], cur, goal) is None, \
                        f"after {r.rule}: {print_term(cur)}"
                elif isinstance(r, Stuck):
                    pytest.fail(f"stuck: {r.reason} in {print_term(cur)}")
                else:
                    break
        # The full example suite, including entry-point applications.
        for name, mode, structural in SUITE:
            prog = load(name)
            run_sig, runs = entry_applications(prog, mode)
            for term, goal in runs:
                cur = term
                for _ in range(10000):
                    if mode is Mode.DEP:
                        diag = dep_check_term(run_sig, [], cur, goal)
                    else:
                        diag = check_term(run_sig, [], cur, goal,
                                          structural=structural)
                    assert diag is None, \
                        f"{name}: {print_term(cur)} : {print_type(goal)} -- {diag}"
                    r = step(run_sig, cur)
                    if isinstance(r, Stepped):
                        cur = r.next
                        checked_steps += 1
                    elif isinstance(r, Stuck):
                        pytest.fail(f"{name}: stuck: {r.reason}")
                    else:
                        break
        elapsed = time.time() - started
        assert elapsed < 60.0
        print(f"\nPASS criterion 4: subject reduction over {len(corpus)} "
              f"generated terms and the example suite; {checked_steps} step "
              f"results re-typechecked ({elapsed:.1f}s)")

    def test_criterion_5_oracle_equivalence_checker(self):
        from enum_all import Enumerator
        from suite import tiny_sig
        sig = tiny_sig()
        a = A
        goals = [a, Imp(Down(a), a), Up(Or(Down(a), Down(a)))]
        data_goals = [Down(a), Down(Imp(Down(a), a)),
                      Or(Down(a), Down(a)), Prod(Down(a), Down(a))]
        spine_pairs = [(Imp(Down(a), a), a), (With(a, a), a),
                       (Up(Down(a)), a), (a, a)]
        oracle = make_oracle(sig, goals + [Up(p) for p in data_goals] +
                             [t for pair in spine_pairs for t in pair],
                             bound=9, structural=True)
        en = Enumerator((Name("z"), Name("f")), structural=True)
        checks = disagreements = 0
        for t in en.all_terms(8):
            for g in goals:
                mine = check_term(sig, [], t, g, structural=True) is None
                if mine != oracle.inv((), (), t, g):
                    disagreements += 1
                checks += 1
        for d in en.all_datas(8):
            for g in data_goals:
                mine = check_data(sig, d, g, structural=True) is None
                if mine != oracle.rfoc((), d, g):
                    disagreements += 1
                checks += 1
        for k in en.all_spines(8):
            for focus, g in spine_pairs:
                mine = check_spine(sig, focus, k, g, structural=True) is None
                if mine != oracle.lfoc((), focus, k, g):
                    disagreements += 1
                checks += 1
        assert disagreements == 0
        print(f"\nPASS criterion 5: checker agrees with the rule-search "
              f"oracle on {checks} judgments over all size<=8 syntax")

    def test_criterion_6_oracle_equivalence_compiler(self):
        compared = 0
        for name, mode, structural in SUITE:
            prog = load(name)
            pool = ArgPool(prog.sig, per_type=2)
            ref = make_reference(source(name), prog, pool)
            for d in prog.decls:
                if d.kind != "def":
                    continue
                arity = _clause_arity(ref, str(d.name))
                if arity is None:
                    continue
                arg_tuples = _arg_tuples(d.type, arity, pool)
                for args in arg_tuples:
                    try:
                        want = ref.run(str(d.name), list(args))
                    except (Unrunnable, NoMatch):
                        continue
                    term = App(d.name, _spine_of(args))
                    got = normalize(pool.sig, term, 10000)
                    assert got.stuck is None
                    assert alpha_eq(got.term, want), \
                        (f"{name}.{d.name} on "
                         f"{[print_term(Done(a)) for a in args]}: "
                         f"{print_term(got.term)} vs {print_term(want)}")
                    compared += 1
        assert compared >= 100
        print(f"\nPASS criterion 6: normalizer matches the first-match "
              f"reference interpreter on {compared} runs (args to depth 3)")

    def test_criterion_7_cut_free_normal_forms(self):
        prog = load("pfree.seq")
        run_sig, runs = entry_applications(prog, Mode.PROP, depth=3)
        checked = 0
        for term, _goal in runs:
            res = normalize(run_sig, term, 10000)   # raises if fuel runs out
            assert res.stuck is None
            assert is_cut_free(res.term), print_term(res.term)
            checked += 1
        # partial applications of the function-typed entries as well
        idref = Thunk(App(Name("idA"), Nil()))
        extra = [
            App(Name("twiceF"), Cons(idref, Nil())),
            App(Name("papply"), Cons(idref, Nil())),
            App(Name("pack"), Cons(idref, Nil())),
            App(Name("choose"), Cons(Inl(idref), Nil())),
            App(Name("choose"), Cons(Inr(idref), Nil())),
            App(Name("twiceF"),
                Cons(Thunk(App(Name("papply"), Cons(idref, Nil()))), Nil())),
        ]
        for term in extra:
            res = normalize(prog.sig, term, 10000)
            assert res.stuck is None
            assert is_cut_free(res.term), print_term(res.term)
            checked += 1
        assert checked >= 6
        print(f"\nPASS criterion 7: {checked} postulate-free runs normalize "
              f"cut-free within fuel 10000")

    def test_criterion_8_dependent_fragment(self):
        # degenerate-sigma swap
        w0, u, v = Name("w0"), Name("u"), Name("v")
        empty = Sig(frozenset({Name("a")}))
        ctx = [(w0, Sigma(Name("p"), Down(A), Down(A)))]
        body = BindCut(PPair(Var(u), Var(v)), eta(w0),
                       Done(DPair(eta(v), eta(u))))
        assert dep_check_term(empty, ctx, body,
                              Up(Sigma(Name("q"), Down(A), Down(A)))) is None
        # a genuinely dependent product application
        sig = Sig(frozenset({Name("a"), Name("c"), Name("P")}))
        sig = sig.with_entry(SigEntry(Name("n"), Atom(Name("c"))))
        xv = Name("xv")
        sig = sig.with_entry(SigEntry(
            Name("mk"), Pi(xv, Down(Atom(Name("c"))),
                           Atom(Name("P"), (eta(xv),)))))
        tm = App(Name("mk"), Cons(eta(Name("n")), Nil()))
        assert dep_check_term(sig, [], tm,
                              Atom(Name("P"), (eta(Name("n")),))) is None
        assert dep_check_term(sig, [], tm,
                              Atom(Name("P"), ())) is not None
        # or-left motive substitution, hand derivation
        Q, X = Name("Q"), Name("x")
        sig3 = Sig(frozenset({Name("a"), Q}))
        yv, zv = Name("yv"), Name("zv")
        sig3 = sig3.with_entry(SigEntry(
            Name("h1"), Pi(yv, Down(A), Atom(Q, (Inl(eta(yv)),)))))
        sig3 = sig3.with_entry(SigEntry(
            Name("h2"), Pi(zv, Down(A), Atom(Q, (Inr(eta(zv)),)))))
        motive_tm = Split(X, App(Name("h1"), Cons(eta(X), Nil())),
                          App(Name("h2"), Cons(eta(X), Nil())))
        assert dep_check_term(sig3, [(X, Or(Down(A), Down(A)))], motive_tm,
                              Atom(Q, (eta(X),))) is None
        # conservativity over the dependency-free corpus
        from test_check_dep import TestConservativity
        TestConservativity().test_dependency_free_corpus()
        # and the dependent example program checks end to end
        prog = load("swap_dep.seq")
        assert not check_program(prog, Mode.DEP, structural=False)
        print("\nPASS criterion 8: swap, dependent application, or-left "
              "motive, and conservativity all hold")

    def test_criterion_9_structural_patterns(self):
        empty = Sig(frozenset({Name("a")}))
        X, Y = Name("x"), Name("y")
        at_term = Lam(PAt(Var(X), Var(Y)), Done(DPair(eta(X), eta(Y))))
        at_goal = Imp(Down(A), Up(Prod(Down(A), Down(A))))
        wild_term = Lam(PWild(), Done(Thunk(Lam(Var(X), App(X, Nil())))))
        wild_goal = Imp(Down(A), Up(Down(Imp(Down(A), A))))
        for t, g in ((at_term, at_goal), (wild_term, wild_goal)):
            assert check_term(empty, [], t, g, structural=True) is None
            d = check_term(empty, [], t, g, structural=False)
            assert d is not None and d.rule == "structural-disabled"
        # surface level: the wildcard/contraction program flips with the flag
        prog = load("wild.seq")
        assert not check_program(prog, Mode.PROP, structural=True)
        rejected = check_program(prog, Mode.PROP, structural=False)
        assert rejected and all(d.rule == "structural-disabled"
                                for _, d in rejected)
        print("\nPASS criterion 9: contraction and wildcard check with the "
              "flag and are rejected without it")

    def test_criterion_10_round_trips(self):
        # surface: pretty . compile . parse is stable on the program suite
        stable = 0
        for name, mode, structural in SUITE:
            if mode is Mode.DEP:
                continue
            prog = load(name)
            text1 = render_program(prog)
            text2 = render_program(load_program(text1, f"round-{name}"))
            assert text1 == text2, name
            stable += 1
        # core: print . parse is the identity up to alpha, and literal on the
        # second trip
        from gen_corpus import generate_corpus
        _, corpus = generate_corpus(150, 12, seed=5, structural=True)
        terms = [t for t, _ in corpus]
        for name, mode, structural in SUITE:
            prog = load(name)
            terms += [d.term for d in prog.decls if d.kind == "def"]
        for t in terms:
            s = print_term(t)
            back = parse_term(s)
            assert alpha_eq(back, t)
            assert print_term(back) == s
        print(f"\nPASS criterion 10: {stable} programs pretty-stable; "
              f"{len(terms)} core terms round-trip through text")


def _clause_arity(ref, name):
    clauses = ref.clauses.get(name)
    return len(clauses[0].lhs) if clauses else None


def _arg_tuples(ty, arity, pool, depth=3):
    if arity == 0:
        return [()]
    assert isinstance(ty, (Imp, Pi))
    out = []
    for d in enumerate_data(ty.arg, depth, pool):
        rest_ty = ty.res if isinstance(ty, Imp) else \
            subst_data(ty.res, ty.binder, d)
        for rest in _arg_tuples(rest_ty, arity - 1, pool, depth):
            out.append((d,) + rest)
    return out


def _spine_of(args):
    k = Nil()
    for d in reversed(args):
        k = Cons(d, k)
    return k
