"""Evaluator: rule-level golden steps, normalization, traces, invariants."""

import pytest

from core_reader import parse_term
from step_reference import NormalForm, Stepped, Stuck, step
from seqcore import reduce
from seqcore.check import check_term
from seqcore.reduce import FuelExhausted, NormalizeResult, normalize, trace
from seqcore.surface import load_program
from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr,
    Kappa, Lam, Name, Nil, Or, Pair, POr, PPair, Prod, Proj1, Proj2, PWild,
    Sig, SigEntry, Split, Thunk, Up, Var, With, alpha_eq, eta, is_cut_free,
)

A = Atom(Name("a"))
X, Y, Z, W = Name("x"), Name("y"), Name("z"), Name("w")
ID = Lam(Var(X), App(X, Nil()))
ID2 = Lam(Var(Y), App(Y, Nil()))
EMPTY = Sig(frozenset({Name("a")}))


class TestSingleSteps:
    def test_beta(self):
        # (\p. t) (d :: k)  ~>  (let p = d in t) k
        t = AppCut(ID, Cons(Thunk(ID2), Nil()))
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R1"
        assert r.next == AppCut(BindCut(Var(X), Thunk(ID2), App(X, Nil())), Nil())

    def test_done_kappa(self):
        # (done d) (kappa p. t)  ~>  let p = d in t
        d = Inl(Thunk(ID))
        t = AppCut(Done(d), Kappa(Var(X), App(X, Nil())))
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R2"
        assert r.next == BindCut(Var(X), d, App(X, Nil()))

    def test_pair_projection(self):
        t = AppCut(Pair(App(Z, Nil()), ID), Proj1(Nil()))
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R3"
        assert r.next == AppCut(App(Z, Nil()), Nil())

    def test_empty_spine(self):
        r = step(EMPTY, AppCut(ID, Nil()))
        assert isinstance(r, Stepped) and r.rule == "R4" and r.next == ID

    def test_bind_decomposition(self):
        d = DPair(Thunk(ID), Thunk(ID2))
        t = BindCut(PPair(Var(X), Var(Y)), d, Pair(App(X, Nil()), App(Y, Nil())))
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R5"
        assert r.next == BindCut(Var(X), Thunk(ID),
                                 BindCut(Var(Y), Thunk(ID2),
                                         Pair(App(X, Nil()), App(Y, Nil()))))

    def test_or_bind_selects_branch(self):
        body = Split(W, App(X, Nil()), Done(Thunk(ID)))
        t = BindCut(POr(W, Var(X), Var(Y)), Inl(Thunk(ID)), body)
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R5"
        assert r.next == BindCut(Var(X), Thunk(ID), App(X, Nil()))

    def test_substitution(self):
        t = BindCut(Var(X), Thunk(ID2), App(X, Nil()))
        r = step(EMPTY, t)
        assert isinstance(r, Stepped) and r.rule == "R6"
        assert r.next == AppCut(ID2, Nil())

    def test_spine_merge_counts(self):
        # (x k1) k2 steps once; the merged argument spine is k1 ++ k2.
        sig = EMPTY.with_entry(
            SigEntry(Z, Imp(Down(A), Imp(Down(A), Imp(Down(A), A)))))
        sig = sig.with_entry(SigEntry(Name("c"), A))
        c = eta(Name("c"))
        k1 = Cons(c, Cons(c, Nil()))
        k2 = Cons(c, Nil())
        r = step(sig, AppCut(App(Z, k1), k2))
        assert isinstance(r, Stepped) and r.rule == "R7"
        out = r.next
        assert isinstance(out, App)
        n = 0
        k = out.spine
        while isinstance(k, Cons):
            n += 1
            k = k.rest
        assert n == 3 and isinstance(k, Nil)

    def test_delta_unfolding(self):
        sig = EMPTY.with_entry(SigEntry(Name("idf"), Imp(Down(A), A), ID))
        r = step(sig, App(Name("idf"), Nil()))
        assert isinstance(r, Stepped) and r.rule == "R7"
        assert r.next == AppCut(ID, Nil())

    def test_postulate_head_is_normal(self):
        sig = EMPTY.with_entry(SigEntry(Name("q"), A))
        assert isinstance(step(sig, App(Name("q"), Nil())), NormalForm)

    def test_cut_free_is_normal(self):
        assert isinstance(step(EMPTY, ID), NormalForm)

    def test_ill_shapes_stick(self):
        r = step(EMPTY, AppCut(ID, Proj1(Nil())))
        assert isinstance(r, Stuck)
        r = step(EMPTY, BindCut(PPair(Var(X), Var(Y)), Inl(Thunk(ID)),
                                App(X, Nil())))
        assert isinstance(r, Stuck)

    def test_determinism(self):
        t = AppCut(ID, Cons(Thunk(ID2), Nil()))
        assert step(EMPTY, t) == step(EMPTY, t)


class TestNormalize:
    def test_identity_applied_to_thunked_identity(self):
        t = AppCut(ID, Cons(Thunk(ID2), Nil()))
        res = normalize(EMPTY, t, 100)
        assert alpha_eq(res.term, ID2)
        assert res.steps <= 5
        assert res.stuck is None

    def test_trace_rules_beta(self):
        # Verified against the single-step rules: beta, drop the empty
        # spine, substitute, drop the empty spine again.
        t = AppCut(ID, Cons(Thunk(ID2), Nil()))
        steps, res = trace(EMPTY, t, 100)
        assert [r for r, _ in steps] == ["R1", "R4", "R6", "R4"]
        assert alpha_eq(res.term, ID2)

    def test_trace_rules_done_kappa(self):
        t = AppCut(Done(Thunk(ID)), Kappa(Var(X), App(X, Nil())))
        steps, _ = trace(EMPTY, t, 100)
        assert [r for r, _ in steps] == ["R2", "R6", "R4"]

    def test_worked_example_inr_clause(self):
        # Applying the compiled sum eliminator to a thunked done-value
        # realizes its second clause directly.
        f = Lam(POr(W, PPair(Var(X), Var(Y)), Var(Z)),
                Split(W, App(Name("add"), Cons(eta(X), Cons(eta(Y), Nil()))),
                      App(Z, Nil())))
        d0 = Inl(Thunk(ID))
        t = AppCut(f, Cons(Inr(Thunk(Done(d0))), Nil()))
        res = normalize(EMPTY, t, 100)
        assert res.term == Done(d0)
        assert res.steps <= 20

    def test_normal_form_unchanged(self):
        res = normalize(EMPTY, ID, 100)
        assert res.term == ID and res.steps == 0

    def test_trace_of_normal_form_is_empty(self):
        steps, res = trace(EMPTY, ID, 100)
        assert steps == [] and res.steps == 0

    def test_fuel_exhaustion(self):
        t = AppCut(ID, Cons(Thunk(ID2), Nil()))
        with pytest.raises(FuelExhausted):
            normalize(EMPTY, t, 1)

    def test_reduces_under_binders_to_cut_freeness(self):
        # Substitution plants a cut under a binder; normalization must
        # reach it.
        t = AppCut(Lam(Var(X), Done(Thunk(Lam(Var(Y), App(X, Nil()))))),
                   Cons(Thunk(ID2), Nil()))
        res = normalize(EMPTY, t, 100)
        assert res.stuck is None
        assert is_cut_free(res.term)


class TestStuckText:
    """A stuck result carries the reason of the clash that stopped the
    walk, whether a substitution (R6) or a cut clashes, and the reference
    step reports the same reason."""

    @pytest.mark.parametrize("src, reason", [
        ("let x = inl thunk (z []) in x []",
         "substituting non-thunk data for applied variable x"),
        ("(\\x. x []) .1 []", "function applied to projection spine"),
    ], ids=["substitution", "cut"])
    def test_reason(self, src, reason):
        t = parse_term(src)
        assert normalize(EMPTY, t, 100) == NormalizeResult(t, 0, stuck=reason)
        assert step(EMPTY, t) == Stuck(reason)


class TestSubjectReductionUnit:
    def test_generated_corpus(self):
        from gen_corpus import generate_corpus
        sig, corpus = generate_corpus(120, 12, seed=41)
        for t, goal in corpus:
            cur = t
            for _ in range(10000):
                r = step(sig, cur)
                if isinstance(r, Stepped):
                    cur = r.next
                    assert check_term(sig, [], cur, goal) is None, \
                        f"subject reduction failed after {r.rule}"
                elif isinstance(r, Stuck):
                    pytest.fail(f"stuck on well-typed term: {r.reason}")
                else:
                    break

    def test_structural_pattern_corpus(self):
        # Contraction and wildcard patterns reduce (R5) and stay well-typed
        # under the structural flag.
        from gen_corpus import generate_corpus
        sig, corpus = generate_corpus(80, 12, seed=43, structural=True)
        for t, goal in corpus:
            cur = t
            for _ in range(10000):
                r = step(sig, cur)
                if isinstance(r, Stepped):
                    cur = r.next
                    assert check_term(sig, [], cur, goal,
                                      structural=True) is None
                elif isinstance(r, Stuck):
                    pytest.fail(f"stuck on well-typed term: {r.reason}")
                else:
                    break


# ---------------------------------------------------------------------------
# normalize/trace against the reference: a loop over ``step``

def _step_loop(sig, t, fuel):
    """The rules, terms and result of iterating ``step``, or the term and
    step count of the FuelExhausted it raises."""
    out, steps = [], 0
    while True:
        r = step(sig, t)
        if isinstance(r, NormalForm):
            return out, NormalizeResult(t, steps)
        if isinstance(r, Stuck):
            return out, NormalizeResult(t, steps, stuck=r.reason)
        steps += 1
        if steps > fuel:
            return "fuel", t, steps - 1
        out.append((r.rule, r.next))
        t = r.next


def _outcome(run, *args):
    try:
        return run(*args)
    except FuelExhausted as e:
        return "fuel", e.term, e.steps


FUELS = (1, 2, 3, 4, 10000)


def _assert_same_as_step(sig, t):
    for fuel in FUELS:
        want = _step_loop(sig, t, fuel)
        assert _outcome(trace, sig, t, fuel) == want
        assert _outcome(normalize, sig, t, fuel) == (
            want if want[0] == "fuel" else want[1])


class TestRefocusingMatchesStep:
    # The corpora the subject reduction tests sweep.
    @pytest.mark.parametrize("count, seed, structural", [
        (500, 2024, False), (120, 41, False), (150, 5, True), (80, 43, True),
    ])
    def test_generated_corpus(self, count, seed, structural):
        from gen_corpus import generate_corpus
        sig, corpus = generate_corpus(count, 12, seed=seed,
                                      structural=structural)
        for t, _goal in corpus:
            _assert_same_as_step(sig, t)

    def test_example_suite_entry_applications(self):
        from suite import SUITE, entry_applications, load
        for name, mode, _structural in SUITE:
            run_sig, runs = entry_applications(load(name), mode)
            for term, _goal in runs:
                _assert_same_as_step(run_sig, term)

    @pytest.mark.parametrize("t", [
        # The function position of an application cut rewrites to a
        # function, under a projection and under an argument.
        AppCut(AppCut(ID, Nil()), Proj1(Nil())),
        AppCut(AppCut(AppCut(ID, Nil()), Nil()), Proj1(Nil())),
        AppCut(AppCut(ID, Nil()), Cons(Thunk(ID2), Nil())),
        # ... and to an application, under an argument.
        AppCut(AppCut(AppCut(ID, Cons(Thunk(ID2), Nil())), Nil()),
               Cons(Thunk(ID), Nil())),
        # A split in function position is normal while its branches reduce.
        AppCut(Split(W, AppCut(ID, Nil()), AppCut(ID2, Nil())),
               Proj1(Nil())),
        # The thunk scrutinized by a pair or an or-pattern reduces to a
        # function: the binding cut two levels up sticks.
        BindCut(PPair(Var(X), Var(Y)), Thunk(AppCut(ID, Nil())),
                App(X, Nil())),
        BindCut(POr(W, Var(X), Var(Y)),
                Thunk(AppCut(AppCut(ID, Nil()), Nil())),
                Split(W, App(X, Nil()), App(Y, Nil()))),
        BindCut(PPair(Var(X), Var(Y)),
                Thunk(AppCut(ID, Cons(Thunk(ID2), Nil()))),
                App(X, Nil())),
        # ... and to a postulate application: normal.
        BindCut(PPair(Var(X), Var(Y)),
                Thunk(AppCut(Lam(Var(Z), App(Name("c"), Nil())),
                             Cons(Thunk(ID), Nil()))),
                App(X, Nil())),
        # A redex left of a stuck node, and a stuck node left of a redex.
        Pair(AppCut(ID, Cons(Thunk(ID2), Nil())), AppCut(ID, Proj1(Nil()))),
        Pair(AppCut(ID, Proj1(Nil())), AppCut(ID, Cons(Thunk(ID2), Nil()))),
        # Rewrites whose parent cannot change status.  In the body of a
        # pair-pattern cut pending on a thunk of an applied postulate:
        BindCut(PPair(Var(X), Var(Y)), Thunk(App(Name("c"), Nil())),
                AppCut(ID, Cons(Thunk(ID2), Nil()))),
        # in a spine argument under a split in function position:
        AppCut(Split(W, App(X, Nil()), App(Y, Nil())),
               Cons(Thunk(AppCut(ID, Cons(Thunk(ID2), Nil()))), Nil())),
        # in a split branch under an application cut:
        AppCut(Split(W, AppCut(ID, Cons(Thunk(ID2), Nil())),
                     AppCut(AppCut(ID2, Nil()), Nil())),
               Cons(Thunk(ID), Nil())),
        # and under two nested pending binding cuts, where the inner one
        # stays pending or sticks.
        BindCut(PPair(Var(X), Var(Y)),
                Thunk(BindCut(PPair(Var(Z), Var(W)),
                              Thunk(AppCut(Lam(Var(Z), App(Name("c"), Nil())),
                                           Cons(Thunk(ID), Nil()))),
                              App(Z, Nil()))),
                App(X, Nil())),
        BindCut(PPair(Var(X), Var(Y)),
                Thunk(BindCut(PPair(Var(Z), Var(W)),
                              Thunk(AppCut(ID, Nil())), App(Z, Nil()))),
                App(X, Nil())),
        BindCut(PPair(Var(X), Var(Y)), Thunk(App(Name("c"), Nil())),
                BindCut(POr(W, Var(Z), Var(Y)),
                        Thunk(AppCut(AppCut(ID, Nil()), Nil())),
                        Split(W, App(Z, Nil()), App(X, Nil())))),
    ])
    def test_rewrite_below_a_checked_ancestor(self, t):
        _assert_same_as_step(EMPTY.with_entry(SigEntry(Name("c"), A)), t)


def _wide_program(k: int):
    """``f x = p (g x) ... (g x)`` with ``k`` calls and ``g x = op x``."""
    source = "".join([
        "atom a\n",
        "postulate q : a\n",
        "postulate op : a -> a\n",
        "postulate p : " + " -> ".join(["a"] * (k + 1)) + "\n",
        "g : a -> a\n",
        "g x = op x\n",
        "f : a -> a\n",
        "f x = p" + " (g x)" * k + "\n",
    ])
    prog = load_program(source, "wide.seq")
    return prog.sig, App(Name("f"), Cons(eta(Name("q")), Nil()))


class TestRefocusingWork:
    def test_root_checks_grow_linearly_on_wide(self, monkeypatch):
        calls = [0]
        step_root = reduce._step_root

        def counting(sig, x):
            calls[0] += 1
            return step_root(sig, x)

        monkeypatch.setattr(reduce, "_step_root", counting)
        counts = []
        for k in (100, 200):
            sig, t = _wide_program(k)
            calls[0] = 0
            res = normalize(sig, t)
            assert res.stuck is None and res.steps == 4 * (k + 1)
            counts.append(calls[0])
        assert counts[1] <= 2.2 * counts[0], counts

    @pytest.mark.parametrize("k", [100, 200])
    def test_work_per_step_on_wide(self, monkeypatch, k):
        # After a rewrite the walk goes on at the rewritten node: 2.99 root
        # checks and 0.75 frame rebuilds per step at k = 200.  Climbing
        # back through the parent and the grandparent after every rewrite
        # read 4.98 and 2.24.  Both are counted through the module bindings
        # the walk calls; a count of 0 would mean it calls them no more.
        calls = {"_step_root": 0, "with_children": 0}

        def counting(name):
            inner = getattr(reduce, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(reduce, name, counting(name))
        sig, t = _wide_program(k)
        res = normalize(sig, t)
        steps = res.steps
        assert res.stuck is None and steps == 4 * (k + 1)
        assert 0 < calls["_step_root"] <= 3 * steps + 8, (calls, steps)
        assert 0 < calls["with_children"] <= steps, (calls, steps)
