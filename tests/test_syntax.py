"""Kernel syntax: well-formedness, substitution, spines, alpha."""

import ast
import hashlib
import importlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

from suite import cyclic_garbage
import seqcore
from seqcore.core_text import print_term
from seqcore.syntax import (
    App, Atom, BindCut, Cons, Done, Down, DPair, Imp, Inl, Inr, Kappa, Lam,
    Layout, Mode, Name, Nil, Or, Pair, PAt, Pi, POr, PPair, Prod, Proj1,
    Proj2, PWild, Sig, SigEntry, Sigma, Split, Thunk, Up, Var, With, alpha_eq,
    children,
    eta, free_names, fresh, is_cut_free, pattern_vars, rename,
    size, spine_concat, subst_data, well_formed_neg,
    well_formed_pos, with_children,
)

A = Atom(Name("a"))
NAT = Atom(Name("nat"))


def sig_with(*atoms: str) -> Sig:
    return Sig(frozenset(Name(a) for a in atoms))


class TestWellFormed:
    def test_smallest_function_type(self):
        sig = sig_with("nat")
        assert well_formed_neg(Imp(Down(NAT), NAT), sig, Mode.PROP)

    def test_undeclared_atom(self):
        sig = sig_with("nat")
        problems = []
        assert not well_formed_neg(Atom(Name("m")), sig, Mode.PROP,
                                   problems=problems)
        assert problems and problems[0].rule == "atom"

    def test_pi_rejected_in_propositional_mode(self):
        sig = sig_with("nat")
        ty = Pi(Name("x"), Down(NAT), NAT)
        assert not well_formed_neg(ty, sig, Mode.PROP)
        assert well_formed_neg(ty, sig, Mode.DEP)

    def test_prod_rejected_in_dependent_mode(self):
        sig = sig_with("a")
        assert not well_formed_pos(Prod(Down(A), Down(A)), sig, Mode.DEP)
        assert well_formed_pos(Sigma(Name("x"), Down(A), Down(A)), sig, Mode.DEP)

    @pytest.mark.parametrize("check, ty, mode, expected, found", [
        (well_formed_neg, Atom(Name("P"), (eta(Name("x")),)), Mode.PROP,
         "unindexed atom in propositional mode", "P with 1 argument(s)"),
        (well_formed_neg, Imp(Down(A), A), Mode.DEP, "Pi in dependent mode",
         "->"),
        (well_formed_pos, Sigma(Name("x"), Down(A), Down(A)), Mode.PROP,
         "* in propositional mode", "Sigma"),
    ], ids=["indexed atom", "arrow", "Sigma"])
    def test_mode_problem(self, check, ty, mode, expected, found):
        problems = []
        assert not check(ty, sig_with("a", "P"), mode,
                         scope=frozenset({Name("x")}), problems=problems)
        assert [(d.rule, d.expected, d.found) for d in problems] == [
            ("mode", expected, found)]

    def test_atom_arguments_scope(self):
        sig = sig_with("a", "P")
        x = Name("x")
        ty = Atom(Name("P"), (eta(x),))
        assert well_formed_neg(ty, sig, Mode.DEP, scope=frozenset({x}))
        assert not well_formed_neg(ty, sig, Mode.DEP)

    def test_polarity_soundness_subtrees(self):
        # Every subtree of a well-formed type is well-formed in that mode.
        sig = sig_with("a")
        ty = Imp(Or(Prod(Down(A), Down(A)), Down(A)),
                 With(A, Imp(Down(A), Up(Down(A)))))
        assert well_formed_neg(ty, sig, Mode.PROP)

        def subtrees(t):
            yield t
            for k in children(t):
                yield from subtrees(k)

        from seqcore.syntax import NegType, PosType
        subs = list(subtrees(ty))
        assert len(subs) == size(ty) == 17
        for sub in subs:
            if isinstance(sub, NegType):
                assert well_formed_neg(sub, sig, Mode.PROP)
            elif isinstance(sub, PosType):
                assert well_formed_pos(sub, sig, Mode.PROP)

    # sha256 of every verdict and problem below: a rewrite of the check
    # keeps each of them.
    PINNED = ("2f1c85a8a57568aeafd53d5e9fc473a9"
              "c812c4d69c8d1eec3215b6c7e0339c7a")

    def test_outcomes_pinned(self):
        # Every type of size <= 7 over one atom (45 negative, 29 positive),
        # each again with its arrows and products made dependent, and an
        # indexed atom undeclared, under a Pi, free, and scoped by the
        # caller; in both modes, through the name of the type's polarity.
        from oracle import types_upto
        from suite import embed_neg, embed_pos
        from seqcore.syntax import NegType
        negs, poss = types_upto(7, Name("a"))
        assert (len(negs), len(poss)) == (45, 29)
        x = Name("x")
        indexed = Atom(Name("P"), (eta(x),))
        cases = ([(ty, frozenset()) for ty in negs + poss]
                 + [(embed_neg(ty), frozenset()) for ty in negs]
                 + [(embed_pos(ty), frozenset()) for ty in poss]
                 + [(Atom(Name("m")), frozenset()),
                    (Pi(x, Down(A), indexed), frozenset()),
                    (indexed, frozenset()), (indexed, frozenset({x}))])
        sig = sig_with("a", "P")
        h = hashlib.sha256()
        for ty, scope in cases:
            check = (well_formed_neg if isinstance(ty, NegType)
                     else well_formed_pos)
            for mode in (Mode.PROP, Mode.DEP):
                problems = []
                ok = check(ty, sig, mode, scope, problems)
                h.update(repr((ok, [(d.rule, d.expected, d.found)
                                    for d in problems])).encode())
        assert h.hexdigest() == self.PINNED


class TestSubstInTypes:
    def test_no_occurrence_identity(self):
        assert subst_data(NAT, Name("x"), Thunk(App(Name("q"), Nil()))) == NAT

    def test_binder_shadowing(self):
        y = Name("y")
        ty = Pi(y, Down(A), A)
        assert subst_data(ty, y, Inl(Thunk(App(Name("q"), Nil())))) == ty

    def test_occurrence_count_oracle(self):
        # Count eta-occurrences of x before and after substituting.
        x, P = Name("x"), Name("P")
        replacement = Inl(Thunk(App(Name("t0"), Nil())))
        ty = Pi(Name("y"), Down(Atom(P, (eta(x),))),
                With(Atom(P, (eta(x),)), Atom(P, (eta(Name("y")),))))

        def count(t, target):
            # Occurrences of ``target`` as a subtree, and the nodes visited.
            n = visited = 0
            stack = [t]
            while stack:
                cur = stack.pop()
                visited += 1
                if cur == target:
                    n += 1
                    continue
                stack.extend(children(cur))
            return n, visited

        before, visited = count(ty, eta(x))
        assert (before, visited) == (2, size(ty) - 4)
        out = subst_data(ty, x, replacement)
        # The walk reaches every node the occurrences do not cover.
        assert count(out, eta(x)) == (0, size(out))
        assert count(out, replacement) == (before, size(out) - 6)

    def test_commutes_with_alpha_renaming(self):
        x, y, P = Name("x"), Name("y"), Name("P")
        d = Thunk(App(Name("q"), Nil()))
        ty = Pi(y, Down(Atom(P, (eta(x),))), Atom(P, (eta(y),)))
        renamed = Pi(Name("y2"), Down(Atom(P, (eta(x),))),
                     Atom(P, (eta(Name("y2")),)))
        assert alpha_eq(subst_data(ty, x, d), subst_data(renamed, x, d))


class TestCaptureAvoidance:
    """Substituting ``eta(y)`` for ``v`` under a binder named ``y`` keeps the
    substituted ``y`` free: the binder is regenerated and the occurrences it
    binds are renamed with it."""

    V, Y, Z, W = Name("v"), Name("y"), Name("z"), Name("w")

    def subst(self, x):
        return subst_data(x, self.V, eta(self.Y))

    def uses(self, head, arg):
        # ``head (thunk (arg [])) []``: one occurrence of each name.
        return App(head, Cons(eta(arg), Nil()))

    def test_variable_binder(self):
        V, Y, Z = self.V, self.Y, self.Z
        out = self.subst(Lam(Var(Y), self.uses(Y, V)))
        assert free_names(out) == {Y}
        assert alpha_eq(out, Lam(Var(Z), self.uses(Z, Y)))

    def test_or_label_binder(self):
        V, Y, Z, W = self.V, self.Y, self.Z, self.W
        t = Lam(POr(Y, Var(W), Var(W)),
                Split(Y, self.uses(W, V), App(W, Nil())))
        out = self.subst(t)
        assert free_names(out) == {Y}
        assert alpha_eq(out, Lam(POr(Z, Var(W), Var(W)),
                                 Split(Z, self.uses(W, Y), App(W, Nil()))))

    def test_pair_pattern_binder(self):
        V, Y, Z, W = self.V, self.Y, self.Z, self.W
        out = self.subst(Lam(PPair(Var(W), Var(Y)), self.uses(Y, V)))
        assert free_names(out) == {Y}
        assert alpha_eq(out, Lam(PPair(Var(W), Var(Z)), self.uses(Z, Y)))

    def test_contraction_binder(self):
        V, Y, Z, W = self.V, self.Y, self.Z, self.W
        out = self.subst(Lam(PAt(Var(Y), Var(W)), self.uses(Y, V)))
        assert free_names(out) == {Y}
        assert alpha_eq(out, Lam(PAt(Var(Z), Var(W)), self.uses(Z, Y)))

    def test_pi_binder(self):
        V, Y, Z, P = self.V, self.Y, self.Z, Name("P")
        ty = Pi(Y, Down(A), Atom(P, (eta(Y), eta(V))))
        out = self.subst(ty)
        assert free_names(out) == {Y, P, A.name}
        assert alpha_eq(out, Pi(Z, Down(A), Atom(P, (eta(Z), eta(Y)))))

    def test_split_on_the_variable_renames_it(self):
        # A split labeled v, with v replaced by another variable, splits on
        # that variable instead.
        V, Y, W = self.V, self.Y, self.W
        out = self.subst(Split(V, self.uses(W, V), App(V, Nil())))
        assert out == Split(Y, self.uses(W, Y), App(Y, Nil()))

    def test_split_on_the_variable_refuses_an_applied_thunk(self):
        # Only a bare variable's eta-injection renames a split: a thunk of
        # an application with arguments is no injection, and no variable.
        from seqcore.syntax import Clash
        V, W, Y = self.V, self.W, self.Y
        x = Name("x")
        t = Split(W, App(x, Nil()), App(x, Nil()))
        with pytest.raises(Clash) as e:
            subst_data(t, W, Thunk(self.uses(Y, x)))
        assert e.value.reason == (
            "substituting non-injection data for split variable w")
        # The same split on the variable applied to nothing renames it.
        assert subst_data(t, W, eta(V)) == Split(V, App(x, Nil()),
                                                 App(x, Nil()))


class TestSpineConcat:
    def test_left_identity(self):
        k = Cons(Thunk(App(Name("q"), Nil())), Proj1(Nil()))
        assert spine_concat(Nil(), k) == k

    def test_list_append_oracle(self):
        # On pure argument chains, concatenation is list append.
        rng = random.Random(5)
        for _ in range(100):
            front = [Thunk(App(fresh("q"), Nil())) for _ in range(rng.randrange(0, 4))]
            back = [Thunk(App(fresh("r"), Nil())) for _ in range(rng.randrange(0, 4))]

            def chain(ds):
                k = Nil()
                for d in reversed(ds):
                    k = Cons(d, k)
                return k

            assert spine_concat(chain(front), chain(back)) == chain(front + back)

    def test_kappa_absorbs_rest(self):
        x = Name("x")
        t = App(x, Nil())
        k = Cons(Thunk(App(Name("q"), Nil())), Nil())
        out = spine_concat(Kappa(Var(x), t), k)
        assert isinstance(out, Kappa)
        assert out.body == __import__("seqcore.syntax", fromlist=["AppCut"]).AppCut(t, k)

    def test_associativity_kappa_free(self):
        # Strict associativity holds on kappa-free spines; a kappa terminator
        # absorbs the remainder into a cut, so the two associations there
        # differ by a commuting cut (covered by the absorption test).
        rng = random.Random(9)

        def kappa_free(depth):
            if depth == 0 or rng.random() < 0.4:
                return Nil()
            k = kappa_free(depth - 1)
            pick = rng.random()
            if pick < 0.5:
                return Cons(Thunk(App(Name("z"), Nil())), k)
            return Proj1(k) if pick < 0.75 else Proj2(k)

        for _ in range(150):
            a, b, c = kappa_free(3), kappa_free(3), kappa_free(3)
            assert spine_concat(spine_concat(a, b), c) == \
                spine_concat(a, spine_concat(b, c))

    def test_kappa_never_mid_spine(self):
        rng = random.Random(10)
        for _ in range(200):
            a = _random_spine(rng, 3)
            b = _random_spine(rng, 3)
            assert _kappa_final(spine_concat(a, b))


def _random_spine(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.25:
            return Kappa(Var(fresh("x")), App(Name("z"), Nil()))
        return Nil()
    k = _random_spine(rng, depth - 1)
    pick = rng.random()
    if pick < 0.5:
        return Cons(Thunk(App(Name("z"), Nil())), k)
    if pick < 0.75:
        return Proj1(k)
    return Proj2(k)


def _kappa_final(k) -> bool:
    while True:
        match k:
            case Nil() | Kappa(_, _):
                return True
            case Cons(_, rest) | Proj1(rest) | Proj2(rest):
                k = rest
            case _:
                return False


from seqcore.syntax import AppCut  # noqa: E402


class TestAlphaEq:
    def test_bound_renaming(self):
        x, y = Name("x"), Name("y")
        assert alpha_eq(Lam(Var(x), App(x, Nil())), Lam(Var(y), App(y, Nil())))

    def test_distinct_shapes(self):
        x = Name("x")
        a = Lam(Var(x), App(x, Nil()))
        b = Lam(Var(x), Done(Thunk(App(x, Nil()))))
        assert not alpha_eq(a, b)
        # Binders of two shapes, at the top and inside a pair pattern, and
        # cut data that differs outside the binder's scope.
        y, body = Name("y"), a.body
        assert not alpha_eq(a, Lam(PWild(), body))
        assert not alpha_eq(Lam(PPair(Var(x), Var(y)), body),
                            Lam(PPair(Var(x), PWild()), body))
        assert not alpha_eq(BindCut(Var(x), eta(Name("p")), body),
                            BindCut(Var(x), eta(Name("q")), body))

    def test_free_names_matter(self):
        assert not alpha_eq(App(Name("p"), Nil()), App(Name("q"), Nil()))

    def test_equal_subtrees_under_swapped_binders(self):
        # The bodies are the same tree, but x names the outer binder on the
        # left and the inner one on the right.
        x, y = Name("x"), Name("y")
        body = App(x, Nil())
        assert not alpha_eq(Lam(Var(x), Lam(Var(y), body)),
                            Lam(Var(y), Lam(Var(x), body)))

    def test_deeper_than_structural_equality_reaches(self):
        # On CPython 3.11 the generated == spends three stack levels per tree
        # level and alpha_eq's own walk one: == on these unshared sums 600
        # levels deep overflows at the default recursion limit, and alpha_eq
        # must still answer.
        def nested(leaf):
            t = Down(leaf)
            for _ in range(600):
                t = Or(Down(A), t)
            return t

        a = nested(A)
        assert alpha_eq(a, nested(A))
        assert not alpha_eq(a, nested(NAT))

    def test_worked_example_label_renaming(self):
        # Rename-then-compare: the compiled example vs a renamed copy.
        x, y, z, w = Name("x"), Name("y"), Name("z"), Name("w")
        f = Lam(POr(w, PPair(Var(x), Var(y)), Var(z)),
                Split(w, App(Name("add"),
                             Cons(eta(x), Cons(eta(y), Nil()))),
                      App(z, Nil())))
        mapping = {x: Name("x9"), y: Name("y9"), z: Name("z9"), w: Name("w9")}
        renamed = Lam(POr(mapping[w], PPair(Var(mapping[x]), Var(mapping[y])),
                          Var(mapping[z])),
                      rename(f.body, mapping))
        assert alpha_eq(f, renamed)
        assert not alpha_eq(f, Lam(f.pat, App(Name("add"), Nil())))

    def test_equivalence_relation(self):
        from gen_corpus import generate_corpus
        _, corpus = generate_corpus(40, 10, seed=3)
        terms = [t for t, _ in corpus]
        # Patterns compared standalone, or-patterns among them.
        patterns = [POr(Name("w"), Var(Name("a")), Var(Name("b")))] + [
            sub.pat for t in terms for sub in _subterms(t)
            if isinstance(sub, (Lam, Kappa, BindCut))]
        for t in terms + patterns:
            assert alpha_eq(t, t)
        rng = random.Random(1)
        for t in terms[:20]:
            mapping = {n: fresh(n.text) for n in _binders_of(t)}
            # consistent rename of binder occurrences produces an alpha copy
            s = _rename_binders(t, mapping)
            assert alpha_eq(t, s) and alpha_eq(s, t)
            u = _rename_binders(s, {n: fresh(n.text) for n in _binders_of(s)})
            assert alpha_eq(t, u)


def _binders_of(t):
    out = set()

    def go(x):
        match x:
            case Lam(p, b) | Kappa(p, b):
                out.update(pattern_vars(p))
                from seqcore.syntax import pattern_labels
                out.update(pattern_labels(p))
                go(b)
            case BindCut(p, d, b):
                out.update(pattern_vars(p))
                from seqcore.syntax import pattern_labels
                out.update(pattern_labels(p))
                go(d)
                go(b)
            case _:
                for k in children(x):
                    go(k)

    go(t)
    return out


def _rename_binders(t, mapping):
    """Rename binding sites and their occurrences together."""
    from seqcore.syntax import Pattern

    def go_pat(p):
        match p:
            case Var(x):
                return Var(mapping.get(x, x))
            case PWild():
                return p
            case PPair(a, b):
                return PPair(go_pat(a), go_pat(b))
            case PAt(a, b):
                return PAt(go_pat(a), go_pat(b))
            case POr(w, a, b):
                return POr(mapping.get(w, w), go_pat(a), go_pat(b))

    def go(x):
        match x:
            case Lam(p, b):
                return Lam(go_pat(p), go(b))
            case Kappa(p, b):
                return Kappa(go_pat(p), go(b))
            case BindCut(p, d, b):
                return BindCut(go_pat(p), go(d), go(b))
            case App(h, k):
                return App(mapping.get(h, h), go(k))
            case Split(w, l, r):
                return Split(mapping.get(w, w), go(l), go(r))
            case Done(d):
                return Done(go(d))
            case Pair(l, r):
                return Pair(go(l), go(r))
            case AppCut(f, k):
                return AppCut(go(f), go(k))
            case Thunk(b):
                return Thunk(go(b))
            case DPair(l, r):
                return DPair(go(l), go(r))
            case Inl(d):
                return Inl(go(d))
            case Inr(d):
                return Inr(go(d))
            case Nil():
                return x
            case Cons(d, k):
                return Cons(go(d), go(k))
            case Proj1(k):
                return Proj1(go(k))
            case Proj2(k):
                return Proj2(go(k))
        raise TypeError(x)

    return go(t)


def _subterms(t):
    yield t
    for k in children(t):
        yield from _subterms(k)


def _bound_by(p):
    from seqcore.syntax import pattern_labels
    return frozenset(pattern_vars(p)) | frozenset(pattern_labels(p))


# The corpora the reducer's differential tests sweep, and the alpha test's.
SCOPING_CORPORA = [(500, 12, 2024, False), (120, 12, 41, False),
                   (150, 12, 5, True), (80, 12, 43, True), (40, 10, 3, False)]


class TestBinderScoping:
    @pytest.mark.parametrize("count, max_size, seed, structural",
                             SCOPING_CORPORA)
    def test_fresh_renaming_maps_free_names_and_inverts(
            self, count, max_size, seed, structural):
        from gen_corpus import generate_corpus
        from seqcore.syntax import free_names
        _, corpus = generate_corpus(count, max_size, seed=seed,
                                    structural=structural)
        binders = 0
        for t, _goal in corpus:
            free = free_names(t)
            # Bound names are in the mapping too: binders must shadow them.
            bound = _binders_of(t)
            binders += len(bound)
            names = free | bound
            mapping = {n: fresh(n.text) for n in names}
            out = rename(t, mapping)
            assert free_names(out) == frozenset(mapping[n] for n in free)
            assert rename(out, {v: k for k, v in mapping.items()}) == t
        assert binders > 0

    @pytest.mark.parametrize("count, max_size, seed, structural",
                             SCOPING_CORPORA)
    def test_bind_cut_data_is_outside_its_pattern(
            self, count, max_size, seed, structural):
        # Every binder of the corpus, rebuilt as a binding cut whose data
        # names each variable and label the pattern binds.
        from gen_corpus import generate_corpus
        from seqcore.syntax import free_names
        _, corpus = generate_corpus(count, max_size, seed=seed,
                                    structural=structural)
        cuts = 0
        for t, _goal in corpus:
            for sub in _subterms(t):
                if not isinstance(sub, (Lam, Kappa, BindCut)):
                    continue
                bound = _bound_by(sub.pat)
                d = Thunk(App(Name("unbound"), Nil()))
                for n in sorted(bound, key=str):
                    d = DPair(eta(n), d)
                cut = BindCut(sub.pat, d, sub.body)
                assert free_names(cut) == (
                    free_names(d) | (free_names(sub.body) - bound))
                assert bound <= free_names(cut)
                mapping = {n: fresh(n.text) for n in bound}
                assert rename(cut, mapping) == BindCut(
                    sub.pat, rename(d, mapping), sub.body)
                cuts += 1
        assert cuts > 0


def _ref_vars(ty) -> frozenset:
    """The names a substitution could replace in type ``ty``, recomputed
    from ``free_names``: those of its atoms' arguments, less the names bound
    by the ``Pi`` and ``Sigma`` binders above them."""
    if type(ty) is Atom:
        return frozenset().union(*map(free_names, ty.args))
    kids = [_ref_vars(k) for k in children(ty)]
    if type(ty) in (Pi, Sigma):
        kids[-1] = kids[-1] - {ty.binder}
    return frozenset().union(*kids)


def _indexed(ty, arg, x):
    """``ty`` with each ``Imp`` a ``Pi`` and each ``Prod`` a ``Sigma`` that
    binds ``x``, and each atom indexed by ``arg`` and ``eta(x)``."""
    c = type(ty)
    if c is Atom:
        return Atom(ty.name, (arg, eta(x)))
    kids = [_indexed(k, arg, x) for k in children(ty)]
    if c is Imp:
        return Pi(x, *kids)
    if c is Prod:
        return Sigma(x, *kids)
    return with_children(ty, kids)


def _type_nodes(ty):
    """``ty`` and its type subtrees; atom arguments are data."""
    yield ty
    if type(ty) is not Atom:
        for k in children(ty):
            yield from _type_nodes(k)


def _walked(ty, v, d):
    """``subst_data``'s full walk on ``ty``: a copy of ``ty`` whose top
    node's ``_vars`` names ``v``, so the shortcut does not apply."""
    copy = with_children(ty, children(ty))
    object.__setattr__(copy, "_vars", copy._vars | {v})
    return subst_data(copy, v, d)


class TestClosedTypes:
    """``subst_data`` returns a type at once when ``v`` is not in its
    ``_vars``; every type node computes ``_vars`` from its children when it
    is built.  Both are checked against the simple paths: ``_vars`` against
    a recomputation from ``free_names``, the shortcut against the full
    walk, on every subtree of each type."""

    D = Thunk(App(Name("q"), Nil()))

    def check(self, ty, names) -> int:
        """Checks each subtree of ``ty`` against each name; returns how
        many substitutions changed a type."""
        changed = 0
        for sub in _type_nodes(ty):
            assert sub._vars == _ref_vars(sub), sub
            for v in names:
                fast, slow = subst_data(sub, v, self.D), _walked(sub, v, self.D)
                assert fast == slow, (sub, v)
                assert fast._vars == _ref_vars(fast)
                if v not in sub._vars:
                    assert fast is sub
                changed += fast != sub
        return changed

    def test_front_end_types_share_the_empty_set(self):
        from seqcore.surface import load_program
        from seqcore.syntax import _NO_VARS
        src = ("atom a\npostulate f : (a + a) * a -> a\n"
               "postulate g : (a /\\ (a -> a)) -> a\n")
        dep = "postulate h : Pi (x : a). (Sigma (p : a) . a + a) -> a\n"
        for mode, text in ((Mode.PROP, src), (Mode.DEP, src + dep)):
            for decl in load_program(text, "t.seq", mode).decls:
                if decl.type is not None:
                    assert all(sub._vars is _NO_VARS
                               for sub in _type_nodes(decl.type))

    def test_hand_built_types_with_arguments(self):
        x, y, z, b, P = (Name(s) for s in ("x", "y", "z", "b", "P"))
        h = Name("h")
        lam = Thunk(Lam(Var(y), App(h, Cons(eta(y), Cons(eta(x), Nil())))))
        split = Thunk(Split(z, App(x, Nil()), App(y, Nil())))
        types = [
            Atom(b, (eta(y),)),
            Pi(y, Down(Atom(b, (eta(y),))), Atom(P, (eta(y), eta(x)))),
            Pi(x, Down(Atom(P, (lam,))), Up(Sigma(
                y, Down(Atom(b, (eta(x), split))),
                Or(Down(Atom(P, (eta(y),))), Down(Atom(b, (Inl(eta(z)),))))))),
            With(Atom(P, (DPair(eta(x), eta(z)),)),
                 Imp(Prod(Down(Atom(b)), Down(Atom(P, (eta(z),)))), Atom(b))),
            Sigma(z, Down(Atom(P, (split,))), Down(Atom(P, (eta(z),)))),
        ]
        changed = sum(self.check(ty, (x, y, z, h, b, P)) for ty in types)
        assert changed > 0
        assert Pi(y, Down(Atom(b)), Atom(P, (eta(y),)))._vars == frozenset()
        assert Atom(P, (lam,))._vars == {h, x}

    @pytest.mark.parametrize("count, max_size, seed, structural",
                             SCOPING_CORPORA)
    def test_corpus_goals_indexed_by_their_terms(
            self, count, max_size, seed, structural):
        from gen_corpus import generate_corpus
        _, corpus = generate_corpus(count, max_size, seed=seed,
                                    structural=structural)
        x = Name("x")
        changed = 0
        for t, goal in corpus[:60]:
            ty = _indexed(goal, Thunk(t), x)
            names = {x, Name("absent")} | free_names(t) | _binders_of(t)
            changed += self.check(ty, sorted(names, key=str))
        assert changed > 0


class TestLayout:
    def test_every_node_class_lays_out_each_field_once(self):
        from seqcore import syntax
        sorts = (syntax.NegType, syntax.PosType, syntax.Term, syntax.Pattern,
                 syntax.DataVal, syntax.Spine)
        nodes = [c for c in map(syntax.__dict__.get, syntax.__all__)
                 if isinstance(c, type) and issubclass(c, sorts)
                 and c not in sorts]
        # 9 types, 7 terms, 5 patterns, 4 data and 5 spines.
        assert len(nodes) == 30
        for cls in nodes:
            lay = cls.layout
            leads = [f for f in (lay.ref, lay.bind, lay.binder) if f]
            # Hidden fields (``_vars`` of the types) are not laid out.
            fields = tuple(f for f in cls.__annotations__
                           if not f.startswith("_"))
            # Each field once, at most one leading field, and it comes first.
            assert len(leads) <= 1 and tuple(leads) + lay.kids == fields, cls
            assert lay.lead == (leads[0] if leads else None), cls

    def test_a_named_tuple_of_one_class(self):
        assert Layout.__mro__ == (Layout, tuple, object)
        assert Layout._fields == ("kids", "ref", "bind", "binder", "lead",
                                  "spread", "children")


_V1, _V2, _V3, _W1 = Name("v1"), Name("v2"), Name("v3"), Name("w1")


class TestWalksMatchReference:
    """The rewrite step and the rebuild that each node class gets from its
    layout, against the interpretive walks they replaced
    (``tests/walk_reference.py``).  Every substitution, renaming, branch
    selection and pattern freshening below runs once through each, with
    the counter of fresh names reset: the results must be equal, be the
    input itself exactly when the reference's is, and draw the same fresh
    names in the same order.  A clash must give the same reason."""

    # The free names of the data are the enumerator's first binders and
    # label, so substituting it under them regenerates them.
    DATA = (
        # A thunk, two injections and an eta-injection ...
        Thunk(App(Name("f"), Cons(eta(_V1), Cons(eta(_V2),
                                                 Cons(eta(_W1), Nil()))))),
        Inl(eta(_V2)),
        Inr(DPair(eta(_V1), eta(_V3))),
        eta(_V1),
        # ... and a pair, which clashes where the variable is applied and
        # where it is split.
        DPair(eta(_V3), eta(_V2)),
    )

    def ops(self, x):
        """The operations run on node ``x``."""
        from seqcore.syntax import Pattern, freshen_pattern, select_branch
        names = sorted(free_names(x)) + [Name("absent")]
        for v in names:
            for d in self.DATA:
                yield subst_data, (x, v, d)
            yield rename, (x, {v: Name(v.text, 7)})
            yield select_branch, (v, "left", x)
            yield select_branch, (v, "right", x)
        yield rename, (x, {v: Name(v.text, 7) for v in names})
        if isinstance(x, Pattern):
            yield freshen_pattern, (x,)

    def outcomes(self, monkeypatch, subjects, walks):
        """Each operation's result, whether it returned its subject, and
        the fresh names it drew; with ``walks`` in place of the kernel's
        own walks when it is given."""
        import itertools
        from seqcore import syntax
        from seqcore.syntax import Clash
        out = []
        with monkeypatch.context() as m:
            if walks is not None:
                for name in ("rewrite", "children", "with_children"):
                    m.setattr(syntax, name, getattr(walks, name))
            drawn = []

            def fresh(text):
                drawn.append(Name(text, next(syntax._fresh_counter)))
                return drawn[-1]

            m.setattr(syntax, "fresh", fresh)
            for x in subjects:
                for op, args in self.ops(x):
                    m.setattr(syntax, "_fresh_counter", itertools.count(1))
                    drawn.clear()
                    try:
                        y = op(*args)
                    except Clash as e:
                        out.append(("clash", e.reason, tuple(drawn)))
                        continue
                    kept = (y[0] if type(y) is tuple else y) is x
                    out.append((y, kept, tuple(drawn)))
        return out

    def check(self, monkeypatch, tops):
        import walk_reference
        from seqcore.syntax import _nodes
        subjects = list(dict.fromkeys(y for t in tops for y in _nodes(t)))
        ours = self.outcomes(monkeypatch, subjects, None)
        theirs = self.outcomes(monkeypatch, subjects, walk_reference)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a == b
        # Every kind of outcome is reached.
        assert any(o[0] == "clash" for o in ours)
        assert any(o[1] is True for o in ours)
        assert any(o[1] is False and o[2] for o in ours)
        return len(ours)

    def test_enumerated_terms(self, monkeypatch):
        from enum_all import Enumerator
        en = Enumerator((Name("z"), Name("f")), structural=True)
        assert self.check(monkeypatch, en.all_terms(8)) > 10000

    def test_example_suite(self, monkeypatch):
        from seqcore.reduce import trace
        from seqcore.syntax import NegType, PosType
        from suite import SUITE, entry_applications, load
        tops = []
        for name, mode, _structural in SUITE:
            prog = load(name)
            tops += [u for decl in prog.decls
                     for u in (decl.type, decl.term) if u is not None]
            run_sig, runs = entry_applications(prog, mode)
            for t, _goal in runs:
                tops += [u for _, u in trace(run_sig, t)[0]]
        # The types once more, with atoms that carry data.
        tops += [_indexed(t, eta(_V2), _V1) for t in tops
                 if isinstance(t, (NegType, PosType))]
        assert any(type(t) is Atom and t.args for t in tops)
        assert any(isinstance(t, (Pi, Sigma)) for t in tops)
        self.check(monkeypatch, tops)


class TestSelectBranch:
    def test_replaces_matching_splits(self):
        from seqcore.syntax import select_branch
        w, x, y = Name("w"), Name("x"), Name("y")
        t = Pair(Split(w, App(x, Nil()), App(y, Nil())),
                 Done(Thunk(Split(w, App(y, Nil()), App(x, Nil())))))
        out = select_branch(w, "left", t)
        assert out == Pair(App(x, Nil()), Done(Thunk(App(y, Nil()))))

    def test_stops_at_shadowing_rebinder(self):
        from seqcore.syntax import select_branch
        w, x, y, z = Name("w"), Name("x"), Name("y"), Name("z")
        inner = Lam(POr(w, Var(x), Var(y)),
                    Split(w, App(x, Nil()), App(y, Nil())))
        t = Pair(Split(w, Done(Thunk(inner)), App(z, Nil())),
                 Done(Thunk(inner)))
        out = select_branch(w, "right", t)
        # the outer split resolves; the rebound inner ones stay
        assert out == Pair(App(z, Nil()), Done(Thunk(inner)))


class TestMisc:
    def test_size_counts_every_node(self):
        x = Name("x")
        t = Lam(Var(x), App(x, Nil()))
        assert size(t) == 4

    def test_cut_free(self):
        x = Name("x")
        assert is_cut_free(Lam(Var(x), App(x, Nil())))
        assert not is_cut_free(Lam(Var(x), AppCut(App(x, Nil()), Nil())))


class TestSigIndex:
    C = SigEntry(Name("c"), A)

    def test_duplicate_name_resolves_to_last_entry(self):
        later = SigEntry(Name("c"), Imp(Down(A), A))
        sig = sig_with("a").with_entry(self.C).with_entry(later)
        assert sig.lookup(Name("c")) is later
        assert Sig(sig.atoms, (self.C, later)).lookup(Name("c")) is later

    def test_direct_construction_indexes_entries(self):
        f = SigEntry(Name("f"), Imp(Down(A), A))
        sig = Sig(frozenset({Name("a")}), (self.C, f))
        assert sig.lookup(Name("c")) is self.C
        assert sig.lookup(Name("f")) is f
        assert sig.lookup(Name("g")) is None
        assert Sig().lookup(Name("c")) is None

    def test_with_atom_and_with_entry_keep_the_index(self):
        base = sig_with("a").with_entry(self.C)
        grown = base.with_atom(Name("b"))
        assert grown.lookup(Name("c")) is self.C
        d = SigEntry(Name("d"), A)
        extended = grown.with_entry(d)
        assert extended.lookup(Name("c")) is self.C
        assert extended.lookup(Name("d")) is d
        assert base.lookup(Name("d")) is None    # the parent is unchanged

    def test_index_is_not_part_of_equality(self):
        built = sig_with("a").with_entry(self.C)
        direct = Sig(frozenset({Name("a")}), (self.C,))
        assert built == direct
        assert hash(built) == hash(direct)
        assert repr(built) == repr(direct)
        assert built != sig_with("a")

    def test_entry_names_scope_atom_arguments(self):
        sig = sig_with("a", "P").with_entry(self.C)
        assert well_formed_neg(Atom(Name("P"), (eta(Name("c")),)), sig,
                               Mode.DEP)
        problems = []
        assert not well_formed_neg(Atom(Name("P"), (eta(Name("d")),)), sig,
                                   Mode.DEP, problems=problems)
        assert [p.rule for p in problems] == ["scope"]
        assert problems[0].found == "d"


class TestMatchPatterns:
    """The kernel selects a rule by the exact class of a node: it reads
    ``type(x)`` once and tests it with ``is`` against each class in turn,
    in place of a ``match`` statement.  On CPython each class pattern costs
    several ``isinstance`` tests, and the kernel's walks dispatch once per
    node.  ``type(x) is C`` selects what the pattern ``C()`` selected
    because no record class has a subclass.  Should a ``match`` come back,
    it must still have one subject and capture nothing."""

    SOURCES = sorted(pathlib.Path(seqcore.__file__).parent.glob("*.py"))

    @staticmethod
    def offenders(test) -> list[str]:
        return [f"{path.name}:{node.lineno}"
                for path in TestMatchPatterns.SOURCES
                for node in ast.walk(ast.parse(path.read_text("utf-8")))
                if test(node)]

    def test_sources_found(self):
        assert {p.name for p in self.SOURCES} >= {
            "check.py", "check_dep.py", "core_text.py", "reduce.py",
            "surface.py", "syntax.py"}

    def test_class_patterns_capture_nothing(self):
        assert self.offenders(lambda n: isinstance(n, ast.MatchClass)
                              and (n.patterns or n.kwd_patterns)) == []

    def test_one_subject(self):
        assert self.offenders(lambda n: isinstance(n, ast.Match)
                              and isinstance(n.subject, ast.Tuple)) == []

    def test_no_match_statements(self):
        assert self.offenders(lambda n: isinstance(n, ast.Match)) == []

    def test_records_are_final(self):
        def made_by_record(x) -> bool:
            # record compiles the __init__ it gives a class from "<record>".
            init = vars(x).get("__init__") if isinstance(x, type) else None
            return getattr(getattr(init, "__code__", None), "co_filename",
                           None) == "<record>"

        records = {x for path in self.SOURCES
                   for x in vars(importlib.import_module(
                       f"seqcore.{path.stem}")).values()
                   if made_by_record(x)}
        assert {c.__name__ for c in records} >= {
            "Lam", "Thunk", "Kappa", "Sigma", "TBin", "PVarS", "Leaf",
            "SigEntry"}
        assert [c.__qualname__ for c in records if c.__subclasses__()] == []
        # Name is a named tuple, not a record; it is final too.
        assert Name.__subclasses__() == []


class TestName:
    """``Name`` is a named tuple: compared and hashed in C, with the hash,
    ``repr`` and fields a record of ``text`` and ``tag`` had."""

    def test_hash_is_the_hash_of_its_fields(self):
        for n in (Name("x"), Name("x", 3), fresh("_"), Name("")):
            assert hash(n) == hash((n.text, n.tag))
        assert Name("x") == Name("x", 0) and Name("x") != Name("x", 1)

    def test_repr_and_fields(self):
        assert repr(Name("x")) == "Name(text='x', tag=0)"
        assert repr(Name("s", 12)) == "Name(text='s', tag=12)"
        assert Name.__match_args__ == ("text", "tag")
        assert (str(Name("x")), str(Name("x", 7))) == ("x", "x#7")

    def test_assignment_is_refused(self):
        n = Name("x")
        for field in ("text", "tag", "other"):
            with pytest.raises(AttributeError):
                setattr(n, field, "y")
        assert n == Name("x")

    def test_one_class_over_tuple(self):
        assert Name.__mro__ == (Name, tuple, object)


class TestImportsNoTyping:
    """No module of ``seqcore`` imports ``typing``: no annotation is
    evaluated (``from __future__ import annotations``), and ``Name`` and
    ``Layout`` are ``collections.namedtuple`` classes.  Checked in a fresh
    interpreter started without the ``site`` hook, which may import
    ``typing`` on its own."""

    def test_cli_imports_without_typing(self):
        src = pathlib.Path(seqcore.__file__).parent.parent
        code = "import sys, seqcore.cli; print('typing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout == "False\n"


class TestFrontEndLayering:
    """The front end depends on no checker: surface types hold no data, so
    the clause compiler substitutes nothing into them and compares them up
    to alpha, with ``syntax`` alone."""

    def test_surface_imports(self):
        path = pathlib.Path(seqcore.__file__).parent / "surface.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert imported == {"core_text", "diag", "record", "syntax"}


class TestAcyclic:
    """The kernel's walks leave no reference cycles: run with the cyclic
    collector paused, as ``seqcore.cli.entry`` runs them, they leave nothing
    for it to find, also when they raise."""

    X, Y, H, W = Name("x"), Name("y"), Name("h"), Name("w")

    def test_alpha_eq_past_structural_equality(self):
        x, y, h = self.X, self.Y, self.H
        a = Lam(Var(x), App(h, Cons(eta(x), Nil())))
        b = Lam(Var(y), App(h, Cons(eta(y), Nil())))
        assert a != b and alpha_eq(a, b)
        assert cyclic_garbage(alpha_eq, a, b) == 0

    def test_select_branch(self):
        from seqcore.syntax import select_branch
        t = Split(self.W, App(self.X, Nil()), App(self.Y, Nil()))
        assert cyclic_garbage(select_branch, self.W, "left", t) == 0

    def test_subst_data_returns(self):
        t = Lam(Var(self.Y), App(self.X, Cons(eta(self.Y), Nil())))
        assert cyclic_garbage(subst_data, t, self.X,
                              Thunk(App(self.H, Nil()))) == 0

    def test_subst_data_raises_clash(self):
        from seqcore.syntax import Clash
        t = Lam(Var(self.Y), App(self.X, Nil()))
        assert cyclic_garbage(subst_data, t, self.X, Inl(eta(self.Y)),
                              raises=Clash) == 0

    def test_subst_data_freshens_a_capturing_pattern(self):
        # The pair pattern binds y, free in the data: it is regenerated.
        t = Lam(PPair(Var(self.Y), Var(self.H)), App(self.X, Nil()))
        assert cyclic_garbage(subst_data, t, self.X,
                              Thunk(App(self.Y, Nil()))) == 0

    def test_case_tree_coverage_error(self):
        from seqcore.surface import CompileFail, load_program
        src = "atom a\ng : a + a -> a\ng (inl x) = x\n"
        assert cyclic_garbage(load_program, src,
                              raises=CompileFail) == 0

    def test_convert_alpha_equal_types(self):
        from seqcore.check_dep import convert
        a = Pi(self.X, Down(A), A)
        b = Pi(self.Y, Down(A), A)
        assert cyclic_garbage(convert, a, b) == 0
