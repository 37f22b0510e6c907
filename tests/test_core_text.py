"""Canonical core text: printing, parsing, round trips."""

import collections
import hashlib
import pathlib

import pytest

from core_reader import parse_term
from print_reference import (free_texts, print_with, reference_print_data,
                             reference_print_term, reference_print_type)
from suite import PROGRAMS, bench_workloads, clause_set_variants
from seqcore import core_text, syntax
from seqcore.cli import entry
from seqcore.core_text import print_data, print_term, print_type
from seqcore.diag import DiagnosticError, ParseError
from seqcore.surface import load_program
from seqcore.syntax import (
    App, AppCut, Atom, BindCut, Cons, DataVal, Done, Down, DPair, Imp, Inl,
    Inr, Kappa, Lam, Mode, Name, NegType, Nil, Or, Pair, PAt, Pi, POr,
    PosType, PPair, Prod, Proj1, Proj2, PWild, Sigma, Split, Term, Thunk, Up,
    Var, With, alpha_eq, fresh,
)

A = Atom(Name("a"))
X, Y, Z, W = Name("x"), Name("y"), Name("z"), Name("w")
ID = Lam(Var(X), App(X, Nil()))


class TestPrintedForms:
    def test_canonical_forms(self):
        assert print_term(Done(Inl(Thunk(App(Z, Nil()))))) == "done inl thunk (z [])"
        assert print_term(ID) == "\\x. x []"
        assert print_term(App(Z, Nil())) == "z []"
        assert print_term(Pair(App(Z, Nil()), App(Z, Nil()))) == "<z [], z []>"
        split = Lam(POr(W, Var(X), Var(Y)),
                    Split(W, App(X, Nil()), App(Y, Nil())))
        assert print_term(split) == \
            "\\[x|y]_w. split w { inl -> x [] ; inr -> y [] }"
        let = BindCut(Var(X), Thunk(App(Z, Nil())), App(X, Nil()))
        assert print_term(let) == "let x = thunk (z []) in x []"
        assert print_term(App(Z, Cons(Thunk(App(Z, Nil())), Nil()))) == \
            "z (thunk (z []) :: [])"
        assert print_term(App(Z, Proj1(Nil()))) == "z .1 []"
        assert print_term(App(Z, Proj2(Nil()))) == "z .2 []"
        assert print_term(App(Z, Kappa(Var(X), App(X, Nil())))) == \
            "z kappa x. x []"
        assert print_term(AppCut(ID, Nil())) == "(\\x. x []) []"

    def test_pattern_forms(self):
        t = Lam(PPair(PAt(Var(X), Var(Y)), PWild()), App(X, Nil()))
        assert print_term(t) == "\\(x @ y, _). x []"

    def test_shadowing_renamed_for_print(self):
        inner = Lam(Var(X), App(X, Nil()))
        outer = Lam(Var(X), Done(Thunk(inner)))
        s = print_term(outer)
        # two distinct binders cannot share a display name
        assert s == "\\x. done thunk (\\x_2. x_2 [])"
        assert alpha_eq(parse_term(s), outer)

    def test_type_printing(self):
        ty = Imp(Or(Prod(Down(A), Down(A)), Down(A)), A)
        assert print_type(ty) == "((dn a) * dn a) + dn a -> a"
        assert print_type(Up(Down(With(A, A)))) == "up (dn (a /\\ a))"


class TestTypePrinter:
    """``print_type`` prints both polarities by one walk; its text equals
    that of the two per-polarity printers it replaced
    (``print_reference.print_neg``/``print_pos``)."""

    @staticmethod
    def compared(ty) -> int:
        """Compare the printers on ``ty`` and on every type inside it."""
        n = 0
        for x in syntax._nodes(ty):
            if isinstance(x, (NegType, PosType)):
                assert print_type(x) == reference_print_type(x), x
                n += 1
        return n

    def test_declared_types(self, tmp_path):
        # Every declared type of the examples and the benchmark programs,
        # with each type inside it, in each mode the program loads in.
        workloads = bench_workloads()
        paths = sorted(PROGRAMS.glob("*.seq"))
        for w in workloads.WORKLOADS:
            paths += sorted({pathlib.Path(a) for call in workloads.build(
                w, 2024, tmp_path / w) if not call.probe
                for a in call.argv if a.endswith(".seq")})
        counts = collections.Counter()
        for path in paths:
            for mode in Mode:
                try:
                    prog = load_program(path.read_text(encoding="utf-8"),
                                        str(path), mode)
                except DiagnosticError:
                    continue
                counts[mode, "programs"] += 1
                for d in prog.decls:
                    if d.type is not None:
                        counts[mode, "types"] += self.compared(d.type)
        # 9 examples, 3 wide, 3 chain and 4 library programs.  swap_dep.seq
        # loads in dependent mode only, wild.seq in propositional mode only.
        assert len(paths) == 19
        for mode in Mode:
            assert counts[mode, "programs"] == 18
            assert counts[mode, "types"] > 10000

    @staticmethod
    def types(depth: int):
        """Every negative and every positive type with at most ``depth``
        nested connectives, over all nine connectives, from ``a`` and an
        atom with a data argument."""
        neg = [A, Atom(Name("b"), (Thunk(App(X, Nil())),))]
        pos: list = []
        for _ in range(depth):
            neg, pos = (
                neg[:2] + [Up(p) for p in pos]
                + [Imp(p, n) for p in pos for n in neg]
                + [With(m, n) for m in neg for n in neg]
                + [Pi(X, p, n) for p in pos for n in neg],
                [Down(n) for n in neg]
                + [k(p, q) for k in (Or, Prod) for p in pos for q in pos]
                + [Sigma(Y, p, q) for p in pos for q in pos])
        return neg, pos

    def test_every_type_to_depth_3(self):
        neg, pos = self.types(3)
        assert (len(neg), len(pos)) == (6420, 1036)
        for ty in neg + pos:
            assert print_type(ty) == reference_print_type(ty), ty
        assert print_type(neg[-1]) == (
            "Pi (x : Sigma (y : dn (b (thunk (x [])))). dn (b (thunk (x []))))."
            " Pi (x : dn (b (thunk (x [])))). (b (thunk (x []))) /\\"
            " b (thunk (x []))")


class TestRoundTrip:
    CASES = [
        ID,
        Done(Inl(Thunk(ID))),
        AppCut(ID, Cons(Thunk(ID), Nil())),
        BindCut(PPair(Var(X), Var(Y)),
                DPair(Thunk(App(Z, Nil())), Thunk(App(Z, Nil()))),
                Pair(App(X, Nil()), App(Y, Nil()))),
        Lam(POr(W, PPair(Var(X), Var(Y)), Var(Z)),
            Split(W, App(Name("add"), Cons(Thunk(App(X, Nil())),
                                           Cons(Thunk(App(Y, Nil())), Nil()))),
                  App(Z, Nil()))),
        App(Z, Proj1(Kappa(Var(X), Done(Inr(Thunk(App(X, Nil()))))))),
        Lam(PAt(Var(X), PWild()), App(X, Nil())),
        AppCut(AppCut(ID, Nil()), Cons(Inl(DPair(Thunk(ID), Thunk(ID))), Nil())),
    ]

    @pytest.mark.parametrize("t", CASES, ids=range(len(CASES)))
    def test_parse_print_identity(self, t):
        s = print_term(t)
        back = parse_term(s)
        assert alpha_eq(back, t)
        # second trip is the literal identity
        assert print_term(back) == s

    def test_compiled_corpus_round_trip(self):
        from suite import SUITE, check_program, load, source
        for name, mode, structural in SUITE:
            prog = load(name)
            for d in prog.decls:
                if d.kind != "def":
                    continue
                s = print_term(d.term)
                back = parse_term(s)
                assert alpha_eq(back, d.term), f"{name}:{d.name}"
                assert print_term(back) == s

    def test_generated_corpus_round_trip(self):
        from gen_corpus import generate_corpus
        _, corpus = generate_corpus(120, 12, seed=17, structural=True)
        for t, _ in corpus:
            s = print_term(t)
            back = parse_term(s)
            assert alpha_eq(back, t), s
            assert print_term(back) == s


class TestParseErrors:
    @pytest.mark.parametrize("src", [
        "", "done", "\\x x []", "split w { inl -> x [] }",
        "let x = in x []", "x", "<x [], >", "x (thunk (z []) : [])",
    ])
    def test_rejects_with_span(self, src):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert exc.value.diagnostic.rule == "parse"
        assert exc.value.diagnostic.span is not None


class TestOneWalkPrinter:
    """The printer finds free names while it prints, and prints again with
    them reserved only on a collision.  Its text equals the two-walk
    reference (``print_reference``) on every term the CLI prints."""

    @pytest.fixture
    def prints(self, monkeypatch):
        """Compare every ``print_term``/``print_data`` with the reference,
        and the free texts the first print finds with those of
        ``free_names``; count prints and reprints."""
        counts = collections.Counter()
        printers = []
        one_walk = core_text._print

        def checked(method, x):
            printers.clear()
            s = one_walk(method, x)
            assert s == print_with(method, x)
            assert printers[0].free == free_texts(x)
            counts["prints"] += 1
            return s

        class Counting(core_text._Printer):
            def __init__(self, reserved):
                super().__init__(reserved)
                printers.append(self)
                # Only a reprint reserves any free text.
                counts["reprints"] += bool(reserved)

        monkeypatch.setattr(core_text, "_print", checked)
        monkeypatch.setattr(core_text, "_Printer", Counting)
        return counts

    def test_cli_calls_on_programs_and_variants(self, prints, capsys,
                                                 monkeypatch, tmp_path):
        # check and core, in both modes and with structural patterns, on
        # every example program and clause-set variant: compiled terms and
        # the terms in diagnostics and their trails.
        monkeypatch.chdir(tmp_path)
        calls = 0
        for _, lines in clause_set_variants():
            pathlib.Path("v.seq").write_text("\n".join(lines),
                                             encoding="utf-8")
            for cmd in ("check", "core"):
                for flags in ((), ("--dependent",),
                              ("--structural-patterns",)):
                    entry([cmd, "v.seq", *flags])
                    calls += 1
        capsys.readouterr()
        assert calls == 1524
        assert prints["prints"] > 400

    @pytest.mark.parametrize("arg", ["inr q", "inl (q, r)"])
    def test_trace_steps(self, prints, capsys, arg):
        code = entry(["trace", str(PROGRAMS / "f_run.seq"), "--entry", "f",
                      "--arg", arg])
        steps = capsys.readouterr().out.count("\n") - 1
        assert code == 0 and steps > 0
        assert prints["prints"] >= steps

    def test_generated_corpus(self, prints):
        # Each term, and each data node in it on its own, so that the names
        # its binders bind are free there.
        from gen_corpus import generate_corpus
        for seed in (17, 2024):
            _, corpus = generate_corpus(120, 12, seed=seed, structural=True)
            for t, _ in corpus:
                print_term(t)
                for d in syntax._nodes(t):
                    if isinstance(d, DataVal):
                        print_data(d)
        assert prints["prints"] >= 240

    @pytest.mark.parametrize("x, text", [
        # A binder whose text is a free name's text.
        (Lam(Var(Name("x", 1)), App(Name("x", 1), Cons(Thunk(
            App(Name("x"), Nil())), Nil()))),
         "\\x_2. x_2 (thunk (x []) :: [])"),
        # A free x_2 beside a binder x whose x is already taken.
        (Lam(Var(Name("x", 1)), Done(Thunk(Lam(Var(Name("x", 2)), App(
            Name("x", 2), Cons(Thunk(App(Name("x_2"), Nil())), Nil())))))),
         "\\x. done thunk (\\x_3. x_3 (thunk (x_2 []) :: []))"),
        # A free name with a tag other than 0 reserves its text.
        (Lam(Var(Name("y", 1)), App(Name("y", 3), Nil())),
         "\\y_2. y#3 []"),
        # Data: a let binder and a free name of the same text.
        (Thunk(BindCut(Var(Name("z", 1)), Thunk(App(Name("z"), Nil())),
                       App(Name("z", 1), Nil()))),
         "thunk (let z_2 = thunk (z []) in z_2 [])"),
    ], ids=["binder-is-free", "free-x_2", "free-tagged", "data"])
    def test_collisions_reprint(self, prints, x, text):
        if isinstance(x, Term):
            assert print_term(x) == reference_print_term(x) == text
        else:
            assert print_data(x) == reference_print_data(x) == text
        assert (prints["prints"], prints["reprints"]) == (1, 1)

    def test_no_collision_prints_once(self, prints):
        t = Lam(Var(Name("x", 1)), App(Name("f"), Cons(
            Thunk(App(Name("x", 1), Nil())), Nil())))
        assert print_term(t) == "\\x. f (thunk (x []) :: [])"
        assert (prints["prints"], prints["reprints"]) == (1, 0)

    def test_benchmark_programs_never_reprint(self, prints, capsys, tmp_path):
        workloads = bench_workloads()
        calls = [call for w in workloads.WORKLOADS
                 for call in workloads.build(w, 2024, tmp_path / w)
                 if not call.probe]
        for call in calls:
            code = entry(list(call.argv))
            out = capsys.readouterr().out
            assert code == 0
            if call.sha256 is not None:
                assert hashlib.sha256(out.encode()).hexdigest() == call.sha256
            else:
                assert out == call.stdout
        assert len(calls) == 14 and prints["prints"] > 500
        assert prints["reprints"] == 0
