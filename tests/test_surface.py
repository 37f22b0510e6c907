"""Surface language: parsing, polarization, clause compilation, equations."""

import collections
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex_reference import reference_lex
from parse_reference import reference_parse
from suite import (PROGRAMS, SUITE, bench_workloads, check_program,
                   clause_set_variants, load, pretty_equations, source)
from seqcore import check_dep, surface, syntax
from seqcore.check import check_term
from seqcore.check_dep import dep_check_term
from seqcore.diag import DiagnosticError, ParseError, Span
from seqcore.surface import (CompileFail, Leaf, PairNode, SplitNode, TArrow,
                             TBin, TBind, TName, _lex, _Source,
                             compile_clauses, load_program, parse, polarize)
from seqcore.syntax import (
    App, Atom, Cons, Done, Down, DPair, Imp, Inl, Inr, Lam, Mode, Name, Nil,
    Or, Pair, Pattern, Pi, POr, PPair, Prod, Sig, SigEntry, Sigma, Split,
    Thunk, Up, Var, With, alpha_eq, children, eta, well_formed_neg,
)

NAT = Atom(Name("ℕ"))


class TestParse:
    def test_worked_example_block(self):
        decls = parse(source("f.seq"))
        assert [d.kind for d in decls] == ["atom", "postulate", "def"]
        f = decls[2]
        assert f.name == "f" and len(f.clauses) == 2
        assert len(f.clauses[0].lhs) == 1

    def test_empty_file(self):
        assert parse("") == []
        assert parse("\n\n-- just a comment\n") == []

    def test_clause_arity_mismatch(self):
        src = "atom a\ng : a -> a -> a\ng x y = x\ng x = x\n"
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.diagnostic.rule == "arity"

    def test_clause_without_declaration(self):
        with pytest.raises(ParseError):
            parse("atom a\ng x = x\n")

    def test_spans_recorded(self):
        decls = parse("atom a\nh : a -> a\nh x = x\n", "prog.seq")
        assert decls[1].span.file == "prog.seq"
        assert decls[1].span.line == 2

    @pytest.mark.parametrize("text, expected, found, col", [
        ("atom nat extra\n", "end of line", "extra", 10),
        ("postulate p a\n", "':'", "a", 13),
        ("f : Pi x\n", "'('", "x", 8),
        ("f : Pi (x a\n", "':'", "a", 11),
        ("f : Pi (x : a -> a .\n", "')'", ".", 20),
        ("f : Pi (x : a) a\n", "'.'", "a", 16),
        ("f : (a -> a\n", "')'", "end of line", 12),
        ("atom a\nf : a -> a\nf x = (x x\n", "')'", "end of line", 11),
    ], ids=["atom", "postulate", "Pi (", "Pi :", "Pi )", "Pi .", "type )",
            "expression )"])
    def test_syntax_error(self, text, expected, found, col):
        with pytest.raises(ParseError) as exc:
            parse(text, "p.seq")
        d = exc.value.diagnostic
        assert (d.rule, d.expected, d.found, d.span.col) == (
            "parse", expected, found, col)


def _line_col(text: str, at: int) -> tuple[int, int]:
    """Offset ``at`` of ``text`` as a line and a column, both from 1."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _lexed(lex, text: str):
    """The tokens as ``(kind, text, line, col)``, or the raised diagnostic.
    ``_lex`` gives offsets, which are resolved here; the reference gives
    lines and columns."""
    try:
        toks = lex(text, "t.seq")
    except ParseError as e:
        return e.diagnostic
    if lex is reference_lex:
        return [tuple(t) for t in toks]
    return [(kind, t, *_line_col(text, at)) for kind, t, at in zip(*toks)]


# Pieces of every lexical class, and of what the lexer must tell apart
# around them: letters outside ASCII, spaces that are not ``\n``, comments
# (which end at the next ``\n`` piece), and ``-`` and ``/`` starting ``--``,
# ``->`` and ``/\``.
_PIECES = (
    "x", "f'", "_", "_w", "a1", "inl", "Pi", "ℕ", "é", "Ωx", "->", "/\\",
    ":", "(", ")", "=", ",", "@", "*", "+", ".", "--", "-- note", "--->",
    " ", "  ", "\t", "\r", "\n", "\n\n", "\x85", "\u00a0", "\u2028",
)
# Characters that start no token: numeric non-letters (``½`` and ``²`` are
# word characters but not letters; ``٣`` is a decimal digit), lone ``-``
# and ``/``, and other symbols.
_BAD = ("½", "²", "٣", "1", "-", "/", "!", "#")
_LETTERS_AND_SPACES = st.characters(categories=["L", "Zs"])


class TestLexer:
    """The regex lexer against the character loop it replaced."""

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.seq")),
                             ids=lambda p: p.name)
    def test_example_programs(self, path):
        text = path.read_text(encoding="utf-8")
        assert _lexed(_lex, text) == _lexed(reference_lex, text)

    @pytest.mark.parametrize("text", [
        "",
        "atom a -- trailing comment",
        "atom a   -- comment\nb",
        "atom a\t-- comment\n\n-- more\n",
        "x\r\ny\r\n",
        "a  ",
        "a\n  ",
        "f x½ = x",
        "½",
        "x ²",
        "a - b",
        "a / b",
        "_ _x x_ x' ''",
    ])
    def test_pitfalls(self, text):
        assert _lexed(_lex, text) == _lexed(reference_lex, text)

    def test_column_after_comment(self):
        toks = _lexed(_lex, "atom a   -- c\n")
        assert toks[-2] == ("NL", "", 1, 10)
        toks = _lexed(_lex, "atom a -- c")
        assert toks[-2:] == [("NL", "", 1, 8), ("EOF", "", 1, 8)]

    def test_numeric_non_letter_rejected(self):
        with pytest.raises(ParseError) as exc:
            _lex("f x = ½", "t.seq")
        d = exc.value.diagnostic
        assert (d.expected, d.found, str(d.span)) == ("token", "'½'",
                                                       "t.seq:1:7")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_PIECES), _LETTERS_AND_SPACES),
                    max_size=40).map("".join))
    def test_random_text(self, text):
        assert _lexed(_lex, text) == _lexed(reference_lex, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_PIECES), st.sampled_from(_BAD),
                              st.characters()),
                    max_size=40).map("".join))
    def test_random_text_with_errors(self, text):
        assert _lexed(_lex, text) == _lexed(reference_lex, text)


def _tree(x):
    """A parse tree as nested tuples: each node as its class name and its
    fields, each position as ``(file, line, col)``.  A surface node's offset
    is resolved through its source; a reference node holds its span."""
    if isinstance(x, Span):
        return (x.file, x.line, x.col)
    fields = getattr(type(x), "_fields", None)            # reference nodes
    if fields is None:
        fields = getattr(type(x), "__match_args__", None)  # surface records
    if fields is not None:
        return (type(x).__name__,) + tuple(
            _tree(x.span if f == "at" else getattr(x, f))
            for f in fields if f != "src")
    if isinstance(x, (list, tuple)):
        return tuple(map(_tree, x))
    return x


def _parsed(parser, text: str):
    """The parse tree of ``text``, or the raised diagnostic."""
    try:
        return _tree(parser(text, "p.seq"))
    except ParseError as e:
        return e.diagnostic


def _bench_programs():
    """The programs the benchmark generates, but the probe too deep for
    either parser."""
    w = bench_workloads()
    yield from (w.wide_source(k) for k in w.WIDE_SIZES)
    yield from (w.chain_source(n) for n in w.CHAIN_SIZES)
    yield from (w.library(n, 2024)[0] for n in w.LIBRARY_SIZES)
    yield w.deep_sum_source(w.DEEP_SUM_DEPTH)
    yield w.product_source(w.PRODUCT_FACTORS)


# Pieces of surface programs, for text that reaches the parser's
# productions and their failures.
_FRAGMENTS = (
    "atom a\n", "atom _a\n", "postulate c : a\n", "postulate ", "f : ",
    "a -> a", "a + a", "a * a", "a /\\ a", "Pi (x : a). ", "Sigma (y : a). ",
    "(a + a) * a -> a", "f ", "g ", "x", "y", "_", "x@", "(inl x)", "inr ",
    "(x, y)", "(_, inr y)", " = ", "f x", "(f x, y)", "inl (x, y)",
    "f x = x\n", "f (inl x) = x\n", "f (inr y) = c\n", "g x y = y\n",
    "f x y = x\n", "Pi ", "Sigma ", "(x : a)", "(x a)", ". ",
)


class TestParseReference:
    """The index parser against the token-at-a-time parser it replaced
    (``parse_reference``): the same tree, positions resolved to lines and
    columns, or the same diagnostic."""

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.seq")),
                             ids=lambda p: p.name)
    def test_example_programs(self, path):
        text = path.read_text(encoding="utf-8")
        assert _parsed(parse, text) == _parsed(reference_parse, text)

    def test_clause_set_variants(self):
        n = 0
        for _, lines in clause_set_variants():
            text = "\n".join(lines)
            assert _parsed(parse, text) == _parsed(reference_parse, text)
            n += 1
        assert n == 254

    def test_surface_errors(self):
        assert len(SURFACE_ERRORS) == 53
        for _, text in SURFACE_ERRORS:
            assert _parsed(parse, text) == _parsed(reference_parse, text)

    def test_bench_programs(self):
        for text in _bench_programs():
            assert _parsed(parse, text) == _parsed(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS + _PIECES), max_size=30)
           .map("".join))
    def test_random_text(self, text):
        assert _parsed(parse, text) == _parsed(reference_parse, text)


class TestPolarize:
    def setup_method(self):
        self.sig = Sig(frozenset({Name("ℕ")}))

    def test_worked_example_type(self):
        decls = parse(source("f.seq"))
        ty = polarize(decls[2].type, self.sig, Mode.PROP)
        want = Imp(Or(Prod(Down(NAT), Down(NAT)), Down(NAT)), NAT)
        assert ty == want

    def test_plain_atom(self):
        ty = polarize(parse("atom ℕ\npostulate n : ℕ\n")[1].type, self.sig)
        assert ty == NAT

    def test_right_nested_arrows(self):
        decls = parse("atom ℕ\npostulate add : ℕ -> ℕ -> ℕ\n")
        ty = polarize(decls[1].type, self.sig)
        assert ty == Imp(Down(NAT), Imp(Down(NAT), NAT))

    def test_with_is_negative(self):
        decls = parse("atom ℕ\npostulate b : ℕ /\\ ℕ\n")
        assert polarize(decls[1].type, self.sig) == With(NAT, NAT)

    def test_dependent_mode_operators(self):
        from seqcore.syntax import Pi, Sigma
        decls = parse("atom ℕ\npostulate s : (Sigma (x : ℕ) . ℕ) -> ℕ\n")
        ty = polarize(decls[1].type, self.sig, Mode.DEP)
        assert isinstance(ty, Pi)
        assert isinstance(ty.arg, Sigma)

    def test_mode_violations(self):
        decls = parse("atom ℕ\npostulate s : Pi (x : ℕ) . ℕ\n")
        with pytest.raises(CompileFail) as exc:
            polarize(decls[1].type, self.sig, Mode.PROP)
        assert exc.value.diagnostic.rule == "mode"

    def test_polarized_types_are_well_formed(self):
        # Every surface type up to depth 2 over a declared atom a and an
        # undeclared atom b: polarize either rejects it or returns a type
        # that respects the mode's grammar with every atom declared.
        src = _Source("", "<type>")
        leaves = [TName("a", 0, src), TName("b", 0, src)]
        types = leaves
        for _ in range(2):
            types = leaves + [
                t for l in types for r in types
                for t in (TArrow(l, r), TBin("*", l, r), TBin("+", l, r),
                          TBin("/\\", l, r), TBind("Pi", "x", l, r, 0, src),
                          TBind("Sigma", "x", l, r, 0, src))]
        sig = Sig(frozenset({Name("a")}))
        accepted = 0
        for mode in Mode:
            for t in types:
                try:
                    ty = polarize(t, sig, mode)
                except CompileFail:
                    continue
                accepted += 1
                assert well_formed_neg(ty, sig, mode), (mode, t)
        assert (len(types), accepted) == (4058, 396)


class TestCompile:
    def test_worked_example_alpha_equal(self):
        prog = load_program(source("f.seq"), "f.seq")
        f = prog.find("f")
        x, y, z, w = Name("x"), Name("y"), Name("z"), Name("w")
        golden = Lam(POr(w, PPair(Var(x), Var(y)), Var(z)),
                     Split(w,
                           App(Name("add"), Cons(eta(x), Cons(eta(y), Nil()))),
                           App(z, Nil())))
        assert alpha_eq(f.term, golden)

    def test_single_variable_clause(self):
        prog = load_program("atom a\ng : a -> a\ng x = x\n")
        g = prog.find("g")
        x = Name("x")
        assert alpha_eq(g.term, Lam(Var(x), App(x, Nil())))

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    def test_pair_argument_at_a_with_type(self, mode):
        # A pair argument at a thunked conjunction is a thunked pair of
        # terms, not an application.
        prog = load_program("atom a\npostulate h : (a /\\ a) -> a\n"
                            "g : a -> a\ng x = h (x, x)\n", "p.seq", mode)
        g = prog.find("g")
        x = Name("x")
        pair = Pair(App(x, Nil()), App(x, Nil()))
        assert alpha_eq(g.term, Lam(Var(x), App(Name("h"),
                                                Cons(Thunk(pair), Nil()))))
        check = check_term if mode is Mode.PROP else dep_check_term
        assert check(prog.sig, [], g.term, g.type) is None

    def test_missing_branch_reported(self):
        src = "atom a\ng : a + a -> a\ng (inl x) = x\n"
        with pytest.raises(CompileFail) as exc:
            load_program(src)
        d = exc.value.diagnostic
        assert d.rule == "coverage"
        assert "inr _" in d.found

    def test_nested_missing_branch_path(self):
        # The missing case reads as a clause head: an injection in argument
        # position or under another injection is parenthesized.
        cases = [
            ("g : (a + a) + a -> a\ng (inl (inl x)) = x\ng (inr z) = z",
             "g (inl (inr _))"),
            ("g : (a + a) * a -> a\ng (inl x, y) = y", "g (inr _, _)"),
            ("g : a * (a + a) -> a\ng (x, inl y) = x", "g (_, inr _)"),
            ("g : (a * (a + a)) + a -> a\ng (inl (x, inl y)) = x\n"
             "g (inr z) = z", "g (inl (_, inr _))"),
            ("g : a -> a + a -> a\ng x (inl y) = y", "g _ (inr _)"),
        ]
        for mode in (Mode.PROP, Mode.DEP):
            for decl, head in cases:
                with pytest.raises(CompileFail) as exc:
                    load_program("atom a\n" + decl + "\n", mode=mode)
                assert exc.value.diagnostic.found == "missing case: " + head

    def test_compiled_suite_typechecks(self):
        # Compilation soundness over the whole example suite.
        for name, mode, structural in SUITE:
            prog = load(name)
            bad = check_program(prog, mode, structural)
            assert not bad, f"{name}: {bad}"

    def test_trees_of_exhaustive_sets_are_fail_free(self):
        # A coverage hole is a diagnostic, never a node of the tree.
        def nodes(t):
            yield t
            match t:
                case SplitNode(_, l, r):
                    yield from nodes(l)
                    yield from nodes(r)
                case PairNode(_, s):
                    yield from nodes(s)

        for name, mode, structural in SUITE:
            prog = load(name)
            for d in prog.decls:
                if d.kind == "def" and d.tree is not None:
                    assert all(type(n) in (Leaf, SplitNode, PairNode)
                               for n in nodes(d.tree))

    def test_warnings(self):
        src = ("atom a\npostulate c : a\n"
               "g : a + a -> a\ng (inl x) = x\ng y = c\ng (inr z) = z\n")
        prog = load_program(src)
        assert any("never used" in w for w in prog.warnings)
        assert any("overlap" in w for w in prog.warnings)

    def test_eta_expansion_of_sum_variable(self):
        # A variable naming a whole sum compiles to a split that rebuilds it.
        prog = load_program(source("eta.seq"), "eta.seq")
        passon = prog.find("passOn")
        assert check_term(prog.sig, [], passon.term, passon.type) is None
        # operationally it forwards both injections
        from seqcore.reduce import normalize
        from reference import ArgPool, enumerate_data
        pool = ArgPool(prog.sig)
        argty = passon.type.arg
        for d in enumerate_data(argty, 3, pool):
            res = normalize(pool.sig, App(passon.name, Cons(d, Nil())), 10000)
            want = App(Name("sink"), Cons(d, Nil()))
            assert alpha_eq(res.term, want)

    def test_zero_clauses_rejected(self):
        with pytest.raises(CompileFail) as exc:
            load_program("atom a\ng : a -> a\n")
        assert exc.value.diagnostic.rule == "coverage"

    def test_duplicate_declaration(self):
        with pytest.raises(CompileFail):
            load_program("atom a\natom a\n")

    def test_nonlinear_clause(self):
        with pytest.raises(CompileFail) as exc:
            load_program("atom a\ng : a * a -> a\ng (x, x) = x\n")
        assert exc.value.diagnostic.rule == "linear"


def _leaves(tree) -> int:
    todo, n = [tree], 0
    while todo:
        t = todo.pop()
        match t:
            case Leaf(_):
                n += 1
            case SplitNode(_, l, r):
                todo += [l, r]
            case PairNode(_, sub):
                todo.append(sub)
    return n


class TestCompareOnce:
    """The clause compiler compares each binding type with each goal once
    per declaration, not at every case-tree leaf that rebuilds the binding
    as data."""

    @staticmethod
    def sum_type(depth: int) -> str:
        ty = "a"
        for _ in range(depth):
            ty = f"a + ({ty})"
        return ty

    def deep_sum(self, depth: int) -> str:
        ty = self.sum_type(depth)
        return f"atom a\nf : {ty} -> {ty}\nf v = v\n"

    @pytest.fixture
    def comparisons(self, monkeypatch):
        """Calls of the two comparisons the compiler makes, by name."""
        from seqcore import surface
        counts = collections.Counter()
        for name in ("alpha_eq", "convert"):
            def counted(*args, _name=name, _real=getattr(surface, name)):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(surface, name, counted)
        return counts

    @pytest.mark.parametrize("depth", [40, 80])
    def test_deep_sum(self, comparisons, depth):
        prog = load_program(self.deep_sum(depth))
        f = prog.find("f")
        assert _leaves(f.tree) == depth + 1
        assert comparisons == {"alpha_eq": 1}
        assert check_term(prog.sig, [], f.term, f.type) is None

    @pytest.mark.parametrize("depth", [40, 80])
    def test_deep_sum_dependent(self, comparisons, depth):
        prog = load_program(self.deep_sum(depth), mode=Mode.DEP)
        f = prog.find("f")
        assert _leaves(f.tree) == depth + 1
        assert comparisons == {"convert": 1}
        assert dep_check_term(prog.sig, [], f.term, f.type) is None

    def test_product_of_sums(self, comparisons):
        ty = " * ".join(["(a + a)"] * 10)
        prog = load_program(f"atom a\nid : {ty} -> {ty}\nid v = v\n")
        assert _leaves(prog.find("id").tree) == 1024
        assert comparisons == {"alpha_eq": 1}

    def test_product_of_sums_dependent(self, comparisons):
        # Each * polarizes to a Sigma with a fresh binder, so the argument
        # and result types are alpha-equal but never ==.
        ty = " * ".join(["(a + a)"] * 10)
        prog = load_program(f"atom a\nid : {ty} -> {ty}\nid v = v\n",
                            mode=Mode.DEP)
        assert _leaves(prog.find("id").tree) == 1024
        assert comparisons == {"convert": 1}

    @pytest.mark.parametrize("mode, same, check, product, compared", [
        (Mode.PROP, "alpha_eq", check_term, False, 1),
        (Mode.DEP, "convert", dep_check_term, False, 1),
        (Mode.DEP, "convert", dep_check_term, True, 2)],
        ids=["prop", "dep", "dep-product"])
    def test_one_binding_at_two_goals(self, comparisons, mode, same, check,
                                      product, compared):
        # v is rebuilt at every leaf at both argument types of k.  The
        # polarized sums are shared, so the two goals are one object and
        # are compared once.  A dependent product is a Sigma with a fresh
        # binder, so there the two goals are equal but not the same object:
        # each is compared once.  The result type of k v v is the goal a
        # itself at every leaf, and identity settles it.
        ty = " * ".join(["(a + a)"] * 4) if product else self.sum_type(40)
        prog = load_program(f"atom a\npostulate k : {ty} -> {ty} -> a\n"
                            f"f : {ty} -> a\nf v = k v v\n", mode=mode)
        f = prog.find("f")
        assert _leaves(f.tree) == (16 if product else 41)
        assert comparisons == {same: compared}
        assert check(prog.sig, [], f.term, f.type) is None

    def test_mismatch_reported_at_its_leaf(self, comparisons):
        # Clause 1 rebuilds v at both of its leaves and matches once;
        # clause 2's w is a product where a sum is due.
        src = ("atom a\ng : (a + a) + (a * a) -> a + a\n"
               "g (inl v) = v\ng (inr w) = w\n")
        with pytest.raises(CompileFail) as exc:
            load_program(src, "m.seq")
        d = exc.value.diagnostic
        assert (d.rule, d.span.line, d.span.col) == ("type", 4, 13)
        assert (d.expected, d.found) == ("(dn a) + dn a", "(dn a) * dn a")
        assert comparisons == {"alpha_eq": 2}


def _walk(x):
    """Every node of ``x`` that ``children`` reaches, once per reference."""
    todo = [x]
    while todo:
        y = todo.pop()
        yield y
        todo += children(y)


_BINDERS = (Pi, Sigma)


def _types(prog):
    """Every type node of the declared types of ``prog``."""
    for d in prog.decls:
        if d.type is not None:
            yield from _walk(d.type)


def _flat(x) -> list:
    """``x`` in preorder, binder patterns included: each node's class, its
    leading field (a pattern binder is listed as its own nodes) and its
    number of children.  Two trees are == exactly when these lists are,
    and the lists compare without recursion, however deep the trees."""
    out = []
    for y in syntax._nodes(x):
        lay = y.layout
        lead = getattr(y, lay.lead) if lay.lead else None
        out.append((type(y), None if isinstance(lead, Pattern) else lead,
                    len(lay.children(y))))
    return out


def _every_program():
    """Each example and clause-set variant (the examples among them) and
    each benchmark program, as text."""
    for _, lines in clause_set_variants():
        yield "\n".join(lines)
    yield from _bench_programs()


class TestSharedTypes:
    """``load_program`` polarizes a program's declared types with one
    table.  Loading with it gives what polarizing each declared type with a
    table of its own gives, and shares each equal binder-free type."""

    @staticmethod
    def outcome(monkeypatch, text: str, mode: Mode):
        """The compiled declarations and warnings of ``text``, or its
        diagnostic.  Fresh names are drawn from 1, so two loads that draw
        them in the same order name their binders alike."""
        monkeypatch.setattr(syntax, "_fresh_counter", itertools.count(1))
        try:
            prog = load_program(text, "p.seq", mode)
        except DiagnosticError as e:
            return e.diagnostic
        return [(d.kind, d.name, d.span, _flat(d.type) if d.type else None,
                 _flat(d.term) if d.term else None, d.warnings)
                for d in prog.decls], prog.warnings

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    def test_one_table_as_a_table_each(self, monkeypatch, mode):
        texts = list(_every_program())
        shared = [self.outcome(monkeypatch, text, mode) for text in texts]
        polarize = surface.polarize

        def own_table(ty, sig, mode, shared):
            return polarize(ty, sig, mode)

        monkeypatch.setattr(surface, "polarize", own_table)
        own = [self.outcome(monkeypatch, text, mode) for text in texts]
        assert len(texts) == 254 + 10
        for text, a, b in zip(texts, shared, own):
            assert a == b, text[:200]
        diagnostics = sum(type(a) is not tuple for a in shared)
        assert diagnostics == (227 if mode is Mode.PROP else 226)

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    def test_equal_binder_free_types_are_one_object(self, mode):
        loaded = 0
        for text in _every_program():
            try:
                prog = load_program(text, "p.seq", mode)
            except DiagnosticError:
                continue
            loaded += 1
            seen: dict[str, object] = {}
            binders = collections.Counter()
            for node in _types(prog):
                if isinstance(node, _BINDERS):
                    binders[id(node)] += 1
                elif not any(isinstance(n, _BINDERS) for n in _walk(node)):
                    assert seen.setdefault(repr(node), node) is node
            assert set(binders.values()) <= {1}
        assert loaded == (37 if mode is Mode.PROP else 38)

    def test_two_loads_share_no_type(self):
        text = ("atom a\natom b\npostulate c : a + b -> a\n"
                "f : a * b -> (a + b) /\\ a\nf (x, y) = (inl x, c (inl x))\n")
        first = load_program(text)
        second = load_program(text)
        assert first.decls[2].type == second.decls[2].type
        assert not {id(n) for n in _types(first)} & {
            id(n) for n in _types(second)}

    def test_rebuilt_thunk_position_is_one_thunk(self):
        ty = " * ".join(["(a + a)"] * 3)
        prog = load_program(f"atom a\nid : {ty} -> {ty}\nid v = v\n")
        thunks = collections.defaultdict(set)
        uses = collections.Counter()
        for node in _walk(prog.find("id").term):
            if type(node) is Thunk:
                thunks[node.body.head].add(id(node))
                uses[node.body.head] += 1
        assert len(thunks) == 6
        assert set(map(len, thunks.values())) == {1}
        assert set(uses.values()) == {4}


class TestSharingWork:
    """Counted work, no timing: on the random libraries of the benchmark
    every type comparison an application makes is settled by identity, and
    a rebuilt thunk position builds its eta-injection once."""

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    def test_library_compares_no_types(self, monkeypatch, mode):
        counts = collections.Counter()

        def counted(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for module in (surface, check_dep):
            monkeypatch.setattr(module, "convert",
                                counted("convert", module.convert))
        for cls in (Atom, Up, Imp, With, Pi, Down, Or, Prod, Sigma):
            monkeypatch.setattr(cls, "__eq__",
                                counted(f"{cls.__name__}.__eq__", cls.__eq__))
        text = bench_workloads().library(200, 2024)[0]
        prog = load_program(text, "lib.seq", mode)
        check = check_term if mode is Mode.PROP else dep_check_term
        defs = [d for d in prog.decls if d.kind == "def"]
        assert len(defs) == 200
        for d in defs:
            assert check(prog.sig, [], d.term, d.type) is None
        assert counts == {}

    def test_product_builds_one_eta_per_thunk_position(self, monkeypatch):
        # Ten (a + a) factors: 20 thunk positions under v, rebuilt at each
        # of the 1024 leaves.  An eta-injection per leaf built 10,240.
        calls = [0]
        real = surface.eta

        def counting(x):
            calls[0] += 1
            return real(x)

        monkeypatch.setattr(surface, "eta", counting)
        w = bench_workloads()
        prog = load_program(w.product_source(w.PRODUCT_FACTORS))
        assert _leaves(prog.find("id").tree) == 1024
        assert calls[0] == 20


class TestFrontEndWork:
    """Counted work, no timing: a load builds one record per declaration,
    no span and no empty spine, and one eta-injection per name."""

    @staticmethod
    def built(monkeypatch, text: str, mode: Mode):
        """The records of each counted class that loading ``text`` builds,
        and the eta-injections ``Thunk(App(x, []))`` it builds of each x."""
        counts = collections.Counter()
        injections = collections.Counter()
        for cls in (Span, surface.SurfaceDecl, Nil, Thunk):
            def init(self, *args, _real=cls.__init__, _cls=cls, **kwargs):
                counts[_cls.__name__] += 1
                _real(self, *args, **kwargs)
                if (_cls is Thunk and type(self.body) is App
                        and type(self.body.spine) is Nil):
                    injections[self.body.head] += 1
            monkeypatch.setattr(cls, "__init__", init)
        load_program(text, "w.seq", mode)
        monkeypatch.undo()
        return counts, injections

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    @pytest.mark.parametrize("workload, decls", [
        ("library", 204), ("chain", 404)])
    def test_counts_per_load(self, monkeypatch, mode, workload, decls):
        w = bench_workloads()
        text = (w.library(200, 2024)[0] if workload == "library"
                else w.chain_source(400))
        counts, injections = self.built(monkeypatch, text, mode)
        # Spans made at parse time, a record per type line and a new empty
        # spine per application came to 454 and 805 spans, 404 and 805
        # declarations and 2,336 and 802 empty spines (propositional mode).
        assert counts["SurfaceDecl"] == decls
        assert counts["Span"] == counts["Nil"] == 0
        assert injections and set(injections.values()) == {1}
        assert counts["Thunk"] == {("library", Mode.PROP): 1544,
                                   ("library", Mode.DEP): 1578,
                                   ("chain", Mode.PROP): 401,
                                   ("chain", Mode.DEP): 401}[workload, mode]

    @pytest.mark.parametrize("name, mode, _structural", SUITE,
                             ids=[e[0] for e in SUITE])
    def test_spans_on_demand(self, name, mode, _structural):
        text = source(name)
        decls = parse(text, name)
        src = _Source(text, name)
        prog = load_program(text, name, mode)
        assert [c.span for c in prog.decls] == [d.span for d in decls]
        for d in decls:
            for x in (d, *d.clauses):
                # The name starts at the offset, and the span is its line
                # and column, counted here from the text.
                assert text.startswith(d.name, x.at)
                assert x.span == src.span(x.at) == Span(
                    name, *_line_col(text, x.at))

    @pytest.mark.parametrize("text, at, line, col", [
        ("atom a\nf : a -> a\n", 0, 1, 1),
        ("atom a\nf : a -> a\n", 6, 1, 7),      # the newline itself
        ("atom a\nf : a -> a\n", 7, 2, 1),      # a line start
        ("atom a\npostulate p : a", 17, 2, 11),  # a last line with no newline
        ("atom a\npostulate p : a", 22, 2, 16),  # and its end
    ])
    def test_span_at_line_edges(self, text, at, line, col):
        assert _Source(text, "s").span(at) == Span("s", line, col)

    @pytest.mark.parametrize("text, line, col", [
        ("atom a\natom b -- c", 2, 8),
        ("atom a\n  -- c", 2, 3),
        ("atom a\n-- c\n", 3, 1),
    ])
    def test_span_of_end_of_input_after_a_comment(self, text, line, col):
        kinds, _, offs = _lex(text, "s")
        assert kinds[-1] == "EOF"
        assert _Source(text, "s").span(offs[-1]) == Span("s", line, col)

    @pytest.mark.parametrize("text, found, line, col", [
        ("atom a\nf : a -> a\nf x = ½", "'½'", 3, 7),
        ("atom a\n\n$", "'$'", 3, 1),
    ])
    def test_span_of_a_bad_token(self, text, found, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text, "s")
        d = exc.value.diagnostic
        assert (d.expected, d.found, d.span) == (
            "token", found, Span("s", line, col))


class TestLoadOrder:
    """``load_program`` grows one signature index in place, and each
    declaration still sees only the declarations before it."""

    SRC = ("atom a\npostulate c : a\nf : a -> a\nf x = g x\n"
           "g : a -> a\ng x = x\n")

    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP])
    def test_later_name_unbound_in_earlier_body(self, mode):
        with pytest.raises(CompileFail) as exc:
            load_program(self.SRC, "o.seq", mode)
        d = exc.value.diagnostic
        assert (d.rule, d.found, d.span.line, d.span.col) == ("unbound", "g",
                                                            4, 7)

    def test_signature_in_file_order(self):
        prog = load_program(self.SRC.replace("f x = g x", "f x = c"))
        entries = prog.sig.entries
        assert [e.name.text for e in entries] == ["c", "f", "g"]
        assert [e.body is None for e in entries] == [True, False, False]
        assert prog.sig == Sig(prog.sig.atoms, entries)
        for e in entries:
            assert prog.sig.lookup(e.name) is e


class TestCoveragePin:
    """``check`` and ``core`` on every clause-set variant, hashed.

    Pins the exit code, stdout and stderr of each call: coverage holes,
    "never used" and overlap warnings, and the compiled terms."""

    CALLS = 1524
    COVERAGE_ERRORS = 1308
    DIGEST = "fb35030333f1a6718aaf699b6376e211890c1aabc2d5fd60919f6d616c9d9dab"

    @staticmethod
    def outcomes(capsys, monkeypatch, tmp_path):
        import itertools
        from seqcore import syntax
        from seqcore.cli import entry
        monkeypatch.chdir(tmp_path)
        for label, lines in clause_set_variants():
            pathlib.Path("v.seq").write_text("\n".join(lines), encoding="utf-8")
            for cmd in ("check", "core"):
                for flags in ((), ("--dependent",), ("--structural-patterns",)):
                    monkeypatch.setattr(syntax, "_fresh_counter",
                                        itertools.count(1))
                    code = entry([cmd, "v.seq", *flags])
                    out, err = capsys.readouterr()
                    yield (label, cmd, flags), code, out, err

    def test_outcomes_digest(self, capsys, monkeypatch, tmp_path):
        import hashlib
        h = hashlib.sha256()
        calls = coverage = 0
        for _, code, out, err in self.outcomes(capsys, monkeypatch, tmp_path):
            h.update(repr((code, out, err)).encode("utf-8") + b"\n")
            calls += 1
            coverage += "ERROR coverage" in err
        assert (calls, coverage, h.hexdigest()) == (
            self.CALLS, self.COVERAGE_ERRORS, self.DIGEST)


# Erroneous programs, one or more per diagnostic the front end reports, and
# a few accepted ones that pin as-patterns and slot names.
_HEAD = "atom a\npostulate c : a\npostulate f : a -> a\n"
SURFACE_ERRORS = [
    # pattern: a pattern of the wrong shape for its position
    ("pair at sum", _HEAD + "g : a + a -> a\ng (x, y) = x\n"),
    ("inl at product", _HEAD + "g : a * a -> a\ng (inl x) = x\n"),
    ("inr at thunk", _HEAD + "g : a -> a\ng (inr x) = x\n"),
    ("pair at thunk", _HEAD + "g : a -> a\ng (x, y) = x\n"),
    ("pair under inl", _HEAD + "g : a + a -> a\ng (inl (x, y)) = x\ng (inr z) = z\n"),
    ("inl under pair", _HEAD + "g : a * a -> a\ng (inl x, y) = y\n"),
    ("as over pair at thunk", _HEAD + "g : a -> a\ng v@(x, y) = x\n"),
    ("wildcard under pair at sum", _HEAD + "g : (a + a) * a -> a\ng (_, y) = y\n"),
    # type: a right-hand side of the wrong shape or type
    ("pair at atom", _HEAD + "g : a -> a\ng x = (x, x)\n"),
    ("inl at atom", _HEAD + "g : a -> a\ng x = inl x\n"),
    ("inr at product", _HEAD + "g : a -> a * a\ng x = inr x\n"),
    ("pair at sum", _HEAD + "g : a -> a + a\ng x = (x, x)\n"),
    ("inl at with", _HEAD + "g : a -> a /\\ a\ng x = inl x\n"),
    ("application at other atom", _HEAD + "atom b\npostulate k : b\ng : a -> a\ng x = k\n"),
    ("argument at other atom", _HEAD + "atom b\npostulate k : b\ng : a -> a\ng x = f k\n"),
    ("sum variable as head", _HEAD + "g : a + a -> a\ng v = v\n"),
    ("product variable as head", _HEAD + "g : a * a -> a\ng p = p c\n"),
    ("sum variable at product", _HEAD + "g : a + a -> a * a\ng v = v\n"),
    ("product as-name as head", _HEAD + "g : a * a -> a\ng p@(x, y) = p\n"),
    # unbound
    ("unbound head", _HEAD + "g : a -> a\ng x = y\n"),
    ("unbound argument", _HEAD + "g : a -> a\ng x = f z\n"),
    ("clause variable out of its clause", _HEAD + "g : a + a -> a\ng (inl x) = x\ng (inr y) = x\n"),
    # arity
    ("clause lengths differ", _HEAD + "g : a -> a -> a\ng x y = x\ng x = x\n"),
    ("more patterns than arrows", _HEAD + "g : a -> a\ng x y = x\n"),
    ("more arguments than arrows", _HEAD + "g : a -> a\ng x = f x x\n"),
    ("variable applied", _HEAD + "g : a -> a\ng x = x x\n"),
    # mode
    ("Pi", _HEAD + "g : Pi (x : a). a\ng x = x\n"),
    ("Sigma", _HEAD + "g : (Sigma (x : a). a) -> a\ng (u, v) = u\n"),
    ("Pi postulate", _HEAD + "postulate p : Pi (x : a). a\n"),
    # atom
    ("undeclared atom", _HEAD + "postulate k : b\n"),
    ("undeclared atom in def", _HEAD + "g : a -> b\ng x = x\n"),
    ("undeclared atom under Pi", _HEAD + "g : Pi (x : b). a\ng x = c\n"),
    # linear
    ("pair repeats a name", _HEAD + "g : a * a -> a\ng (x, x) = x\n"),
    ("arguments repeat a name", _HEAD + "g : a + a -> a -> a\ng (inl x) x = x\ng (inr y) z = z\n"),
    ("as repeats a name", _HEAD + "g : a -> a\ng x@x = x\n"),
    # scope
    ("atom twice", "atom a\natom a\n"),
    ("postulate shadows def", _HEAD + "g : a -> a\ng x = x\npostulate g : a\n"),
    # coverage
    ("no clauses", _HEAD + "g : a -> a\n"),
    ("inr missing", _HEAD + "g : a + a -> a\ng (inl x) = x\n"),
    ("second argument missing", _HEAD + "g : a -> a + a -> a\ng x (inr y) = y\n"),
    # parse
    ("bad character", _HEAD + "g : a -> a\ng x = x $\n"),
    ("leading underscore", "atom _a\n"),
    ("clause without declaration", _HEAD + "g x = x\n"),
    ("missing type", _HEAD + "postulate k :\n"),
    ("missing pattern", _HEAD + "g : a -> a\ng = = x\n"),
    # as-patterns at thunk, sum and product types
    ("as at thunk", _HEAD + "g : a -> a\ng x@y = f y\n"),
    ("as at sum", _HEAD + "postulate sink : (a + a) -> a\ng : a + a -> a\ng v@(inl x) = sink v\ng (inr y) = y\n"),
    ("as at product", _HEAD + "postulate two : a * a -> a\ng : a * a -> a\ng p@(x, y) = two p\n"),
    ("as chain at thunk", _HEAD + "g : a -> a\ng x@y@z = f z\n"),
    ("as under inl", _HEAD + "g : a + a -> a\ng (inl x@y) = f y\ng (inr z) = z\n"),
    # slot names: no clause names the slot, or only some clauses do
    ("wildcard names no slot", _HEAD + "g : a -> a\ng _ = c\n"),
    ("wildcard beside a name", _HEAD + "g : a + a -> a\ng (inl _) = c\ng (inr y) = y\n"),
    ("sum under a pair", _HEAD + "g : (a + a) * a -> a\ng (inl x, y) = x\ng (inr x, y) = y\n"),
]


class TestSurfaceDiagnosticPin:
    """``check`` and ``core`` on each program of ``SURFACE_ERRORS``, hashed.

    Pins the exit code, stdout and stderr of each call in the three flag
    sets, and checks that the table reaches each rule it is meant to."""

    CALLS = 318
    RULES = {"pattern", "type", "unbound", "arity", "mode", "atom", "linear",
             "scope", "coverage", "parse", "dep-pattern",
             "structural-disabled"}
    DIGEST = "2063b035ffb58ecfaeebec7cc48d3140634e11ffd962143de3d397e49dae3f8c"

    def test_outcomes_digest(self, capsys, monkeypatch, tmp_path):
        import hashlib
        import itertools
        import re
        from seqcore import syntax
        from seqcore.cli import entry
        monkeypatch.chdir(tmp_path)
        h = hashlib.sha256()
        calls = 0
        rules = set()
        for label, text in SURFACE_ERRORS:
            pathlib.Path("p.seq").write_text(text, encoding="utf-8")
            for cmd in ("check", "core"):
                for flags in ((), ("--dependent",), ("--structural-patterns",)):
                    monkeypatch.setattr(syntax, "_fresh_counter",
                                        itertools.count(1))
                    code = entry([cmd, "p.seq", *flags])
                    out, err = capsys.readouterr()
                    h.update(repr((label, cmd, flags, code, out, err))
                             .encode("utf-8") + b"\n")
                    calls += 1
                    rules.update(re.findall(r"^ERROR (\S+)", err, re.M))
        assert rules == self.RULES
        assert (calls, h.hexdigest()) == (self.CALLS, self.DIGEST)

    # A bare variable and a bare constant, each at a thunk type other than
    # its own: a name used bare shares its injection only at its binding's
    # very type, and these keep the diagnostic of the full path.
    @pytest.mark.parametrize("mode", [Mode.PROP, Mode.DEP],
                             ids=["prop", "dep"])
    @pytest.mark.parametrize("text, line", [
        (_HEAD + "atom b\ng : b -> a\ng y = f y\n", 6),
        (_HEAD + "atom b\npostulate k : b\ng : a -> a\ng x = f k\n", 7),
    ], ids=["variable", "constant"])
    def test_bare_name_at_another_thunk_type(self, mode, text, line):
        with pytest.raises(CompileFail) as exc:
            load_program(text, "p.seq", mode)
        d = exc.value.diagnostic
        assert (d.rule, d.expected, d.found, d.span) == (
            "type", "a", "b", Span("p.seq", line, 9))


class TestPrettyEquations:
    def test_worked_example_round(self):
        prog = load_program(source("f.seq"), "f.seq")
        f = prog.find("f")
        text = pretty_equations(f.name, f.term, f.type)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("f (inl (") or lines[0].startswith("f inl")
        assert "add" in lines[0]
        assert lines[1].endswith("= z") and "inr" in lines[1]

    def test_identity_equation(self):
        prog = load_program("atom a\ng : a -> a\ng x = x\n")
        g = prog.find("g")
        assert pretty_equations(g.name, g.term, g.type) == "g x = x"

    def test_fallback_for_non_compiled_shapes(self):
        from seqcore.syntax import AppCut
        t = AppCut(Lam(Var(Name("x")), App(Name("x"), Nil())), Nil())
        text = pretty_equations(Name("h"), t, Atom(Name("a")))
        assert text.startswith("h = ")

    def test_round_trip_stability(self):
        # pretty the whole program, re-parse and re-compile it, pretty again:
        # the second trip reproduces the first text exactly.
        from suite import render_program
        for name, mode, structural in SUITE:
            if mode is Mode.DEP:
                continue
            prog = load(name)
            text1 = render_program(prog)
            prog2 = load_program(text1, f"round-{name}")
            text2 = render_program(prog2)
            assert text2 == text1, f"{name}:\n{text1}\nvs\n{text2}"
