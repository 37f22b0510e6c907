"""Records against the standard library's data classes.

Every class that ``seqcore``, or a test oracle, declares with ``record`` (or
``_node``) is rebuilt from its source text as a frozen
``dataclasses.dataclass`` twin with the same annotations and defaults.
Instances of each class are caught as the pipeline builds them on the
example programs and a generated corpus; each is compared with its twin:
``repr``, ``==``, ``hash``, ``__match_args__`` and defaults.  Every record
refuses assignment and deletion.
"""

import ast
import dataclasses
import importlib
import io
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from seqcore import record as record_module
from seqcore.syntax import Name, Sig

SRC = pathlib.Path(record_module.__file__).parent
TESTS = pathlib.Path(__file__).parent
MODULES = [(f"seqcore.{name}", SRC / f"{name}.py")
           for name in ("syntax", "diag", "surface", "check", "check_dep",
                        "reduce", "core_text", "cli")]
MODULES += [(name, TESTS / f"{name}.py")
            for name in ("core_reader", "step_reference", "suite")]
PROGRAMS = TESTS / "programs"
PER_CLASS = 60   # instances kept per class


def _declared():
    """Each record class with the defaults written in its class body, read
    from the source text."""
    out = []
    for modname, path in MODULES:
        mod = importlib.import_module(modname)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or not any(
                    getattr(dec, "func", dec).id in ("record", "_node")
                    for dec in node.decorator_list):
                continue
            defaults = {
                stmt.target.id: eval(compile(ast.Expression(stmt.value),
                                             "<default>", "eval"),
                                     vars(mod))
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None}
            out.append((getattr(mod, node.name), defaults))
    return out


DECLARED = _declared()
RECORDS = [cls for cls, _ in DECLARED]


def _twin_class(cls, defaults):
    ns = {"__annotations__": dict(cls.__annotations__),
          "__qualname__": cls.__qualname__, "__module__": __name__}
    for f, d in defaults.items():
        if f.startswith("_"):
            ns[f] = dataclasses.field(default=d, kw_only=True, compare=False,
                                      repr=False)
        else:
            ns[f] = d
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


TWINS = {cls: _twin_class(cls, defaults) for cls, defaults in DECLARED}


def twin(v):
    """``v`` with every record in it replaced by its twin.  A ``Name`` is a
    named tuple, not a record: it is left as it is."""
    if type(v) is Name:
        return v
    t = TWINS.get(type(v))
    if t is not None:
        return t(**{f.name: twin(getattr(v, f.name))
                    for f in dataclasses.fields(t)})
    if isinstance(v, (tuple, list, frozenset, set)):
        return type(v)(twin(w) for w in v)
    if isinstance(v, dict):
        return {twin(k): twin(w) for k, w in v.items()}
    return v


def _pipeline():
    """Runs the kernel on the example programs and a generated corpus."""
    from core_reader import parse_term
    from gen_corpus import _generate_corpus
    from step_reference import step
    from suite import pretty_equations
    from seqcore.check import check_term
    from seqcore.cli import entry
    from seqcore.core_text import print_term
    from seqcore.reduce import trace
    from seqcore.surface import CompileFail, load_program
    from seqcore.syntax import (App, BindCut, Inl, Mode, Name, Nil, PPair,
                                Thunk, Var)

    # Generated afresh: a corpus another test module has generated comes
    # from the cache, and the fixture would catch none of its records.
    sig, corpus = _generate_corpus.__wrapped__(40, 10, 3, False)
    for t, goal in corpus:
        check_term(sig, [], t, goal)
        step(sig, t)
        for _, u in trace(sig, t, 200)[0][:3]:
            parse_term(print_term(u))
    # A binding cut that steps and one that is stuck.
    x, y = Name("x"), Name("y")
    d = Inl(Thunk(App(Name("z"), Nil())))
    for pat in (Var(x), PPair(Var(x), Var(y))):
        step(sig, BindCut(pat, d, App(x, Nil())))
    # A clause set with a coverage gap, and equations read back.
    with pytest.raises(CompileFail):
        load_program("atom a\ng : a + a -> a\ng (inl x) = x\n")
    for p in sorted(PROGRAMS.glob("*.seq")):
        mode = Mode.DEP if p.name == "swap_dep.seq" else Mode.PROP
        for decl in load_program(p.read_text(encoding="utf-8"), p.name,
                                 mode).decls:
            if decl.kind == "def":
                pretty_equations(decl.name, decl.term, decl.type)
    runs = [["check", "wild.seq", "--structural-patterns"],
            ["check", "wild.seq"],
            ["check", "swap_dep.seq", "--dependent"],
            ["run", "f_run.seq", "--entry", "f", "--arg", "inr q"],
            ["run", "f_run.seq", "--entry", "f", "--arg", "inl (q, r)"],
            ["trace", "f_run.seq", "--entry", "f", "--arg", "inr q"]]
    for p in sorted(PROGRAMS.glob("*.seq")):
        runs += [["check", p.name], ["core", p.name]]
    for argv in runs:
        entry([argv[0], str(PROGRAMS / argv[1]), *argv[2:]])


@pytest.fixture(scope="module")
def instances():
    """Instances of each record class, caught as the pipeline builds them."""
    seen = {cls: [] for cls in RECORDS}
    inits = {cls: cls.__init__ for cls in RECORDS}

    def catching(cls, init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if len(seen[cls]) < PER_CLASS:
                seen[cls].append(self)
        return __init__

    for cls, init in inits.items():
        cls.__init__ = catching(cls, init)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            _pipeline()
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    return seen


def test_every_record_is_declared_and_caught(instances):
    assert len(RECORDS) == 62
    missing = [c.__name__ for c, xs in instances.items() if not xs]
    assert not missing, missing


def test_class_options_match(instances):
    for cls in RECORDS:
        t = TWINS[cls]
        assert cls.__match_args__ == t.__match_args__, cls
        assert (cls.__hash__ is None) == (t.__hash__ is None), cls
        assert tuple(cls.__slots__) == tuple(cls.__annotations__), cls
        x = instances[cls][0]
        assert not hasattr(x, "__dict__"), cls


def test_defaults_match(instances):
    # Built from the fields that have no default, the rest defaulted.
    for cls in RECORDS:
        t = TWINS[cls]
        x = instances[cls][0]
        required = {f.name: getattr(x, f.name) for f in dataclasses.fields(t)
                    if f.default is dataclasses.MISSING}
        a, b = cls(**required), t(**required)
        for f in dataclasses.fields(t):
            if f.compare:
                assert getattr(a, f.name) == getattr(b, f.name), (cls, f.name)


def test_repr_eq_hash_match(instances):
    rng = random.Random(5)
    for cls in RECORDS:
        xs = instances[cls]
        ts = [twin(x) for x in xs]
        for x, t in zip(xs, ts):
            assert repr(x) == repr(t)
            assert x == x and not x != x
            # A twin is a foreign type: neither side claims equality.
            assert x.__eq__(t) is NotImplemented and x != t
            assert x.__eq__(object()) is NotImplemented
            assert hash(x) == hash(t)
        pairs = [(i, j) for i in range(len(xs)) for j in range(len(xs))]
        for i, j in rng.sample(pairs, min(len(pairs), 400)):
            assert (xs[i] == xs[j]) == (ts[i] == ts[j]), cls
            assert (xs[i] != xs[j]) == (ts[i] != ts[j]), cls


def test_cross_class_pairs_with_equal_fields(instances):
    from seqcore.surface import PInlS, PInrS
    from seqcore.syntax import Inl, Inr, Nil, Or, Prod, Proj1, Proj2
    d = instances[Inl][0].body
    p = instances[PInlS][0].pat
    a = instances[Or][0]
    for x, y in [(Inl(d), Inr(d)), (Proj1(Nil()), Proj2(Nil())),
                 (PInlS(p), PInrS(p)),
                 (Or(a.left, a.right), Prod(a.left, a.right))]:
        tx, ty = twin(x), twin(y)
        assert x != y and not x == y
        assert (x == y) == (tx == ty)
        assert hash(x) == hash(tx) and hash(y) == hash(ty)


def test_sig_index_is_left_out(instances):
    sig = max(instances[Sig], key=lambda s: len(s.entries))
    assert sig.entries
    other = Sig(sig.atoms, sig.entries, _index={})
    assert sig == other and not sig != other
    assert hash(sig) == hash(other) == hash(twin(sig))
    assert repr(sig) == repr(other) == repr(twin(sig))
    assert Sig.__match_args__ == ("atoms", "entries")
    with pytest.raises(TypeError):
        Sig(frozenset(), (), {})    # keyword-only


def test_frozen_records_refuse_assignment_and_deletion(instances):
    for cls in RECORDS:
        x = instances[cls][0]
        names = tuple(cls.__annotations__) or ("anything",)
        for name in names + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
