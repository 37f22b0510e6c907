"""Core syntax of the kernel: polarized types and the four-sorted term language.

Types come in two polarities.  Negative types are invertible on the right
(atoms, ``Up``, implication, negative conjunction, ``Pi``); positive types are
invertible on the left (``Down``, sums, positive products, ``Sigma``).  The
shifts ``Up``/``Down`` move between the two sorts explicitly; the kernel never
infers them.

Terms split into four sorts:

* ``Term``     -- computations (``done d``, functions, spine applications,
                  pairs, labeled case splits, and the two explicit cuts);
* ``Pattern``  -- binding patterns annotating hypotheses;
* ``DataVal``  -- data under right focus (thunks, pairs, injections);
* ``Spine``    -- application contexts consumed under left focus.

Data contains no bare variables: a variable of thunk type is used in data
position as ``Thunk(App(x, Nil()))`` (its eta-injection).  Atoms may carry
data arguments, which is how dependent types mention term-level values; in
propositional mode the argument list is required to be empty.

A deliberate grammar point: spine elements are data values (``Cons`` holds a
``DataVal``).  A term is applied to a list of *data*, matching the left rules
for implication; a surface-level "t::k" spelling would disagree with those
rules and is not representable here.

Every node class declares its layout once (``Layout``): at most one leading
field, then its children.  The leading field is a name the node refers to
(``App.head``, ``Split.label``, ``Atom.name``), a name a pattern binds
(``Var.name``, ``POr.label``) or a binder: the pattern of ``Lam``,
``BindCut`` and ``Kappa``, or the bound name of ``Pi`` and ``Sigma``.  A
binder scopes the node's last child only, so the data of a ``BindCut`` is
outside its pattern.  Well-formedness of types, free names, renaming,
substitution, spine concatenation, branch selection, alpha-equivalence, size
and the reducer's traversal are derived from the layouts; only their real
special cases are written out.

Every value is immutable after construction and safe to share across threads;
all operations in this module are pure functions.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from operator import attrgetter, is_

from .diag import Diagnostic
from .record import record

__all__ = [
    "Name", "fresh", "Mode",
    "NegType", "Atom", "Up", "Imp", "With", "Pi",
    "PosType", "Down", "Or", "Prod", "Sigma",
    "Term", "Done", "Lam", "App", "Pair", "Split", "BindCut", "AppCut",
    "Pattern", "Var", "PPair", "POr", "PAt", "PWild",
    "DataVal", "Thunk", "DPair", "Inl", "Inr",
    "Spine", "Nil", "NIL", "Cons", "Proj1", "Proj2", "Kappa",
    "Sig", "SigEntry", "Ctx", "eta", "data_shape",
    "children", "with_children", "rewrite",
    "pattern_vars", "pattern_labels",
    "well_formed_neg", "well_formed_pos",
    "free_names", "rename", "freshen_pattern", "subst_data",
    "spine_concat", "select_branch", "alpha_eq", "size", "is_cut_free",
    "Clash",
]


_fresh_counter = itertools.count(1)


Name = namedtuple("Name", ("text", "tag"), defaults=(0,))
Name.__doc__ = """An identifier.  Parsed binders get a globally fresh integer
tag so that substitution can regenerate binders without capture; hand-built
terms may use the default tag 0.

A named tuple, so ``==`` and the hash run in C: every layer compares and
hashes names.  The hash is ``hash((text, tag))``, as for a record with these
two fields.  A name equals the plain tuple ``(text, tag)``; no dict or set in
the kernel is keyed by any other tuple."""


def _name_str(self) -> str:
    return self.text if self.tag == 0 else f"{self.text}#{self.tag}"


Name.__str__ = _name_str


def fresh(text: str) -> Name:
    return Name(text, next(_fresh_counter))


class Mode(Enum):
    PROP = "prop"
    DEP = "dep"


# ---------------------------------------------------------------------------
# Node layouts

Layout = namedtuple("Layout", ("kids", "ref", "bind", "binder", "lead",
                               "spread", "children"))
Layout.__doc__ = """The fields of a node class, in order: at most one leading
field (``lead``), then the child fields (``kids``, a tuple of names).  The
leading field is a name the node refers to (``ref``), a name a pattern binds
(``bind``) or the node's ``binder``: a pattern or a name whose scope is the
last child.  Each of the four is a field name or None.  ``spread`` marks a
single child field that holds a tuple of children.  ``children`` reads the
children as a tuple.

From the layout ``_node`` also makes two methods of the class:
``_rewrite(visit, under)``, the step ``rewrite`` takes on the node's
children, and ``_rebuild(kids, lead)``, which ``with_children`` calls.  Each
comes from a template for the node's shape (no, one or two children, with or
without a leading field or a binder over the last child, or a spread tuple),
closed over the class and its field getters, so no source is compiled per
class."""


def _node(*kids: str, ref: str | None = None, bind: str | None = None,
          binder: str | None = None):
    """Declare a node class: a frozen record with a ``layout`` and the walk
    steps made from it.  A node has at most two child fields, or one spelled
    ``*f`` that holds a tuple of children."""
    spread = bool(kids) and kids[0].startswith("*")
    kids = tuple(k.lstrip("*") for k in kids)
    # attrgetter returns a bare value for one field, which is not a tuple.
    if spread or len(kids) > 1:
        children = attrgetter(*kids)
    elif kids:
        children = _one_child(attrgetter(kids[0]))
    else:
        children = _no_children

    def declare(cls):
        cls = record(cls)
        cls.layout = lay = Layout(kids, ref, bind, binder,
                                  ref or bind or binder, spread, children)
        cls._rewrite = _rewrite_step(cls, lay)
        cls._rebuild = _rebuild_step(cls, lay)
        return cls
    return declare


def _no_children(x) -> tuple:
    return ()


def _one_child(get):
    def children(x) -> tuple:
        return (get(x),)
    return children


def _rewrite_step(cls, lay: Layout):
    """``rewrite``'s step on a node of class ``cls``: each child, in order,
    replaced by what ``visit`` maps it to, or else by its own step, save
    that ``under`` takes the last child of a binder.  The node itself when
    nothing changed, else a new one with the same leading field, or the
    binder ``under`` returned."""
    if not lay.kids:
        return _leaf_step
    get = attrgetter(*lay.kids)
    lead = attrgetter(lay.lead) if lay.lead else None
    if lay.spread:
        return _spread_step(cls, get, lead)
    step = _one_step if len(lay.kids) == 1 else _two_step
    return step(cls, get, lead, lay.binder is not None)


def _leaf_step(x, visit, under):
    return x


def _one_step(cls, get, lead, scoped):
    def step(x, visit, under):
        a = get(x)
        if scoped and under is not None:
            p = lead(x)
            p2, a2 = under(p, a)
            return x if p2 is p and a2 is a else cls(p2, a2)
        a2 = visit(a)
        if a2 is None:
            a2 = a._rewrite(visit, under)
        if a2 is a:
            return x
        return cls(a2) if lead is None else cls(lead(x), a2)
    return step


def _two_step(cls, get, lead, scoped):
    def step(x, visit, under):
        a, b = get(x)
        a2 = visit(a)
        if a2 is None:
            a2 = a._rewrite(visit, under)
        if scoped and under is not None:
            p = lead(x)
            p2, b2 = under(p, b)
            if a2 is a and p2 is p and b2 is b:
                return x
            return cls(p2, a2, b2)
        b2 = visit(b)
        if b2 is None:
            b2 = b._rewrite(visit, under)
        if a2 is a and b2 is b:
            return x
        return cls(a2, b2) if lead is None else cls(lead(x), a2, b2)
    return step


def _spread_step(cls, get, lead):
    def step(x, visit, under):
        kids = get(x)
        new = []
        for a in kids:
            a2 = visit(a)
            new.append(a._rewrite(visit, under) if a2 is None else a2)
        if all(map(is_, new, kids)):
            return x
        return cls(lead(x), tuple(new))
    return step


def _rebuild_step(cls, lay: Layout):
    """``with_children``'s step on a node of class ``cls``."""
    lead_of = attrgetter(lay.lead) if lay.lead else None
    spread = lay.spread

    def rebuild(x, kids, lead=None):
        if spread:
            kids = (tuple(kids),)
        if lead_of is None:
            return cls(*kids)
        return cls(lead_of(x) if lead is None else lead, *kids)
    return rebuild


# ---------------------------------------------------------------------------
# Types

class NegType:
    __slots__ = ()


class PosType:
    __slots__ = ()


# Every type node keeps in ``_vars`` the names a substitution could replace
# in it: the free names of its atoms' arguments, less the names the ``Pi``
# and ``Sigma`` binders above them bind.  It is set when the node is built,
# from its children, so ``subst_data`` returns a type without them at once.
# Types the front end builds carry no data: theirs is this shared set.
_NO_VARS: frozenset = frozenset()


def _gather_vars(self) -> None:
    """``__post_init__`` of the type nodes other than ``Atom``: ``_vars`` is
    the union of the children's, less the binder in the last child's."""
    lay = self.layout
    *first, last = lay.children(self)
    names = last._vars
    if names and lay.binder is not None:
        names = names - {getattr(self, lay.binder)}
    if first and first[0]._vars:
        names = first[0]._vars | names
    if names:
        object.__setattr__(self, "_vars", names)


@_node("*args", ref="name")
class Atom(NegType):
    name: Name
    args: tuple["DataVal", ...] = ()
    _vars: frozenset = _NO_VARS

    def __post_init__(self) -> None:
        if self.args:
            names = frozenset().union(*map(free_names, self.args))
            if names:
                object.__setattr__(self, "_vars", names)


@_node("body")
class Up(NegType):
    body: PosType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("arg", "res")
class Imp(NegType):
    arg: PosType
    res: NegType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("left", "right")
class With(NegType):
    left: NegType
    right: NegType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("arg", "res", binder="binder")
class Pi(NegType):
    binder: Name
    arg: PosType
    res: NegType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("body")
class Down(PosType):
    body: NegType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("left", "right")
class Or(PosType):
    left: PosType
    right: PosType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("left", "right")
class Prod(PosType):
    left: PosType
    right: PosType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


@_node("first", "second", binder="binder")
class Sigma(PosType):
    binder: Name
    first: PosType
    second: PosType
    _vars: frozenset = _NO_VARS
    __post_init__ = _gather_vars


# ---------------------------------------------------------------------------
# Terms, patterns, data, spines

class Term:
    __slots__ = ()


class Pattern:
    __slots__ = ()


class DataVal:
    __slots__ = ()


class Spine:
    __slots__ = ()


@_node("data")
class Done(Term):
    data: DataVal


@_node("body", binder="pat")
class Lam(Term):
    pat: Pattern
    body: Term


@_node("spine", ref="head")
class App(Term):
    head: Name
    spine: Spine


@_node("left", "right")
class Pair(Term):
    left: Term
    right: Term


@_node("left", "right", ref="label")
class Split(Term):
    label: Name
    left: Term
    right: Term


@_node("data", "body", binder="pat")
class BindCut(Term):
    """The binding cut ``p = d in t``."""

    pat: Pattern
    data: DataVal
    body: Term


@_node("fun", "spine")
class AppCut(Term):
    """The application cut ``t k``."""

    fun: Term
    spine: Spine


@_node(bind="name")
class Var(Pattern):
    name: Name


@_node("left", "right")
class PPair(Pattern):
    left: Pattern
    right: Pattern


@_node("left", "right", bind="label")
class POr(Pattern):
    """Labeled or-pattern; the label binds the matching ``Split`` nodes."""

    label: Name
    left: Pattern
    right: Pattern


@_node("left", "right")
class PAt(Pattern):
    """Contraction pattern ``p @ q``: two copies of one hypothesis."""

    left: Pattern
    right: Pattern


@_node()
class PWild(Pattern):
    pass


@_node("body")
class Thunk(DataVal):
    body: Term


@_node("left", "right")
class DPair(DataVal):
    left: DataVal
    right: DataVal


@_node("body")
class Inl(DataVal):
    body: DataVal


@_node("body")
class Inr(DataVal):
    body: DataVal


@_node()
class Nil(Spine):
    pass


# The empty spine: records are frozen, so one serves every application.
NIL = Nil()


@_node("arg", "rest")
class Cons(Spine):
    arg: DataVal
    rest: Spine


@_node("rest")
class Proj1(Spine):
    rest: Spine


@_node("rest")
class Proj2(Spine):
    rest: Spine


@_node("body", binder="pat")
class Kappa(Spine):
    """Spine terminator ``kappa p. t``: stops the application and binds the
    focused data to ``p``.  Only legal as the final element of a spine."""

    pat: Pattern
    body: Term


def eta(x: Name) -> Thunk:
    """Eta-injection of a variable into data position."""
    return Thunk(App(x, NIL))


def data_shape(d: DataVal) -> str:
    """The constructor of ``d``, as diagnostics name it."""
    return {Thunk: "thunk", DPair: "pair", Inl: "inl", Inr: "inr"}[type(d)]


# ---------------------------------------------------------------------------
# Signatures and inversion contexts

@record
class SigEntry:
    name: Name
    type: NegType
    body: Term | None = None


@record
class Sig:
    """The persistent zone: declared atoms plus named entries.  Every entry is
    usable in terms as a variable of the corresponding thunk type; entries
    with a body are definitions, entries without are postulates."""

    atoms: frozenset[Name] = frozenset()
    entries: tuple[SigEntry, ...] = ()
    # Name -> its last entry in ``entries``; derived from ``entries`` when
    # not given, never compared, hashed or shown.
    _index: dict | None = None

    def __post_init__(self) -> None:
        if self._index is None:
            object.__setattr__(self, "_index",
                               {e.name: e for e in self.entries})

    def lookup(self, name: Name) -> SigEntry | None:
        return self._index.get(name)

    def with_atom(self, name: Name) -> "Sig":
        return Sig(self.atoms | {name}, self.entries, _index=self._index)

    def with_entry(self, entry: SigEntry) -> "Sig":
        index = dict(self._index)
        index[entry.name] = entry
        return Sig(self.atoms, self.entries + (entry,), _index=index)


Ctx = list  # list[tuple[Pattern, PosType]]; the linear inversion context


# ---------------------------------------------------------------------------
# Pattern helpers

def pattern_vars(p: Pattern) -> list[Name]:
    """Variables bound by a pattern, in left-to-right order."""
    return [q.name for q in _nodes(p) if isinstance(q, Var)]


def pattern_labels(p: Pattern) -> list[Name]:
    """Or-pattern labels of a pattern, in left-to-right order."""
    return [q.label for q in _nodes(p) if isinstance(q, POr)]


# ---------------------------------------------------------------------------
# Well-formedness

# The connectives of one mode only: the mode that rejects each, and what its
# problem expects and finds.
_WRONG_MODE = {
    Imp: (Mode.DEP, "Pi in dependent mode", "->"),
    Prod: (Mode.DEP, "Sigma in dependent mode", "*"),
    Pi: (Mode.PROP, "-> in propositional mode", "Pi"),
    Sigma: (Mode.PROP, "* in propositional mode", "Sigma"),
}


def well_formed_neg(ty: NegType | PosType, sig: Sig, mode: Mode,
                    scope: frozenset[Name] = frozenset(),
                    problems: list | None = None) -> bool:
    """True iff ``ty``, a type of either polarity, respects the mode's
    grammar, all atoms are declared and all data arguments are well-scoped.
    Failures are appended to ``problems`` when a list is supplied; a node
    of the wrong mode is reported once, without its children."""
    if problems is None:
        problems = []
    before = len(problems)
    c = type(ty)
    if c is Atom:
        if ty.name not in sig.atoms:
            problems.append(Diagnostic(
                "atom", expected="declared atom", found=str(ty.name)))
        if ty.args and mode is Mode.PROP:
            problems.append(Diagnostic(
                "mode", expected="unindexed atom in propositional mode",
                found=f"{ty.name} with {len(ty.args)} argument(s)"))
        for a in ty.args:
            for v in free_names(a):
                if v not in scope and v not in sig._index:
                    problems.append(Diagnostic(
                        "scope", expected="variable in scope", found=str(v)))
    elif not isinstance(ty, (NegType, PosType)):
        raise TypeError(ty)
    elif c in _WRONG_MODE and _WRONG_MODE[c][0] is mode:
        _, expected, found = _WRONG_MODE[c]
        problems.append(Diagnostic("mode", expected=expected, found=found))
    else:
        lay = ty.layout
        *first, last = lay.children(ty)
        for k in first:
            well_formed_neg(k, sig, mode, scope, problems)
        if lay.binder is not None:
            scope = scope | {getattr(ty, lay.binder)}
        well_formed_neg(last, sig, mode, scope, problems)
    return len(problems) == before


well_formed_pos = well_formed_neg


# ---------------------------------------------------------------------------
# Walks derived from the layouts

def children(x) -> tuple:
    """The children of node ``x``, in field order."""
    return x.layout.children(x)


def with_children(x, kids, lead=None):
    """A node like ``x`` with the children ``kids`` and, when given, the
    leading field ``lead``."""
    return x._rebuild(kids, lead)


def rewrite(x, visit, under=None):
    """``x`` with each subtree that ``visit`` maps to a node replaced by that
    node, outermost first; where ``visit`` returns None, the node's children
    are rewritten in turn.  On a node with a binder, ``under(binder, child)``
    takes the place of this on the last child and returns the binder and
    the child.  Subtrees that do not change are returned as they are."""
    y = visit(x)
    return x._rewrite(visit, under) if y is None else y


def _bound(binder) -> set[Name]:
    """The names a binder binds: a name, or a pattern's variables and
    labels."""
    if isinstance(binder, Name):
        return {binder}
    return set(pattern_vars(binder)) | set(pattern_labels(binder))


def _nodes(x):
    """Every node of ``x``, binder patterns included, in preorder from left
    to right."""
    todo = [x]
    while todo:
        y = todo.pop()
        yield y
        lay = y.layout
        todo += reversed(lay.children(y))
        binder = getattr(y, lay.binder) if lay.binder else None
        if isinstance(binder, Pattern):
            todo.append(binder)


# ---------------------------------------------------------------------------
# Free names and renaming

def free_names(x) -> frozenset[Name]:
    """Free variable, split-label and atom-name occurrences.  Signature names
    are not distinguished from variables here; both are free references."""
    out: set[Name] = set()
    _free(x, frozenset(), out)
    return frozenset(out)


def _free(x, bound, out: set[Name]) -> None:
    lay = x.layout
    if lay.ref is not None and getattr(x, lay.ref) not in bound:
        out.add(getattr(x, lay.ref))
    kids = lay.children(x)
    if lay.binder is not None:
        for k in kids[:-1]:
            _free(k, bound, out)
        bound = bound | _bound(getattr(x, lay.binder))
        kids = kids[-1:]
    for k in kids:
        _free(k, bound, out)


def rename(x, mapping: dict[Name, Name]):
    """Rename free variable and label occurrences.  Binders shadow."""
    if not mapping:
        return x

    def visit(y):
        ref = y.layout.ref
        if ref is not None and getattr(y, ref) in mapping:
            return with_children(y, [rename(k, mapping) for k in children(y)],
                                 mapping[getattr(y, ref)])
        return None

    return rewrite(x, visit, lambda b, k: (b, rename(k, _shadow(mapping, b))))


def _shadow(mapping: dict[Name, Name], binder) -> dict[Name, Name]:
    bound = _bound(binder)
    if not bound & mapping.keys():
        return mapping
    return {k: v for k, v in mapping.items() if k not in bound}


def freshen_pattern(p: Pattern) -> tuple[Pattern, dict[Name, Name]]:
    """Regenerate every binder in ``p`` with a fresh tag, outermost and then
    left to right, and return the renaming too."""
    mapping: dict[Name, Name] = {}

    def visit(q):
        bind = q.layout.bind
        if bind is None:
            return None
        name = getattr(q, bind)
        mapping[name] = fresh(name.text)
        return with_children(q, [rewrite(k, visit) for k in children(q)],
                             mapping[name])

    try:
        return rewrite(p, visit), mapping
    finally:
        del visit    # it refers to itself: free it now


def _freshen(binder):
    """``binder`` with every name it binds regenerated, and the renaming."""
    if isinstance(binder, Name):
        new = fresh(binder.text)
        return new, {binder: new}
    return freshen_pattern(binder)


# ---------------------------------------------------------------------------
# Substitution of data for a variable

class Clash(Exception):
    """An evaluation state no well-typed term reaches: a substitution that
    would put data other than a thunk where a variable is applied (or other
    than an injection where it is split), or a cut whose two sides no rule
    decomposes.  ``reason`` says which."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def subst_data(x, v: Name, d: DataVal):
    """Capture-avoiding ``x{d/v}`` in any sort.

    An application ``App(v, k)`` becomes ``AppCut(u, k{d/v})`` when ``d`` is
    ``Thunk(u)``.  Eta-injections ``Thunk(App(v, Nil))`` in data position
    (atom arguments included) collapse to ``d`` itself, and a ``Split``
    labeled ``v`` (a sum-typed variable being scrutinized) selects its branch
    when ``d`` is an injection.  A binder of ``v`` shadows it; binders that
    would capture a free name of ``d`` are regenerated fresh.  A type whose
    ``_vars`` lacks ``v`` is returned as it is."""
    if isinstance(x, (NegType, PosType)) and v not in x._vars:
        return x
    fvd = None   # free_names(d), computed at the first binder

    def visit(x):
        c = type(x)
        if c is App and x.head == v:
            k = rewrite(x.spine, visit, under)
            if isinstance(d, Thunk):
                return AppCut(d.body, k)
            raise Clash(
                f"substituting non-thunk data for applied variable {v}")
        elif c is Split and x.label == v:
            # A sum-typed variable under scrutiny: the branches see v
            # refined to the payload.
            cd = type(d)
            if cd is Inl:
                return subst_data(x.left, v, d.body)
            elif cd is Inr:
                return subst_data(x.right, v, d.body)
            elif cd is Thunk and type(d.body) is App and type(d.body.spine) is Nil:
                y = d.body.head
                return Split(y, rename(x.left, {v: y}), rename(x.right, {v: y}))
            raise Clash(
                f"substituting non-injection data for split variable {v}")
        elif (c is Thunk and type(x.body) is App and type(x.body.spine) is Nil
              and x.body.head == v):
            return d
        return None

    def under(binder, body):
        nonlocal fvd
        bound = _bound(binder)
        if v in bound:
            return binder, body
        if fvd is None:
            fvd = free_names(d)
        if bound & fvd:
            binder, renaming = _freshen(binder)
            body = rename(body, renaming)
        return binder, rewrite(body, visit, under)

    try:
        return rewrite(x, visit, under)
    finally:
        del visit, under    # they refer to each other: free them now


# ---------------------------------------------------------------------------
# Spines

def spine_concat(front: Spine, back: Spine) -> Spine:
    """Concatenation of application contexts.  A kappa terminator absorbs the
    remaining arguments into an application cut on its body."""
    c = type(front)
    if c is Nil:
        return back
    elif c is Kappa:
        return Kappa(front.pat, AppCut(front.body, back))
    elif isinstance(front, Spine):
        # Cons, Proj1 and Proj2: the rest of the spine is the last child.
        *first, rest = children(front)
        return with_children(front, (*first, spine_concat(rest, back)))
    raise TypeError(front)


def select_branch(label: Name, side: str, t: Term) -> Term:
    """Replace every split bound to ``label`` by its chosen branch."""
    assert side in ("left", "right")

    def visit(x):
        if type(x) is Split and x.label == label:
            return rewrite(x.left if side == "left" else x.right, visit, under)
        return None

    def under(binder, body):
        if label in _bound(binder):
            return binder, body
        return binder, rewrite(body, visit, under)

    try:
        return rewrite(t, visit, under)
    finally:
        del visit, under    # they refer to each other: free them now


# ---------------------------------------------------------------------------
# Alpha-equivalence

def alpha_eq(a, b) -> bool:
    """Equality up to consistent renaming of bound variables, or-labels and
    dependent type binders.  Works across all sorts; both arguments must be of
    the same sort.  Standalone patterns compare their names as written."""
    if a is b:
        return True
    ids = itertools.count(1)

    def bind(p, q, envL: dict, envR: dict) -> bool:
        # Pair the names the binders p and q bind, in order, by shared ids.
        if type(p) is not type(q):
            return False
        if type(p) is Name:
            envL[p] = envR[q] = next(ids)
            return True
        lay = p.layout
        if lay.bind is not None:
            envL[getattr(p, lay.bind)] = envR[getattr(q, lay.bind)] = next(ids)
        for x, y in zip(lay.children(p), lay.children(q)):
            if not bind(x, y, envL, envR):
                return False
        return True

    def eq(a, b, envL: dict, envR: dict) -> bool:
        if type(a) is not type(b):
            return False
        lay = a.layout
        name = lay.ref or lay.bind
        if name is not None:
            x, y = getattr(a, name), getattr(b, name)
            if x in envL or y in envR:
                if envL.get(x) != envR.get(y):
                    return False
            elif x != y:
                return False
        ka, kb = lay.children(a), lay.children(b)
        if len(ka) != len(kb):
            return False
        if lay.binder is not None:
            for x, y in zip(ka[:-1], kb[:-1]):
                if not eq(x, y, envL, envR):
                    return False
            envL, envR = dict(envL), dict(envR)
            if not bind(getattr(a, lay.binder), getattr(b, lay.binder),
                        envL, envR):
                return False
            ka, kb = ka[-1:], kb[-1:]
        for x, y in zip(ka, kb):
            if not eq(x, y, envL, envR):
                return False
        return True

    try:
        return eq(a, b, {}, {})
    finally:
        del bind, eq    # they refer to themselves: free them now


# ---------------------------------------------------------------------------
# Size and shape queries

def size(x) -> int:
    """Node count across all sorts (names not counted)."""
    return sum(1 for _ in _nodes(x))


def is_cut_free(x) -> bool:
    """True iff the tree contains no BindCut/AppCut node in any sort."""
    return not any(isinstance(y, (BindCut, AppCut)) for y in _nodes(x))
