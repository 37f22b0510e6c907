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

Every value is immutable after construction and safe to share across threads;
all operations in this module are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .diag import Diagnostic

__all__ = [
    "Name", "fresh", "Mode",
    "NegType", "Atom", "Up", "Imp", "With", "Pi",
    "PosType", "Down", "Or", "Prod", "Sigma",
    "Term", "Done", "Lam", "App", "Pair", "Split", "BindCut", "AppCut",
    "Pattern", "Var", "PPair", "POr", "PAt", "PWild",
    "DataVal", "Thunk", "DPair", "Inl", "Inr",
    "Spine", "Nil", "Cons", "Proj1", "Proj2", "Kappa",
    "Sig", "SigEntry", "Ctx", "eta",
    "pattern_vars", "pattern_labels", "pattern_linear",
    "well_formed_neg", "well_formed_pos",
    "free_names", "rename", "freshen_pattern",
    "subst_data_in_term", "subst_data_in_data", "subst_data_in_spine",
    "subst_data_in_neg", "subst_data_in_pos",
    "Match", "MatchFail", "match_pattern",
    "spine_concat", "select_branch", "alpha_eq", "size", "is_cut_free",
    "SubstClash",
]


_fresh_counter = itertools.count(1)


@dataclass(frozen=True)
class Name:
    """An identifier.  Parsed binders get a globally fresh integer tag so that
    substitution can regenerate binders without capture; hand-built terms may
    use the default tag 0."""

    text: str
    tag: int = 0

    def __str__(self) -> str:
        return self.text if self.tag == 0 else f"{self.text}#{self.tag}"


def fresh(text: str) -> Name:
    return Name(text, next(_fresh_counter))


class Mode(Enum):
    PROP = "prop"
    DEP = "dep"


# ---------------------------------------------------------------------------
# Types

class NegType:
    __slots__ = ()


class PosType:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(NegType):
    name: Name
    args: tuple["DataVal", ...] = ()


@dataclass(frozen=True)
class Up(NegType):
    body: PosType


@dataclass(frozen=True)
class Imp(NegType):
    arg: PosType
    res: NegType


@dataclass(frozen=True)
class With(NegType):
    left: NegType
    right: NegType


@dataclass(frozen=True)
class Pi(NegType):
    binder: Name
    arg: PosType
    res: NegType


@dataclass(frozen=True)
class Down(PosType):
    body: NegType


@dataclass(frozen=True)
class Or(PosType):
    left: PosType
    right: PosType


@dataclass(frozen=True)
class Prod(PosType):
    left: PosType
    right: PosType


@dataclass(frozen=True)
class Sigma(PosType):
    binder: Name
    first: PosType
    second: PosType


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


@dataclass(frozen=True)
class Done(Term):
    data: DataVal


@dataclass(frozen=True)
class Lam(Term):
    pat: Pattern
    body: Term


@dataclass(frozen=True)
class App(Term):
    head: Name
    spine: Spine


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Split(Term):
    label: Name
    left: Term
    right: Term


@dataclass(frozen=True)
class BindCut(Term):
    """The binding cut ``p = d in t``."""

    pat: Pattern
    data: DataVal
    body: Term


@dataclass(frozen=True)
class AppCut(Term):
    """The application cut ``t k``."""

    fun: Term
    spine: Spine


@dataclass(frozen=True)
class Var(Pattern):
    name: Name


@dataclass(frozen=True)
class PPair(Pattern):
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class POr(Pattern):
    """Labeled or-pattern; the label binds the matching ``Split`` nodes."""

    label: Name
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class PAt(Pattern):
    """Contraction pattern ``p @ q``: two copies of one hypothesis."""

    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class PWild(Pattern):
    pass


@dataclass(frozen=True)
class Thunk(DataVal):
    body: Term


@dataclass(frozen=True)
class DPair(DataVal):
    left: DataVal
    right: DataVal


@dataclass(frozen=True)
class Inl(DataVal):
    body: DataVal


@dataclass(frozen=True)
class Inr(DataVal):
    body: DataVal


@dataclass(frozen=True)
class Nil(Spine):
    pass


@dataclass(frozen=True)
class Cons(Spine):
    arg: DataVal
    rest: Spine


@dataclass(frozen=True)
class Proj1(Spine):
    rest: Spine


@dataclass(frozen=True)
class Proj2(Spine):
    rest: Spine


@dataclass(frozen=True)
class Kappa(Spine):
    """Spine terminator ``kappa p. t``: stops the application and binds the
    focused data to ``p``.  Only legal as the final element of a spine."""

    pat: Pattern
    body: Term


def eta(x: Name) -> Thunk:
    """Eta-injection of a variable into data position."""
    return Thunk(App(x, Nil()))


# ---------------------------------------------------------------------------
# Signatures and inversion contexts

@dataclass(frozen=True)
class SigEntry:
    name: Name
    type: NegType
    body: Optional[Term] = None


@dataclass(frozen=True)
class Sig:
    """The persistent zone: declared atoms plus named entries.  Every entry is
    usable in terms as a variable of the corresponding thunk type; entries
    with a body are definitions, entries without are postulates."""

    atoms: frozenset[Name] = frozenset()
    entries: tuple[SigEntry, ...] = ()
    # Name -> its last entry in ``entries``; derived from ``entries`` when
    # not given, never compared, hashed or shown.
    _index: Optional[dict] = field(default=None, kw_only=True,
                                   compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._index is None:
            object.__setattr__(self, "_index",
                               {e.name: e for e in self.entries})

    def lookup(self, name: Name) -> Optional[SigEntry]:
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
    match p:
        case Var(x):
            return [x]
        case PPair(a, b) | PAt(a, b):
            return pattern_vars(a) + pattern_vars(b)
        case POr(_, a, b):
            return pattern_vars(a) + pattern_vars(b)
        case PWild():
            return []
    raise TypeError(p)


def pattern_labels(p: Pattern) -> list[Name]:
    match p:
        case POr(w, a, b):
            return [w] + pattern_labels(a) + pattern_labels(b)
        case PPair(a, b) | PAt(a, b):
            return pattern_labels(a) + pattern_labels(b)
        case _:
            return []


def pattern_linear(p: Pattern) -> bool:
    """All bound variables and labels pairwise distinct."""
    names = pattern_vars(p) + pattern_labels(p)
    return len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Well-formedness

def _problem(problems: Optional[list], diag: Diagnostic) -> bool:
    if problems is not None:
        problems.append(diag)
    return False


def well_formed_neg(ty: NegType, sig: Sig, mode: Mode,
                    scope: frozenset[Name] = frozenset(),
                    problems: Optional[list] = None) -> bool:
    """True iff ``ty`` respects the mode's grammar, all atoms are declared and
    all data arguments are well-scoped.  Total; failures are appended to
    ``problems`` when a list is supplied."""
    match ty:
        case Atom(name, args):
            ok = True
            if name not in sig.atoms:
                ok = _problem(problems, Diagnostic(
                    "atom", expected="declared atom", found=str(name)))
            if args and mode is Mode.PROP:
                ok = _problem(problems, Diagnostic(
                    "mode", expected="unindexed atom in propositional mode",
                    found=f"{name} with {len(args)} argument(s)"))
            for a in args:
                for v in free_names(a):
                    if v not in scope and v not in sig._index:
                        ok = _problem(problems, Diagnostic(
                            "scope", expected="variable in scope",
                            found=str(v)))
            return ok
        case Up(p):
            return well_formed_pos(p, sig, mode, scope, problems)
        case Imp(a, r):
            if mode is not Mode.PROP:
                return _problem(problems, Diagnostic(
                    "mode", expected="Pi in dependent mode", found="->"))
            left = well_formed_pos(a, sig, mode, scope, problems)
            return well_formed_neg(r, sig, mode, scope, problems) and left
        case With(l, r):
            left = well_formed_neg(l, sig, mode, scope, problems)
            return well_formed_neg(r, sig, mode, scope, problems) and left
        case Pi(x, a, r):
            if mode is not Mode.DEP:
                return _problem(problems, Diagnostic(
                    "mode", expected="-> in propositional mode", found="Pi"))
            left = well_formed_pos(a, sig, mode, scope, problems)
            return well_formed_neg(r, sig, mode, scope | {x}, problems) and left
    raise TypeError(ty)


def well_formed_pos(ty: PosType, sig: Sig, mode: Mode,
                    scope: frozenset[Name] = frozenset(),
                    problems: Optional[list] = None) -> bool:
    match ty:
        case Down(n):
            return well_formed_neg(n, sig, mode, scope, problems)
        case Or(l, r):
            left = well_formed_pos(l, sig, mode, scope, problems)
            return well_formed_pos(r, sig, mode, scope, problems) and left
        case Prod(l, r):
            if mode is not Mode.PROP:
                return _problem(problems, Diagnostic(
                    "mode", expected="Sigma in dependent mode", found="*"))
            left = well_formed_pos(l, sig, mode, scope, problems)
            return well_formed_pos(r, sig, mode, scope, problems) and left
        case Sigma(x, a, b):
            if mode is not Mode.DEP:
                return _problem(problems, Diagnostic(
                    "mode", expected="* in propositional mode", found="Sigma"))
            left = well_formed_pos(a, sig, mode, scope, problems)
            return well_formed_pos(b, sig, mode, scope | {x}, problems) and left
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Free names and renaming

def free_names(x: Union[Term, DataVal, Spine]) -> frozenset[Name]:
    """Free variable and split-label occurrences.  Signature names are not
    distinguished from variables here; both are free references."""
    match x:
        case Done(d):
            return free_names(d)
        case Lam(p, b):
            return free_names(b) - frozenset(pattern_vars(p)) - frozenset(pattern_labels(p))
        case App(h, k):
            return free_names(k) | {h}
        case Pair(l, r) | Split(_, l, r):
            base = free_names(l) | free_names(r)
            if isinstance(x, Split):
                base |= {x.label}
            return base
        case BindCut(p, d, b):
            bound = frozenset(pattern_vars(p)) | frozenset(pattern_labels(p))
            return free_names(d) | (free_names(b) - bound)
        case AppCut(f, k):
            return free_names(f) | free_names(k)
        case Thunk(t):
            return free_names(t)
        case DPair(l, r):
            return free_names(l) | free_names(r)
        case Inl(d) | Inr(d):
            return free_names(d)
        case Nil():
            return frozenset()
        case Cons(d, k):
            return free_names(d) | free_names(k)
        case Proj1(k) | Proj2(k):
            return free_names(k)
        case Kappa(p, b):
            return free_names(b) - frozenset(pattern_vars(p)) - frozenset(pattern_labels(p))
    raise TypeError(x)


def rename(x, mapping: dict[Name, Name]):
    """Rename free variable and label occurrences.  Binders shadow."""
    if not mapping:
        return x
    match x:
        case Done(d):
            return Done(rename(d, mapping))
        case Lam(p, b):
            inner = _shadow(mapping, p)
            return Lam(p, rename(b, inner))
        case App(h, k):
            return App(mapping.get(h, h), rename(k, mapping))
        case Pair(l, r):
            return Pair(rename(l, mapping), rename(r, mapping))
        case Split(w, l, r):
            return Split(mapping.get(w, w), rename(l, mapping), rename(r, mapping))
        case BindCut(p, d, b):
            inner = _shadow(mapping, p)
            return BindCut(p, rename(d, mapping), rename(b, inner))
        case AppCut(f, k):
            return AppCut(rename(f, mapping), rename(k, mapping))
        case Thunk(t):
            return Thunk(rename(t, mapping))
        case DPair(l, r):
            return DPair(rename(l, mapping), rename(r, mapping))
        case Inl(d):
            return Inl(rename(d, mapping))
        case Inr(d):
            return Inr(rename(d, mapping))
        case Nil():
            return x
        case Cons(d, k):
            return Cons(rename(d, mapping), rename(k, mapping))
        case Proj1(k):
            return Proj1(rename(k, mapping))
        case Proj2(k):
            return Proj2(rename(k, mapping))
        case Kappa(p, b):
            inner = _shadow(mapping, p)
            return Kappa(p, rename(b, inner))
    raise TypeError(x)


def _shadow(mapping: dict[Name, Name], p: Pattern) -> dict[Name, Name]:
    bound = set(pattern_vars(p)) | set(pattern_labels(p))
    if not bound & mapping.keys():
        return mapping
    return {k: v for k, v in mapping.items() if k not in bound}


def freshen_pattern(p: Pattern) -> tuple[Pattern, dict[Name, Name]]:
    """Regenerate every binder in ``p`` with a fresh tag."""
    mapping: dict[Name, Name] = {}

    def go(q: Pattern) -> Pattern:
        match q:
            case Var(x):
                mapping[x] = fresh(x.text)
                return Var(mapping[x])
            case PPair(a, b):
                return PPair(go(a), go(b))
            case PAt(a, b):
                return PAt(go(a), go(b))
            case POr(w, a, b):
                mapping[w] = fresh(w.text)
                return POr(mapping[w], go(a), go(b))
            case PWild():
                return q
        raise TypeError(q)

    return go(p), mapping


# ---------------------------------------------------------------------------
# Substitution of data for a variable

class SubstClash(Exception):
    """Raised when substitution would place non-thunk data in head position;
    this is an ill-typed evaluation state."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def subst_data_in_term(t: Term, x: Name, d: DataVal) -> Term:
    """Capture-avoiding ``t{d/x}``.

    An application ``App(x, k)`` becomes ``AppCut(u, k{d/x})`` when ``d`` is
    ``Thunk(u)``.  Eta-injections ``Thunk(App(x, Nil))`` in data position
    collapse to ``d`` itself, and a ``Split`` labeled ``x`` (a sum-typed
    variable being scrutinized) selects its branch when ``d`` is an
    injection."""
    fvd = free_names(d)

    def go_term(t: Term) -> Term:
        match t:
            case Done(e):
                return Done(go_data(e))
            case Lam(p, b):
                p2, b2, descend = _under_binder(p, b)
                return Lam(p2, go_term(b2)) if descend else Lam(p2, b2)
            case App(h, k):
                k2 = go_spine(k)
                if h == x:
                    if isinstance(d, Thunk):
                        return AppCut(d.body, k2)
                    raise SubstClash(
                        f"substituting non-thunk data for applied variable {x}")
                return App(h, k2)
            case Pair(l, r):
                return Pair(go_term(l), go_term(r))
            case Split(w, l, r):
                if w == x:
                    # A sum-typed variable under scrutiny: the branches see x
                    # refined to the payload.
                    match d:
                        case Inl(e):
                            return subst_data_in_term(l, x, e)
                        case Inr(e):
                            return subst_data_in_term(r, x, e)
                        case Thunk(App(y, Nil())):
                            return Split(y, rename(l, {x: y}), rename(r, {x: y}))
                        case _:
                            raise SubstClash(
                                f"substituting non-injection data for split variable {x}")
                return Split(w, go_term(l), go_term(r))
            case BindCut(p, e, b):
                e2 = go_data(e)
                p2, b2, descend = _under_binder(p, b)
                return BindCut(p2, e2, go_term(b2)) if descend else BindCut(p2, e2, b2)
            case AppCut(f, k):
                return AppCut(go_term(f), go_spine(k))
        raise TypeError(t)

    def go_data(e: DataVal) -> DataVal:
        match e:
            case Thunk(App(y, Nil())) if y == x:
                return d
            case Thunk(t2):
                return Thunk(go_term(t2))
            case DPair(l, r):
                return DPair(go_data(l), go_data(r))
            case Inl(e2):
                return Inl(go_data(e2))
            case Inr(e2):
                return Inr(go_data(e2))
        raise TypeError(e)

    def go_spine(k: Spine) -> Spine:
        match k:
            case Nil():
                return k
            case Cons(e, r):
                return Cons(go_data(e), go_spine(r))
            case Proj1(r):
                return Proj1(go_spine(r))
            case Proj2(r):
                return Proj2(go_spine(r))
            case Kappa(p, b):
                p2, b2, descend = _under_binder(p, b)
                return Kappa(p2, go_term(b2)) if descend else Kappa(p2, b2)
        raise TypeError(k)

    def _under_binder(p: Pattern, body):
        # Returns (pattern, body, descend?).  A binder for x shadows the
        # substitution; binders colliding with fv(d) are regenerated fresh.
        bound = set(pattern_vars(p)) | set(pattern_labels(p))
        if x in bound:
            return p, body, False
        if bound & fvd:
            p2, ren = freshen_pattern(p)
            return p2, rename(body, ren), True
        return p, body, True

    return go_term(t)


def subst_data_in_data(e: DataVal, x: Name, d: DataVal) -> DataVal:
    wrapped = subst_data_in_term(Done(e), x, d)
    assert isinstance(wrapped, Done)
    return wrapped.data


def subst_data_in_spine(k: Spine, x: Name, d: DataVal) -> Spine:
    wrapped = subst_data_in_term(App(Name("!subst", -1), k), x, d)
    assert isinstance(wrapped, App)
    return wrapped.spine


def subst_data_in_neg(ty: NegType, x: Name, d: DataVal) -> NegType:
    """``ty{d/x}``: replace the variable at every data position (atom
    arguments), capture-avoiding in ``Pi``/``Sigma`` binders.  Types without
    data positions are returned unchanged."""
    match ty:
        case Atom(name, args):
            if not args:
                return ty
            return Atom(name, tuple(subst_data_in_data(a, x, d) for a in args))
        case Up(p):
            return Up(subst_data_in_pos(p, x, d))
        case Imp(a, r):
            return Imp(subst_data_in_pos(a, x, d), subst_data_in_neg(r, x, d))
        case With(l, r):
            return With(subst_data_in_neg(l, x, d), subst_data_in_neg(r, x, d))
        case Pi(y, a, r):
            a2 = subst_data_in_pos(a, x, d)
            if y == x:
                return Pi(y, a2, r)
            if y in free_names(d):
                y2 = fresh(y.text)
                r = subst_data_in_neg(r, y, eta(y2))
                y = y2
            return Pi(y, a2, subst_data_in_neg(r, x, d))
    raise TypeError(ty)


def subst_data_in_pos(ty: PosType, x: Name, d: DataVal) -> PosType:
    match ty:
        case Down(n):
            return Down(subst_data_in_neg(n, x, d))
        case Or(l, r):
            return Or(subst_data_in_pos(l, x, d), subst_data_in_pos(r, x, d))
        case Prod(l, r):
            return Prod(subst_data_in_pos(l, x, d), subst_data_in_pos(r, x, d))
        case Sigma(y, a, b):
            a2 = subst_data_in_pos(a, x, d)
            if y == x:
                return Sigma(y, a2, b)
            if y in free_names(d):
                y2 = fresh(y.text)
                b = subst_data_in_pos(b, y, eta(y2))
                y = y2
            return Sigma(y, a2, subst_data_in_pos(b, x, d))
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Pattern matching (data decomposition)

@dataclass(frozen=True)
class Match:
    """Successful decomposition: bindings in pattern order, plus the branch
    each or-label took (needed to resolve the corresponding splits)."""

    bindings: tuple[tuple[Name, DataVal], ...]
    branches: tuple[tuple[Name, str], ...] = ()


@dataclass(frozen=True)
class MatchFail:
    reason: str
    pattern: Pattern
    data: DataVal


def match_pattern(pat: Pattern, data: DataVal) -> Union[Match, MatchFail]:
    """Decompose ``data`` according to the shape of ``pat``."""
    match pat, data:
        case Var(x), d:
            return Match(((x, d),))
        case PWild(), _:
            return Match(())
        case PAt(p, q), d:
            left = match_pattern(p, d)
            if isinstance(left, MatchFail):
                return left
            right = match_pattern(q, d)
            if isinstance(right, MatchFail):
                return right
            return Match(left.bindings + right.bindings,
                         left.branches + right.branches)
        case PPair(p, q), DPair(d, e):
            left = match_pattern(p, d)
            if isinstance(left, MatchFail):
                return left
            right = match_pattern(q, e)
            if isinstance(right, MatchFail):
                return right
            return Match(left.bindings + right.bindings,
                         left.branches + right.branches)
        case POr(w, p, _), Inl(d):
            sub = match_pattern(p, d)
            if isinstance(sub, MatchFail):
                return sub
            return Match(sub.bindings, ((w, "left"),) + sub.branches)
        case POr(w, _, q), Inr(d):
            sub = match_pattern(q, d)
            if isinstance(sub, MatchFail):
                return sub
            return Match(sub.bindings, ((w, "right"),) + sub.branches)
        case _:
            return MatchFail("constructor does not fit pattern shape", pat, data)


# ---------------------------------------------------------------------------
# Spines

def spine_concat(front: Spine, back: Spine) -> Spine:
    """Concatenation of application contexts.  A kappa terminator absorbs the
    remaining arguments into an application cut on its body."""
    match front:
        case Nil():
            return back
        case Cons(d, r):
            return Cons(d, spine_concat(r, back))
        case Proj1(r):
            return Proj1(spine_concat(r, back))
        case Proj2(r):
            return Proj2(spine_concat(r, back))
        case Kappa(p, t):
            return Kappa(p, AppCut(t, back))
    raise TypeError(front)


def select_branch(label: Name, side: str, t: Term) -> Term:
    """Replace every split bound to ``label`` by its chosen branch."""
    assert side in ("left", "right")

    def go(t: Term) -> Term:
        match t:
            case Done(d):
                return Done(go_data(d))
            case Lam(p, b):
                if label in pattern_labels(p):
                    return t
                return Lam(p, go(b))
            case App(h, k):
                return App(h, go_spine(k))
            case Pair(l, r):
                return Pair(go(l), go(r))
            case Split(w, l, r):
                if w == label:
                    return go(l if side == "left" else r)
                return Split(w, go(l), go(r))
            case BindCut(p, d, b):
                d2 = go_data(d)
                if label in pattern_labels(p):
                    return BindCut(p, d2, b)
                return BindCut(p, d2, go(b))
            case AppCut(f, k):
                return AppCut(go(f), go_spine(k))
        raise TypeError(t)

    def go_data(d: DataVal) -> DataVal:
        match d:
            case Thunk(t2):
                return Thunk(go(t2))
            case DPair(l, r):
                return DPair(go_data(l), go_data(r))
            case Inl(e):
                return Inl(go_data(e))
            case Inr(e):
                return Inr(go_data(e))
        raise TypeError(d)

    def go_spine(k: Spine) -> Spine:
        match k:
            case Nil():
                return k
            case Cons(d, r):
                return Cons(go_data(d), go_spine(r))
            case Proj1(r):
                return Proj1(go_spine(r))
            case Proj2(r):
                return Proj2(go_spine(r))
            case Kappa(p, b):
                if label in pattern_labels(p):
                    return k
                return Kappa(p, go(b))
        raise TypeError(k)

    return go(t)


# ---------------------------------------------------------------------------
# Alpha-equivalence

def alpha_eq(a, b) -> bool:
    """Equality up to consistent renaming of bound variables, or-labels and
    dependent type binders.  Works across all sorts; both arguments must be of
    the same sort."""
    return _alpha(a, b, {}, {}, [0])


def _alpha(a, b, envL: dict, envR: dict, counter: list) -> bool:
    if type(a) is not type(b):
        return False

    def bind(ps: Pattern, qs: Pattern, eL, eR) -> bool:
        if type(ps) is not type(qs):
            return False
        match ps, qs:
            case Var(x), Var(y):
                counter[0] += 1
                eL[x] = counter[0]
                eR[y] = counter[0]
                return True
            case PWild(), PWild():
                return True
            case (PPair(p1, p2), PPair(q1, q2)) | (PAt(p1, p2), PAt(q1, q2)):
                return bind(p1, q1, eL, eR) and bind(p2, q2, eL, eR)
            case POr(w1, p1, p2), POr(w2, q1, q2):
                counter[0] += 1
                eL[w1] = counter[0]
                eR[w2] = counter[0]
                return bind(p1, q1, eL, eR) and bind(p2, q2, eL, eR)
        raise TypeError(ps)

    def name_eq(x: Name, y: Name) -> bool:
        if x in envL or y in envR:
            return envL.get(x) == envR.get(y)
        return x == y

    def under(p: Pattern, q: Pattern, bodyL, bodyR) -> bool:
        eL, eR = dict(envL), dict(envR)
        return bind(p, q, eL, eR) and _alpha(bodyL, bodyR, eL, eR, counter)

    match a, b:
        # Types
        case Atom(n1, as1), Atom(n2, as2):
            return (name_eq(n1, n2) and len(as1) == len(as2)
                    and all(_alpha(x, y, envL, envR, counter) for x, y in zip(as1, as2)))
        case Up(p1), Up(p2):
            return _alpha(p1, p2, envL, envR, counter)
        case (Imp(a1, r1), Imp(a2, r2)):
            return _alpha(a1, a2, envL, envR, counter) and _alpha(r1, r2, envL, envR, counter)
        case (With(l1, r1), With(l2, r2)) | (Or(l1, r1), Or(l2, r2)) | (Prod(l1, r1), Prod(l2, r2)):
            return _alpha(l1, l2, envL, envR, counter) and _alpha(r1, r2, envL, envR, counter)
        case Pi(x1, a1, r1), Pi(x2, a2, r2):
            if not _alpha(a1, a2, envL, envR, counter):
                return False
            return under(Var(x1), Var(x2), r1, r2)
        case Sigma(x1, a1, b1), Sigma(x2, a2, b2):
            if not _alpha(a1, a2, envL, envR, counter):
                return False
            return under(Var(x1), Var(x2), b1, b2)
        case Down(n1), Down(n2):
            return _alpha(n1, n2, envL, envR, counter)
        # Terms
        case Done(d1), Done(d2):
            return _alpha(d1, d2, envL, envR, counter)
        case Lam(p1, b1), Lam(p2, b2):
            return under(p1, p2, b1, b2)
        case App(h1, k1), App(h2, k2):
            return name_eq(h1, h2) and _alpha(k1, k2, envL, envR, counter)
        case (Pair(l1, r1), Pair(l2, r2)):
            return _alpha(l1, l2, envL, envR, counter) and _alpha(r1, r2, envL, envR, counter)
        case Split(w1, l1, r1), Split(w2, l2, r2):
            return (name_eq(w1, w2)
                    and _alpha(l1, l2, envL, envR, counter)
                    and _alpha(r1, r2, envL, envR, counter))
        case BindCut(p1, d1, b1), BindCut(p2, d2, b2):
            return _alpha(d1, d2, envL, envR, counter) and under(p1, p2, b1, b2)
        case AppCut(f1, k1), AppCut(f2, k2):
            return _alpha(f1, f2, envL, envR, counter) and _alpha(k1, k2, envL, envR, counter)
        # Data
        case Thunk(t1), Thunk(t2):
            return _alpha(t1, t2, envL, envR, counter)
        case (DPair(l1, r1), DPair(l2, r2)):
            return _alpha(l1, l2, envL, envR, counter) and _alpha(r1, r2, envL, envR, counter)
        case (Inl(d1), Inl(d2)) | (Inr(d1), Inr(d2)):
            return _alpha(d1, d2, envL, envR, counter)
        # Spines
        case Nil(), Nil():
            return True
        case Cons(d1, k1), Cons(d2, k2):
            return _alpha(d1, d2, envL, envR, counter) and _alpha(k1, k2, envL, envR, counter)
        case (Proj1(k1), Proj1(k2)) | (Proj2(k1), Proj2(k2)):
            return _alpha(k1, k2, envL, envR, counter)
        case Kappa(p1, b1), Kappa(p2, b2):
            return under(p1, p2, b1, b2)
        # Patterns compared standalone (no binding context): structural
        case (Var(_), Var(_)) | (PWild(), PWild()):
            return a == b
        case (PPair(p1, p2), PPair(q1, q2)) | (PAt(p1, p2), PAt(q1, q2)):
            return _alpha(p1, q1, envL, envR, counter) and _alpha(p2, q2, envL, envR, counter)
    return False


# ---------------------------------------------------------------------------
# Size and shape queries

def size(x) -> int:
    """Node count across all sorts (names not counted separately)."""
    match x:
        case Atom(_, args):
            return 1 + sum(size(a) for a in args)
        case Up(p) | Down(p):
            return 1 + size(p)
        case Imp(a, r) | Pi(_, a, r):
            return 1 + size(a) + size(r)
        case With(l, r) | Or(l, r) | Prod(l, r):
            return 1 + size(l) + size(r)
        case Sigma(_, a, b):
            return 1 + size(a) + size(b)
        case Done(d) | Thunk(d) | Inl(d) | Inr(d):
            return 1 + size(d)
        case Lam(p, b) | Kappa(p, b):
            return 1 + size(p) + size(b)
        case App(_, k):
            return 1 + size(k)
        case Pair(l, r) | Split(_, l, r) | DPair(l, r):
            return 1 + size(l) + size(r)
        case BindCut(p, d, b):
            return 1 + size(p) + size(d) + size(b)
        case AppCut(f, k):
            return 1 + size(f) + size(k)
        case Var(_) | PWild() | Nil():
            return 1
        case PPair(l, r) | PAt(l, r):
            return 1 + size(l) + size(r)
        case POr(_, l, r):
            return 1 + size(l) + size(r)
        case Cons(d, k):
            return 1 + size(d) + size(k)
        case Proj1(k) | Proj2(k):
            return 1 + size(k)
    raise TypeError(x)


def is_cut_free(x) -> bool:
    """True iff the tree contains no BindCut/AppCut node in any sort."""
    match x:
        case BindCut(_, _, _) | AppCut(_, _):
            return False
        case Done(d) | Thunk(d) | Inl(d) | Inr(d):
            return is_cut_free(d)
        case Lam(_, b) | Kappa(_, b):
            return is_cut_free(b)
        case App(_, k):
            return is_cut_free(k)
        case Pair(l, r) | Split(_, l, r) | DPair(l, r):
            return is_cut_free(l) and is_cut_free(r)
        case Nil() | Var(_) | PWild():
            return True
        case Cons(d, k):
            return is_cut_free(d) and is_cut_free(k)
        case Proj1(k) | Proj2(k):
            return is_cut_free(k)
        case _:
            return True
