"""Surface language: equational declarations compiled to core terms.

A program is a sequence of blocks::

    atom nat
    postulate add : nat -> nat -> nat
    f : (nat * nat) + nat -> nat
    f (inl (x, y)) = add x y
    f (inr z) = z

Types use ``->`` (right associative), one level of ``*``, ``+`` and ``/\\``
(left associative), and ``Pi (x : T). T`` / ``Sigma (x : T). T`` in dependent
mode.  Clause left-hand sides carry patterns (variables, ``_``, ``x@p``,
``(p, q)``, ``inl p``, ``inr p``); right-hand sides are applications, pairs
and injections.  ``--`` starts a line comment.

Compilation is type-directed, column by column, leftmost argument first, with
first-match semantics.  All clause patterns for one argument fuse into a
tree of positions (``_Pos``), one per occurrence: each holds its type, its
kernel variable or or-label, every clause's pattern there and, once split,
its two sub-positions.  A split sum position becomes a labeled or-pattern and
the body the corresponding tree of splits; a split product position a pair
pattern.  The walk over the positions that builds this case tree also
reports coverage and the clause warnings: the first sum side no clause
reaches is the missing case, and the clause each leaf uses, and the other
clauses live there, give the "never used" and overlap warnings.  A clause
variable naming a whole sum or product is compiled by eta-expansion, its
uses replaced by data rebuilt from the positions under it, so every surface
program lands in the fragment the kernel accepts.  An as-pattern at a thunk
type becomes a genuine contraction pattern; at composite types the name
binds its position, and a use rebuilds it, binding a fresh variable at any
thunk position under it that no clause binds.  In dependent mode arguments
bind bare variables and the same tree is emitted as explicit pair-lets and
splits instead of deep patterns.

Polarization is the one check of a declared type: ``polarize`` rejects an
undeclared atom and a connective of the other mode, and builds only the
connectives of its own (``->`` and ``*`` in propositional mode, ``Pi`` and
``Sigma`` in dependent mode), so what it returns is well formed and the
compiler relies on it.  Polarity coercions are inserted here and only here:
a thunk-typed variable used as an argument becomes ``thunk (x [])``, a
right-hand side at a shifted goal is wrapped in ``done``, and the kernel
never sees an unshifted mix.

Polarized types are shared: ``load_program`` polarizes every declared type
with one table, so equal binder-free types, and equal binder-free parts of
types, are one object, while each ``Pi`` and ``Sigma`` keeps its fresh
binder and is its own.  Types are never mutated, so identity implies
equality, and a comparison made once per application tests ``is`` before
it walks two trees.  The table lives as long as the ``load_program`` call.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, count, islice, repeat
from operator import add, itemgetter
from typing import Optional, Union

from .check_dep import convert
from .core_text import print_type
from .diag import Diagnostic, DiagnosticError, ParseError, Span
from .record import record
from .syntax import (
    App, Atom, BindCut, Cons, DataVal, Done, Down, DPair, Imp, Inl,
    Inr, Lam, Mode, Name, NegType, Nil, Or, Pair, Pattern, PAt, Pi, POr,
    PosType, PPair, Prod, PWild, Sig, SigEntry, Sigma, Spine, Split, Term,
    Thunk, Up, Var, With, alpha_eq, children, eta, fresh, subst_data,
)

__all__ = [
    "SurfaceDecl", "Clause", "CaseTree", "Leaf", "SplitNode", "PairNode",
    "CompileFail", "CompiledDecl", "Program",
    "parse", "polarize", "compile_clauses", "load_program",
]


# ---------------------------------------------------------------------------
# Surface AST

class _Source:
    """A source text's file name and line starts.  Tokens and name nodes
    keep character offsets; a Span is made from one only when asked."""

    __slots__ = ("file", "starts")

    def __init__(self, text: str, file: str):
        self.file = file
        # Line k (from 0) starts after the k newlines and the characters of
        # the lines before it.
        self.starts = list(map(add, accumulate(map(len, text.split("\n")),
                                               initial=0), count()))

    def span(self, at: int) -> Span:
        line = bisect_right(self.starts, at)
        return Span(self.file, line, at - self.starts[line - 1] + 1)


class _Located:
    """A node named in the source: ``at`` is the offset of its name in
    ``src``, and its span is made when a diagnostic asks for it."""

    __slots__ = ()

    @property
    def span(self) -> Span:
        return self.src.span(self.at)


class SType:
    __slots__ = ()


@record
class TName(SType, _Located):
    name: str
    at: int
    src: _Source


@record
class TArrow(SType):
    arg: SType
    res: SType


@record
class TBin(SType):
    op: str            # "*" | "+" | "/\\"
    left: SType
    right: SType


@record
class TBind(SType, _Located):
    head: str          # "Pi" | "Sigma"
    var: str
    arg: SType
    body: SType
    at: int
    src: _Source


class SPat:
    __slots__ = ()


@record
class PVarS(SPat, _Located):
    name: str
    at: int
    src: _Source


@record
class PWildS(SPat, _Located):
    at: int
    src: _Source


@record
class PAsS(SPat, _Located):
    name: str
    pat: SPat
    at: int
    src: _Source


@record
class PPairS(SPat):
    left: SPat
    right: SPat


@record
class PInlS(SPat):
    pat: SPat


@record
class PInrS(SPat):
    pat: SPat


class SExpr:
    __slots__ = ()


@record
class EApp(SExpr, _Located):
    head: str
    args: tuple["SExpr", ...]
    at: int
    src: _Source


@record
class EPair(SExpr):
    left: SExpr
    right: SExpr


@record
class EInl(SExpr):
    body: SExpr


@record
class EInr(SExpr):
    body: SExpr


@record
class Clause:
    lhs: tuple[SPat, ...]
    rhs: SExpr
    span: Span


@record
class SurfaceDecl:
    kind: str                   # "atom" | "postulate" | "def"
    name: str
    span: Span
    type: Optional[SType] = None
    clauses: tuple[Clause, ...] = ()


# ---------------------------------------------------------------------------
# Lexer and parser

_KEYWORDS = {"atom", "postulate", "inl", "inr", "Pi", "Sigma"}

# The source splits into pieces, and the spaces between them drop out.  A
# piece is a symbol; a word; a line end, which runs on over the blank lines,
# spaces and comments after it, so that no two NLs are adjacent; or a
# character that starts no token, which takes the rest of the source with
# it, so that only the last piece can be one.  A line end starts at its
# line's comment, or else at its newline.  Words start with any word
# character but a decimal digit; ``_lex`` rejects those that start with a
# non-letter (``½``, ``²``).
_TOKENS = r"->|/\\|[:()=,@*+.]|[^\W\d][\w']*|(?:--[^\n]*|\n)(?:\s|--[^\n]*)*"
_PIECE = re.compile(rf"({_TOKENS}|\S[\s\S]*)")
_TOKEN = re.compile(_TOKENS)

_KIND = dict.fromkeys(("->", "/\\", ":", "(", ")", "=", ",", "@", "*", "+",
                       "."), "SYM")
_KIND["_"] = "WILD"
# A piece whose text is not in _KIND is a word or, by its first character,
# a line end (``->`` is found by its text first).
_KIND_BY_HEAD = {"\n": "NL", "-": "NL"}
_NL_TEXT = {"NL": ""}
# The characters other than letters that start a token or a line end.
_NOT_LETTERS = frozenset("_\n-/:()=,@*+.")


def _lex(src: str, file: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds (NAME WILD SYM NL EOF), texts and offsets of the tokens of
    ``src``.  An NL follows each line that holds a token; EOF sits past the
    last line, or where its comment starts."""
    parts = _PIECE.split(src)
    texts = parts[1::2]
    offs = list(islice(accumulate(map(len, parts)), 0, len(parts) - 1, 2))
    del parts
    heads = list(map(itemgetter(0), texts))
    if texts and not (all(map(str.isalpha, set(heads) - _NOT_LETTERS))
                      and _TOKEN.fullmatch(texts[-1])):
        raise _bad_token(src, file, texts, offs)
    kinds = list(map(_KIND.get, texts,
                     map(_KIND_BY_HEAD.get, heads, repeat("NAME"))))
    del heads
    texts = list(map(_NL_TEXT.get, kinds, texts))
    if kinds and kinds[0] == "NL":
        del kinds[0], texts[0], offs[0]
    if kinds and kinds[-1] != "NL":
        kinds.append("NL")
        texts.append("")
        offs.append(len(src))
    # No "--" on a line that lexed comes before the comment's.
    comment = src.find("--", src.rfind("\n") + 1)
    kinds.append("EOF")
    texts.append("")
    offs.append(comment if comment >= 0 else len(src))
    return kinds, texts, offs


def _bad_token(src: str, file: str, texts: list[str],
               offs: list[int]) -> ParseError:
    """The error at the first piece that is no token: one that starts with a
    character that starts no token, or a word that starts with no letter."""
    text, at = next((t, at) for t, at in zip(texts, offs) if not (
        (t[0].isalpha() or t[0] in _NOT_LETTERS) and _TOKEN.fullmatch(t)))
    return ParseError(Diagnostic("parse", expected="token", found=repr(text[0]),
                                 span=_Source(src, file).span(at)))


class _P:
    """Recursive descent over the token arrays.  The productions read kinds
    and texts by index and keep the position in ``i``."""

    __slots__ = ("kinds", "texts", "offs", "src", "i")

    def __init__(self, text: str, file: str):
        self.kinds, self.texts, self.offs = _lex(text, file)
        self.src = _Source(text, file)
        self.i = 0

    def fail(self, expected: str, i: int) -> ParseError:
        t = self.texts[i]
        found = t or ("end of input" if self.kinds[i] == "EOF" else "end of line")
        return ParseError(Diagnostic("parse", expected=expected, found=found,
                                     span=self.src.span(self.offs[i])))

    def name(self, i: int) -> str:
        """The identifier at ``i``."""
        t = self.texts[i]
        if self.kinds[i] != "NAME" or t in _KEYWORDS:
            raise self.fail("identifier", i)
        return t

    def decl_name(self, i: int) -> str:
        """The identifier at ``i``, as a declared name: it must not start
        with an underscore, which belongs to the core syntax for or-pattern
        labels."""
        t = self.name(i)
        if t.startswith("_"):
            raise ParseError(Diagnostic(
                "parse", expected="declaration name without leading underscore",
                found=t, span=self.src.span(self.offs[i])))
        return t

    def end_line(self, i: int) -> int:
        """The position after the line end at ``i``.  No production takes
        an NL, and ``_lex`` ends every line that holds a token with one, so
        ``i`` never reaches EOF."""
        if self.kinds[i] != "NL":
            raise self.fail("end of line", i)
        return i + 1

    # types

    def type_(self) -> SType:
        t1 = self.type1()
        if self.texts[self.i] == "->":
            self.i += 1
            return TArrow(t1, self.type_())
        return t1

    def type1(self) -> SType:
        t = self.type2()
        texts = self.texts
        op = texts[self.i]
        while op == "*" or op == "+" or op == "/\\":
            self.i += 1
            t = TBin(op, t, self.type2())
            op = texts[self.i]
        return t

    def type2(self) -> SType:
        i, texts = self.i, self.texts
        t = texts[i]
        if self.kinds[i] == "NAME":
            if t not in _KEYWORDS:
                self.i = i + 1
                return TName(t, self.offs[i], self.src)
            if t == "Pi" or t == "Sigma":
                if texts[i + 1] != "(":
                    raise self.fail("'('", i + 1)
                var = self.name(i + 2)
                if texts[i + 3] != ":":
                    raise self.fail("':'", i + 3)
                self.i = i + 4
                arg = self.type_()
                j = self.i
                if texts[j] != ")":
                    raise self.fail("')'", j)
                if texts[j + 1] != ".":
                    raise self.fail("'.'", j + 1)
                self.i = j + 2
                return TBind(t, var, arg, self.type_(), self.offs[i], self.src)
        elif t == "(":
            self.i = i + 1
            inner = self.type_()
            if texts[self.i] != ")":
                raise self.fail("')'", self.i)
            self.i += 1
            return inner
        raise self.fail("type", i)

    # patterns

    def pattern(self) -> SPat:
        i, texts = self.i, self.texts
        t, k = texts[i], self.kinds[i]
        if k == "WILD":
            self.i = i + 1
            return PWildS(self.offs[i], self.src)
        if k == "NAME":
            if t not in _KEYWORDS:
                if texts[i + 1] == "@":
                    self.i = i + 2
                    return PAsS(t, self.pattern(), self.offs[i], self.src)
                self.i = i + 1
                return PVarS(t, self.offs[i], self.src)
            if t == "inl":
                self.i = i + 1
                return PInlS(self.pattern())
            if t == "inr":
                self.i = i + 1
                return PInrS(self.pattern())
        elif t == "(":
            self.i = i + 1
            p = self.pattern()
            if texts[self.i] == ",":
                self.i += 1
                p = PPairS(p, self.pattern())
            if texts[self.i] != ")":
                raise self.fail("')'", self.i)
            self.i += 1
            return p
        raise self.fail("pattern", i)

    # expressions

    def expr(self) -> SExpr:
        i, kinds, texts = self.i, self.kinds, self.texts
        t = texts[i]
        if kinds[i] != "NAME" or t in _KEYWORDS:
            return self.expr_atom()
        offs, src = self.offs, self.src
        args = []
        j = i + 1
        while True:
            a = texts[j]
            if kinds[j] == "NAME" and a not in _KEYWORDS:
                args.append(EApp(a, (), offs[j], src))
                j += 1
            elif a == "(" or a == "inl" or a == "inr":
                self.i = j
                args.append(self.expr_atom())
                j = self.i
            else:
                break
        self.i = j
        return EApp(t, tuple(args), offs[i], src)

    def expr_atom(self) -> SExpr:
        i, texts = self.i, self.texts
        t = texts[i]
        if t == "(":
            self.i = i + 1
            e = self.expr()
            if texts[self.i] == ",":
                self.i += 1
                e = EPair(e, self.expr())
            if texts[self.i] != ")":
                raise self.fail("')'", self.i)
            self.i += 1
            return e
        if self.kinds[i] == "NAME":
            if t not in _KEYWORDS:
                self.i = i + 1
                return EApp(t, (), self.offs[i], self.src)
            if t == "inl":
                self.i = i + 1
                return EInl(self.expr_atom())
            if t == "inr":
                self.i = i + 1
                return EInr(self.expr_atom())
        raise self.fail("expression", i)


def parse(source: str, file: str = "<surface>") -> list[SurfaceDecl]:
    """Parse a surface program into declarations with their clauses."""
    p = _P(source, file)
    kinds, texts, offs, src = p.kinds, p.texts, p.offs, p.src
    decls: list[SurfaceDecl] = []
    clauses: list[list[Clause]] = []    # of each declaration
    open_def: Optional[int] = None

    # The lexer puts no NL first and never two in a row, so each
    # declaration starts right after the line end of the one before.
    i = 0
    while kinds[i] != "EOF":
        t = texts[i]
        if t == "atom" or t == "postulate":
            name = p.decl_name(i + 1)
            span = src.span(offs[i + 1])
            ty = None
            if t == "atom":
                i = p.end_line(i + 2)
            else:
                if texts[i + 2] != ":":
                    raise p.fail("':'", i + 2)
                p.i = i + 3
                ty = p.type_()
                i = p.end_line(p.i)
            decls.append(SurfaceDecl(t, name, span, ty))
            clauses.append([])
            open_def = None
        elif kinds[i] == "NAME":
            declares = texts[i + 1] == ":"
            name = p.decl_name(i) if declares else p.name(i)
            span = src.span(offs[i])
            if declares:
                p.i = i + 2
                ty = p.type_()
                i = p.end_line(p.i)
                decls.append(SurfaceDecl("def", name, span, ty))
                clauses.append([])
                open_def = len(decls) - 1
            else:
                p.i = i + 1
                pats = []
                while texts[p.i] != "=":
                    pats.append(p.pattern())
                p.i += 1
                rhs = p.expr()
                i = p.end_line(p.i)
                if open_def is None or decls[open_def].name != name:
                    raise ParseError(Diagnostic(
                        "parse", expected="clause following its declaration",
                        found=name, span=span))
                cs = clauses[open_def]
                if cs and len(cs[0].lhs) != len(pats):
                    raise ParseError(Diagnostic(
                        "arity", expected=f"{len(cs[0].lhs)} pattern(s)",
                        found=str(len(pats)), span=span))
                cs.append(Clause(tuple(pats), rhs, span))
        else:
            raise p.fail("declaration", i)
    return [SurfaceDecl(d.kind, d.name, d.span, d.type, tuple(cs)) if cs else d
            for d, cs in zip(decls, clauses)]


# ---------------------------------------------------------------------------
# Polarization

def polarize(ty: SType, sig: Sig, mode: Mode = Mode.PROP,
             shared: Optional[dict] = None) -> NegType:
    """Insert the minimal shifts making a surface type a negative kernel type:
    atoms are negative, arrows take a positive argument, sums and products are
    positive with shifted components.

    Every node but ``Pi`` and ``Sigma`` is taken from the table ``shared``
    (a new one when not given) when an equal node is there, and entered in
    it otherwise, so the types polarized with one table share each equal
    binder-free subtree.  ``Pi`` and ``Sigma`` are built anew, with fresh
    binders."""
    return _neg_of(ty, sig, mode, {} if shared is None else shared)


def _shared(table: dict, cls, *kids):
    """The node ``cls(*kids)`` in ``table``, entered when it is not there.
    Each child is itself from the table, or a ``Pi`` or ``Sigma`` that only
    this node holds, so the children's ids identify them while the table
    keeps the node."""
    key = (cls, *map(id, kids))
    node = table.get(key)
    if node is None:
        node = table[key] = cls(*kids)
    return node


def _neg_of(ty: SType, sig: Sig, mode: Mode, table: dict) -> NegType:
    c = type(ty)
    if c is TName:
        name = Name(ty.name)
        if name not in sig.atoms:
            raise CompileFail(Diagnostic("atom", expected="declared atom",
                                         found=ty.name, span=ty.span))
        atom = table.get(name)     # an atom is entered by its name
        if atom is None:
            atom = table[name] = Atom(name)
        return atom
    elif c is TArrow:
        arg = _pos_of(ty.arg, sig, mode, table)
        if mode is Mode.DEP:
            return Pi(fresh("_"), arg, _neg_of(ty.res, sig, mode, table))
        return _shared(table, Imp, arg, _neg_of(ty.res, sig, mode, table))
    elif c is TBin and ty.op == "/\\":
        return _shared(table, With, _neg_of(ty.left, sig, mode, table),
                       _neg_of(ty.right, sig, mode, table))
    elif c is TBin or (c is TBind and ty.head == "Sigma"):
        return _shared(table, Up, _pos_of(ty, sig, mode, table))
    elif c is TBind and ty.head == "Pi":
        if mode is not Mode.DEP:
            raise CompileFail(Diagnostic("mode", expected="propositional type",
                                         found="Pi", span=ty.span))
        return Pi(fresh(ty.var), _pos_of(ty.arg, sig, mode, table),
                  _neg_of(ty.body, sig, mode, table))
    raise TypeError(ty)


def _pos_of(ty: SType, sig: Sig, mode: Mode, table: dict) -> PosType:
    c = type(ty)
    if c is TBin and ty.op == "+":
        return _shared(table, Or, _pos_of(ty.left, sig, mode, table),
                       _pos_of(ty.right, sig, mode, table))
    elif c is TBin and ty.op == "*":
        pl = _pos_of(ty.left, sig, mode, table)
        pr = _pos_of(ty.right, sig, mode, table)
        if mode is Mode.DEP:
            return Sigma(fresh("_"), pl, pr)
        return _shared(table, Prod, pl, pr)
    elif c is TBind and ty.head == "Sigma":
        if mode is not Mode.DEP:
            raise CompileFail(Diagnostic("mode", expected="propositional type",
                                         found="Sigma", span=ty.span))
        return Sigma(fresh(ty.var), _pos_of(ty.arg, sig, mode, table),
                     _pos_of(ty.body, sig, mode, table))
    else:
        return _shared(table, Down, _neg_of(ty, sig, mode, table))


# ---------------------------------------------------------------------------
# Case trees

class CaseTree:
    __slots__ = ()


@record
class Leaf(CaseTree):
    clause: int


@record
class SplitNode(CaseTree):
    pos: "_Pos"
    left: CaseTree
    right: CaseTree


@record
class PairNode(CaseTree):
    pos: "_Pos"
    sub: CaseTree


class CompileFail(DiagnosticError):
    """A declaration the front end cannot compile."""


# ---------------------------------------------------------------------------
# Pattern fusion

@record
class _VarB:
    core: Name
    type: NegType


class _Pos:
    """One position of an argument (an occurrence): what fusing the clause
    patterns there found, and the side of a split sum the emitter is under.
    It compares by identity, so case-tree nodes that hold it can hash."""

    __slots__ = ("path", "type", "var", "aliases", "label", "pats", "left",
                 "right", "side", "goals", "thunk")

    def __init__(self, path: tuple, ty: PosType, var: Optional[Name] = None):
        self.path = path            # argument index, then fst/snd/inl/inr
        self.type = ty
        # The kernel variable of a thunk position, and in dependent mode of
        # each scrutinee; at a thunk, one more per extra as-name.
        self.var = var
        self.aliases: tuple[Name, ...] = ()
        self.label: Optional[Name] = None     # or-label, once split
        self.pats: dict[int, Optional[SPat]] = {}    # under the as-names
        self.left: Optional[_Pos] = None      # sub-positions, once split
        self.right: Optional[_Pos] = None
        self.side: Optional[str] = None       # "left" | "right"
        # The goals found to match ``type``, compared by identity: every
        # leaf below a binding rebuilds it at the same goals, so each is
        # compared once per declaration.  A mismatch is reported at once.
        self.goals: tuple[PosType, ...] = ()
        # At a thunk position: the eta-injection of ``var`` that rebuilds
        # it, made once and shared by every leaf.
        self.thunk: Optional[Thunk] = None


def _bind(binds: dict[str, Union[_VarB, _Pos]], node: Union[PAsS, PVarS],
          b: Union[_VarB, _Pos]) -> None:
    """Enter a name one clause binds while its patterns fuse into positions:
    a thunk name binds a kernel variable, a composite name its position."""
    if node.name in binds:
        raise CompileFail(Diagnostic(
            "linear", expected="pairwise distinct clause variables",
            found=node.name, span=node.span))
    binds[node.name] = b


def _fuse(mode: Mode, binds: list[dict[str, Union[_VarB, _Pos]]], pos: _Pos,
          pats: dict[int, Optional[SPat]]) -> None:
    # Each clause's nodes that name what it binds here, the as-patterns
    # outermost first and then the variable under them if there is one, and
    # its pattern under the as-names.
    peeled: dict[int, tuple[list[Union[PAsS, PVarS]], Optional[SPat]]] = {}
    plain = pos.pats
    all_wild = bool(pats)
    for cid, sp in pats.items():
        names: list[Union[PAsS, PVarS]] = []
        while type(sp) is PAsS:
            names.append(sp)
            sp = sp.pat
        if type(sp) is PVarS:
            names.append(sp)
        peeled[cid] = names, sp
        plain[cid] = sp
        all_wild = all_wild and type(sp) is PWildS and not names

    ty = pos.type
    if all_wild:
        if mode is Mode.DEP and not isinstance(ty, Down):
            # A dependent scrutinee must be bound by a variable.
            raise CompileFail(Diagnostic(
                "dep-pattern", expected="variable binder",
                found="wildcard pattern _",
                span=next(iter(plain.values())).span))
        return

    c = type(ty)
    if c is Down:
        _fuse_down(mode, binds, pos, peeled)
        return
    if c is Or:
        pos.label = fresh("w")
    left: dict[int, Optional[SPat]] = {}
    right: dict[int, Optional[SPat]] = {}
    for cid, sp in plain.items():
        cs = type(sp)
        if sp is None or cs is PVarS or cs is PWildS:
            left[cid] = right[cid] = None
        elif c is Or and cs is PInlS:
            left[cid] = sp.pat
        elif c is Or and cs is PInrS:
            right[cid] = sp.pat
        elif c is not Or and cs is PPairS:
            left[cid], right[cid] = sp.left, sp.right
        else:
            raise CompileFail(Diagnostic(
                "pattern", expected="injection or variable at a sum type"
                if c is Or else "pair or variable at a product type",
                found=_spat_shape(sp), span=_spat_span(sp)))
    if c is Or:
        # In dependent mode the branches rebind the scrutinee at the
        # refined type.
        pos.left = _Pos(pos.path + ("inl",), ty.left, pos.var)
        pos.right = _Pos(pos.path + ("inr",), ty.right, pos.var)
    else:
        fst_ty, snd_ty = children(ty)
        pos.left = _Pos(pos.path + ("fst",), fst_ty)
        pos.right = _Pos(pos.path + ("snd",), snd_ty)
        if mode is Mode.DEP:
            # Every dependent position has its variable by now.
            base = pos.var.text
            pos.left.var = fresh(_var_text(left.values(), base + "1"))
            pos.right.var = fresh(_var_text(right.values(), base + "2"))
    _fuse(mode, binds, pos.left, left)
    if c is Sigma:
        # Only a dependent type has a Sigma: the first component's
        # scrutinee variable stands for its binder.
        pos.right.type = subst_data(pos.right.type, ty.binder,
                                    eta(pos.left.var))
    _fuse(mode, binds, pos.right, right)
    for cid, (names, _) in peeled.items():
        for node in names:
            _bind(binds[cid], node, pos)


def _fuse_down(mode: Mode, binds: list[dict[str, Union[_VarB, _Pos]]],
               pos: _Pos, peeled) -> None:
    # Every name any clause binds here shares the stored hypothesis; an
    # as-chain needs one extra kernel variable per extra name (contraction).
    width = 0
    for names, sp in peeled.values():
        if sp is not None and not isinstance(sp, (PVarS, PWildS)):
            raise CompileFail(Diagnostic(
                "pattern", expected="variable at a thunk type",
                found=_spat_shape(sp), span=_spat_span(sp)))
        width = max(width, len(names))
    # Kernel variables take the source names slot by slot, from the first
    # clause that names the slot, so equations print back with the names the
    # program used.  Only a lone slot can go unnamed.
    vars_ = [fresh(next((names[i].name for names, _ in peeled.values()
                         if i < len(names)), "v1"))
             for i in range(max(width, 1))]
    vars_[0] = pos.var = pos.var or vars_[0]
    for cid, (names, _) in peeled.items():
        for v, node in zip(vars_, names):
            _bind(binds[cid], node, _VarB(v, pos.type.body))
    if width > 1 and mode is Mode.DEP:
        # The first name that would need an extra kernel variable.
        raise CompileFail(Diagnostic(
            "dep-pattern", expected="variable binder",
            found="as-pattern", span=next(
                names[1].span for names, _ in peeled.values()
                if len(names) > 1)))
    pos.aliases = tuple(vars_[1:])


def _pattern(pos: _Pos) -> Pattern:
    """The core pattern that binds ``pos`` in propositional mode: its
    variables at a thunk, its split at a sum or product, else a wildcard."""
    if pos.left is not None:
        fl, fr = _pattern(pos.left), _pattern(pos.right)
        return PPair(fl, fr) if pos.label is None else POr(pos.label, fl, fr)
    if pos.var is None:
        return PWild()
    *outer, last = pos.var, *pos.aliases
    pat: Pattern = Var(last)
    for v in reversed(outer):
        pat = PAt(Var(v), pat)
    return pat


def _var_text(pats, default: str) -> str:
    for sp in pats:
        while isinstance(sp, PAsS):
            sp = sp.pat
        if isinstance(sp, PVarS):
            return sp.name
    return default


def _spat_shape(p: SPat) -> str:
    return {PPairS: "pair pattern", PInlS: "inl pattern",
            PInrS: "inr pattern"}[type(p)]


def _spat_span(p: SPat) -> Span:
    c = type(p)
    if c is PPairS:
        return _spat_span(p.left)
    elif c is PInlS or c is PInrS:
        return _spat_span(p.pat)
    return p.span


# ---------------------------------------------------------------------------
# Decision tree

def _build_tree(decl: SurfaceDecl,
                args: list[_Pos]) -> tuple[CaseTree, list[str]]:
    """Split the clause matrix into its case tree, left side first, and read
    coverage and the clause warnings off the same walk: a sum side that no
    clause reaches is the first missing case, and each leaf uses its first
    live clause and overlaps when more than one is live there."""
    used: set[int] = set()
    overlap = False

    def walk(todo: list[_Pos], live: list[int]) -> CaseTree:
        nonlocal overlap
        if not todo:
            used.add(live[0])
            overlap = overlap or len(live) > 1
            return Leaf(live[0])
        pos, rest = todo[0], todo[1:]
        if pos.left is None:
            return walk(rest, live)
        if pos.label is None:
            return PairNode(pos, walk([pos.left, pos.right] + rest, live))
        sides = []
        for step, sub, other in (("inl", pos.left, PInrS),
                                 ("inr", pos.right, PInlS)):
            # A clause with the other injection here cannot match.
            live_s = [c for c in live if type(pos.pats.get(c)) is not other]
            if not live_s:
                raise CompileFail(Diagnostic(
                    "coverage", expected="exhaustive clauses",
                    found="missing case: " + _missing_case(
                        decl.name, len(args), pos.path, step),
                    span=decl.span))
            sides.append(walk([sub] + rest, live_s))
        return SplitNode(pos, *sides)

    try:
        tree = walk(args, list(range(len(decl.clauses))))
    finally:
        del walk    # it refers to itself: free it now
    warnings = [f"clause {cid + 1} of {decl.name} is never used"
                for cid in range(len(decl.clauses)) if cid not in used]
    if overlap:
        warnings.append(f"clauses of {decl.name} overlap; first match wins")
    return tree, warnings


def _missing_case(name: str, arity: int, path: tuple, side: str) -> str:
    """The clause head that would cover ``side`` of the sum at ``path``."""
    def atom(hole: str) -> str:
        # A hole is an injection or a parenthesized pair.
        return hole if hole.startswith("(") else f"({hole})"

    hole = f"{side} _"
    for step in reversed(path[1:]):
        if step == "fst":
            hole = f"({hole}, _)"
        elif step == "snd":
            hole = f"(_, {hole})"
        else:
            hole = f"{step} {atom(hole)}"
    pats = ["_"] * arity
    pats[path[0]] = atom(hole)
    return f"{name} {' '.join(pats)}"


# ---------------------------------------------------------------------------
# Right-hand side emission

class _Emitter:
    """Emits the term of a case tree: each leaf's right-hand side under the
    names its clause binds, and each node's split or pair-let.  A name bound
    at a composite position is rebuilt as data from the positions under it,
    on the sides of the splits the leaf lies under."""

    def __init__(self, sig: Sig, mode: Mode, binds: list[dict],
                 decl: SurfaceDecl, result: NegType):
        self.sig = sig
        self.mode = mode
        # The comparison of a type with the goal it must meet.
        self.same = alpha_eq if mode is Mode.PROP else (
            lambda a, b: convert(a, b, sig))
        self.binds = binds
        self.decl = decl
        self.result = result

    def emit(self, tree: CaseTree) -> Term:
        c = type(tree)
        if c is Leaf:
            return self._rhs_term(self.binds[tree.clause],
                                  self.decl.clauses[tree.clause].rhs, self.result)
        pos = tree.pos
        if c is SplitNode:
            pos.side = "left"
            tl = self.emit(tree.left)
            pos.side = "right"
            tr = self.emit(tree.right)
            pos.side = None
            return Split(pos.var if self.mode is Mode.DEP else pos.label,
                         tl, tr)
        elif c is PairNode:
            sub = self.emit(tree.sub)
            if self.mode is Mode.DEP:
                return BindCut(PPair(Var(pos.left.var), Var(pos.right.var)),
                               eta(pos.var), sub)
            return sub
        raise AssertionError(tree)

    # reconstruction of a composite position as data, on the current sides

    def _recon(self, pos: _Pos) -> DataVal:
        ty = pos.type
        c = type(ty)
        if c is Down:
            if pos.thunk is None:
                if pos.var is None:
                    # No clause binds this thunk: the rebuild binds it.
                    pos.var = fresh("v1")
                pos.thunk = eta(pos.var)
            return pos.thunk
        elif c is Or:
            if pos.side == "left":
                return Inl(self._recon(pos.left))
            if pos.side == "right":
                return Inr(self._recon(pos.right))
            raise CompileFail(Diagnostic(
                "pattern", expected="resolved sum position",
                found="unresolved or-position", span=self.decl.span))
        elif c is Prod or c is Sigma:
            if pos.left is None:
                # A wildcard product: the rebuild splits it.
                fst_ty, snd_ty = children(ty)
                pos.left = _Pos(pos.path + ("fst",), fst_ty)
                pos.right = _Pos(pos.path + ("snd",), snd_ty)
            return DPair(self._recon(pos.left), self._recon(pos.right))
        raise TypeError(ty)

    # expressions, under the names ``scope`` their clause binds

    def _rhs_term(self, scope: dict, e: SExpr, goal: NegType) -> Term:
        c = type(goal)
        if c is Up:
            return Done(self._rhs_data(scope, e, goal.body))
        elif c is With and type(e) is EPair:
            return Pair(self._rhs_term(scope, e.left, goal.left),
                        self._rhs_term(scope, e.right, goal.right))
        else:
            return self._app_term(scope, e, goal)

    def _app_term(self, scope: dict, e: SExpr, goal: NegType) -> Term:
        if type(e) is not EApp:
            raise CompileFail(Diagnostic(
                "type", expected=print_type(goal),
                found=_sexpr_shape(e), span=_sexpr_span(e, self.decl.span)))
        b = scope.get(e.head)
        if b is None:
            # A name equals the plain tuple of its text and tag, so the
            # lookup of a signature name builds no Name.
            entry = self.sig.lookup((e.head, 0))
            if entry is None:
                raise CompileFail(Diagnostic(
                    "unbound", expected="bound variable or declared name",
                    found=e.head, span=e.span))
            head, cur = entry.name, entry.type
        elif type(b) is _Pos:
            raise CompileFail(Diagnostic(
                "type", expected="thunk-typed head",
                found=f"{e.head} bound at {print_type(b.type)}", span=e.span))
        else:
            head, cur = b.core, b.type
        parts: list[DataVal] = []
        for arg in e.args:
            c = type(cur)
            if c is Imp:
                parts.append(self._rhs_data(scope, arg, cur.arg))
                cur = cur.res
            elif c is Pi:
                d = self._rhs_data(scope, arg, cur.arg)
                parts.append(d)
                cur = subst_data(cur.res, cur.binder, d)
            else:
                raise CompileFail(Diagnostic(
                    "arity", expected="function taking more arguments",
                    found=e.head, span=e.span))
        if cur is not goal and not self.same(cur, goal):
            raise CompileFail(Diagnostic(
                "type", expected=print_type(goal), found=print_type(cur),
                span=e.span))
        spine: Spine = Nil()
        for d in reversed(parts):
            spine = Cons(d, spine)
        return App(head, spine)

    def _rhs_data(self, scope: dict, e: SExpr, p: PosType) -> DataVal:
        if type(e) is EApp and not e.args:
            b = scope.get(e.head)
            if type(b) is _Pos:
                if not any(g is p for g in b.goals):
                    if not self.same(b.type, p):
                        raise CompileFail(Diagnostic(
                            "type", expected=print_type(p), found=print_type(b.type),
                            span=e.span))
                    b.goals += (p,)
                return self._recon(b)
        c = type(p)
        if c is Down:
            return Thunk(self._rhs_term(scope, e, p.body))
        elif c is Or and type(e) is EInl:
            return Inl(self._rhs_data(scope, e.body, p.left))
        elif c is Or and type(e) is EInr:
            return Inr(self._rhs_data(scope, e.body, p.right))
        elif c is Prod and type(e) is EPair:
            return DPair(self._rhs_data(scope, e.left, p.left),
                         self._rhs_data(scope, e.right, p.right))
        elif c is Sigma and type(e) is EPair:
            da = self._rhs_data(scope, e.left, p.first)
            return DPair(da, self._rhs_data(
                scope, e.right, subst_data(p.second, p.binder, da)))
        raise CompileFail(Diagnostic(
            "type", expected=print_type(p), found=_sexpr_shape(e),
            span=_sexpr_span(e, self.decl.span)))


def _sexpr_shape(e: SExpr) -> str:
    return {EApp: "application", EPair: "pair", EInl: "inl",
            EInr: "inr"}[type(e)]


def _sexpr_span(e: SExpr, default: Span) -> Span:
    return e.span if isinstance(e, EApp) else default


# ---------------------------------------------------------------------------
# Compilation entry point

@record
class CompiledDecl:
    kind: str                       # "atom" | "postulate" | "def"
    name: Name
    span: Span
    type: Optional[NegType] = None
    term: Optional[Term] = None
    tree: Optional[CaseTree] = None
    warnings: tuple[str, ...] = ()


def compile_clauses(decl: SurfaceDecl, sig: Sig, mode: Mode = Mode.PROP,
                    shared: Optional[dict] = None) -> CompiledDecl:
    """Polarize a definition's declared type, with the table ``shared`` when
    given, and compile its clause set into one core term via its splitting
    tree.  Raises CompileFail on type, coverage or elaboration errors."""
    assert decl.kind == "def"
    ty = polarize(decl.type, sig, mode, shared)
    if not decl.clauses:
        raise CompileFail(Diagnostic(
            "coverage", expected="at least one clause", found="none",
            span=decl.span))
    arity = len(decl.clauses[0].lhs)   # parse gives every clause this many
    args: list[_Pos] = []
    result = ty
    for i in range(arity):
        c = type(result)
        v = None
        if c is Pi:
            # A Pi binder is visible in later argument types; the
            # scrutinee variable doubles as that binder.
            v = fresh(_var_text((cl.lhs[i] for cl in decl.clauses),
                                f"a{i + 1}"))
            a = result.arg
            result = subst_data(result.res, result.binder, eta(v))
        elif c is Imp:
            a, result = result.arg, result.res
        else:
            raise CompileFail(Diagnostic(
                "arity", expected="enough arrows in the declared type",
                found=f"{arity} clause pattern(s)", span=decl.span))
        args.append(_Pos((i,), a, v))

    binds: list[dict[str, Union[_VarB, _Pos]]] = [{} for _ in decl.clauses]
    for i, pos in enumerate(args):
        _fuse(mode, binds, pos,
              {cid: cl.lhs[i] for cid, cl in enumerate(decl.clauses)})

    tree, warnings = _build_tree(decl, args)
    term = _Emitter(sig, mode, binds, decl, result).emit(tree)
    for pos in reversed(args):
        term = Lam(Var(pos.var) if mode is Mode.DEP else _pattern(pos), term)
    return CompiledDecl("def", Name(decl.name), decl.span, ty, term, tree,
                        tuple(warnings))


# ---------------------------------------------------------------------------
# Program loading

@record
class Program:
    sig: Sig
    decls: tuple[CompiledDecl, ...]
    warnings: tuple[str, ...] = ()

    def find(self, name: str) -> Optional[CompiledDecl]:
        for d in self.decls:
            if d.name.text == name:
                return d
        return None


def load_program(source: str, file: str = "<surface>",
                 mode: Mode = Mode.PROP) -> Program:
    """Parse and compile a whole program, building its signature in file
    order.  Typechecking of compiled bodies is the caller's concern."""
    decls = parse(source, file)
    # The program's declared types share their equal parts; the table goes
    # with this call, so no type outlives the program that holds it.
    shared: dict = {}
    # One index grows in place, so each declaration sees the entries before
    # it without a copy; names are unique, so it holds them in file order.
    index: dict[Name, SigEntry] = {}
    sig = Sig(_index=index)
    out: list[CompiledDecl] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for d in decls:
        if d.name in seen:
            raise CompileFail(Diagnostic(
                "scope", expected="unique declaration name", found=d.name,
                span=d.span))
        seen.add(d.name)
        if d.kind == "atom":
            sig = sig.with_atom(Name(d.name))
            out.append(CompiledDecl("atom", Name(d.name), d.span))
            continue
        if d.kind == "postulate":
            ty = polarize(d.type, sig, mode, shared)
            out.append(CompiledDecl("postulate", Name(d.name), d.span, ty))
        else:
            out.append(compile_clauses(d, sig, mode, shared))
            warnings.extend(out[-1].warnings)
        c = out[-1]
        index[c.name] = SigEntry(c.name, c.type, c.term)
    return Program(Sig(sig.atoms, tuple(index.values()), _index=index),
                   tuple(out), tuple(warnings))


# ---------------------------------------------------------------------------
# Standalone argument expressions (CLI --arg)

def compile_argument(sig: Sig, text: str, ty: PosType,
                     mode: Mode = Mode.PROP) -> DataVal:
    """Parse a closed surface expression and elaborate it as data at ``ty``.
    Heads must be signature names."""
    p = _P(text, "<arg>")
    expr = p.expr()
    i = p.i
    if p.kinds[i] == "NL":
        i += 1
    if p.kinds[i] != "EOF":
        raise ParseError(Diagnostic("parse", expected="end of argument",
                                    found=p.texts[i],
                                    span=p.src.span(p.offs[i])))
    shim = SurfaceDecl("def", "<arg>", Span("<arg>", 1, 1))
    emitter = _Emitter(sig, mode, [], shim, Atom(Name("<arg>")))
    return emitter._rhs_data({}, expr, ty)
