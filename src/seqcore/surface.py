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
and injections.  ``--`` starts a line comment.  Declarations, clauses and
named nodes keep the offset of their name, and make a span only when read.

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
it walks two trees.  The table also holds each name's one eta-injection,
which a name used bare at its binding's very type shares.  The table lives
as long as the ``load_program`` call.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat
from operator import attrgetter, itemgetter

from .check_dep import convert
from .core_text import print_type
from .diag import Diagnostic, DiagnosticError, ParseError, Span
from .record import record
from .syntax import (
    App, Atom, BindCut, Cons, DataVal, Done, Down, DPair, Imp, Inl,
    Inr, Lam, Mode, Name, NegType, NIL, Or, Pair, Pattern, PAt, Pi, POr,
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
    """A source text and its file name.  Tokens, name nodes, declarations
    and clauses keep character offsets; a Span is made from one only when
    asked, by counting the newlines before it."""

    __slots__ = ("text", "file")

    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file

    def span(self, at: int) -> Span:
        text = self.text
        return Span(self.file, text.count("\n", 0, at) + 1,
                    at - text.rfind("\n", 0, at))


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
class Clause(_Located):
    lhs: tuple[SPat, ...]
    rhs: SExpr
    at: int                     # the offset of its head's name
    src: _Source


@record
class SurfaceDecl(_Located):
    kind: str                   # "atom" | "postulate" | "def"
    name: str
    at: int                     # the offset of its name
    src: _Source
    type: SType | None = None
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
    # Each declaration's fields, made a record once its clauses are read.
    decls: list[tuple] = []
    open_def: tuple | None = None

    # The lexer puts no NL first and never two in a row, so each
    # declaration starts right after the line end of the one before.
    i = 0
    while kinds[i] != "EOF":
        t = texts[i]
        if t == "atom" or t == "postulate":
            name = p.decl_name(i + 1)
            at = offs[i + 1]
            ty = None
            if t == "atom":
                i = p.end_line(i + 2)
            else:
                if texts[i + 2] != ":":
                    raise p.fail("':'", i + 2)
                p.i = i + 3
                ty = p.type_()
                i = p.end_line(p.i)
            decls.append((t, name, at, ty, ()))
            open_def = None
        elif kinds[i] == "NAME":
            declares = texts[i + 1] == ":"
            name = p.decl_name(i) if declares else p.name(i)
            at = offs[i]
            if declares:
                p.i = i + 2
                ty = p.type_()
                i = p.end_line(p.i)
                open_def = ("def", name, at, ty, [])
                decls.append(open_def)
            else:
                p.i = i + 1
                pats = []
                while texts[p.i] != "=":
                    pats.append(p.pattern())
                p.i += 1
                rhs = p.expr()
                i = p.end_line(p.i)
                if open_def is None or open_def[1] != name:
                    raise ParseError(Diagnostic(
                        "parse", expected="clause following its declaration",
                        found=name, span=src.span(at)))
                cs = open_def[4]
                if cs and len(cs[0].lhs) != len(pats):
                    raise ParseError(Diagnostic(
                        "arity", expected=f"{len(cs[0].lhs)} pattern(s)",
                        found=str(len(pats)), span=src.span(at)))
                cs.append(Clause(tuple(pats), rhs, at, src))
        else:
            raise p.fail("declaration", i)
    return [SurfaceDecl(k, name, at, src, ty, tuple(cs))
            for k, name, at, ty, cs in decls]


# ---------------------------------------------------------------------------
# Polarization

def polarize(ty: SType, sig: Sig, mode: Mode = Mode.PROP,
             shared: dict | None = None) -> NegType:
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
        # Atoms are entered by text, and a Name equals its (text, tag) tuple.
        if (ty.name, 0) not in sig.atoms:
            raise CompileFail(Diagnostic("atom", expected="declared atom",
                                         found=ty.name, span=ty.span))
        atom = table.get(ty.name)
        if atom is None:
            atom = table[ty.name] = Atom(Name(ty.name))
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

class _Pos:
    """One position of an argument (an occurrence): what fusing the clause
    patterns there found, and the side of a split sum the emitter is under.
    It compares by identity, so case-tree nodes that hold it can hash."""

    __slots__ = ("path", "type", "var", "aliases", "label", "pats", "left",
                 "right", "side", "goals")

    def __init__(self, path: tuple, ty: PosType, var: Name | None = None):
        self.path = path            # argument index, then fst/snd/inl/inr
        self.type = ty
        # The kernel variable of a thunk position, and in dependent mode of
        # each scrutinee; at a thunk, one more per extra as-name.
        self.var = var
        self.aliases: tuple[Name, ...] = ()
        self.label: Name | None = None     # or-label, once split
        self.pats: dict[int, SPat | None] = {}    # under the as-names
        self.left: _Pos | None = None      # sub-positions, once split
        self.right: _Pos | None = None
        self.side: str | None = None       # "left" | "right"
        # The goals found to match ``type``, compared by identity: every
        # leaf below a binding rebuilds it at the same goals, so each is
        # compared once per declaration.  A mismatch is reported at once.
        self.goals: tuple[PosType, ...] = ()


def _bind(binds: dict[str, SigEntry | _Pos], node: PAsS | PVarS,
          b: SigEntry | _Pos) -> None:
    """Enter a name one clause binds while its patterns fuse into positions:
    a thunk name binds a kernel variable, a composite name its position."""
    if node.name in binds:
        raise CompileFail(Diagnostic(
            "linear", expected="pairwise distinct clause variables",
            found=node.name, span=node.span))
    binds[node.name] = b


def _fuse(mode: Mode, table: dict, binds: list[dict[str, SigEntry | _Pos]],
          pos: _Pos, pats: dict[int, SPat | None]) -> None:
    # Each clause's nodes that name what it binds here, the as-patterns
    # outermost first and then the variable under them if there is one, and
    # its pattern under the as-names.
    peeled: dict[int, tuple[list[PAsS | PVarS], SPat | None]] = {}
    plain = pos.pats
    all_wild = bool(pats)
    for cid, sp in pats.items():
        names: list[PAsS | PVarS] = []
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
    left: dict[int, SPat | None] = {}
    right: dict[int, SPat | None] = {}
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
    _fuse(mode, table, binds, pos.left, left)
    if c is Sigma:
        # Only a dependent type has a Sigma: the first component's
        # scrutinee variable stands for its binder.
        pos.right.type = subst_data(pos.right.type, ty.binder,
                                    _injection(table, pos.left.var))
    _fuse(mode, table, binds, pos.right, right)
    for cid, (names, _) in peeled.items():
        for node in names:
            _bind(binds[cid], node, pos)


def _fuse_down(mode: Mode, binds: list[dict[str, SigEntry | _Pos]],
               pos: _Pos, peeled) -> None:
    # Every name any clause binds here shares the stored hypothesis; an
    # as-chain needs one extra kernel variable per extra name (contraction).
    # Kernel variables take the source names slot by slot, from the first
    # clause that names the slot, so equations print back with the names the
    # program used.  Only a lone slot can go unnamed.
    texts: list[str] = []
    for names, sp in peeled.values():
        if sp is not None and type(sp) is not PVarS and type(sp) is not PWildS:
            raise CompileFail(Diagnostic(
                "pattern", expected="variable at a thunk type",
                found=_spat_shape(sp), span=_spat_span(sp)))
        for node in names[len(texts):]:
            texts.append(node.name)
    width = len(texts)
    vars_ = list(map(fresh, texts or ("v1",)))
    vars_[0] = pos.var = pos.var or vars_[0]
    for cid, (names, _) in peeled.items():
        for v, node in zip(vars_, names):
            _bind(binds[cid], node, SigEntry(v, pos.type.body))
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
    if not pos.aliases:
        return Var(pos.var)
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
    leaves: list[list[int]] = []    # the live clauses at each leaf
    tree = _walk(decl, leaves, args, list(range(len(decl.clauses))))
    used = set(map(itemgetter(0), leaves))
    n = len(decl.clauses)
    warnings = [f"clause {cid + 1} of {decl.name} is never used"
                for cid in range(n) if cid not in used] if len(used) < n else []
    if max(map(len, leaves)) > 1:
        warnings.append(f"clauses of {decl.name} overlap; first match wins")
    return tree, warnings


def _walk(decl: SurfaceDecl, leaves: list[list[int]], todo: list[_Pos],
          live: list[int]) -> CaseTree:
    if not todo:
        leaves.append(live)
        return Leaf(live[0])
    pos, rest = todo[0], todo[1:]
    if pos.left is None:
        return _walk(decl, leaves, rest, live)
    if pos.label is None:
        return PairNode(pos, _walk(decl, leaves, [pos.left, pos.right] + rest,
                                   live))
    sides = []
    for step, sub, other in (("inl", pos.left, PInrS),
                             ("inr", pos.right, PInlS)):
        # A clause with the other injection here cannot match.
        live_s = [c for c in live if type(pos.pats.get(c)) is not other]
        if not live_s:
            raise CompileFail(Diagnostic(
                "coverage", expected="exhaustive clauses",
                found="missing case: " + _missing_case(
                    decl.name, len(decl.clauses[0].lhs), pos.path, step),
                span=decl.span))
        sides.append(_walk(decl, leaves, [sub] + rest, live_s))
    return SplitNode(pos, *sides)


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

def _injection(table: dict, x: Name) -> Thunk:
    """The one eta-injection of ``x`` in a load, entered under ``x``."""
    inj = table.get(x)
    if inj is None:
        inj = table[x] = eta(x)
    return inj


class _Emitter:
    """Emits the term of a case tree: each leaf's right-hand side under the
    names its clause binds, and each node's split or pair-let.  A name bound
    at a composite position is rebuilt as data from the positions under it,
    on the sides of the splits the leaf lies under."""

    def __init__(self, sig: Sig, mode: Mode, binds: list[dict],
                 decl: SurfaceDecl, result: NegType, table: dict):
        self.sig = sig
        self.mode = mode
        # The comparison of a type with the goal it must meet.
        self.same = alpha_eq if mode is Mode.PROP else (
            lambda a, b: convert(a, b, sig))
        self.binds = binds
        self.decl = decl
        self.result = result
        self.table = table      # the load's table, for the eta-injections

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
                               _injection(self.table, pos.var), sub)
            return sub
        raise AssertionError(tree)

    # reconstruction of a composite position as data, on the current sides

    def _recon(self, pos: _Pos) -> DataVal:
        ty = pos.type
        c = type(ty)
        if c is Down:
            if pos.var is None:
                # No clause binds this thunk: the rebuild binds it.
                pos.var = fresh("v1")
            return _injection(self.table, pos.var)
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
            b = self.sig.lookup((e.head, 0))
            if b is None:
                raise CompileFail(Diagnostic(
                    "unbound", expected="bound variable or declared name",
                    found=e.head, span=e.span))
        elif type(b) is _Pos:
            raise CompileFail(Diagnostic(
                "type", expected="thunk-typed head",
                found=f"{e.head} bound at {print_type(b.type)}", span=e.span))
        head, cur = b.name, b.type
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
        spine: Spine = NIL
        for d in reversed(parts):
            spine = Cons(d, spine)
        return App(head, spine)

    def _rhs_data(self, scope: dict, e: SExpr, p: PosType) -> DataVal:
        c = type(p)
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
            if c is Down and type(p.body) is not Up:
                # A name bound at the goal's very type: the injection
                # _app_term would build.  Other names take that path.
                if b is None:
                    b = self.sig.lookup((e.head, 0))
                if b is not None and b.type is p.body:
                    return _injection(self.table, b.name)
        if c is Down:
            g = p.body
            if type(g) is Up or type(g) is With and type(e) is EPair:
                return Thunk(self._rhs_term(scope, e, g))
            return Thunk(self._app_term(scope, e, g))
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
class CompiledDecl(_Located):
    kind: str                       # "atom" | "postulate" | "def"
    name: Name
    at: int                         # its declaration's, as in SurfaceDecl
    src: _Source
    type: NegType | None = None
    term: Term | None = None
    tree: CaseTree | None = None
    warnings: tuple[str, ...] = ()


def compile_clauses(decl: SurfaceDecl, sig: Sig, mode: Mode = Mode.PROP,
                    shared: dict | None = None) -> CompiledDecl:
    """Polarize a definition's declared type, with the table ``shared`` when
    given, and compile its clause set into one core term via its splitting
    tree.  Raises CompileFail on type, coverage or elaboration errors."""
    assert decl.kind == "def"
    shared = {} if shared is None else shared
    ty = polarize(decl.type, sig, mode, shared)
    if not decl.clauses:
        raise CompileFail(Diagnostic(
            "coverage", expected="at least one clause", found="none",
            span=decl.span))
    # Each argument's patterns; parse gives every clause as many.
    columns = list(zip(*map(attrgetter("lhs"), decl.clauses)))
    arity = len(columns)
    args: list[_Pos] = []
    result = ty
    for i in range(arity):
        c = type(result)
        v = None
        if c is Pi:
            # A Pi binder is visible in later argument types; the
            # scrutinee variable doubles as that binder.
            v = fresh(_var_text(columns[i], f"a{i + 1}"))
            a = result.arg
            result = subst_data(result.res, result.binder,
                                _injection(shared, v))
        elif c is Imp:
            a, result = result.arg, result.res
        else:
            raise CompileFail(Diagnostic(
                "arity", expected="enough arrows in the declared type",
                found=f"{arity} clause pattern(s)", span=decl.span))
        args.append(_Pos((i,), a, v))

    binds: list[dict[str, SigEntry | _Pos]] = [{} for _ in decl.clauses]
    for pos, column in zip(args, columns):
        _fuse(mode, shared, binds, pos, dict(enumerate(column)))

    tree, warnings = _build_tree(decl, args)
    term = _Emitter(sig, mode, binds, decl, result, shared).emit(tree)
    for pos in reversed(args):
        term = Lam(Var(pos.var) if mode is Mode.DEP else _pattern(pos), term)
    return CompiledDecl("def", Name(decl.name), decl.at, decl.src, ty, term,
                        tree, tuple(warnings))


# ---------------------------------------------------------------------------
# Program loading

@record
class Program:
    sig: Sig
    decls: tuple[CompiledDecl, ...]
    warnings: tuple[str, ...] = ()

    def find(self, name: str) -> CompiledDecl | None:
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
            out.append(CompiledDecl("atom", Name(d.name), d.at, d.src))
            continue
        if d.kind == "postulate":
            ty = polarize(d.type, sig, mode, shared)
            out.append(CompiledDecl("postulate", Name(d.name), d.at, d.src,
                                    ty))
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
    shim = SurfaceDecl("def", "<arg>", 0, p.src)
    emitter = _Emitter(sig, mode, [], shim, Atom(Name("<arg>")), {})
    return emitter._rhs_data({}, expr, ty)
