"""Character-loop reference for the surface lexer.

``seqcore.surface._lex`` scans with one compiled pattern; this is the
character-at-a-time loop it replaced, kept as the ground truth the
differential tests compare it with.  It returns ``(kind, text, line, col)``
tuples and raises the same ``ParseError`` on a character that starts no
token.
"""

from __future__ import annotations

from seqcore.diag import Diagnostic, ParseError, Span

_SYMS2 = ("->", "/\\")
_SYMS1 = ":()=,@*+._"


def reference_lex(src: str, file: str) -> list[tuple[str, str, int, int]]:
    toks: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(src)

    def emit_nl(ln: int, cl: int) -> None:
        if toks and toks[-1][0] != "NL":
            toks.append(("NL", "", ln, cl))

    while i < n:
        c = src[i]
        if c == "\n":
            emit_nl(line, col)
            line, col, i = line + 1, 1, i + 1
            continue
        if c.isspace():
            col, i = col + 1, i + 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src[i:i + 2] in _SYMS2:
            toks.append(("SYM", src[i:i + 2], line, col))
            col, i = col + 2, i + 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            kind = "WILD" if text == "_" else "NAME"
            toks.append((kind, text, line, col))
            col, i = col + (j - i), j
            continue
        if c in _SYMS1:
            toks.append(("SYM", c, line, col))
            col, i = col + 1, i + 1
            continue
        raise ParseError(Diagnostic("parse", expected="token", found=repr(c),
                                    span=Span(file, line, col)))
    emit_nl(line, col)
    toks.append(("EOF", "", line, col))
    return toks
