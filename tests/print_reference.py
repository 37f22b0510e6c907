"""Reference printers for core text.

``seqcore.core_text`` finds the free names of a term while it prints it and
prints again only when a binder weighed the text of one of them.  This is
the printer it replaced, kept as the ground truth the differential tests
compare it with: one walk (``free_names``) collects the free names of the
whole term, and a second prints it with their texts reserved.

``seqcore.core_text.print_type`` prints both polarities by one walk.
``print_neg`` and ``print_pos`` are the two mutually recursive printers it
replaced, one per polarity, each stating its own parentheses.
"""

from __future__ import annotations

from seqcore.core_text import _Printer, print_data
from seqcore.syntax import (Atom, Down, Imp, NegType, Or, Pi, Prod, Sigma, Up,
                            With, free_names)


def free_texts(x) -> set[str]:
    """The texts of the free names of ``x``, found by a walk of their own."""
    return {n.text for n in free_names(x)}


def print_with(method, x) -> str:
    """``method`` (``_Printer.term`` or ``_Printer.data``) applied to ``x``
    with the text of every free name of ``x`` reserved."""
    return method(_Printer(free_texts(x)), {}, x)


def reference_print_term(t) -> str:
    return print_with(_Printer.term, t)


def reference_print_data(d) -> str:
    return print_with(_Printer.data, d)


def print_neg(ty, prec: int = 0) -> str:
    c = type(ty)
    if c is Atom:
        if not ty.args:
            return str(ty.name)
        body = " ".join(f"({print_data(a)})" for a in ty.args)
        s = f"{ty.name} {body}"
        return f"({s})" if prec > 2 else s
    elif c is Up:
        s = f"up {print_pos(ty.body, 3)}"
        return f"({s})" if prec > 2 else s
    elif c is Imp:
        s = f"{print_pos(ty.arg, 2)} -> {print_neg(ty.res, 1)}"
        return f"({s})" if prec > 1 else s
    elif c is With:
        s = f"{print_neg(ty.left, 3)} /\\ {print_neg(ty.right, 2)}"
        return f"({s})" if prec > 2 else s
    elif c is Pi:
        s = f"Pi ({ty.binder} : {print_pos(ty.arg)}). {print_neg(ty.res, 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(ty)


def print_pos(ty, prec: int = 0) -> str:
    c = type(ty)
    if c is Down:
        s = f"dn {print_neg(ty.body, 3)}"
        return f"({s})" if prec > 2 else s
    elif c is Or:
        s = f"{print_pos(ty.left, 3)} + {print_pos(ty.right, 2)}"
        return f"({s})" if prec > 2 else s
    elif c is Prod:
        s = f"{print_pos(ty.left, 3)} * {print_pos(ty.right, 2)}"
        return f"({s})" if prec > 2 else s
    elif c is Sigma:
        s = (f"Sigma ({ty.binder} : {print_pos(ty.first)})."
             f" {print_pos(ty.second, 1)}")
        return f"({s})" if prec > 1 else s
    raise TypeError(ty)


def reference_print_type(ty) -> str:
    return print_neg(ty) if isinstance(ty, NegType) else print_pos(ty)
