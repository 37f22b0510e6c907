"""Two-walk reference for the core-text printer.

``seqcore.core_text`` finds the free names of a term while it prints it and
prints again only when a binder weighed the text of one of them.  This is
the printer it replaced, kept as the ground truth the differential tests
compare it with: one walk (``free_names``) collects the free names of the
whole term, and a second prints it with their texts reserved.
"""

from __future__ import annotations

from seqcore.core_text import _Printer
from seqcore.syntax import free_names


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
