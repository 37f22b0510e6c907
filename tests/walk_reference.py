"""Interpretive reference for the kernel's structural walks.

``seqcore.syntax`` gives each node class its own rewrite step and rebuild,
made from its ``Layout`` when the class is declared.  These are the walks
they replaced, kept as the ground truth the differential tests compare them
with: each reads the node's layout on every call, collects the rewritten
children in a list and rebuilds the node through the layout's leading and
spread fields.  Patched over ``syntax.rewrite``, ``syntax.children`` and
``syntax.with_children``, they run every substitution, renaming and branch
selection of the kernel the old way.
"""

from __future__ import annotations


def children(x) -> tuple:
    """The children of node ``x``, in field order."""
    return x.layout.children(x)


def with_children(x, kids, lead=None):
    """A node like ``x`` with the children ``kids`` and, when given, the
    leading field ``lead``."""
    lay = x.layout
    if lay.spread:
        kids = (tuple(kids),)
    if lay.lead is None:
        return type(x)(*kids)
    return type(x)(getattr(x, lay.lead) if lead is None else lead, *kids)


def rewrite(x, visit, under=None):
    """``x`` with each subtree that ``visit`` maps to a node replaced by that
    node, outermost first; where ``visit`` returns None, the node's children
    are rewritten in turn.  On a node with a binder, ``under(binder, child)``
    takes the place of this on the last child and returns the binder and
    the child.  Subtrees that do not change are returned as they are."""
    y = visit(x)
    if y is not None:
        return y
    lay = x.layout
    kids = lay.children(x)
    scoped = under is not None and lay.binder is not None
    new = []
    changed = False
    for k in kids[:-1] if scoped else kids:
        k2 = rewrite(k, visit, under)
        new.append(k2)
        changed = changed or k2 is not k
    if not scoped:
        return with_children(x, new) if changed else x
    binder = getattr(x, lay.binder)
    binder2, last = under(binder, kids[-1])
    new.append(last)
    if changed or binder2 is not binder or last is not kids[-1]:
        return with_children(x, new, binder2)
    return x
