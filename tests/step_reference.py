"""Root-restart reference for the reducer.

``seqcore.reduce.normalize`` and ``trace`` find each redex by refocusing:
after a rewrite they search again only around the rewritten position.
``step`` is the rule they replaced, kept as the ground truth the
differential tests compare them with: it searches for the
leftmost-outermost redex from the root on every call.  It applies the
kernel's own rules (``reduce._step_root``), so the two differ only in
where they look.
"""

from __future__ import annotations

from typing import Optional

from seqcore.record import record
from seqcore.reduce import _put, _step_root
from seqcore.syntax import Clash, Sig, Term, children, with_children


class StepResult:
    __slots__ = ()


@record
class Stepped(StepResult):
    next: Term
    rule: str


@record
class NormalForm(StepResult):
    pass


@record
class Stuck(StepResult):
    reason: str


def step(sig: Sig, t: Term) -> StepResult:
    """Apply exactly one rule at the leftmost-outermost redex."""
    try:
        hit = _step_any(sig, t)
    except Clash as e:
        return Stuck(e.reason)
    if hit is None:
        return NormalForm()
    rule, t2 = hit
    return Stepped(t2, rule)


def _step_any(sig: Sig, x) -> Optional[tuple[str, object]]:
    """One step at node ``x`` or inside it; None if no redex."""
    root = _step_root(sig, x)
    if root is not None:
        return root
    kids = children(x)
    for i, child in enumerate(kids):
        hit = _step_any(sig, child)
        if hit is not None:
            rule, new_child = hit
            return rule, with_children(x, _put(kids, i, new_child))
    return None
