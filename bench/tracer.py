"""Spans around the public functions of each seqcore layer.

The tracer lives entirely in the benchmark: it replaces each layer function
with a wrapper that records a span (layer, parent span, start, end), and
puts the original back afterwards.  Modules import some of these functions
by name (``cli`` imports ``check_term``, ``normalize``, ``print_term`` and
``load_program``; ``surface`` imports ``convert``; ``check_dep`` imports
``normalize``; the package re-exports most of them), so every attribute of
every loaded ``seqcore`` module that is bound to a wrapped function is
patched, not just the defining one.

Which spans count toward a layer's time:

* most layers count their outermost span, inclusive of what it calls, so a
  recursive function such as ``well_formed_neg`` is not counted twice;
* ``reduce.normalize_s`` counts only normalizations that are not inside a
  conversion check: a ``normalize`` under ``convert`` is conversion time;
* ``core_text.print_s`` counts only printing called by the CLI itself, not
  the printing a checker does to build a diagnostic;
* ``cli.self_s`` and ``surface.load_self_s`` are the ``entry`` and
  ``load_program`` spans minus their direct child spans.

A tracer made with ``capture=True`` also keeps what an untimed pass needs to
count work: the arguments of each counted ``normalize``, the loaded
programs, the printed text lengths and the number of ``Sig.lookup`` calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable

# (defining module, function, metric its counted spans add to)
LAYER_FUNCTIONS = (
    ("seqcore.cli", "entry", "cli.entry_s"),
    ("seqcore.surface", "load_program", "surface.load_self_s"),
    ("seqcore.surface", "parse", "surface.parse_s"),
    ("seqcore.surface", "polarize", "surface.polarize_s"),
    ("seqcore.syntax", "well_formed_neg", "syntax.well_formed_s"),
    ("seqcore.surface", "compile_clauses", "surface.compile_s"),
    ("seqcore.check", "check_term", "check.check_s"),
    ("seqcore.check_dep", "dep_check_term", "check_dep.check_s"),
    ("seqcore.check_dep", "convert", "check_dep.convert_s"),
    ("seqcore.reduce", "normalize", "reduce.normalize_s"),
    ("seqcore.core_text", "print_term", "core_text.print_s"),
    ("seqcore.core_text", "print_type", "core_text.print_s"),
)

ENTRY = "cli.entry_s"
LOAD = "surface.load_self_s"
CONVERT = "check_dep.convert_s"
NORMALIZE = "reduce.normalize_s"
PRINT = "core_text.print_s"

# Every time metric a traced pass reports, in total and per program size.
TIME_METRICS = ("cli.entry_s", "cli.self_s") + tuple(dict.fromkeys(
    m for _, _, m in LAYER_FUNCTIONS if m != ENTRY))


class Tracer:
    """Records spans while installed.  Spans are ``[metric, parent index,
    start, end, counted]`` in the order they start."""

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.spans: list[list] = []
        self.normalize_calls: list[tuple[tuple, dict, int]] = []
        self.programs: list[Any] = []
        self.printed_bytes = 0
        self.sig_lookups = 0
        self._stack = [-1]
        self._active: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, Callable] = {}

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for modname, attr, metric in LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr)
            wrappers[id(fn)] = (fn, self._wrap(metric, fn))
            self._originals[id(fn)] = fn
            self._active[metric] = 0
        for mod in _seqcore_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        if self.capture:
            from seqcore.syntax import Sig
            lookup = Sig.lookup

            def counting_lookup(sig, name):
                self.sig_lookups += 1
                return lookup(sig, name)

            Sig.lookup = counting_lookup
            self._patched.append((Sig, "lookup", lookup))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def unpatched(self) -> list[str]:
        """``module.attr`` names still bound to an unwrapped layer function."""
        return [f"{mod.__name__}.{attr}" for mod in _seqcore_modules()
                for attr, value in vars(mod).items()
                if self._originals.get(id(value)) is value]

    def _wrap(self, metric: str, fn: Callable) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if metric == NORMALIZE:
                counted = active[CONVERT] == 0
            elif metric == PRINT:
                counted = parent >= 0 and spans[parent][0] == ENTRY
            else:
                counted = active[metric] == 0
            span = [metric, parent, 0.0, 0.0, counted]
            stack.append(len(spans))
            spans.append(span)
            active[metric] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                active[metric] -= 1
            if self.capture and counted:
                self._keep(metric, args, kwargs, result)
            return result

        return traced

    def _keep(self, metric: str, args: tuple, kwargs: dict, result) -> None:
        if metric == NORMALIZE:
            self.normalize_calls.append((args, kwargs, result.steps))
        elif metric == LOAD:
            self.programs.append(result)
        elif metric == PRINT:
            self.printed_bytes += len(result.encode("utf-8"))

    # -- reading -----------------------------------------------------------

    def times(self, first: int, last: int) -> dict[str, float]:
        """Seconds per time metric over spans ``first`` .. ``last - 1``,
        which must be whole CLI calls."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        children = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            metric, parent, start, end, counted = self.spans[i]
            duration = end - start
            if parent >= first:
                children[parent - first] += duration
            if metric == ENTRY:
                out[ENTRY] += duration
                out["cli.self_s"] += duration - children[i - first]
            elif metric == LOAD:
                out[LOAD] += duration - children[i - first]
            elif counted:
                out[metric] += duration
        return out

    def count(self, metric: str) -> int:
        return sum(1 for s in self.spans if s[0] == metric and s[4])


def _seqcore_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "seqcore" or name.startswith("seqcore.")]
