"""Line reach of the tier-1 suite over ``src/seqcore``.

Runs the whole test suite in process under a ``sys.settrace`` line
collector, then compares the executable lines of ``src/seqcore`` that no
test ran with the list ``LISTED`` below.  Each entry of the list names one
line by module, enclosing function (its ``co_qualname``) and stripped text,
so that moving a line does not stale its entry, and says why no tier-1 test
runs it.  The script exits 1 when an unreached line is not listed, when a
listed line is reached, or when the suite fails::

    python tests/line_reach.py

It takes about 3.5 minutes on a 2-vCPU machine (CPython 3.11), so it is
not a tier-1 test.

The collector is armed before ``seqcore`` is imported, so module bodies
count, and again before each test's setup, call and teardown: a
``RecursionError`` raised inside the trace function (the depth tests raise
them on purpose) switches tracing off for the rest of the process.
Hypothesis runs at a fixed seed, so two runs reach the same lines.  Lines
run only in a subprocess (``python -m seqcore.cli``) are not seen.
"""

from __future__ import annotations

import collections
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqcore"

_GUARD = "exhaustiveness guard: every class of the sort has a case above"

# (module, qualname, stripped line text, reason).  Only exhaustiveness guards
# and lines that only a subprocess runs belong here; any other unreached
# line wants a test, or deleting.
LISTED: list[tuple[str, str, str, str]] = [
    ("check", "_invert_one", "raise TypeError(p)", _GUARD),
    ("check", "_check", "raise TypeError(t)", _GUARD),
    ("check", "_reducts", "raise TypeError(f)", _GUARD),
    ("check", "_bind_cut", "raise TypeError(p)", _GUARD),
    ("check", "_check_spine", "raise TypeError(k)", _GUARD),
    ("check", "_infer_term", "raise TypeError(t)", _GUARD),
    ("check", "_infer_data", "raise TypeError(d)", _GUARD),
    ("check_dep", "_State.extend", "raise TypeError(ty)", _GUARD),
    ("check_dep", "_check", "raise TypeError(t)", _GUARD),
    ("check_dep", "_check_data", "raise TypeError(d)", _GUARD),
    ("check_dep", "_check_spine", "raise TypeError(k)", _GUARD),
    ("check_dep", "_infer_term", "raise TypeError(t)", _GUARD),
    ("check_dep", "_infer_data", "raise TypeError(d)", _GUARD),
    ("core_text", "_Printer.pattern", "raise TypeError(p)", _GUARD),
    ("core_text", "_Printer.term", "raise TypeError(t)", _GUARD),
    ("core_text", "_Printer.data", "raise TypeError(d)", _GUARD),
    ("core_text", "_Printer.spine", "raise TypeError(k)", _GUARD),
    ("core_text", "_type", "raise TypeError(ty)", _GUARD),
    ("syntax", "well_formed_neg", "raise TypeError(ty)", _GUARD),
    ("syntax", "well_formed_pos", "raise TypeError(ty)", _GUARD),
    ("syntax", "spine_concat", "raise TypeError(front)", _GUARD),
    ("surface", "_neg_of", "raise TypeError(ty)", _GUARD),
    ("surface", "_Emitter._recon", "raise TypeError(ty)", _GUARD),
    ("surface", "_Emitter.emit", "raise AssertionError(tree)",
     "exhaustiveness guard: a case tree is a leaf, a split or a pair node"),
    ("cli", "<module>", "sys.exit(entry())",
     "runs only under python -m seqcore.cli, which the CLI tests start in "
     "a subprocess"),
]


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of ``path`` that has bytecode, mapped to the qualname of
    the innermost code object that holds it."""
    owner: dict[int, tuple[int, str]] = {}

    def walk(code, depth):
        for _, _, line in code.co_lines():
            if line is not None and owner.get(line, (-1,))[0] < depth:
                owner[line] = (depth, code.co_qualname)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, depth + 1)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), 0)
    return {line: qualname for line, (_, qualname) in owner.items()}


class _Lines(set):
    """The lines run in one file, and the local trace function that adds
    to them.  An object, not a closure: a closure that returns itself is a
    reference cycle, and the tests count cyclic garbage."""

    __slots__ = ()

    def __call__(self, frame, event, arg):
        self.add(frame.f_lineno)
        return self


class Collector:
    """A line tracer that records the lines run in each file under ``SRC``,
    and a pytest plugin that arms it before each phase of each test."""

    def __init__(self):
        self.hits: dict[str, _Lines] = {}
        self._wanted: dict[str, _Lines | None] = {}

    def arm(self):
        sys.settrace(self._call)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._wanted.get(name, False)
        if lines is False:
            real = os.path.realpath(name)
            lines = self._wanted[name] = (
                self.hits.setdefault(real, _Lines())
                if Path(real).parent == SRC else None)
        return None if lines is None else lines(frame, event, arg)

    # pytest hooks
    def pytest_runtest_setup(self, item):
        self.arm()

    def pytest_runtest_call(self, item):
        self.arm()

    def pytest_runtest_teardown(self, item):
        self.arm()


def unreached(hits: dict[str, _Lines]) -> collections.Counter:
    """The unreached lines, keyed as ``LISTED`` keys them, with a count."""
    found: collections.Counter = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        seen = hits.get(str(path), ())
        for line, qualname in sorted(executable_lines(path).items()):
            if line not in seen:
                key = (path.stem, qualname, text[line - 1].strip())
                found[key] += 1
                print(f"  unreached {path.name}:{line}  {qualname}: "
                      f"{key[2]}")
    return found


def main() -> int:
    collector = Collector()
    os.chdir(ROOT)
    collector.arm()
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        "--hypothesis-seed=0", "tests"],
                       plugins=[collector])
    sys.settrace(None)
    total = sum(len(executable_lines(p)) for p in SRC.glob("*.py"))
    print(f"line reach over src/seqcore ({total} executable lines):")
    found = unreached(collector.hits)
    listed = collections.Counter(entry[:3] for entry in LISTED)
    new = found - listed
    stale = listed - found
    for key in sorted(new):
        print(f"NOT LISTED: {key}")
    for key in sorted(stale):
        print(f"LISTED BUT REACHED: {key}")
    print(f"{sum(found.values())} unreached, {sum(listed.values())} listed, "
          f"{sum(new.values())} not listed, {sum(stale.values())} stale; "
          f"pytest exit {int(code)}")
    return 1 if new or stale or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
