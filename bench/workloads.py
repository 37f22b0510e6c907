"""Workload generators for the seqcore benchmark.

Each workload is a fixed list of ``seqcore`` CLI calls on generated
programs.  Every call carries the result it must produce, built here by
construction and never by running seqcore, except ``core`` on the
product-of-sums program, which has no independent reference and is compared
with a digest recorded at the seed commit.

``wide`` and ``chain`` have no random part.  ``library`` draws its random
definitions from ``random.Random(seed)``, so one seed always gives the same
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("wide", "chain", "library")

WIDE_SIZES = (50, 100, 200)          # K: calls of g in the body of f
CHAIN_SIZES = (400, 800, 1600)       # N: definitions g1 .. gN above g0
LIBRARY_SIZES = (200, 400)           # N: random definitions
# Size labels of the scaled programs, as suffixes of per-size metrics.
SIZE_LABELS = tuple(dict.fromkeys(
    [f"K{k}" for k in WIDE_SIZES]
    + [f"N{n}" for n in sorted(CHAIN_SIZES + LIBRARY_SIZES)]))
DEEP_SUM_DEPTH = 160                 # nesting of a + (a + ...) that checks
DEEP_SUM_PROBE_DEPTH = 600           # nesting that overflows the stack at the seed
PRODUCT_FACTORS = 10                 # (a + a) * ... * (a + a)
# sha256 of `seqcore core` stdout on the product program (273950 bytes),
# recorded at the commit that added this benchmark.
PRODUCT_CORE_SHA256 = (
    "c643b8e51c06a69da6ef40a7e4d59e672ffc931f425895d05b78fbad24c2de6a")

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")


@dataclass(frozen=True)
class Call:
    """One CLI call and the result it must give: exit code 0 and the
    given stdout, or stdout with the given sha256.

    ``size`` labels scaled programs (``K200``, ``N400``) so that layer
    times can be reported per size; fixed programs have none.  A ``probe``
    call exercises a defect known at the seed: it passes only if it exits 0
    with ``ok`` or exits 1 with one-line ``ERROR`` diagnostics and no
    exception, and it is reported apart from the checked calls.
    """

    argv: tuple[str, ...]
    size: Optional[str] = None
    stdout: Optional[str] = None
    sha256: Optional[str] = None
    probe: bool = False


# ---------------------------------------------------------------------------
# wide: f x = p (g x) ... (g x), g x = op x

_ARG_Q = "thunk (q [])"
_OP_Q = f"op ({_ARG_Q} :: [])"


def wide_source(k: int) -> str:
    return "".join([
        "atom a\n",
        "postulate q : a\n",
        "postulate op : a -> a\n",
        "postulate p : " + " -> ".join(["a"] * (k + 1)) + "\n",
        "g : a -> a\n",
        "g x = op x\n",
        "f : a -> a\n",
        "f x = p" + " (g x)" * k + "\n",
    ])


def wide_normal_form(k: int) -> str:
    return "p " + f"(thunk ({_OP_Q}) :: " * k + "[]" + ")" * k


# ---------------------------------------------------------------------------
# chain: g0 x = op x, g_i x = g_{i-1} x

def chain_source(n: int) -> str:
    lines = ["atom a", "postulate q : a", "postulate op : a -> a",
             "g0 : a -> a", "g0 x = op x"]
    for i in range(1, n + 1):
        lines += [f"g{i} : a -> a", f"g{i} x = g{i - 1} x"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# library: random definitions of four shapes over c, op, mix

_SHAPES = ("sum", "pair", "build", "id")
_SURFACE_TYPE = {"sum": "a + a -> a", "pair": "a * a -> a",
                 "build": "a -> a * a", "id": "a -> a"}
_CORE_TYPE = {"sum": "(dn a) + dn a -> a", "pair": "(dn a) * dn a -> a",
              "build": "dn a -> up ((dn a) * dn a)", "id": "dn a -> a"}
_LIBRARY_PRELUDE = ("atom a", "postulate c : a", "postulate op : a -> a",
                    "postulate mix : a -> a -> a")
_CORE_PRELUDE = ("atom a", "postulate c : a", "postulate op : dn a -> a",
                 "postulate mix : dn a -> dn a -> a")
_TREE_DEPTH = 4
_TREE_CALLS = 5

# An expression is a tuple: ("leaf", name), ("op", e), ("mix", e, e), or a
# call of an earlier definition: ("sum", h, "inl"|"inr", e), ("pair", h, e, e),
# ("id", h, e).  Every expression has type a.  Each body has the same number
# of calls, so that libraries drawn from different seeds cost about the same
# to compile and check.


def _tree(rng: random.Random, calls: int, depth: int, names: list[str],
          callees: list[tuple[str, str]]) -> tuple:
    """A random expression with exactly ``calls`` applications and at most
    ``depth`` of them on any path."""
    if calls == 0:
        return ("leaf", rng.choice(names))
    fits = 2 ** (depth - 1) - 1          # most calls a subtree below can hold
    rest = calls - 1
    if rest > fits or (rest > 0 and rng.random() < 0.5):
        left = rng.randint(max(0, rest - fits), min(rest, fits))
        args = [_tree(rng, left, depth - 1, names, callees),
                _tree(rng, rest - left, depth - 1, names, callees)]
        heads = [(h, s) for h, s in callees if s == "pair"]
        builtin = "mix"
    else:
        args = [_tree(rng, rest, depth - 1, names, callees)]
        heads = [(h, s) for h, s in callees if s != "pair"]
        builtin = "op"
    if not heads or rng.random() < 0.5:
        return (builtin, *args)
    h, shape = rng.choice(heads)
    if shape == "sum":
        return ("sum", h, rng.choice(("inl", "inr")), *args)
    return (shape, h, *args)


def _surface(e: tuple) -> str:
    match e:
        case ("leaf", n):
            return n
        case ("op", a):
            return f"op {_surface_arg(a)}"
        case ("mix", a, b):
            return f"mix {_surface_arg(a)} {_surface_arg(b)}"
        case ("sum", h, side, a):
            return f"{h} ({side} {_surface_arg(a)})"
        case ("pair", h, a, b):
            return f"{h} ({_surface(a)}, {_surface(b)})"
        case ("id", h, a):
            return f"{h} {_surface_arg(a)}"
    raise ValueError(e)


def _surface_arg(e: tuple) -> str:
    return e[1] if e[0] == "leaf" else f"({_surface(e)})"


def _core(e: tuple) -> str:
    """The core term the clause compiler emits for ``e`` at goal ``a``."""
    match e:
        case ("leaf", n):
            return f"{n} []"
        case ("op", a):
            return f"op ({_thunk(a)} :: [])"
        case ("mix", a, b):
            return f"mix ({_thunk(a)} :: ({_thunk(b)} :: []))"
        case ("sum", h, side, a):
            return f"{h} ({side} {_thunk(a)} :: [])"
        case ("pair", h, a, b):
            return f"{h} (({_thunk(a)}, {_thunk(b)}) :: [])"
        case ("id", h, a):
            return f"{h} ({_thunk(a)} :: [])"
    raise ValueError(e)


def _thunk(e: tuple) -> str:
    return f"thunk ({_core(e)})"


def library(n: int, seed: int) -> tuple[str, str]:
    """A well-typed library of ``n`` random definitions and the exact
    output of ``seqcore core`` on it."""
    rng = random.Random(f"library-{n}-{seed}")
    src = list(_LIBRARY_PRELUDE)
    core = list(_CORE_PRELUDE)
    shapes = list(_SHAPES) * (n // len(_SHAPES))
    shapes += rng.sample(_SHAPES, n - len(shapes))
    rng.shuffle(shapes)
    callees: list[tuple[str, str]] = []
    for i, shape in enumerate(shapes):
        h = f"h{i}"

        def body(names: list[str]) -> tuple:
            return _tree(rng, _TREE_CALLS, _TREE_DEPTH, names + ["c"], callees)

        src.append(f"{h} : {_SURFACE_TYPE[shape]}")
        core.append(f"{h} : {_CORE_TYPE[shape]}")
        if shape == "sum":
            left, right = body(["x"]), body(["y"])
            src += [f"{h} (inl x) = {_surface(left)}",
                    f"{h} (inr y) = {_surface(right)}"]
            core.append(f"{h} = \\[x|y]_w. split w {{ inl -> {_core(left)}"
                        f" ; inr -> {_core(right)} }}")
        elif shape == "pair":
            e = body(["x", "y"])
            src.append(f"{h} (x, y) = {_surface(e)}")
            core.append(f"{h} = \\(x, y). {_core(e)}")
        elif shape == "build":
            left, right = body(["x"]), body(["x"])
            src.append(f"{h} x = ({_surface(left)}, {_surface(right)})")
            core.append(f"{h} = \\x. done ({_thunk(left)}, {_thunk(right)})")
        else:
            e = body(["x"])
            src.append(f"{h} x = {_surface(e)}")
            core.append(f"{h} = \\x. {_core(e)}")
        if shape != "build":
            callees.append((h, shape))
    return "\n".join(src) + "\n", "\n".join(core) + "\n"


# ---------------------------------------------------------------------------
# Fixed library programs: a deep nested sum and a product of sums

def deep_sum_source(depth: int) -> str:
    ty = "a"
    for _ in range(depth):
        ty = f"a + ({ty})"
    return f"atom a\nf : {ty} -> {ty}\nf v = v\n"


def product_source(factors: int) -> str:
    ty = " * ".join(["(a + a)"] * factors)
    return f"atom a\nid : {ty} -> {ty}\nid v = v\n"


# ---------------------------------------------------------------------------
# Call lists

def build(workload: str, seed: int, workdir: Path,
          smallest: bool = False) -> list[Call]:
    """Write the workload's programs under ``workdir`` and return its calls.
    ``smallest`` keeps only the smallest size of each scaled program."""
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    calls: list[Call] = []
    if workload == "wide":
        for k in WIDE_SIZES[:1] if smallest else WIDE_SIZES:
            f = put(f"wide-K{k}.seq", wide_source(k))
            calls.append(Call(("run", f, "--entry", "f", "--arg", "q"),
                              f"K{k}", stdout=wide_normal_form(k) + "\n"))
    elif workload == "chain":
        for n in CHAIN_SIZES[:1] if smallest else CHAIN_SIZES:
            f = put(f"chain-N{n}.seq", chain_source(n))
            calls.append(Call(("run", f, "--entry", f"g{n}", "--arg", "q"),
                              f"N{n}", stdout=_OP_Q + "\n"))
    elif workload == "library":
        for n in LIBRARY_SIZES[:1] if smallest else LIBRARY_SIZES:
            src, core = library(n, seed)
            f = put(f"library-N{n}-seed{seed}.seq", src)
            ok = f"ok ({n + len(_LIBRARY_PRELUDE)} declarations)\n"
            calls += [Call(("check", f), f"N{n}", stdout=ok),
                      Call(("check", "--dependent", f), f"N{n}", stdout=ok),
                      Call(("core", f), f"N{n}", stdout=core)]
        if not smallest:
            f = put(f"deep-sum-{DEEP_SUM_DEPTH}.seq",
                    deep_sum_source(DEEP_SUM_DEPTH))
            calls.append(Call(("check", f), stdout="ok (2 declarations)\n"))
            f = put(f"product-{PRODUCT_FACTORS}.seq",
                    product_source(PRODUCT_FACTORS))
            calls.append(Call(("core", f), sha256=PRODUCT_CORE_SHA256))
            f = put(f"deep-sum-{DEEP_SUM_PROBE_DEPTH}.seq",
                    deep_sum_source(DEEP_SUM_PROBE_DEPTH))
            calls.append(Call(("check", f), probe=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def expected_counts(workload: str, calls: list[Call]) -> dict[str, int]:
    """Counts that a traced pass over ``calls`` must report, known from how
    the programs are built: each entry unfolding or call of g/g_i takes
    exactly R7 (delta), R1, R6, R4 once."""
    counts = {"reduce.steps": 0, "check.calls": 0}
    counts.update({f"reduce.rule.{r}": 0 for r in RULES})
    for call in calls:
        if call.probe:
            continue
        size = int(call.size[1:]) if call.size else 0
        if workload in ("wide", "chain"):
            counts["reduce.steps"] += 4 * (size + 1)
            for r in ("R1", "R4", "R6", "R7"):
                counts[f"reduce.rule.{r}"] += size + 1
            counts["check.calls"] += 2 if workload == "wide" else size + 1
        elif call.argv[0] == "check" and "--dependent" not in call.argv:
            counts["check.calls"] += size or 1   # the deep sum has one
    return counts
