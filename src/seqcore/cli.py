"""Batch driver: check, core, run and trace over ``.seq`` files.

Exit codes: 0 success, 1 type or coverage error, 2 parse error, 3 fuel
exhausted, 4 usage error (argparse's included), an unreadable FILE or a
stdout the reader closed early (with nothing on stderr), 5 internal error.
Diagnostics go to stderr, results to stdout.

``entry`` pauses Python's cyclic collector while ``main`` runs.  Kernel
values are immutable trees built bottom-up, and the kernel's walks free
their recursive closures when they return, so ``main`` leaves no reference
cycles for the collector to find; the tests check this on every example
program.  It also numbers fresh names from 1 in each call, as a new process
does, so a call prints the same ``_#n`` binders whatever ran before it in
the process; the caller's numbering resumes afterwards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import sys

from .check import check_term
from .check_dep import dep_check_term
from .core_text import print_term, print_type
from .diag import Diagnostic, ParseError, Span
from .reduce import DEFAULT_FUEL, FuelExhausted, normalize, trace
from .surface import CompileFail, Program, compile_argument, load_program
from . import syntax
from .syntax import NIL, App, Cons, Imp, Mode, Pi, Term

__all__ = ["main", "entry"]


def _error(diag: Diagnostic, file: str) -> None:
    print(diag.at(Span(file, 0, 0)).render(), file=sys.stderr)


def _load(args: argparse.Namespace, mode: Mode) -> Program:
    try:
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            source = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(Diagnostic(
            "parse", expected="UTF-8 text",
            found=f"byte 0x{e.object[e.start]:02x}", note=e.reason)) from None
    return load_program(source, args.file, mode)


def _check_all(args: argparse.Namespace, mode: Mode, prog: Program) -> int:
    failures = 0
    for d in prog.decls:
        if d.kind != "def":
            continue
        if mode is Mode.DEP:
            diag = dep_check_term(prog.sig, [], d.term, d.type)
        else:
            diag = check_term(prog.sig, [], d.term, d.type,
                              structural=args.structural_patterns)
        if diag is not None:
            _error(diag.at(d.span), args.file)
            failures += 1
    for w in prog.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return failures


def _build_entry_term(args: argparse.Namespace, mode: Mode,
                      prog: Program) -> Term:
    decl = prog.find(args.entry)
    if decl is None or decl.kind == "atom":
        raise CompileFail(Diagnostic("unbound", expected="declared entry",
                                     found=str(args.entry)))
    if args.arg is None:
        return App(decl.name, NIL)
    ty = decl.type
    if not isinstance(ty, (Imp, Pi)):
        raise CompileFail(Diagnostic("arity", expected="function-typed entry",
                                     found=print_type(ty)))
    data = compile_argument(prog.sig, args.arg, ty.arg, mode)
    return App(decl.name, Cons(data, NIL))


def main(args: argparse.Namespace) -> int:
    """Run the command of a parsed command line whose ``fuel`` is resolved
    to a positive count; returns the exit code."""
    mode = Mode.DEP if args.dependent else Mode.PROP
    try:
        prog = _load(args, mode)
    except ParseError as e:
        _error(e.diagnostic, args.file)
        return 2
    except CompileFail as e:
        _error(e.diagnostic, args.file)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4

    if args.command == "check":
        if _check_all(args, mode, prog):
            return 1
        print(f"ok ({len(prog.decls)} declarations)")
        return 0

    if args.command == "core":
        for d in prog.decls:
            if d.kind == "atom":
                print(f"atom {d.name}")
            elif d.kind == "postulate":
                print(f"postulate {d.name} : {print_type(d.type)}")
            else:
                print(f"{d.name} : {print_type(d.type)}")
                print(f"{d.name} = {print_term(d.term)}")
        return 0

    # run or trace
    if args.entry is None:
        print("error: run/trace require --entry", file=sys.stderr)
        return 4
    if _check_all(args, mode, prog):
        return 1
    try:
        t = _build_entry_term(args, mode, prog)
    except (ParseError, CompileFail) as e:
        _error(e.diagnostic, args.file)
        return 2 if isinstance(e, ParseError) else 1
    try:
        if args.command == "trace" or args.trace:
            steps, res = trace(prog.sig, t, args.fuel)
            for i, (rule, term) in enumerate(steps, start=1):
                print(f"{i} {rule} {print_term(term)}")
        else:
            res = normalize(prog.sig, t, args.fuel)
    except FuelExhausted as e:
        print(f"error: fuel exhausted after {e.steps} steps", file=sys.stderr)
        return 3
    if res.stuck is not None:
        print(f"error: stuck: {res.stuck}", file=sys.stderr)
        return 1
    print(print_term(res.term))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line grammar, built on the first ``entry`` call and shared
    by every later one in the process: it depends on no input, and a parser
    refers to itself, so each build would leave cyclic garbage behind."""
    parser = argparse.ArgumentParser(
        prog="seqcore",
        description="Typecheck and run equational programs on a focused "
                    "sequent-calculus kernel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_ in (("check", "typecheck all declarations"),
                       ("core", "print compiled core terms"),
                       ("run", "normalize an entry point"),
                       ("trace", "run and print each reduction step")):
        sp = sub.add_parser(cmd, help=help_)
        sp.add_argument("file")
        sp.add_argument("--entry", help="name of the declaration to run")
        sp.add_argument("--arg", help="surface expression passed as argument")
        sp.add_argument("--dependent", action="store_true",
                        help="use the dependent checker")
        sp.add_argument("--structural-patterns", action="store_true",
                        help="enable contraction and wildcard patterns")
        sp.add_argument("--fuel", type=int, default=None,
                        help=f"reduction step budget (default {DEFAULT_FUEL})")
        sp.add_argument("--trace", action="store_true",
                        help="print each reduction step")
    return parser


def entry(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its usage text; --help still exits 0.
        if e.code == 0:
            raise
        return 4
    if ns.fuel is None:
        try:
            ns.fuel = int(os.environ.get("SEQCORE_FUEL", DEFAULT_FUEL))
        except ValueError:
            ns.fuel = 0
        if ns.fuel <= 0:
            print("error: SEQCORE_FUEL must be a positive integer",
                  file=sys.stderr)
            return 4
    if ns.fuel <= 0:
        print("error: --fuel must be positive", file=sys.stderr)
        return 4
    enabled = gc.isenabled()
    gc.disable()
    counter = syntax._fresh_counter
    syntax._fresh_counter = itertools.count(1)
    try:
        code = main(ns)
        sys.stdout.flush()   # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at
        # interpreter exit cannot fail again (the note on SIGPIPE in the
        # ``signal`` docs), and exit 4 as for an unreadable FILE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    except Exception as e:
        msg = str(e).replace("\n", " ")
        print(f"error: internal error: {type(e).__name__}: {msg}",
              file=sys.stderr)
        return 5
    finally:
        syntax._fresh_counter = counter
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(entry())
