"""CLI: commands, exit codes, output formats."""

import argparse
import gc
import os
import pathlib
import subprocess
import sys

import pytest

from core_reader import parse_term
from suite import SUITE, clause_set_variants, cyclic_garbage
from seqcore.cli import entry, main
from seqcore.syntax import Mode

PROGRAMS = pathlib.Path(__file__).parent / "programs"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def deep_sum(tmp_path, depth: int = 600) -> str:
    """A program whose type nests ``a + (a + ...)`` ``depth`` levels deep."""
    ty = "a"
    for _ in range(depth):
        ty = f"a + ({ty})"
    deep = tmp_path / "deep.seq"
    deep.write_text(f"atom a\nf : {ty} -> {ty}\nf v = v\n")
    return str(deep)


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    ``fd`` is the descriptor ``entry`` points at devnull."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestCheck:
    def test_ok_three_declarations(self, capsys):
        code, out, err = run(capsys, "check", str(PROGRAMS / "f.seq"))
        assert code == 0
        assert out.strip() == "ok (3 declarations)"

    def test_type_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.seq"
        bad.write_text("atom a\npostulate c : a\n"
                       "g : a -> a\ng x = c c\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "ERROR" in err

    def test_coverage_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.seq"
        bad.write_text("atom a\ng : a + a -> a\ng (inl x) = x\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "coverage" in err and "inr _" in err

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.seq"
        bad.write_text("atom a\ng : ->\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "ERROR parse" in err

    @pytest.mark.parametrize("data, found", [
        (b"\xff\xfeatom a\n", "byte 0xff (invalid start byte)"),
        (b"atom a\npostulate c : a\xe2\x82\n",
         "byte 0xe2 (invalid continuation byte)"),
    ], ids=["utf16-bom", "truncated-sequence"])
    def test_non_utf8_source_exit_two(self, capsys, tmp_path, data, found):
        bad = tmp_path / "bad.seq"
        bad.write_bytes(data)
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert err == (f"ERROR parse at {bad}:0:0: expected UTF-8 text, "
                       f"found {found}\n")

    @pytest.mark.parametrize("argv, text", [
        (["check"], (PROGRAMS / "f.seq").read_text("utf-8")),
        (["check"], "atom a\npostulate c : a\ng : a -> a\ng x = c c\n"),
        (["check"], "atom a\ng : ->\n"),
        (["core"], (PROGRAMS / "sums.seq").read_text("utf-8")),
    ], ids=["ok", "type-error", "parse-error", "core"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, argv, text):
        # A UTF-8 byte-order mark at the start of the file changes nothing:
        # not the output, not the exit code, not an error's position.
        path = tmp_path / "p.seq"
        path.write_bytes(text.encode("utf-8"))
        plain = run(capsys, argv[0], str(path), *argv[1:])
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert run(capsys, argv[0], str(path), *argv[1:]) == plain

    @pytest.mark.parametrize("data, at", [
        (b"atom a\n\xef\xbb\xbfpostulate c : a\n", "2:1"),
        (b"atom a\npostulate c :\xef\xbb\xbf a\n", "2:14"),
        (b"\xef\xbb\xbf\xef\xbb\xbfatom a\n", "1:1"),
    ], ids=["line-start", "mid-line", "second-mark"])
    def test_byte_order_mark_elsewhere_is_a_parse_error(self, capsys, tmp_path,
                                                        data, at):
        path = tmp_path / "p.seq"
        path.write_bytes(data)
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR parse at {path}:{at}: expected token, "
                       "found '\\ufeff'\n")

    def test_structural_flag(self, capsys):
        path = str(PROGRAMS / "wild.seq")
        code, _, err = run(capsys, "check", path)
        assert code == 1 and "structural-disabled" in err
        code, out, _ = run(capsys, "check", path, "--structural-patterns")
        assert code == 0

    def test_dependent_flag(self, capsys):
        path = str(PROGRAMS / "swap_dep.seq")
        code, out, _ = run(capsys, "check", path, "--dependent")
        assert code == 0
        assert "declarations" in out

    @pytest.mark.parametrize("flags", [[], ["--structural-patterns"]],
                             ids=["plain", "structural"])
    @pytest.mark.parametrize("decl, error", [
        ("g : (a + a) * a -> a\ng (_, y) = y\n", "4:4"),
        ("g : a + a -> a\ng _ = c\n", "4:3"),
        ("g : a -> a -> a\ng x _ = x\n", None),
    ], ids=["under-pair-at-sum", "at-sum", "at-thunk"])
    def test_dependent_wildcard(self, capsys, tmp_path, decl, error, flags):
        # A dependent scrutinee needs a variable binder; a thunk does not.
        # The error points at the wildcard.
        path = tmp_path / "w.seq"
        path.write_text("atom a\npostulate c : a\n" + decl)
        got = run(capsys, "check", str(path), "--dependent", *flags)
        if error:
            assert got == (1, "", f"ERROR dep-pattern at {path}:{error}: "
                                  "expected variable binder, found wildcard "
                                  "pattern _\n")
        else:
            assert got == (0, "ok (3 declarations)\n", "")

    def test_dependent_as_pattern_points_at_the_extra_name(self, capsys,
                                                           tmp_path):
        # The as-pattern is in the second clause; its second name z would
        # need a second kernel variable for one scrutinee.
        path = tmp_path / "s.seq"
        path.write_text("atom a\npostulate c : a\ng : a + a -> a -> a\n"
                        "g (inl x) y = y\ng (inr x) y@z = z\n")
        assert run(capsys, "check", str(path), "--dependent") == (
            1, "", f"ERROR dep-pattern at {path}:5:13: expected variable "
                   "binder, found as-pattern\n")
        assert run(capsys, "check", str(path), "--structural-patterns") == (
            0, "ok (3 declarations)\n", "")


FLAG_SETS = ([], ["--dependent"], ["--structural-patterns"],
             ["--dependent", "--structural-patterns"])

# An as-name over a product or sum with a component every clause matches
# with _.
AS_OVER_WILD = {
    "pair-of-wilds": "g : a * a -> a\nf : a * a -> a\nf p@(_, _) = g p\n",
    "wild-product": ("g : (a * a) * a -> a\nf : (a * a) * a -> a\n"
                     "f p@(_, y) = g p\n"),
    "injection-of-wild": ("g : a + a -> a\nf : a + a -> a\n"
                          "f p@(inl _) = g p\nf (inr x) = x\n"),
}


class TestAsOverWildcards:
    """The name is rebuilt with a variable bound at each thunk position
    under it that no clause binds; a sum under it must still be split."""

    @staticmethod
    def program(tmp_path, decls: str) -> str:
        path = tmp_path / "p.seq"
        path.write_text("atom a\npostulate q : a\npostulate r : a\n"
                        "postulate " + decls)
        return str(path)

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=" ".join)
    @pytest.mark.parametrize("cmd", [["check"], ["core"],
                                     ["run", "--entry", "f"]], ids=" ".join)
    @pytest.mark.parametrize("decls", AS_OVER_WILD.values(),
                             ids=AS_OVER_WILD.keys())
    def test_no_internal_error(self, capsys, tmp_path, decls, cmd, flags):
        code, _, err = run(capsys, cmd[0], self.program(tmp_path, decls),
                           *cmd[1:], *flags)
        assert "internal error" not in err
        assert code == 0 or (code == 1 and err.startswith("ERROR "))

    @pytest.mark.parametrize("flags", [[], ["--structural-patterns"]],
                             ids=["plain", "structural"])
    @pytest.mark.parametrize("decls, arg, out", [
        (AS_OVER_WILD["pair-of-wilds"], "(q, r)",
         "g ((thunk (q []), thunk (r [])) :: [])\n"),
        (AS_OVER_WILD["wild-product"], "((q, r), q)",
         "g (((thunk (q []), thunk (r [])), thunk (q [])) :: [])\n"),
        (AS_OVER_WILD["injection-of-wild"], "inl q",
         "g (inl thunk (q []) :: [])\n"),
    ], ids=AS_OVER_WILD.keys())
    def test_rebuilds_the_argument(self, capsys, tmp_path, decls, arg, out,
                                   flags):
        path = self.program(tmp_path, decls)
        assert run(capsys, "check", path, *flags) == (
            0, "ok (5 declarations)\n", "")
        assert run(capsys, "run", path, "--entry", "f", "--arg", arg,
                   *flags) == (0, out, "")

    def test_unused_name_binds_nothing(self, capsys, tmp_path):
        path = self.program(tmp_path, "g : a -> a\nf : a * a -> a\n"
                                      "f p@(_, y) = g y\n")
        code, _, err = run(capsys, "check", path)
        assert code == 1 and "structural-disabled" in err
        assert run(capsys, "core", path, "--structural-patterns")[1].endswith(
            "f = \\(_, y). g (thunk (y []) :: [])\n")

    @pytest.mark.parametrize("name", ["pair-of-wilds", "injection-of-wild"])
    def test_dependent_mode_names_every_component(self, capsys, tmp_path,
                                                  name):
        path = self.program(tmp_path, AS_OVER_WILD[name])
        assert run(capsys, "check", path, "--dependent") == (
            0, "ok (5 declarations)\n", "")

    def test_dependent_wildcard_product(self, capsys, tmp_path):
        nested = self.program(tmp_path, AS_OVER_WILD["wild-product"])
        assert run(capsys, "check", nested, "--dependent") == (
            1, "", f"ERROR dep-pattern at {nested}:6:6: expected variable "
                   "binder, found wildcard pattern _\n")

    @pytest.mark.parametrize("flags, want", [
        ([], "ERROR pattern at {}:5:1: expected resolved sum position, "
             "found unresolved or-position\n"),
        (["--dependent"], "ERROR dep-pattern at {}:6:6: expected variable "
                          "binder, found wildcard pattern _\n"),
    ], ids=["plain", "dependent"])
    def test_sum_component_is_not_split(self, capsys, tmp_path, flags, want):
        path = self.program(tmp_path, "g : (a + a) * a -> a\n"
                                      "f : (a + a) * a -> a\nf p@(_, y) = g p\n")
        for cmd in ("check", "core"):
            assert run(capsys, cmd, path, *flags) == (1, "", want.format(path))


class TestExamples:
    @pytest.mark.parametrize("name, mode, structural", SUITE,
                             ids=[name for name, _, _ in SUITE])
    def test_check_and_core_with_own_flags(self, capsys, name, mode,
                                           structural):
        flags = ((["--dependent"] if mode is Mode.DEP else [])
                 + (["--structural-patterns"] if structural else []))
        for cmd in ("check", "core"):
            code, _, err = run(capsys, cmd, str(PROGRAMS / name), *flags)
            assert code == 0, (cmd, err)


class TestRun:
    def test_inr_clause(self, capsys):
        code, out, _ = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q")
        assert code == 0
        assert out.strip() == "q []"

    def test_inl_clause_stuck_on_postulate(self, capsys):
        code, out, _ = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inl (q, r)")
        assert code == 0
        assert out.strip() == "add (thunk (q []) :: (thunk (r []) :: []))"

    def test_stuck_term_exits_one(self, capsys, monkeypatch):
        # A checked program never gets stuck, so the loader is patched to
        # hand main an unchecked one: the postulate f (left unchecked, as
        # postulates are) unfolds to a function applied to a projection.
        from seqcore import cli
        from seqcore.surface import CompiledDecl, Program, _Source
        from seqcore.syntax import (App, AppCut, Atom, Lam, Name, Nil, Proj1,
                                    Sig, SigEntry, Var)
        f, x, a = Name("f"), Name("x"), Atom(Name("a"))
        stuck = AppCut(Lam(Var(x), App(x, Nil())), Proj1(Nil()))
        prog = Program(Sig(frozenset({a.name}), (SigEntry(f, a, stuck),)),
                       (CompiledDecl("postulate", f, 0, _Source("", "p.seq"),
                                     a),))
        monkeypatch.setattr(cli, "_load", lambda args, mode: prog)
        code, out, err = run(capsys, "run", "p.seq", "--entry", "f")
        assert (code, out, err) == (
            1, "", "error: stuck: function applied to projection spine\n")

    def test_fuel_exhaustion_exit_three(self, capsys):
        code, _, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q", "--fuel", "1")
        assert code == 3
        assert "fuel" in err

    def test_env_var_fuel(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQCORE_FUEL", "1")
        code, _, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q")
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-3"])
    def test_env_var_fuel_not_positive_integer(self, capsys, monkeypatch,
                                               value):
        monkeypatch.setenv("SEQCORE_FUEL", value)
        code, out, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                             "--entry", "f", "--arg", "inr q")
        assert code == 4
        assert out == ""
        assert err == "error: SEQCORE_FUEL must be a positive integer\n"

    def test_fuel_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQCORE_FUEL", "abc")
        code, out, _ = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q", "--fuel", "100")
        assert code == 0
        assert out.strip() == "q []"

    def test_missing_entry_usage_error(self, capsys):
        code, _, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"))
        assert code == 4

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "nope")
        assert code == 1

    def test_fuel_flag_not_positive(self, capsys):
        code, out, err = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                             "--entry", "f", "--arg", "inr q", "--fuel", "0")
        assert code == 4
        assert out == ""
        assert err == "error: --fuel must be positive\n"

    def test_structural_program_fails_its_check_before_running(self, capsys):
        code, out, err = run(capsys, "run", str(PROGRAMS / "wild.seq"),
                             "--entry", "ignore")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("ERROR structural-disabled at ")
                   for line in lines)

    def test_argument_to_a_postulate(self, capsys):
        path = str(PROGRAMS / "basics.seq")
        code, out, err = run(capsys, "run", path, "--entry", "c", "--arg", "q")
        assert code == 1
        assert out == ""
        assert err == (f"ERROR arity at {path}:0:0: expected function-typed "
                       "entry, found a\n")

    @pytest.mark.parametrize("arg, want", [
        ("inr q\n", (0, "q []\n", "")),
        ("inr q\nzzz ( (", (2, "", "ERROR parse at <arg>:2:1: expected end "
                                   "of argument, found zzz\n")),
        ("inr\nq", (2, "", "ERROR parse at <arg>:1:4: expected expression, "
                          "found end of line\n")),
        ("", (2, "", "ERROR parse at <arg>:1:1: expected expression, "
                     "found end of input\n")),
    ], ids=["trailing-newline", "text-after-newline", "newline-in-expression",
            "empty"])
    def test_argument_runs_to_the_end_of_its_text(self, capsys, arg, want):
        assert run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                   "--entry", "f", "--arg", arg) == want

    def test_entry_without_argument(self, capsys):
        code, out, err = run(capsys, "run", str(PROGRAMS / "basics.seq"),
                             "--entry", "id")
        assert code == 0
        assert out == "\\x. x []\n"
        assert err == ""


class TestTrace:
    def test_trace_lines(self, capsys):
        code, out, _ = run(capsys, "trace", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "q []"
        steps = lines[:-1]
        assert all(line.split()[0] == str(i + 1)
                   for i, line in enumerate(steps))
        rules = [line.split()[1] for line in steps]
        assert "R1" in rules and rules[0] == "R7"

    @pytest.mark.parametrize("arg, golden", [
        ("inr q", "f_run-inr-q.trace"),
        ("inl (q, r)", "f_run-inl-q-r.trace"),
    ], ids=["inr", "inl"])
    def test_golden_trace(self, capsys, arg, golden):
        # The whole trace, every step printed, byte for byte.
        code, out, err = run(capsys, "trace", str(PROGRAMS / "f_run.seq"),
                             "--entry", "f", "--arg", arg)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_run_dash_dash_trace(self, capsys):
        code, out, _ = run(capsys, "run", str(PROGRAMS / "f_run.seq"),
                           "--entry", "f", "--arg", "inr q", "--trace")
        assert code == 0
        assert len(out.strip().splitlines()) > 1


class TestWarnings:
    """A clause no input reaches and clauses that overlap are warnings: the
    commands that check print them on stderr and still exit 0; ``core``
    prints none."""

    PROGRAM = ("atom a\npostulate q : a\nf : a + a -> a\n"
               "f x = q\nf (inl y) = y\n")
    WARNINGS = ["warning: clause 2 of f is never used",
                "warning: clauses of f overlap; first match wins"]

    @pytest.mark.parametrize("argv, out", [
        (["check"], "ok (3 declarations)\n"),
        (["run", "--entry", "f", "--arg", "inl q"], "q []\n"),
        (["trace", "--entry", "f", "--arg", "inr q"], None),
    ], ids=["check", "run", "trace"])
    def test_printed_on_stderr_exit_zero(self, capsys, tmp_path, argv, out):
        prog = tmp_path / "warn.seq"
        prog.write_text(self.PROGRAM)
        code, got, err = run(capsys, argv[0], str(prog), *argv[1:])
        assert code == 0
        assert err.splitlines() == self.WARNINGS
        if out is not None:
            assert got == out
        else:
            assert got.splitlines()[-1] == "q []"

    def test_core_prints_none(self, capsys, tmp_path):
        prog = tmp_path / "warn.seq"
        prog.write_text(self.PROGRAM)
        code, out, err = run(capsys, "core", str(prog))
        assert (code, err) == (0, "")
        assert "f = \\" in out


class TestCore:
    def test_core_output_reparses(self, capsys):
        code, out, _ = run(capsys, "core", str(PROGRAMS / "basics.seq"))
        assert code == 0
        for line in out.splitlines():
            if " = " in line:
                _, term_text = line.split(" = ", 1)
                parse_term(term_text)

    def test_core_lists_every_declaration(self, capsys):
        code, out, _ = run(capsys, "core", str(PROGRAMS / "f.seq"))
        assert code == 0
        assert out.startswith("atom ℕ")
        assert "postulate add :" in out
        assert "f = \\" in out


class TestIgnoredOptions:
    """Every command accepts all six options; one that does not act on the
    command leaves its exit code, stdout and stderr byte for byte as they
    are without it."""

    @pytest.mark.parametrize("mode", [[], ["--dependent"]],
                             ids=["plain", "dependent"])
    @pytest.mark.parametrize("argv, ignored", [
        (["check"], ["--entry", "f", "--arg", "inr q", "--trace"]),
        (["core"], ["--structural-patterns", "--fuel", "1", "--entry", "f",
                    "--arg", "inr q", "--trace"]),
        (["trace", "--entry", "f", "--arg", "inr q"], ["--trace"]),
    ], ids=["check", "core", "trace"])
    def test_output_unchanged(self, capsys, argv, ignored, mode):
        argv = [argv[0], str(PROGRAMS / "f_run.seq"), *argv[1:], *mode]
        without = run(capsys, *argv)
        assert without[0] == 0
        assert run(capsys, *argv, *ignored) == without


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["compile", "x.seq"], "argument command: invalid choice: 'compile'"),
        (["check"], "the following arguments are required: file"),
        (["check", "--fuel", "abc", "x.seq"],
         "argument --fuel: invalid int value: 'abc'"),
    ], ids=["no-command", "unknown-command", "missing-file", "fuel-not-int"])
    def test_argparse_error_exit_four(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("usage: seqcore")
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            entry(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: seqcore")


class TestSharedParser:
    """``entry`` builds its one argparse parser on the first call and every
    later call in the process reuses it."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys,
                                                        monkeypatch):
        # Once the first call has built the parser, no call builds one.
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        usage = ["compile", "x.seq"]
        calls = [usage, ["--help"], ["check", str(PROGRAMS / "basics.seq")],
                 ["core", str(PROGRAMS / "swap_dep.seq"), "--dependent"],
                 usage]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        builds = []
        for argv in calls:
            before = len(built)
            try:
                code = entry(argv)
            except SystemExit as e:
                code = e.code
            builds.append(len(built) - before)
            got = (code, *capsys.readouterr())
            proc = subprocess.run([sys.executable, "-m", "seqcore.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert builds[1:] == [0, 0, 0, 0]


class TestInternalErrors:
    def test_deep_sum_is_one_line_and_exit_five(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", deep_sum(tmp_path))
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: internal error: RecursionError: ")

    def test_deep_sum_stops_in_the_parser(self, capsys, monkeypatch,
                                          tmp_path):
        # Input too deep for the recursive type parser must fail there:
        # past it, compiling and checking the depth-600 sum runs for close
        # to a second before it overflows.  The nesting bound ROADMAP.md
        # plans at the front door replaces this test.
        from seqcore import surface
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = surface.compile_clauses
        monkeypatch.setattr(surface, "compile_clauses", counted)
        code, _, _ = run(capsys, "check", deep_sum(tmp_path))
        assert (code, calls) == (5, [])
        run(capsys, "check", str(PROGRAMS / "basics.seq"))
        assert calls

    @pytest.mark.parametrize("flags", [["check"], ["check", "--dependent"],
                                       ["core"]])
    def test_depth_320_in_a_fresh_process(self, tmp_path, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "seqcore.cli", *flags,
             deep_sum(tmp_path, 320)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_raising_loader_exit_five(self, capsys, monkeypatch):
        import seqcore.cli

        def boom(*args, **kwargs):
            raise RuntimeError("loader broke\nhere")

        monkeypatch.setattr(seqcore.cli, "load_program", boom)
        code, out, err = run(capsys, "check", str(PROGRAMS / "basics.seq"))
        assert code == 5
        assert out == ""
        assert err == "error: internal error: RuntimeError: loader broke here\n"


class TestClosedStdout:
    """A reader that closes stdout early (``seqcore core f.seq | head``)
    gets exit 4 and no stderr line, as for any other unwritable file."""

    def test_in_process(self, capsys, monkeypatch):
        r, w = os.pipe()
        monkeypatch.setattr(sys, "stdout", ClosedStdout(w))
        try:
            code = entry(["core", str(PROGRAMS / "basics.seq")])
            # The descriptor now points at devnull, so the flush at exit
            # cannot fail again.
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            os.close(r)
            os.close(w)
        assert code == 4
        assert capsys.readouterr().err == ""

    def test_fresh_process_closed_early(self, tmp_path):
        # 10 factors print about 274 KB, more than a pipe buffer holds.
        ty = " * ".join(["(a + a)"] * 10)
        prog = tmp_path / "prod10.seq"
        prog.write_text(f"atom a\nid : {ty} -> {ty}\nid v = v\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqcore.cli", "core", str(prog)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 4
        assert head == b"atom a\nid "
        assert err == b""


class TestFreshProcess:
    """The CLI as a user starts it: a new interpreter for every call."""

    ENV = dict(os.environ, PYTHONPATH=str(SRC))

    def test_same_result_as_in_process(self, capsys):
        argv = ["check", str(PROGRAMS / "basics.seq")]
        proc = subprocess.run([sys.executable, "-m", "seqcore.cli", *argv],
                              env=self.ENV, capture_output=True, text=True,
                              timeout=60)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert code == 0 and out == "ok (8 declarations)\n"

    def test_fresh_names_do_not_depend_on_earlier_calls(self, capsys):
        # Dependent mode names each binder with a fresh tag; every call
        # numbers from 1, as a new process does, and the caller's numbering
        # resumes afterwards.
        from seqcore.syntax import fresh
        argv = ["core", str(PROGRAMS / "swap_dep.seq"), "--dependent"]
        before = fresh("x").tag
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert fresh("x").tag == before + 1
        proc = subprocess.run([sys.executable, "-m", "seqcore.cli", *argv],
                              env=self.ENV, capture_output=True, text=True,
                              timeout=60)
        assert first == second == (proc.returncode, proc.stdout, proc.stderr)
        assert first[0] == 0 and "Pi (_#1 : dn a)" in first[1]

    def test_import_leaves_heavy_stdlib_modules_out(self):
        code = ("import sys; before = set(sys.modules); import seqcore.cli; "
                "print(sorted({'dataclasses', 'inspect'} & "
                "(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], env=self.ENV,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout == "[]\n"


class TestCollectorPause:
    """``entry`` runs ``main`` with the cyclic collector paused.  So ``main``
    must leave no reference cycles behind, and ``entry`` must hand back the
    collector state it found on every exit."""

    FLAGS = ((), ("--dependent",), ("--structural-patterns",))

    def sweep(self, tmp_path):
        """``check`` and ``core`` in each flag set on every example program
        and every variant of it with one clause dropped, and ``run`` and
        ``trace`` of the worked example on both injections."""
        for n, (label, lines) in enumerate(clause_set_variants()):
            if " ^" in label or label.count(" -") > 1:
                continue
            path = tmp_path / f"v{n}.seq"
            path.write_text("\n".join(lines), encoding="utf-8")
            for cmd in ("check", "core"):
                for flags in self.FLAGS:
                    yield [cmd, str(path), *flags]
        for arg in ("inr q", "inl (q, r)"):
            for cmd in ("run", "trace"):
                for flags in self.FLAGS:
                    yield [cmd, str(PROGRAMS / "f_run.seq"), "--entry", "f",
                           "--arg", arg, *flags]

    def test_main_leaves_no_cyclic_garbage(self, capsys, monkeypatch,
                                           tmp_path):
        import seqcore.cli
        parsed = []
        monkeypatch.setattr(seqcore.cli, "main", parsed.append)
        calls = []
        for argv in self.sweep(tmp_path):
            entry(argv)
            calls.append((argv, parsed.pop()))
        capsys.readouterr()
        # Freeze what exists now: each collection below then scans only
        # what main allocates, and stays cheap.
        gc.collect()
        gc.freeze()
        try:
            leaks = []
            for argv, ns in calls:
                found = cyclic_garbage(main, ns)
                capsys.readouterr()
                if found:
                    leaks.append((argv, found))
        finally:
            gc.unfreeze()
        assert leaks == []

    F_RUN = ["run", str(PROGRAMS / "f_run.seq"), "--entry", "f"]

    def argv(self, case, tmp_path, monkeypatch):
        """The command line of one exit path."""
        bad = tmp_path / "bad.seq"
        bad.write_text("atom a\ng : a -> a\ng x = x $\n")
        if case == "bad-env-fuel":
            monkeypatch.setenv("SEQCORE_FUEL", "abc")
        return {
            "ok": ["check", str(PROGRAMS / "basics.seq")],
            "core": ["core", str(PROGRAMS / "swap_dep.seq"), "--dependent"],
            "run": [*self.F_RUN, "--arg", "inl (q, r)"],
            "trace": ["trace", *self.F_RUN[1:], "--arg", "inr q"],
            "type-error": ["check", str(PROGRAMS / "wild.seq")],
            "parse-error": ["check", str(bad)],
            "fuel": [*self.F_RUN, "--arg", "inr q", "--fuel", "1"],
            "usage": ["compile", str(bad)],
            "bad-env-fuel": self.F_RUN,
            "fuel-not-positive": [*self.F_RUN, "--fuel", "0"],
            "missing-entry": ["run", str(PROGRAMS / "f_run.seq")],
            "unreadable": ["check", str(tmp_path / "missing.seq")],
            "closed-stdout": ["core", str(PROGRAMS / "basics.seq")],
            "deep-sum": ["check", deep_sum(tmp_path)],
            "help": ["--help"],
        }[case]

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("core", 0), ("run", 0), ("trace", 0), ("type-error", 1),
        ("parse-error", 2), ("fuel", 3), ("bad-env-fuel", 4),
        ("fuel-not-positive", 4), ("missing-entry", 4), ("unreadable", 4)])
    def test_entry_leaves_no_cyclic_garbage(self, capsys, monkeypatch,
                                            tmp_path, case, code):
        # Once the first call has built the parser, a whole call leaves no
        # cycles, the command line's parse included.  argparse's own
        # usage-error path is left out: the frame that catches its
        # ArgumentError keeps it in a local, and the error's traceback refers
        # back to that frame, a cycle of 6 objects that argparse makes.
        argv = self.argv(case, tmp_path, monkeypatch)
        entry(argv)
        codes = []
        found = cyclic_garbage(lambda: codes.append(entry(argv)))
        capsys.readouterr()
        assert (codes, found) == ([code], 0)

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("type-error", 1), ("parse-error", 2), ("fuel", 3),
        ("usage", 4), ("bad-env-fuel", 4), ("fuel-not-positive", 4),
        ("missing-entry", 4), ("unreadable", 4), ("closed-stdout", 4),
        ("deep-sum", 5), ("help", "SystemExit(0)")])
    def test_entry_restores_collector_state(self, capsys, monkeypatch,
                                            tmp_path, case, code, enabled):
        argv = self.argv(case, tmp_path, monkeypatch)
        r, w = os.pipe()
        if case == "closed-stdout":
            monkeypatch.setattr(sys, "stdout", ClosedStdout(w))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                got = entry(argv)
            except SystemExit as e:
                got = f"SystemExit({e.code})"
            state = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
            os.close(r)
            os.close(w)
        assert (got, state) == (code, enabled)
