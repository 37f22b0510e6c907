"""Digest of the CLI's behaviour: exit code, stdout and stderr of each call.

Runs ``check``, ``core``, ``run`` and ``trace`` in process, in a fresh
working directory, over:

* ``examples``: every example program under ``tests/programs``, each
  command in each flag set, ``run``/``trace`` with ``--entry`` on each
  definition and on the worked example's two injections;
* ``variants``: ``check`` and ``core`` on each clause-set variant of the
  examples (see ``suite.clause_set_variants``), in each flag set;
* ``bench``: every call of the three benchmark workloads at one seed.

Prints one sha256 per group and one over all of them.  Two checkouts with
the same digests print the same bytes and exit codes on every call, so a
change meant to keep the CLI's output can be compared with its parent.  The
last line counts the calls that exit 5 (an internal error); no digest
covers that count, so it reads the same in any checkout with the same
digests::

    PYTHONPATH=src python tests/cli_digest.py [--seed 2024]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

from seqcore.cli import entry  # noqa: E402
from seqcore.surface import parse  # noqa: E402
from suite import PROGRAMS, clause_set_variants  # noqa: E402
import workloads  # noqa: E402

FLAG_SETS = ([], ["--dependent"], ["--structural-patterns"],
             ["--dependent", "--structural-patterns"])


def run(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, repr((argv, code, out.getvalue(), err.getvalue())).encode()


def examples():
    for path in sorted(PROGRAMS.glob("*.seq")):
        f = f"programs/{path.name}"
        defs = [d.name for d in parse(path.read_text(encoding="utf-8"))
                if d.kind == "def"]
        for flags in FLAG_SETS:
            for cmd in ("check", "core"):
                yield [cmd, f, *flags]
            for name in defs:
                for cmd in ("run", "trace"):
                    yield [cmd, f, "--entry", name, *flags]
    for arg in ("inr q", "inl (q, r)"):
        for flags in FLAG_SETS:
            for cmd in ("run", "trace"):
                yield [cmd, "programs/f_run.seq", "--entry", "f", "--arg", arg,
                       *flags]


def variants():
    for _, lines in clause_set_variants():
        Path("v.seq").write_text("\n".join(lines), encoding="utf-8")
        for flags in FLAG_SETS:
            for cmd in ("check", "core"):
                yield [cmd, "v.seq", *flags]


def bench(seed: int):
    for name in workloads.WORKLOADS:
        for call in workloads.build(name, seed, Path("bench-programs")):
            yield list(call.argv)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=2024,
                    help="seed of the library workload (default 2024)")
    args = ap.parse_args()
    total = hashlib.sha256()
    internal = 0
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        os.symlink(PROGRAMS, "programs")
        groups = (("examples", examples()), ("variants", variants()),
                  ("bench", bench(args.seed)))
        for label, calls in groups:
            h, n = hashlib.sha256(), 0
            for argv in calls:
                code, result = run(argv)
                h.update(result)
                internal += code == 5
                n += 1
            total.update(h.digest())
            print(f"{label:8s} {n:5d} calls  {h.hexdigest()}")
    print(f"{'all':8s} {'':11s} {total.hexdigest()}")
    print(f"{'internal':8s} {internal:5d} calls  exit 5")


if __name__ == "__main__":
    main()
