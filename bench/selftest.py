"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

1. On the smallest size of each workload, a counting pass must report the
   counts known from how the programs are built (``expected_counts`` in
   workloads.py): 4(K+1) or 4(N+1) steps, R1 = R4 = R6 = R7 = K+1 or N+1
   and no other rule, one ``check_term`` per definition checked, no step
   on ``library``.  No seqcore module may keep a binding to an unwrapped
   layer function, and every call must give its expected output.
2. Negative control: with the ``cli.normalize`` binding left unwrapped, the
   same test must fail, so a missed import binding cannot go unnoticed.
3. Layer separation: on ``wide`` at K = 200, ``reduce.normalize_s`` must be
   at least 90% of the traced ``entry`` time.

Exits 0 when all hold; prints each problem otherwise.
"""

from __future__ import annotations

import sys

import worker
import workloads
from tracer import Tracer


def problems(cli, workload: str, skip_binding: str | None = None) -> list[str]:
    calls = workloads.build(workload, 2024, worker.WORKDIR, smallest=True)
    tally = worker.Tally()
    tracer = Tracer(capture=True)
    original = getattr(cli, skip_binding) if skip_binding else None
    tracer.install()
    if skip_binding:
        setattr(cli, skip_binding, original)
    found = [f"unwrapped binding {name}" for name in tracer.unpatched()]
    counts = worker.count_pass(cli, calls, tally, tracer)
    for name, want in workloads.expected_counts(workload, calls).items():
        if counts[name] != want:
            found.append(f"{name} = {counts[name]}, expected {want}")
    found += [f"{n} x {reason}" for reason, n in tally.reasons.items()]
    return [f"{workload}: {p}" for p in found]


def layer_separation(cli) -> list[str]:
    calls = [c for c in workloads.build("wide", 2024, worker.WORKDIR)
             if c.size == "K200"]
    _, _, layers = worker.run_pass(cli, calls, worker.Tally(), Tracer())
    share = layers[0]["reduce.normalize_s"] / layers[0]["cli.entry_s"]
    print(f"wide K200: reduce.normalize_s is {share:.1%} of cli.entry_s")
    return [] if share >= 0.9 else [f"wide K200: normalize share {share:.1%}"]


def main() -> int:
    cli = worker.import_seqcore()
    failed = []
    for workload in workloads.WORKLOADS:
        found = problems(cli, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        failed += found
    control = problems(cli, "wide", skip_binding="normalize")
    print(f"negative control (cli.normalize unwrapped): "
          f"{len(control)} problems found")
    if not control:
        failed.append("negative control: a missed binding went unnoticed")
    failed += layer_separation(cli)
    for p in failed:
        print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
