"""seqcore benchmark: times whole CLI calls on generated workloads.

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload in turn

Run from anywhere; the programs are built from this checkout's ``src``.
With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead.  The lines before it are a readable summary.
The exit code is 0 only when a result was printed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 10       # interpreter starts per run; setup_s is their median
RUN_LIMIT_S = 170        # a run must finish within 180 s in all


class InterpreterStart:
    """Times a fresh ``python3 -c code`` with ``src`` on the path.  Samples
    are taken before and after the workload, so that they see more than one
    stretch of the host's changing speed."""

    def __init__(self, code: str):
        self.argv = [sys.executable, "-c", code]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[tuple[float, float]] = []
        self._start()                   # fills the bytecode cache; untimed

    def _start(self) -> None:
        subprocess.run(self.argv, env=self.env, check=True, timeout=60)

    def sample(self, n: int) -> None:
        self.samples += [speed.timed(self._start)[1:] for _ in range(n)]

    def median(self) -> tuple[float, float]:
        """Median scaled and raw time (see speed.py)."""
        return (statistics.median(s for s, _ in self.samples),
                statistics.median(r for _, r in self.samples))


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    started = perf_counter()
    starts = [InterpreterStart("import seqcore.cli")]
    if trace:
        starts.append(InterpreterStart("pass"))
    for s in starts:
        s.sample(SETUP_REPEATS // 2)
    child = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=RUN_LIMIT_S - (perf_counter() - started))
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {child.returncode}")
    r = json.loads(child.stdout.splitlines()[-1])
    for s in starts:
        s.sample(SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s, raw_setup_s = starts[0].median()

    attempted, failed = r["attempted"], r["failed"]
    print(f"{workload:8s} setup_s {setup_s:.4f} s | wall_s {r['wall_s']:.4f} s"
          f" | peak_rss_mb {r['peak_rss_mb']:.1f} MB"
          f" | failed_ratio {failed / attempted:.4g} ratio"
          f" ({failed} of {attempted} calls, {r['passes']} timed passes)")
    print(f"{'':8s} unscaled: setup {raw_setup_s:.4f} s, "
          f"pass {r['raw_wall_s']:.4f} s")
    if r["probe_attempted"]:
        print(f"{'':8s} known-defect probe failed {r['probe_failed']} of "
              f"{r['probe_attempted']} times")
    for reason, n in r["failures"].items():
        print(f"{'':8s} {n} x {reason}")

    if trace:
        layers = r["layers"]
        layers["cli.import_s"] = setup_s - starts[1].median()[0]
        metrics = {}
        for m in spec["per_layer"]:
            value = layers[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:34s} {value:.6g} {m['unit']}")
    else:
        values = {"setup_s": setup_s, "wall_s": r["wall_s"],
                  "peak_rss_mb": r["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "seqcore" / "cli.py").is_file():
        print(f"error: no seqcore sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
