"""Runs one workload in this process and prints its measurements as JSON.

    python3 bench/worker.py --workload wide --seed 1 --seconds 30 --trace 0

``run.py`` starts this as a child process so that the child's peak resident
memory belongs to the workload alone.  One caller, closed loop: each CLI
call is ``seqcore.cli.entry(argv)`` invoked in-process with stdout and stderr
captured, the next one starting when the last has returned.  A pass is one
run through the workload's fixed call list; every pass is checked.

With ``--trace 0`` the timed passes run untraced, and ``wall_s`` is the
sum over calls of each call's median scaled time (speed.py).  With
``--trace 1`` untraced and traced passes alternate, the layer times are
medians over the traced passes taken the same way, and one more untimed
pass counts work (steps, rules, judgments, lookups, term sizes).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import TIME_METRICS, Tracer
from workloads import RULES, Call

SRC = Path(__file__).resolve().parent.parent / "src"
WORKDIR = Path(__file__).resolve().parent / "_work"


def import_seqcore():
    """Import seqcore from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import seqcore.cli
    if Path(seqcore.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"seqcore imported from {seqcore.cli.__file__}, "
                          f"not from {SRC}")
    return seqcore.cli


def run_call(cli, call: Call) -> tuple[int, str, str, BaseException | None]:
    out, err = io.StringIO(), io.StringIO()
    rc, error = -1, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.entry(list(call.argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash is a failed call, not the end of the run
            error = e
    return rc, out.getvalue(), err.getvalue(), error


def verdict(call: Call, rc: int, out: str, err: str,
            error: BaseException | None) -> str | None:
    """Why the call's result is wrong, or None if it is right."""
    if error is not None:
        return f"raised {type(error).__name__}"
    if call.probe:
        lines = err.splitlines()
        if rc == 0 and out.startswith("ok"):
            return None
        if rc == 1 and lines and all(l.startswith("ERROR ") for l in lines):
            return None
        return f"exit {rc} with {len(lines)} stderr lines"
    if rc != 0:
        return f"exit {rc}"
    if call.stdout is not None and out != call.stdout:
        return "stdout differs from the expected output"
    if (call.sha256 is not None
            and hashlib.sha256(out.encode("utf-8")).hexdigest() != call.sha256):
        return "stdout differs from the recorded digest"
    return None


class Tally:
    """Checked calls and known-defect probe calls, counted apart."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.probe_attempted = self.probe_failed = 0
        self.reasons: Counter[str] = Counter()

    def add(self, call: Call, reason: str | None) -> None:
        if call.probe:
            self.probe_attempted += 1
            self.probe_failed += reason is not None
        else:
            self.attempted += 1
            self.failed += reason is not None
        if reason is not None:
            label = " ".join(Path(a).name for a in call.argv)
            self.reasons[f"{label}: {reason}"] += 1


def check_pass(cli, calls: list[Call], tally: Tally) -> None:
    """One untimed pass."""
    for call in calls:
        tally.add(call, verdict(call, *run_call(cli, call)))


def run_pass(cli, calls: list[Call], tally: Tally, tracer: Tracer | None = None
             ) -> tuple[list[float], list[float], list[dict]]:
    """One pass.  Returns the scaled and the raw time of each call (see
    speed.py) and, with a tracer, the scaled layer times of each call."""
    results, scaled, raw, layers = [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            first = len(tracer.spans) if tracer is not None else 0
            # Start each call from the same collector state, as a fresh
            # CLI process would, so earlier calls do not decide when a
            # full collection lands in this one.
            gc.collect()
            result, seconds, raw_seconds = speed.timed(
                lambda: run_call(cli, call))
            results.append(result)
            scaled.append(seconds)
            raw.append(raw_seconds)
            if tracer is not None:
                factor = seconds / raw_seconds
                layers.append({m: t * factor for m, t in
                               tracer.times(first, len(tracer.spans)).items()})
    finally:
        if tracer is not None:
            tracer.uninstall()
    for call, result in zip(calls, results):
        tally.add(call, verdict(call, *result))
    return scaled, raw, layers


# Per call, the median over passes of its time (or of each layer time).
# Summing per-call medians rejects a burst of load from another process
# that slows a few calls of one pass.

def median_pass(passes: list[list[float]]) -> list[float]:
    return [statistics.median(p[i] for p in passes)
            for i in range(len(passes[0]))]


def median_layers(passes: list[list[dict]]) -> list[dict]:
    return [{m: statistics.median(p[i][m] for p in passes) for m in times}
            for i, times in enumerate(passes[0])]


def layer_totals(calls: list[Call], per_call: list[dict]) -> dict[str, float]:
    """Layer times summed over the calls, in total and per program size.
    Sizes of other workloads read 0."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    out.update(dict.fromkeys((f"{m}.{size}" for m in TIME_METRICS
                              for size in workloads.SIZE_LABELS), 0.0))
    for call, times in zip(calls, per_call):
        for metric, seconds in times.items():
            out[metric] += seconds
            if call.size:
                out[f"{metric}.{call.size}"] += seconds
    return out


def count_pass(cli, calls: list[Call], tally: Tally,
               tracer: Tracer | None = None) -> dict[str, int]:
    """An untimed pass that counts work.  ``tracer`` may be given already
    installed (the tracer self-test does so to remove a binding)."""
    from seqcore.reduce import trace
    from seqcore.syntax import size

    if tracer is None:
        tracer = Tracer(capture=True)
        tracer.install()
    try:
        check_pass(cli, calls, tally)
    finally:
        tracer.uninstall()

    rules: Counter[str] = Counter()
    peak = steps = 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))   # size() recurses on deep terms
    try:
        for args, kwargs, n in tracer.normalize_calls:
            trail, _ = trace(*args, **kwargs)
            if len(trail) != n:
                raise RuntimeError(f"trace took {len(trail)} steps, "
                                   f"normalize took {n}")
            steps += n
            rules.update(rule for rule, _ in trail)
            peak = max(peak, size(args[1]), *(size(t) for _, t in trail))
        core_nodes = sum(size(d.term) for p in tracer.programs
                         for d in p.decls if d.term is not None)
    finally:
        sys.setrecursionlimit(limit)
    counts = {
        "reduce.steps": steps,
        "reduce.peak_term_size": peak,
        "check.calls": tracer.count("check.check_s"),
        "check_dep.convert_calls": tracer.count("check_dep.convert_s"),
        "syntax.sig_lookups": tracer.sig_lookups,
        "surface.core_nodes": core_nodes,
        "core_text.out_bytes": tracer.printed_bytes,
    }
    counts.update({f"reduce.rule.{r}": rules[r] for r in RULES})
    return counts


def _growth(times: dict[str, float], metric: str, sizes: list[str]) -> float:
    """log2 of the time ratio between the largest size and the one before
    (each workload's largest size is twice the one before); 0 where the
    layer does no work on the workload."""
    if len(sizes) < 2:
        return 0.0
    small = times[f"{metric}.{sizes[-2]}"]
    large = times[f"{metric}.{sizes[-1]}"]
    return math.log2(large / small) if small > 0 and large > 0 else 0.0


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cli = import_seqcore()
    calls = workloads.build(workload, seed, WORKDIR)
    tally = Tally()
    check_pass(cli, calls, tally)           # warm-up, checked but not timed
    # Read before anything but the workload has run: later passes repeat the
    # same calls, and the reference loops of speed.py need memory of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain, raw, traced_walls, traced_layers = [], [], [], []
    start = last = perf_counter()
    rounds: list[float] = []
    # Stop before a round that would end after ``seconds``, but run one.
    while not rounds or (perf_counter() - start + statistics.median(rounds)
                         <= seconds):
        scaled, raw_seconds, _ = run_pass(cli, calls, tally)
        plain.append(scaled)
        raw.append(raw_seconds)
        if traced:
            scaled, _, layers = run_pass(cli, calls, tally, Tracer())
            traced_walls.append(scaled)
            traced_layers.append(layers)
        rounds.append(perf_counter() - last)
        last = perf_counter()

    result = {
        "workload": workload,
        "passes": len(plain),
        "wall_s": sum(median_pass(plain)),
        "raw_wall_s": sum(median_pass(raw)),
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        layers = layer_totals(calls, median_layers(traced_layers))
        layers.update(count_pass(cli, calls, tally))
        sizes = list(dict.fromkeys(c.size for c in calls if c.size))
        layers["reduce.normalize_growth"] = _growth(
            layers, "reduce.normalize_s", sizes)
        layers["surface.compile_growth"] = _growth(
            layers, "surface.compile_s", sizes)
        steps = layers["reduce.steps"]
        layers["reduce.us_per_step"] = (
            layers["reduce.normalize_s"] / steps * 1e6 if steps else 0.0)
        layers["trace.overhead_ratio"] = (
            sum(median_pass(traced_walls)) / result["wall_s"])
        result["layers"] = layers
    result.update(attempted=tally.attempted, failed=tally.failed,
                  probe_attempted=tally.probe_attempted,
                  probe_failed=tally.probe_failed,
                  failures=dict(tally.reasons))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
