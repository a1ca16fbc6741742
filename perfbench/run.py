"""Workbench benchmark: one workload, measured over fresh-process rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/bigstep`).
Each round is a fresh interpreter (perfbench/worker.py) under its own
PYTHONHASHSEED; rounds run one at a time until S seconds have passed, and
at least MIN_ROUNDS of them.  Every round runs the same inputs, drawn from
--seed, so per-op digests and per-layer counts must repeat exactly; a
digest that differs from the first round's marks the op failed.

With --trace 0 the result line carries the end-to-end metrics, medians over
rounds.  With --trace 1 rounds alternate plain and traced, and the result
line carries the per-layer metrics of the traced rounds (at least two, so
their counts are compared under two hash seeds), plus the tracing overhead
(traced minus plain wall time).  The last line of stdout is the
JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("merge-verify", "refute-json", "metatheory", "deep-loop")
MIN_ROUNDS = 3
TRACED_PAIRS = 2   # plain + traced rounds, so counts meet two hash seeds
DEADLINE_S = 170   # a run must end within 180 s
TAIL_BEYOND = 10   # ops beyond the tail percentile


class BenchError(Exception):
    pass


def spawn_round(args, index: int, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
               PYTHONHASHSEED=str(index))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale)] + (["--trace"] if trace else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("round %d ran past the deadline" % index) from exc
    if proc.returncode != 0:
        raise BenchError("round %d exited %d:\n%s"
                         % (index, proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["first_op_at"] - started
    out["round_s"] = time.monotonic() - started
    out["trace"] = trace
    return out


def percentile(values: list, pct: int) -> float:
    """Percentile, interpolated between the two nearest ranks.

    Rounds repeat the same ops, so neighbouring ranks often belong to two
    different ops; interpolating keeps the value from jumping between them.
    """
    ranked = sorted(values)
    pos = (len(ranked) - 1) * pct / 100
    low = math.floor(pos)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (pos - low)


def tail_pct(ops_per_round: int) -> int:
    """Highest whole percentile with TAIL_BEYOND ops beyond it in a run of
    MIN_ROUNDS rounds, so it is the same in every run of a workload."""
    n = ops_per_round * MIN_ROUNDS
    return max(50, min(99, math.floor(100 * (1 - TAIL_BEYOND / n))))


def judge(rounds: list) -> tuple[int, int, list]:
    """Attempted and failed op runs, and why each unexpected failure failed.

    An op fails on a wrong verdict, an exception, or a digest that differs
    from the first round's.  Failures of known-defect ops count as failed
    but are expected.
    """
    first = [op[2] for op in rounds[0]["ops"]]
    attempted = failed = 0
    unexpected = []
    for r, rnd in enumerate(rounds):
        unexpected += ["round %d: %s" % (r, m) for m in rnd["failures"]]
        if len(rnd["ops"]) != len(first):
            unexpected.append("round %d ran %d ops, round 0 ran %d"
                              % (r, len(rnd["ops"]), len(first)))
            continue
        for k, (_, status, digest, _) in enumerate(rnd["ops"]):
            attempted += 1
            if status != "ok":
                failed += 1
            elif digest != first[k]:
                failed += 1
                unexpected.append("round %d op %d: output differs from "
                                  "round 0 under PYTHONHASHSEED=%d"
                                  % (r, k, r))
    traced = [r for r in rounds if r["trace"]]
    if traced:
        differing = layers.differing_counts(traced)
        if differing:
            unexpected.append("per-layer counts differ between traced "
                              "rounds: %s" % ", ".join(differing))
    return attempted, failed, unexpected


def end_to_end(rounds: list, attempted: int, failed: int) -> dict:
    times = [op[0] for rnd in rounds for op in rnd["ops"]]
    pct = tail_pct(len(rounds[0]["ops"]))
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(sum(op[0] for op in r["ops"])
                                     for r in rounds), "s"),
        "op_p50_ms": (1000 * percentile(times, 50), "ms"),
        "op_tail_ms": (1000 * percentile(times, pct), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "ok_share": (1 - failed / attempted, "share"),
    }, "op_tail_ms is p%d over %d ops" % (pct, len(times))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every workload size (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join("src", "bigstep", "__init__.py")):
        print("error: run from the root of a bigstep checkout "
              "(no src/bigstep here)", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    # Compile bytecode first so no round pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join("src", "bigstep"), HERE],
                   check=True, timeout=60)
    least = 2 * TRACED_PAIRS if args.trace else MIN_ROUNDS
    rounds: list = []
    try:
        while True:
            trace = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(spawn_round(args, len(rounds), trace, deadline))
            now, last = time.monotonic(), rounds[-1]["round_s"]
            if len(rounds) >= least and (now - start + last > args.seconds
                                         or now + 1.5 * last > deadline):
                break
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted, failed, unexpected = judge(rounds)
    for message in unexpected:
        print("FAILED %s" % message, file=sys.stderr)
    plain = [r for r in rounds if not r["trace"]]
    if args.trace:
        metrics, note = layers.summarize(
            [r for r in rounds if r["trace"]], plain)
        reported = layers.REPORTED
    else:
        metrics, note = end_to_end(plain, attempted, failed)
        reported = list(metrics)
    print("%s seed %d: %d rounds, %d op runs, %d failed (%d unexpected)"
          % (args.workload, args.seed, len(rounds), attempted, failed,
             len(unexpected)))
    for message in sorted(set(rounds[0]["known"])):
        print("  known defect, op counted as failed: %s" % message)
    print("  %s" % note)
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
