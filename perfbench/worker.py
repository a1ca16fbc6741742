"""One benchmark round, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--scale S]

with `src` on PYTHONPATH.  Imports bigstep, builds the workload's inputs
from the seed, runs every op once, checks each verdict outside the timed
span and prints one JSON object: setup timings, per-op times, outcomes and
digests, peak RSS and, with --trace, the per-layer spans and counts.
A fresh process per round keeps bigstep's module-global derivation memo
cold, as every CLI user finds it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def run_op(op, run) -> tuple:
    """Time one op and check its verdict.

    Returns (seconds, status, emitted text, why it failed); status is "ok",
    "fail", or "known" for the op's stated known defect.
    """
    t0 = time.perf_counter()
    try:
        text, objs = run()
    except Exception as exc:  # a crash is a failed op, not a crashed run
        dt = time.perf_counter() - t0
        name = type(exc).__name__
        if op.known_error is not None and isinstance(exc, op.known_error):
            return dt, "known", "error " + name, "%s: %s" % (name, op.why)
        return dt, "fail", "error " + name, "%s: %s" % (name, exc)
    dt = time.perf_counter() - t0
    try:
        why_wrong = op.check(*objs)
    except Exception as exc:  # output the check cannot read is wrong
        why_wrong = "unreadable output: %r" % exc
    return dt, "fail" if why_wrong else "ok", text, why_wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import bigstep.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0

    import tracing
    from bigstep import kernel
    from workloads import WORKLOADS

    lib = tracing.Tracer() if args.trace else tracing.Plain()
    t0 = time.perf_counter()
    ops = WORKLOADS[args.workload](args.seed, args.scale, lib)
    corpus_s = time.perf_counter() - t0

    undo = lib.install()
    first_op_at = time.monotonic()
    results, failures, known = [], [], []
    for op in ops:
        run = op.run
        if args.trace:
            lib.reset_stack()
            run = lib.span("bench", run)
        dt, status, text, why_wrong = run_op(op, run)
        if status != "ok":
            (known if status == "known" else failures).append(
                "%s: %s" % (op.label, why_wrong))
        data = text.encode()
        results.append((dt, status, hashlib.sha256(data).hexdigest()[:16],
                        len(data)))
    undo()

    out = {
        "import_s": import_s,
        "corpus_s": corpus_s,
        "first_op_at": first_op_at,
        "ops": results,
        "failures": failures,
        "known": known,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo_entries": len(kernel._DERIVE_CACHE),
    }
    if args.trace:
        out["self_s"] = dict(lib.self_s)
        out["counts"] = dict(lib.counts, **{
            "lang.rules.distinct": len(lib.configs),
            "kernel.configs_checked": lib.stats["configs_checked"],
            "kernel.results_inferred": lib.stats["results_inferred"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
