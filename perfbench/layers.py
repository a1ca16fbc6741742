"""Per-layer metrics from traced rounds.

Layers are named after the modules they cover:

  parse    syntax and the lang_* parsers (plugin.parse_config)
  lang     rule enumeration (plugin.rules) and its Need.rest continuations
  kernel   derivation, inference, harvest, target scan, memo, checkers:
           self time of the kernel entry points, net of child spans
  spec     Specification.at and each Constrained set's sample / contains
  render   cli, CheckReport.to_dict, plugin.pretty and JSON
  setup    import bigstep, and the corpus builders in random_programs and
           spec_lib

Counts are exact and must repeat in every run with the same seed.  Times
are medians over the traced rounds of a run.  The result line carries the
counts and those self times that are non-zero on every workload; the
readable report before it lists all of them, including the per-entry
kernel self times and the parse and spec times, which are exactly zero on
the workloads that never enter those layers.
"""

from __future__ import annotations

import statistics

KERNEL_ENTRIES = ("check_verif", "check_soundness_crosscheck", "spec_refines",
                  "derive_one", "derive_all", "infer_results")

# The per-layer metrics on the result line, as listed in BENCHMARK.json:
# the counts and times an optimisation can move.  Entry call counts and
# parse.calls are fixed by the benchmark's own ops, so only the readable
# report shows them.
REPORTED = (
    "lang.rules.calls", "lang.rules.apps", "lang.rules.repeat",
    "lang.rest.calls", "lang.rules.s", "lang.rest.s",
    "kernel.configs_checked", "kernel.results_inferred",
    "kernel.memo_entries", "kernel.self_s",
    "spec.at.calls", "spec.at.constrained", "spec.sample.calls",
    "spec.sample.candidates", "spec.contains.calls",
    "render.bytes", "render.pretty.calls", "render.s",
    "setup.import_s", "setup.corpus_s", "trace.overhead_s")


def counts(rnd: dict) -> dict:
    """The exact counts of one traced round."""
    c = rnd["counts"]
    out = {name: (c.get(name, 0), "count") for name in (
        ["parse.calls", "lang.rules.calls", "lang.rules.apps",
         "lang.rest.calls"]
        + ["kernel.%s.calls" % e for e in KERNEL_ENTRIES]
        + ["kernel.configs_checked", "kernel.results_inferred",
           "spec.at.calls", "spec.at.constrained", "spec.sample.calls",
           "spec.sample.candidates", "spec.contains.calls",
           "render.pretty.calls"])}
    out["lang.rules.repeat"] = (
        c.get("lang.rules.calls", 0) / max(1, c.get("lang.rules.distinct", 0)),
        "ratio")
    out["kernel.memo_entries"] = (rnd["memo_entries"], "count")
    out["render.bytes"] = (sum(op[3] for op in rnd["ops"]), "bytes")
    return out


def self_times(rnd: dict) -> dict:
    s = rnd["self_s"]
    out = {"parse.s": s.get("parse", 0.0),
           "lang.rules.s": s.get("lang.rules", 0.0),
           "lang.rest.s": s.get("lang.rest", 0.0)}
    for entry in KERNEL_ENTRIES:
        out["kernel.%s.self_s" % entry] = s.get("kernel." + entry, 0.0)
    out["kernel.self_s"] = sum(v for k, v in s.items()
                               if k.startswith("kernel."))
    for part in ("at", "sample", "contains"):
        out["spec.%s.s" % part] = s.get("spec." + part, 0.0)
    out["render.s"] = s.get("render", 0.0) + s.get("render.pretty", 0.0)
    out["setup.corpus_s"] = rnd["corpus_s"] + s.get("setup.corpus", 0.0)
    out["setup.import_s"] = rnd["import_s"]
    out["bench.self_s"] = s.get("bench", 0.0)
    out["trace.self_s"] = s.get("trace", 0.0)
    return out


def wall(rnd: dict) -> float:
    return sum(op[0] for op in rnd["ops"])


def summarize(traced: list, plain: list) -> tuple[dict, str]:
    """All per-layer metrics, and a note on the tracing overhead."""
    metrics = counts(traced[0])
    per_round = [self_times(r) for r in traced]
    for name in per_round[0]:
        metrics[name] = (statistics.median(t[name] for t in per_round), "s")
    plain_wall = statistics.median(wall(r) for r in plain)
    traced_wall = statistics.median(wall(r) for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, ("tracing overhead %+.1f%% (traced %.3f s, plain %.3f s)"
                     % (100 * (traced_wall / plain_wall - 1), traced_wall,
                        plain_wall))


def differing_counts(traced: list) -> list:
    """Names of the counts that differ between traced rounds."""
    first = counts(traced[0])
    return sorted({name for r in traced[1:]
                   for name, value in counts(r).items()
                   if value != first[name]})
