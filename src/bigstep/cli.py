"""Command-line front end.

Commands
--------
run          derive one result configuration and print it
derive       print every result derivable within the depth budget
check-valid  derived results are members of the spec's sets
check-verif  spec-assisted inferred results are members of the spec's sets
crosscheck   engine self-test: derivation and inference agree instance-wise
star-check   check-verif against the most informative (derivation) spec

Exit codes: 0 pass / result, 1 check failed, 2 usage or parse error,
3 stuck configuration, 4 budget exhausted without a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# The package's plugin registry.  `_plugin` looks `PLUGINS` up in this
# module at run time, so a caller may rebind `cli.PLUGINS` to wrap plugins.
from . import PLUGINS, random_programs, spec_lib
from .kernel import (BUDGET_EXHAUSTED, CheckReport, PASS, SampleBudget,
                     Specification, check_soundness_crosscheck, check_valid,
                     check_verif, derive_all, star_spec, trivial_spec)
from .syntax import ParseError

SCHEMA_VERSION = "2"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4


class CliError(Exception):
    """A usage/parse problem; maps to exit code 2."""


def _parse_range(text: str) -> list[int]:
    """'1..6' -> [1,...,6]; '3' -> [3]; '1,2,5' -> [1,2,5]; never empty,
    and no value given twice: a repeat would check its configurations
    twice."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliError("bad range %r: %s" % (text, exc)) from exc
    if not values:
        raise CliError("empty range %r" % text)
    if len(set(values)) < len(values):
        raise CliError("bad range %r: a value is given twice" % text)
    return values


def _flag_or_env(value, variable: str, default: int) -> int:
    """A budget flag's value, else the environment variable's, else
    `default`; the environment is read here, not when the parser is built."""
    if value is not None:
        return value
    text = os.environ.get(variable)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError as exc:
        raise CliError("bad %s %r: not an integer" % (variable, text)) from exc


def _budget(args) -> SampleBudget:
    depth = _flag_or_env(args.depth, "BIGSTEP_DEPTH", 64)
    samples = _flag_or_env(args.samples, "BIGSTEP_SAMPLES", 8)
    try:
        return SampleBudget(depth, samples, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _plugin(args):
    if args.lang not in PLUGINS:
        raise CliError("unknown language %r (choose from %s)"
                       % (args.lang, ", ".join(sorted(PLUGINS))))
    return PLUGINS[args.lang]


def _resolve_spec(args, budget, name) -> Specification:
    if name in ("none", "star"):
        if args.param is not None:
            raise CliError("--param is not read by spec %r" % name)
        return (trivial_spec() if name == "none"
                else star_spec(_plugin(args), budget))
    entry = spec_lib.SPECS.get(name)
    if entry is None:
        raise CliError("unknown spec %r (choose from %s, star, none)"
                       % (name, ", ".join(sorted(spec_lib.SPECS))))
    lang, factory = entry
    if lang != args.lang:
        raise CliError("spec %r is for language %r, not %r"
                       % (name, lang, args.lang))
    spec = factory()
    if args.param is not None:
        try:
            domain = tuple(None if p.strip() == "none" else int(p)
                           for p in args.param.split(","))
        except ValueError as exc:
            raise CliError("bad --param %r: %s" % (args.param, exc)) from exc
        if len(set(domain)) < len(domain):
            raise CliError("bad --param %r: a value is given twice"
                           % args.param)
        if not set(domain) <= set(spec.param_domain):
            raise CliError("bad --param %r: the domain of %r is %r"
                           % (args.param, name, spec.param_domain))
        spec = Specification(domain, spec.at)
    return spec


def _config_text(args) -> str | None:
    parts = []
    if args.program is not None:
        try:
            with open(args.program, "r", encoding="utf-8") as fh:
                parts.append(fh.read().strip())
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (args.program, exc)) from exc
    if args.config:
        parts.append(args.config)
    if not parts:
        if args.state is not None:
            raise CliError("--state is not read without --program or "
                           "--config")
        return None
    text = " || ".join(parts)
    if args.state is not None:
        text += " || " + args.state
    return text


def _corpus(args, plugin, budget) -> list:
    count = args.count
    if count is not None and count < 1:
        raise CliError("--count must be at least 1, got %d" % count)
    text = _config_text(args)
    name = args.spec
    fac = name in ("fac", "fac-bad")
    where = ("with --program or --config" if text is not None
             else "by the %r corpus" % name)
    for flag, value, read in (("--m", args.m, fac),
                              ("--count", count, not fac)):
        if value is not None and (text is not None or not read):
            raise CliError("%s is not read %s" % (flag, where))
    if text is not None:
        try:
            return [plugin.parse_config(text)]
        except ParseError as exc:
            raise CliError("parse error: %s" % exc) from exc
    if fac:
        return spec_lib.fac_corpus(_parse_range(args.m or "1..6"))
    if name in ("msort", "msort-nosort"):
        return spec_lib.msort_corpus(count or 8, budget.seed)
    if name in ("mglist", "mglist-len"):
        return spec_lib.mglist_corpus(count or 8, budget.seed)
    if name in ("star", "none"):
        return random_programs.loop_free_corpus(args.lang, count or 50,
                                                budget.seed)
    raise CliError("no default corpus for spec %r; pass --program/--config"
                   % name)


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    try:
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (say `| head -1`): what is left, and the
        # flush at exit, go to the null device, so no traceback is printed
        # and the command's own exit code stands.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _base_doc(args, budget) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "budget": {"depth": budget.max_depth, "samples": budget.max_samples,
                   "seed": budget.seed},
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    for flag, value in (("--spec", args.spec), ("--param", args.param)):
        if value is not None:
            raise CliError("%s is not read by %s" % (flag, args.command))
    plugin = _plugin(args)
    budget = _budget(args)
    text = _config_text(args)
    if text is None:
        raise CliError("run needs --program and/or --config")
    try:
        gamma = plugin.parse_config(text)
    except ParseError as exc:
        raise CliError("parse error: %s" % exc) from exc
    results, exhausted = derive_all(plugin, gamma, budget)
    doc = _base_doc(args, budget)
    doc["results"] = [plugin.pretty(r) for r in results]
    if results:
        doc["status"], code = "result", EXIT_PASS
        lines = (doc["results"][:1] if args.command == "run"
                 else doc["results"])
    elif exhausted:
        doc["status"], code = "budget_exhausted", EXIT_BUDGET
        lines = ["budget exhausted (depth %d)" % budget.max_depth]
    else:
        doc["status"], code = "stuck", EXIT_STUCK
        lines = ["stuck at %s" % plugin.pretty(gamma)]
    _emit(args, doc, lines)
    return code


def cmd_check(args) -> int:
    plugin = _plugin(args)
    budget = _budget(args)
    if args.command == "star-check":
        spec, checker = _resolve_spec(args, budget, "star"), check_verif
        if args.spec is not None:
            # Here --spec only picks the corpus, but it must name a spec
            # that fits --lang.
            _resolve_spec(args, budget, args.spec)
        args.spec = args.spec or "star"
    elif args.spec is None:
        raise CliError("%s needs --spec" % args.command)
    else:
        spec = _resolve_spec(args, budget, args.spec)
        checker = {"check-valid": check_valid,
                   "check-verif": check_verif,
                   "crosscheck": check_soundness_crosscheck}[args.command]
    corpus = _corpus(args, plugin, budget)
    report = checker(plugin, spec, corpus, budget)
    return _report_exit(args, budget, plugin, report, len(corpus))


def _report_exit(args, budget, plugin, report: CheckReport,
                 corpus_size: int) -> int:
    doc = _base_doc(args, budget)
    doc.update(report.to_dict(plugin))
    doc["stats"] = dict(report.stats, corpus_size=corpus_size)
    # The text lines are read off the document, so nothing prints twice.
    lines = ["status: %s" % doc["status"],
             "corpus size: %d" % corpus_size]
    lines += ["%s: %s" % kv for kv in sorted(doc["stats"].items())
              if kv[0] != "corpus_size"]
    for cx in doc["counterexamples"]:
        lines += ["counterexample (param=%s):" % cx["param"],
                  "  config:   %s" % cx["config"],
                  "  result:   %s" % cx["result"],
                  "  expected: %s" % cx["expected"]]
    _emit(args, doc, lines)
    if report.status == PASS:
        return EXIT_PASS
    if report.status == BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_FAIL  # fail or precondition_failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="bigstep",
        description="Big-step semantics workbench: run programs and check "
                    "specifications over the bundled languages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config: bool):
        p.add_argument("--lang", required=True,
                       help="language plugin: while | extwhile | fun")
        p.add_argument("--spec", default=None,
                       help="bundled spec name, 'star', or 'none'")
        # No default: `_budget` falls back to the environment, then 64/8.
        p.add_argument("--depth", type=int,
                       help="max derivation depth (env BIGSTEP_DEPTH)")
        p.add_argument("--samples", type=int,
                       help="max samples per spec set (env BIGSTEP_SAMPLES)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--param", default=None,
                       help="comma-separated parameter values to check")
        p.add_argument("--program", default=None,
                       help="program file (language concrete syntax)")
        p.add_argument("--config", default=None,
                       help="configuration text (overrides default corpus)")
        p.add_argument("--state", default=None,
                       help="initial state text, appended to the program")
        if not needs_config:
            p.add_argument("--m", default=None,
                           help="parameter range for the fac corpus, "
                                "e.g. 1..6")
            p.add_argument("--count", type=int, default=None,
                           help="size of generated corpora")

    for name in ("run", "derive"):
        p = sub.add_parser(name)
        common(p, needs_config=True)
        p.set_defaults(func=cmd_run)
    for name in ("check-valid", "check-verif", "crosscheck", "star-check"):
        p = sub.add_parser(name)
        common(p, needs_config=False)
        p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
