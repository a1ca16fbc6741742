"""Language-agnostic engine: derivation enumeration, specification-aware
inference, and the validity / verification checkers.

A language plugs in by enumerating, for a configuration, the semantic rule
instances whose conclusion starts at that configuration.  Everything here is
pure: identical inputs and budgets give identical outputs, including the
order of results and counterexamples.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .syntax import Node, hash_once, slot_init

# Derivations, and the traces that record them, are walked on an explicit
# stack, so their height is bounded by the depth budget alone.  Hashing a
# term walks nothing (a node is hashed when it is built), and comparison and
# `repr` leave the recursive code past a fixed depth (see `syntax.Node`).
# Terms are still walked recursively on their nesting depth by the parsers,
# lang_fun's occurrence sets, canonical-form check and substitution, and the
# printers, and a long literal list such as a 20,000-element `fun` list
# needs more headroom than the default stack limit.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

Config = Any
ResultConfig = Any


# ---------------------------------------------------------------------------
# Rule applications
# ---------------------------------------------------------------------------

# Built once per rule instance: slotted, with a constructor that sets the
# slots directly.
@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Conclude:
    """A rule instance with no remaining premises; carries the conclusion."""

    result: ResultConfig


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Need:
    """A rule instance waiting on one premise.

    `rest` consumes the premise's result and yields the continuation for the
    remaining premises, or None when a side condition on that premise result
    rules the instance out (e.g. an if-rule expecting the guard premise to
    evaluate to true).
    """

    premise: Config
    rest: Callable[[ResultConfig], Optional["RuleApplication"]]


RuleApplication = Conclude | Need


@dataclass(frozen=True, eq=False)
class LanguagePlugin:
    """A language: rule enumeration plus concrete-syntax adapters.

    `rules(gamma)` returns every rule instance whose conclusion configuration
    is `gamma`, in a fixed order; an empty list means `gamma` is stuck.  It
    must be a pure function of `gamma`, and each continuation `Need.rest` a
    pure function of the premise's result: derivations are memoized by
    configuration.  A continuation may be any callable.  `Conclude` itself
    marks a tail premise: the instance's results are that premise's, and
    the walker gives it no frame of its own, so a loop holds no frame per
    iteration.  A plugin that wraps its continuations derives the same
    results without that saving.
    `pretty(value, texts=None)` prints a configuration or result; `texts`
    maps terms already printed in the same report to their text, and the
    printer may use the entry of any subterm instead of printing it again,
    with the same output.  It may also enter a subterm it printed, with the
    text `pretty` gives that subterm; it changes no entry.
    """

    name: str
    rules: Callable[[Config], list]
    parse_config: Callable[[str], Config]
    pretty: Callable[..., str]


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBudget:
    max_depth: int = 64
    max_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 0 or self.max_samples < 0 or self.seed < 0:
            raise ValueError("budget fields must be non-negative")


class _Universe:
    """A distinguished set that contains every result: UNIVERSE, 'no
    information', or BUDGET_CUT, 'the depth budget cut the derivation
    here', which a spec built from derivations (`star_spec`) answers where
    it cannot tell the set.  A check against either passes every result;
    one that needs the set itself reports BUDGET_CUT as a cut."""

    def __init__(self, name: str, describe: str):
        self.name, self.describe = name, describe

    def contains(self, rho: ResultConfig) -> bool:
        return True

    def __repr__(self):
        return self.name


UNIVERSE = _Universe("Universe", "any result configuration")
BUDGET_CUT = _Universe("BudgetCut", "any result configuration (the depth "
                       "budget cut the derivation)")


@dataclass
class Constrained:
    """A proper result set: membership predicate plus a sampler.

    Every element returned by `sample` must satisfy `contains`; the engine
    re-checks and drops offenders so inferred results are never spurious.
    """

    contains: Callable[[ResultConfig], bool]
    sample: Callable[[SampleBudget], list]
    describe: str


SpecSet = Any  # UNIVERSE | BUDGET_CUT | Constrained


@dataclass
class Specification:
    """Parameterized map from configurations to result sets.

    `param_domain` is the finite domain of the global parameter; checks
    quantify over it.  Configurations the spec says nothing about map to
    UNIVERSE, and those where a depth budget kept it from telling the set,
    to BUDGET_CUT.  `at`, and the `contains` and `sample` of each set it
    returns, must be pure functions of their arguments: inference memoizes
    by configuration within a walk.
    """

    param_domain: tuple
    at: Callable[[Any, Config], SpecSet]


def trivial_spec() -> Specification:
    """The everywhere-Universe specification."""
    return Specification((None,), lambda param, gamma: UNIVERSE)


def seeded_rng(seed: int, *key: object) -> random.Random:
    """Deterministic RNG derived from a seed and a structural key.

    Avoids Python's salted str hash so runs are reproducible across
    processes.
    """
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# The derivation engine
# ---------------------------------------------------------------------------

# Every derivation memo belongs to one walk, one check or one `star` spec.
# This empty tuple is kept only for `perfbench/worker.py`, which reports its
# length as `kernel.memo_entries` (ROADMAP item 1).
_DERIVE_CACHE = ()

_OPEN = object()  # no value yet: the configuration needs a frame


def _gc_paused(walk):
    """`walk` with the cyclic garbage collector paused while it runs.

    A walk keeps every memo entry it stores alive until it returns, and
    every suspended frame until it is answered.  A frame that only waits
    on its tail premise is not suspended, but its height, flag and memo
    key wait on the premise's frame.  So each full collection during a long
    derivation re-traverses a heap that only grows, and the walk's time
    grows faster than its length.  The pause defers no garbage: walks
    create no reference cycles (reference counting frees what they drop,
    the walk's own memo table included, when it returns), and cycles a
    plugin creates are collected once the walk returns.  A caller, or an
    outer walk, that already turned the collector off keeps it off.
    """

    def paused(*args, **kwargs):
        if not gc.isenabled():
            return walk(*args, **kwargs)
        gc.disable()
        try:
            return walk(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_gc_paused
def _walk(plugin, gamma, depth, memo=None, candidates=None):
    """Walk the derivations of `gamma` within `depth`, on an explicit stack.

    Every frame is answered with (results, exhausted, height): `height` is
    the derivation's height if it is not exhausted and the budget it was
    cut at if it is.  Heights: a configuration with no rule instance has
    height 0, an instance with no premise counts 1, and a frame 1 + the
    largest height of the premises it opened (memo hits at their stored
    height).

    One memo rule serves every walk.  `memo` keeps the answer of each
    frame no depth cut, keyed by configuration: it is a check's table (or
    the `star` spec's), handed to each of its walks, so it serves one
    plugin and is dropped with the check.  Without one, the walk memoizes
    on a table of its own, dropped when it returns.  An answer holds for
    every budget from its height up, with the same results in the same
    order: a lookup within the budget is a hit and calls no rules, and one
    below the height walks again and keeps the entry.  The walk keeps its
    frames' cut answers in `cut`, keyed by (configuration, depth), until
    it returns.  An answer known when opened (depth 0, an axiom instance,
    no rule instance) is stored nowhere: the one `rules` call a hit would
    save gives it again.

    A derivation on a table of its own stores a frame's answer, in the
    table or in `cut`, only from its configuration's second opening: it
    records the hash of each configuration it opens a frame for, and a
    frame whose hash is new carries no key.  So a configuration opened
    once, as every one of a long loop is, leaves no entry, and no frame
    holds it while a tail chain waits.  Each configuration is derived at
    most once more than if its first answer were stored, so no cost grows
    by more than a factor of 2.  (Two configurations with one hash only
    make the second store sooner.)  Two kinds of walk store from the first
    opening.  A handed-in table exists to answer the check's later walks:
    the second-opening rule there raised the metatheory benchmark's
    `rules` calls by 83%.  Inference's answers are traces, which reports
    list once per object: under the second-opening rule the traces of a
    naive `fib 20` grow from 386 distinct nodes to 676.

    What `results` holds depends on `candidates`:

    - None (derivation): a tuple of every result.
    - A hook (inference): {result: InferTrace}.  A premise takes the
      (result, None) pairs that `candidates(premise)` lists or, when that
      is None, every result inferred for it below.  A memo hit hands on
      the premise's traces themselves, so traces may share sub-traces.

    Under derivation, a tail premise takes no frame: when a frame's only
    work left is a premise whose continuation is `Conclude` itself, and
    that premise needs a frame, the frame's results are the premise's.
    The frame is not suspended; it is answered when the premise is, from
    its exhausted flag and height so far, so a loop of n iterations holds
    no frame per iteration.  (Under inference each level wraps the
    premise's traces in its own.)

    Work is done in exactly the order of a recursive walk that tries rule
    instances in order, derives a premise fully before feeding its results
    one at a time to `rest`, and finishes each continuation before the
    next result, so results, traces and every plugin and candidate call
    come in the same order; the one call a tail premise skips is its
    `Conclude`.
    """
    rules = plugin.rules
    infer = candidates is not None
    # The hashes of the configurations this walk opened a frame for, if it
    # stores an answer only from its configuration's second opening.
    opened_before = set() if memo is None and not infer else None
    if memo is None:
        memo = {}
    # The frame being worked on lives in locals: `top` is its (gamma, depth,
    # memo key), the key None where its answer is not stored; its work is
    # `agenda`, a LIFO of resume points.  A resume point (need, steps, rule
    # index, candidates, position) feeds a premise's next candidate to
    # `need.rest`, and the continuation it returns is worked on at once;
    # `steps` are the PremiseSteps taken so far (inference only), and
    # candidates are a premise's results, as (result, sub-trace or None)
    # pairs under inference.  The bottom resume point, put there when the
    # frame opens, has need None: its candidates are the frame's rule
    # instances and its position the rule index, so an instance's resume
    # points are drained before the next instance starts.  `height` is the
    # frame's height so far, and its depth once a premise is cut.  `out`
    # maps each result to its InferTrace (inference) or None, in
    # first-found order.  `waiting` is the (need, steps, rule index) of the
    # premise being derived below.  `fwd` lists the frames whose tail
    # premise this frame is, outermost first, as (height, exhausted, memo
    # key, depth).  Suspended frames are saved on `stack`.
    stack: list = []
    top = None
    fwd: Any = ()
    cut: dict = {}
    while True:
        # Open `gamma` at `depth`: its value is known at once, or it gets a
        # frame of its own.
        value = _OPEN
        hit = memo.get(gamma)
        if hit is not None and hit[2] <= depth:
            value = hit
        elif cut:
            value = cut.get((gamma, depth), _OPEN)
        if value is _OPEN:
            opened = rules(gamma)
            if depth <= 0 or not opened:
                value = ({} if infer else (), bool(opened), 0)
            elif len(opened) == 1 and isinstance(opened[0], Conclude):
                # An axiom instance needs no frame.
                r = opened[0].result
                value = (({r: InferTrace(gamma, r, 0, ())} if infer
                          else (r,)), False, 1)
        if value is _OPEN:
            if top is not None:
                if (not infer and waiting[0].rest is Conclude and not out
                        and not agenda):
                    # A tail premise: the frame only waits for its answer.
                    if not fwd:
                        fwd = []
                    fwd.append((height, exhausted, top[2], top[1]))
                else:
                    stack.append((top, agenda, out, exhausted, height,
                                  waiting, fwd))
                    fwd = ()
            key = gamma
            if opened_before is not None:
                h = hash(gamma)
                if h not in opened_before:
                    opened_before.add(h)
                    key = None  # a first opening: its answer is not stored
            top, agenda = (gamma, depth, key), [(None, (), 0, opened, 0)]
            out, exhausted, height = {}, False, 1

        while True:
            if value is not _OPEN:
                # `value` answers the premise the frame waits on.
                if top is None:
                    return value
                sub, ex, h = value
                exhausted = exhausted or ex
                if h >= height:
                    height = h + 1
                if sub:
                    agenda.append(waiting + (
                        list(sub.items()) if infer else sub, 0))
                value = _OPEN

            gamma = None
            while agenda:
                need, steps, idx, cands, pos = agenda.pop()
                if pos + 1 < len(cands):
                    agenda.append((need, steps, idx, cands, pos + 1))
                r = cands[pos]
                if need is None:  # the frame's next rule instance
                    app, idx = r, pos
                else:
                    if infer:
                        r, sub = r
                        steps += (PremiseStep(need.premise, r, sub),)
                    app = need.rest(r)
                    if app is None:
                        continue
                if isinstance(app, Conclude):
                    r = app.result
                    if not infer:
                        out[r] = None
                    elif r not in out:
                        out[r] = InferTrace(top[0], r, idx, steps)
                    continue
                if infer and (cands := candidates(app.premise)) is not None:
                    if cands:
                        agenda.append((app, steps, idx, cands, 0))
                    continue
                waiting = (app, steps, idx)
                gamma, depth = app.premise, top[1] - 1
                break
            if gamma is not None:
                break  # open the premise

            value = (out if infer else tuple(out), exhausted, height)
            if top[2] is not None:
                if exhausted:
                    cut[top[2], top[1]] = value
                else:
                    memo[top[2]] = value
            # Answer the frames this one is the tail premise of, innermost
            # first: the same results, under their own flag and height.
            results, ex, h = value
            for entry in reversed(fwd):
                h = max(entry[0], h + 1)
                ex = entry[1] or ex
                value = (results, ex, h)
                if entry[2] is not None:
                    if ex:
                        cut[entry[2], entry[3]] = value
                    else:
                        memo[entry[2]] = value
            if stack:
                top, agenda, out, exhausted, height, waiting, fwd = stack.pop()
            else:
                top = None


def derive_all(plugin: LanguagePlugin, gamma: Config, budget: SampleBudget):
    """All results derivable from `gamma` within the depth budget.

    Returns (results, exhausted).  Depth counts nested rule applications
    (tree height).  `exhausted` is set iff some branch was cut by the depth
    bound, so an empty result with exhausted=False certifies that `gamma`
    has no derivation at all.

    The walk memoizes by `_walk`'s rule on a table of its own, so a
    second call derives again.
    """
    return _walk(plugin, gamma, budget.max_depth)[:2]


def derive_one(plugin: LanguagePlugin, gamma: Config,
               budget: SampleBudget) -> Optional[ResultConfig]:
    """The first result of `derive_all`'s walk, or None when that walk
    finds no result (`gamma` is stuck, or the budget cut every derivation).

    It is `derive_all`'s walk, results in the same order, memo and all.
    """
    results = _walk(plugin, gamma, budget.max_depth)[0]
    return results[0] if results else None


# ---------------------------------------------------------------------------
# Specification-aware inference
# ---------------------------------------------------------------------------

@hash_once
class PremiseStep(Node):
    """One premise of an applied rule instance and its result: inferred
    by the trace `sub`, or sampled from the spec when `sub` is None."""

    config: Config
    result: ResultConfig
    sub: Optional["InferTrace"]


@hash_once
class InferTrace(Node):
    """A completed rule instance: enough to replay the inferred result.
    A `Node`, so hashing and comparing a derivation-deep trace is safe."""

    config: Config
    result: ResultConfig
    rule_index: int
    premises: tuple[PremiseStep, ...]


def infer_results(plugin, spec, param, gamma, budget):
    """Results inferable from `gamma` with the specification's help.

    Symbolic execution: premises whose spec entry is Universe are inferred
    recursively; premises with a constrained entry draw candidate results
    from the entry's sampler instead (recursion cut off): the walker's
    candidate hook keeps a sampled candidate once, and only if it is a
    member, so every returned result genuinely satisfies the inference
    relation.

    Returns ({result: InferTrace}, exhausted), results in the order they
    were found; a result reached in several ways keeps its first trace.
    The walk infers each sub-configuration once, on a memo table of its
    own, so the traces of a configuration reached again are shared: the
    traces form a DAG.  Nothing is kept after the walk returns, because
    an answer depends on the spec and the parameter.
    """

    def candidates(premise):
        sset = spec.at(param, premise)
        if not isinstance(sset, Constrained):
            return None
        kept: dict = {}  # member -> None: a sampled result has no trace
        for c in sset.sample(budget):
            if c not in kept and sset.contains(c):
                kept[c] = None
        return list(kept.items())

    return _walk(plugin, gamma, budget.max_depth,
                 candidates=candidates)[:2]


def _children_first(root, done, replaying=False):
    """`root` and the traces its premises name, each distinct one once and
    after the sub-traces of its premises, from an explicit stack: traces
    may be DAGs of derivation depth.  `done` is keyed by `id` and holds
    the traces already given; the caller enters each one it is given
    before it asks for the next.  When `replaying`, a sub-trace whose
    configuration is not its premise's is not entered: replay rejects its
    premise, and must not ask the rules of a configuration only a
    tampered trace names."""
    stack = [root]
    while stack:
        t = stack[-1]
        if id(t) in done:
            stack.pop()
            continue
        subs = [s.sub for s in t.premises
                if s.sub is not None and id(s.sub) not in done
                and not (replaying and s.sub.config != s.config)]
        if subs:
            stack.extend(reversed(subs))
            continue
        stack.pop()
        yield t


def replay_trace(plugin: LanguagePlugin,
                 trace: InferTrace) -> Optional[ResultConfig]:
    """Re-run a trace through the plugin's rules; None if it does not replay.

    Sampled premise results are taken at face value; inferred ones are
    replayed before the trace that takes them, children first as reports
    list them, with one `rules` call per distinct trace node.  A sub-trace
    must start at its premise's configuration, and each premise compares
    its result with the one its sub-trace's replay gave.
    """
    replayed: dict = {}  # id(trace) -> its result: traces may be DAGs
    for t in _children_first(trace, replayed, replaying=True):
        apps = plugin.rules(t.config)
        if t.rule_index >= len(apps):
            return None
        app = apps[t.rule_index]
        for step in t.premises:
            if not isinstance(app, Need) or app.premise != step.config:
                return None
            if step.sub is not None and (
                    step.sub.config != step.config
                    or replayed[id(step.sub)] != step.result):
                return None
            app = app.rest(step.result)
            if app is None:
                return None
        if not isinstance(app, Conclude):
            return None
        replayed[id(t)] = app.result
    return replayed[id(trace)]


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
BUDGET_EXHAUSTED = "budget_exhausted"
PRECONDITION_FAILED = "precondition_failed"


@dataclass(frozen=True)
class Counterexample:
    param: Any
    config: Config
    result: ResultConfig
    expected: str
    trace: Optional[InferTrace]


@dataclass
class CheckReport:
    status: str
    counterexamples: list
    stats: dict

    def to_dict(self, plugin: LanguagePlugin) -> dict:
        """The report as plain data, flat however deep its traces are.

        `terms` lists printed configurations and results, each once;
        `traces` lists trace nodes, each once, as {"config", "result",
        "rule_index", "premises"}, a premise being [config, result, trace]
        with trace None when the result was sampled.  Those numbers index
        `terms` and `traces`, and a trace comes after every trace it
        refers to.  A counterexample carries its printed config and result
        and the index of its trace, or None.
        """
        texts: dict = {}  # term -> its text, for the printers to reuse
        term_ids: dict = {}
        terms: list = []
        trace_ids: dict = {}  # id(trace) -> index: traces are never hashed
        traces: list = []

        def text(node):
            t = texts.get(node)
            if t is None:
                t = texts[node] = plugin.pretty(node, texts)
            return t

        def term(node):
            i = term_ids.get(node)
            if i is None:
                i = term_ids[node] = len(terms)
                terms.append(text(node))
            return i

        def trace(root):
            for t in _children_first(root, trace_ids):
                premises = [[term(s.config), term(s.result),
                             None if s.sub is None else trace_ids[id(s.sub)]]
                            for s in t.premises]
                trace_ids[id(t)] = len(traces)
                traces.append({"config": term(t.config),
                               "result": term(t.result),
                               "rule_index": t.rule_index,
                               "premises": premises})
            return trace_ids[id(root)]

        counterexamples = []
        for cx in self.counterexamples:
            index = None if cx.trace is None else trace(cx.trace)
            counterexamples.append({
                "param": repr(cx.param),
                "config": text(cx.config),
                "result": text(cx.result),
                "expected": cx.expected,
                "trace": index,
            })
        return {
            "status": self.status,
            "counterexamples": counterexamples,
            "stats": self.stats,
            "traces": traces,
            "terms": terms,
        }


def _tally(rows, cexs=(), exhausted=False) -> CheckReport:
    """The membership check every checker makes, over rows (param, config,
    candidates, set, exhausted): the candidate results at `config` as
    (result, trace or None) pairs, the set they must lie in, and whether
    the budget cut the walk that found them.  Each row is a configuration
    checked, each candidate a result, each non-member a counterexample, in
    row order after `cexs`; `exhausted` is a cut found before the rows."""
    cexs = list(cexs)
    checked = total = 0
    for param, gamma, candidates, sset, ex in rows:
        checked += 1
        exhausted = exhausted or ex
        for rho, trace in candidates:
            total += 1
            if not sset.contains(rho):
                cexs.append(Counterexample(param, gamma, rho, sset.describe,
                                           trace))
    status = FAIL if cexs else BUDGET_EXHAUSTED if exhausted else PASS
    return CheckReport(status, cexs, {"configs_checked": checked,
                                      "results_inferred": total,
                                      "depth_hit": exhausted})


def _reachable(plugin, corpus, budget, memo) -> tuple[list, bool]:
    """Configurations touched while deriving the corpus on the check's
    table `memo`, in visit order: those whose rules the walks enumerated.
    A memo hit enumerates none, and within one check its configurations
    were enumerated when it was made: the harvest is a check's first walk.
    And whether the budget cut a walk, so that some may be missing."""
    visited: dict = {}
    rules = plugin.rules

    def visit(gamma):
        visited[gamma] = None  # a repeat keeps its first place
        return rules(gamma)

    harvest = replace(plugin, rules=visit)
    cut = [_walk(harvest, gamma, budget.max_depth, memo)[1]
           for gamma in corpus]
    return list(visited), any(cut)


def _targets(plugin, spec, corpus, budget, memo) -> tuple[list, bool]:
    """For each parameter, in domain order, (param, [(config, set)]): the
    corpus configs and the harvested ones with a constrained entry.  And
    whether a budget cut the harvest or the spec (BUDGET_CUT) at one of
    them, so that some may go unchecked."""
    reachable, cut = _reachable(plugin, corpus, budget, memo)
    configs = dict.fromkeys(corpus + reachable)
    targets = []
    for param in spec.param_domain:
        pairs = []
        for gamma in configs:
            sset = spec.at(param, gamma)
            if isinstance(sset, Constrained):
                pairs.append((gamma, sset))
            cut = cut or sset is BUDGET_CUT
        targets.append((param, pairs))
    return targets, cut


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _verif_rows(plugin, spec, targets, budget):
    """`check_verif`'s rows: the results inferred at each target."""
    for param, pairs in targets:
        for gamma, sset in pairs:
            traced, ex = infer_results(plugin, spec, param, gamma, budget)
            yield param, gamma, traced.items(), sset, ex


def check_verif(plugin, spec, corpus, budget) -> CheckReport:
    """Empirical check of the verification condition.

    For every parameter value and every constrained configuration reachable
    from the corpus, asserts that each inferred result is a member of the
    spec's set there.  A fail is a real violation (counterexamples replay);
    a pass is evidence within the budget, not proof.  Where the budget cut
    the harvest, or the spec answers BUDGET_CUT at a configuration it
    reached, configurations may have gone unchecked: the depth is hit.
    """
    targets, cut = _targets(plugin, spec, list(corpus), budget, {})
    return _tally(_verif_rows(plugin, spec, targets, budget), exhausted=cut)


def check_valid(plugin, spec, corpus, budget) -> CheckReport:
    """Empirical check of validity: derived results are members throughout."""
    return _check_valid(plugin, spec, list(corpus), budget, {})


def _check_valid(plugin, spec, corpus, budget, memo) -> CheckReport:
    """`check_valid`, its derivations on the check's table `memo`."""

    def rows():
        for param in spec.param_domain:
            for gamma in corpus:
                results, ex = _walk(plugin, gamma, budget.max_depth, memo)[:2]
                yield (param, gamma, [(r, None) for r in results],
                       spec.at(param, gamma), ex)

    report = _tally(rows())
    # Traces come from inference under the trivial spec, which coincides
    # with derivation: once for each configuration with a bad result.
    traced: dict = {}
    for i, cx in enumerate(report.counterexamples):
        if cx.config not in traced:
            traced[cx.config] = infer_results(plugin, trivial_spec(), None,
                                              cx.config, budget)[0]
        report.counterexamples[i] = replace(
            cx, trace=traced[cx.config].get(cx.result))
    return report


def check_soundness_crosscheck(plugin, spec, corpus, budget) -> CheckReport:
    """Self-test of the engine against the soundness metatheory.

    Requires check_verif to pass on the corpus first.  Then (a) re-checks
    validity, and (b) checks instance-wise that every derived (config,
    result) pair is reproduced by inference when each constrained set also
    samples the derived results (`_derivation_informed`).  A failure here
    points at an engine bug, not a spec bug.
    """
    corpus, memo = list(corpus), {}
    targets, cut = _targets(plugin, spec, corpus, budget, memo)
    pre = _tally(_verif_rows(plugin, spec, targets, budget), exhausted=cut)
    if pre.status == FAIL:
        return CheckReport(PRECONDITION_FAILED, pre.counterexamples, pre.stats)

    valid = _check_valid(plugin, spec, corpus, budget, memo)
    informed = _derivation_informed(plugin, spec, memo)

    def rows():
        for param, pairs in targets:
            configs = dict.fromkeys(gamma for gamma, _ in pairs)
            for gamma in [*configs, *(g for g in corpus if g not in configs)]:
                derived, ex = _walk(plugin, gamma, budget.max_depth, memo)[:2]
                inferred = infer_results(plugin, informed, param, gamma,
                                         budget)[0]
                reproduced = Constrained(
                    inferred.__contains__, lambda b, _i=inferred: list(_i),
                    "reproducible by inference with derivation-informed "
                    "sampling")
                yield (param, gamma, [(r, None) for r in derived],
                       reproduced, ex)

    report = _tally(rows(), valid.counterexamples, valid.stats["depth_hit"])
    report.stats["results_inferred"] = valid.stats["results_inferred"]
    return report


def _derivation_informed(plugin, spec, memo) -> Specification:
    """`spec` whose constrained sets sample, after the spec's candidates,
    the configuration's derived results, derived on the check's table
    `memo`; `contains` is the spec's, so the membership filter still
    applies to both."""

    def at(param, gamma):
        sset = spec.at(param, gamma)
        if not isinstance(sset, Constrained):
            return sset
        return Constrained(sset.contains, lambda b: [
            *sset.sample(b), *_walk(plugin, gamma, b.max_depth, memo)[0]],
            sset.describe)

    return Specification(spec.param_domain, at)


def star_spec(plugin, budget, param_domain=(None,)) -> Specification:
    """The most informative specification, bounded by the budget.

    Maps every configuration to its derivable results at the budget's
    depth, or to BUDGET_CUT where the budget cut them.  The parameter is
    ignored; `param_domain` lets it be compared with parameterized specs.
    Its lookups derive on one table of its own, dropped with the spec.
    """
    memo: dict = {}

    def at(param, gamma):
        results, cut = _walk(plugin, gamma, budget.max_depth, memo)[:2]
        if cut:
            return BUDGET_CUT
        members = frozenset(results)
        return Constrained(
            contains=lambda r, _m=members: r in _m,
            sample=lambda b, _r=results: list(_r),
            describe="all derivable results (depth <= %d)" % budget.max_depth,
        )

    return Specification(tuple(param_domain), at)


def spec_refines(s1: Specification, s2: Specification, corpus,
                 budget) -> CheckReport:
    """Sampled check that s2 is at least as informative as s1.

    Samples s2's sets over the corpus and asserts containment in s1's sets.
    Configurations where s2 has no proper set cannot be sampled and are
    skipped; where that set is BUDGET_CUT, the depth is hit.
    """
    if tuple(s1.param_domain) != tuple(s2.param_domain):
        raise ValueError("specifications must share a parameter domain")
    rows, cut = [], False
    for param in s1.param_domain:
        for gamma in corpus:
            set2 = s2.at(param, gamma)
            if isinstance(set2, Constrained):
                kept = [(c, None) for c in set2.sample(budget)
                        if set2.contains(c)]
                rows.append((param, gamma, kept, s1.at(param, gamma), False))
            cut = cut or set2 is BUDGET_CUT
    return _tally(rows, exhausted=cut)
