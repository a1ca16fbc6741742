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
from dataclasses import dataclass
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
    configuration.  A continuation may be any callable, `Conclude` itself
    included.
    `pretty(value, texts=None)` prints a configuration or result; `texts`
    maps terms already printed in the same report to their text, and the
    printer may use the entry of any subterm instead of printing it again,
    with the same output.  It may also enter a subterm it printed, with the
    text `pretty` gives that subterm; it changes no entry.
    Plugins compare and hash by identity: the derivation memo is keyed by
    the plugin object, so two plugins sharing a name never share results.
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
    """The distinguished 'no information' set: contains every result."""

    describe = "any result configuration"

    def contains(self, rho: ResultConfig) -> bool:
        return True

    def __repr__(self):
        return "Universe"


UNIVERSE = _Universe()


@dataclass
class Constrained:
    """A proper result set: membership predicate plus a sampler.

    Every element returned by `sample` must satisfy `contains`; the engine
    re-checks and drops offenders so inferred results are never spurious.
    """

    contains: Callable[[ResultConfig], bool]
    sample: Callable[[SampleBudget], list]
    describe: str


SpecSet = Any  # _Universe | Constrained


@dataclass
class Specification:
    """Parameterized map from configurations to result sets.

    `param_domain` is the finite domain of the global parameter; checks
    quantify over it.  Configurations the spec says nothing about map to
    UNIVERSE.
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

# Derivation memo shared across walks by the checks that look the same
# configurations up again (`check_valid`, the crosscheck and the `star`
# spec, through `_derive_shared`); its entries live as long as the process.
# Every other walk (`derive_all`, so `run` and `derive`, and the harvest)
# memoizes on a table of its own, dropped when the walk returns.
# Either table maps (plugin, config) -> (results, False, height), one entry
# per configuration, stored only for a derivation that no depth cut.  Such a
# derivation gives the same results, in the same order, at every budget from
# its height up, so its entry answers all of them.  A lookup below the
# height derives again and keeps the entry.  A cut answer is kept only by
# the walk that made it, for the same configuration at the same depth.
_DERIVE_CACHE: dict[tuple, tuple[tuple, bool, int]] = {}

_OPEN = object()  # no value yet: the configuration needs a frame


def _gc_paused(walk):
    """`walk` with the cyclic garbage collector paused while it runs.

    A walk keeps every memo entry and every suspended frame alive until it
    returns, so each full collection during a long derivation re-traverses
    a heap that only grows, and the walk's time grows faster than its
    length.  The pause defers no garbage: walks create no reference cycles
    (reference counting frees what they drop, the walk's own memo table
    included, when it returns), and cycles a plugin creates are collected
    once the walk returns.  A caller, or an outer walk, that already turned
    the collector off keeps it off.
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
def _walk(plugin, gamma, depth, policy, memo=None, visit=None,
          candidates=None):
    """Walk the derivations of `gamma` within `depth`, on an explicit stack.

    Every frame, under every premise policy, is answered with (results,
    exhausted, height): `height` is the derivation's height if it is not
    exhausted and the budget it was cut at if it is.  Heights: a
    configuration with no rule instance has height 0, an instance with no
    premise counts 1, and a frame 1 + the largest height of the premises it
    opened (memo hits at their stored height).  The premise policy picks
    what `results` holds:

    - "all": a tuple of every result.  `memo` keeps each derivation no
      depth cut, keyed by (plugin, configuration), and answers a lookup
      from an entry whose height is within the budget; without one, the
      walk memoizes on a table of its own, dropped when it returns.  The
      walk keeps its cut answers in `cut`, keyed by (memo key, depth),
      until it returns.  `visit`, when given, is called on every
      configuration opened, in order; a memo hit opens nothing, and within
      one walk its configurations were visited when the entry was made.
    - "first": the "all" walk without a memo, each frame stopping at its
      first result, so a tuple of at most one.  Depth 0 is cut without
      enumerating rules.
    - "spec": {result: InferTrace}.  A premise takes the (result, None)
      pairs that `candidates(premise)` lists or, when that is None, every
      result inferred for it below.

    Work is done in exactly the order of a recursive walk that tries rule
    instances in order, derives a premise fully before feeding its results
    one at a time to `rest`, and finishes each continuation before the
    next result, so results, traces and every plugin and candidate call
    come in the same order.
    """
    rules = plugin.rules
    first, infer = policy == "first", policy == "spec"
    if policy == "all" and memo is None:
        memo = {}
    # The frame being worked on lives in locals: `top` is its (gamma,
    # depth, memo key); its rule instances `apps` start in order, `nxt`
    # indexing the next one; resume points they leave go on `agenda`, a
    # LIFO drained before the next instance starts.  A resume point (need,
    # steps, rule index, candidates, position) feeds a premise's next
    # candidate to `need.rest`, and the continuation it returns is worked
    # on at once; `steps` are the PremiseSteps taken so far (spec policy
    # only), and candidates are a premise's results, as (result, sub-trace
    # or None) pairs under the spec policy.  `height` is the frame's height
    # so far, and its depth once a premise is cut.  `out` maps each result
    # to its InferTrace (spec) or None, in first-found order.  `waiting` is
    # the (need, steps, rule index) of the premise being derived below.
    # Suspended frames are saved on `stack`.
    stack: list = []
    top = None
    cut: dict = {}
    while True:
        # Open `gamma` at `depth`: its value is known at once, or it gets a
        # frame of its own.
        key = None
        value = _OPEN
        if first and depth <= 0:
            value = ((), True, 0)
        else:
            if memo is not None:
                key = (plugin, gamma)
                hit = memo.get(key)
                if hit is not None and hit[2] <= depth:
                    value = hit
                elif cut:
                    value = cut.get((key, depth), _OPEN)
            if value is _OPEN:
                if visit is not None:
                    visit(gamma)
                opened = rules(gamma)
                if depth <= 0:
                    value = ({} if infer else (), bool(opened), 0)
                elif len(opened) == 1 and isinstance(opened[0], Conclude):
                    # An axiom instance needs no frame.
                    r = opened[0].result
                    value = (({r: InferTrace(gamma, r, 0, ())} if infer
                              else (r,)), False, 1)
                if memo is not None and value is not _OPEN:
                    if value[1]:
                        cut[key, depth] = value
                    else:
                        memo[key] = value
        if value is _OPEN:
            if top is not None:
                # Once all its rule instances have started, a suspended frame
                # drops them: they hold closures, and a long loop suspends a
                # frame per iteration.
                stack.append((top, apps if nxt < len(apps) else (), nxt,
                              agenda, out, exhausted, height, waiting))
            top, apps, nxt, agenda = (gamma, depth, key), opened, 0, []
            out, exhausted = {}, False
            height = 1 if opened else 0

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
            while True:
                if agenda:
                    need, steps, idx, cands, pos = agenda.pop()
                    if pos + 1 < len(cands):
                        agenda.append((need, steps, idx, cands, pos + 1))
                    r = cands[pos]
                    if infer:
                        r, sub = r
                        steps += (PremiseStep(need.premise, r, sub),)
                    app = need.rest(r)
                    if app is None:
                        continue
                elif nxt < len(apps):
                    app, steps, idx = apps[nxt], (), nxt
                    nxt += 1
                else:
                    break
                if isinstance(app, Conclude):
                    r = app.result
                    if not infer:
                        out[r] = None
                        if first:
                            break
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
            if memo is not None:
                if exhausted:
                    cut[top[2], top[1]] = value
                else:
                    memo[top[2]] = value
            if stack:
                (top, apps, nxt, agenda, out, exhausted, height,
                 waiting) = stack.pop()
            else:
                top = None


def derive_all(plugin: LanguagePlugin, gamma: Config, budget: SampleBudget):
    """All results derivable from `gamma` within the depth budget.

    Returns (results, exhausted).  Depth counts nested rule applications
    (tree height).  `exhausted` is set iff some branch was cut by the depth
    bound, so an empty result with exhausted=False certifies that `gamma`
    has no derivation at all.

    The walk derives each sub-configuration once per call, on a memo table
    of its own, and keeps nothing after it returns: a second call derives
    again.
    """
    return _walk(plugin, gamma, budget.max_depth, "all")[:2]


def _derive_shared(plugin, gamma, budget):
    """`derive_all` on the process-wide memo (`_DERIVE_CACHE`), for the
    checks that look the same configurations up again across walks."""
    return _walk(plugin, gamma, budget.max_depth, "all", _DERIVE_CACHE)[:2]


def derive_one(plugin: LanguagePlugin, gamma: Config,
               budget: SampleBudget) -> Optional[ResultConfig]:
    """First derivable result, or None (stuck or budget cut).

    Fast path for deterministic languages; any value returned is a member of
    derive_all's set for the same budget.  Its "first" policy is the
    all-walk without a memo, each frame stopping at its first result.  It
    exists because the all-walk, which tries every rule instance (both `if`
    rules, say), gave the same results 10-18% slower on the merge-verify
    `fun` inputs and 5-10% slower on the `extwhile` ones.
    """
    results = _walk(plugin, gamma, budget.max_depth, "first")[0]
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

    return _walk(plugin, gamma, budget.max_depth, "spec",
                 candidates=candidates)[:2]


def replay_trace(plugin: LanguagePlugin,
                 trace: InferTrace) -> Optional[ResultConfig]:
    """Re-run a trace through the plugin's rules; None if it does not replay.

    Sampled premise results are taken at face value; inferred ones are
    replayed, on an explicit stack, before the rule instance takes them.
    """
    stack: list = []  # suspended (trace, rule instance, premise position)
    t, pos = trace, 0
    while True:
        if pos == 0:
            apps = plugin.rules(t.config)
            if t.rule_index >= len(apps):
                return None
            app = apps[t.rule_index]
        if pos < len(t.premises):
            step = t.premises[pos]
            if not isinstance(app, Need) or app.premise != step.config:
                return None
            if step.sub is not None:
                stack.append((t, app, pos))
                t, pos = step.sub, 0
                continue
            result = step.result
        else:
            if not isinstance(app, Conclude):
                return None
            if not stack:
                return app.result
            result = app.result
            t, app, pos = stack.pop()
            if result != t.premises[pos].result:
                return None
        app = app.rest(result)
        if app is None:
            return None
        pos += 1


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
            # Children before parents, from an explicit stack: a trace is
            # added once the traces of all its premises are.
            stack = [root]
            while stack:
                t = stack[-1]
                if id(t) in trace_ids:
                    stack.pop()
                    continue
                subs = [s.sub for s in t.premises
                        if s.sub is not None and id(s.sub) not in trace_ids]
                if subs:
                    stack.extend(reversed(subs))
                    continue
                stack.pop()
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


def _report(counterexamples, exhausted, stats) -> CheckReport:
    if counterexamples:
        status = FAIL
    elif exhausted:
        status = BUDGET_EXHAUSTED
    else:
        status = PASS
    return CheckReport(status, counterexamples, stats)


def _reachable(plugin, corpus, budget) -> list:
    """Configurations touched while deriving the corpus, in visit order."""
    visited: dict = {}
    for gamma in corpus:
        _walk(plugin, gamma, budget.max_depth, "all", visit=visited.setdefault)
    return list(visited)


def _targets(plugin, spec, param, corpus, reachable):
    """Corpus configs plus harvested sub-configs with a constrained entry."""
    out = []
    for gamma in dict.fromkeys(list(corpus) + reachable):
        sset = spec.at(param, gamma)
        if isinstance(sset, Constrained):
            out.append((gamma, sset))
    return out


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_verif(plugin, spec, corpus, budget) -> CheckReport:
    """Empirical check of the verification condition.

    For every parameter value and every constrained configuration reachable
    from the corpus, asserts that each inferred result is a member of the
    spec's set there.  A fail is a real violation (counterexamples replay);
    a pass is evidence within the budget, not proof.
    """
    corpus = list(corpus)
    return _check_verif(plugin, spec, corpus, budget,
                        _reachable(plugin, corpus, budget))


def _check_verif(plugin, spec, corpus, budget, reachable) -> CheckReport:
    cexs: list = []
    exhausted = False
    checked = inferred_total = 0
    for param in spec.param_domain:
        for gamma, sset in _targets(plugin, spec, param, corpus, reachable):
            traced, ex = infer_results(plugin, spec, param, gamma, budget)
            exhausted = exhausted or ex
            checked += 1
            inferred_total += len(traced)
            for rho, trace in traced.items():
                if not sset.contains(rho):
                    cexs.append(Counterexample(param, gamma, rho,
                                               sset.describe, trace))
    stats = {"configs_checked": checked, "results_inferred": inferred_total,
             "depth_hit": exhausted}
    return _report(cexs, exhausted, stats)


def check_valid(plugin, spec, corpus, budget) -> CheckReport:
    """Empirical check of validity: derived results are members throughout."""
    corpus = list(corpus)
    triv = trivial_spec()
    cexs: list = []
    exhausted = False
    checked = derived_total = 0
    for param in spec.param_domain:
        for gamma in corpus:
            results, ex = _derive_shared(plugin, gamma, budget)
            exhausted = exhausted or ex
            checked += 1
            derived_total += len(results)
            sset = spec.at(param, gamma)
            bad = [r for r in results if not sset.contains(r)]
            if bad:
                # Traces come from inference under the trivial spec, which
                # coincides with derivation.
                traced, _ = infer_results(plugin, triv, None, gamma, budget)
                for r in bad:
                    cexs.append(Counterexample(param, gamma, r, sset.describe,
                                               traced.get(r)))
    stats = {"configs_checked": checked, "results_inferred": derived_total,
             "depth_hit": exhausted}
    return _report(cexs, exhausted, stats)


def check_soundness_crosscheck(plugin, spec, corpus, budget) -> CheckReport:
    """Self-test of the engine against the soundness metatheory.

    Requires check_verif to pass on the corpus first.  Then (a) re-checks
    validity, and (b) checks instance-wise that every derived (config,
    result) pair is reproduced by inference when each constrained set also
    samples the derived results (`_derivation_informed`).  A failure here
    points at an engine bug, not a spec bug.
    """
    corpus = list(corpus)
    reachable = _reachable(plugin, corpus, budget)
    pre = _check_verif(plugin, spec, corpus, budget, reachable)
    if pre.status == FAIL:
        return CheckReport(PRECONDITION_FAILED, pre.counterexamples, pre.stats)

    cexs: list = []
    exhausted = False
    checked = 0

    valid_rep = check_valid(plugin, spec, corpus, budget)
    cexs.extend(valid_rep.counterexamples)
    exhausted = exhausted or valid_rep.stats["depth_hit"]

    informed = _derivation_informed(plugin, spec)
    for param in spec.param_domain:
        targets = [g for g, _ in _targets(plugin, spec, param, corpus,
                                          reachable)]
        seen = set(targets)
        targets = targets + [g for g in corpus if g not in seen]
        for gamma in targets:
            derived, ex = _derive_shared(plugin, gamma, budget)
            exhausted = exhausted or ex
            checked += 1
            inferred, _ = infer_results(plugin, informed, param, gamma,
                                        budget)
            missing = [r for r in derived if r not in inferred]
            for r in missing:
                cexs.append(Counterexample(
                    param, gamma, r,
                    "reproducible by inference with derivation-informed "
                    "sampling", None))
    stats = {"configs_checked": checked,
             "results_inferred": valid_rep.stats["results_inferred"],
             "depth_hit": exhausted}
    return _report(cexs, exhausted, stats)


def _derivation_informed(plugin, spec) -> Specification:
    """`spec` whose constrained sets sample, after the spec's candidates,
    the configuration's derived results; `contains` is the spec's, so the
    membership filter still applies to both."""

    def at(param, gamma):
        sset = spec.at(param, gamma)
        if not isinstance(sset, Constrained):
            return sset
        return Constrained(sset.contains, lambda b: [
            *sset.sample(b), *_derive_shared(plugin, gamma, b)[0]],
            sset.describe)

    return Specification(spec.param_domain, at)


def star_spec(plugin, budget, param_domain=(None,)) -> Specification:
    """The most informative specification, bounded by the budget.

    Maps every configuration to the set of its derivable results at the
    budget's depth.  The parameter is ignored; `param_domain` exists so the
    result can be compared against parameterized specs.
    """

    def at(param, gamma):
        results, _ = _derive_shared(plugin, gamma, budget)
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
    Configurations where s2 is Universe cannot be sampled and are skipped.
    """
    if tuple(s1.param_domain) != tuple(s2.param_domain):
        raise ValueError("specifications must share a parameter domain")
    cexs: list = []
    checked = sampled_total = 0
    for param in s1.param_domain:
        for gamma in corpus:
            set2 = s2.at(param, gamma)
            if not isinstance(set2, Constrained):
                continue
            set1 = s1.at(param, gamma)
            checked += 1
            for c in set2.sample(budget):
                if not set2.contains(c):
                    continue
                sampled_total += 1
                if not set1.contains(c):
                    cexs.append(Counterexample(param, gamma, c,
                                               set1.describe, None))
    stats = {"configs_checked": checked, "results_inferred": sampled_total,
             "depth_hit": False}
    return _report(cexs, False, stats)
