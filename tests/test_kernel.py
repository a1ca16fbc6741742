"""Engine-level properties: inference vs derivation, determinism, trace
replay, the most-informative specification, and refinement."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bigstep
from bigstep import PLUGINS, imp_syntax, kernel, lang_fun, spec_lib
from bigstep.kernel import (BUDGET_CUT, BUDGET_EXHAUSTED, UNIVERSE,
                            Conclude, Constrained, FAIL, LanguagePlugin,
                            Need, PASS, PRECONDITION_FAILED, PremiseStep,
                            SampleBudget, Specification,
                            check_soundness_crosscheck,
                            check_valid, check_verif, derive_all, derive_one,
                            infer_results, replay_trace,
                            seeded_rng, spec_refines, star_spec, trivial_spec)
from bigstep.imp_syntax import Stmt, print_stmt
from bigstep.lang_while import PLUGIN as WHILE, Assign, Seq, While, \
    WhileConfig, WhileState, parse_stmt
from bigstep.random_programs import loop_free_corpus, random_corpus
from bigstep.spec_lib import (fac_corpus, mglist_corpus, msort_corpus,
                              spec_fac, spec_fac_bad)
from bigstep.syntax import Node
from schema1 import expand
from test_engine_reference import (CHOICE, _ref_derive, plain_derive,
                                   ref_derive)

B = SampleBudget(max_depth=48, max_samples=8, seed=0)


def wcfg(src, state=None):
    return WhileConfig(parse_stmt(src), WhileState.of(state or {}))


# ---------------------------------------------------------------------------
# Derivation enumeration
# ---------------------------------------------------------------------------

def test_derive_all_deterministic_program_single_result():
    results, exhausted = derive_all(WHILE, wcfg("x := 1 ; y := x + 1"), B)
    assert results == (WhileState.of({"x": 1, "y": 2}),)
    assert not exhausted


def test_derive_all_flags_depth_cut_on_divergence():
    results, exhausted = derive_all(WHILE, wcfg("while true do skip"), B)
    assert results == () and exhausted


def test_derive_all_empty_without_exhaustion_certifies_no_derivation():
    from bigstep.lang_fun import FVar
    results, exhausted = derive_all(PLUGINS["fun"], FVar("x"), B)
    assert results == () and not exhausted


def test_derive_one_result_is_member_of_derive_all():
    for i in range(40):
        g = random_corpus("while", 1, 100 + i)[0]
        alls, _ = derive_all(WHILE, g, B)
        assert derive_one(WHILE, g, B) == (alls[0] if alls else None)


def test_derive_one_feeds_every_premise_result_to_the_side_condition():
    # `A`'s one rule needs `B`, whose two axioms give 1 and then 2, and its
    # side condition admits only 2.  A walk that stopped each frame at its
    # first result fed the condition 1 alone and found nothing.
    def rules(gamma):
        if gamma == "A":
            return [Need("B", lambda r: Conclude(r) if r == 2 else None)]
        return [Conclude(1), Conclude(2)] if gamma == "B" else []

    plugin = LanguagePlugin("two", rules, str, str)
    assert derive_all(plugin, "A", B) == ((2,), False)
    assert derive_one(plugin, "A", B) == 2


def test_deeper_budget_never_loses_results():
    shallow = SampleBudget(max_depth=6, max_samples=8, seed=0)
    for i in range(40):
        g = random_corpus("while", 1, 200 + i)[0]
        small, _ = derive_all(WHILE, g, shallow)
        big, _ = derive_all(WHILE, g, B)
        assert set(small) <= set(big)


def test_plugins_sharing_a_name_never_share_memoized_results():
    # Same name as the bundled plugin, different rules: every assignment
    # concludes with the state unchanged.
    def frozen_rules(gamma):
        if type(gamma.stmt).__name__ == "Assign":
            return [Conclude(gamma.state)]
        return WHILE.rules(gamma)

    frozen = replace(WHILE, rules=frozen_rules)
    assert frozen.name == WHILE.name
    g = wcfg("x := 1 ; y := x + 1")
    real, _ = derive_all(WHILE, g, B)
    other, _ = derive_all(frozen, g, B)
    assert real == (WhileState.of({"x": 1, "y": 2}),)
    assert other == (WhileState.of({}),)
    assert derive_all(WHILE, g, B)[0] == real


def _counted(plugin=WHILE):
    """A copy of the plugin (while by default) that counts its `rules`
    calls."""
    calls = [0]

    def rules(gamma):
        calls[0] += 1
        return plugin.rules(gamma)

    return replace(plugin, rules=rules), calls


def test_memo_entry_answers_from_its_height_up():
    # x=10 runs ten iterations and a last guard test: height 11.  Only the
    # answers that took a frame are stored: the loops at x=10..1.  The loop
    # at x=0 and the assignments are axiom instances, answered by the one
    # `rules` call a memo hit would save.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do x := x - 1", {"x": 10})
    done = ((WhileState.of({}),), False)
    memo: dict = {}

    def at(depth):
        return kernel._walk(plugin, g, depth, memo)[:2]

    assert at(22) == done
    assert len(memo) == 10
    assert at(10) == ((), True)
    # The cut call left the complete entries in place: they still answer.
    calls[0] = 0
    assert at(22) == done
    assert at(11) == done
    assert calls[0] == 0
    assert len(memo) == 10
    calls[0] = 0
    for depth in (16, 20, 33):
        assert at(depth) == done
    assert calls[0] == 0
    assert len(memo) == 10


def test_cut_derivation_stores_only_what_it_completed():
    # The body `x := x - 1 ; skip` takes a frame of height 2 (its two
    # statements are axiom instances).  At depth 8 the loop at x=k opens at
    # depth k-2 and its body at k-3: the bodies at x=10..5 complete, the
    # body at x=4 is cut at its assignment, so the loop at x=3 is never
    # opened, and the budget cuts every loop configuration.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do (x := x - 1 ; skip)", {"x": 10})
    memo: dict = {}

    def at(depth):
        return kernel._walk(plugin, g, depth, memo)[:2]

    def stored():
        """The x of each stored configuration, each of them a body."""
        assert all(isinstance(gamma.stmt, Seq) for gamma in memo)
        return sorted(gamma.state.get("x") for gamma in memo)

    assert at(8) == ((), True)
    assert calls[0] == 27
    assert stored() == list(range(5, 11))
    # A repeat call derives the cut configurations again (7 loops, the body
    # at x=4 and its assignment) and reads the completed bodies.
    calls[0] = 0
    assert at(8) == ((), True)
    assert calls[0] == 9
    assert stored() == list(range(5, 11))
    # The loop at x=k has height k + 2: 10 loops and 10 bodies are stored.
    assert at(11) == ((), True)
    assert at(12) == ((WhileState.of({}),), False)
    assert len(memo) == 20


def test_cut_premise_is_derived_once_per_depth_within_a_walk():
    # Both `if` rules derive the condition `f n` at the same depth, and the
    # condition recurses into the same configuration.  Rederiving the cut
    # condition for the second rule would double the work per level; the
    # walk's own table of cut answers keeps the growth linear in the depth:
    # 16 `rules` calls per 8 levels (the count repeats its steps every 8),
    # the values evaluated on the way being opened again each time.
    fun = PLUGINS["fun"]
    g = fun.parse_config("letrec f = \\n. if f n then 1 else 0 in f 0")
    counts = []
    for depth in (24, 32, 40):
        plugin, calls = _counted(fun)
        memo: dict = {}
        assert kernel._walk(plugin, g, depth, memo)[:2] == ((), True)
        # Nothing that took a frame completes; the values evaluated on the
        # way are axiom instances, stored nowhere.
        assert memo == {}
        counts.append(calls[0])
    assert counts[1] - counts[0] == counts[2] - counts[1] == 16


def test_reachable_harvest_grows_linearly_in_the_depth():
    # The harvest memoizes on the check's table, and each walk keeps its
    # cut answers, so the condition both `if` rules derive at one depth is
    # derived once.
    # A harvest that derived it again per rule doubled its work every few
    # levels of depth (6,652 `rules` calls at depth 40).  The values on the
    # way, which take no frame, cost a call each time they are opened: 16
    # calls per 8 levels, as for the derivation above.
    fun = PLUGINS["fun"]
    g = fun.parse_config("letrec f = \\n. if f n then 1 else 0 in f 0")
    counts = []
    for depth in (24, 32, 40):
        plugin, calls = _counted(fun)
        reachable, cut = kernel._reachable(
            plugin, [g], SampleBudget(max_depth=depth), {})
        assert len(reachable) == 10 and cut
        counts.append(calls[0])
    assert counts[1] - counts[0] == counts[2] - counts[1] == 16


def test_derive_all_keeps_no_memo_entry_after_it_returns():
    # The walk's own table answers repeats within the call; a second call
    # derives again.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do x := x - 1", {"x": 10})
    done = ((WhileState.of({}),), False)
    assert derive_all(plugin, g, SampleBudget(max_depth=22)) == done
    assert calls[0] == 21
    assert derive_all(plugin, g, SampleBudget(max_depth=22)) == done
    assert calls[0] == 42


def test_tail_chain_answers_every_frame_it_forwards():
    # The loop is the `Seq`'s tail premise, and each iteration's loop the
    # previous one's: the walk suspends no frame for them, and answers each
    # when the last loop returns.  Heights: the loop at x=k is k + 1, so
    # the `Seq` is 12.  Entries, for the frames only: the `Seq` and the
    # loops at x=10..1 (the loop at x=0 and the assignments are axiom
    # instances).
    plugin, calls = _counted()
    g = wcfg("s := 0 ; while 0 < x do x := x - 1", {"x": 10})
    done = ((WhileState.of({"s": 0}),), False)
    memo: dict = {}
    assert kernel._walk(plugin, g, 12, memo)[:2] == done
    assert len(memo) == 11
    heights = {gamma.state.get("x"): entry[2]
               for gamma, entry in memo.items()
               if isinstance(gamma.stmt, While)}
    assert heights == {k: k + 1 for k in range(1, 11)}
    assert kernel._walk(plugin, g, 11, memo)[:2] == ((), True)
    assert len(memo) == 11
    calls[0] = 0
    assert kernel._walk(plugin, g, 12, memo)[:2] == done
    assert calls[0] == 0


@pytest.mark.parametrize("depth", [3, 8, 64])
@pytest.mark.parametrize("lang", ["while", "extwhile", "fun"])
def test_walks_with_tail_premises_match_the_reference(lang, depth):
    # The bundled plugins pass `Conclude` itself as a tail continuation, so
    # these walks take the tail path.  Their answers, heights included, and
    # every stored entry are the recursive reference walkers', which store
    # the answers of frames only.
    plugin = PLUGINS[lang]
    memo: dict = {}
    ref_memo: dict = {}
    budget = SampleBudget(max_depth=depth)
    for gamma in random_corpus(lang, 30, 5):
        full = kernel._walk(plugin, gamma, depth)
        assert full == _ref_derive(plugin, gamma, depth, None,
                                    ({}, {}, set()))
        assert full[:2] == derive_all(plugin, gamma, budget) == \
            plain_derive(plugin, gamma, depth)
        assert derive_one(plugin, gamma, budget) == \
            (full[0][0] if full[0] else None)
        assert kernel._walk(plugin, gamma, depth, memo)[:2] == \
            ref_derive(plugin, gamma, depth, memo=ref_memo)
    assert memo == ref_memo


def test_tail_chain_members_keep_their_memo_entries():
    # Naive fib calls itself on the same argument many times.  Each call's
    # body ends in a tail premise; were those frames left out of the walk's
    # memo, the rules calls would grow exponentially in the argument.  The
    # walk stores a frame's answer from its configuration's second opening,
    # so each call is derived twice before the memo answers it: the calls
    # grow by 38 per unit of n, twice the 19 of storing from the first
    # opening, and stay linear.  The values and variables each call opens
    # take no frame and cost a call each time.
    fun = PLUGINS["fun"]
    src = (r"letrec fib = \n. if n < 2 then n else fib (n - 1) + fib (n - 2)"
           r" in fib %d")
    for n, result, count in ((15, 610, 543), (25, 75025, 923),
                             (35, 9227465, 1303)):
        plugin, calls = _counted(fun)
        g = fun.parse_config(src % n)
        assert derive_all(plugin, g, SampleBudget(max_depth=512)) == (
            (lang_fun.FNum(result),), False)
        assert calls[0] == count


def _doubling_rules(k):
    """Configuration k > 0 needs k - 1 twice and adds the two results;
    0 is an axiom with result 1.  So k derives 2 ** k."""
    if k == 0:
        return [Conclude(1)]
    return [Need(k - 1, lambda r, _k=k: Need(
        _k - 1, lambda q, _r=r: Conclude(_r + q)))]


DOUBLING = LanguagePlugin("doubling", _doubling_rules, int, str)


def test_a_walk_of_its_own_stores_an_answer_from_its_second_opening():
    # k - 1 is opened twice under k.  Its first opening is derived and not
    # stored; the second is derived again and stored, so every later
    # opening is a memo hit: 2n + 3 `rules` calls in all (the axiom 0 is
    # stored nowhere and costs a call each time it is opened).  Storing
    # from the first opening made n + 2.  A handed-in table still stores
    # from the first opening.
    for n in (2, 5, 20, 100):
        plugin, calls = _counted(DOUBLING)
        budget = SampleBudget(max_depth=n + 1)
        assert derive_all(plugin, n, budget) == ((2 ** n,), False)
        assert calls[0] == 2 * n + 3
        calls[0] = 0
        assert derive_one(plugin, n, budget) == 2 ** n
        assert calls[0] == 2 * n + 3
        calls[0] = 0
        assert kernel._walk(plugin, n, n + 1, {})[:2] == ((2 ** n,), False)
        assert calls[0] == n + 2


def test_a_long_loop_walk_of_its_own_holds_no_memo_entry_per_iteration():
    # No configuration of a loop comes up twice, so a walk on a table of
    # its own stores none of them, and its tail chain holds no
    # configuration per iteration.  Its peak allocation is then at most
    # half that of the same walk on a handed-in table, which stores every
    # frame's answer (about 0.3; it was 0.9 when every walk stored).
    import tracemalloc
    g = wcfg("s := c ; while 0 < n do (s := s + n ; n := n - 1)",
             {"c": 7, "n": 5_000})
    budget = SampleBudget(max_depth=10_010)
    end = WhileState.of({"c": 7, "n": 0, "s": 12_502_507})

    def peak(walk, expected):
        tracemalloc.start()
        try:
            assert walk() == expected
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shared = peak(lambda: kernel._walk(WHILE, g, budget.max_depth, {})[:2],
                  ((end,), False))
    assert peak(lambda: derive_all(WHILE, g, budget),
                ((end,), False)) <= shared / 2
    assert peak(lambda: derive_one(WHILE, g, budget), end) <= shared / 2


def test_memo_holds_only_the_answers_of_frames():
    # Of a 1,000-iteration loop the memo keeps the program, the 1,000 loop
    # configurations that run an iteration and their 1,000 bodies.  The
    # assignments and the loop at n=0 are axiom instances: storing them
    # would double the table and save one `rules` call per repeat.
    g = wcfg("s := c ; while 0 < n do (s := s + n ; n := n - 1)",
             {"c": 7, "n": 1000})
    memo: dict = {}
    full = kernel._walk(WHILE, g, 2000, memo)
    assert full == _ref_derive(WHILE, g, 2000, None, None)
    assert full == ((WhileState.of({"c": 7, "n": 0, "s": 500507}),),
                    False, 1003)
    assert not any(isinstance(gamma.stmt, Assign) for gamma in memo)
    loops = {gamma.state.get("n"): entry[2] for gamma, entry
             in memo.items() if isinstance(gamma.stmt, While)}
    bodies = [entry[2] for gamma, entry in memo.items()
              if isinstance(gamma.stmt, Seq) and gamma != g]
    assert loops == {n: n + 2 for n in range(1, 1001)}
    assert bodies == [2] * 1000
    assert len(memo) == 1 + len(loops) + len(bodies)


def test_repeat_lookup_of_an_axiom_costs_one_rules_call():
    # An axiom instance, and a configuration with no rule instance, are
    # answered by the one `rules` call that opens them, and stored nowhere.
    cases = [(WHILE, wcfg("x := 1"), (WhileState.of({"x": 1}),)),
             (PLUGINS["fun"], lang_fun.FVar("x"), ())]
    for base, g, results in cases:
        plugin, calls = _counted(base)
        memo: dict = {}
        for depth in (1, 8, 1):
            calls[0] = 0
            assert kernel._walk(plugin, g, depth, memo)[:2] == (results,
                                                                 False)
            assert calls[0] == 1
        assert memo == {}
        assert kernel._walk(plugin, g, 8)[:2] == plain_derive(base, g, 8)


@pytest.mark.parametrize("spec_name", sorted(spec_lib.SPECS))
def test_check_verif_leaves_the_derivation_memo_alone(spec_name):
    # The harvest derives on the check's own table, and `derive_one` and
    # inference on tables of their own, each dropped when it returns: no
    # walk reads what another stored, so a repeat check makes the same
    # `rules` calls as the first.
    lang, factory = spec_lib.SPECS[spec_name]
    (plugin, log), spec = _logged(PLUGINS[lang]), factory()
    corpus = {"while": lambda: fac_corpus(range(1, 5)),
              "extwhile": lambda: msort_corpus(3, 0),
              "fun": lambda: mglist_corpus(3, 0)}[lang]()
    budget = SampleBudget(max_depth=512, max_samples=4, seed=0)
    report = check_verif(plugin, spec, corpus, budget)
    assert report.stats["configs_checked"] > 0
    first = log[:]
    for gamma in corpus:
        assert derive_one(plugin, gamma, budget) is not None
        assert infer_results(plugin, trivial_spec(), None, gamma, budget)[0]
        for param in spec.param_domain:
            infer_results(plugin, spec, param, gamma, budget)
    log.clear()
    assert check_verif(plugin, spec, corpus, budget).stats == report.stats
    assert log == first


def test_budget_rejects_negative_fields():
    with pytest.raises(ValueError):
        SampleBudget(max_depth=-1)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def test_trivial_spec_inference_equals_derivation():
    triv = trivial_spec()
    for lang in ("while", "extwhile", "fun"):
        plug = PLUGINS[lang]
        for g in random_corpus(lang, 60, 7):
            d, _ = derive_all(plug, g, B)
            i, _ = infer_results(plug, triv, None, g, B)
            assert set(d) == set(i)


def test_inference_uses_spec_sampler_instead_of_recursing():
    # A spec that claims a specific (wrong) loop result: inference must
    # report exactly the claimed result, not the real one.
    loop = parse_stmt("while 0 < x do x := x - 1")
    claimed = WhileState.of({"x": 99})

    def at(param, gamma):
        if isinstance(gamma, WhileConfig) and gamma.stmt == loop \
                and gamma.state.get("x") > 0:
            return Constrained(contains=lambda r: r == claimed,
                               sample=lambda b: [claimed],
                               describe="claimed loop exit")
        from bigstep.kernel import UNIVERSE
        return UNIVERSE

    spec = Specification((None,), at)
    g = WhileConfig(parse_stmt("x := 3 ; while 0 < x do x := x - 1"),
                    WhileState.of({}))
    results, _ = infer_results(WHILE, spec, None, g, B)
    assert tuple(results) == (claimed,)


def test_inference_drops_sampled_candidates_outside_the_set():
    loop = parse_stmt("while 0 < x do x := x - 1")

    def at(param, gamma):
        if isinstance(gamma, WhileConfig) and gamma.stmt == loop \
                and gamma.state.get("x") > 0:
            return Constrained(
                contains=lambda r: r == WhileState.of({}),
                sample=lambda b: [WhileState.of({"x": 5}),  # violates
                                  WhileState.of({})],
                describe="loop exit with x = 0")
        from bigstep.kernel import UNIVERSE
        return UNIVERSE

    g = WhileConfig(parse_stmt("x := 2 ; while 0 < x do x := x - 1"),
                    WhileState.of({}))
    results, _ = infer_results(WHILE, Specification((None,), at), None, g, B)
    assert tuple(results) == (WhileState.of({}),)


def test_inference_is_deterministic_across_calls():
    spec = spec_fac()
    g = fac_corpus([4])[0]
    a = infer_results(WHILE, spec, None, g, B)
    b = infer_results(WHILE, spec, None, g, B)
    assert list(a[0].items()) == list(b[0].items()) and a[1] == b[1]


FIB = (r"letrec fib = \n. if n < 2 then n else fib (n - 1) + fib (n - 2) "
       r"in fib %d")
FIB_BUDGET = SampleBudget(max_depth=4096)


def _fib(n):
    return PLUGINS["fun"].parse_config(FIB % n)


def _reject_at(gamma):
    """A spec that constrains `gamma` alone, to no result: every result
    inferred there is a counterexample."""
    none = Constrained(lambda r: False, lambda b: [], "no result")
    return Specification((None,), lambda param, g: none if g == gamma
                         else UNIVERSE)


def test_inference_on_naive_fib_takes_linear_work_like_derivation():
    # Inference memoizes the answers of its frames on a table of its own,
    # as derivation does, so `fib (n - 2)` is inferred once and not again
    # under `fib (n - 1)`.  With no memo, the `rules` calls doubled about
    # every step of n, and `crosscheck` of `fib 24` took 36 s.
    counts = []
    for n in range(10, 25):
        derived, derive_calls = _counted(PLUGINS["fun"])
        inferred, infer_calls = _counted(PLUGINS["fun"])
        results, _ = derive_all(derived, _fib(n), FIB_BUDGET)
        traced, _ = infer_results(inferred, trivial_spec(), None, _fib(n),
                                  FIB_BUDGET)
        assert list(traced) == list(results)
        assert infer_calls[0] <= 3 * derive_calls[0], n
        counts.append(infer_calls[0])
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1, counts


def test_inference_and_check_verif_on_fib_leave_the_shared_memo_alone():
    # Each keeps its tables to itself: run twice, each makes the same
    # `rules` calls both times.
    (fun, log), g = _logged(PLUGINS["fun"]), _fib(20)
    logs = []
    for _ in range(2):
        log.clear()
        assert infer_results(fun, trivial_spec(), None, g, FIB_BUDGET)[0]
        logs.append(log[:])
        log.clear()
        assert check_verif(fun, _reject_at(g), [g], FIB_BUDGET).status == FAIL
        logs.append(log[:])
    assert logs[0] and logs[1]
    assert logs[:2] == logs[2:]


def _distinct_traces(trace) -> int:
    """How many trace objects `trace` holds, each shared one once."""
    seen: set = set()
    stack = [trace]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(s.sub for s in t.premises if s.sub is not None)
    return len(seen)


def test_fib_counterexample_shares_its_sub_traces_and_replays_each_once():
    # The walk's memo hands a premise inferred again the traces it already
    # has, so the counterexample's trace is a DAG of linear size; replay
    # and the report visit each of its nodes once, where walking it as a
    # tree would take exponential time.
    fun, g = PLUGINS["fun"], _fib(20)
    report = check_verif(fun, _reject_at(g), [g], FIB_BUDGET)
    (cx,) = report.counterexamples
    assert cx.result == lang_fun.FNum(6765)
    nodes = _distinct_traces(cx.trace)
    # Inference stores a frame's answer from its first opening: storing
    # from the second, as a derivation walk of its own does, would derive
    # each call twice and make 676 distinct nodes.
    assert nodes == 386
    plugin, calls = _counted(fun)
    assert replay_trace(plugin, cx.trace) == cx.result
    assert calls[0] == nodes == 386
    assert len(report.to_dict(fun)["traces"]) == nodes


def _logged(plugin):
    """A copy of the plugin that lists the configurations it is asked for
    the rules of, in call order."""
    log: list = []

    def rules(gamma):
        log.append(gamma)
        return plugin.rules(gamma)

    return replace(plugin, rules=rules), log


def test_replay_takes_trace_nodes_in_the_order_reports_list_them():
    # Both walk a trace children first, each distinct node once: the
    # configurations of a report's `traces` table are those replay asks
    # the rules of, in the same order.
    fun, g = PLUGINS["fun"], _fib(8)
    report = check_verif(fun, _reject_at(g), [g], FIB_BUDGET)
    (cx,) = report.counterexamples
    plugin, log = _logged(fun)
    assert replay_trace(plugin, cx.trace) == cx.result
    doc = report.to_dict(fun)
    assert [doc["terms"][t["config"]] for t in doc["traces"]] == \
        [fun.pretty(c) for c in log]
    assert len(log) > 20


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

def test_traces_replay_to_their_results():
    spec = spec_fac()
    for g in fac_corpus([2, 3]):
        traced, _ = infer_results(WHILE, spec, None, g,
                                  SampleBudget(64, 16, 0))
        assert traced
        for rho, trace in traced.items():
            assert replay_trace(WHILE, trace) == rho


def test_tampered_trace_does_not_replay():
    traced, _ = infer_results(WHILE, trivial_spec(), None,
                              wcfg("x := 1"), B)
    (trace,) = traced.values()
    from dataclasses import replace
    bad = replace(trace, rule_index=trace.rule_index + 5)
    assert replay_trace(WHILE, bad) is None


def test_tampered_premises_do_not_replay():
    fun = PLUGINS["fun"]
    traced, _ = infer_results(fun, trivial_spec(), None,
                              fun.parse_config("if 1 < 2 then 3 else 4"), B)
    ((result, trace),) = traced.items()
    assert replay_trace(fun, trace) == result == lang_fun.FNum(3)
    # Rule 0: the condition is true, then the `then` branch.
    assert trace.rule_index == 0
    cond, then = trace.premises
    false = lang_fun.FBool(False)
    assert cond.sub.result != false
    tampered = {
        "not the instance's premise": (
            replace(cond, config=fun.parse_config("2 < 3")), then),
        "not the sub-trace's result": (replace(cond, result=false), then),
        "a premise dropped": (cond,),
        "a premise added": (cond, then, then),
        "a sampled result rule 0 rejects": (
            PremiseStep(cond.config, false, None), then),
    }
    for name, premises in tampered.items():
        assert replay_trace(fun, replace(trace, premises=premises)) is None, \
            name


def test_a_sub_trace_of_another_configuration_does_not_replay():
    # `1 + 1`, its first premise `1` claimed to give 3 by a trace of
    # `2 + 1`: replay took the claim and concluded 4.
    fun = PLUGINS["fun"]

    def trace_of(text):
        traced, _ = infer_results(fun, trivial_spec(), None,
                                  fun.parse_config(text), B)
        ((result, trace),) = traced.items()
        return result, trace

    _, trace = trace_of("1 + 1")
    three, other = trace_of("2 + 1")
    first, second = trace.premises
    assert other.config != first.config
    bad = (replace(first, result=three, sub=other), second)
    assert replay_trace(fun, replace(trace, premises=bad)) is None


def _misplaced_sub_trace():
    """The trace of `1 + 1` with its first premise given the trace of
    `2 + 1`, and that sub-trace."""
    fun = PLUGINS["fun"]
    traced, _ = infer_results(fun, trivial_spec(), None,
                              fun.parse_config("1 + 1"), B)
    (trace,) = traced.values()
    traced, _ = infer_results(fun, trivial_spec(), None,
                              fun.parse_config("2 + 1"), B)
    ((three, other),) = traced.items()
    first, second = trace.premises
    bad = replace(trace, premises=(replace(first, result=three, sub=other),
                                   second))
    return bad, other


def test_a_sub_trace_of_another_configuration_is_not_replayed():
    # Replay goes children first, yet it never asks for the rules of a
    # configuration that only a misplaced sub-trace names.
    fun = PLUGINS["fun"]
    bad, other = _misplaced_sub_trace()
    plugin, log = _logged(fun)
    assert replay_trace(plugin, bad) is None
    assert log and other.config not in log
    assert fun.parse_config("2") not in log


def test_a_report_lists_a_sub_trace_of_another_configuration_as_given():
    # `to_dict` skipped the misplaced sub-trace, as replay does, and then
    # raised KeyError on the premise that names it.
    fun = PLUGINS["fun"]
    bad, other = _misplaced_sub_trace()
    cx = kernel.Counterexample(None, bad.config, bad.result, "none", bad)
    doc = kernel.CheckReport(FAIL, [cx], {}).to_dict(fun)
    traces, terms = doc["traces"], doc["terms"]
    root = traces[doc["counterexamples"][0]["trace"]]
    assert root is traces[-1]
    (config, result, sub), _ = root["premises"]
    assert (terms[config], terms[result]) == ("1", "3")
    assert (terms[traces[sub]["config"]], terms[traces[sub]["result"]]) == \
        (fun.pretty(other.config), "3")
    for i, t in enumerate(traces):
        assert all(p[2] is None or p[2] < i for p in t["premises"])
    plugin, log = _logged(fun)
    assert replay_trace(plugin, bad) is None
    assert other.config not in log


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def test_check_verif_passes_on_good_spec_and_fails_on_mutant():
    budget = SampleBudget(64, 16, 0)
    corpus = fac_corpus(range(1, 5))
    assert check_verif(WHILE, spec_fac(), corpus, budget).status == PASS
    rep = check_verif(WHILE, spec_fac_bad(), corpus, budget)
    assert rep.status == FAIL and rep.counterexamples


def test_check_valid_statuses():
    budget = SampleBudget(64, 16, 0)
    corpus = fac_corpus(range(1, 5))
    assert check_valid(WHILE, spec_fac(), corpus, budget).status == PASS
    assert check_valid(WHILE, spec_fac_bad(), corpus,
                       budget).status == FAIL
    shallow = SampleBudget(3, 16, 0)
    assert check_valid(WHILE, spec_fac(), corpus,
                       shallow).status == BUDGET_EXHAUSTED


def test_check_valid_traces_each_bad_configuration_once(monkeypatch):
    # Both parameters refute every result: one trivial-spec inference per
    # configuration traces the counterexamples of both.
    inferred = []
    infer = kernel.infer_results

    def counted(*args):
        inferred.append(args[3])
        return infer(*args)

    monkeypatch.setattr(kernel, "infer_results", counted)
    spec = Specification((0, 1), lambda param, gamma: Constrained(
        lambda r: False, lambda b: [], "no result"))
    corpus = fac_corpus([2, 3])
    report = check_valid(WHILE, spec, corpus, B)
    assert report.status == FAIL
    assert [(cx.param, cx.config) for cx in report.counterexamples] == \
        [(param, gamma) for param in (0, 1) for gamma in corpus]
    assert inferred == corpus
    for cx in report.counterexamples:
        assert replay_trace(WHILE, cx.trace) == cx.result
    at_0, at_1 = report.counterexamples[:6], report.counterexamples[6:]
    assert all(a.trace is b.trace for a, b in zip(at_0, at_1))


def test_check_valid_finds_every_result_but_the_first_on_choice():
    # Configuration 3 admits only its first derived result.  Its premises
    # 2 and 1 admit any result but sample none, so inference at 3 finds no
    # result and verification passes: validity, and the crosscheck through
    # it, must find the excluded results themselves.
    budget = SampleBudget(16, 8, 0)
    derived, exhausted = derive_all(CHOICE, 3, budget)
    assert len(derived) == 8 and not exhausted

    def at(param, n):
        if n == 3:
            return Constrained(lambda r: r == derived[0],
                               lambda b: [derived[0]], "first result")
        if n in (1, 2):
            return Constrained(lambda r: True, lambda b: [], "any result")
        return UNIVERSE

    spec = Specification((None,), at)
    assert check_verif(CHOICE, spec, [3], budget).status == PASS
    for check in (check_valid, check_soundness_crosscheck):
        report = check(CHOICE, spec, [3], budget)
        assert report.status == FAIL, check.__name__
        assert [(cx.config, cx.result) for cx in report.counterexamples] \
            == [(3, r) for r in derived[1:]]
        for cx in report.counterexamples:
            assert replay_trace(CHOICE, cx.trace) == cx.result


def test_crosscheck_finds_every_result_inference_misses_on_choice():
    # Configuration 2 admits only its first derived result but samples
    # none, and 1 admits any result but samples none: verification passes
    # at both, and 3 is unconstrained, so validity passes too.  With the
    # derived results sampled, inference at 3 still takes only 2's first
    # result, and misses the results of 3 that need another.
    budget = SampleBudget(16, 8, 0)
    first = derive_all(CHOICE, 2, budget)[0][0]

    def at(param, n):
        if n == 2:
            return Constrained(lambda r: r == first, lambda b: [],
                               "first result")
        if n == 1:
            return Constrained(lambda r: True, lambda b: [], "any result")
        return UNIVERSE

    spec = Specification((None,), at)
    assert check_verif(CHOICE, spec, [3], budget).status == PASS
    assert check_valid(CHOICE, spec, [3], budget).status == PASS
    report = check_soundness_crosscheck(CHOICE, spec, [3], budget)
    assert report.status == FAIL
    assert [(cx.config, cx.result) for cx in report.counterexamples] == \
        [(3, r) for r in (5, 1, 6, 8, 0)]


def _json_depth(doc) -> int:
    """How deep lists and dicts nest in `doc`: 0 for a constant."""
    deepest = 0
    stack = [(doc, 0)]
    while stack:
        x, depth = stack.pop()
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            deepest = max(deepest, depth + 1)
            stack.extend((y, depth + 1) for y in x)
    return deepest


def _digest(report, plugin=WHILE):
    """The digest of the report's schema 1 layout, pinned before schema 2
    flattened it: `expand` must give back exactly those bytes."""
    flat = report.to_dict(plugin)
    # status/counterexamples/[i]/[field], traces/[i]/premises/[j]/[slot]
    assert _json_depth(flat) <= 5
    doc = json.dumps(expand(flat), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def test_crosscheck_harvests_the_reachable_set_once(monkeypatch):
    harvests = []
    reachable = kernel._reachable

    def counted(*args):
        harvests.append(args)
        return reachable(*args)

    monkeypatch.setattr(kernel, "_reachable", counted)
    budget = SampleBudget(64, 16, 0)
    corpus = fac_corpus(range(1, 5))
    good = check_soundness_crosscheck(WHILE, spec_fac(), corpus, budget)
    assert len(harvests) == 1
    bad = check_soundness_crosscheck(WHILE, spec_fac_bad(), corpus, budget)
    assert len(harvests) == 2
    # The reports of the version that harvested twice.
    assert good.status == PASS
    assert good.stats == {"configs_checked": 17, "results_inferred": 12,
                          "depth_hit": False}
    assert _digest(good) == "fca9d15e8fa609c5"
    assert bad.status == PRECONDITION_FAILED
    assert bad.stats == {"configs_checked": 17, "results_inferred": 25,
                         "depth_hit": False}
    assert _digest(bad) == "eda24705d0b0596e"


@pytest.mark.parametrize("check", [check_valid, check_soundness_crosscheck])
def test_a_repeated_check_makes_the_same_rules_calls(check):
    # Each check derives on a table of its own, dropped when it returns,
    # so a second identical check in the same process reads nothing the
    # first stored.
    plugin, log = _logged(WHILE)
    budget = SampleBudget(64, 16, 0)
    corpus = fac_corpus(range(1, 5))
    reports, logs = [], []
    for _ in range(2):
        log.clear()
        reports.append(check(plugin, spec_fac(), corpus, budget))
        logs.append(log[:])
    assert reports[0].status == PASS
    assert reports[0].stats == reports[1].stats
    assert logs[0] and logs[0] == logs[1]


def test_crosscheck_samples_derived_results_at_constrained_premises():
    # Loop entries accept any result but sample none, so inference passes
    # a loop only with the derived results the crosscheck samples there.
    def at(param, gamma):
        if isinstance(gamma.stmt, While):
            return Constrained(lambda r: True, lambda b: [], "any result")
        return UNIVERSE

    spec = Specification((None,), at)
    corpus = fac_corpus(range(2, 5))
    budget = SampleBudget(64, 16, 0)
    g = corpus[0]
    assert infer_results(WHILE, spec, None, g, budget) == ({}, False)
    report = check_soundness_crosscheck(WHILE, spec, corpus, budget)
    assert report.status == PASS and report.stats["configs_checked"] == 16


@pytest.mark.parametrize("spec_name,corpus,status,stats,digest", [
    pytest.param("msort", lambda: msort_corpus(3, 0), PASS, (68, 9),
                 "735850d1bccc5612", id="msort"),
    pytest.param("msort-nosort", lambda: msort_corpus(3, 1),
                 PRECONDITION_FAILED, (41, 60), "4bbff2b84e88fc76",
                 id="msort-nosort"),
    pytest.param("mglist", lambda: mglist_corpus(3, 0, max_len=4), PASS,
                 (12, 3), "ccb5c593a9c40fc3", id="mglist"),
    pytest.param("mglist-len", lambda: mglist_corpus(3, 1, max_len=4),
                 PRECONDITION_FAILED, (21, 39), "3e8c5886e60cd2dd",
                 id="mglist-len"),
])
def test_crosscheck_reports_on_bundled_specs_are_pinned(
        spec_name, corpus, status, stats, digest):
    lang, factory = spec_lib.SPECS[spec_name]
    plugin = PLUGINS[lang]
    report = check_soundness_crosscheck(plugin, factory(), corpus(),
                                        SampleBudget(512, 8, 0))
    assert report.status == status
    assert report.stats == {"configs_checked": stats[0],
                            "results_inferred": stats[1], "depth_hit": False}
    assert _digest(report, plugin) == digest


_PASSED_ALL_9 = (PASS, (9, 9), "2bf09f6564f7083c")


@pytest.mark.parametrize("spec_name,corpus,valid,refines", [
    pytest.param("fac", lambda: fac_corpus(range(1, 4)), _PASSED_ALL_9,
                 _PASSED_ALL_9, id="fac"),
    pytest.param("fac-bad", lambda: fac_corpus(range(1, 4)),
                 (FAIL, (9, 9), "a666b1c73a97c0bd"),
                 (FAIL, (9, 9), "47c2cd9e40a87f66"), id="fac-bad"),
    pytest.param("msort", lambda: msort_corpus(3, 0), _PASSED_ALL_9,
                 _PASSED_ALL_9, id="msort"),
    pytest.param("msort-nosort", lambda: msort_corpus(3, 1), _PASSED_ALL_9,
                 _PASSED_ALL_9, id="msort-nosort"),
    pytest.param("mglist", lambda: mglist_corpus(3, 0, max_len=4),
                 (PASS, (3, 3), "485bfccce1de5dd8"),
                 (PASS, (3, 3), "485bfccce1de5dd8"), id="mglist"),
    pytest.param("mglist-len", lambda: mglist_corpus(3, 1, max_len=4),
                 (PASS, (3, 3), "485bfccce1de5dd8"),
                 (PASS, (3, 3), "485bfccce1de5dd8"), id="mglist-len"),
])
def test_validity_and_refinement_reports_on_bundled_specs_are_pinned(
        spec_name, corpus, valid, refines):
    # Counts and report bytes of both checkers, as the crosscheck's are.
    lang, factory = spec_lib.SPECS[spec_name]
    plugin = PLUGINS[lang]
    spec = factory()
    budget = SampleBudget(512, 8, 0)
    star = star_spec(plugin, budget, param_domain=spec.param_domain)
    for report, (status, stats, digest) in (
            (check_valid(plugin, spec, corpus(), budget), valid),
            (spec_refines(spec, star, corpus(), budget), refines)):
        assert report.status == status
        assert report.stats == {"configs_checked": stats[0],
                                "results_inferred": stats[1],
                                "depth_hit": False}
        assert _digest(report, plugin) == digest


def test_report_prints_each_node_once():
    printed = []

    def pretty(node, texts=None):
        # `texts` holds the terms printed before, in order, for reuse, and
        # the statements the printer entered there, each with its text.
        assert [k for k in texts if not isinstance(k, Stmt)] == printed
        assert all(texts[k] == print_stmt(k) for k in texts
                   if isinstance(k, Stmt))
        printed.append(node)
        return WHILE.pretty(node, texts)

    rep = check_verif(WHILE, spec_fac_bad(), fac_corpus(range(1, 5)),
                      SampleBudget(64, 16, 0))
    assert rep.status == FAIL
    doc = rep.to_dict(replace(WHILE, pretty=pretty))
    assert len(printed) == len(set(printed)) > 0
    assert doc == rep.to_dict(WHILE)


def test_report_tables_refer_backwards_and_hold_each_term_once():
    rep = check_verif(PLUGINS["fun"], spec_lib.SPECS["mglist-len"][1](),
                      mglist_corpus(3, 1, max_len=4), SampleBudget(512, 8, 0))
    assert rep.status == FAIL
    doc = rep.to_dict(PLUGINS["fun"])
    assert set(doc) == {"status", "counterexamples", "stats", "traces",
                        "terms"}
    terms, traces = doc["terms"], doc["traces"]
    assert len(set(terms)) == len(terms) > 0
    assert all(cx["trace"] is not None and 0 <= cx["trace"] < len(traces)
               for cx in doc["counterexamples"])
    for i, t in enumerate(traces):
        assert 0 <= t["config"] < len(terms) and 0 <= t["result"] < len(terms)
        for config, result, sub in t["premises"]:
            assert 0 <= config < len(terms) and 0 <= result < len(terms)
            assert sub is None or (0 <= sub < i
                                   and traces[sub]["config"] == config
                                   and traces[sub]["result"] == result)
    for cx, full in zip(rep.counterexamples, doc["counterexamples"]):
        root = traces[full["trace"]]
        assert (terms[root["config"]], terms[root["result"]]) == (
            full["config"], full["result"])
        assert full["result"] == PLUGINS["fun"].pretty(cx.result)
    assert _json_depth(doc) <= 5


def _subterms(term) -> list:
    """Every node strictly inside `term`, walked from an explicit stack."""
    out, stack = [], [term]
    while stack:
        x = stack.pop()
        if x is not term and isinstance(x, Node):
            out.append(x)
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            stack.extend(getattr(x, f) for f in x.__match_args__)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PLUGINS)), st.integers(0, 10_000),
       st.randoms(use_true_random=False))
def test_pretty_with_printed_subterms_is_pretty(lang, seed, rng):
    plugin = PLUGINS[lang]
    budget = SampleBudget(max_depth=40, max_samples=1, seed=0)
    for config in random_corpus(lang, 4, seed):
        for term in (config, *derive_all(plugin, config, budget)[0]):
            texts = {sub: plugin.pretty(sub) for sub in _subterms(term)
                     if rng.random() < 0.5}
            before = dict(texts)
            assert plugin.pretty(term, texts) == plugin.pretty(term)
            # Entries stay; an entry the printer adds is a subterm's text.
            assert texts.items() >= before.items()
            subterms = _subterms(term)
            assert all(k in subterms and v == plugin.pretty(k)
                       for k, v in texts.items())


def _statement_prints(monkeypatch, x):
    """The `print_stmt` calls `to_dict` makes for a counterexample whose
    trace is `x` loop iterations deep, and whether the document is the
    one a printer that reuses nothing gives."""
    calls = []

    def counted(s):
        calls.append(s)
        return print_stmt(s)

    reject = Specification((None,), lambda param, gamma: Constrained(
        lambda r: False, lambda b: [], "no result"))
    g = WhileConfig(COUNTDOWN, WhileState.of({"x": x}))
    report = check_valid(WHILE, reject, [g], SampleBudget(2 * x + 10, 1, 0))
    assert report.status == FAIL
    monkeypatch.setattr(imp_syntax, "print_stmt", counted)
    doc = report.to_dict(WHILE)
    monkeypatch.undo()
    plain = report.to_dict(replace(
        WHILE, pretty=lambda value, texts=None: WHILE.pretty(value)))
    return len(calls), doc == plain


def test_report_prints_each_statement_once(monkeypatch):
    # The loop's configurations hold three statements; each is printed
    # once per report, however long the trace.
    assert _statement_prints(monkeypatch, 1_000) == (
        _statement_prints(monkeypatch, 4_000)[0], True)


def test_check_reports_are_deterministic():
    budget = SampleBudget(64, 16, 3)
    corpus = fac_corpus(range(1, 5))
    r1 = check_verif(WHILE, spec_fac_bad(), corpus, budget)
    r2 = check_verif(WHILE, spec_fac_bad(), corpus, budget)
    assert r1.to_dict(WHILE) == r2.to_dict(WHILE)


# ---------------------------------------------------------------------------
# Most-informative spec and refinement
# ---------------------------------------------------------------------------

def test_star_spec_sets_are_exactly_the_derivable_results():
    star = star_spec(WHILE, B)
    g = wcfg("x := 1 ; x := x + 1")
    sset = star.at(None, g)
    want = WhileState.of({"x": 2})
    assert sset.contains(want)
    assert not sset.contains(WhileState.of({"x": 3}))
    assert sset.sample(B) == [want]


def test_star_spec_knows_no_set_where_the_budget_cut_the_derivation():
    # At depth 3 the countdown from x=5 is cut, so its derivable results
    # are unknown there: no set, not the empty one, and not the "no
    # information" of UNIVERSE either.  The loop at x=2 completes at
    # height 3, with the one result `all zero`.
    b3 = SampleBudget(max_depth=3)
    star = star_spec(WHILE, b3)
    g = wcfg("while 0 < x do x := x - 1", {"x": 5})
    cut = star.at(None, g)
    assert cut is BUDGET_CUT and cut is not UNIVERSE
    assert cut.contains(WhileState.of({"x": 7}))
    assert cut.describe != UNIVERSE.describe
    sset = star.at(None, WhileConfig(g.stmt, WhileState.of({"x": 2})))
    assert sset.sample(b3) == [WhileState.of({"x": 0})]
    # The loops at x=2..0 are checked and pass; those at x=5..3 are not,
    # so the check reports the cut, not a pass.
    report = check_verif(WHILE, star, [g], b3)
    assert report.status == BUDGET_EXHAUSTED
    assert report.counterexamples == []
    assert report.stats == {"configs_checked": 3, "results_inferred": 3,
                            "depth_hit": True}


def test_star_spec_answers_a_repeat_lookup_from_the_memo():
    plugin, calls = _counted()
    star = star_spec(plugin, B)
    g = wcfg("x := 1 ; x := x + 1")
    first = star.at(None, g)
    assert calls[0] > 0
    calls[0] = 0
    again = star.at(None, g)
    assert calls[0] == 0
    assert again.sample(B) == first.sample(B) == [WhileState.of({"x": 2})]


def test_a_second_star_spec_shares_nothing_with_the_first():
    # A `star` spec derives on a table of its own, dropped with it: its
    # repeat lookups make no `rules` call, and another spec's first
    # lookups make every call again.
    plugin, log = _logged(WHILE)
    g = wcfg("x := 3 ; while 0 < x do x := x - 1")
    star = star_spec(plugin, B)
    first = star.at(None, g)
    calls = log[:]
    assert calls
    log.clear()
    assert star.at(None, g).sample(B) == first.sample(B)
    assert log == []
    other = star_spec(plugin, B)
    assert other.at(None, g).sample(B) == first.sample(B)
    assert log == calls


def test_star_spec_passes_verification_on_loop_free_programs():
    b8 = SampleBudget(max_depth=8, max_samples=8, seed=0)
    for lang in ("while", "extwhile", "fun"):
        plug = PLUGINS[lang]
        corpus = loop_free_corpus(lang, 15, 3)
        rep = check_verif(plug, star_spec(plug, b8), corpus, b8)
        assert rep.status == PASS, (lang, rep.status)


def test_spec_refines_star_for_good_spec_but_not_mutant():
    budget = SampleBudget(512, 8, 0)
    corpus = fac_corpus(range(1, 5))
    star = star_spec(WHILE, budget)
    assert spec_refines(spec_fac(), star, corpus, budget).status == PASS
    assert spec_refines(spec_fac_bad(), star, corpus,
                        budget).status == FAIL


def test_spec_refines_reports_where_the_budget_cut_the_star_spec():
    # At depth 3 `star` knows the sets of the short factorial runs only;
    # where the budget cut, it has no set to sample, so refinement could
    # not check those configurations and must not pass.  At depth 64 it
    # checks all 18 and passes.
    corpus = fac_corpus(range(1, 7))
    for depth, status, checked, hit in ((3, BUDGET_EXHAUSTED, 5, True),
                                        (64, PASS, 18, False)):
        budget = SampleBudget(max_depth=depth)
        star = star_spec(WHILE, budget, spec_fac().param_domain)
        report = spec_refines(spec_fac(), star, corpus, budget)
        assert report.status == status
        assert report.counterexamples == []
        assert report.stats == {"configs_checked": checked,
                                "results_inferred": checked,
                                "depth_hit": hit}


def test_check_verif_reports_where_the_budget_cut_the_star_spec():
    # A `star` built at depth 3 and checked at depth 64: the harvest is not
    # cut, but the loop configurations that `star` could not derive are
    # skipped, so the check must not pass.  Built at depth 64, it checks
    # all 98 and passes.
    corpus, budget = fac_corpus(range(1, 7)), SampleBudget(max_depth=64)
    for depth, status, checked, hit in ((3, BUDGET_EXHAUSTED, 79, True),
                                        (64, PASS, 98, False)):
        star = star_spec(WHILE, SampleBudget(max_depth=depth))
        report = check_verif(WHILE, star, corpus, budget)
        assert report.status == status
        assert report.stats == {"configs_checked": checked,
                                "results_inferred": checked,
                                "depth_hit": hit}


def test_spec_refines_requires_matching_parameter_domains():
    with pytest.raises(ValueError):
        spec_refines(trivial_spec(),
                     star_spec(WHILE, B, param_domain=(0, 1)), [], B)


def test_every_spec_refines_the_trivial_spec_vacuously():
    # The trivial spec has no constrained entry to sample, so refinement
    # holds with nothing checked.
    rep = spec_refines(trivial_spec(), trivial_spec(),
                       fac_corpus([2]), B)
    assert rep.status == PASS and rep.stats["configs_checked"] == 0


# ---------------------------------------------------------------------------
# Determinism plumbing
# ---------------------------------------------------------------------------

def test_seeded_rng_is_stable_and_key_sensitive():
    a = seeded_rng(1, "k").random()
    b = seeded_rng(1, "k").random()
    c = seeded_rng(1, "other").random()
    assert a == b and a != c


def test_random_corpora_are_reproducible():
    assert random_corpus("extwhile", 10, 5) == random_corpus("extwhile", 10, 5)
    assert loop_free_corpus("fun", 10, 5) == loop_free_corpus("fun", 10, 5)


# sha256 over the printed configurations of three corpora, one line each.
# While and ExtWhile share one generator; pinning ExtWhile's draws keeps
# While's restriction of it from moving them.  A change to the printer
# moves a pin without moving the corpus, which a digest of the configs'
# `repr`s shows (ExtWhile's starts fe78ad29).
CORPUS_DIGESTS = {
    "extwhile":
        "132d81f7ff696351a8d1cc296895ede79f407de07cd8ff6c89d3819484cdf36f",
    "fun": "d72f85a78398ee3e42fba81701e922bc3fe3eaf9a54d1b675c3f16d62fab9e7d",
}


@pytest.mark.parametrize("lang", sorted(CORPUS_DIGESTS))
def test_generated_corpora_are_pinned(lang):
    pretty = PLUGINS[lang].pretty
    h = hashlib.sha256()
    for corpus in (random_corpus(lang, 500, 1), loop_free_corpus(lang, 17, 0),
                   random_corpus(lang, 330, 7)):
        for config in corpus:
            h.update(pretty(config).encode() + b"\n")
    assert h.hexdigest() == CORPUS_DIGESTS[lang]


# ---------------------------------------------------------------------------
# Deep derivations: the depth budget, not the Python stack, bounds them
# ---------------------------------------------------------------------------

COUNTDOWN = parse_stmt("while 0 < x do x := x - 1")


def test_derive_all_runs_a_hundred_thousand_iterations():
    budget = SampleBudget(max_depth=200_010, max_samples=1, seed=0)
    g = WhileConfig(COUNTDOWN, WhileState.of({"x": 100_000}))
    assert derive_all(WHILE, g, budget) == ((WhileState.of({}),), False)


def test_derive_one_and_inference_run_forty_thousand_iterations():
    budget = SampleBudget(max_depth=80_010, max_samples=1, seed=0)
    g = WhileConfig(COUNTDOWN, WhileState.of({"x": 40_000}))
    assert derive_one(WHILE, g, budget) == WhileState.of({})
    results, exhausted = infer_results(WHILE, trivial_spec(), None, g, budget)
    assert (tuple(results), exhausted) == ((WhileState.of({}),), False)


def test_depth_budget_cuts_a_long_loop():
    budget = SampleBudget(max_depth=5_000, max_samples=1, seed=0)
    g = WhileConfig(COUNTDOWN, WhileState.of({"x": 10_000}))
    assert derive_all(WHILE, g, budget) == ((), True)
    assert derive_one(WHILE, g, budget) is None
    results, exhausted = infer_results(WHILE, trivial_spec(), None, g, budget)
    assert (tuple(results), exhausted) == ((), True)


def test_thousand_element_fun_list_derives():
    # Parsing and building this term recurse on its nesting depth: this is
    # what the raised recursion limit is still for.
    fun = PLUGINS["fun"]
    g = fun.parse_config(" :: ".join(["1"] * 1000 + ["nil"]))
    budget = SampleBudget(max_depth=2000, max_samples=1, seed=0)
    (result,), exhausted = derive_all(fun, g, budget)
    assert not exhausted
    assert fun.pretty(result).count("1 ::") == 1000


_LEN_OF_LIST = r"""
import sys
from bigstep import PLUGINS, SampleBudget, derive_all
fun = PLUGINS["fun"]
n = int(sys.argv[1])
g = fun.parse_config(r"letrec len = \l. listcase l of (0, \h. \t. 1 + len t)"
                     " in len (" + " :: ".join(["1"] * n) + " :: nil)")
hash(g)
budget = SampleBudget(max_depth=10 * n + 10, max_samples=1, seed=0)
(result,), exhausted = derive_all(fun, g, budget)
assert not exhausted
print(fun.pretty(result))
"""


def test_twenty_thousand_element_fun_list_hashes_and_derives():
    # A first hash that recurses on the term's depth goes through C frames
    # and overflows the C stack (SIGSEGV, exit 139), so this runs in a child.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        bigstep.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LEN_OF_LIST, "20000"],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "20000"


# A counterexample whose trace is 40,000 loop iterations deep: the spec
# rejects every result.  Rendering and replay must not recurse on its depth.
_DEEP_COUNTEREXAMPLE = r"""
import json
import sys
from bigstep import (PLUGINS, Constrained, SampleBudget, Specification,
                     check_valid, replay_trace)
from bigstep.lang_while import WhileConfig, WhileState, parse_stmt
mode = sys.argv[1]
if mode == "replay":
    sys.setrecursionlimit(1000)
plugin = PLUGINS["while"]
reject = Specification((None,), lambda param, gamma: Constrained(
    lambda r: False, lambda b: [], "no result"))
g = WhileConfig(parse_stmt("while 0 < x do x := x - 1"),
                WhileState.of({"x": 40000}))
report = check_valid(plugin, reject, [g], SampleBudget(80010, 1, 0))
(cx,) = report.counterexamples
if mode == "render":
    doc = json.loads(json.dumps(report.to_dict(plugin), sort_keys=True,
                                indent=2))
    print(len(doc["traces"]),
          doc["counterexamples"][0]["result"] == plugin.pretty(cx.result))
else:
    print(sys.getrecursionlimit(), replay_trace(plugin, cx.trace) == cx.result)
"""


def _deep_counterexample(mode):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        bigstep.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_COUNTEREXAMPLE, mode],
        env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_forty_thousand_deep_counterexample_renders_as_json():
    # Schema 1 nested the trace, and `json.dumps` of it overflowed the C
    # stack (SIGSEGV); the flat tables nest no deeper than a constant.
    traces, same_result = _deep_counterexample("render")
    assert int(traces) >= 40_000 and same_result == "True"


def test_forty_thousand_deep_trace_replays_on_the_default_stack():
    assert _deep_counterexample("replay") == ["1000", "True"]


# ---------------------------------------------------------------------------
# Walks pause the cyclic garbage collector and restore the caller's state
# ---------------------------------------------------------------------------

def _gc_probe(log):
    """The while plugin, logging whether the collector runs at each call."""

    def rules(gamma):
        log.append(gc.isenabled())
        return WHILE.rules(gamma)

    return replace(WHILE, rules=rules)


def test_walk_pauses_the_gc_and_enables_it_again_on_return():
    assert gc.isenabled()
    log: list = []
    plugin = _gc_probe(log)
    g = wcfg("x := 1 ; y := x + 1")
    assert derive_all(plugin, g, B)[0] == (WhileState.of({"x": 1, "y": 2}),)
    assert derive_one(plugin, g, B) == WhileState.of({"x": 1, "y": 2})
    assert tuple(infer_results(plugin, trivial_spec(), None, g, B)[0]) == (
        WhileState.of({"x": 1, "y": 2}),)
    assert log and not any(log)
    assert gc.isenabled()


def test_walk_enables_the_gc_again_after_a_plugin_raises():
    def rules(gamma):
        raise RuntimeError("plugin bug")

    with pytest.raises(RuntimeError, match="plugin bug"):
        derive_all(replace(WHILE, rules=rules), wcfg("skip"), B)
    assert gc.isenabled()


def test_nested_walk_leaves_the_outer_pause_alone():
    # star_spec's `at` derives, inside the inference walk: the inner walk
    # must neither re-enable the collector under the outer one nor leave
    # it off afterwards.
    log: list = []
    plugin = _gc_probe(log)
    star = star_spec(WHILE, B)
    after_inner: list = []

    def at(param, gamma):
        sset = star.at(param, gamma)
        after_inner.append(gc.isenabled())
        return sset

    g = wcfg("x := 1 ; y := x + 1")
    results, _ = infer_results(plugin, Specification((None,), at), None, g, B)
    assert tuple(results) == (WhileState.of({"x": 1, "y": 2}),)
    assert after_inner and not any(after_inner)
    assert log and not any(log)
    assert gc.isenabled()


def test_walk_keeps_the_gc_off_when_the_caller_turned_it_off():
    gc.disable()
    try:
        derive_all(WHILE, wcfg("x := 1 ; y := x + 1"), B)
        check_verif(WHILE, spec_fac(), fac_corpus(range(1, 4)), B)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_no_collection_runs_during_a_long_derivation():
    # Each collection is stamped with the number of `rules` calls made so
    # far; the walk has ended only once the last one has been made.
    calls = [0]
    stamps: list = []

    def rules(gamma):
        calls[0] += 1
        return WHILE.rules(gamma)

    def hook(phase, info):
        if phase == "start":
            stamps.append(calls[0])

    budget = SampleBudget(max_depth=80_010, max_samples=1, seed=0)
    g = WhileConfig(COUNTDOWN, WhileState.of({"x": 40_000}))
    gc.callbacks.append(hook)
    try:
        results = derive_all(replace(WHILE, rules=rules), g, budget)
    finally:
        gc.callbacks.remove(hook)
    assert results == ((WhileState.of({}),), False)
    assert [n for n in stamps if 0 < n < calls[0]] == []


@pytest.mark.parametrize("spec_name,corpus", [
    ("fac", lambda: fac_corpus(range(1, 5))),
    ("msort", lambda: msort_corpus(4, 0)),
    ("mglist", lambda: mglist_corpus(4, 0)),
])
def test_walks_leave_no_cyclic_garbage(spec_name, corpus):
    # What makes the pause safe: there is nothing for the collector to
    # find after derivation, checking and the crosscheck.
    lang, factory = spec_lib.SPECS[spec_name]
    plugin = PLUGINS[lang]
    budget = SampleBudget(max_depth=512, max_samples=4, seed=0)
    configs = corpus() + random_corpus(lang, 10, 3)
    loop_free = loop_free_corpus(lang, 10, 1)
    gc.collect()
    for g in configs:
        derive_all(plugin, g, budget)
        derive_one(plugin, g, budget)
    assert gc.collect() == 0
    assert check_verif(plugin, factory(), configs[:4], budget).status == PASS
    assert gc.collect() == 0
    assert check_soundness_crosscheck(plugin, factory(), configs[:4],
                                      budget).status == PASS
    assert gc.collect() == 0
    assert check_verif(plugin, star_spec(plugin, B), loop_free,
                       B).status == PASS
    assert gc.collect() == 0
