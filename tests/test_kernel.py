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
from bigstep import PLUGINS, kernel, spec_lib
from bigstep.kernel import (BUDGET_EXHAUSTED, UNIVERSE, Conclude,
                            Constrained, FAIL, PASS, PRECONDITION_FAILED,
                            SampleBudget,
                            Specification, check_soundness_crosscheck,
                            check_valid, check_verif, derive_all, derive_one,
                            infer_results, replay_trace,
                            seeded_rng, spec_refines, star_spec, trivial_spec)
from bigstep.lang_while import PLUGIN as WHILE, While, WhileConfig, \
    WhileState, parse_stmt
from bigstep.random_programs import loop_free_corpus, random_corpus
from bigstep.spec_lib import (fac_corpus, mglist_corpus, msort_corpus,
                              spec_fac, spec_fac_bad)
from bigstep.syntax import Node
from schema1 import expand

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
        one = derive_one(WHILE, g, B)
        alls, _ = derive_all(WHILE, g, B)
        if one is None:
            assert alls == ()
        else:
            assert one in alls


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
    """A copy of the plugin (while by default), so memo entries of its own,
    that counts its `rules` calls."""
    calls = [0]

    def rules(gamma):
        calls[0] += 1
        return plugin.rules(gamma)

    return replace(plugin, rules=rules), calls


def _memo_entries(plugin):
    return sum(1 for key in kernel._DERIVE_CACHE if key[0] is plugin)


def _derive_shared(plugin, g, depth):
    """A derivation on the memo that checks share across walks."""
    return kernel._derive_shared(plugin, g, SampleBudget(max_depth=depth))


def test_memo_entry_answers_from_its_height_up():
    # x=10 runs ten iterations and a last guard test: height 11.  One entry
    # per configuration: 11 loop configurations and 10 assignments.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do x := x - 1", {"x": 10})
    done = ((WhileState.of({}),), False)

    def at(depth):
        return _derive_shared(plugin, g, depth)

    assert at(22) == done
    assert _memo_entries(plugin) == 21
    assert at(10) == ((), True)
    # The cut call left the complete entries in place: they still answer.
    calls[0] = 0
    assert at(22) == done
    assert at(11) == done
    assert calls[0] == 0
    assert _memo_entries(plugin) == 21
    calls[0] = 0
    for depth in (16, 20, 33):
        assert at(depth) == done
    assert calls[0] == 0
    assert _memo_entries(plugin) == 21


def test_cut_derivation_stores_only_what_it_completed():
    # At depth 8 the loop at x=k opens at depth k-2 and its assignment at
    # k-3: the budget cuts every loop configuration and the assignment at
    # x=3, and the assignments at x=10..4 complete.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do x := x - 1", {"x": 10})

    def stored():
        """The x of each stored configuration, none of them a loop."""
        keys = [key[1] for key in kernel._DERIVE_CACHE if key[0] is plugin]
        assert not any(isinstance(gamma.stmt, While) for gamma in keys)
        return sorted(gamma.state.get("x") for gamma in keys)

    assert _derive_shared(plugin, g, 8) == ((), True)
    assert stored() == list(range(4, 11))
    # A repeat call derives the cut configurations again (8 loops and the
    # assignment at x=3) and reads the completed assignments.
    calls[0] = 0
    assert _derive_shared(plugin, g, 8) == ((), True)
    assert calls[0] == 9
    assert stored() == list(range(4, 11))
    assert _derive_shared(plugin, g, 11) == (
        (WhileState.of({}),), False)
    assert _memo_entries(plugin) == 21


def test_cut_premise_is_derived_once_per_depth_within_a_walk():
    # Both `if` rules derive the condition `f n` at the same depth, and the
    # condition recurses into the same configuration.  Rederiving the cut
    # condition for the second rule would double the work per level; the
    # walk's own table of cut answers keeps the growth linear in the depth.
    fun = PLUGINS["fun"]
    g = fun.parse_config("letrec f = \\n. if f n then 1 else 0 in f 0")
    counts = []
    for depth in (20, 30, 40):
        plugin, calls = _counted(fun)
        assert _derive_shared(plugin, g, depth) == ((), True)
        # Only the four values evaluated on the way complete.
        assert _memo_entries(plugin) == 4
        counts.append(calls[0])
    assert counts[1] - counts[0] == counts[2] - counts[1] == 10


def test_reachable_harvest_grows_linearly_in_the_depth():
    # The harvest memoizes on its walk's own table, cut answers included,
    # so the condition both `if` rules derive at one depth is derived once.
    # A harvest that derived it again per rule doubled its work every few
    # levels of depth (6,652 `rules` calls at depth 40).
    fun = PLUGINS["fun"]
    g = fun.parse_config("letrec f = \\n. if f n then 1 else 0 in f 0")
    counts = []
    for depth in (20, 30, 40):
        plugin, calls = _counted(fun)
        assert len(kernel._reachable(plugin, [g],
                                     SampleBudget(max_depth=depth))) == 10
        counts.append(calls[0])
    assert counts[1] - counts[0] == counts[2] - counts[1] == 10


def test_derive_all_keeps_no_memo_entry_after_it_returns():
    # The walk's own table answers repeats within the call; a second call
    # derives again and the shared memo never sees either.
    plugin, calls = _counted()
    g = wcfg("while 0 < x do x := x - 1", {"x": 10})
    done = ((WhileState.of({}),), False)
    before = len(kernel._DERIVE_CACHE)
    assert derive_all(plugin, g, SampleBudget(max_depth=22)) == done
    assert calls[0] == 21
    assert derive_all(plugin, g, SampleBudget(max_depth=22)) == done
    assert calls[0] == 42
    assert _memo_entries(plugin) == 0
    assert len(kernel._DERIVE_CACHE) == before


@pytest.mark.parametrize("spec_name", sorted(spec_lib.SPECS))
def test_check_verif_leaves_the_derivation_memo_alone(spec_name):
    # Neither the reachable-configuration harvest, `derive_one` nor
    # inference reads or writes the shared memo, so verification's memory
    # does not grow with it.  A copy of the plugin has no memo entries of
    # its own.
    lang, factory = spec_lib.SPECS[spec_name]
    plugin, spec = replace(PLUGINS[lang]), factory()
    corpus = {"while": lambda: fac_corpus(range(1, 5)),
              "extwhile": lambda: msort_corpus(3, 0),
              "fun": lambda: mglist_corpus(3, 0)}[lang]()
    budget = SampleBudget(max_depth=512, max_samples=4, seed=0)
    before = len(kernel._DERIVE_CACHE)
    report = check_verif(plugin, spec, corpus, budget)
    assert report.stats["configs_checked"] > 0
    for gamma in corpus:
        assert derive_one(plugin, gamma, budget) is not None
        assert infer_results(plugin, trivial_spec(), None, gamma, budget)[0]
        for param in spec.param_domain:
            infer_results(plugin, spec, param, gamma, budget)
    assert _memo_entries(plugin) == 0
    assert len(kernel._DERIVE_CACHE) == before


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
    ("msort", lambda: msort_corpus(3, 0), PASS, (68, 9),
     "735850d1bccc5612"),
    ("msort-nosort", lambda: msort_corpus(3, 1), PRECONDITION_FAILED,
     (41, 60), "4bbff2b84e88fc76"),
    ("mglist", lambda: mglist_corpus(3, 0, max_len=4), PASS, (12, 3),
     "ccb5c593a9c40fc3"),
    ("mglist-len", lambda: mglist_corpus(3, 1, max_len=4),
     PRECONDITION_FAILED, (21, 39), "66c18f9711869452"),
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


def test_report_prints_each_node_once():
    printed = []

    def pretty(node, texts=None):
        # `texts` holds exactly the terms printed before, for reuse.
        assert list(texts) == printed
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
            assert texts == before


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
# While's restriction of it from moving them.
CORPUS_DIGESTS = {
    "extwhile":
        "42eb30c61f4d4ff1580e98e412e4d98c690412be77aff1b05c39aac981418f71",
    "fun": "c0e28914d18345c6362f0a49d9aab88739cb93f23f6fd9503ea5c20ce3eb049a",
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
