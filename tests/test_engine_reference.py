"""The explicit-stack derivation engine against the recursive walkers it
replaced, kept here as the reference: same results in the same order, same
`exhausted` flags, same traces, and the same plugin and spec calls in the
same order.  Both reference walkers memoize with the engine's one entry
rule (one entry per configuration whose answer took the engine a frame,
answered from its height up; none for one known when it is opened; a cut
answer kept for its depth only), on a table of their own unless
derivation is given one to share.  A memo-free definition checks the
answers of a memo shared across depths and the reachable harvest."""

from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given, settings

from bigstep import PLUGINS
from bigstep.kernel import (UNIVERSE, Conclude, Constrained, InferTrace,
                            LanguagePlugin, Need, PremiseStep, SampleBudget,
                            Specification, _derivation_informed,
                            _reachable, _walk, derive_all,
                            derive_one, infer_results, trivial_spec)
from bigstep.lang_while import While
from bigstep.random_programs import loop_free_corpus, random_corpus
from bigstep.spec_lib import (fac_corpus, mglist_corpus, msort_corpus,
                              spec_fac, spec_fac_bad, spec_mglist,
                              spec_mglist_len, spec_msort, spec_msort_nosort)

LANGS = ("while", "extwhile", "fun")


# ---------------------------------------------------------------------------
# The recursive reference walkers
# ---------------------------------------------------------------------------

def ref_derive(plugin, gamma, depth, memo=None):
    """(results, exhausted) of `gamma` within `depth`.

    Memoized with the engine's entry rule: `memo`, or a table of this
    call's own, maps a configuration whose derivation took a frame and no
    depth cut to (results, False, height).  An entry answers every budget
    from its height up; a lookup below it derives again and keeps the
    entry.  A cut answer is kept only for this call, keyed by configuration
    and depth, and answers only that depth.  An answer the engine knows
    when it opens the configuration (depth 0, an axiom instance, no rule
    instance) is kept nowhere."""
    memo = ({} if memo is None else memo, {})
    return _ref_derive(plugin, gamma, depth, None, memo)[:2]


def _ref_derive(plugin, gamma, depth, visit, memo):
    if memo is not None:
        hit = memo[0].get(gamma)
        if hit is None or hit[2] > depth:
            hit = memo[1].get((gamma, depth))
        if hit is not None:
            return hit
    if visit is not None:
        visit(gamma)
    apps = plugin.rules(gamma)
    if depth <= 0:
        return ((), bool(apps), 0)

    results: list = []
    seen: set = set()
    exhausted = False
    height = 1 if apps else 0

    def walk(app):
        nonlocal exhausted, height
        if isinstance(app, Conclude):
            if app.result not in seen:
                seen.add(app.result)
                results.append(app.result)
            return
        sub, ex, h = _ref_derive(plugin, app.premise, depth - 1, visit, memo)
        exhausted = exhausted or ex
        height = max(height, h + 1)
        for r in sub:
            cont = app.rest(r)
            if cont is not None:
                walk(cont)

    for app in apps:
        walk(app)
    out = (tuple(results), exhausted, depth if exhausted else height)
    if memo is not None:
        remember(memo, gamma, depth, apps, out)
    return out


def remember(memo, gamma, depth, apps, out):
    """Store `out` if it took the engine a frame: not for a configuration
    with no rule instance or with one instance and no premise, whose
    answer one `rules` call gives again."""
    if not apps or (len(apps) == 1 and isinstance(apps[0], Conclude)):
        return
    if out[1]:
        memo[1][gamma, depth] = out
    else:
        memo[0][gamma] = out


def plain_derive(plugin, gamma, depth, visit=None):
    """(results, exhausted) by the definition alone, with no memo: `visit`
    sees every configuration each time it is opened."""
    return _ref_derive(plugin, gamma, depth, visit, None)[:2]


def ref_reachable(plugin, corpus, depth):
    """The configurations a memo-free derivation of the corpus touches, in
    first-visit order, and whether the depth cut any of the derivations."""
    visited: dict = {}
    cut = False
    for gamma in corpus:
        cut = plain_derive(plugin, gamma, depth, visited.setdefault)[1] or cut
    return list(visited), cut


def ref_infer(plugin, spec, param, gamma, budget, depth):
    """({result: InferTrace}, exhausted) of `gamma` within `depth`, under
    `spec` at `param`.  Memoized with `ref_derive`'s entry rule, on a
    table of this call's own: a premise inferred again shares its
    traces."""
    return _ref_infer(plugin, spec, param, gamma, budget, depth,
                      ({}, {}))[:2]


def _ref_infer(plugin, spec, param, gamma, budget, depth, memo):
    hit = memo[0].get(gamma)
    if hit is None or hit[2] > depth:
        hit = memo[1].get((gamma, depth))
    if hit is not None:
        return hit
    apps = plugin.rules(gamma)
    if depth <= 0:
        return {}, bool(apps), 0

    out: dict = {}
    exhausted = False
    height = 1 if apps else 0

    def candidates(premise):
        nonlocal exhausted, height
        sset = spec.at(param, premise)
        if isinstance(sset, Constrained):
            cands, seen = [], set()
            for c in sset.sample(budget):
                if c not in seen and sset.contains(c):
                    seen.add(c)
                    cands.append((c, None))
            return cands
        sub, ex, h = _ref_infer(plugin, spec, param, premise, budget,
                                depth - 1, memo)
        exhausted = exhausted or ex
        height = max(height, h + 1)
        return list(sub.items())

    def walk(app, steps, idx):
        if isinstance(app, Conclude):
            if app.result not in out:
                out[app.result] = InferTrace(gamma, app.result, idx,
                                             tuple(steps))
            return
        for r, sub in candidates(app.premise):
            cont = app.rest(r)
            if cont is not None:
                walk(cont, steps + [PremiseStep(app.premise, r, sub)], idx)

    for i, app in enumerate(apps):
        walk(app, [], i)
    answer = (out, exhausted, depth if exhausted else height)
    remember(memo, gamma, depth, apps, answer)
    return answer


# ---------------------------------------------------------------------------
# Call logging
# ---------------------------------------------------------------------------

def logged(plugin, log):
    """A fresh plugin object (so a fresh memo) that logs rules and rest.

    A continuation that is `Conclude` itself stays unwrapped and unlogged,
    so the engine still takes its tail premises without a frame."""

    def wrap(app):
        if isinstance(app, Conclude) or app.rest is Conclude:
            return app
        rest = app.rest

        def logged_rest(r):
            log.append(("rest", app.premise, r))
            out = rest(r)
            return None if out is None else wrap(out)

        return replace(app, rest=logged_rest)

    def rules(gamma):
        log.append(("rules", gamma))
        return [wrap(a) for a in plugin.rules(gamma)]

    return replace(plugin, rules=rules)


def logged_spec(spec, log):
    def at(param, gamma):
        log.append(("at", gamma))
        sset = spec.at(param, gamma)
        if not isinstance(sset, Constrained):
            return sset

        def contains(r):
            log.append(("contains", r))
            return sset.contains(r)

        def sample(b):
            log.append(("sample", gamma))
            return sset.sample(b)

        return Constrained(contains, sample, sset.describe)

    return replace(spec, at=at)


def same_derivations(plugin, gamma, budget):
    new_log, ref_log = [], []
    new = derive_all(logged(plugin, new_log), gamma, budget)
    ref = ref_derive(logged(plugin, ref_log), gamma, budget.max_depth)
    assert new == ref
    assert new_log == ref_log

    # `derive_one` is the same walk, stopped nowhere early: the first of
    # its results, from the same calls.
    one_log = []
    one = derive_one(logged(plugin, one_log), gamma, budget)
    assert one == (ref[0][0] if ref[0] else None)
    assert one_log == ref_log


def same_answers_on_a_shared_memo(plugin, gamma, depths):
    """The engine at each depth in turn on one memo: every answer is the
    memo-free definition's, and the calls made are the reference's on a
    memo of its own, shared the same way."""
    new_log, ref_log, new_memo, ref_memo = [], [], {}, {}
    new_plugin, ref_plugin = logged(plugin, new_log), logged(plugin, ref_log)
    for depth in depths:
        got = _walk(new_plugin, gamma, depth, new_memo)[:2]
        assert got == plain_derive(plugin, gamma, depth)
        assert got == ref_derive(ref_plugin, gamma, depth, memo=ref_memo)
        assert new_log == ref_log


def same_inference(plugin, spec, param, gamma, budget):
    new_log, ref_log = [], []
    new_traced, new_ex = infer_results(
        logged(plugin, new_log), logged_spec(spec, new_log), param, gamma,
        budget)
    ref_traced, ref_ex = ref_infer(
        logged(plugin, ref_log), logged_spec(spec, ref_log), param, gamma,
        budget, budget.max_depth)
    assert list(new_traced.items()) == list(ref_traced.items())
    assert new_ex == ref_ex
    assert new_log == ref_log


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LANGS), st.integers(0, 10_000), st.booleans(),
       st.integers(0, 24))
def test_engine_matches_recursive_walkers_on_random_programs(
        lang, seed, loop_free, depth):
    plugin = PLUGINS[lang]
    corpus = (loop_free_corpus if loop_free else random_corpus)(lang, 3, seed)
    budget = SampleBudget(max_depth=depth, max_samples=4, seed=0)
    for gamma in corpus:
        same_derivations(plugin, gamma, budget)
        same_inference(plugin, trivial_spec(), None, gamma, budget)


def choice_rules(n):
    """A nondeterministic toy language on integers: several rule instances
    per configuration, several results per premise, duplicate results, and
    side conditions that rule instances out."""
    if n <= 0:
        return [Conclude(0), Conclude(1)] if n == 0 else []
    return [
        Need(n - 1, lambda r: Conclude(r + 1)),
        Need(n - 1, lambda r: Conclude(2 * r)),
        Need(n - 2, lambda r: None if r % 2 else Need(
            n - 1, lambda q, _r=r: Conclude(_r + q))),
    ]


CHOICE = LanguagePlugin("choice", choice_rules, int, str)


def spec_choice_odd_sampled():
    """Odd configurations are constrained to their derivable results, with
    a sampler that also offers non-members (dropped) and duplicates."""

    def at(param, n):
        if n % 2 and n > 0:
            members = set(ref_derive(CHOICE, n, 2 * n + 2)[0])
            return Constrained(lambda r: r in members,
                               lambda b: [-1] + sorted(members) * 2,
                               "derivable results")
        return UNIVERSE

    return Specification((None,), at)


@settings(max_examples=60, deadline=None)
@given(st.integers(-1, 5), st.integers(0, 7))
def test_engine_matches_recursive_walkers_on_nondeterministic_rules(n, depth):
    budget = SampleBudget(max_depth=depth, max_samples=4, seed=0)
    same_derivations(CHOICE, n, budget)
    same_inference(CHOICE, trivial_spec(), None, n, budget)
    same_inference(CHOICE, spec_choice_odd_sampled(), None, n, budget)
    same_inference(CHOICE, _derivation_informed(
        CHOICE, spec_choice_odd_sampled()), None, n, budget)


DEPTH_RUNS = st.lists(st.integers(0, 24), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LANGS), st.integers(0, 10_000), DEPTH_RUNS)
def test_shared_memo_answers_every_depth_like_the_definition(
        lang, seed, depths):
    for gamma in random_corpus(lang, 3, seed):
        same_answers_on_a_shared_memo(PLUGINS[lang], gamma, depths)


@settings(max_examples=60, deadline=None)
@given(st.integers(-1, 5), DEPTH_RUNS)
def test_shared_memo_answers_every_depth_on_nondeterministic_rules(
        n, depths):
    same_answers_on_a_shared_memo(CHOICE, n, depths)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LANGS), st.integers(0, 10_000), st.integers(0, 24))
def test_reachable_harvest_matches_the_memo_free_harvest(lang, seed, depth):
    plugin = PLUGINS[lang]
    corpus = random_corpus(lang, 3, seed)
    assert _reachable(plugin, corpus, SampleBudget(max_depth=depth)) == \
        ref_reachable(plugin, corpus, depth)


def spec_loops_unsampled():
    """Loop entries constrained to any result, with an empty sampler: under
    the crosscheck's derivation-informed spec, every loop result inferred
    comes from derivation."""

    def at(param, gamma):
        if isinstance(gamma.stmt, While):
            return Constrained(lambda r: True, lambda b: [], "any result")
        return UNIVERSE

    return Specification((None,), at)


def _spec_cases():
    yield "while", spec_fac, fac_corpus(range(1, 5)), 64
    yield "while", spec_loops_unsampled, fac_corpus(range(1, 5)), 64
    yield "while", spec_fac_bad, fac_corpus(range(1, 5)), 64
    yield "extwhile", spec_msort, msort_corpus(2, 0), 512
    yield "extwhile", spec_msort_nosort, msort_corpus(2, 1), 512
    yield "fun", spec_mglist, mglist_corpus(2, 0, max_len=3), 512
    yield "fun", spec_mglist_len, mglist_corpus(2, 1, max_len=3), 512


def test_engine_matches_recursive_walkers_on_bundled_specs():
    for lang, factory, corpus, depth in _spec_cases():
        plugin, spec = PLUGINS[lang], factory()
        budget = SampleBudget(max_depth=depth, max_samples=8, seed=0)
        informed = _derivation_informed(plugin, spec)
        for gamma in corpus:
            same_derivations(plugin, gamma, budget)
            for param in spec.param_domain[:3]:
                same_inference(plugin, spec, param, gamma, budget)
                same_inference(plugin, informed, param, gamma, budget)
