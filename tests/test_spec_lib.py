"""Bundled specifications: helper algebra, sampler validity, entry guards,
and end-to-end verification of the shipped specs and their broken variants."""

import os
import subprocess
import sys
from decimal import Decimal
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bigstep
from bigstep.kernel import (Constrained, FAIL, PASS, SampleBudget, UNIVERSE,
                            check_valid, check_verif, derive_one)
from bigstep.lang_extwhile import ExtState, PLUGIN as EXTWHILE
from bigstep.lang_fun import FCons, FNil, FNum, FVar, PLUGIN as FUN
from bigstep.lang_while import PLUGIN as WHILE
from bigstep.lang_extwhile import Seq, While, parse_stmt
from bigstep.spec_lib import (MERGE_BODY, MERGE_PROGRAM, SPECS, TAIL_I,
                              TAIL_I_SRC, TAIL_J, TAIL_J_SRC, W_MG, W_MG_SRC,
                              cfm_of_list, elems, fac_corpus, list_of_lstcfm,
                              merge_call_config, merge_expr, mglist_corpus,
                              msort_corpus, occ, occ_add, preserved, sep,
                              sorted_list, spec_fac, spec_fac_bad,
                              spec_mglist, spec_mglist_len, spec_msort,
                              spec_msort_nosort, unfolded_merge_expr)

B = SampleBudget(max_depth=512, max_samples=8, seed=0)


# ---------------------------------------------------------------------------
# Helper algebra
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5)), st.lists(st.integers(-5, 5)))
def test_occurrence_map_of_concatenation_is_the_sum(xs, ys):
    assert occ(xs + ys) == occ_add(occ(xs), occ(ys))


def test_sorted_list_predicate():
    assert sorted_list([]) and sorted_list([1]) and sorted_list([1, 1, 2])
    assert not sorted_list([2, 1])


def test_elems_and_sep_and_preserved():
    st_ = ExtState.of({"S": 0, "T": 3}, {0: 1, 1: 2, 4: 9}, 6)
    assert elems(st_, "S", 0, 2) == [1, 2, 0]
    assert elems(st_, "S", 2, 1) == []
    assert elems(st_, "X", 0, 1) is None
    assert sep(st_, ("S", 0, 2), ("T", 0, 2))
    assert not sep(st_, ("S", 0, 3), ("T", 0, 2))
    post = st_.with_loc(4, 8)
    assert preserved(st_, post, ["S", "T", ("S", 0, 2)])
    assert not preserved(st_, post, [("T", 0, 2)])
    assert preserved(st_, post, [("T", 5, 2)])  # empty fragment


def test_list_canonical_form_conversions_reject_non_lists():
    assert list_of_lstcfm(FCons(FVar("x"), FNil())) is None
    assert list_of_lstcfm(FNum(1)) is None
    assert list_of_lstcfm(cfm_of_list([2, 1])) == [2, 1]


_DEEP_LIST = r"""
from bigstep import PLUGINS, SampleBudget, derive_all, spec_lib
g = spec_lib.cfm_of_list([1] * 20000)
hash(g)
(result,), exhausted = derive_all(PLUGINS["fun"], g, SampleBudget(max_depth=5))
assert result == g and not exhausted
print(len(spec_lib.list_of_lstcfm(result)))
"""


def test_twenty_thousand_element_list_built_in_python_hashes():
    # A first hash that recurses on the list's length overflows the C stack
    # (SIGSEGV, exit 139), so this runs in a child.  Memo keys hash it.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        bigstep.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DEEP_LIST],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "20000"


# ---------------------------------------------------------------------------
# Factorial spec
# ---------------------------------------------------------------------------

def test_fac_spec_entries_guarded_by_positive_m():
    spec = spec_fac()
    good = fac_corpus([3])[0]
    assert isinstance(spec.at(None, good), Constrained)
    zero = fac_corpus([0])[0]
    assert spec.at(None, zero) is UNIVERSE


def test_fac_describes_a_factorial_of_more_digits_than_str_prints():
    # 1559! has 4,316 digits, past CPython's default limit of 4,300 on
    # int-string conversion: `%d` raised ValueError, and `check-verif
    # --spec fac --m 1559` exited 1 with a traceback.
    program, loop, _ = fac_corpus([1559])
    for gamma, entry in ((program, "final states"), (loop, "loop exits")):
        text = spec_fac().at(None, gamma).describe
        assert text.startswith(entry + " with fac = ")
        assert Decimal(text.rpartition(" ")[2]) == factorial(1559)


def test_fac_samplers_satisfy_their_own_sets():
    spec = spec_fac()
    for gamma in fac_corpus(range(1, 7)):
        sset = spec.at(None, gamma)
        samples = sset.sample(B)
        assert samples
        assert all(sset.contains(s) for s in samples)


def test_fac_spec_valid_and_verified_but_mutant_rejected():
    budget = SampleBudget(64, 16, 0)
    corpus = fac_corpus(range(1, 9))
    assert check_valid(WHILE, spec_fac(), corpus, budget).status == PASS
    assert check_verif(WHILE, spec_fac(), corpus, budget).status == PASS
    assert check_verif(WHILE, spec_fac_bad(), corpus,
                       budget).status == FAIL


# ---------------------------------------------------------------------------
# Array-merge spec
# ---------------------------------------------------------------------------

def test_msort_call_entry_describes_sorted_permutation():
    spec = spec_msort()
    gamma = merge_call_config(1, [1, 3], [2])
    sset = spec.at(1, gamma)
    assert isinstance(sset, Constrained)
    out = derive_one(EXTWHILE, gamma, SampleBudget(4096, 1, 0))
    assert sset.contains(out)
    # A wrong parameter value leaves the entry unconstrained.
    assert spec.at(0, gamma) is UNIVERSE


def test_msort_samplers_satisfy_their_own_sets():
    spec = spec_msort()
    for l, gamma in [(0, merge_call_config(0, [0, 2], [1, 1])),
                     (2, merge_call_config(2, [-1], [4]))]:
        sset = spec.at(l, gamma)
        samples = sset.sample(B)
        assert samples and all(sset.contains(s) for s in samples)


def test_msort_loop_constants_are_the_merge_body_loops():
    # The spec matches loop configurations by identity first: a constant
    # parsed apart from MERGE_BODY would compare whole loop trees instead.
    stmts, s = [], MERGE_BODY
    while isinstance(s, Seq):
        stmts.append(s.first)
        s = s.second
    loops = [x for x in stmts + [s] if isinstance(x, While)]
    assert len(loops) == 3
    assert loops[0] is W_MG and loops[1] is TAIL_I and loops[2] is TAIL_J
    assert W_MG == parse_stmt(W_MG_SRC)
    assert TAIL_I == parse_stmt(TAIL_I_SRC)
    assert TAIL_J == parse_stmt(TAIL_J_SRC)


def test_msort_loop_entry_accepts_real_exit_and_rejects_corruption():
    spec = spec_msort()
    # Reach the merging loop from a call and check its entry directly.
    gamma = merge_call_config(0, [1, 3], [2])
    st0 = gamma.state
    inner = ExtState.of(
        dict(st0.names, **{"S": 0, "T": 3, "i": 0, "m": 1, "n": 2,
                           "j": 2, "k": 0}), dict(st0.heap), st0.nextloc)
    from bigstep.lang_extwhile import ExtConfig
    loop_cfg = ExtConfig(W_MG, inner, MERGE_PROGRAM)
    sset = spec.at(0, loop_cfg)
    assert isinstance(sset, Constrained)
    real = derive_one(EXTWHILE, loop_cfg, SampleBudget(4096, 1, 0))
    assert sset.contains(real)
    # Swapping the first two merged values breaks sortedness.
    base = real.name("T")
    corrupted = real.with_loc(base, real.loc(base + 1)) \
                    .with_loc(base + 1, real.loc(base))
    assert not sset.contains(corrupted)
    # The broken variant accepts the corruption.
    assert spec_msort_nosort().at(0, loop_cfg).contains(corrupted)


def test_msort_verified_on_generated_corpus_and_mutant_rejected():
    corpus = msort_corpus(6, 0) + [merge_call_config(0, [1, 3], [2])]
    assert check_verif(EXTWHILE, spec_msort(), corpus, B).status == PASS
    rep = check_verif(EXTWHILE, spec_msort_nosort(), corpus, B)
    assert rep.status == FAIL and rep.counterexamples


# ---------------------------------------------------------------------------
# List-merge spec
# ---------------------------------------------------------------------------

def test_mglist_entry_matches_both_recursion_shapes():
    spec = spec_mglist()
    c1, c2 = cfm_of_list([1, 2]), cfm_of_list([0])
    for gamma in (merge_expr(c1, c2), unfolded_merge_expr(c1, c2)):
        sset = spec.at(None, gamma)
        assert isinstance(sset, Constrained)
        assert sset.contains(cfm_of_list([0, 1, 2]))
        assert not sset.contains(cfm_of_list([1, 0, 2]))  # unsorted
        assert not sset.contains(cfm_of_list([0, 1]))  # wrong occurrences
    # Unsorted operand lists leave the entry unconstrained.
    assert spec.at(None, merge_expr(cfm_of_list([2, 1]), c2)) is UNIVERSE


def test_mglist_mutant_accepts_wrong_elements_of_right_length():
    sset = spec_mglist_len().at(None, merge_expr(cfm_of_list([1, 2]),
                                                 cfm_of_list([0])))
    assert sset.contains(cfm_of_list([-5, -5, -5]))


def test_mglist_verified_on_generated_corpus_and_mutant_rejected():
    corpus = mglist_corpus(6, 0) + [
        merge_expr(cfm_of_list([1, 1]), cfm_of_list([1]))]
    assert check_verif(FUN, spec_mglist(), corpus, B).status == PASS
    rep = check_verif(FUN, spec_mglist_len(), corpus, B)
    assert rep.status == FAIL and rep.counterexamples


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_names_languages_and_factories():
    assert set(SPECS) == {"fac", "fac-bad", "msort", "msort-nosort",
                          "mglist", "mglist-len"}
    for name, (lang, factory) in SPECS.items():
        spec = factory()
        assert lang in ("while", "extwhile", "fun")
        assert spec.param_domain
