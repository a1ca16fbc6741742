"""Functional language: one test per semantic rule, one test per defining
equation of substitution, canonical forms, and list-merge evaluation."""

import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bigstep.kernel import Conclude, Need, SampleBudget, derive_all, derive_one
from bigstep.lang_fun import (FAnd, FApp, FBin, FBool, FCons, FIf, FLam,
                              FLetRec, FListCase, FNil, FNode, FNot, FNum,
                              FVar, PLUGIN, fun_rules, is_canonical,
                              occurrences, parse_expr, print_expr, subst)
from bigstep.random_programs import loop_free_corpus, random_corpus
from bigstep.spec_lib import cfm_of_list, list_of_lstcfm, merge_expr

B = SampleBudget(max_depth=512, max_samples=4, seed=0)


def ev(e):
    return derive_one(PLUGIN, e, B)


# ---------------------------------------------------------------------------
# One test per rule
# ---------------------------------------------------------------------------

def test_rule_canonical_form_evaluates_to_itself():
    for c in (FNum(3), FBool(True), FNil(), FLam("x", FVar("x")),
              FCons(FNum(1), FNil())):
        assert fun_rules(c) == [Conclude(c)]


def test_rule_arithmetic_needs_numeric_operands_in_order():
    e = FBin("+", FBin("*", FNum(2), FNum(3)), FNum(4))
    (app,) = fun_rules(e)
    assert isinstance(app, Need) and app.premise == e.left
    nxt = app.rest(FNum(6))
    assert isinstance(nxt, Need) and nxt.premise == e.right
    assert nxt.rest(FNum(4)) == Conclude(FNum(10))
    assert app.rest(FBool(True)) is None  # non-numeric operand: no rule
    assert fun_rules(FBin("/", FNum(1), FNum(0)))[0].rest(FNum(1)).rest(
        FNum(0)) is None  # division by zero is stuck
    assert ev(parse_expr("(1 = 1) and (0 - 3 < -2)")) == FBool(True)


def test_rule_negation_needs_a_boolean():
    (app,) = fun_rules(FNot(FBin("=", FNum(1), FNum(2))))
    assert app.rest(FBool(False)) == Conclude(FBool(True))
    assert app.rest(FNum(0)) is None


def test_rule_conjunction_needs_two_booleans():
    e = FAnd(FBool(True), FNot(FBool(False)))
    (app,) = fun_rules(e)
    nxt = app.rest(FBool(True))
    assert nxt.premise == e.right
    assert nxt.rest(FBool(True)) == Conclude(FBool(True))
    assert app.rest(FNum(1)) is None


def test_rule_if_true_evaluates_then_branch():
    e = FIf(FBin("<", FNum(1), FNum(2)), FNum(10), FNum(20))
    true_app, false_app = fun_rules(e)
    nxt = true_app.rest(FBool(True))
    assert nxt.premise == e.then
    assert nxt.rest(FNum(10)) == Conclude(FNum(10))
    assert false_app.rest(FBool(True)) is None
    assert ev(e) == FNum(10)


def test_rule_if_false_evaluates_else_branch():
    e = FIf(FBool(False), FNum(10), FNum(20))
    true_app, false_app = fun_rules(e)
    assert true_app.rest(FBool(False)) is None
    nxt = false_app.rest(FBool(False))
    assert nxt.premise == e.orelse
    assert ev(e) == FNum(20)


def test_rule_cons_evaluates_head_then_tail():
    e = FCons(FBin("+", FNum(1), FNum(1)), FNil())
    (app,) = fun_rules(e)
    assert app.premise == e.head
    nxt = app.rest(FNum(2))
    assert nxt.premise == e.tail
    assert nxt.rest(FNil()) == Conclude(FCons(FNum(2), FNil()))


def test_rule_listcase_nil_takes_nil_branch():
    e = FListCase(FNil(), FNum(0), FLam("h", FLam("t", FNum(1))))
    nil_app, cons_app = fun_rules(e)
    nxt = nil_app.rest(FNil())
    assert nxt.premise == e.on_nil
    assert cons_app.rest(FNil()) is None
    assert ev(e) == FNum(0)


def test_rule_listcase_cons_applies_branch_to_head_and_tail():
    lst = FCons(FNum(7), FNil())
    e = FListCase(lst, FNum(0), FLam("h", FLam("t", FVar("h"))))
    nil_app, cons_app = fun_rules(e)
    assert nil_app.rest(lst) is None
    nxt = cons_app.rest(lst)
    assert nxt.premise == FApp(FApp(e.on_cons, FNum(7)), FNil())
    assert ev(e) == FNum(7)


def test_rule_application_substitutes_canonical_argument():
    lam = FLam("x", FBin("+", FVar("x"), FNum(1)))
    e = FApp(lam, FBin("+", FNum(1), FNum(1)))
    (app,) = fun_rules(e)
    assert app.premise == lam
    nxt = app.rest(lam)
    assert nxt.premise == e.arg
    body = nxt.rest(FNum(2))
    assert body.premise == FBin("+", FNum(2), FNum(1))
    assert body.rest(FNum(3)) == Conclude(FNum(3))
    assert app.rest(FNum(5)) is None  # operator must be an abstraction
    assert nxt.rest(FVar("y")) is None  # argument must be canonical


def test_rule_letrec_unfolds_one_level():
    bound = FLam("y", FVar("y"))
    e = FLetRec("f", bound, FApp(FVar("f"), FNum(3)))
    (app,) = fun_rules(e)
    assert app.premise == FApp(
        FLam("f", e.body), FLam("y", FLetRec("f", bound, bound.body)))
    assert ev(e) == FNum(3)
    # A letrec whose bound lambda's binder equals the recursion variable
    # cannot be unfolded.
    assert fun_rules(FLetRec("f", FLam("f", FVar("f")), FNum(1))) == []


def test_free_variable_is_stuck():
    results, exhausted = derive_all(PLUGIN, FVar("x"), B)
    assert results == () and not exhausted


# ---------------------------------------------------------------------------
# One test per defining equation of substitution
# ---------------------------------------------------------------------------

C = FNum(42)


def test_subst_number():
    assert subst(FNum(1), "x", C) == FNum(1)


def test_subst_boolean():
    assert subst(FBool(True), "x", C) == FBool(True)


def test_subst_nil():
    assert subst(FNil(), "x", C) == FNil()


def test_subst_binop_descends_both_sides():
    assert subst(FBin("+", FVar("x"), FVar("y")), "x", C) == \
        FBin("+", C, FVar("y"))


def test_subst_negation_descends():
    assert subst(FNot(FVar("x")), "x", C) == FNot(C)


def test_subst_conjunction_descends_both_sides():
    assert subst(FAnd(FVar("x"), FVar("x")), "x", C) == FAnd(C, C)


def test_subst_conditional_descends_all_three():
    assert subst(FIf(FVar("x"), FVar("x"), FVar("y")), "x", C) == \
        FIf(C, C, FVar("y"))


def test_subst_cons_descends_head_and_tail():
    assert subst(FCons(FVar("x"), FVar("x")), "x", C) == FCons(C, C)


def test_subst_listcase_descends_all_three():
    e = FListCase(FVar("x"), FVar("x"), FVar("x"))
    assert subst(e, "x", C) == FListCase(C, C, C)


def test_subst_variable_hit():
    assert subst(FVar("x"), "x", C) == C


def test_subst_variable_miss():
    assert subst(FVar("y"), "x", C) == FVar("y")


def test_subst_application_descends_both_sides():
    assert subst(FApp(FVar("x"), FVar("x")), "x", C) == FApp(C, C)


def test_subst_lambda_same_binder_shadows():
    e = FLam("x", FVar("x"))
    assert subst(e, "x", C) == e
    assert occurrences(e) == frozenset()


def test_subst_lambda_different_binder_descends():
    assert subst(FLam("y", FVar("x")), "x", C) == FLam("y", C)


def test_subst_letrec_same_binder_shadows_body_but_enters_bound_lambda():
    e = FLetRec("x", FLam("y", FVar("x")), FVar("x"))
    # The bound lambda is still rewritten (its own binder is y, not x);
    # only the letrec body is shadowed.  So the occurrence set keeps x.
    assert subst(e, "x", C) == FLetRec("x", FLam("y", C), FVar("x"))
    assert occurrences(e) == {"x"}


def test_subst_letrec_different_binder_descends_into_body():
    e = FLetRec("f", FLam("y", FVar("x")), FVar("x"))
    assert subst(e, "x", C) == FLetRec("f", FLam("y", C), C)


def test_subst_returns_subterms_without_occurrences_unchanged():
    closed = parse_expr(r"\y. y :: 1 :: nil")
    e = FApp(FVar("x"), closed)
    out = subst(e, "x", C)
    assert out == FApp(C, closed) and out.arg is closed
    assert subst(closed, "x", C) is closed


def reference_subst(e, x, c):
    """Substitution rebuilding every node, as before occurrence sets."""
    match e:
        case FNum(_) | FBool(_) | FNil():
            return e
        case FBin(op, l, r):
            return FBin(op, reference_subst(l, x, c), reference_subst(r, x, c))
        case FNot(a):
            return FNot(reference_subst(a, x, c))
        case FAnd(l, r):
            return FAnd(reference_subst(l, x, c), reference_subst(r, x, c))
        case FIf(a, b, d):
            return FIf(reference_subst(a, x, c), reference_subst(b, x, c),
                       reference_subst(d, x, c))
        case FCons(h, t):
            return FCons(reference_subst(h, x, c), reference_subst(t, x, c))
        case FListCase(s, n, k):
            return FListCase(reference_subst(s, x, c),
                             reference_subst(n, x, c),
                             reference_subst(k, x, c))
        case FVar(v):
            return c if v == x else e
        case FApp(f, a):
            return FApp(reference_subst(f, x, c), reference_subst(a, x, c))
        case FLam(v, body):
            if v == x:
                return e
            return FLam(v, reference_subst(body, x, c))
        case FLetRec(v, bound, body):
            new_bound = reference_subst(bound, x, c)
            if v == x:
                return FLetRec(v, new_bound, body)
            return FLetRec(v, new_bound, reference_subst(body, x, c))
    raise ValueError("bad expression: %r" % (e,))


_names = st.sampled_from("xy")
_fexpr = st.recursive(
    st.integers(-2, 2).map(FNum) | st.booleans().map(FBool)
    | st.just(FNil()) | _names.map(FVar),
    lambda kids: st.one_of(
        st.builds(FBin, st.sampled_from("+-*/=<"), kids, kids),
        st.builds(FNot, kids),
        st.builds(FAnd, kids, kids),
        st.builds(FIf, kids, kids, kids),
        st.builds(FCons, kids, kids),
        st.builds(FListCase, kids, kids, kids),
        st.builds(FApp, kids, kids),
        st.builds(FLam, _names, kids),
        st.builds(FLetRec, _names, st.builds(FLam, _names, kids), kids)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_fexpr, _names, _fexpr)
def test_subst_agrees_with_rebuilding_reference(e, x, c):
    # Open terms, shadowing lambdas and letrecs binding `x` included.
    assert subst(e, x, c) == reference_subst(e, x, c)


# ---------------------------------------------------------------------------
# Canonical forms and lists
# ---------------------------------------------------------------------------

def test_canonical_recognizer():
    assert is_canonical(FCons(FNum(1), FCons(FBool(False), FNil())))
    assert is_canonical(FLam("x", FApp(FVar("x"), FVar("x"))))
    assert not is_canonical(FCons(FBin("+", FNum(1), FNum(1)), FNil()))
    assert not is_canonical(FVar("x"))


def reference_is_canonical(e):
    """The canonical-form check recomputed on every call, as before its
    answer was cached on nodes."""
    match e:
        case FNum(_) | FBool(_) | FLam(_, _) | FNil():
            return True
        case FCons(h, t):
            return reference_is_canonical(h) and reference_is_canonical(t)
    return False


def subterms(e):
    """`e` and every node below it, each before its children."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(v for v in (getattr(node, f) for f in node.__match_args__)
                     if isinstance(v, FNode))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), _names, _fexpr)
def test_cached_canonical_check_agrees_with_reference(seed, x, c):
    terms = random_corpus("fun", 3, seed) + [c, FCons(c, cfm_of_list([1]))]
    terms += [subst(e, x, c) for e in terms]
    for e in terms:
        # Cold root first, then every subterm warm; copies start cold and
        # are asked children first.
        assert is_canonical(e) == reference_is_canonical(e)
        for sub in subterms(e):
            assert is_canonical(sub) == reference_is_canonical(sub)
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            for sub in reversed(subterms(twin)):
                assert is_canonical(sub) == reference_is_canonical(sub)


@pytest.mark.parametrize("values", [[], [1], [3, 1, 2], [-3] * 6])
def test_list_canonical_form_round_trip(values):
    assert list_of_lstcfm(cfm_of_list(values)) == values


def test_parse_print_round_trip():
    src = (r"letrec f = \x. listcase x of (0, \h. \t. h + f t) "
           r"in f (1 :: 2 :: nil)")
    e = parse_expr(src)
    assert parse_expr(print_expr(e)) == e
    assert ev(e) == FNum(3)


def test_integers_of_any_length_print_and_parse_back():
    # 5,001 digits: past CPython's default limit of 4,300 on int-string
    # conversion, where `str` and `int` raise ValueError.
    big, text = 10 ** 5000 + 7, "1" + "0" * 4999 + "7"
    e = parse_expr("%s :: (0 - %s) :: nil" % (text, text))
    assert e == FCons(FNum(big), FCons(FBin("-", FNum(0), FNum(big)),
                                       FNil()))
    assert print_expr(e) == "(%s :: ((0 - %s) :: nil))" % (text, text)
    assert print_expr(ev(FBin("+", FNum(big), FNum(big)))) == \
        "2" + "0" * 4998 + "14"


def test_at_most_sugar_and_conjunction_print_and_parse_back():
    # `a <= b` is sugar for `not (b < a)`; `and` prints in parentheses.
    e = parse_expr("if 1 <= x and not (x = 3) then 1 else 2")
    assert e == FIf(FAnd(FNot(FBin("<", FVar("x"), FNum(1))),
                         FNot(FBin("=", FVar("x"), FNum(3)))),
                    FNum(1), FNum(2))
    assert print_expr(e) == \
        "(if ((not (x < 1)) and (not (x = 3))) then 1 else 2)"
    assert parse_expr(print_expr(e)) == e


def test_negative_literal_argument_prints_in_parentheses():
    e = FApp(FVar("f"), FNum(-3))
    assert print_expr(e) == "(f (-3))"
    assert parse_expr(print_expr(e)) == e
    # Only an argument needs them: in function position and as an operand
    # the literal prints bare and still parses back.
    for e in (FApp(FNum(-3), FVar("f")), FBin("-", FVar("f"), FNum(-3))):
        assert "(-3)" not in print_expr(e)
        assert parse_expr(print_expr(e)) == e


@pytest.mark.parametrize("seed", [1, 5, 7, 11])
def test_generated_terms_parse_back_to_themselves(seed):
    for e in (random_corpus("fun", 330, seed)
              + loop_free_corpus("fun", 330, seed)):
        assert parse_expr(print_expr(e)) == e, print_expr(e)


def test_merge_expression_evaluates_to_sorted_merge():
    e = merge_expr(cfm_of_list([1, 3, 5]), cfm_of_list([2, 3]))
    assert list_of_lstcfm(ev(e)) == [1, 2, 3, 3, 5]
    e2 = merge_expr(cfm_of_list([]), cfm_of_list([0, 4]))
    assert list_of_lstcfm(ev(e2)) == [0, 4]
