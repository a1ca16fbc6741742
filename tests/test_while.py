"""While language: one test per semantic rule, parser round trips, and
agreement with an independent reference interpreter."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bigstep.imp_syntax import print_stmt
from bigstep.kernel import Conclude, Need, SampleBudget, derive_all, derive_one
from bigstep.lang_while import (ABin, ANum, AVar, Assign, BAnd, BBool, BCmp,
                                BNot, If, PLUGIN, Seq, Skip, While,
                                WhileConfig, WhileState, aeval, beval,
                                parse_config, parse_stmt, while_rules)
from bigstep.syntax import ParseError

S = WhileState.of
B = SampleBudget(max_depth=64, max_samples=4, seed=0)

# An integer of 5,001 digits: past CPython's default limit of 4,300 on
# int-string conversion, where `str` and `int` raise ValueError.
BIG = 10 ** 5000 + 7
BIG_TEXT = "1" + "0" * 4999 + "7"


def run(stmt, state):
    return derive_one(PLUGIN, WhileConfig(stmt, state), B)


# ---------------------------------------------------------------------------
# One test per rule: exact premise/conclusion shape
# ---------------------------------------------------------------------------

def test_rule_skip_concludes_same_state():
    s = S({"x": 1})
    apps = while_rules(WhileConfig(Skip(), s))
    assert apps == [Conclude(s)]


def test_rule_assign_concludes_updated_state():
    s = S({"x": 1})
    apps = while_rules(WhileConfig(Assign("y", ABin("+", AVar("x"),
                                                    ANum(2))), s))
    assert apps == [Conclude(S({"x": 1, "y": 3}))]


def test_rule_seq_threads_intermediate_state_through_both_premises():
    s = S({})
    stmt = Seq(Assign("x", ANum(1)), Assign("y", AVar("x")))
    (app,) = while_rules(WhileConfig(stmt, s))
    assert isinstance(app, Need)
    assert app.premise == WhileConfig(Assign("x", ANum(1)), s)
    mid = S({"x": 1})
    nxt = app.rest(mid)
    assert isinstance(nxt, Need)
    assert nxt.premise == WhileConfig(Assign("y", AVar("x")), mid)
    fin = S({"x": 1, "y": 1})
    assert nxt.rest(fin) == Conclude(fin)


def test_rule_if_true_premise_is_then_branch():
    s = S({"x": 1})
    stmt = If(BCmp("<", ANum(0), AVar("x")), Assign("y", ANum(1)), Skip())
    (app,) = while_rules(WhileConfig(stmt, s))
    assert isinstance(app, Need)
    assert app.premise == WhileConfig(Assign("y", ANum(1)), s)
    fin = S({"x": 1, "y": 1})
    assert app.rest(fin) == Conclude(fin)


def test_rule_if_false_premise_is_else_branch():
    s = S({})
    stmt = If(BCmp("<", ANum(0), AVar("x")), Assign("y", ANum(1)), Skip())
    (app,) = while_rules(WhileConfig(stmt, s))
    assert app.premise == WhileConfig(Skip(), s)


def test_rule_while_true_premises_are_body_then_loop_again():
    s = S({"x": 1})
    loop = While(BCmp("<", ANum(0), AVar("x")),
                 Assign("x", ABin("-", AVar("x"), ANum(1))))
    (app,) = while_rules(WhileConfig(loop, s))
    assert isinstance(app, Need)
    assert app.premise == WhileConfig(loop.body, s)
    mid = S({})
    nxt = app.rest(mid)
    assert isinstance(nxt, Need)
    assert nxt.premise == WhileConfig(loop, mid)
    assert nxt.rest(mid) == Conclude(mid)


def test_rule_while_false_concludes_same_state():
    s = S({})
    loop = While(BCmp("<", ANum(0), AVar("x")), Skip())
    assert while_rules(WhileConfig(loop, s)) == [Conclude(s)]


# ---------------------------------------------------------------------------
# States and expressions
# ---------------------------------------------------------------------------

def test_states_are_total_with_default_zero_and_drop_zero_entries():
    assert S({"x": 0}) == S({})
    assert S({"x": 0}).get("x") == 0
    assert S({"x": 2}).set("x", 0) == S({})
    assert str(S({})) == "all zero"


def test_expression_evaluation():
    s = S({"x": 3, "y": -2})
    assert aeval(ABin("*", AVar("x"), ABin("+", AVar("y"), ANum(5))), s) == 9
    assert beval(BAnd(BCmp("<", AVar("y"), AVar("x")),
                      BNot(BCmp("=", AVar("x"), ANum(0)))), s) is True
    assert beval(BBool(False), s) is False


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_config_round_trip():
    cfg = parse_config(
        "x := 1 ; if x < 2 then (while 0 < y do y := y - 1) else skip"
        " || y=3")
    assert cfg.state == S({"y": 3})
    reparsed = parse_config(PLUGIN.pretty(cfg).strip("<>").replace(" | ",
                                                                   " || "))
    assert reparsed == cfg


def test_integers_of_any_length_print_and_parse_back():
    state = S({"x": BIG, "y": -BIG})
    assert str(state) == "x=%s, y=-%s" % (BIG_TEXT, BIG_TEXT)
    assert parse_config("skip || " + str(state)).state == state
    stmt = parse_stmt("x := %s - y" % BIG_TEXT)
    assert stmt == Assign("x", ABin("-", ANum(BIG), AVar("y")))
    assert print_stmt(stmt) == "x := (%s - y)" % BIG_TEXT


def test_parse_state_rejects_a_name_given_twice():
    # The last entry used to win silently: `x=1, x=2` gave x=2.
    with pytest.raises(ParseError, match="x is given twice"):
        parse_config("skip || x=1, y=0, x=2")
    assert parse_config("skip || x=1, y=2").state == S({"x": 1, "y": 2})


def test_parse_precedence_and_negatives():
    assert parse_stmt("x := 1 + 2 * -3") == Assign(
        "x", ABin("+", ANum(1), ABin("*", ANum(2), ANum(-3))))
    assert parse_stmt("x := (1 + 2) * 3") == Assign(
        "x", ABin("*", ABin("+", ANum(1), ANum(2)), ANum(3)))


def test_boolean_literals_parse_print_and_derive():
    # The random programs draw no `true` or `false`; this one does.
    text = ("x := 3 ; if (true and not false) then (y := 1) else (y := 2) ; "
            "while (not x < 1 and true) do (x := (x - 1) ; z := (z + 2)) ; "
            "if false then (skip) else (w := y)")
    stmt = parse_stmt(text)
    assert print_stmt(stmt) == text
    assert stmt.second.first.cond == BAnd(BBool(True), BNot(BBool(False)))
    assert stmt.second.second.first.cond == BAnd(
        BNot(BCmp("<", AVar("x"), ANum(1))), BBool(True))
    results, exhausted = derive_all(PLUGIN, WhileConfig(stmt, S({})), B)
    assert not exhausted
    assert list(results) == [S({"y": 1, "z": 6, "w": 1})]


def test_seq_associates_right():
    stmt = parse_stmt("x := 1 ; y := 2 ; z := 3")
    assert isinstance(stmt, Seq) and isinstance(stmt.second, Seq)


# ---------------------------------------------------------------------------
# Reference interpreter agreement
# ---------------------------------------------------------------------------

def reference_exec(stmt, s, fuel=10_000):
    """Independent recursive interpreter; None when fuel runs out."""
    if fuel <= 0:
        return None
    match stmt:
        case Skip():
            return s
        case Assign(x, a):
            return s.set(x, aeval(a, s))
        case Seq(a, b):
            mid = reference_exec(a, s, fuel - 1)
            return None if mid is None else reference_exec(b, mid, fuel - 1)
        case If(b, a, c):
            return reference_exec(a if beval(b, s) else c, s, fuel - 1)
        case While(b, body):
            while beval(b, s):
                s = reference_exec(body, s, fuel - 1)
                fuel -= 1
                if s is None or fuel <= 0:
                    return None
            return s


_aexp = st.recursive(
    st.integers(-3, 3).map(ANum) | st.sampled_from("xyz").map(AVar),
    lambda kids: st.tuples(st.sampled_from("+-*"), kids, kids).map(
        lambda t: ABin(*t)),
    max_leaves=6)
_bexp = st.builds(BCmp, st.sampled_from("=<"), _aexp, _aexp)
_loopfree_stmt = st.recursive(
    st.just(Skip()) | st.builds(Assign, st.sampled_from("xyz"), _aexp),
    lambda kids: st.builds(Seq, kids, kids)
    | st.builds(If, _bexp, kids, kids),
    max_leaves=8)
_state = st.dictionaries(st.sampled_from("xyz"),
                         st.integers(-3, 3)).map(WhileState.of)


@settings(max_examples=150, deadline=None)
@given(_loopfree_stmt, _state)
def test_loop_free_programs_agree_with_reference_interpreter(stmt, s):
    results, exhausted = derive_all(PLUGIN, WhileConfig(stmt, s), B)
    assert not exhausted
    assert list(results) == [reference_exec(stmt, s)]


def test_countdown_loop_agrees_with_reference_interpreter():
    stmt = parse_stmt("while 0 < x do (y := y + x ; x := x - 1)")
    s = S({"x": 5})
    assert run(stmt, s) == reference_exec(stmt, s) == S({"y": 15})


def test_factorial_program():
    from bigstep.spec_lib import FAC_SRC
    stmt = parse_stmt(FAC_SRC)
    assert run(stmt, S({"m": 3})).get("fac") == 6
    assert run(stmt, S({"m": 4})).get("fac") == 24
