"""Extended While language: one test per semantic rule, the call store
initialization/finalization equations, partial expression evaluation, and
the array-merge function against a list oracle."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bigstep.imp_syntax import print_stmt
from bigstep.kernel import Conclude, Need, SampleBudget, derive_one
from bigstep.lang_extwhile import (LEXICON, PLUGIN, ABin, AIdx, AName, ANum,
                                   ArrAssign, ArrDecl, Assign, BAnd, BCmp,
                                   BNot, Call, ExtConfig, ExtProgram,
                                   ExtState, Func, If, Seq, Skip, VarDecl,
                                   While, aeval, beval, call_fin, call_ini,
                                   ext_rules, parse_config, parse_functions,
                                   parse_state, parse_stmt)
from bigstep.spec_lib import merge_call_config
from bigstep.syntax import ParseError

# An integer of 5,001 digits: past CPython's default limit of 4,300 on
# int-string conversion, where `str` and `int` raise ValueError.
BIG = 10 ** 5000 + 7
BIG_TEXT = "1" + "0" * 4999 + "7"

B = SampleBudget(max_depth=4096, max_samples=4, seed=0)
EMPTY = ExtProgram()


def S(names, heap=None, nextloc=0):
    return ExtState.of(names, heap or {}, nextloc)


def cfg(stmt, state, prog=EMPTY):
    return ExtConfig(stmt, state, prog)


# ---------------------------------------------------------------------------
# One test per rule
# ---------------------------------------------------------------------------

def test_rule_skip():
    s = S({"x": 1})
    assert ext_rules(cfg(Skip(), s)) == [Conclude(s)]


def test_rule_var_decl_initializes_to_zero_and_rejects_redeclaration():
    assert ext_rules(cfg(VarDecl("x"), S({}))) == [Conclude(S({"x": 0}))]
    assert ext_rules(cfg(VarDecl("x"), S({"x": 1}))) == []


def test_rule_array_decl_allocates_fresh_locations():
    s = S({}, {}, 4)
    assert ext_rules(cfg(ArrDecl("A", 3), s)) == [
        Conclude(S({"A": 4}, {}, 7))]
    assert ext_rules(cfg(ArrDecl("A", 3), S({"A": 0}))) == []


def test_rule_assign_requires_declared_name_and_defined_value():
    s = S({"x": 1, "y": 2})
    assert ext_rules(cfg(Assign("x", AName("y")), s)) == [
        Conclude(S({"x": 2, "y": 2}))]
    assert ext_rules(cfg(Assign("z", ANum(1)), s)) == []  # undeclared
    assert ext_rules(cfg(Assign("x", AName("w")), s)) == []  # undefined rhs


def test_rule_array_assign_bounds_checked():
    s = S({"A": 1}, {}, 3)  # A has extent at locations 1..2
    assert ext_rules(cfg(ArrAssign("A", ANum(1), ANum(9)), s)) == [
        Conclude(S({"A": 1}, {2: 9}, 3))]
    assert ext_rules(cfg(ArrAssign("A", ANum(2), ANum(9)), s)) == []
    assert ext_rules(cfg(ArrAssign("A", ANum(-1), ANum(9)), s)) == []


def test_rule_if_selects_branch_and_sticks_on_undefined_guard():
    s = S({"x": 1})
    stmt = If(BCmp("<", ANum(0), AName("x")), Assign("x", ANum(2)), Skip())
    (app,) = ext_rules(cfg(stmt, s))
    assert app.premise == cfg(Assign("x", ANum(2)), s)
    fin = S({"x": 2})
    assert app.rest(fin) == Conclude(fin)
    bad = If(BCmp("<", ANum(0), AName("w")), Skip(), Skip())
    assert ext_rules(cfg(bad, s)) == []


def test_rule_if_false_selects_else_branch():
    s = S({})
    stmt = If(BCmp("<", ANum(1), ANum(0)), Skip(), VarDecl("x"))
    (app,) = ext_rules(cfg(stmt, s))
    assert app.premise == cfg(VarDecl("x"), s)


def test_rule_while_unfolds_once_when_true_and_exits_when_false():
    s = S({"x": 1})
    loop = While(BCmp("<", ANum(0), AName("x")),
                 Assign("x", ABin("-", AName("x"), ANum(1))))
    (app,) = ext_rules(cfg(loop, s))
    assert isinstance(app, Need)
    assert app.premise == cfg(loop.body, s)
    mid = S({"x": 0})
    nxt = app.rest(mid)
    assert nxt.premise == cfg(loop, mid)
    assert nxt.rest(mid) == Conclude(mid)
    assert ext_rules(cfg(loop, mid)) == [Conclude(mid)]


def test_rule_seq_threads_state():
    s = S({})
    stmt = Seq(VarDecl("x"), Assign("x", ANum(5)))
    (app,) = ext_rules(cfg(stmt, s))
    assert app.premise == cfg(VarDecl("x"), s)
    mid = S({"x": 0})
    nxt = app.rest(mid)
    assert nxt.premise == cfg(Assign("x", ANum(5)), mid)


def test_rule_call_runs_body_in_fresh_store_and_restores_caller():
    prog = parse_functions(
        "fun double(a) returns (r) { r := a + a ; var t }")
    s = S({"x": 3, "y": 0}, {0: 7}, 1)
    stmt = Call("double", (AName("x"),), ("y",))
    (app,) = ext_rules(cfg(stmt, s, prog))
    # Callee starts from params + zeroed returns only; locations carry over.
    assert app.premise == cfg(prog.lookup("double").body,
                              S({"a": 3, "r": 0}, {0: 7}, 1), prog)
    post = S({"a": 3, "r": 6, "t": 0}, {0: 7}, 1)
    # Caller keeps its own names, receives the return value, keeps the
    # callee's location effects.
    assert app.rest(post) == Conclude(S({"x": 3, "y": 6}, {0: 7}, 1))


def test_rule_call_is_stuck_on_unknown_function_or_arity_mismatch():
    prog = parse_functions("fun f(a) returns () { skip }")
    s = S({"x": 1})
    assert ext_rules(cfg(Call("g", (), ()), s, prog)) == []
    assert ext_rules(cfg(Call("f", (), ()), s, prog)) == []
    assert ext_rules(cfg(Call("f", (AName("w"),), ()), s, prog)) == []


# ---------------------------------------------------------------------------
# Call store equations
# ---------------------------------------------------------------------------

def test_call_ini_equation():
    s = S({"x": 9, "q": 2}, {3: 5}, 4)
    ini = call_ini(s, ["a", "b"], [1, 2], ["r"])
    assert ini == S({"a": 1, "b": 2, "r": 0}, {3: 5}, 4)
    assert ini.name("x") is None  # caller names are not visible
    with pytest.raises(ValueError):
        call_ini(s, ["a"], [1, 2], [])


def test_call_fin_equation():
    pre = S({"x": 1, "y": 9}, {0: 1}, 2)
    post = S({"r1": 7, "r2": 8}, {0: 4, 1: 5}, 9)
    fin = call_fin(pre, post, ["r1", "r2"], ["y", "x"])
    # Receivers take the callee's returns; other names come from the
    # caller; locations come from the callee; nextloc is the caller's.
    assert fin == S({"x": 8, "y": 7}, {0: 4, 1: 5}, 2)
    with pytest.raises(ValueError):
        call_fin(pre, post, ["r1"], ["y", "x"])


def test_call_fin_restores_caller_allocation_frontier():
    prog = parse_functions("fun f() returns () { array Z[5] }")
    s = S({"x": 1}, {}, 2)
    out = derive_one(PLUGIN, cfg(Call("f", (), ()), s, prog), B)
    assert out.nextloc == 2  # callee allocations do not leak


# ---------------------------------------------------------------------------
# Partial expression evaluation
# ---------------------------------------------------------------------------

def test_arith_undefined_propagates_and_division_is_partial_at_zero():
    s = S({"x": 4, "A": 0}, {0: 6}, 1)
    assert aeval(AName("w"), s) is None
    assert aeval(ABin("+", AName("w"), ANum(1)), s) is None
    assert aeval(ABin("/", AName("x"), ANum(0)), s) is None
    assert aeval(ABin("/", ANum(-7), ANum(2)), s) == -4  # floor division
    assert aeval(AIdx("A", ANum(0)), s) == 6
    assert aeval(AIdx("A", ANum(1)), s) is None  # beyond the frontier
    assert aeval(AIdx("A", ANum(-1)), s) is None


def test_bool_negation_propagates_undefined_but_conjunction_is_two_valued():
    s = S({"x": 1})
    undef = BCmp("<", AName("w"), ANum(0))
    true = BCmp("<", ANum(0), AName("x"))
    assert beval(undef, s) is None
    assert beval(BNot(undef), s) is None
    assert beval(BAnd(true, true), s) is True
    assert beval(BAnd(true, undef), s) is False
    assert beval(BAnd(undef, undef), s) is False


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_config_three_sections_and_state_syntax():
    c = parse_config("fun f(a) returns (r) { r := a } || "
                     "call f(x; y) || x=2, y=0")
    assert c.stmt == Call("f", (AName("x"),), ("y",))
    assert c.program.lookup("f") is not None
    assert derive_one(PLUGIN, c, B).name("y") == 2


def test_parse_state_allocates_arrays_in_order():
    st = parse_state("S=[1,2], T=[5]@1, x=9")
    assert st.name("S") == 0 and st.name("T") == 2 and st.name("x") == 9
    assert st.loc(0) == 1 and st.loc(1) == 2 and st.loc(3) == 5
    assert st.nextloc == 4
    assert parse_state("S=[1], nextloc=9").nextloc == 9


def test_parse_state_rejects_a_negative_offset():
    # S=[1,3]@-1 would place S's first cell below its base, inside the
    # cells of the array allocated before it.
    with pytest.raises(ParseError):
        parse_state("S=[1,3]@-1, T=[7]")
    assert parse_state("S=[1,3]@0, T=[7]") == parse_state("S=[1,3], T=[7]")


def test_parse_state_rejects_nextloc_below_the_arrays():
    # With nextloc=1, `array B[1]` was allocated over S's second cell
    # without zeroing it, so `x := B[0]` read 2 instead of 0.
    for src in ("S=[1,2], x=0, nextloc=1", "nextloc=0, T=[5]@1"):
        with pytest.raises(ParseError, match="nextloc"):
            parse_state(src)
    with pytest.raises(ParseError, match="nextloc"):
        parse_config("array B[1] ; x := B[0] || S=[1,2], x=0, nextloc=1")
    assert parse_state("S=[1,2], nextloc=2").nextloc == 2
    c = parse_config("array B[1] ; x := B[0] || S=[1,2], x=0, nextloc=2")
    assert derive_one(PLUGIN, c, B).name("x") == 0


def test_le_comparison_desugars_to_negated_flipped_lt():
    stmt = parse_stmt("if x <= y then skip else skip")
    assert stmt.cond == BNot(BCmp("<", AName("y"), AName("x")))


# ---------------------------------------------------------------------------
# The array-merge function against a list oracle
# ---------------------------------------------------------------------------

def _merge_result(l, frag1, frag2):
    gamma = merge_call_config(l, frag1, frag2)
    out = derive_one(PLUGIN, gamma, B)
    assert out is not None
    base = out.name("T")
    h = l + len(frag1) + len(frag2) - 1
    return [out.loc(base + q) for q in range(l, h + 1)]


@pytest.mark.parametrize("l,f1,f2", [
    (0, [1, 3], [2]),
    (1, [0, 0, 2], [-1, 5]),
    (2, [-3], [-3]),
    (0, [1], [2, 2, 2]),
])
def test_merge_function_matches_sorted_concatenation(l, f1, f2):
    assert _merge_result(l, f1, f2) == sorted(f1 + f2)


@pytest.mark.parametrize("src", [
    "fun f(a) returns (r) { r := a y := 2 }",
    "fun f(a) returns (r) { r := a",
    "fun f(a) returns (r) { { r := a } }",
    "fun f(a) returns (r) { r := a } }",
    "fun f(a, a) returns (r) { r := a }",
    "fun f() returns (r, r) { r := 1 }",
    # The first definition used to win silently: `call f(; y)` gave y=1.
    "fun f() returns (r) { r := 1 } fun f() returns (r) { r := 2 }",
])
def test_parse_functions_rejects_a_malformed_definition(src):
    with pytest.raises(ParseError):
        parse_functions(src)


@pytest.mark.parametrize("src,name", [
    ("x=1, x=2", "x"),
    # The second array used to orphan the first one's cells.
    ("S=[1,2], S=[5]", "S"),
    ("S=[1], x=0, S=[2]@1", "S"),
    ("S=[1], nextloc=3, nextloc=4", "nextloc"),
    ("[1]=2, [1]=3", "[1]"),
    ("S=[1,2], [1]=5", "[1]"),
    ("[0]=4, S=[1]", "[0]"),
])
def test_parse_state_rejects_a_name_given_twice(src, name):
    with pytest.raises(ParseError,
                       match=re.escape("%s is given twice" % name)):
        parse_state(src)


def test_printed_state_with_arrays_parses_back():
    state = parse_state("S=[1,2], x=3")
    assert str(state) == "S=0, x=3, [0]=1, [1]=2, nextloc=2"
    assert parse_state(str(state)) == state
    # A location need not lie below nextloc: a call keeps the cells of
    # arrays its callee allocated, and the caller's nextloc.
    assert str(parse_state("[-2]=1, [5]=3, nextloc=1")) == \
        "[-2]=1, [5]=3, nextloc=1"


def test_integers_of_any_length_print_and_parse_back():
    state = ExtState.of({"x": -BIG}, {BIG: BIG}, BIG)
    text = "x=-%s, [%s]=%s, nextloc=%s" % ((BIG_TEXT,) * 4)
    assert str(state) == text
    assert parse_state(text) == state
    # The parse errors that print a location or `nextloc` print it too.
    with pytest.raises(ParseError, match="given twice"):
        parse_state("[%s]=1, [%s]=2" % (BIG_TEXT, BIG_TEXT))
    with pytest.raises(ParseError, match="is below"):
        parse_state("S=[1], nextloc=-" + BIG_TEXT)
    stmt = parse_stmt("array A[%s] ; A[%s] := %s" % ((BIG_TEXT,) * 3))
    assert stmt == Seq(ArrDecl("A", BIG),
                       ArrAssign("A", ANum(BIG), ANum(BIG)))
    assert print_stmt(stmt) == "array A[%s] ; A[%s] := %s" % (
        (BIG_TEXT,) * 3)


_STATE_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}",
                             fullmatch=True).filter(
    lambda n: n not in LEXICON[1] and n != "nextloc")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_STATE_NAMES, st.integers(-50, 50), max_size=5),
       st.dictionaries(st.integers(-5, 40), st.integers(-50, 50),
                       max_size=8),
       st.integers(0, 40))
def test_every_printed_state_parses_back(names, heap, nextloc):
    state = ExtState.of(names, heap, nextloc)
    assert parse_state(str(state)) == state


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 40), st.integers(-2, 2)),
       st.integers(-2, 44))
def test_loc_equals_a_linear_scan_of_the_heap(cells, location):
    # Cells holding zero are kept here: `ExtState.of` drops them, but a
    # lookup must not depend on that.
    heap = tuple(sorted(cells.items()))
    for state in (ExtState((), heap, 0), S({}, cells)):
        for at in list(cells) + [location]:
            scan = next((v for k, v in state.heap if k == at), 0)
            assert state.loc(at) == scan == cells.get(at, 0)
