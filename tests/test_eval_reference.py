"""The plugins' expression evaluators and `fun`'s substitution, checked
against small reference versions written here from the languages' stated
semantics, and their `ValueError` on a node class they do not know."""

import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bigstep import lang_extwhile, lang_fun, lang_while
from bigstep.imp_syntax import (ABin, AIdx, AName, ANum, BAnd, BBool, BCmp,
                                BNot)
from bigstep.lang_extwhile import ExtConfig, ExtProgram, ExtState
from bigstep.lang_fun import (FApp, FBool, FCons, FLam, FLetRec, FNil, FNode,
                              FNum, FVar, is_canonical, occurrences, subst)
from bigstep.lang_while import WhileConfig, WhileState
from bigstep.random_programs import random_corpus
from bigstep.syntax import Node, hash_once

NAMES = ("x", "y", "S", "T")


def _aexps(ops, with_index):
    leaves = st.one_of(st.builds(ANum, st.integers(-6, 6)),
                       st.builds(AName, st.sampled_from(NAMES)))

    def extend(sub):
        forms = [st.builds(ABin, st.sampled_from(ops), sub, sub)]
        if with_index:
            forms.append(st.builds(AIdx, st.sampled_from(NAMES), sub))
        return st.one_of(forms)
    return st.recursive(leaves, extend, max_leaves=12)


def _bexps(aexps):
    leaves = st.one_of(st.builds(BBool, st.booleans()),
                       st.builds(BCmp, st.sampled_from("=<"), aexps, aexps))
    return st.recursive(
        leaves, lambda sub: st.one_of(st.builds(BAnd, sub, sub),
                                      st.builds(BNot, sub)),
        max_leaves=6)


# ---------------------------------------------------------------------------
# While: total evaluation over states defaulting to 0
# ---------------------------------------------------------------------------

_WHILE_A = _aexps("+-*", with_index=False)
_WHILE_STATES = st.builds(
    WhileState.of, st.dictionaries(st.sampled_from(NAMES),
                                   st.integers(-9, 9)))
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _while_a(a, env):
    if isinstance(a, ANum):
        return a.value
    if isinstance(a, AName):
        return env.get(a.name, 0)
    return _ARITH[a.op](_while_a(a.left, env), _while_a(a.right, env))


def _while_b(b, env):
    if isinstance(b, BBool):
        return b.value
    if isinstance(b, BCmp):
        x, y = _while_a(b.left, env), _while_a(b.right, env)
        return x == y if b.op == "=" else x < y
    if isinstance(b, BAnd):
        return _while_b(b.left, env) and _while_b(b.right, env)
    return not _while_b(b.arg, env)


@settings(max_examples=200, deadline=None)
@given(_WHILE_A, _bexps(_WHILE_A), _WHILE_STATES)
def test_while_evaluation_matches_the_reference(a, b, state):
    env = dict(state.bindings)
    assert lang_while.aeval(a, state) == _while_a(a, env)
    assert lang_while.beval(b, state) is _while_b(b, env)


# ---------------------------------------------------------------------------
# ExtWhile: partial evaluation, None being undefined
# ---------------------------------------------------------------------------

_EXT_A = _aexps("+-*/", with_index=True)
_EXT_STATES = st.builds(
    ExtState.of,
    st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 6)),
    st.dictionaries(st.integers(-3, 9), st.integers(-9, 9)),
    st.integers(0, 8))


def _ext_a(a, names, heap, nextloc):
    """Any undefined operand makes the whole expression undefined; `/`
    floors and is undefined at zero; `X[i]` is defined for
    0 <= i and X's base + i below the next fresh location."""
    if isinstance(a, ANum):
        return a.value
    if isinstance(a, AName):
        return names.get(a.name)
    if isinstance(a, AIdx):
        base, i = names.get(a.name), _ext_a(a.index, names, heap, nextloc)
        if base is None or i is None or not (0 <= i and base + i < nextloc):
            return None
        return heap.get(base + i, 0)
    x = _ext_a(a.left, names, heap, nextloc)
    y = _ext_a(a.right, names, heap, nextloc)
    if x is None or y is None:
        return None
    if a.op == "/":
        return None if y == 0 else x // y
    return _ARITH[a.op](x, y)


def _ext_b(b, names, heap, nextloc):
    """Comparisons and `not` are undefined on an undefined operand; `and`
    is two-valued, true only when both operands are true."""
    if isinstance(b, BBool):
        return b.value
    if isinstance(b, BCmp):
        x = _ext_a(b.left, names, heap, nextloc)
        y = _ext_a(b.right, names, heap, nextloc)
        if x is None or y is None:
            return None
        return x == y if b.op == "=" else x < y
    if isinstance(b, BAnd):
        return (_ext_b(b.left, names, heap, nextloc) is True
                and _ext_b(b.right, names, heap, nextloc) is True)
    v = _ext_b(b.arg, names, heap, nextloc)
    return None if v is None else not v


@settings(max_examples=300, deadline=None)
@given(_EXT_A, _bexps(_EXT_A), _EXT_STATES)
def test_extwhile_evaluation_matches_the_reference(a, b, state):
    parts = dict(state.names), dict(state.heap), state.nextloc
    assert lang_extwhile.aeval(a, state) == _ext_a(a, *parts)
    assert lang_extwhile.beval(b, state) is _ext_b(b, *parts)


def test_extwhile_reference_cases_are_drawn():
    # The forms the reference spells out, each met by a fixed case.
    st_ = ExtState.of({"x": 7, "S": 1}, {1: 4, 2: 5}, 3)
    assert lang_extwhile.aeval(ABin("/", AName("x"), ANum(-2)), st_) == -4
    assert lang_extwhile.aeval(ABin("/", AName("x"), ANum(0)), st_) is None
    assert lang_extwhile.aeval(ABin("+", AName("u"), ANum(1)), st_) is None
    assert lang_extwhile.aeval(AIdx("S", ANum(1)), st_) == 5
    assert lang_extwhile.aeval(AIdx("S", ANum(2)), st_) is None
    assert lang_extwhile.aeval(AIdx("S", ANum(-1)), st_) is None
    undefined = BCmp("<", AName("u"), ANum(0))
    assert lang_extwhile.beval(undefined, st_) is None
    assert lang_extwhile.beval(BNot(undefined), st_) is None
    assert lang_extwhile.beval(BAnd(undefined, BBool(True)), st_) is False


# ---------------------------------------------------------------------------
# fun: canonical forms, occurrence sets and substitution
# ---------------------------------------------------------------------------

_MARK = FVar("#")  # no generated or parsed term binds or mentions `#`


def _ref_subst(e, x, c):
    """Replace each `FVar(x)` that no lambda binding `x` encloses; a letrec
    binding `x` shields its body, not its bound lambda."""
    if isinstance(e, FVar):
        return c if e.name == x else e
    if isinstance(e, FLam) and e.var == x:
        return e
    if isinstance(e, FLetRec) and e.var == x:
        return FLetRec(e.var, _ref_subst(e.bound, x, c), e.body)
    return type(e)(*(_ref_subst(v, x, c) if isinstance(v, FNode) else v
                     for v in (getattr(e, f) for f in e.__match_args__)))


def _ref_occurrences(e):
    """The variables that substitution replaces somewhere in `e`."""
    return frozenset(v for v in _var_names(e)
                     if _ref_subst(e, v, _MARK) != e)


def _ref_canonical(e):
    if isinstance(e, FCons):
        return _ref_canonical(e.head) and _ref_canonical(e.tail)
    return isinstance(e, (FNum, FBool, FLam, FNil))


def _subterms(e):
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(v for v in (getattr(x, f) for f in x.__match_args__)
                     if isinstance(v, FNode))
    return out


def _var_names(e):
    return {x.name for x in _subterms(e) if isinstance(x, FVar)}


_CANONICALS = (FNum(3), FLam("z", FVar("z")), FCons(FNum(1), FNil()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_fun_substitution_matches_the_reference(seed, rng):
    terms = [s for t in random_corpus("fun", 3, seed) for s in _subterms(t)]
    # The corpus has no letrec: wrap some of its open subterms in one,
    # binding a variable that the bound lambda may mention.
    for _ in range(4):
        v = rng.choice("abht")
        terms.append(FLetRec(v, FLam(rng.choice("abht"), rng.choice(terms)),
                             rng.choice(terms)))
    for e in terms:
        assert is_canonical(e) is _ref_canonical(e)
        assert occurrences(e) == _ref_occurrences(e)
        for x in sorted(_var_names(e)) + ["q"]:
            c = rng.choice(_CANONICALS)
            assert subst(e, x, c) == _ref_subst(e, x, c)


def test_letrec_substitution_enters_the_bound_lambda():
    bound = FLam("y", FApp(FVar("f"), FVar("y")))
    e = FLetRec("f", bound, FApp(FVar("f"), FNum(1)))
    assert occurrences(e) == {"f"} == _ref_occurrences(e)
    expected = FLetRec("f", FLam("y", FApp(FNum(7), FVar("y"))), e.body)
    assert subst(e, "f", FNum(7)) == expected == _ref_subst(e, "f", FNum(7))


# ---------------------------------------------------------------------------
# An unknown node class is an error, not a silent answer
# ---------------------------------------------------------------------------

@hash_once
class Alien(Node):
    pass


@hash_once
class FAlien(FNode):
    pass


@pytest.mark.parametrize("call", [
    pytest.param(lambda: lang_while.while_rules(
        WhileConfig(Alien(), WhileState())), id="while_rules"),
    pytest.param(lambda: lang_while.aeval(Alien(), WhileState()),
                 id="while-aeval"),
    pytest.param(lambda: lang_while.aeval(
        ABin("/", ANum(4), ANum(2)), WhileState()), id="while-aeval-div"),
    pytest.param(lambda: lang_while.beval(Alien(), WhileState()),
                 id="while-beval"),
    pytest.param(lambda: lang_extwhile.ext_rules(
        ExtConfig(Alien(), ExtState(), ExtProgram())), id="ext_rules"),
    pytest.param(lambda: lang_extwhile.aeval(Alien(), ExtState()),
                 id="extwhile-aeval"),
    pytest.param(lambda: lang_extwhile.beval(Alien(), ExtState()),
                 id="extwhile-beval"),
    pytest.param(lambda: lang_fun.fun_rules(FAlien()), id="fun_rules"),
    pytest.param(lambda: lang_fun.subst(FAlien(), "x", FNum(1)),
                 id="subst"),
    pytest.param(lambda: lang_fun.occurrences(FAlien()),
                 id="occurrences"),
])
def test_unknown_node_class_raises_value_error(call):
    with pytest.raises(ValueError, match="^bad "):
        call()
