"""Seeded random configuration generators for the three bundled languages.

Used for differential testing (inference against derivation), and to build
the shallow loop-free corpus over which the most-informative specification
is checked.  Generated programs may be stuck or divergent; both are fine
for the checks they feed (stuck configurations derive nothing, divergence
is cut by the depth budget).

While and ExtWhile share one grammar, ExtWhile's; each language draws only
the forms its `LEXICON` (the symbols and keywords of its `Tokens`) can
parse: `[` for array reads and writes, `/`, and `var`, `array` and `call`.
A missing form's share of a roll falls to the next form, so with every form
in the lexicon the draws are ExtWhile's own.
"""

from __future__ import annotations

import random

from . import imp_syntax as imp
from . import lang_extwhile as ew
from . import lang_fun as fn
from . import lang_while as wh
from .kernel import seeded_rng

_VARS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# While and Extended While
# ---------------------------------------------------------------------------

def _grammar(lexicon) -> tuple:
    """`lexicon`'s token texts and its arithmetic operators, outside and
    inside loop bodies (which do not multiply, so values stay small)."""
    symbols, keywords = lexicon
    ops = "".join(op for op in "+-*/" if op in symbols)
    return frozenset(symbols) | keywords, ops, ops.replace("*", "")


_WHILE = _grammar(wh.LEXICON)
_EXTWHILE = _grammar(ew.LEXICON)

_INC_PROGRAM = ew.ExtProgram((
    ("inc", ew.Func(("a",), ("r",),
                    imp.Assign("r", imp.ABin("+", imp.AName("a"),
                                             imp.ANum(1))))),
))


def _aexp(rng: random.Random, depth: int, tokens: frozenset,
          ops: str) -> imp.AExp:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.5:
            return imp.ANum(rng.randint(-3, 3))
        return imp.AName(rng.choice(_VARS))
    if roll < 0.5 and "[" in tokens:
        return imp.AIdx("A", _index(rng))
    op = rng.choice(ops)
    return imp.ABin(op, _aexp(rng, depth - 1, tokens, ops),
                    _aexp(rng, depth - 1, tokens, ops))


def _index(rng: random.Random) -> imp.AExp:
    if rng.random() < 0.6:
        return imp.ANum(rng.randint(0, 3))
    return imp.AName(rng.choice(_VARS))


def _bexp(rng: random.Random, depth: int, tokens: frozenset,
          ops: str) -> imp.BExp:
    if depth > 0:
        roll = rng.random()
        if roll < 0.2:
            return imp.BNot(_bexp(rng, depth - 1, tokens, ops))
        if roll < 0.4:
            return imp.BAnd(_bexp(rng, depth - 1, tokens, ops),
                            _bexp(rng, depth - 1, tokens, ops))
    return imp.BCmp(rng.choice("=<"), _aexp(rng, 1, tokens, ops),
                    _aexp(rng, 1, tokens, ops))


def _stmt(rng: random.Random, depth: int, grammar: tuple,
          allow_loops: bool, in_loop: bool = False) -> imp.Stmt:
    tokens, all_ops, loop_ops = grammar
    ops = loop_ops if in_loop else all_ops
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return imp.Skip()
        if roll < 0.2 and "var" in tokens:
            return imp.VarDecl(rng.choice(("w", "v")))
        if roll < 0.3 and "array" in tokens:
            return imp.ArrDecl("B", rng.randint(0, 3))
        if roll < 0.45 and "[" in tokens:
            return imp.ArrAssign("A", _index(rng), _aexp(rng, 1, tokens, ops))
        if roll < 0.55 and "call" in tokens:
            return imp.Call("inc", (_aexp(rng, 1, tokens, ops),),
                            (rng.choice(_VARS),))
        return imp.Assign(rng.choice(_VARS), _aexp(rng, 2, tokens, ops))
    roll = rng.random()
    if allow_loops and roll < 0.15:
        # Bounded countdown loops terminate; budget cuts the rest.
        v = rng.choice(_VARS)
        body = imp.Seq(imp.Assign(v, imp.ABin("-", imp.AName(v), imp.ANum(1))),
                       _stmt(rng, depth - 1, grammar, False, True))
        return imp.While(imp.BCmp("<", imp.ANum(0), imp.AName(v)), body)
    if roll < 0.55:
        return imp.Seq(_stmt(rng, depth - 1, grammar, allow_loops, in_loop),
                       _stmt(rng, depth - 1, grammar, allow_loops, in_loop))
    return imp.If(_bexp(rng, 1, tokens, all_ops),
                  _stmt(rng, depth - 1, grammar, allow_loops, in_loop),
                  _stmt(rng, depth - 1, grammar, allow_loops, in_loop))


def random_while_config(seed: int, index: int,
                        allow_loops: bool = True) -> wh.WhileConfig:
    rng = seeded_rng(seed, "while", index, allow_loops)
    state = wh.WhileState.of(
        {v: rng.randint(-2, 3) for v in _VARS if rng.random() < 0.7})
    return wh.WhileConfig(_stmt(rng, 3, _WHILE, allow_loops), state)


def random_extwhile_config(seed: int, index: int,
                           allow_loops: bool = True) -> ew.ExtConfig:
    rng = seeded_rng(seed, "extwhile", index, allow_loops)
    names = {v: rng.randint(-2, 3) for v in _VARS if rng.random() < 0.8}
    heap = {}
    nextloc = 0
    if rng.random() < 0.7:
        size = rng.randint(1, 4)
        names["A"] = 0
        heap = {i: rng.randint(-3, 3) for i in range(size)}
        nextloc = size
    state = ew.ExtState.of(names, heap, nextloc)
    return ew.ExtConfig(_stmt(rng, 3, _EXTWHILE, allow_loops), state,
                        _INC_PROGRAM)


# ---------------------------------------------------------------------------
# Functional
# ---------------------------------------------------------------------------

def _fn_expr(rng: random.Random, depth: int, bound: tuple) -> fn.FExpr:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        choices = [fn.FNum(rng.randint(-3, 3)),
                   fn.FBool(rng.random() < 0.5), fn.FNil()]
        if bound and rng.random() < 0.5:
            return fn.FVar(rng.choice(bound))
        return rng.choice(choices)
    if roll < 0.5:
        op = rng.choice("+-*/=<")
        return fn.FBin(op, _fn_expr(rng, depth - 1, bound),
                       _fn_expr(rng, depth - 1, bound))
    if roll < 0.6:
        return fn.FIf(_fn_expr(rng, depth - 1, bound),
                      _fn_expr(rng, depth - 1, bound),
                      _fn_expr(rng, depth - 1, bound))
    if roll < 0.7:
        return fn.FCons(_fn_expr(rng, depth - 1, bound),
                        _fn_expr(rng, depth - 1, bound))
    if roll < 0.8:
        return fn.FListCase(
            _fn_expr(rng, depth - 1, bound),
            _fn_expr(rng, depth - 1, bound),
            fn.FLam("h", fn.FLam("t", _fn_expr(rng, depth - 1,
                                               bound + ("h", "t")))))
    if roll < 0.9:
        return fn.FNot(_fn_expr(rng, depth - 1, bound))
    v = rng.choice(("a", "b"))
    return fn.FApp(fn.FLam(v, _fn_expr(rng, depth - 1, bound + (v,))),
                   _fn_expr(rng, depth - 1, bound))


def random_fun_config(seed: int, index: int) -> fn.FExpr:
    rng = seeded_rng(seed, "fun", index)
    return _fn_expr(rng, 3, ())


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def random_corpus(language: str, count: int, seed: int,
                  allow_loops: bool = True) -> list:
    if language == "while":
        return [random_while_config(seed, i, allow_loops)
                for i in range(count)]
    if language == "extwhile":
        return [random_extwhile_config(seed, i, allow_loops)
                for i in range(count)]
    if language == "fun":
        return [random_fun_config(seed, i) for i in range(count)]
    raise ValueError("unknown language %r" % language)


def loop_free_corpus(language: str, count: int, seed: int) -> list:
    """Shallow, loop-free configurations whose full derivations fit within
    a small depth bound (used for checks against the most-informative
    specification)."""
    if language == "fun":
        rng = seeded_rng(seed, "fun-loopfree", count)
        return [_fn_expr(rng, 2, ()) for _ in range(count)]
    return random_corpus(language, count, seed, allow_loops=False)
