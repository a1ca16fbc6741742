"""The While language: statements over integer states, and its seven
big-step rules packaged as a LanguagePlugin.

Its syntax, grammar and printer are ExtWhile's (`imp_syntax`), read with a
lexicon that has no declarations, arrays, calls, `/` or `<=`.

States are total maps Var -> Z, represented as finite maps defaulting to 0;
zero-valued entries are dropped so structural equality compares exactly the
variables a program has touched.
"""

from __future__ import annotations

from .imp_syntax import (ABin, AExp, AName, ANum, Assign, BAnd, BBool, BCmp,
                         BExp, BNot, If, Seq, Skip, Stmt, While, parse_whole,
                         print_config)
from .kernel import Conclude, LanguagePlugin, Need
from .syntax import Node, ParseError, Tokens, hash_once, sorted_put

AVar = AName  # a variable read; While has no arrays


# ---------------------------------------------------------------------------
# States and configurations
# ---------------------------------------------------------------------------

@hash_once
class WhileState(Node):
    bindings: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: dict[str, int]) -> "WhileState":
        return cls(tuple(sorted((k, v) for k, v in mapping.items()
                                if v != 0)))

    def get(self, name: str) -> int:
        for k, v in self.bindings:
            if k == name:
                return v
        return 0

    def set(self, name: str, value: int) -> "WhileState":
        return WhileState(sorted_put(self.bindings, name, value,
                                     drop_zero=True))

    def __str__(self):
        if not self.bindings:
            return "all zero"
        return ", ".join("%s=%d" % (k, v) for k, v in self.bindings)


@hash_once
class WhileConfig(Node):
    stmt: Stmt
    state: WhileState


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def aeval(a: AExp, s: WhileState) -> int:
    match a:
        case ANum(v):
            return v
        case AName(x):
            return s.get(x)
        case ABin("+", l, r):
            return aeval(l, s) + aeval(r, s)
        case ABin("-", l, r):
            return aeval(l, s) - aeval(r, s)
        case ABin("*", l, r):
            return aeval(l, s) * aeval(r, s)
    raise ValueError("bad arithmetic expression: %r" % (a,))


def beval(b: BExp, s: WhileState) -> bool:
    match b:
        case BBool(v):
            return v
        case BCmp("=", l, r):
            return aeval(l, s) == aeval(r, s)
        case BCmp("<", l, r):
            return aeval(l, s) < aeval(r, s)
        case BAnd(l, r):
            return beval(l, s) and beval(r, s)
        case BNot(x):
            return not beval(x, s)
    raise ValueError("bad boolean expression: %r" % (b,))


# ---------------------------------------------------------------------------
# Semantic rules
# ---------------------------------------------------------------------------

def while_rules(gamma: WhileConfig) -> list:
    """Rule instances concluding at `gamma`; at most one applies."""
    stmt, s = gamma.stmt, gamma.state
    match stmt:
        case Skip():
            return [Conclude(s)]
        case Assign(x, a):
            return [Conclude(s.set(x, aeval(a, s)))]
        case Seq(s1, s2):
            return [Need(WhileConfig(s1, s),
                         lambda mid, _s2=s2: Need(
                             WhileConfig(_s2, mid),
                             lambda fin: Conclude(fin)))]
        case If(b, s1, s2):
            branch = s1 if beval(b, s) else s2
            return [Need(WhileConfig(branch, s), lambda fin: Conclude(fin))]
        case While(b, body):
            if beval(b, s):
                return [Need(WhileConfig(body, s),
                             lambda mid, _w=stmt: Need(
                                 WhileConfig(_w, mid),
                                 lambda fin: Conclude(fin)))]
            return [Conclude(s)]
    raise ValueError("bad statement: %r" % (stmt,))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# The symbols and keywords of While's `Tokens`.
LEXICON = ([":=", ";", "(", ")", "+", "-", "*", "<", "=", ",", "||"],
           {"skip", "if", "then", "else", "while", "do",
            "true", "false", "and", "not"})


def _toks(src: str) -> Tokens:
    return Tokens(src, *LEXICON)


def parse_stmt(src: str) -> Stmt:
    return parse_whole(_toks(src))


def parse_state(src: str) -> WhileState:
    src = src.strip()
    if not src:
        return WhileState()
    t = _toks(src)
    d = {}
    while True:
        x = t.ident()
        if x in d:
            raise ParseError("%s is given twice" % x)
        t.eat("=")
        d[x] = t.integer()
        if not t.accept(","):
            break
    t.expect_end()
    return WhileState.of(d)


def parse_config(src: str) -> WhileConfig:
    """`stmt || state` where the state is an `x=3, y=4` assignment list."""
    prog, _, state = src.partition("||")
    return WhileConfig(parse_stmt(prog), parse_state(state))


def pretty(value, texts=None) -> str:
    if isinstance(value, WhileConfig):
        return print_config(value.stmt, value.state, texts)
    if isinstance(value, WhileState):
        return str(value)
    return repr(value)


PLUGIN = LanguagePlugin(
    name="while",
    rules=while_rules,
    parse_config=parse_config,
    pretty=pretty,
)
