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
                         print_config, print_stmt)
from .kernel import Conclude, LanguagePlugin, Need
from .syntax import (Node, ParseError, Tokens, hash_once, int_text,
                     sorted_put)

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
        return ", ".join("%s=%s" % (k, int_text(v)) for k, v in self.bindings)


@hash_once
class WhileConfig(Node):
    stmt: Stmt
    state: WhileState


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def aeval(a: AExp, s: WhileState) -> int:
    # Nodes are final classes: an exact-class test per form, the most
    # frequent first, matches what a class pattern would.
    cls = type(a)
    if cls is AName:
        return s.get(a.name)
    if cls is ANum:
        return a.value
    if cls is ABin:
        op = a.op
        if op == "+":
            return aeval(a.left, s) + aeval(a.right, s)
        if op == "-":
            return aeval(a.left, s) - aeval(a.right, s)
        if op == "*":
            return aeval(a.left, s) * aeval(a.right, s)
    raise ValueError("bad arithmetic expression: %r" % (a,))


def beval(b: BExp, s: WhileState) -> bool:
    cls = type(b)
    if cls is BCmp:
        op = b.op
        if op == "<":
            return aeval(b.left, s) < aeval(b.right, s)
        if op == "=":
            return aeval(b.left, s) == aeval(b.right, s)
    if cls is BNot:
        return not beval(b.arg, s)
    if cls is BAnd:
        return beval(b.left, s) and beval(b.right, s)
    if cls is BBool:
        return b.value
    raise ValueError("bad boolean expression: %r" % (b,))


# ---------------------------------------------------------------------------
# Semantic rules
# ---------------------------------------------------------------------------

def while_rules(gamma: WhileConfig) -> list:
    """Rule instances concluding at `gamma`; at most one applies."""
    stmt, s = gamma.stmt, gamma.state
    cls = type(stmt)
    if cls is Assign:
        return [Conclude(s.set(stmt.var, aeval(stmt.expr, s)))]
    if cls is Seq:
        second = stmt.second
        return [Need(WhileConfig(stmt.first, s),
                     lambda mid: Need(WhileConfig(second, mid), Conclude))]
    if cls is While:
        if beval(stmt.cond, s):
            return [Need(WhileConfig(stmt.body, s),
                         lambda mid: Need(WhileConfig(stmt, mid), Conclude))]
        return [Conclude(s)]
    if cls is If:
        branch = stmt.then if beval(stmt.cond, s) else stmt.orelse
        return [Need(WhileConfig(branch, s), Conclude)]
    if cls is Skip:
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
    if src in ("", "all zero"):  # `str` prints the empty state as the latter
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
    if isinstance(value, Stmt):
        return print_stmt(value)
    return repr(value)


PLUGIN = LanguagePlugin(
    name="while",
    rules=while_rules,
    parse_config=parse_config,
    pretty=pretty,
)
