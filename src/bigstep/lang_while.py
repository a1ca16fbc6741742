"""The While language: statements over integer states, and its seven
big-step rules packaged as a LanguagePlugin.

States are total maps Var -> Z, represented as finite maps defaulting to 0;
zero-valued entries are dropped so structural equality compares exactly the
variables a program has touched.
"""

from __future__ import annotations

from .kernel import Conclude, LanguagePlugin, Need
from .syntax import (Node, ParseError, Tokens, hash_once, sorted_put,
                     warm_hash)


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@hash_once
class ANum(Node):
    value: int


@hash_once
class AVar(Node):
    name: str


@hash_once
class ABin(Node):
    op: str  # + - *
    left: "AExp"
    right: "AExp"


AExp = ANum | AVar | ABin


@hash_once
class BBool(Node):
    value: bool


@hash_once
class BCmp(Node):
    op: str  # = <
    left: AExp
    right: AExp


@hash_once
class BAnd(Node):
    left: "BExp"
    right: "BExp"


@hash_once
class BNot(Node):
    arg: "BExp"


BExp = BBool | BCmp | BAnd | BNot


@hash_once
class Skip(Node):
    pass


@hash_once
class Assign(Node):
    var: str
    expr: AExp


@hash_once
class Seq(Node):
    first: "Stmt"
    second: "Stmt"


@hash_once
class If(Node):
    cond: BExp
    then: "Stmt"
    orelse: "Stmt"


@hash_once
class While(Node):
    cond: BExp
    body: "Stmt"


Stmt = Skip | Assign | Seq | If | While


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
        case AVar(x):
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

_SYMBOLS = [":=", ";", "(", ")", "+", "-", "*", "<", "=", ",", "||"]
_KEYWORDS = {"skip", "if", "then", "else", "while", "do",
             "true", "false", "and", "not"}


def _toks(src: str) -> Tokens:
    return Tokens(src, _SYMBOLS, _KEYWORDS)


def _parse_aexp(t: Tokens) -> AExp:
    node = _parse_term(t)
    while t.peek() in ("+", "-"):
        op = t.next()
        node = ABin(op, node, _parse_term(t))
    return node


def _parse_term(t: Tokens) -> AExp:
    node = _parse_factor(t)
    while t.peek() == "*":
        t.next()
        node = ABin("*", node, _parse_factor(t))
    return node


def _parse_factor(t: Tokens) -> AExp:
    if t.peek() == "(":
        t.next()
        node = _parse_aexp(t)
        t.eat(")")
        return node
    if t.peek() == "-" or t.peek_kind() == "int":
        return ANum(t.integer())
    return AVar(t.ident())


def _parse_bexp(t: Tokens) -> BExp:
    node = _parse_batom(t)
    while t.peek() == "and":
        t.next()
        node = BAnd(node, _parse_batom(t))
    return node


def _parse_batom(t: Tokens) -> BExp:
    if t.peek() == "true":
        t.next()
        return BBool(True)
    if t.peek() == "false":
        t.next()
        return BBool(False)
    if t.peek() == "not":
        t.next()
        return BNot(_parse_batom(t))
    # Comparison first; fall back to a parenthesized boolean expression.
    mark = t.save()
    try:
        left = _parse_aexp(t)
        if t.peek() in ("=", "<"):
            op = t.next()
            return BCmp(op, left, _parse_aexp(t))
        raise ParseError("not a comparison")
    except ParseError:
        t.restore(mark)
    t.eat("(")
    node = _parse_bexp(t)
    t.eat(")")
    return node


def _parse_stmt(t: Tokens) -> Stmt:
    node = _parse_item(t)
    if t.peek() == ";":
        t.next()
        return Seq(node, _parse_stmt(t))
    return node


def _parse_item(t: Tokens) -> Stmt:
    if t.peek() == "skip":
        t.next()
        return Skip()
    if t.peek() == "(":
        t.next()
        node = _parse_stmt(t)
        t.eat(")")
        return node
    if t.peek() == "if":
        t.next()
        cond = _parse_bexp(t)
        t.eat("then")
        then = _parse_item(t)
        t.eat("else")
        return If(cond, then, _parse_item(t))
    if t.peek() == "while":
        t.next()
        cond = _parse_bexp(t)
        t.eat("do")
        return While(cond, _parse_item(t))
    x = t.ident()
    t.eat(":=")
    return Assign(x, _parse_aexp(t))


def parse_stmt(src: str) -> Stmt:
    t = _toks(src)
    node = _parse_stmt(t)
    t.expect_end()
    return node


def parse_state(src: str) -> WhileState:
    src = src.strip()
    if not src:
        return WhileState()
    t = _toks(src)
    d = {}
    while True:
        x = t.ident()
        t.eat("=")
        d[x] = t.integer()
        if t.peek() != ",":
            break
        t.next()
    t.expect_end()
    return warm_hash(WhileState.of(d))


def parse_config(src: str) -> WhileConfig:
    """`stmt || state` where the state is an `x=3, y=4` assignment list."""
    if "||" in src:
        prog, state = src.split("||", 1)
    else:
        prog, state = src, ""
    return warm_hash(WhileConfig(parse_stmt(prog), parse_state(state)))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_aexp(a: AExp) -> str:
    match a:
        case ANum(v):
            return str(v)
        case AVar(x):
            return x
        case ABin(op, l, r):
            return "(%s %s %s)" % (print_aexp(l), op, print_aexp(r))


def print_bexp(b: BExp) -> str:
    match b:
        case BBool(v):
            return "true" if v else "false"
        case BCmp(op, l, r):
            return "%s %s %s" % (print_aexp(l), op, print_aexp(r))
        case BAnd(l, r):
            return "(%s and %s)" % (print_bexp(l), print_bexp(r))
        case BNot(x):
            return "not %s" % print_bexp(x)


def print_stmt(s: Stmt) -> str:
    match s:
        case Skip():
            return "skip"
        case Assign(x, a):
            return "%s := %s" % (x, print_aexp(a))
        case Seq(a, b):
            return "%s ; %s" % (print_stmt(a), print_stmt(b))
        case If(b, a, c):
            return "if %s then (%s) else (%s)" % (
                print_bexp(b), print_stmt(a), print_stmt(c))
        case While(b, a):
            return "while %s do (%s)" % (print_bexp(b), print_stmt(a))


def pretty(value) -> str:
    if isinstance(value, WhileConfig):
        return "<%s | %s>" % (print_stmt(value.stmt), value.state)
    if isinstance(value, WhileState):
        return str(value)
    return repr(value)


PLUGIN = LanguagePlugin(
    name="while",
    rules=while_rules,
    parse_config=parse_config,
    parse_result=parse_state,
    pretty=pretty,
)
