"""The imperative front end that While and ExtWhile share: abstract syntax,
a recursive-descent grammar and a printer.

While is ExtWhile without declarations, arrays, calls, `/` and `<=`.  A
language hands the grammar only its lexicon, the symbols and keywords of
its `Tokens`.  While's has no `/`, `[`, `@` or `<=`, so its tokenizer
rejects those forms, and `var`, `array` and `call` are identifiers there:
the grammar reads a keyword-led statement only from a keyword token.
"""

from __future__ import annotations

from .syntax import Node, ParseError, Tokens, hash_once, int_text


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@hash_once
class ANum(Node):
    value: int


@hash_once
class AName(Node):
    name: str  # a variable or an array identifier (base location)


@hash_once
class AIdx(Node):
    name: str  # array element read X[a]
    index: "AExp"


@hash_once
class ABin(Node):
    op: str  # + - * /
    left: "AExp"
    right: "AExp"


AExp = ANum | AName | AIdx | ABin


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
class VarDecl(Node):
    var: str


@hash_once
class ArrDecl(Node):
    name: str
    size: int


@hash_once
class Assign(Node):
    var: str
    expr: AExp


@hash_once
class ArrAssign(Node):
    name: str
    index: AExp
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


@hash_once
class Call(Node):
    func: str
    args: tuple[AExp, ...]
    recvs: tuple[str, ...]


Stmt = (Skip | VarDecl | ArrDecl | Assign | ArrAssign | Seq | If | While
        | Call)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

def _parse_aexp(t: Tokens) -> AExp:
    return t.fold_left(_parse_term, ("+", "-"), ABin)


def _parse_term(t: Tokens) -> AExp:
    return t.fold_left(_parse_factor, ("*", "/"), ABin)


def _parse_factor(t: Tokens) -> AExp:
    if t.accept("("):
        node = _parse_aexp(t)
        t.eat(")")
        return node
    if t.peek() == "-" or t.peek_kind() == "int":
        return ANum(t.integer())
    name = t.ident()
    if t.accept("["):
        idx = _parse_aexp(t)
        t.eat("]")
        return AIdx(name, idx)
    return AName(name)


def _parse_bexp(t: Tokens) -> BExp:
    return t.fold_left(_parse_batom, ("and",), lambda _, a, b: BAnd(a, b))


def _parse_batom(t: Tokens) -> BExp:
    if t.accept("true"):
        return BBool(True)
    if t.accept("false"):
        return BBool(False)
    if t.accept("not"):
        return BNot(_parse_batom(t))
    # Comparison first; fall back to a parenthesized boolean expression.
    mark = t.i
    try:
        left = _parse_aexp(t)
        if t.peek() in ("=", "<", "<="):
            op = t.next()
            right = _parse_aexp(t)
            if op == "<=":
                # a1 <= a2 is sugar for not (a2 < a1).
                return BNot(BCmp("<", right, left))
            return BCmp(op, left, right)
        raise ParseError("not a comparison")
    except ParseError:
        t.i = mark
    t.eat("(")
    node = _parse_bexp(t)
    t.eat(")")
    return node


def parse_seq(t: Tokens) -> Stmt:
    """A `;`-separated statement sequence from the cursor on; `;` groups
    to the right."""
    node = _parse_item(t)
    if t.accept(";"):
        return Seq(node, parse_seq(t))
    return node


def _parse_item(t: Tokens) -> Stmt:
    if t.accept("("):
        node = parse_seq(t)
        t.eat(")")
        return node
    # Only a keyword token starts a keyword-led statement: where the
    # lexicon makes `var` an identifier, `var := 1` is an assignment.
    word = t.peek() if t.peek_kind() == "kw" else None
    if word == "skip":
        t.next()
        return Skip()
    if word == "var":
        t.next()
        return VarDecl(t.ident())
    if word == "array":
        t.next()
        name = t.ident()
        t.eat("[")
        size = t.integer()
        t.eat("]")
        if size < 0:
            raise ParseError("array size must be non-negative")
        return ArrDecl(name, size)
    if word == "if":
        t.next()
        cond = _parse_bexp(t)
        t.eat("then")
        then = _parse_item(t)
        t.eat("else")
        return If(cond, then, _parse_item(t))
    if word == "while":
        t.next()
        cond = _parse_bexp(t)
        t.eat("do")
        return While(cond, _parse_item(t))
    if word == "call":
        t.next()
        f = t.ident()
        t.eat("(")
        args = t.items(_parse_aexp, ";", ")")
        recvs = t.items(Tokens.ident, ")") if t.accept(";") else []
        t.eat(")")
        return Call(f, tuple(args), tuple(recvs))
    name = t.ident()
    if t.accept("["):
        idx = _parse_aexp(t)
        t.eat("]")
        t.eat(":=")
        return ArrAssign(name, idx, _parse_aexp(t))
    t.eat(":=")
    return Assign(name, _parse_aexp(t))


def parse_whole(t: Tokens) -> Stmt:
    """The statement sequence that is all of `t`."""
    node = parse_seq(t)
    t.expect_end()
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_aexp(a: AExp) -> str:
    match a:
        case ANum(v):
            return int_text(v)
        case AName(n):
            return n
        case AIdx(n, ix):
            return "%s[%s]" % (n, print_aexp(ix))
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
        case VarDecl(x):
            return "var %s" % x
        case ArrDecl(x, size):
            return "array %s[%s]" % (x, int_text(size))
        case Assign(x, a):
            return "%s := %s" % (x, print_aexp(a))
        case ArrAssign(x, ix, a):
            return "%s[%s] := %s" % (x, print_aexp(ix), print_aexp(a))
        case Seq(Seq() as a, b):
            # `;` groups to the right, so a leading sequence is bracketed.
            return "(%s) ; %s" % (print_stmt(a), print_stmt(b))
        case Seq(a, b):
            return "%s ; %s" % (print_stmt(a), print_stmt(b))
        case If(b, a, c):
            return "if %s then (%s) else (%s)" % (
                print_bexp(b), print_stmt(a), print_stmt(c))
        case While(b, a):
            return "while %s do (%s)" % (print_bexp(b), print_stmt(a))
        case Call(f, args, recvs):
            return "call %s(%s; %s)" % (
                f, ", ".join(print_aexp(a) for a in args), ", ".join(recvs))


def print_config(stmt: Stmt, state, texts=None) -> str:
    """`<stmt | state>`.  An entry in `texts` (see `kernel.LanguagePlugin`)
    for the statement or the state is its text; a statement printed here
    is entered in `texts`."""
    if texts is None:
        return "<%s | %s>" % (print_stmt(stmt), state)
    code = texts.get(stmt)
    if code is None:
        code = texts[stmt] = print_stmt(stmt)
    text = texts.get(state)
    return "<%s | %s>" % (code, state if text is None else text)
