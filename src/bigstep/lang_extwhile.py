"""The extended While language: variables and arrays in one namespace,
stack-allocated array locations, and functions with by-reference arrays.

A state is a store plus the next fresh location for arrays.  The store maps
names (variables and array identifiers) to optional integers -- an array
identifier maps to its base location, an undeclared name to "undefined" --
and maps locations (natural numbers) to integers, defaulting to 0.
Expression evaluation is partial: any undefined operand yields undefined,
and a rule whose side condition meets undefined is simply inapplicable, so
the configuration is stuck.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .imp_syntax import (ABin, AExp, AIdx, AName, ANum, ArrAssign, ArrDecl,
                         Assign, BAnd, BBool, BCmp, BExp, BNot, Call, If, Seq,
                         Skip, Stmt, VarDecl, While, parse_seq, parse_whole,
                         print_config, print_stmt)
from .kernel import Conclude, LanguagePlugin, Need
from .syntax import Node, ParseError, Tokens, hash_once, sorted_put


# ---------------------------------------------------------------------------
# Function definitions (statement syntax: `imp_syntax`)
# ---------------------------------------------------------------------------

@hash_once
class Func(Node):
    params: tuple[str, ...]
    rets: tuple[str, ...]
    body: Stmt


@hash_once
class ExtProgram(Node):
    funcs: tuple[tuple[str, Func], ...] = ()

    def lookup(self, name: str) -> Optional[Func]:
        for k, f in self.funcs:
            if k == name:
                return f
        return None


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@hash_once
class ExtState(Node):
    """Store (names to optional ints, locations to ints) + next fresh loc.

    Only defined names are kept; a missing name is undefined.  Only nonzero
    locations are kept; a missing location holds 0.
    """

    names: tuple[tuple[str, int], ...] = ()
    heap: tuple[tuple[int, int], ...] = ()
    nextloc: int = 0

    @classmethod
    def of(cls, names: dict[str, int], heap: dict[int, int],
           nextloc: int) -> "ExtState":
        return cls(tuple(sorted(names.items())),
                   tuple(sorted((k, v) for k, v in heap.items() if v != 0)),
                   nextloc)

    def name(self, n: str) -> Optional[int]:
        for k, v in self.names:
            if k == n:
                return v
        return None

    def with_name(self, n: str, value: int) -> "ExtState":
        return ExtState(sorted_put(self.names, n, value), self.heap,
                        self.nextloc)

    def loc(self, location: int) -> int:
        heap = self.heap
        i = bisect_left(heap, (location,))
        return heap[i][1] if i < len(heap) and heap[i][0] == location else 0

    def with_loc(self, location: int, value: int) -> "ExtState":
        return ExtState(self.names,
                        sorted_put(self.heap, location, value, drop_zero=True),
                        self.nextloc)

    def with_nextloc(self, nextloc: int) -> "ExtState":
        return ExtState(self.names, self.heap, nextloc)

    def __str__(self):
        parts = ["%s=%d" % (k, v) for k, v in self.names]
        parts += ["[%d]=%d" % (k, v) for k, v in self.heap]
        parts.append("nextloc=%d" % self.nextloc)
        return ", ".join(parts)


@hash_once
class ExtConfig(Node):
    stmt: Stmt
    state: ExtState
    program: ExtProgram


# ---------------------------------------------------------------------------
# Expression evaluation (partial: None is the undefined value)
# ---------------------------------------------------------------------------

def aeval(a: AExp, st: ExtState) -> Optional[int]:
    # Nodes are final classes: an exact-class test per form, the most
    # frequent first, matches what a class pattern would.
    cls = type(a)
    if cls is AName:
        return st.name(a.name)
    if cls is ANum:
        return a.value
    if cls is ABin:
        x, y = aeval(a.left, st), aeval(a.right, st)
        if x is None or y is None:
            return None
        op = a.op
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "/":
            # Division is partial at zero; floor division otherwise.
            return None if y == 0 else x // y
    if cls is AIdx:
        base = st.name(a.name)
        i = aeval(a.index, st)
        if base is None or i is None or i < 0 or base + i >= st.nextloc:
            return None
        return st.loc(base + i)
    raise ValueError("bad arithmetic expression: %r" % (a,))


def beval(b: BExp, st: ExtState) -> Optional[bool]:
    cls = type(b)
    if cls is BCmp:
        x, y = aeval(b.left, st), aeval(b.right, st)
        if x is None or y is None:
            return None
        return x == y if b.op == "=" else x < y
    if cls is BNot:
        v = beval(b.arg, st)
        return None if v is None else not v
    if cls is BAnd:
        # Conjunction is two-valued: tt only when both operands are tt,
        # ff in every other case (including undefined operands).
        return beval(b.left, st) is True and beval(b.right, st) is True
    if cls is BBool:
        return b.value
    raise ValueError("bad boolean expression: %r" % (b,))


# ---------------------------------------------------------------------------
# Call store initialization / finalization
# ---------------------------------------------------------------------------

def call_ini(state: ExtState, params, vals, rets) -> ExtState:
    """Callee's initial store: params to argument values, return variables
    to 0, every other name undefined; locations preserved."""
    params, vals, rets = list(params), list(vals), list(rets)
    if len(params) != len(vals):
        raise ValueError("arity mismatch: %d parameters, %d arguments"
                         % (len(params), len(vals)))
    names = dict(zip(params, vals))
    for r in rets:
        if r not in names:
            names[r] = 0
    return ExtState.of(names, dict(state.heap), state.nextloc)


def call_fin(pre: ExtState, post: ExtState, rets, recvs) -> ExtState:
    """Caller's store after the call: receiving variables get the callee's
    return values, other names come from the pre-call store, locations come
    from the post store (array effects are kept)."""
    rets, recvs = list(rets), list(recvs)
    if len(rets) != len(recvs):
        raise ValueError("arity mismatch: %d return variables, %d receivers"
                         % (len(rets), len(recvs)))
    names = dict(pre.names)
    for r, y in zip(rets, recvs):
        v = post.name(r)
        if v is None:
            names.pop(y, None)
        else:
            names[y] = v
    return ExtState.of(names, dict(post.heap), pre.nextloc)


# ---------------------------------------------------------------------------
# Semantic rules
# ---------------------------------------------------------------------------

def ext_rules(gamma: ExtConfig) -> list:
    """Rule instances concluding at `gamma`; an empty list means stuck."""
    stmt, st, prog = gamma.stmt, gamma.state, gamma.program
    cls = type(stmt)
    if cls is Assign:
        v = aeval(stmt.expr, st)
        x = stmt.var
        if v is not None and st.name(x) is not None:
            return [Conclude(st.with_name(x, v))]
        return []
    if cls is Seq:
        second = stmt.second
        return [Need(ExtConfig(stmt.first, st, prog),
                     lambda mid: Need(ExtConfig(second, mid, prog),
                                      Conclude))]
    if cls is While:
        guard = beval(stmt.cond, st)
        if guard is None:
            return []
        if guard:
            return [Need(ExtConfig(stmt.body, st, prog),
                         lambda mid: Need(ExtConfig(stmt, mid, prog),
                                          Conclude))]
        return [Conclude(st)]
    if cls is ArrAssign:
        base = st.name(stmt.name)
        i = aeval(stmt.index, st)
        v = aeval(stmt.expr, st)
        if base is not None and i is not None and v is not None \
                and i >= 0 and base + i < st.nextloc:
            return [Conclude(st.with_loc(base + i, v))]
        return []
    if cls is If:
        guard = beval(stmt.cond, st)
        if guard is None:
            return []
        branch = stmt.then if guard else stmt.orelse
        return [Need(ExtConfig(branch, st, prog), Conclude)]
    if cls is Call:
        func = prog.lookup(stmt.func)
        args, recvs = stmt.args, stmt.recvs
        if func is None or len(func.params) != len(args) \
                or len(func.rets) != len(recvs):
            return []
        vals = [aeval(a, st) for a in args]
        if any(v is None for v in vals):
            return []
        inner = call_ini(st, func.params, vals, func.rets)
        return [Need(ExtConfig(func.body, inner, prog),
                     lambda post: Conclude(call_fin(st, post, func.rets,
                                                    recvs)))]
    if cls is Skip:
        return [Conclude(st)]
    if cls is VarDecl:
        x = stmt.var
        if st.name(x) is None:
            return [Conclude(st.with_name(x, 0))]
        return []
    if cls is ArrDecl:
        x = stmt.name
        if st.name(x) is None:
            return [Conclude(st.with_name(x, st.nextloc)
                             .with_nextloc(st.nextloc + stmt.size))]
        return []
    raise ValueError("bad statement: %r" % (stmt,))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# The symbols and keywords of ExtWhile's `Tokens`.  `nextloc` is a
# keyword, so no name in a program clashes with a printed state's
# `nextloc=` field.
LEXICON = ([":=", ";", "(", ")", "[", "]", "{", "}", "+", "-", "*", "/",
            "<=", "<", "=", ",", "@"],
           {"skip", "if", "then", "else", "while", "do", "true", "false",
            "and", "not", "var", "array", "call", "fun", "returns",
            "nextloc"})


def _toks(src: str) -> Tokens:
    return Tokens(src, *LEXICON)


def parse_stmt(src: str) -> Stmt:
    return parse_whole(_toks(src))


def parse_functions(src: str) -> ExtProgram:
    """Zero or more `fun f(p1, p2) returns (r1) { stmt }` definitions."""
    t = _toks(src)
    funcs: dict = {}
    while not t.at_end():
        t.eat("fun")
        name = t.ident()
        if name in funcs:
            raise ParseError("function %s is defined twice" % name)
        t.eat("(")
        params = t.items(Tokens.ident, ")")
        t.eat(")")
        t.eat("returns")
        t.eat("(")
        rets = t.items(Tokens.ident, ")")
        t.eat(")")
        t.eat("{")
        # No statement contains a brace, so the body ends at the first one.
        body = parse_seq(t)
        t.eat("}")
        if len(set(params)) != len(params):
            raise ParseError("duplicate parameter names in %s" % name)
        if len(set(rets)) != len(rets):
            raise ParseError("duplicate return names in %s" % name)
        funcs[name] = Func(tuple(params), tuple(rets), body)
    return ExtProgram(tuple(funcs.items()))


def parse_state(src: str) -> ExtState:
    """`x=3, S=[1,3,5]@2, T=[0]@0, [7]=4, nextloc=12` assignment list.

    Array entries allocate bases in order of appearance starting at 0; an
    entry `S=[c0,..]@i` gives S extent i+len (indices 0..i+len-1) with the
    contents placed from index i.  `[l]=v` puts v at location l, as the
    printer writes a state's locations.  `nextloc=` overrides the computed
    value; it may not be below the cells the arrays take.  Each name,
    `nextloc` included, and each location may be given once.
    """
    src = src.strip()
    names: dict[str, int] = {}
    heap: dict[int, int] = {}
    base = 0
    explicit_nextloc = None

    def put(location, value):
        if location in heap:
            raise ParseError("[%d] is given twice" % location)
        heap[location] = value

    if src:
        t = _toks(src)
        while True:
            if t.accept("["):
                location = t.integer()
                t.eat("]")
                t.eat("=")
                put(location, t.integer())
            elif t.accept("nextloc"):
                if explicit_nextloc is not None:
                    raise ParseError("nextloc is given twice")
                t.eat("=")
                explicit_nextloc = t.integer()
            else:
                n = t.ident()
                if n in names:
                    raise ParseError("%s is given twice" % n)
                t.eat("=")
                if t.accept("["):
                    contents = t.items(Tokens.integer, "]")
                    t.eat("]")
                    start = t.integer() if t.accept("@") else 0
                    if start < 0:
                        raise ParseError("array offset must be non-negative")
                    names[n] = base
                    for off, v in enumerate(contents):
                        put(base + start + off, v)
                    base += start + len(contents)
                else:
                    names[n] = t.integer()
            if not t.accept(","):
                break
        t.expect_end()
    nextloc = base if explicit_nextloc is None else explicit_nextloc
    if nextloc < base:
        raise ParseError("nextloc=%d is below the arrays' %d cells"
                         % (nextloc, base))
    return ExtState.of(names, heap, nextloc)


def parse_config(src: str) -> ExtConfig:
    """`functions || stmt || state` (functions and state optional)."""
    parts = src.split("||")
    if len(parts) == 1:
        funcs, prog, state = "", parts[0], ""
    elif len(parts) == 2:
        funcs, prog, state = "", parts[0], parts[1]
    elif len(parts) == 3:
        funcs, prog, state = parts
    else:
        raise ParseError("too many '||' sections")
    return ExtConfig(parse_stmt(prog), parse_state(state),
                     parse_functions(funcs))


def pretty(value, texts=None) -> str:
    if isinstance(value, ExtConfig):
        return print_config(value.stmt, value.state, texts)
    if isinstance(value, ExtState):
        return str(value)
    if isinstance(value, Stmt):
        return print_stmt(value)
    return repr(value)


PLUGIN = LanguagePlugin(
    name="extwhile",
    rules=ext_rules,
    parse_config=parse_config,
    pretty=pretty,
)
