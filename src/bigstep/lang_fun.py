"""An eager functional language: expressions, canonical forms,
substitution of canonical forms for variables, and the big-step rules.

Evaluation produces canonical forms: integers, booleans, lambda
abstractions, and lists built from nil and cons of canonical forms.
Substitution is capture-as-written: no alpha-renaming is performed, so
substituting an open lambda canonical form can capture variables.  The
bundled programs only substitute closed forms and never trigger this.

Each node caches its occurrence set: the variables `v` for which
`subst(e, v, c)` reaches an `FVar(v)` it would replace.  `subst` returns a
subterm unchanged when the variable is not in that set, so beta steps do
not rebuild (and re-hash) closed subterms.  The set follows `subst`'s own
traversal, which is not quite the free-variable set: a lambda shadows its
binder, but `subst` enters a letrec's bound lambda even when the letrec
binds the variable, so
`occ(letrec v = bound in body) = occ(bound) | (occ(body) - {v})`
keeps `v` when the bound lambda mentions it.
"""

from __future__ import annotations

from typing import Optional

from .kernel import Conclude, LanguagePlugin, Need
from .syntax import Node, ParseError, Tokens, hash_once, int_text


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class FNode(Node):
    """A `Node` that also caches its occurrence set (see `occurrences`) and
    whether it is a canonical form (see `is_canonical`)."""

    __slots__ = ("_occ", "_canon")  # None until computed


_set_occ = FNode._occ.__set__
_set_canon = FNode._canon.__set__


@hash_once
class FNum(FNode):
    value: int


@hash_once
class FBool(FNode):
    value: bool


@hash_once
class FBin(FNode):
    op: str  # + - * / = <
    left: "FExpr"
    right: "FExpr"


@hash_once
class FNot(FNode):
    arg: "FExpr"


@hash_once
class FAnd(FNode):
    left: "FExpr"
    right: "FExpr"


@hash_once
class FIf(FNode):
    cond: "FExpr"
    then: "FExpr"
    orelse: "FExpr"


@hash_once
class FNil(FNode):
    pass


@hash_once
class FCons(FNode):
    head: "FExpr"
    tail: "FExpr"


@hash_once
class FListCase(FNode):
    scrutinee: "FExpr"
    on_nil: "FExpr"
    on_cons: "FExpr"


@hash_once
class FVar(FNode):
    name: str


@hash_once
class FApp(FNode):
    func: "FExpr"
    arg: "FExpr"


@hash_once
class FLam(FNode):
    var: str
    body: "FExpr"


@hash_once
class FLetRec(FNode):
    var: str
    bound: "FLam"
    body: "FExpr"


FExpr = (FNum | FBool | FBin | FNot | FAnd | FIf | FNil | FCons | FListCase
         | FVar | FApp | FLam | FLetRec)
_FORMS = frozenset(FExpr.__args__)  # a set test is faster than isinstance


def is_canonical(e: FExpr) -> bool:
    """Canonical forms: integers, booleans, lambdas, nil, cons of canonicals.

    The answer is cached on the node: every rule enumeration asks it of
    the whole configuration, and a list is asked once per element it is
    consumed by, so an uncached check makes list recursion quadratic.
    """
    canon = e._canon
    if canon is None:
        cls = type(e)
        if cls is FCons:
            canon = is_canonical(e.head) and is_canonical(e.tail)
        else:
            canon = cls is FNum or cls is FLam or cls is FNil or cls is FBool
        _set_canon(e, canon)
    return canon


# ---------------------------------------------------------------------------
# Substitution of a canonical form for a variable
# ---------------------------------------------------------------------------

_NO_OCC = frozenset()


# Both helpers share a set rather than copy it when nothing changes.
def _union(a: frozenset, b: frozenset) -> frozenset:
    if not b:
        return a
    return a | b if a else b


def _without(occ: frozenset, v: str) -> frozenset:
    return (occ - {v} or _NO_OCC) if v in occ else occ


def occurrences(e: FExpr) -> frozenset:
    """The variables `x` for which `subst(e, x, c)` replaces something."""
    occ = e._occ
    if occ is not None:
        return occ
    # Nodes are final classes: an exact-class test per binder matches
    # what a class pattern would.  Any other form unions its subterms'.
    cls = type(e)
    if cls is FVar:
        occ = frozenset((e.name,))
    elif cls is FLam:
        occ = _without(occurrences(e.body), e.var)
    elif cls is FLetRec:
        # The bound lambda is entered even when `v` is the variable.
        occ = _union(occurrences(e.bound),
                     _without(occurrences(e.body), e.var))
    elif cls in _FORMS:
        occ = _NO_OCC
        for name in cls.__match_args__:
            sub = getattr(e, name)
            if isinstance(sub, FNode):
                occ = _union(occ, occurrences(sub))
    else:
        raise ValueError("bad expression: %r" % (e,))
    _set_occ(e, occ)
    return occ


def subst(e: FExpr, x: str, c: FExpr) -> FExpr:
    if x not in occurrences(e):
        # Also covers constants and lambdas binding `x`.
        return e
    cls = type(e)
    if cls is FVar:
        return c
    if cls is FApp:
        return FApp(subst(e.func, x, c), subst(e.arg, x, c))
    if cls is FLam:
        return FLam(e.var, subst(e.body, x, c))
    if cls is FBin:
        return FBin(e.op, subst(e.left, x, c), subst(e.right, x, c))
    if cls is FCons:
        return FCons(subst(e.head, x, c), subst(e.tail, x, c))
    if cls is FListCase:
        return FListCase(subst(e.scrutinee, x, c), subst(e.on_nil, x, c),
                         subst(e.on_cons, x, c))
    if cls is FIf:
        return FIf(subst(e.cond, x, c), subst(e.then, x, c),
                   subst(e.orelse, x, c))
    if cls is FLetRec:
        # The binder shadows the body, but substitution still enters
        # the bound lambda (which itself shadows via its own binder).
        v, new_bound = e.var, subst(e.bound, x, c)
        if v == x:
            return FLetRec(v, new_bound, e.body)
        return FLetRec(v, new_bound, subst(e.body, x, c))
    if cls is FNot:
        return FNot(subst(e.arg, x, c))
    if cls is FAnd:
        return FAnd(subst(e.left, x, c), subst(e.right, x, c))
    raise ValueError("bad expression: %r" % (e,))


# ---------------------------------------------------------------------------
# Semantic rules
# ---------------------------------------------------------------------------

def _interp_arith(op: str, x: int, y: int) -> Optional[FExpr]:
    if op == "+":
        return FNum(x + y)
    if op == "-":
        return FNum(x - y)
    if op == "*":
        return FNum(x * y)
    if op == "/":
        # Division is partial at zero; floor division otherwise.
        return None if y == 0 else FNum(x // y)
    if op == "=":
        return FBool(x == y)
    if op == "<":
        return FBool(x < y)
    raise ValueError("bad operator: %r" % op)


def fun_rules(e: FExpr) -> list:
    """Rule instances concluding at `e`.

    A canonical expression is offered only the evaluates-to-itself axiom;
    the structural rules would reproduce the same result, and pruning them
    keeps evaluation deterministic.
    """
    if is_canonical(e):
        return [Conclude(e)]
    cls = type(e)
    if cls is FApp:
        arg = e.arg
        def after_func(cf):
            if not isinstance(cf, FLam):
                return None
            def after_arg(ca):
                if not is_canonical(ca):
                    return None
                return Need(subst(cf.body, cf.var, ca), Conclude)
            return Need(arg, after_arg)
        return [Need(e.func, after_func)]
    if cls is FBin:
        op, right = e.op, e.right
        def after_left(c1):
            if not isinstance(c1, FNum):
                return None
            def after_right(c2):
                if not isinstance(c2, FNum):
                    return None
                out = _interp_arith(op, c1.value, c2.value)
                return None if out is None else Conclude(out)
            return Need(right, after_right)
        return [Need(e.left, after_left)]
    if cls is FListCase:
        scrut, on_nil, on_cons = e.scrutinee, e.on_nil, e.on_cons
        return [
            Need(scrut, lambda c: Need(on_nil, Conclude)
                 if c == FNil() else None),
            Need(scrut, lambda c: Need(FApp(FApp(on_cons, c.head), c.tail),
                                       Conclude)
                 if isinstance(c, FCons) else None),
        ]
    if cls is FIf:
        cond, then, orelse = e.cond, e.then, e.orelse
        return [
            Need(cond, lambda c: Need(then, Conclude)
                 if c == FBool(True) else None),
            Need(cond, lambda c: Need(orelse, Conclude)
                 if c == FBool(False) else None),
        ]
    if cls is FCons:
        tail = e.tail
        return [Need(e.head, lambda c: Need(
            tail, lambda c2: Conclude(FCons(c, c2))))]
    if cls is FLetRec:
        v, bound = e.var, e.bound
        if bound.var == v:
            return []
        unrolled = FApp(FLam(v, e.body),
                        FLam(bound.var, FLetRec(v, bound, bound.body)))
        return [Need(unrolled, Conclude)]
    if cls is FNot:
        return [Need(e.arg, lambda c: Conclude(FBool(not c.value))
                     if isinstance(c, FBool) else None)]
    if cls is FAnd:
        right = e.right
        def after_left(c1):
            if not isinstance(c1, FBool):
                return None
            return Need(right, lambda c2:
                        Conclude(FBool(c1.value and c2.value))
                        if isinstance(c2, FBool) else None)
        return [Need(e.left, after_left)]
    if cls is FVar:
        return []
    raise ValueError("bad expression: %r" % (e,))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_SYMBOLS = ["\\", ".", "(", ")", "::", "+", "-", "*", "/", "<=", "<", "=",
            ","]
_KEYWORDS = {"true", "false", "and", "not", "if", "then", "else", "nil",
             "listcase", "of", "letrec", "in"}


def _toks(src: str) -> Tokens:
    return Tokens(src, _SYMBOLS, _KEYWORDS, ident_extra="'")


def _parse_expr(t: Tokens) -> FExpr:
    if t.accept("\\"):
        v = t.ident()
        t.eat(".")
        return FLam(v, _parse_expr(t))
    if t.accept("letrec"):
        v = t.ident()
        t.eat("=")
        bound = _parse_expr(t)
        if not isinstance(bound, FLam):
            raise ParseError("letrec must bind a lambda abstraction")
        t.eat("in")
        return FLetRec(v, bound, _parse_expr(t))
    if t.accept("if"):
        cond = _parse_expr(t)
        t.eat("then")
        then = _parse_expr(t)
        t.eat("else")
        return FIf(cond, then, _parse_expr(t))
    return _parse_conj(t)


def _parse_conj(t: Tokens) -> FExpr:
    return t.fold_left(_parse_neg, ("and",), lambda _, a, b: FAnd(a, b))


def _parse_neg(t: Tokens) -> FExpr:
    if t.accept("not"):
        return FNot(_parse_neg(t))
    return _parse_cons(t)


def _parse_cons(t: Tokens) -> FExpr:
    node = _parse_cmp(t)
    if t.accept("::"):
        return FCons(node, _parse_cons(t))
    return node


def _parse_cmp(t: Tokens) -> FExpr:
    node = _parse_add(t)
    if t.peek() in ("=", "<", "<="):
        op = t.next()
        right = _parse_add(t)
        if op == "<=":
            # a <= b is sugar for not (b < a).
            return FNot(FBin("<", right, node))
        return FBin(op, node, right)
    return node


def _parse_add(t: Tokens) -> FExpr:
    return t.fold_left(_parse_mul, ("+", "-"), FBin)


def _parse_mul(t: Tokens) -> FExpr:
    return t.fold_left(_parse_app, ("*", "/"), FBin)


def _starts_atom(t: Tokens) -> bool:
    if t.peek_kind() in ("int", "ident"):
        return True
    return t.peek() in ("true", "false", "nil", "(", "listcase")


def _parse_app(t: Tokens) -> FExpr:
    node = _parse_atom(t, allow_neg=True)
    while _starts_atom(t):
        node = FApp(node, _parse_atom(t, allow_neg=False))
    return node


def _parse_atom(t: Tokens, allow_neg: bool) -> FExpr:
    if allow_neg and t.peek() == "-" or t.peek_kind() == "int":
        return FNum(t.integer())
    if t.accept("true"):
        return FBool(True)
    if t.accept("false"):
        return FBool(False)
    if t.accept("nil"):
        return FNil()
    if t.accept("listcase"):
        scrut = _parse_expr(t)
        t.eat("of")
        t.eat("(")
        on_nil = _parse_expr(t)
        t.eat(",")
        on_cons = _parse_expr(t)
        t.eat(")")
        return FListCase(scrut, on_nil, on_cons)
    if t.accept("("):
        node = _parse_expr(t)
        t.eat(")")
        return node
    return FVar(t.ident())


def parse_expr(src: str) -> FExpr:
    t = _toks(src)
    node = _parse_expr(t)
    t.expect_end()
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_expr(e: FExpr, texts=None) -> str:
    """The text of `e`; a subterm with an entry in `texts` is not printed
    again (see `LanguagePlugin`)."""
    if texts:
        text = texts.get(e)
        if text is not None:
            return text
    match e:
        case FNum(v):
            return int_text(v)
        case FBool(v):
            return "true" if v else "false"
        case FBin(op, l, r):
            return "(%s %s %s)" % (print_expr(l, texts), op,
                                   print_expr(r, texts))
        case FNot(a):
            return "(not %s)" % print_expr(a, texts)
        case FAnd(l, r):
            return "(%s and %s)" % (print_expr(l, texts), print_expr(r, texts))
        case FIf(c, a, b):
            return "(if %s then %s else %s)" % (
                print_expr(c, texts), print_expr(a, texts),
                print_expr(b, texts))
        case FNil():
            return "nil"
        case FCons(h, t):
            return "(%s :: %s)" % (print_expr(h, texts), print_expr(t, texts))
        case FListCase(s, n, k):
            return "(listcase %s of (%s, %s))" % (
                print_expr(s, texts), print_expr(n, texts),
                print_expr(k, texts))
        case FVar(v):
            return v
        case FApp(f, a):
            # A negative literal argument, printed bare, would parse back
            # as a subtraction: `(f -3)` is `f - 3`.
            form = "(%s (%s))" if isinstance(a, FNum) and a.value < 0 \
                else "(%s %s)"
            return form % (print_expr(f, texts), print_expr(a, texts))
        case FLam(v, b):
            return "(\\%s. %s)" % (v, print_expr(b, texts))
        case FLetRec(v, bound, body):
            return "(letrec %s = %s in %s)" % (
                v, print_expr(bound, texts), print_expr(body, texts))


PLUGIN = LanguagePlugin(
    name="fun",
    rules=fun_rules,
    parse_config=parse_expr,
    pretty=print_expr,
)
