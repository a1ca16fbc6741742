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
from .syntax import Node, ParseError, Tokens, hash_once, set_hash


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class FNode(Node):
    """A `Node` that also caches its occurrence set (see `occurrences`) and
    whether it is a canonical form (see `is_canonical`)."""

    __slots__ = ("_occ", "_canon")

    def __post_init__(self):
        set_hash(self, None)
        _set_occ(self, None)
        _set_canon(self, None)


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


def is_canonical(e: FExpr) -> bool:
    """Canonical forms: integers, booleans, lambdas, nil, cons of canonicals.

    The answer is cached on the node: every rule enumeration asks it of
    the whole configuration, and a list is asked once per element it is
    consumed by, so an uncached check makes list recursion quadratic.
    """
    canon = e._canon
    if canon is None:
        match e:
            case FNum(_) | FBool(_) | FLam(_, _) | FNil():
                canon = True
            case FCons(h, t):
                canon = is_canonical(h) and is_canonical(t)
            case _:
                canon = False
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
    match e:
        case FNum(_) | FBool(_) | FNil():
            occ = _NO_OCC
        case FVar(v):
            occ = frozenset((v,))
        case FLam(v, body):
            occ = _without(occurrences(body), v)
        case FLetRec(v, bound, body):
            # The bound lambda is entered even when `v` is the variable.
            occ = _union(occurrences(bound), _without(occurrences(body), v))
        case FBin(_, l, r) | FAnd(l, r) | FCons(l, r) | FApp(l, r):
            occ = _union(occurrences(l), occurrences(r))
        case FNot(a):
            occ = occurrences(a)
        case FIf(a, b, d) | FListCase(a, b, d):
            occ = _union(_union(occurrences(a), occurrences(b)),
                         occurrences(d))
        case _:
            raise ValueError("bad expression: %r" % (e,))
    _set_occ(e, occ)
    return occ


def subst(e: FExpr, x: str, c: FExpr) -> FExpr:
    if x not in occurrences(e):
        # Also covers constants and lambdas binding `x`.
        return e
    match e:
        case FBin(op, l, r):
            return FBin(op, subst(l, x, c), subst(r, x, c))
        case FNot(a):
            return FNot(subst(a, x, c))
        case FAnd(l, r):
            return FAnd(subst(l, x, c), subst(r, x, c))
        case FIf(a, b, d):
            return FIf(subst(a, x, c), subst(b, x, c), subst(d, x, c))
        case FCons(h, t):
            return FCons(subst(h, x, c), subst(t, x, c))
        case FListCase(s, n, k):
            return FListCase(subst(s, x, c), subst(n, x, c), subst(k, x, c))
        case FVar(_):
            return c
        case FApp(f, a):
            return FApp(subst(f, x, c), subst(a, x, c))
        case FLam(v, body):
            return FLam(v, subst(body, x, c))
        case FLetRec(v, bound, body):
            # The binder shadows the body, but substitution still enters
            # the bound lambda (which itself shadows via its own binder).
            new_bound = subst(bound, x, c)
            if v == x:
                return FLetRec(v, new_bound, body)
            return FLetRec(v, new_bound, subst(body, x, c))
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
    match e:
        case FBin(op, e1, e2):
            def after_left(c1, _op=op, _e2=e2):
                if not isinstance(c1, FNum):
                    return None
                def after_right(c2, _c1=c1):
                    if not isinstance(c2, FNum):
                        return None
                    out = _interp_arith(_op, _c1.value, c2.value)
                    return None if out is None else Conclude(out)
                return Need(_e2, after_right)
            return [Need(e1, after_left)]
        case FNot(e1):
            return [Need(e1, lambda c: Conclude(FBool(not c.value))
                         if isinstance(c, FBool) else None)]
        case FAnd(e1, e2):
            def after_left(c1, _e2=e2):
                if not isinstance(c1, FBool):
                    return None
                return Need(_e2, lambda c2, _c1=c1:
                            Conclude(FBool(_c1.value and c2.value))
                            if isinstance(c2, FBool) else None)
            return [Need(e1, after_left)]
        case FIf(cond, then, orelse):
            return [
                Need(cond, lambda c, _b=then:
                     Need(_b, lambda r: Conclude(r))
                     if c == FBool(True) else None),
                Need(cond, lambda c, _b=orelse:
                     Need(_b, lambda r: Conclude(r))
                     if c == FBool(False) else None),
            ]
        case FCons(e1, e2):
            return [Need(e1, lambda c: Need(
                e2, lambda c2, _c=c: Conclude(FCons(_c, c2))))]
        case FListCase(scrut, on_nil, on_cons):
            return [
                Need(scrut, lambda c, _b=on_nil:
                     Need(_b, lambda r: Conclude(r))
                     if c == FNil() else None),
                Need(scrut, lambda c, _b=on_cons:
                     Need(FApp(FApp(_b, c.head), c.tail),
                          lambda r: Conclude(r))
                     if isinstance(c, FCons) else None),
            ]
        case FApp(f, a):
            def after_func(cf, _a=a):
                if not isinstance(cf, FLam):
                    return None
                def after_arg(ca, _cf=cf):
                    if not is_canonical(ca):
                        return None
                    return Need(subst(_cf.body, _cf.var, ca),
                                lambda r: Conclude(r))
                return Need(_a, after_arg)
            return [Need(f, after_func)]
        case FLetRec(v, bound, body):
            if bound.var == v:
                return []
            unrolled = FApp(FLam(v, body),
                            FLam(bound.var, FLetRec(v, bound, bound.body)))
            return [Need(unrolled, lambda c: Conclude(c))]
        case FVar(_):
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
            return str(v)
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
