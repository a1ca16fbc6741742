"""Shared pieces of the bundled languages: hash-once nodes for their
syntax, states and configurations, and a tokenizer for their concrete
syntaxes."""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields


# Past this nesting depth, a node's comparison with a distinct node runs
# from an explicit stack, and its repr is cut short, not run through the
# field code that `slot_init` generates, whose calls recurse through C
# frames that no recursion limit guards.  A level takes two Python frames:
# well under the default limit of 1,000.
_MAX_NESTING = 200
_nesting = 0  # open Node.__eq__/__repr__ calls, for one thread


class Node:
    """Base of the `hash_once` classes; holds the hash.

    The kernel keys its sets and dicts on configurations, and a plain
    frozen dataclass re-walks the whole term, state and program on every
    `hash`.  A node's constructor instead hashes its field tuple and keeps
    the value in the `_hash` slot (cf. Filliatre and Conchon, "Type-safe
    modular hash-consing", ML Workshop 2006).  A node's children are built,
    and hashed, before it, so this costs one step per field and walks
    nothing, at any depth.  The value is the one the plain dataclass
    computes, so hash-ordered containers behave as before.  Equality
    compares fields as the dataclass does, short-circuited on identity and
    on hashes that differ.  It is safe on terms of any nesting depth, and
    so is `repr`, which prints a node nested past `_MAX_NESTING` as
    `Class(...)`.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        global _nesting
        if _nesting >= _MAX_NESTING:
            return _equal_on_stack(self, other)
        _nesting += 1
        try:
            return self._field_eq(other)
        finally:
            _nesting -= 1

    def __repr__(self):
        global _nesting
        if _nesting >= _MAX_NESTING:
            return self.__class__.__qualname__ + "(...)"
        _nesting += 1
        try:
            return self._field_repr()
        finally:
            _nesting -= 1

    def __setstate__(self, state):
        # Copies and unpickled nodes are rebuilt by the constructor: a hash
        # built from `str` hashes is stale under another PYTHONHASHSEED.
        self.__init__(*state)


def slot_init(cls, node: bool = False):
    """Give `cls`, a slotted dataclass built with `init=False`, the
    dataclass's constructor, except that it sets each field through its
    slot descriptor: frozen dataclasses forbid plain assignment, this is
    cheaper than the dataclass's `object.__setattr__` calls, and nodes are
    built by the hundred thousand.

    For a `Node` class (`node`), the constructor then sets every slot the
    class inherits (a cache) to None, except `_hash`, which gets the hash
    of the field tuple.  The same code defines `_field_eq` and
    `_field_repr`, the dataclass's field comparison and repr, which `Node`
    calls."""
    names = [f.name for f in fields(cls)]
    env = {"_set_" + n: getattr(cls, n).__set__ for n in names}
    params = ["self"]
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            env["_default_" + f.name] = f.default
            params.append("%s=_default_%s" % (f.name, f.name))
    body = ["_set_%s(self, %s)" % (n, n) for n in names]
    methods, more = ["__init__"], ""
    if node:
        inherited = [s for base in cls.__mro__[1:]
                     for s in base.__dict__.get("__slots__", ())]
        env.update(("_set_" + s, getattr(cls, s).__set__) for s in inherited)
        body += ["_set_%s(self, None)" % s for s in inherited if s != "_hash"]
        body.append("_set__hash(self, hash((%s)))"
                    % "".join(n + ", " for n in names))
        methods += ["_field_eq", "_field_repr"]
        more = (
            "def _field_eq(self, other):\n"
            "    return (%s) == (%s)\n"
            "def _field_repr(self):\n"
            "    return f\"{self.__class__.__qualname__}(%s)\"\n" % (
                "".join("self.%s, " % n for n in names),
                "".join("other.%s, " % n for n in names),
                ", ".join("%s={self.%s!r}" % (n, n) for n in names)))
    exec("def __init__(%s):\n    %s\n%s" % (
        ", ".join(params), "\n    ".join(body) or "pass", more), env)
    for name in methods:
        env[name].__qualname__ = "%s.%s" % (cls.__qualname__, name)
        setattr(cls, name, env[name])
    return cls


def hash_once(cls):
    """Make `cls`, a `Node` subclass, a slotted frozen dataclass whose
    constructor stores its hash.  `__match_args__`, `fields`, `replace`
    and the frozen error are the dataclass's own."""
    # Without a docstring, the dataclass would make one from the signature
    # of `object.__init__`, a slow way to say nothing.
    cls.__doc__ = cls.__doc__ or "%s(%s)" % (
        cls.__name__, ", ".join(cls.__dict__.get("__annotations__", ())))
    cls = dataclass(frozen=True, slots=True, init=False, repr=False,
                    eq=False)(cls)
    cls.__setstate__ = Node.__setstate__  # not the dataclass's
    return slot_init(cls, node=True)


def _equal_on_stack(a, b) -> bool:
    """The dataclass comparison of two nodes, from an explicit stack."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, Node):
            if y.__class__ is not x.__class__:
                return False
            stack.extend((getattr(x, f), getattr(y, f))
                         for f in x.__match_args__)
        elif isinstance(x, tuple) and isinstance(y, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def sorted_put(pairs: tuple, key, value, drop_zero: bool = False) -> tuple:
    """`pairs` (sorted by key, keys unique) with `key` bound to `value`;
    with `drop_zero`, a zero value removes the key instead."""
    i = bisect_left(pairs, (key,))
    j = i + 1 if i < len(pairs) and pairs[i][0] == key else i
    new = () if drop_zero and value == 0 else ((key, value),)
    return pairs[:i] + new + pairs[j:]


class ParseError(Exception):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None
                         else "%s (at offset %d)" % (message, pos))
        self.pos = pos


class Tokens:
    """A token cursor; saving and resetting `i` backtracks."""

    def __init__(self, src: str, symbols: list[str], keywords: set[str],
                 ident_extra: str = ""):
        sym = sorted(symbols, key=len, reverse=True)
        pattern = "|".join(
            [r"\d+", r"[A-Za-z_][A-Za-z0-9_%s]*" % re.escape(ident_extra)]
            + [re.escape(s) for s in sym])
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        for m in re.finditer(r"\s+|" + pattern, src):
            if m.start() != pos:
                raise ParseError("unexpected character %r" % src[pos], pos)
            pos = m.end()
            text = m.group()
            if text.strip() == "":
                continue
            if text[0].isdigit():
                kind = "int"
            elif text[0].isalpha() or text[0] == "_":
                kind = "kw" if text in keywords else "ident"
            else:
                kind = "sym"
            self.toks.append((kind, text, m.start()))
        if pos != len(src):
            raise ParseError("unexpected character %r" % src[pos], pos)
        self.i = 0

    def peek(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else None

    def peek_kind(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input")
        tok = self.toks[self.i]
        self.i += 1
        return tok[1]

    def accept(self, text) -> bool:
        """Read the next token if it is `text`; say whether it was."""
        if self.peek() != text:
            return False
        self.i += 1
        return True

    def eat(self, text):
        if self.peek() != text:
            raise ParseError("expected %r, found %r" % (text, self.peek()),
                             self.pos())
        return self.next()

    def ident(self):
        if self.peek_kind() != "ident":
            raise ParseError("expected identifier, found %r" % self.peek(),
                             self.pos())
        return self.next()

    def integer(self) -> int:
        neg = False
        if self.peek() == "-":
            self.next()
            neg = True
        if self.peek_kind() != "int":
            raise ParseError("expected integer, found %r" % self.peek(),
                             self.pos())
        v = int(self.next())
        return -v if neg else v

    def items(self, item, *ends) -> list:
        """`item(self)` read up to the first token in `ends`, which is left
        unread; a comma after an item is skipped."""
        out = []
        while self.peek() not in ends:
            out.append(item(self))
            self.accept(",")
        return out

    def fold_left(self, operand, ops, build):
        """`operand(self)`, then `(op operand)*` for each `op` in `ops`,
        grouped to the left: `build(op, left, right)` makes each node."""
        node = operand(self)
        while self.peek() in ops:
            op = self.next()
            node = build(op, node, operand(self))
        return node

    def pos(self):
        return self.toks[self.i][2] if self.i < len(self.toks) else None

    def at_end(self):
        return self.i >= len(self.toks)

    def expect_end(self):
        if not self.at_end():
            raise ParseError("trailing input %r" % self.peek(), self.pos())
