"""Shared pieces of the bundled languages: hash-once nodes for their
syntax, states and configurations, and a tokenizer for their concrete
syntaxes."""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, fields


# Past this nesting depth, a node's first hash and its comparison with a
# distinct node run from an explicit stack, and its repr is cut short, not
# run through the dataclass code, whose calls recurse through C frames that
# no recursion limit guards.  A level takes two Python frames: well under
# the default limit of 1,000.
_MAX_NESTING = 200
_nesting = 0  # open Node.__hash__/__eq__/__repr__ calls, for one thread


class Node:
    """Base of the `hash_once` classes; holds the cached hash.

    The kernel keys its sets and dicts on configurations, and a plain
    frozen dataclass re-walks the whole term, state and program on every
    `hash`.  A node instead hashes its fields once, on first use, and keeps
    the value in the `_hash` slot (cf. Filliatre and Conchon, "Type-safe
    modular hash-consing", ML Workshop 2006).  The value is the one the
    plain dataclass computes, so hash-ordered containers behave as before.
    Equality is the dataclass's, short-circuited on identity and on cached
    hashes that differ.  Both are safe on terms of any nesting depth, and
    so is `repr`, which prints a node nested past `_MAX_NESTING` as
    `Class(...)`.
    """

    __slots__ = ("_hash",)

    def __post_init__(self):
        # Set the slot so the first hash needs no AttributeError fallback.
        set_hash(self, None)

    def __hash__(self):
        h = self._hash
        if h is None:
            global _nesting
            if _nesting >= _MAX_NESTING:
                return _hash_children_first(self)
            _nesting += 1
            try:
                h = self._field_hash()
            finally:
                _nesting -= 1
            set_hash(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
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
        # Copies and unpickled nodes start with empty caches: a hash built
        # from `str` hashes is stale under another PYTHONHASHSEED.
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)
        self.__post_init__()


# Frozen dataclasses forbid plain assignment.  Setting a slot through its
# descriptor is several times cheaper than `object.__setattr__`, and nodes
# are built by the hundred thousand.
set_hash = Node._hash.__set__


def hash_once(cls):
    """Make `cls`, a `Node` subclass, a slotted frozen dataclass whose hash
    is computed at most once.  `__match_args__` is the dataclass's own."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_hash, cls._field_eq = cls.__hash__, cls.__eq__
    cls._field_repr = cls.__repr__
    cls.__hash__, cls.__eq__ = Node.__hash__, Node.__eq__
    cls.__repr__ = Node.__repr__
    cls.__setstate__ = Node.__setstate__
    return cls


def _hash_children_first(root) -> int:
    """Hash `root` and every unhashed node under it, each after its
    children, from an explicit stack; tuples, which cache no hash, are
    walked into.  A node popped unhashed is hashed before any entry below
    its own is popped, so a shared node is expanded once (terms have no
    cycles)."""
    stack = [(root, False)]
    while stack:
        x, children_done = stack.pop()
        if children_done:
            set_hash(x, x._field_hash())
        elif isinstance(x, tuple):
            stack.extend((y, False) for y in x)
        elif isinstance(x, Node) and x._hash is None:
            stack.append((x, True))
            stack.extend((getattr(x, f), False) for f in x.__match_args__)
    return root._hash


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
