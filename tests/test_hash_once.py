"""Hash-once nodes: copies and pickles of terms, states and configurations
of every language stay equal, hashable and usable as dict keys, even when
unpickled under another hash seed; state writes match a full rebuild; a
node hashes as its field tuple, once, when it is built, by whichever path,
and prints as the dataclass repr; terms and inference traces of any depth
hash, compare and print."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bigstep
from bigstep import (SampleBudget, imp_syntax, infer_results, kernel,
                     lang_extwhile, lang_fun, lang_while, trivial_spec)
from bigstep.imp_syntax import ANum, Call, Seq, Skip
from bigstep.lang_extwhile import ExtProgram, ExtState
from bigstep.lang_while import WhileState
from bigstep.random_programs import random_corpus
from bigstep.syntax import Node

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))

WHILE_CONFIG = ("fac := m ; while 1 < m do (m := m - 1 ; fac := fac * m)"
                " || m=5, fac=1")
EXT_CONFIG = ("fun inc(a) returns (r) { r := a + 1 }"
              " || var x ; A[0] := 3 ; call inc(A[0]; x)"
              " || A=[1,2,3]@1, B=[4], k=7")
FUN_CONFIG = (r"letrec f = \x. listcase x of (0, \h. \t. h + f t) "
              r"in f (1 :: 2 :: nil)")

# (language module, what is parsed, parser name, source text)
SAMPLES = [
    (lang_while, "term", "parse_stmt", WHILE_CONFIG.split("||")[0]),
    (lang_while, "state", "parse_state", "m=5, fac=1, z=0"),
    (lang_while, "config", "parse_config", WHILE_CONFIG),
    (lang_extwhile, "term", "parse_stmt", EXT_CONFIG.split("||")[1]),
    (lang_extwhile, "state", "parse_state", EXT_CONFIG.split("||")[2]),
    (lang_extwhile, "config", "parse_config", EXT_CONFIG),
    (lang_fun, "term", "parse_expr", r"\y. if y < 3 then y :: nil else nil"),
    (lang_fun, "state", "parse_expr", "1 :: (2 :: nil)"),
    (lang_fun, "config", "parse_expr", FUN_CONFIG),
]
IDS = ["%s-%s" % (mod.__name__.rsplit(".", 1)[1], what)
       for mod, what, _, _ in SAMPLES]

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def build(mod, parser, text):
    return getattr(mod, parser)(text)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("mod,what,parser,text", SAMPLES, ids=IDS)
def test_copies_are_equal_dict_keys(mod, what, parser, text, how):
    obj = build(mod, parser, text)
    hash(obj)  # fill the cache before copying
    dup = COPIES[how](obj)
    assert dup == obj and dup.__class__ is obj.__class__
    assert repr(dup) == repr(obj)
    assert hash(dup) == hash(obj)
    assert {obj: "hit"}[dup] == "hit"
    assert {dup: "hit"}[build(mod, parser, text)] == "hit"


def test_copied_fun_term_substitutes_like_the_original():
    e = lang_fun.parse_expr(r"\y. x + y")
    lang_fun.subst(e, "x", lang_fun.FNum(1))  # fill the occurrence caches
    for dup in (f(e) for f in COPIES.values()):
        assert lang_fun.occurrences(dup) == {"x"}
        assert lang_fun.subst(dup, "x", lang_fun.FNum(1)) == \
            lang_fun.parse_expr(r"\y. 1 + y")


_CHILD = r"""
import importlib, pickle, sys
for mod, parser, text, data in pickle.loads(sys.stdin.buffer.read()):
    fresh = getattr(importlib.import_module(mod), parser)(text)
    loaded = pickle.loads(data)
    assert loaded == fresh, text
    assert hash(loaded) == hash(fresh), "stale cached hash: " + text
    assert {fresh: "hit"}[loaded] == "hit", text
print("ok")
"""


def test_unpickling_under_another_hash_seed_rehashes():
    payload = []
    for mod, _, parser, text in SAMPLES:
        obj = build(mod, parser, text)
        hash(obj)  # a cached hash built from this process's str hashes
        payload.append((mod.__name__, parser, text, pickle.dumps(obj)))
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          input=pickle.dumps(payload), env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "ok"


# ---------------------------------------------------------------------------
# State writes agree with rebuilding the whole state
# ---------------------------------------------------------------------------

_names = st.dictionaries(st.sampled_from("abcxyz"), st.integers(-2, 2))
_heap = st.dictionaries(st.integers(0, 6), st.integers(-2, 2))


@settings(max_examples=100, deadline=None)
@given(_names, st.sampled_from("abcxyz"), st.integers(-2, 2))
def test_while_state_set_matches_rebuild(names, key, value):
    s = WhileState.of(names)
    expected = WhileState.of({**names, key: value})
    assert s.set(key, value) == expected
    assert str(s.set(key, value)) == str(expected)


@settings(max_examples=100, deadline=None)
@given(_names, _heap, st.sampled_from("abcxyz"), st.integers(0, 6),
       st.integers(-2, 2))
def test_ext_state_writes_match_rebuild(names, heap, key, loc, value):
    s = ExtState.of(names, heap, 7)
    by_name = ExtState.of({**names, key: value}, heap, 7)
    by_loc = ExtState.of(names, {**heap, loc: value}, 7)
    assert s.with_name(key, value) == by_name
    assert str(s.with_name(key, value)) == str(by_name)
    assert s.with_loc(loc, value) == by_loc
    assert str(s.with_loc(loc, value)) == str(by_loc)
    # The half a write does not touch is shared, not rebuilt.
    assert s.with_name(key, value).heap is s.heap
    assert s.with_loc(loc, value).names is s.names


# ---------------------------------------------------------------------------
# Deep terms: hashing and comparison never recurse on nesting depth
# ---------------------------------------------------------------------------

# (child script, what it prints).  A child exits 139 (SIGSEGV) where a
# first hash or a comparison recurses through C frames on the term's depth.
_DEEP_TERMS = {
    "separately-parsed-fun-lists": (r"""
from bigstep import lang_fun
src = " :: ".join(["1"] * 20000) + " :: nil"
a, b = lang_fun.parse_expr(src), lang_fun.parse_expr(src)
c = lang_fun.parse_expr(src.replace("1 :: nil", "2 :: nil"))
print(a == b, a == c, hash(a) == hash(b), a == b, a == c)
""", "True False True True False"),
    "cfm-of-list-lists": (r"""
from bigstep import spec_lib
a = spec_lib.cfm_of_list([1] * 20000)
b = spec_lib.cfm_of_list([1] * 20000)
c = spec_lib.cfm_of_list([1] * 19999 + [2])
print(hash(a) == hash(b), a == b, a == c, {a: 1}[b] == 1, b in {c})
""", "True True False True False"),
    "python-built-statement-as-dict-key": (r"""
from bigstep.imp_syntax import ABin, AName, ANum, Assign, Seq, Skip
def build(n):
    e = AName("x")
    for i in range(n):
        e = ABin("+", e, ANum(i))
    s = Skip()
    for i in range(n):
        s = Seq(Assign("x", e if i == 0 else ANum(i)), s)
    return s
table = {build(20000): "hit"}
print(table[build(20000)] == "hit", build(20000) in {build(19999)},
      build(20000) == build(20000))
""", "True False True"),
}


@pytest.mark.parametrize("case", sorted(_DEEP_TERMS))
def test_twenty_thousand_deep_terms_hash_and_compare(case):
    script, expected = _DEEP_TERMS[case]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == expected


class _Hashed:
    """Stands for a node whose hash is `value` inside a field tuple."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def test_shared_deep_term_hashes_each_distinct_node_once(monkeypatch):
    # 300 distinct nodes, 2**300 paths: a hash that follows every path to a
    # shared subterm never ends.  The constructor looks `hash` up in its
    # own globals first, so this counts the field-tuple hashes it computes.
    field_tuples = []

    def counted(fields):
        field_tuples.append(fields)
        return hash(fields)

    monkeypatch.setitem(lang_fun.FBin.__init__.__globals__, "hash", counted)
    t = lang_fun.FNum(1)
    expected = hash(t)
    for _ in range(300):
        t = lang_fun.FBin("+", t, t)
        expected = hash(("+", _Hashed(expected), _Hashed(expected)))
    assert len(field_tuples) == 300
    assert len({id(left) for _, left, _ in field_tuples}) == 300
    field_tuples.clear()
    assert hash(t) == expected and hash(t) == hash(("+", t.left, t.right))
    assert field_tuples == []


def _fun_list(n, last):
    """`1 :: 1 :: ... :: last :: nil`, n cells."""
    out = lang_fun.FCons(last, lang_fun.FNil())
    for _ in range(n - 1):
        out = lang_fun.FCons(lang_fun.FNum(1), out)
    return out


def _skips_then(n, last):
    """`skip ; skip ; ... ; last`, n skips."""
    for _ in range(n):
        last = Seq(Skip(), last)
    return last


def _call(*args):
    return Call("f", tuple(ANum(a) for a in args), ("x",))


# Pairs 500 deep, past the depth where comparison leaves the recursive
# field comparison for an explicit stack; the bottom differs in value,
# class or length.  The hashes of -1 and -2 are equal, so the pairs built
# on them have equal hashes at every level, and only the walk to the
# bottom tells them apart.
_DEEP_PAIRS = [
    (_fun_list(500, lang_fun.FNum(1)), _fun_list(500, lang_fun.FNum(1)), True),
    (_fun_list(500, lang_fun.FNum(1)), _fun_list(500, lang_fun.FNum(2)),
     False),
    (_fun_list(500, lang_fun.FNum(1)), _fun_list(500, lang_fun.FBool(True)),
     False),
    (_fun_list(500, lang_fun.FNum(1)), _fun_list(499, lang_fun.FNum(1)),
     False),
    (_skips_then(500, _call(1)), _skips_then(500, _call(1)), True),
    (_skips_then(500, _call(1)), _skips_then(500, _call(2)), False),
    (_skips_then(500, _call(1)), _skips_then(500, _call(1, 1)), False),
    (_fun_list(500, lang_fun.FNum(-1)), _fun_list(500, lang_fun.FNum(-2)),
     False),
    (_skips_then(500, _call(-1)), _skips_then(500, _call(-2)), False),
]


def _share_leaves(x, leaves: dict):
    """`x` rebuilt with each node that has no node below it replaced by the
    first equal one entered in `leaves`."""
    if isinstance(x, tuple):
        return tuple(_share_leaves(y, leaves) for y in x)
    if not isinstance(x, Node):
        return x
    values = [getattr(x, f.name) for f in fields(x)]
    if not any(isinstance(v, (Node, tuple)) for v in values):
        return leaves.setdefault(x, x)
    return x.__class__(*(_share_leaves(v, leaves) for v in values))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("a,b,equal", _DEEP_PAIRS)
def test_deep_comparison_agrees_with_the_shallow_one(a, b, equal, shared):
    # Unshared, every node of one operand is distinct from every node of
    # the other; shared, equal leaves are one object in both.
    if shared:
        leaves = {}
        a, b = _share_leaves(a, leaves), _share_leaves(b, leaves)
        assert len(leaves) < len(_nodes(a))
    else:
        a, b = copy.deepcopy(a), copy.deepcopy(b)
    assert (a == b) is equal and (a != b) is not equal
    assert (b == a) is equal


def test_pairs_built_on_minus_one_and_minus_two_hash_alike():
    # Otherwise their hashes alone would tell those pairs apart.
    assert hash(_fun_list(500, lang_fun.FNum(-1))) == \
        hash(_fun_list(500, lang_fun.FNum(-2)))
    assert hash(_skips_then(500, _call(-1))) == \
        hash(_skips_then(500, _call(-2)))


def _nodes(root):
    """Every node under `root`, tuples walked into."""
    stack, out = [root], []
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            out.append(x)
            stack.extend(getattr(x, f.name) for f in fields(x))
    return out


# ---------------------------------------------------------------------------
# Construction: every path builds the same node, with its hash
# ---------------------------------------------------------------------------

NODE_CLASSES = sorted(
    {cls for mod in (imp_syntax, lang_while, lang_extwhile, lang_fun, kernel)
     for cls in vars(mod).values()
     if isinstance(cls, type) and issubclass(cls, Node) and is_dataclass(cls)},
    key=lambda cls: cls.__qualname__)


def _sample_nodes() -> dict:
    """A node of every class in NODE_CLASSES, by class."""
    loop = lang_while.parse_config("x := 2 ; while 0 < x do x := x - 1")
    (trace,) = infer_results(bigstep.PLUGINS["while"], trivial_spec(), None,
                             loop, SampleBudget())[0].values()
    roots = [
        lang_while.parse_config(WHILE_CONFIG),
        lang_extwhile.parse_config(
            "fun inc(a) returns (r) { r := a + 1 }"
            " || var x ; array A[2] ; A[x] := 3 ; x := A[0] / 2 ;"
            " if true and not x < 1 then skip else call inc(x; x) ;"
            " while x < 0 do skip || B=[1]"),
        lang_fun.parse_expr(FUN_CONFIG),
        lang_fun.parse_expr("if not true and false then 1 else 2"),
        trace,
    ]
    samples = {}
    for root in roots:
        for node in _nodes(root):
            samples.setdefault(node.__class__, node)
    return samples


SAMPLE_NODES = _sample_nodes()


def test_every_node_class_has_a_sample():
    assert sorted(SAMPLE_NODES, key=lambda cls: cls.__qualname__) == \
        NODE_CLASSES


def _builds_alike(cls, node, values):
    """`cls` built from `values` by position, by keyword and through
    `replace` is `node` again, hashed as its field tuple; no field can be
    assigned."""
    kwargs = {f.name: v for f, v in zip(fields(cls), values)}
    for built in (cls(*values), cls(**kwargs), replace(node),
                  replace(node, **kwargs)):
        assert built.__class__ is cls and built == node
        assert hash(built) == hash(tuple(values))
        assert repr(built) == repr(node)
    with pytest.raises(TypeError):
        cls(*values, None)
    for name in kwargs:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, kwargs[name])


@pytest.mark.parametrize("cls", NODE_CLASSES,
                         ids=[cls.__qualname__ for cls in NODE_CLASSES])
def test_node_builds_alike_by_every_path(cls):
    node = SAMPLE_NODES[cls]
    values = [getattr(node, f.name) for f in fields(cls)]
    _builds_alike(cls, node, values)
    if isinstance(node, lang_fun.FNode):
        # Caches start empty, whichever path built the node.
        lang_fun.occurrences(node), lang_fun.is_canonical(node)
        for built in (cls(*values), replace(node)):
            assert built._occ is None and built._canon is None


@pytest.mark.parametrize("cls", [WhileState, ExtState, ExtProgram])
def test_node_built_from_its_defaults(cls):
    defaults = [f.default for f in fields(cls)]
    assert cls() == cls(*defaults) and cls().__class__ is cls
    assert hash(cls()) == hash(tuple(defaults))
    _builds_alike(cls, cls(), defaults)


def test_rule_instances_build_alike_by_every_path():
    config = lang_while.parse_config("x := 1 || y=2")
    state = config.state
    for cls, values in ((kernel.Conclude, [state]),
                        (kernel.Need, [config, kernel.Conclude])):
        assert "__slots__" in vars(cls)
        _builds_alike(cls, cls(*values), values)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["while", "extwhile", "fun"]), st.integers(0, 999))
def test_node_hash_is_the_field_tuple_hash(lang, seed):
    (term,) = random_corpus(lang, 1, seed)
    assert hash(term) == hash(tuple(getattr(term, f.name)
                                    for f in fields(term)))
    for node in _nodes(term):
        assert hash(node) == hash(tuple(getattr(node, f.name)
                                        for f in fields(node)))


def _dataclass_repr(x):
    """The plain dataclass repr of `x`, built without calling any node's
    `__repr__`."""
    if isinstance(x, Node):
        return "%s(%s)" % (x.__class__.__qualname__, ", ".join(
            "%s=%s" % (f.name, _dataclass_repr(getattr(x, f.name)))
            for f in fields(x)))
    if isinstance(x, tuple):
        items = [_dataclass_repr(y) for y in x]
        return "(%s,)" % items[0] if len(items) == 1 else \
            "(%s)" % ", ".join(items)
    return repr(x)


def test_shallow_node_repr_is_the_dataclass_repr():
    assert repr(lang_fun.parse_expr("1 :: nil")) == \
        "FCons(head=FNum(value=1), tail=FNil())"
    assert repr(lang_while.parse_config("x := 1 || y=2")) == (
        "WhileConfig(stmt=Assign(var='x', expr=ANum(value=1)), "
        "state=WhileState(bindings=(('y', 2),)))")
    deep = _fun_list(150, lang_fun.FNum(2))  # under the cutoff
    assert repr(deep) == _dataclass_repr(deep) and "..." not in repr(deep)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["while", "extwhile", "fun"]), st.integers(0, 999))
def test_node_repr_is_the_dataclass_repr(lang, seed):
    (config,) = random_corpus(lang, 1, seed)
    assert repr(config) == _dataclass_repr(config)


def test_twenty_thousand_deep_term_repr_is_cut_short():
    script = r"""
from bigstep import lang_fun
text = repr(lang_fun.parse_expr(" :: ".join(["1"] * 20000) + " :: nil"))
cell = "FCons(head=FNum(value=1), tail="
print(text == cell * 199 + "FCons(head=FNum(...), tail=FCons(...))"
      + ")" * 199)
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


def test_twenty_thousand_iteration_inference_trace_hashes_compares_replays():
    # The trace nests as deep as the derivation; both inferences build
    # their own configurations, so `==` compares every level.
    script = r"""
from bigstep import (PLUGINS, SampleBudget, infer_results, replay_trace,
                     trivial_spec)
plugin = PLUGINS["while"]
config = plugin.parse_config("while 0 < x do x := x - 1 || x=20000")
def infer():
    (pair,) = infer_results(plugin, trivial_spec(), None, config,
                            SampleBudget(max_depth=100000))[0].items()
    return pair
(result, a), (_, b) = infer(), infer()
shorter = a.premises[-1].sub  # the trace of the loop's next iteration
print(hash(a) == hash(b), a == b, {a: "hit"}[b], a == shorter,
      replay_trace(plugin, a) == result, "InferTrace(...)" in repr(a))
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True True hit False True True"
