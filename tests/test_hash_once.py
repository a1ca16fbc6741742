"""Hash-once nodes: copies and pickles of terms, states and configurations
of every language stay equal, hashable and usable as dict keys, even when
unpickled under another hash seed; state writes match a full rebuild."""

import copy
import os
import pickle
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bigstep
from bigstep import lang_extwhile, lang_fun, lang_while
from bigstep.lang_extwhile import ExtState
from bigstep.lang_while import WhileState

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
