"""Bundled specifications and the helper algebra they are written in.

Three program specifications ship with the workbench:

- ``fac``    (While): a factorial program; the final value of `fac` is m!,
  with a loop entry asserting fac' = fac * (m-1)!.
- ``msort``  (extended While): an array-merging function; the target
  fragment is a sorted permutation of the source fragment, with entries for
  the main merging loop and the two tail loops.  The fragment start index
  is a global parameter.
- ``mglist`` (functional): a recursive list merge; the result is a sorted
  list with the combined element occurrences, with a second entry for the
  unfolded recursion shape that recurs during evaluation.

Each spec has a deliberately broken variant (``fac-bad``, ``msort-nosort``,
``mglist-len``) used to exercise counterexample reporting.

Samplers are constructive: they produce witnesses by running a reference
computation, rather than guessing and filtering.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Optional

from . import lang_extwhile as ew
from . import lang_fun as fn
from . import lang_while as wh
from .kernel import (Constrained, SampleBudget, Specification, UNIVERSE,
                     derive_one, seeded_rng)
from .syntax import int_text


# ---------------------------------------------------------------------------
# Helper algebra
# ---------------------------------------------------------------------------

def occ(values) -> Counter:
    """Occurrence map of a list of integers (zero counts absent)."""
    return Counter(values)


def occ_add(o1: Counter, o2: Counter) -> Counter:
    out = Counter(o1)
    out.update(o2)
    return out


def sorted_list(values) -> bool:
    """Non-strict ascending order (duplicates allowed)."""
    return all(a <= b for a, b in zip(values, values[1:]))


def elems(state: ew.ExtState, array: str, low: int,
          high: int) -> Optional[list]:
    """Elements of `array` from index low to high (inclusive); None when
    the array identifier is undefined.  Empty when high < low."""
    base = state.name(array)
    if base is None:
        return None
    return [state.loc(base + q) for q in range(low, high + 1)]


def sep(state: ew.ExtState, frag1, frag2) -> bool:
    """The two array fragments (name, low, high) occupy disjoint memory."""
    (x1, l1, h1), (x2, l2, h2) = frag1, frag2
    b1, b2 = state.name(x1), state.name(x2)
    if b1 is None or b2 is None:
        return False
    return b1 + h1 < b2 + l2 or b2 + h2 < b1 + l1


def preserved(pre: ew.ExtState, post: ew.ExtState, items) -> bool:
    """Each item (a name, or a fragment (name, low, high)) has the same
    value in both states.  Name preservation is value equality, including
    both-undefined; fragment preservation compares elementwise through
    each state's own base location."""
    for item in items:
        if isinstance(item, str):
            if pre.name(item) != post.name(item):
                return False
        else:
            name, low, high = item
            if high < low:
                continue
            b1, b2 = pre.name(name), post.name(name)
            if b1 is None or b2 is None:
                return False
            if any(pre.loc(b1 + q) != post.loc(b2 + q)
                   for q in range(low, high + 1)):
                return False
    return True


def list_of_lstcfm(c) -> Optional[list]:
    """The integer list denoted by a list canonical form, or None."""
    out = []
    while True:
        match c:
            case fn.FNil():
                return out
            case fn.FCons(fn.FNum(v), tail):
                out.append(v)
                c = tail
            case _:
                return None


def cfm_of_list(values) -> fn.FExpr:
    """The list canonical form of `values`."""
    out: fn.FExpr = fn.FNil()
    for v in reversed(values):
        out = fn.FCons(fn.FNum(v), out)
    return out


def _cap(candidates: list, budget: SampleBudget) -> list:
    return candidates[: budget.max_samples]


# ---------------------------------------------------------------------------
# Factorial (While)
# ---------------------------------------------------------------------------

FAC_SRC = ("fac := m ; "
           "while 1 < m do ( m := m - 1 ; fac := fac * m )")
S_FAC = wh.parse_stmt(FAC_SRC)
W_FAC = S_FAC.second


def _fac_spec(final_fac_of_m) -> Specification:
    """σ for the factorial program; `final_fac_of_m` gives the claimed
    final value of fac for the whole-program entry."""

    def run_loop(s: wh.WhileState) -> wh.WhileState:
        # Reference execution of the loop for the sampler.
        m, f = s.get("m"), s.get("fac")
        while 1 < m:
            m -= 1
            f *= m
        return s.set("m", m).set("fac", f)

    def at(param, gamma):
        if not isinstance(gamma, wh.WhileConfig):
            return UNIVERSE
        s = gamma.state
        if gamma.stmt == S_FAC and s.get("m") > 0:
            m = s.get("m")
            want = final_fac_of_m(m)
            return Constrained(
                contains=lambda rho, _w=want: isinstance(rho, wh.WhileState)
                and rho.get("fac") == _w,
                sample=lambda b, _s=s, _w=want: _cap(
                    [run_loop(_s.set("fac", _s.get("m"))).set("fac", _w),
                     _s.set("fac", _w)], b),
                describe="final states with fac = " + int_text(want),
            )
        if gamma.stmt == W_FAC and s.get("m") > 0:
            m, fac = s.get("m"), s.get("fac")
            want = fac * factorial(m - 1)
            return Constrained(
                contains=lambda rho, _w=want: isinstance(rho, wh.WhileState)
                and rho.get("fac") == _w,
                sample=lambda b, _s=s, _w=want: _cap(
                    [run_loop(_s), _s.set("fac", _w)], b),
                describe="loop exits with fac = " + int_text(want),
            )
        return UNIVERSE

    return Specification((None,), at)


def spec_fac() -> Specification:
    return _fac_spec(factorial)


def spec_fac_bad() -> Specification:
    """Broken variant: claims the program computes m! + 1."""
    return _fac_spec(lambda m: factorial(m) + 1)


def fac_corpus(m_values) -> list:
    corpus = []
    for m in m_values:
        corpus.append(wh.WhileConfig(S_FAC, wh.WhileState.of({"m": m})))
        corpus.append(wh.WhileConfig(
            W_FAC, wh.WhileState.of({"m": m, "fac": m})))
        corpus.append(wh.WhileConfig(
            W_FAC, wh.WhileState.of({"m": m, "fac": 1})))
    return corpus


# ---------------------------------------------------------------------------
# Array merging (extended While)
# ---------------------------------------------------------------------------

W_MG_SRC = ("while i <= m and j <= n do ( "
            "(if S[i] <= S[j] "
            "then ( T[k] := S[i] ; i := i + 1 ) "
            "else ( T[k] := S[j] ; j := j + 1 )) ; "
            "k := k + 1 )")
TAIL_I_SRC = ("while i <= m do "
              "( T[k] := S[i] ; i := i + 1 ; k := k + 1 )")
TAIL_J_SRC = ("while j <= n do "
              "( T[k] := S[j] ; j := j + 1 ; k := k + 1 )")
MERGE_BODY_SRC = ("var j ; var k ; j := m + 1 ; k := i ; "
                  + W_MG_SRC + " ; " + TAIL_I_SRC + " ; " + TAIL_J_SRC)

MERGE_FUNCTIONS_SRC = ("fun merge(S, T, i, m, n) returns () { "
                       + MERGE_BODY_SRC + " }")
MERGE_PROGRAM = ew.parse_functions(MERGE_FUNCTIONS_SRC)
MERGE_BODY = MERGE_PROGRAM.lookup("merge").body
# The body's own loops, so `at` finds them by identity, not a tree walk.
_LOOPS = MERGE_BODY.second.second.second.second
W_MG, TAIL_I, TAIL_J = (_LOOPS.first, _LOOPS.second.first,
                        _LOOPS.second.second)

_LOOP_BUDGET = SampleBudget(max_depth=4096, max_samples=1)


def _run_loop_stmt(stmt: ew.Stmt, st: ew.ExtState) -> Optional[ew.ExtState]:
    """Concrete execution of a loop statement, for the samplers."""
    return derive_one(ew.PLUGIN, ew.ExtConfig(stmt, st, MERGE_PROGRAM),
                      _LOOP_BUDGET)


def _arr(st: ew.ExtState, array: str, index: int) -> Optional[int]:
    return ew.aeval(ew.AIdx(array, ew.ANum(index)), st)


def _swap_fragment_head(st: ew.ExtState, post: ew.ExtState, k: int,
                        k_end: int) -> Optional[ew.ExtState]:
    """Swap the first two values of T[k..k_end] in `post` if that breaks
    sortedness; None when impossible."""
    if k_end - k < 1:
        return None
    base = post.name("T")
    if base is None:
        return None
    a, b = post.loc(base + k), post.loc(base + k + 1)
    if a == b:
        return None
    return post.with_loc(base + k, b).with_loc(base + k + 1, a)


def _msort_spec(*, drop_sorted_in_loop: bool) -> Specification:
    check_sorted = not drop_sorted_in_loop

    def call_entry(gamma: ew.ExtConfig, l: int):
        stmt, st = gamma.stmt, gamma.state
        args = stmt.args
        if not (isinstance(args[0], ew.AName)
                and isinstance(args[1], ew.AName)):
            return UNIVERSE
        x, y = args[0].name, args[1].name
        l_val = ew.aeval(args[2], st)
        m = ew.aeval(args[3], st)
        h = ew.aeval(args[4], st)
        if l_val != l or m is None or h is None \
                or not (0 <= l <= m < h):
            return UNIVERSE
        lo_frag = elems(st, x, l, m)
        hi_frag = elems(st, x, m + 1, h)
        if lo_frag is None or hi_frag is None \
                or not (sorted_list(lo_frag) and sorted_list(hi_frag)) \
                or not sep(st, (x, l, h), (y, l, h)):
            return UNIVERSE
        source = occ(lo_frag + hi_frag)

        def contains(rho):
            if not isinstance(rho, ew.ExtState):
                return False
            target = elems(rho, y, l, h)
            return target is not None and occ(target) == source \
                and sorted_list(target)

        def sample(budget, _merged=sorted(lo_frag + hi_frag)):
            base = st.name(y)
            post = st
            for off, v in enumerate(_merged):
                post = post.with_loc(base + l + off, v)
            return _cap([post, post.with_name("aux", 17)], budget)

        return Constrained(contains, sample,
                           "post-states where %s[%d..%d] is a sorted "
                           "permutation of %s[%d..%d]" % (y, l, h, x, l, h))

    def loop_entry(gamma: ew.ExtConfig, l: int):
        st = gamma.state
        vals = {v: st.name(v) for v in ("i", "j", "k", "m", "n")}
        if any(v is None for v in vals.values()):
            return UNIVERSE
        i, j, k, m, n = (vals[v] for v in ("i", "j", "k", "m", "n"))
        if not (0 <= l <= i <= m < j <= n) or k != i + j - m - 1:
            return UNIVERSE
        if k >= l + 1:
            si, sj, tk = _arr(st, "S", i), _arr(st, "S", j), _arr(st, "T",
                                                                  k - 1)
            if si is None or sj is None or tk is None \
                    or not (si >= tk and sj >= tk):
                return UNIVERSE
        frag_i = elems(st, "S", i, m)
        frag_j = elems(st, "S", j, n)
        frag_t = elems(st, "T", l, k - 1)
        if frag_i is None or frag_j is None or frag_t is None \
                or not (sorted_list(frag_i) and sorted_list(frag_j)
                        and sorted_list(frag_t)) \
                or not sep(st, ("S", l, n), ("T", l, n)):
            return UNIVERSE

        def contains(rho):
            if not isinstance(rho, ew.ExtState):
                return False
            ip, jp, kp = rho.name("i"), rho.name("j"), rho.name("k")
            if ip is None or jp is None or kp is None:
                return False
            if not ((i <= ip == m + 1 and j <= jp <= n)
                    or (j <= jp == n + 1 and i <= ip <= m)):
                return False
            if kp != k + (ip - i) + (jp - j):
                return False
            if not preserved(st, rho, ["m", "n", "S", "T",
                                       ("S", l, n), ("T", l, k - 1)]):
                return False
            scanned_i = elems(st, "S", i, ip - 1)
            scanned_j = elems(st, "S", j, jp - 1)
            filled = elems(rho, "T", k, kp - 1)
            if scanned_i is None or scanned_j is None or filled is None \
                    or occ_add(occ(scanned_i), occ(scanned_j)) != occ(filled):
                return False
            done = elems(rho, "T", l, kp - 1)
            if check_sorted and (done is None or not sorted_list(done)):
                return False
            if ip <= m and kp >= l + 1:
                sv, tv = _arr(rho, "S", ip), _arr(rho, "T", kp - 1)
                if sv is None or tv is None or sv < tv:
                    return False
            if jp <= n and kp >= l + 1:
                sv, tv = _arr(rho, "S", jp), _arr(rho, "T", kp - 1)
                if sv is None or tv is None or sv < tv:
                    return False
            return True

        def sample(budget):
            genuine = _run_loop_stmt(W_MG, st)
            if genuine is None:
                return []
            out = [genuine, genuine.with_name("aux", 17)]
            if drop_sorted_in_loop:
                kp = genuine.name("k")
                corrupt = _swap_fragment_head(st, genuine, k, kp - 1)
                if corrupt is not None:
                    out.insert(1, corrupt)
            return _cap(out, budget)

        return Constrained(contains, sample,
                           "merging-loop exit states from "
                           "i=%d, j=%d, k=%d" % (i, j, k))

    def tail_entry(gamma: ew.ExtConfig, l: int, scan: str):
        # scan: "i" for the second loop, "j" for the third.
        st = gamma.state
        vals = {v: st.name(v) for v in ("i", "j", "k", "m", "n")}
        if any(v is None for v in vals.values()):
            return UNIVERSE
        i, j, k, m, n = (vals[v] for v in ("i", "j", "k", "m", "n"))
        if scan == "i":
            ok = 0 <= l <= i <= m < n and j == n + 1
        else:
            ok = 0 <= l <= m < j <= n and i == m + 1
        if not ok or k != i + j - m - 1 \
                or not sep(st, ("S", l, n), ("T", l, n)):
            return UNIVERSE
        start = i if scan == "i" else j
        end = m if scan == "i" else n
        stmt = TAIL_I if scan == "i" else TAIL_J
        other = "j" if scan == "i" else "i"
        other_val = j if scan == "i" else i

        def contains(rho):
            if not isinstance(rho, ew.ExtState):
                return False
            sp = rho.name(scan)
            op_ = rho.name(other)
            kp = rho.name("k")
            if sp is None or op_ is None or kp is None:
                return False
            if not (sp >= start and sp == end + 1 and op_ == other_val
                    and kp == k + (sp - start)):
                return False
            if not preserved(st, rho, ["m", "n", "T", ("T", l, k - 1)]):
                return False
            scanned = elems(st, "S", start, sp - 1)
            filled = elems(rho, "T", k, kp - 1)
            return scanned is not None and scanned == filled

        def sample(budget):
            genuine = _run_loop_stmt(stmt, st)
            return [] if genuine is None else _cap([genuine], budget)

        return Constrained(contains, sample,
                           "tail-loop exit states copying %s[%d..%d]"
                           % ("S", start, end))

    def at(l, gamma):
        if not isinstance(gamma, ew.ExtConfig) \
                or gamma.program != MERGE_PROGRAM:
            return UNIVERSE
        stmt = gamma.stmt
        if isinstance(stmt, ew.Call) and stmt.func == "merge" \
                and len(stmt.args) == 5 and not stmt.recvs:
            return call_entry(gamma, l)
        if stmt == W_MG:
            return loop_entry(gamma, l)
        if stmt == TAIL_I:
            return tail_entry(gamma, l, "i")
        if stmt == TAIL_J:
            return tail_entry(gamma, l, "j")
        return UNIVERSE

    return Specification((0, 1, 2), at)


def spec_msort() -> Specification:
    return _msort_spec(drop_sorted_in_loop=False)


def spec_msort_nosort() -> Specification:
    """Broken variant: the merging-loop entry no longer requires the filled
    target prefix to be sorted."""
    return _msort_spec(drop_sorted_in_loop=True)


def merge_call_config(l: int, frag1: list, frag2: list) -> ew.ExtConfig:
    """A call to merge with S[l..m]=frag1, S[m+1..h]=frag2, T zeroed."""
    m = l + len(frag1) - 1
    h = m + len(frag2)
    extent = h + 1
    heap = {l + off: v for off, v in enumerate(frag1 + frag2)}
    state = ew.ExtState.of({"S": 0, "T": extent}, heap, 2 * extent)
    stmt = ew.Call("merge",
                   (ew.AName("S"), ew.AName("T"), ew.ANum(l), ew.ANum(m),
                    ew.ANum(h)), ())
    return ew.ExtConfig(stmt, state, MERGE_PROGRAM)


def msort_corpus(count: int, seed: int) -> list:
    rng = seeded_rng(seed, "msort-corpus", count)
    corpus = []
    for _ in range(count):
        l = rng.choice((0, 1, 2))
        frag1 = sorted(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
        frag2 = sorted(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
        corpus.append(merge_call_config(l, frag1, frag2))
    return corpus


# ---------------------------------------------------------------------------
# List merging (functional)
# ---------------------------------------------------------------------------

MERGE_LAM = fn.parse_expr(
    r"\x. \x'. listcase x of (x', \i. \r. listcase x' of (x, \i'. \r'. "
    r"if i <= i' then i :: merge r x' else i' :: merge x r'))")
LCASE_EXPR = MERGE_LAM.body.body
UNFOLDED_FUN = fn.FLam("x", fn.FLetRec("merge", MERGE_LAM,
                                       fn.FLam("x'", LCASE_EXPR)))


def merge_expr(c1: fn.FExpr, c2: fn.FExpr) -> fn.FExpr:
    return fn.FLetRec("merge", MERGE_LAM,
                      fn.FApp(fn.FApp(fn.FVar("merge"), c1), c2))


def unfolded_merge_expr(c1: fn.FExpr, c2: fn.FExpr) -> fn.FExpr:
    return fn.FApp(fn.FApp(UNFOLDED_FUN, c1), c2)


def _match_merge_shape(e: fn.FExpr):
    """The two specified shapes; returns (list1, list2) or None."""
    match e:
        case fn.FLetRec("merge", bound,
                        fn.FApp(fn.FApp(fn.FVar("merge"), c1), c2)) \
                if bound == MERGE_LAM:
            pass
        case fn.FApp(fn.FApp(g, c1), c2) if g == UNFOLDED_FUN:
            pass
        case _:
            return None
    l1, l2 = list_of_lstcfm(c1), list_of_lstcfm(c2)
    if l1 is None or l2 is None \
            or not (sorted_list(l1) and sorted_list(l2)):
        return None
    return l1, l2


def _mglist_spec(*, weaken_occ_to_length: bool) -> Specification:
    def at(param, gamma):
        matched = _match_merge_shape(gamma)
        if matched is None:
            return UNIVERSE
        l1, l2 = matched
        combined = occ_add(occ(l1), occ(l2))
        total = len(l1) + len(l2)

        def contains(rho):
            lst = list_of_lstcfm(rho)
            if lst is None or not sorted_list(lst):
                return False
            if weaken_occ_to_length:
                return len(lst) == total
            return occ(lst) == combined

        def sample(budget):
            out = [cfm_of_list(sorted(l1 + l2))]
            if weaken_occ_to_length and total > 0:
                low = min(l1 + l2) - 1
                out.append(cfm_of_list([low] * total))
            return _cap(out, budget)

        return Constrained(contains, sample,
                           "sorted merge of %r and %r" % (l1, l2))

    return Specification((None,), at)


def spec_mglist() -> Specification:
    return _mglist_spec(weaken_occ_to_length=False)


def spec_mglist_len() -> Specification:
    """Broken variant: the element-occurrence condition is weakened to a
    length condition in both entries."""
    return _mglist_spec(weaken_occ_to_length=True)


def mglist_corpus(count: int, seed: int, max_len: int = 5) -> list:
    rng = seeded_rng(seed, "mglist-corpus", count)
    corpus = []
    for _ in range(count):
        l1 = sorted(rng.randint(-3, 3)
                    for _ in range(rng.randint(0, max_len)))
        l2 = sorted(rng.randint(-3, 3)
                    for _ in range(rng.randint(0, max_len)))
        corpus.append(merge_expr(cfm_of_list(l1), cfm_of_list(l2)))
    return corpus


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# name -> (language name, spec factory)
SPECS = {
    "fac": ("while", spec_fac),
    "fac-bad": ("while", spec_fac_bad),
    "msort": ("extwhile", spec_msort),
    "msort-nosort": ("extwhile", spec_msort_nosort),
    "mglist": ("fun", spec_mglist),
    "mglist-len": ("fun", spec_mglist_len),
}
