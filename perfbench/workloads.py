"""The four benchmark workloads: inputs, timed calls and verdict oracles.

Each workload turns (seed, scale) into a list of ops.  An op's `run` is
the timed call into the program; it returns the text the op emits (hashed
into the determinism digest) and the objects its `check` needs.  `check`
runs outside the timed span and compares the verdict with an answer worked
out independently of the program: `sorted()` for merges, closed forms for
loops, "derived equals inferred" for the metatheory, and for each broken
specification variant a stated reason why the command must fail or pass.

Sizes are balanced designs: the seed draws the values and the order, but
every round visits the same spread of input sizes, so the amount of work
barely moves from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from bigstep import PLUGINS, spec_lib
from bigstep import random_programs as rp
from bigstep.kernel import PASS, SampleBudget, replay_trace, trivial_spec

RUN = SampleBudget(max_depth=8192, max_samples=1, seed=0)
DEEP = SampleBudget(max_depth=512, max_samples=8, seed=0)
STAR = SampleBudget(max_depth=8, max_samples=8, seed=0)
FIDELITY = SampleBudget(max_depth=48, max_samples=8, seed=0)

# Ops per round at scale 1 (merge-verify and the crosschecks visit every
# size in their grids instead).
REFUTES = 60
STAR_CHECKS = 330       # per language
FIDELITY_CHECKS = 330   # per language
DEEP_LOOPS = 3          # per loop kind, plus the known-defect loop
DEFECT_ITERATIONS = 40_000


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]
    check: Callable[..., str]   # "" when the verdict is right, else why not
    known_error: Optional[type] = None   # the op's known defect, if any
    why: str = ""                        # why the defect shows


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _balanced(rng: random.Random, cells: list, n: int) -> list:
    """`n` cells: seeded shuffles of the full list, one after another."""
    out: list = []
    while len(out) < n:
        block = list(cells)
        rng.shuffle(block)
        out += block
    return out[:n]


def _count(base: int, scale: float, least: int = 1) -> int:
    return max(least, round(base * scale))


def _grid_cells(rng: random.Random, cells: list, scale: float) -> list:
    """Every cell once, in seeded order; a prefix of them below scale 1."""
    return _balanced(rng, cells, _count(len(cells), scale))


def _sorted_values(rng: random.Random, n: int) -> list:
    return sorted(rng.randint(-3, 3) for _ in range(n))


def _expect_pass(*reports) -> str:
    bad = [r.status for r in reports if r.status != PASS]
    return "" if not bad else "status %s, expected pass" % bad


# ---------------------------------------------------------------------------
# merge-verify: the paper's main job
# ---------------------------------------------------------------------------

def merge_verify(seed: int, scale: float, lib) -> list:
    """Criterion 4 and 5 instances: array merges (msort, extwhile) and list
    merges (mglist, fun).

    Each op derives the merge at depth 8192, then checks the verification
    condition of that one configuration under the correct spec.  A round
    visits every fragment-length cell of both distributions (list cells
    twice, so both kinds weigh about the same); the seed draws the values
    and the order.
    """
    rng = _rng("merge-verify", seed)
    ew, fn = lib.plugins["extwhile"], lib.plugins["fun"]
    msort, mglist = lib.spec(spec_lib.spec_msort()), lib.spec(
        spec_lib.spec_mglist())
    cells = [("msort", l, a, b) for l in (0, 1, 2)
             for a in range(1, 6) for b in range(1, 6)]
    cells += 2 * [("mglist", None, a, b) for a in range(6) for b in range(6)]
    ops = []
    for kind, l, a, b in _grid_cells(rng, cells, scale):
        v1, v2 = _sorted_values(rng, a), _sorted_values(rng, b)
        if kind == "msort":
            ops.append(_merge_op(kind, ew, msort,
                                 spec_lib.merge_call_config(l, v1, v2),
                                 _array_merge_oracle(l, v1, v2), lib))
        else:
            gamma = spec_lib.merge_expr(spec_lib.cfm_of_list(v1),
                                        spec_lib.cfm_of_list(v2))
            ops.append(_merge_op(kind, fn, mglist, gamma,
                                 _list_merge_oracle(v1, v2), lib))
    return ops


def _array_merge_oracle(l, f1, f2):
    def merged(out):
        base = out.name("T")
        return [out.loc(base + q) for q in range(l, l + len(f1) + len(f2))]

    return merged, sorted(f1 + f2)


def _list_merge_oracle(l1, l2):
    return spec_lib.list_of_lstcfm, sorted(l1 + l2)


def _merge_op(label, plugin, spec, gamma, oracle, lib) -> Op:
    def run():
        out = lib.derive_one(plugin, gamma, RUN)
        report = lib.check_verif(plugin, spec, [gamma], DEEP)
        text = lib.render_report(plugin, report, result=None if out is None
                                 else plugin.pretty(out))
        return text, (out, report)

    def check(out, report):
        extract, want = oracle
        if out is None:
            return "no result within depth %d" % RUN.max_depth
        got = extract(out)
        if got != want:
            return "merged %r, sorted() gives %r" % (got, want)
        return _expect_pass(report)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# refute-json: counterexample traces, built and rendered by the CLI
# ---------------------------------------------------------------------------

def _merge_lists(gamma) -> tuple[list, list]:
    """The two lists of an mglist corpus instance."""
    app = gamma.body
    return (spec_lib.list_of_lstcfm(app.func.arg),
            spec_lib.list_of_lstcfm(app.arg))


def _merge_fragments(gamma) -> tuple[list, list]:
    """The two source fragments of an msort corpus instance."""
    l, m, h = (arg.value for arg in gamma.stmt.args[2:])
    return (spec_lib.elems(gamma.state, "S", l, m),
            spec_lib.elems(gamma.state, "S", m + 1, h))


def _mglist_len_refutations(corpus) -> tuple[int, str]:
    """Merge steps the weakened mglist-len spec is refuted at, and why.

    At a step merging xs and ys, the recursive call's weakened entry also
    samples a list of (min - 1)s.  Behind the head min(xs + ys) that list
    is unsorted exactly when the head's value occurs again in the rest.
    """
    count, why = 0, ""
    for gamma in corpus:
        xs, ys = _merge_lists(gamma)
        while xs and ys:
            low = min(xs[0], ys[0])
            if (xs + ys).count(low) >= 2:
                count += 1
                why = why or ("merging %r and %r takes head %d while %d is "
                              "still left, so the weakened entry's sampled "
                              "list of %ds lands unsorted behind it"
                              % (xs, ys, low, low, low - 1))
            if xs[0] <= ys[0]:
                xs = xs[1:]
            else:
                ys = ys[1:]
    return count, why or ("no merge step takes a head whose value is still "
                          "left, so every sampled list of (minimum - 1)s "
                          "stays sorted behind it")


def _msort_nosort_refutations(corpus) -> tuple[int, str]:
    """Instances the msort-nosort spec is refuted at, and why.

    The broken loop entry's sample swaps the first two values the merging
    loop writes; the call entry sees the result unsorted when the loop
    writes at least two values and they differ.
    """
    count, why = 0, ""
    for gamma in corpus:
        f1, f2 = _merge_fragments(gamma)
        written, i, j = [], 0, 0
        while i < len(f1) and j < len(f2):
            if f1[i] <= f2[j]:
                written.append(f1[i])
                i += 1
            else:
                written.append(f2[j])
                j += 1
        if len(written) >= 2 and written[0] != written[1]:
            count += 1
            why = why or ("the merging loop on %r, %r first writes %r and "
                          "%r; the broken loop entry's sample swaps them and "
                          "the call entry finds the result unsorted"
                          % (f1, f2, written[0], written[1]))
    return count, why or ("in every instance the merging loop writes fewer "
                          "than two values or two equal ones, so swapping "
                          "them changes nothing")


def _fac_bad_verdict(m_values) -> tuple[int, str]:
    bad = [m for m in m_values if m >= 1]
    if bad:
        return 1, ("the whole-program entry claims fac = m! + 1, refuted "
                   "at m = %d" % bad[0])
    return 0, ("no m >= 1 in range, so the whole-program entry is never "
               "constrained")


def _refuted(corpus, refuted: int) -> int:
    return refuted


def _fragment_total(corpus, refuted: int) -> int:
    return sum(len(f) for gamma in corpus for f in _merge_fragments(gamma))


# variant: (language, corpus builder, refutation count, cost key, the cost
# keys a round cycles through).  mglist-len's time follows the number of
# counterexamples it renders; msort-nosort's follows the elements merged.
REFUTE_VARIANTS = {
    "mglist-len": ("fun", spec_lib.mglist_corpus, _mglist_len_refutations,
                   _refuted, (0, 2, 3, 4, 5, 6, 7, 9)),
    "msort-nosort": ("extwhile", spec_lib.msort_corpus,
                     _msort_nosort_refutations, _fragment_total,
                     (18, 20, 22, 24, 24, 26, 28, 30)),
}
REFUTE_COUNT = 4
MAX_DRAWS = 100_000


def refute_json(seed: int, scale: float, lib) -> list:
    """`bigstep check-verif --format json` on the three broken variants.

    The variants' expected verdicts differ per command: a corpus can miss
    the variant's weakness, so each op states why it must fail or pass.
    Each generated corpus holds 4 instances.  The CLI seed is drawn until
    the corpus hits the op's cell of the variant's cost key, so every
    round does about the same work.
    """
    rng = _rng("refute-json", seed)
    n = _count(REFUTES, scale, least=5)
    pattern = ("mglist-len", "msort-nosort", "mglist-len", "msort-nosort",
               "fac-bad")
    cells = {v: iter(_balanced(rng, list(grid), n))
             for v, (_, _, _, _, grid) in REFUTE_VARIANTS.items()}
    ranges = iter(_balanced(rng, [(lo, lo + w) for lo in range(-2, 4)
                                  for w in range(6)], n))
    ops = []
    for k in range(n):
        variant = pattern[k % len(pattern)]
        argv = ["check-verif", "--spec", variant, "--format", "json"]
        if variant == "fac-bad":
            lo, hi = next(ranges)
            argv += ["--lang", "while", "--m=%d..%d" % (lo, hi)]
            expect, why = _fac_bad_verdict(range(lo, hi + 1))
        else:
            lang, build, refutations, cost, _ = REFUTE_VARIANTS[variant]
            cell = next(cells[variant])
            for _ in range(MAX_DRAWS):
                cseed = rng.randrange(1_000_000)
                corpus = build(REFUTE_COUNT, cseed)
                refuted, why = refutations(corpus)
                if cost(corpus, refuted) == cell:
                    break
            else:
                raise RuntimeError("no %s corpus in cell %r" % (variant, cell))
            argv += ["--lang", lang, "--count", str(REFUTE_COUNT), "--seed",
                     str(cseed), "--depth", str(DEEP.max_depth)]
            expect = 1 if refuted else 0
        ops.append(_refute_op(variant, argv, expect, why, lib))
    return ops


def _refute_op(label, argv, expect, why, lib) -> Op:
    lang = argv[argv.index("--lang") + 1]

    def run():
        code, out, reports = lib.run_cli(argv)
        return "exit %d\n%s" % (code, out), (code, out, reports)

    def check(code, out, reports):
        if code != expect:
            return "exit %d, expected %d: %s" % (code, expect, why)
        doc = json.loads(out)
        (report,) = reports
        if doc["status"] != report.status \
                or len(doc["counterexamples"]) != len(report.counterexamples):
            return "rendered JSON disagrees with the report"
        for cx in report.counterexamples:
            if cx.trace is None \
                    or replay_trace(PLUGINS[lang], cx.trace) != cx.result:
                return "counterexample does not replay"
        return ""

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# metatheory: star-check, inference fidelity, soundness crosscheck
# ---------------------------------------------------------------------------

def metatheory(seed: int, scale: float, lib) -> list:
    """Shallow star-checks and fidelity checks on all three languages, then
    per-config soundness crosscheck and refinement against star."""
    rng = _rng("metatheory", seed)
    ops = []
    triv = lib.spec(trivial_spec())
    for lang in ("while", "extwhile", "fun"):
        plugin = lib.plugins[lang]
        star = lib.spec(lib.star_spec(plugin, STAR))
        for gamma in rp.loop_free_corpus(lang, _count(STAR_CHECKS, scale),
                                         seed):
            ops.append(_star_op(lang, plugin, star, gamma, lib))
        for gamma in rp.random_corpus(lang, _count(FIDELITY_CHECKS, scale),
                                      seed):
            ops.append(_fidelity_op(lang, plugin, triv, gamma, lib))
    sizes = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    instances = [
        ("while", spec_lib.spec_fac(),
         [spec_lib.fac_corpus([m])[k] for m, k in _grid_cells(
             rng, [(m, k) for m in range(1, 9) for k in range(3)], scale)]),
        ("extwhile", spec_lib.spec_msort(),
         [spec_lib.merge_call_config((a + b) % 3, _sorted_values(rng, a),
                                     _sorted_values(rng, b))
          for a, b in _grid_cells(rng, sizes, scale)]),
        ("fun", spec_lib.spec_mglist(),
         [spec_lib.merge_expr(spec_lib.cfm_of_list(_sorted_values(rng, a)),
                              spec_lib.cfm_of_list(_sorted_values(rng, b)))
          for a, b in _grid_cells(rng, sizes, scale)]),
    ]
    for lang, spec, corpus in instances:
        plugin = lib.plugins[lang]
        spec = lib.spec(spec)
        star = lib.spec(lib.star_spec(plugin, DEEP,
                                      param_domain=spec.param_domain))
        for gamma in corpus:
            ops.append(_crosscheck_op(lang, plugin, spec, star, gamma, lib))
    return ops


def _star_op(lang, plugin, star, gamma, lib) -> Op:
    def run():
        report = lib.check_verif(plugin, star, [gamma], STAR)
        return lib.render_report(plugin, report), (report,)

    return Op("star-" + lang, run, _expect_pass)


def _fidelity_op(lang, plugin, triv, gamma, lib) -> Op:
    def run():
        derived, dex = lib.derive_all(plugin, gamma, FIDELITY)
        inferred, iex = lib.infer_results(plugin, triv, None, gamma, FIDELITY)
        text = json.dumps({"derived": [plugin.pretty(r) for r in derived],
                           "inferred": [plugin.pretty(r) for r in inferred],
                           "exhausted": [dex, iex]})
        return text, (derived, dex, inferred, iex)

    def check(derived, dex, inferred, iex):
        if set(derived) != set(inferred) or dex != iex:
            return "derivation and trivial-spec inference disagree"
        return ""

    return Op("fidelity-" + lang, run, check)


def _crosscheck_op(lang, plugin, spec, star, gamma, lib) -> Op:
    def run():
        cross = lib.check_soundness_crosscheck(plugin, spec, [gamma], DEEP)
        refine = lib.spec_refines(spec, star, [gamma], DEEP)
        text = (lib.render_report(plugin, cross)
                + lib.render_report(plugin, refine))
        return text, (cross, refine)

    return Op("crosscheck-" + lang, run, _expect_pass)


# ---------------------------------------------------------------------------
# deep-loop: long derivations given as text
# ---------------------------------------------------------------------------

WHILE_SUM = "s := c ; while 0 < n do ( s := s + n ; n := n - 1 )"
ARRAY_FILL = ("var i ; i := 0 ; "
              "while i < n do ( A[i] := i * i + c ; s := s + A[i] ; "
              "i := i + 1 )")
LIST_LENGTH = ("letrec len = \\l. listcase l of (0, \\h. \\t. 1 + len t) "
               "in len (%s)")


def _bindings(text: str) -> dict:
    return dict(part.split("=") for part in text.split(", "))


def _while_sum(n, c):
    def closed_form(result):
        want = {"c": str(c), "s": str(c + n * (n + 1) // 2)}
        return "" if _bindings(result) == want else \
            "%s, closed form gives s=%s" % (result, want["s"])

    return (["--lang", "while", "--config", WHILE_SUM,
             "--state", "n=%d, c=%d" % (n, c)], closed_form)


def _array_fill(n, c):
    def closed_form(result):
        want = {"A": "0", "c": str(c), "i": str(n), "n": str(n),
                "s": str((n - 1) * n * (2 * n - 1) // 6 + n * c),
                "nextloc": str(n)}
        want.update({"[%d]" % i: str(i * i + c) for i in range(n)})
        return "" if _bindings(result) == want else \
            "array fill of %d cells disagrees with i*i+%d and its sum" % (n, c)

    return (["--lang", "extwhile", "--config", ARRAY_FILL,
             "--state", "n=%d, c=%d, s=0, A=[%s]"
             % (n, c, ",".join(["0"] * n))], closed_form)


def _list_length(items):
    def closed_form(result):
        return "" if result == str(len(items)) else \
            "length %s, expected %d" % (result, len(items))

    text = " :: ".join(map(str, items + ["nil"]))
    return ["--lang", "fun", "--config", LIST_LENGTH % text], closed_form


def _grid(lo, hi, n) -> list:
    """`n` sizes spread evenly over [lo, hi)."""
    return [lo + (hi - lo) * (2 * k + 1) // (2 * n) for k in range(n)]


def deep_loop(seed: int, scale: float, lib) -> list:
    """`bigstep derive --format json` on long loops given as text, plus one
    loop long enough to hit the known recursion-depth defect.

    Loop lengths sit on a fixed grid, because a few long ops make up the
    whole workload and their lengths set its time; the seed draws the
    constants and list elements the closed forms are checked against.
    """
    rng = _rng("deep-loop", seed)
    n = _count(DEEP_LOOPS, scale)
    ops = []
    for total, fill, length in zip(_grid(1000, 6000, n), _grid(100, 600, n),
                                   _grid(40, 240, n)):
        ops.append(_derive_op("while-sum", total,
                              _while_sum(total, rng.randint(1, 99)), lib))
        ops.append(_derive_op("array-fill", fill,
                              _array_fill(fill, rng.randint(1, 99)), lib))
        ops.append(_derive_op("list-length", length, _list_length(
            [rng.randint(0, 9) for _ in range(length)]), lib))
    defect = _derive_op("while-sum", DEFECT_ITERATIONS,
                        _while_sum(DEFECT_ITERATIONS, rng.randint(1, 99)),
                        lib)
    defect.known_error = RecursionError
    defect.why = ("the recursive derivation walkers run out of Python stack "
                  "on a %d-iteration loop (ROADMAP item 2)"
                  % DEFECT_ITERATIONS)
    ops.append(defect)
    return ops


def _derive_op(label, size, case, lib) -> Op:
    args, closed_form = case
    argv = ["derive"] + args + ["--depth", str(10 * size + 100),
                                "--format", "json"]

    def run():
        code, out, _ = lib.run_cli(argv)
        return "exit %d\n%s" % (code, out), (code, out)

    def check(code, out):
        if code != 0:
            return "exit %d, expected 0" % code
        results = json.loads(out)["results"]
        if len(results) != 1:
            return "%d results, expected one" % len(results)
        return closed_form(results[0])

    return Op("%s-%d" % (label, size), run, check)


WORKLOADS = {
    "merge-verify": merge_verify,
    "refute-json": refute_json,
    "metatheory": metatheory,
    "deep-loop": deep_loop,
}
