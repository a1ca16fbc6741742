"""Command-line front end: every exit code is reachable, structured output
is deterministic, and environment variables override budget flags."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from math import factorial

import pytest

import bigstep
from bigstep.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_reads_the_package_plugin_registry():
    assert bigstep.PLUGINS is bigstep.cli.PLUGINS


def test_run_prints_result_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--config", "x := 2 * 3", "--depth", "16")
    assert code == 0
    assert out.strip() == "x=6"


def test_run_factorial_program(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--lang", "while",
        "--config", "fac := m ; while 1 < m do (m := m - 1 ; "
        "fac := fac * m)", "--state", "m=5", "--depth", "64")
    assert code == 0
    assert out.strip() == "fac=120, m=1"


def test_stuck_configuration_exits_three(capsys):
    code, out, _ = run_cli(capsys, "run", "--lang", "extwhile",
                           "--config", "X[0] := 1")
    assert code == 3
    assert "stuck" in out


def test_budget_exhaustion_exits_four(capsys):
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--config", "while true do skip",
                           "--depth", "5")
    assert code == 4
    assert "budget" in out


def test_run_forty_thousand_iteration_loop_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--config", "while 0 < x do x := x - 1",
                           "--state", "x=40000", "--depth", "200000",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "result" and len(doc["results"]) == 1


def test_run_and_derive_leave_no_table_in_the_kernel_module(capsys):
    # A one-shot derivation memoizes on a table of its own and drops it,
    # and a check on a table of its own: the kernel keeps no dict, list or
    # set at module scope, before or after a command.
    kernel = bigstep.kernel

    def tables():
        return sorted(name for name, value in vars(kernel).items()
                      if not name.startswith("__")
                      and isinstance(value, (dict, list, set)))

    assert tables() == []
    for command in ("run", "derive"):
        code, out, _ = run_cli(capsys, command, "--lang", "while",
                               "--config", "while 0 < x do x := x - 1",
                               "--state", "x=10000", "--depth", "20010")
        assert (code, out.strip()) == (0, "all zero")
    plugin = bigstep.PLUGINS["while"]
    g = plugin.parse_config("x := 10000 ; while 0 < x do x := x - 1")
    results, exhausted = kernel.derive_all(
        plugin, g, kernel.SampleBudget(max_depth=20010))
    assert len(results) == 1 and not exhausted
    assert tables() == []


def test_star_check_of_a_recursion_the_budget_cuts_exits_four():
    # Both `if` rules derive the condition `f n`, which recurses forever.
    # A harvest that derived it again for the second rule took time
    # doubling every 4 levels of depth (3 s at the default 64, 12 s at 72).
    # The budget cuts the harvest, so configurations may go unchecked: the
    # check passed, with exit 0, before the harvest's cut was reported.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bigstep", "star-check", "--lang", "fun",
         "--config", r"letrec f = \n. if f n then 1 else 0 in f 0",
         "--depth", "200"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert proc.stdout.startswith("status: budget_exhausted\n")
    assert "depth_hit: True\n" in proc.stdout


def test_run_prints_a_factorial_of_more_digits_than_str_prints():
    # 2000! has 5,736 digits, past CPython's default limit of 4,300 on
    # int-string conversion: the derivation succeeded, then printing the
    # state raised ValueError and the command exited 1.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bigstep", "run", "--lang", "while",
         "--config", "fac := m ; while 1 < m do (m := m - 1 ; fac := fac * m)",
         "--state", "m=2000", "--depth", "100000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    fac, _, m = proc.stdout.strip().partition(", ")
    assert fac.startswith("fac=") and m == "m=1"
    assert Decimal(fac[len("fac="):]) == factorial(2000)


def test_crosscheck_of_naive_fib_takes_well_under_a_second():
    # Inference memoizes the answers of its frames, as derivation does.
    # With no memo it inferred `fib (n - 2)` again under `fib (n - 1)`, and
    # this command took 36 s.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bigstep", "crosscheck", "--lang", "fun",
         "--spec", "mglist", "--depth", "4096", "--config",
         r"letrec fib = \n. if n < 2 then n else fib (n - 1) + fib (n - 2) "
         r"in fib 24"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("status: pass")
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("argv, lines", [
    # A pass report is 318 bytes, written at once, so the reader goes
    # before the command writes anything.
    (("check-verif", "--lang", "fun", "--spec", "mglist", "--count", "8",
      "--format", "json"), 0),
    # About 100 kB, more than a pipe holds: the write is cut once the
    # reader has taken its first line.
    (("derive", "--lang", "fun", "--depth", "1000000", "--format", "json",
      "--config",
      r"letrec f = \n. if n < 1 then nil else n :: f (n - 1) in f 10000"),
     1),
])
def test_a_reader_that_closes_early_gets_no_traceback(argv, lines):
    # As under `bigstep ... | head -1`.  The command printed a
    # `BrokenPipeError` traceback and exited 1.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "bigstep", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("argv, corpus, cut, deep", [
    # At depth 3 the derivation from x=5 is cut; the `star` spec knows no
    # set there, so the loops at x=2..0 are checked and those at x=5..3
    # are not.  Star-check took the cut derivation's empty result set as
    # exact and refuted the loop at x=3 with its actual result `all zero`;
    # then it passed with exit 0.
    (("star-check", "--lang", "while", "--config",
      "while 0 < x do x := x - 1", "--state", "x=5"), 1, (3, 3), (11, 11)),
    # At depth 3 the harvest of the m=6 corpus reaches 5 of its 13
    # targets, and inference there is not cut: the check passed with exit
    # 0 and `depth_hit: False`.
    (("check-verif", "--lang", "while", "--spec", "fac", "--m", "6"), 3,
     (5, 10), (13, 22)),
], ids=["star-check-loop", "check-verif-fac"])
def test_a_check_whose_harvest_the_budget_cuts_exits_four(
        capsys, argv, corpus, cut, deep):
    for depth, code, status, hit, (checked, inferred) in (
            ("3", 4, "budget_exhausted", True, cut),
            ("64", 0, "pass", False, deep)):
        assert run_cli(capsys, *argv, "--depth", depth) == (
            code, "status: %s\ncorpus size: %d\nconfigs_checked: %d\n"
                  "depth_hit: %s\nresults_inferred: %d\n"
                  % (status, corpus, checked, hit, inferred), "")


def test_parse_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "--lang", "while",
                           "--config", "x := := 1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("lang,config,message", [
    ("while", "skip || x=1, x=2", "x is given twice"),
    ("extwhile", "skip || S=[1,2], S=[5]", "S is given twice"),
    ("extwhile", "fun f() returns (r) { r := 1 } "
     "fun f() returns (r) { r := 2 } || var y ; call f(; y) ||",
     "function f is defined twice"),
])
def test_name_given_twice_exits_two(capsys, lang, config, message):
    code, out, err = run_cli(capsys, "run", "--lang", lang,
                             "--config", config)
    assert code == 2 and out == ""
    assert message in err


def test_array_named_nextloc_exits_two(capsys):
    # It used to be an array whose base printed as a second `nextloc=`.
    code, out, err = run_cli(capsys, "run", "--lang", "extwhile",
                             "--config", "skip || nextloc=[7,8]")
    assert code == 2 and out == ""
    assert "expected integer" in err


@pytest.mark.parametrize("config", [
    "var nextloc ; nextloc := 3",  # it printed `nextloc=3, nextloc=0`
    "x := nextloc",
    "array nextloc[2]",
    "nextloc[0] := 1",
    "fun f(nextloc) returns (r) { r := 1 } || var y ; call f(1; y) ||",
    "fun f(a) returns (nextloc) { skip } || var y ; call f(1; y) ||",
    "fun f(a) returns (r) { r := a } || call f(1; nextloc) ||",
], ids=["variable", "read", "array", "cell", "parameter", "return",
        "receiver"])
def test_program_naming_nextloc_exits_two(capsys, config):
    # A printed ExtWhile state ends in `nextloc=`; a program variable of
    # that name would print a state that does not parse back.
    code, out, err = run_cli(capsys, "run", "--lang", "extwhile",
                             "--config", config)
    assert code == 2 and out == ""
    assert "found 'nextloc'" in err


def test_nextloc_is_a_variable_name_in_while_and_a_state_field_in_extwhile(
        capsys):
    assert run_cli(capsys, "run", "--lang", "while", "--config",
                   "nextloc := 3") == (0, "nextloc=3\n", "")
    assert run_cli(capsys, "run", "--lang", "extwhile", "--config",
                   "var x ; x := 3 || nextloc=4") == \
        (0, "x=3, nextloc=4\n", "")
    code, out, err = run_cli(capsys, "run", "--lang", "extwhile", "--config",
                             "skip || nextloc=1, nextloc=2")
    assert code == 2 and "nextloc is given twice" in err


def test_incompatible_spec_language_exits_two(capsys):
    code, _, err = run_cli(capsys, "check-verif", "--lang", "fun",
                           "--spec", "fac")
    assert code == 2
    assert "language" in err


def test_star_check_corpus_spec_of_another_language_exits_two(capsys):
    # star-check reads --spec for its corpus only, and that corpus must
    # still be in the language of --lang.
    code, out, err = run_cli(capsys, "star-check", "--lang", "while",
                             "--spec", "msort", "--count", "1")
    assert code == 2 and out == ""
    assert err.strip() == ("error: spec 'msort' is for language "
                           "'extwhile', not 'while'")


def test_unknown_spec_exits_two(capsys):
    code, _, err = run_cli(capsys, "check-verif", "--lang", "while",
                           "--spec", "nope")
    assert code == 2


@pytest.mark.parametrize("lang,spec,param", [
    ("while", "fac", "abc"),
    ("while", "fac", "1"),  # fac takes only `none`
    ("extwhile", "msort", "0,9"),
])
def test_bad_param_value_exits_two(capsys, lang, spec, param):
    code, out, err = run_cli(capsys, "check-verif", "--lang", lang,
                             "--spec", spec, "--param", param, "--count", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: bad --param %r: " % param)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_exits_two(capsys, count):
    code, out, err = run_cli(capsys, "star-check", "--lang", "while",
                             "--count", count)
    assert code == 2 and out == ""
    assert err.strip() == "error: --count must be at least 1, got %s" % count


def test_empty_m_range_exits_two(capsys):
    code, out, err = run_cli(capsys, "check-verif", "--lang", "while",
                             "--spec", "fac", "--m", "3..1")
    assert code == 2 and out == ""
    assert err.strip() == "error: empty range '3..1'"


@pytest.mark.parametrize("argv,message", [
    (("--lang", "while", "--spec", "fac", "--m", "2,1,2"),
     "bad range '2,1,2': a value is given twice"),
    (("--lang", "extwhile", "--spec", "msort", "--param", "0,0"),
     "bad --param '0,0': a value is given twice"),
    (("--lang", "fun", "--spec", "mglist", "--param", "none, none"),
     "bad --param 'none, none': a value is given twice"),
], ids=["m", "param", "param-none"])
def test_a_value_given_twice_exits_two(capsys, argv, message):
    # `--param 0,0` checked every msort target twice: 54 configurations
    # against 27.
    code, out, err = run_cli(capsys, "check-verif", *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: " + message


@pytest.mark.parametrize("argv,message", [
    (("check-verif", "--lang", "fun", "--spec", "star", "--param", "2",
      "--count", "1"), "--param is not read by spec 'star'"),
    (("check-verif", "--lang", "while", "--spec", "none", "--param", "7",
      "--count", "1"), "--param is not read by spec 'none'"),
    (("star-check", "--lang", "while", "--param", "2", "--count", "2"),
     "--param is not read by spec 'star'"),
    (("check-verif", "--lang", "extwhile", "--spec", "msort", "--m", "1..3",
      "--count", "1"), "--m is not read by the 'msort' corpus"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--m", "2",
      "--count", "3"), "--count is not read by the 'fac' corpus"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--config",
      "x := 1", "--count", "5"),
     "--count is not read with --program or --config"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--state", "m=3"),
     "--state is not read without --program or --config"),
], ids=["star-param", "none-param", "star-check-param", "msort-m",
        "fac-count", "config-count", "state-alone"])
def test_flag_the_spec_or_corpus_does_not_read_exits_two(capsys, argv,
                                                          message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: " + message


@pytest.mark.parametrize("command", ["run", "derive"])
def test_run_and_derive_take_no_spec_flags(capsys, command):
    code, out, err = run_cli(capsys, command, "--lang", "while", "--config",
                             "x := 1", "--spec", "fac", "--param", "3")
    assert code == 2 and out == ""
    assert err.strip() == "error: --spec is not read by " + command
    code, _, err = run_cli(capsys, command, "--lang", "while", "--config",
                           "x := 1", "--param", "3")
    assert code == 2 and err.strip() == "error: --param is not read by " \
        + command


def test_program_file_with_state(capsys, tmp_path):
    path = tmp_path / "fac.while"
    path.write_text("fac := m ; while 1 < m do (m := m - 1 ; "
                    "fac := fac * m)\n")
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--program", str(path), "--state", "m=4")
    assert code == 0
    assert out.strip() == "fac=24, m=1"


def test_program_file_of_functions_with_a_call_and_state(capsys, tmp_path):
    path = tmp_path / "double.ew"
    path.write_text("fun double(a) returns (r) { r := a + a }\n")
    code, out, _ = run_cli(capsys, "run", "--lang", "extwhile",
                           "--program", str(path),
                           "--config", "call double(x; y)", "--state", "x=21")
    assert code == 0
    assert out.strip() == "x=21, y=42, nextloc=0"


def test_unreadable_program_file_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--lang", "while",
                             "--program", str(tmp_path / "missing.while"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ")


@pytest.mark.parametrize("argv,message", [
    (("run", "--lang", "nope", "--config", "x := 1"),
     "unknown language 'nope' (choose from extwhile, fun, while)"),
    (("run", "--lang", "while", "--config", "x := 1", "--depth", "-1"),
     "budget fields must be non-negative"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--m", "1..x"),
     "bad range '1..x': invalid literal for int() with base 10: 'x'"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--config",
      "x := := 1"),
     "parse error: expected identifier, found ':=' (at offset 5)"),
    (("run", "--lang", "while"), "run needs --program and/or --config"),
    (("check-verif", "--lang", "while"), "check-verif needs --spec"),
    (("run", "--lang", "extwhile", "--config",
      "skip || skip || skip || x=1"),
     "parse error: too many '||' sections"),
], ids=["unknown-lang", "negative-depth", "bad-range", "check-parse-error",
        "run-without-config", "check-without-spec", "extwhile-sections"])
def test_usage_error_exits_two_with_a_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: " + message


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: bigstep")


def test_comma_separated_m_range_checks_those_values(capsys):
    code, out, _ = run_cli(capsys, "check-verif", "--lang", "while",
                           "--spec", "fac", "--m", "1,2,5")
    assert code == 0
    size = len(bigstep.spec_lib.fac_corpus([1, 2, 5]))
    assert out.startswith("status: pass\ncorpus size: %d\n" % size)


def test_readme_common_flags_are_the_commands_options():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    sentence = text.split("Common flags: ", 1)[1].split(". ", 1)[0]
    common, check = ([item.split()[0] for item in re.findall(r"`([^`]+)`",
                                                              part)]
                     for part in sentence.split(";"))
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subparsers.choices.items():
        options = [opt for action in parser._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")]
        assert options == (common if name in ("run", "derive")
                           else common + check)


def test_check_verif_pass_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check-verif", "--lang", "while",
                           "--spec", "fac", "--m", "1..4",
                           "--depth", "64", "--samples", "16")
    assert code == 0
    assert "status: pass" in out


def test_check_verif_mutant_fails_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check-verif", "--lang", "while",
                           "--spec", "fac-bad", "--m", "1..4",
                           "--depth", "64", "--samples", "16")
    assert code == 1
    assert "counterexample" in out


def test_crosscheck_exits_zero_on_pass(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--lang", "while",
                           "--spec", "fac", "--m", "1..4",
                           "--depth", "256", "--samples", "16")
    assert code == 0


def test_star_check_loop_free_corpus(capsys):
    code, out, _ = run_cli(capsys, "star-check", "--lang", "while",
                           "--depth", "8", "--count", "20")
    assert code == 0
    assert "status: pass" in out


def test_derive_lists_results(capsys):
    code, out, _ = run_cli(capsys, "derive", "--lang", "fun",
                           "--config", "1 :: 2 :: nil", "--depth", "16")
    assert code == 0
    assert out.strip() == "(1 :: (2 :: nil))"


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ("check-verif", "--lang", "extwhile", "--spec", "msort",
            "--count", "3", "--depth", "256", "--seed", "7",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == "2"
    assert set(doc) >= {"status", "counterexamples", "stats", "budget",
                        "traces", "terms"}


# The README's command-line examples with `--format json`, the SHA-256 of
# each one's output, and the SHA-256 its schema 1 output had, recorded
# before nodes cached their hashes: neither the hash seed nor how hashes are
# computed may change what a user sees.  Schema 2 added the `traces` and
# `terms` tables and changed nothing else in these documents.
README_JSON_DIGESTS = [
    (("run", "--lang", "while", "--config",
      "fac := m ; while 1 < m do (m := m - 1 ; fac := fac * m)",
      "--state", "m=5"),
     "faa56e8834a80565ba65b9c98e7aa31541862940b08f9c347ded13c7c828d388",
     "5d93014518cf89e5b2eefd99b3b17954181618fe5bed080fc5808e6fe01e2c1d"),
    (("derive", "--lang", "fun", "--config", "1 :: 2 :: nil"),
     "acbb03161995581047570a74c0aff7a331cbae6c23c6c8aecbc16a4fd3bde16e",
     "ff76fc707bfaae5da4e297bccc48df75c9171215cd85bb819c04fee01911653e"),
    (("check-verif", "--lang", "while", "--spec", "fac", "--m", "1..6"),
     "07c1c50143205fbf8e867bad1b81489f5cda3d052816405ffb4f109518dc81a7",
     "a56e6257650bcf726b3c75348863bce9eb797b434ee5f9a0e7a8a80f829f3ef3"),
    (("check-verif", "--lang", "extwhile", "--spec", "msort", "--count", "8",
      "--depth", "512"),
     "c0e4f04c1d6971074008091b479e54b3381376c154f6779b6db3d662f60d0277",
     "0d244bab300d6e3f3387ef9ad569d6fea4e3ca82498c69f2ba5157f12f5bf7e6"),
    (("crosscheck", "--lang", "fun", "--spec", "mglist", "--count", "6",
      "--depth", "512"),
     "666f8f94395b2c8b70d75b16f67d265f7dca0c78b8833de3e3dba1455ca419c3",
     "a39a8b919ab7a4046c189e4851f29f4112a18163c84b643345b056b05dfd141e"),
    # Built from a generated While corpus, so it moves when the generator's
    # While draws do.
    (("star-check", "--lang", "while", "--depth", "8", "--count", "50"),
     "745cd058059831c5ea32f8942a2fd78f2ee56a1ca9defba4ef26fc2d2c68cf3c",
     "679708eb07231fa89c16a075b4ae543a9864b498bef31f459add63fd9f635acc"),
]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_readme_json_output_is_byte_identical_across_hash_seeds(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    for argv, digest, _ in README_JSON_DIGESTS:
        proc = subprocess.run(
            [sys.executable, "-m", "bigstep", *argv, "--format", "json"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr.decode())
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


def test_counterexample_tables_are_byte_identical_across_hash_seeds():
    # The README's examples all pass, so their `traces` and `terms` are
    # empty; these tables fill in the order the report meets terms.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bigstep.__file__)))
    argv = ("check-verif", "--lang", "fun", "--spec", "mglist-len",
            "--count", "3", "--depth", "512", "--format", "json")
    outs = []
    for hash_seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "bigstep", *argv],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            capture_output=True, timeout=120)
        assert proc.returncode == 1, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["counterexamples"] and doc["traces"] and doc["terms"]


def test_report_prints_each_term_once_in_either_format(capsys, monkeypatch):
    # The text lines are read off the JSON document: no format prints a
    # term that the document's `terms` table does not hold.
    fun = bigstep.PLUGINS["fun"]
    calls = []

    def pretty(value, texts=None):
        calls.append(value)
        return fun.pretty(value, texts)

    monkeypatch.setattr(bigstep.cli, "PLUGINS", dict(
        bigstep.PLUGINS, fun=dataclasses.replace(fun, pretty=pretty)))
    argv = ("check-verif", "--lang", "fun", "--spec", "mglist-len",
            "--count", "3", "--depth", "512", "--format")
    outs, counts = {}, {}
    for fmt in ("json", "text"):
        calls.clear()
        code, outs[fmt], _ = run_cli(capsys, *argv, fmt)
        assert code == 1
        counts[fmt] = len(calls)
    assert len(json.loads(outs["json"])["terms"]) == 180
    assert counts == {"json": 180, "text": 180}
    # The bytes of both formats as they were when the text lines called
    # `pretty` themselves, except that the JSON traces now print a negative
    # literal argument in parentheses.
    assert {fmt: hashlib.sha256(out.encode()).hexdigest()
            for fmt, out in outs.items()} == {
        "json":
            "be8326701cca42545f8ca3ca493c1db4c392505031a5be96c0fcdf7190e8c71a",
        "text":
            "5649bd0559be8cd3d91f414e03a5d313d9672f4bb1479b1c2dc01a5156208622"}


def test_readme_json_output_without_the_tables_is_schema_1(capsys):
    for argv, digest, schema_1_digest in README_JSON_DIGESTS:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        doc = json.loads(out)
        doc.pop("traces", None)
        doc.pop("terms", None)
        doc["schema_version"] = "1"
        old = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(old.encode()).hexdigest() == schema_1_digest, \
            argv


def test_environment_variables_override_budget(capsys, monkeypatch):
    monkeypatch.setenv("BIGSTEP_DEPTH", "5")
    code, _, _ = run_cli(capsys, "run", "--lang", "while",
                         "--config", "while true do skip")
    assert code == 4  # the env depth kicked in
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--config", "x := 1", "--format", "json")
    assert json.loads(out)["budget"]["depth"] == 5
    monkeypatch.setenv("BIGSTEP_DEPTH", "banana")
    code, _, err = run_cli(capsys, "run", "--lang", "while",
                           "--config", "x := 1")
    assert code == 2


@pytest.mark.parametrize("variable", ["BIGSTEP_DEPTH", "BIGSTEP_SAMPLES"])
def test_bad_environment_budget_exits_two_naming_the_variable(
        capsys, monkeypatch, variable):
    monkeypatch.setenv(variable, "banana")
    code, out, err = run_cli(capsys, "run", "--lang", "while",
                             "--config", "x := 1")
    assert code == 2 and out == ""
    assert err.strip() == "error: bad %s 'banana': not an integer" % variable
    # A flag overrides the variable, which is then not read.
    flag = "--depth" if variable == "BIGSTEP_DEPTH" else "--samples"
    code, out, _ = run_cli(capsys, "run", "--lang", "while",
                           "--config", "x := 1", flag, "3")
    assert code == 0 and out.strip() == "x=1"


def test_parser_is_built_once_and_reads_the_environment_per_call(
        capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    for depth in ("7", "9"):
        monkeypatch.setenv("BIGSTEP_DEPTH", depth)
        _, out, _ = run_cli(capsys, "run", "--lang", "while",
                            "--config", "x := 1", "--format", "json")
        assert json.loads(out)["budget"]["depth"] == int(depth)


def test_param_flag_restricts_the_checked_domain(capsys):
    # Restricted to a parameter value that never matches the corpus, every
    # entry is unconstrained and the check passes vacuously.
    code, out, _ = run_cli(capsys, "check-verif", "--lang", "extwhile",
                           "--spec", "msort", "--count", "2",
                           "--depth", "256", "--param", "2", "--seed", "3",
                           "--format", "json")
    assert code in (0, 1)
    assert json.loads(out)["budget"]["seed"] == 3
