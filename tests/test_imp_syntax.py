"""The imperative front end While and ExtWhile share: one set of syntax
classes, one grammar read with each language's lexicon, and one printer
whose output parses back to the same text."""

from dataclasses import fields

import pytest

from bigstep import imp_syntax, lang_extwhile, lang_while
from bigstep.random_programs import loop_free_corpus, random_corpus
from bigstep.syntax import Node, ParseError

# While's syntax names and the ExtWhile names they must be.
WHILE_SYNTAX = {
    "ANum": "ANum", "AVar": "AName", "ABin": "ABin",
    "BBool": "BBool", "BCmp": "BCmp", "BAnd": "BAnd", "BNot": "BNot",
    "Skip": "Skip", "Assign": "Assign", "Seq": "Seq", "If": "If",
    "While": "While",
}


@pytest.mark.parametrize("while_name,ext_name", sorted(WHILE_SYNTAX.items()))
def test_while_syntax_is_extwhile_syntax(while_name, ext_name):
    assert getattr(lang_while, while_name) is getattr(lang_extwhile, ext_name)
    assert getattr(lang_while, while_name) is getattr(imp_syntax, ext_name)


def test_while_declares_no_syntax_grammar_or_printer_of_its_own():
    own = {name: value for name, value in vars(lang_while).items()
           if getattr(value, "__module__", None) == lang_while.__name__}
    assert not [n for n in own if n.startswith(("_parse_", "print_"))]
    assert {n for n, v in own.items()
            if isinstance(v, type) and issubclass(v, Node)} == {
        "WhileState", "WhileConfig"}


def test_a_while_node_hashes_as_its_fields():
    # The shared classes keep hash-ordered containers in the old order.
    assert hash(lang_while.AVar("x")) == hash(("x",))
    assert lang_while.AVar("x") == lang_extwhile.AName("x")


@pytest.mark.parametrize("src,expected", [
    ("var := 1", imp_syntax.Assign("var", imp_syntax.ANum(1))),
    ("call := var + 1", imp_syntax.Assign(
        "call", imp_syntax.ABin("+", imp_syntax.AName("var"),
                                imp_syntax.ANum(1)))),
    ("array := 2 ; fun := array",
     imp_syntax.Seq(imp_syntax.Assign("array", imp_syntax.ANum(2)),
                    imp_syntax.Assign("fun", imp_syntax.AName("array")))),
])
def test_while_reads_extwhile_keywords_as_identifiers(src, expected):
    assert lang_while.parse_stmt(src) == expected


@pytest.mark.parametrize("src", [
    "x := y / 2", "A[0] := 1", "var x", "array A[2]", "call f(x; y)",
    "if x <= y then skip else skip", "x := A[0]",
])
def test_while_rejects_extwhile_only_forms(src):
    with pytest.raises(ParseError):
        lang_while.parse_stmt(src)


def test_extwhile_reads_the_same_words_as_keywords():
    assert lang_extwhile.parse_stmt("var x") == imp_syntax.VarDecl("x")
    with pytest.raises(ParseError):
        lang_extwhile.parse_stmt("var := 1")


def _nodes(root):
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            yield x
            stack.extend(getattr(x, f.name) for f in fields(x))


def test_generated_while_programs_stay_within_the_while_lexicon():
    seen = set()
    for config in random_corpus("while", 500, 1) + loop_free_corpus(
            "while", 300, 0):
        for node in _nodes(config.stmt):
            seen.add(type(node))
            assert not isinstance(node, (
                imp_syntax.AIdx, imp_syntax.ArrAssign, imp_syntax.VarDecl,
                imp_syntax.ArrDecl, imp_syntax.Call)), config
            assert not (isinstance(node, imp_syntax.ABin)
                        and node.op == "/"), config
    # Every other form is still drawn, except the boolean literals, which
    # the shared grammar never draws (test_while covers them by hand).
    assert {t.__name__ for t in seen} == {
        "ANum", "AName", "ABin", "BCmp", "BAnd", "BNot",
        "Skip", "Assign", "Seq", "If", "While"}


def _generated(language):
    return ([c.stmt for c in random_corpus(language, 300, 11)]
            + [c.stmt for c in loop_free_corpus(language, 300, 11)])


@pytest.mark.parametrize("module", [lang_while, lang_extwhile],
                         ids=["while", "extwhile"])
def test_printed_generated_programs_parse_back_to_the_same_text(module):
    # Text, not structure: `a ; b ; c` parses right-nested whatever the
    # printed nesting, so a left-nested Seq re-associates.
    language = module.PLUGIN.name
    for stmt in _generated(language):
        text = imp_syntax.print_stmt(stmt)
        assert imp_syntax.print_stmt(module.parse_stmt(text)) == text, text
