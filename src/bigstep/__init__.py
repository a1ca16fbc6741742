"""A language-independent verification workbench for big-step semantics.

Languages plug in as enumerable semantic rules; specifications supply
auxiliary information at loops and recursive calls; the engine checks
validity and verification conditions empirically and refutes bad
specifications with replayable counterexample traces.
"""

from .kernel import (
    BUDGET_CUT,
    BUDGET_EXHAUSTED,
    CheckReport,
    Conclude,
    Constrained,
    Counterexample,
    FAIL,
    InferTrace,
    LanguagePlugin,
    Need,
    PASS,
    PRECONDITION_FAILED,
    PremiseStep,
    SampleBudget,
    Specification,
    UNIVERSE,
    check_soundness_crosscheck,
    check_valid,
    check_verif,
    derive_all,
    derive_one,
    infer_results,
    replay_trace,
    seeded_rng,
    spec_refines,
    star_spec,
    trivial_spec,
)
from . import lang_extwhile, lang_fun, lang_while, spec_lib

PLUGINS = {
    "while": lang_while.PLUGIN,
    "extwhile": lang_extwhile.PLUGIN,
    "fun": lang_fun.PLUGIN,
}

__all__ = [
    "BUDGET_CUT", "BUDGET_EXHAUSTED", "CheckReport", "Conclude",
    "Constrained", "Counterexample", "FAIL", "InferTrace", "LanguagePlugin",
    "Need", "PASS", "PRECONDITION_FAILED", "PLUGINS", "PremiseStep",
    "SampleBudget", "Specification", "UNIVERSE",
    "check_soundness_crosscheck", "check_valid", "check_verif",
    "derive_all", "derive_one", "infer_results", "lang_extwhile",
    "lang_fun", "lang_while", "replay_trace", "seeded_rng", "spec_lib",
    "spec_refines", "star_spec", "trivial_spec",
]
