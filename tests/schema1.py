"""Schema 1's nested report layout, rebuilt from schema 2's flat tables.

Schema 2 lists each printed term once in `terms` and each trace node once
in `traces`, children first; schema 1 nested every trace in its
counterexample, each premise as {"config", "result", "via", "sub"}.
`expand` shows that only the layout changed: the expanded document of a
report serializes to the bytes schema 1 gave.
"""


def expand(doc: dict) -> dict:
    """`doc` (a `CheckReport.to_dict` result, schema 2) in schema 1's
    layout.  Raises AssertionError if a trace refers forward."""
    terms = doc["terms"]
    nested: list = []
    for i, t in enumerate(doc["traces"]):
        premises = []
        for config, result, sub in t["premises"]:
            assert sub is None or 0 <= sub < i, (i, sub)
            premises.append({
                "config": terms[config],
                "result": terms[result],
                "via": "sampled" if sub is None else "inferred",
                "sub": None if sub is None else nested[sub],
            })
        nested.append({"config": terms[t["config"]],
                       "result": terms[t["result"]],
                       "rule_index": t["rule_index"],
                       "premises": premises})
    out = {k: v for k, v in doc.items() if k not in ("traces", "terms")}
    out["counterexamples"] = [
        dict(cx, trace=None if cx["trace"] is None else nested[cx["trace"]])
        for cx in doc["counterexamples"]]
    return out
