"""Per-layer tracing from outside the program.

Nothing under ``src/`` is changed: the tracer wraps the public callables
the kernel is handed (plugin rules and their ``Need.rest`` continuations,
``parse_config``, ``pretty``, ``Specification.at`` and the ``sample`` /
``contains`` of each ``Constrained`` set it returns), the kernel entry
points the benchmark calls, and, for CLI-driven ops, the entries that
``bigstep.cli`` looks up at run time.

Spans nest on one stack.  A layer's self time is the duration of its spans
minus the part covered by child spans; spans are aggregated per key as they
close instead of being stored, because hot layers open millions of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter, defaultdict
from dataclasses import replace

from bigstep import cli, kernel, spec_lib
from bigstep.kernel import Constrained, Need, Specification
from layers import KERNEL_ENTRIES


def render_report(plugin, report, **extra) -> str:
    """The JSON document a library op emits for its verdict."""
    doc = dict(report.to_dict(plugin), **extra)
    return json.dumps(doc, sort_keys=True, indent=2)


class Plain:
    """The program's entry points, unwrapped (tracing off)."""

    def __init__(self):
        for name in KERNEL_ENTRIES + ("star_spec",):
            setattr(self, name, getattr(kernel, name))
        self.render_report = render_report
        self.cli_main = cli.main
        self.plugins = dict(cli.PLUGINS)
        self.reports: list = []

    def spec(self, spec: Specification) -> Specification:
        return spec

    def run_cli(self, argv):
        """Run `bigstep ARGV` in-process.

        Returns the exit code, everything printed to stdout, and the
        CheckReports the command's checker returned.
        """
        self.reports = []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli_main(argv)
        return code, buf.getvalue(), self.reports

    def install(self):
        """Swap entries into the module globals the CLI reads at run time.

        Returns the function that restores them.
        """
        saved = []
        for module, name, value in self._cli_swaps():
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)

        def undo():
            for module, name, value in reversed(saved):
                setattr(module, name, value)

        return undo

    def _cli_swaps(self):
        return [(cli, "check_verif", self._capture(cli.check_verif))]

    def _capture(self, checker):
        def captured(*args, **kwargs):
            report = checker(*args, **kwargs)
            self.reports.append(report)
            return report

        return captured


class Tracer(Plain):
    """The same entry points, wrapped to record spans and counts."""

    def __init__(self):
        super().__init__()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list = []
        self.configs: set = set()
        self.stats: Counter = Counter()
        self.plugins = {name: self.plugin(plugin)
                        for name, plugin in cli.PLUGINS.items()}
        for name in KERNEL_ENTRIES:
            setattr(self, name, self.entry(name, getattr(kernel, name)))
        self.render_report = self.span("render", render_report)
        self.cli_main = self.span("render", cli.main)

    def span(self, key, fn):
        """`fn` wrapped so that each call is one span of `key`."""
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter
        calls = key + ".calls"

        def wrapped(*args, **kwargs):
            counts[calls] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapped

    def reset_stack(self):
        """Drop spans left open by an op that died mid-span.

        A RecursionError can strike inside a wrapper's own bookkeeping, so
        the stack is re-rooted before every op.
        """
        self.stack.clear()

    def entry(self, name, fn):
        timed = self.span("kernel." + name, fn)
        stats = self.stats

        def traced(*args, **kwargs):
            out = timed(*args, **kwargs)
            if isinstance(out, kernel.CheckReport):
                stats["configs_checked"] += out.stats["configs_checked"]
                stats["results_inferred"] += out.stats["results_inferred"]
            return out

        return traced

    def plugin(self, plugin):
        stack, counts, configs, self_s = (self.stack, self.counts,
                                          self.configs, self.self_s)
        clock = time.perf_counter
        rules, rest_span = plugin.rules, self.span

        def wrap(app):
            if isinstance(app, Need):
                return Need(app.premise, wrap_rest(app.rest))
            return app

        def wrap_rest(rest):
            timed = rest_span("lang.rest", rest)

            def traced(result):
                out = timed(result)
                return None if out is None else wrap(out)

            return traced

        def traced_rules(gamma):
            counts["lang.rules.calls"] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                apps = rules(gamma)
            finally:
                t1 = clock()
                self_s["lang.rules"] += t1 - t0 - stack.pop()
            # Bookkeeping (hashing gamma, wrapping continuations) is charged
            # to the tracer, not to the caller's self time.
            counts["lang.rules.apps"] += len(apps)
            configs.add(gamma)
            apps = [wrap(a) for a in apps]
            t2 = clock()
            self_s["trace"] += t2 - t1
            if stack:
                stack[-1] += t2 - t0
            return apps

        return replace(plugin, rules=traced_rules,
                       parse_config=self.span("parse", plugin.parse_config),
                       pretty=self.span("render.pretty", plugin.pretty))

    def spec(self, spec: Specification) -> Specification:
        timed_at = self.span("spec.at", spec.at)
        counts, span = self.counts, self.span

        def counted_sample(sample):
            timed = span("spec.sample", sample)

            def traced(budget):
                out = timed(budget)
                counts["spec.sample.candidates"] += len(out)
                return out

            return traced

        def traced_at(param, gamma):
            sset = timed_at(param, gamma)
            if isinstance(sset, Constrained):
                counts["spec.at.constrained"] += 1
                return Constrained(span("spec.contains", sset.contains),
                                   counted_sample(sset.sample), sset.describe)
            return sset

        return Specification(spec.param_domain, traced_at)

    def _cli_swaps(self):
        swaps = [(cli, "PLUGINS", self.plugins),
                 (spec_lib, "SPECS", {
                     name: (lang, self._spec_factory(factory))
                     for name, (lang, factory) in spec_lib.SPECS.items()})]
        swaps += [
            (cli, "check_verif",
             self._capture(self.entry("check_verif", cli.check_verif))),
            (cli, "derive_all", self.entry("derive_all", cli.derive_all))]
        swaps += [(spec_lib, name,
                   self.span("setup.corpus", getattr(spec_lib, name)))
                  for name in ("fac_corpus", "msort_corpus", "mglist_corpus")]
        return swaps

    def _spec_factory(self, factory):
        return lambda: self.spec(factory())
