"""Run one `tlsphonon` CLI command with spans around each layer's public calls.

    python3 perfbench/traced_cli.py SPANS_JSON -- <tlsphonon arguments>

Behaves like ``python -m tlsphonon.cli <arguments>`` (same output, same exit
code) but first wraps the public functions listed in ``TARGETS`` wherever a
``tlsphonon`` module has bound them; a module imported later, for instance
lazily inside a command, is wrapped as soon as it has loaded. Every call
records a span (name, parent, start, end) in memory; at exit the spans, a
few counts read off return values and the targets never found go to
SPANS_JSON. Nothing in the program itself is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

# (module, function) pairs whose calls are timed. The order is irrelevant.
TARGETS = (
    ("tlsphonon.cli", "cmd_model"),
    ("tlsphonon.cli", "cmd_synth"),
    ("tlsphonon.cli", "cmd_fit"),
    ("tlsphonon.cli", "cmd_report"),
    ("tlsphonon.config", "load_config"),
    ("tlsphonon.synth", "plan_acquisitions"),
    ("tlsphonon.synth", "run_acquisition"),
    ("tlsphonon.synth", "bin_traces"),
    ("tlsphonon.dataset", "write_trace"),
    ("tlsphonon.dataset", "write_manifest"),
    ("tlsphonon.dataset", "load_dataset"),
    ("tlsphonon.pipeline", "run_fit_pipeline"),
    ("tlsphonon.pipeline", "render_report_table"),
    ("tlsphonon.fitting", "fit_lorentzian"),
    ("tlsphonon.fitting", "fit_saturation"),
    ("tlsphonon.fitting", "fit_saturation_shared"),
    ("tlsphonon.fitting", "fit_powerlaw"),
    ("tlsphonon.fitting", "fit_gamma0_decomposition"),
    ("tlsphonon.fitting", "extract_times"),
    ("tlsphonon.fitting", "compare_freq_shift"),
    ("tlsphonon.dissipation", "total_linewidth"),
    ("tlsphonon.dissipation", "critical_intensity"),
)


def _count_load_errors(result, counts):
    # load_dataset returns (entry, trace, error) triples
    counts["dataset.load_errors"] = counts.get("dataset.load_errors", 0) + sum(
        1 for item in result if item[2] is not None)


def _count_fit_units(result, counts):
    counts["pipeline.fit_units"] = counts.get("pipeline.fit_units", 0) + result.n_fit_units
    counts["pipeline.fit_units_failed"] = (counts.get("pipeline.fit_units_failed", 0)
                                           + result.n_failures)


OBSERVERS = {
    "dataset.load_dataset": _count_load_errors,
    "pipeline.run_fit_pipeline": _count_fit_units,
}


class Tracer:
    """Spans as [name index, parent id, start ns, end ns]; id = list position."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counts = {}
        self.wrapped = {}  # (module, function) -> (original, wrapper)

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextlib.contextmanager
    def span(self, name):
        record = [self._name_index(name), self.stack[-1], time.perf_counter_ns(), 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, fn, name):
        index = self._name_index(name)
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced

    def install(self):
        """Wrap each target of a loaded module once, then replace every binding
        of an original in the loaded tlsphonon modules by its wrapper."""
        for module_name, attr in TARGETS:
            if (module_name, attr) in self.wrapped:
                continue
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                self.wrapped[module_name, attr] = (
                    original, self.wrap(original, f"{module_name.split('.')[-1]}.{attr}"))
        swap = {id(original): (original, traced) for original, traced in self.wrapped.values()}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "tlsphonon" or name.startswith("tlsphonon.")):
                continue
            for key, value in list(vars(module).items()):
                pair = swap.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])

    def unwrapped(self):
        return [f"{m}.{a}" for m, a in TARGETS if (m, a) not in self.wrapped]

    def dump(self, path):
        doc = {"names": self.names, "spans": self.spans, "counts": self.counts,
               "unwrapped": self.unwrapped()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class InstallAfterImport(importlib.abc.MetaPathFinder):
    """Re-run ``Tracer.install`` each time a tlsphonon module finishes loading."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith("tlsphonon."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_then_install(module):
            exec_module(module)
            self.tracer.install()

        spec.loader.exec_module = exec_then_install
        return spec


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <tlsphonon arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import tlsphonon.cli as cli
        tracer.install()
        sys.meta_path.insert(0, InstallAfterImport(tracer))
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
