"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds public functions and methods of each layer
(``wreath``, ``subgroups``, ``realization``, ``configuration``, ``cli``)
to wrappers that count calls and accumulate inclusive and self time per
name.  A function is rebound under every name a configforge module holds
it by, so ``realization.analyze`` and ``cli.analyze`` are traced too.
Aggregates stay in memory; ``per_layer`` turns them into per-op metrics
at the end of the run.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

# (span name, owner, attribute); owner is "module" or "module.Class"
TARGETS = (
    ("wreath.mul", "wreath.WreathElement", "__mul__"),
    ("wreath.inverse", "wreath.WreathElement", "inverse"),
    ("wreath.conj", "wreath.ConjugationAut", "__call__"),
    ("wreath.init", "wreath.WreathElement", "__init__"),
    ("wreath.pow", "wreath.WreathElement", "__pow__"),
    ("wreath.classify", "wreath", "classify_centralizer"),
    ("wreath.cyclic_gen", "wreath", "cyclic_centralizer_generator"),
    ("subgroups.analyze", "subgroups", "analyze"),
    ("subgroups.sample", "subgroups", "sample"),
    ("subgroups.member", "subgroups.SubgroupSpec", "member"),
    ("subgroups.spec_build", "subgroups.SubgroupSpec", "__init__"),
    ("subgroups.spec_build", "subgroups.SubgroupSpec", "intersect"),
    ("realization.realize", "realization", "realize"),
    ("realization.intersection_spec", "realization", "intersection_spec"),
    ("realization.subset_checks", "realization", "subset_checks"),
    ("realization.fixed_subgroup", "realization", "fixed_subgroup"),
    ("realization.cert_from_json", "realization.RealizationCertificate", "from_json"),
    ("configuration.from_json", "configuration.Configuration", "from_json"),
    ("cli.json_dump", "cli", "_dump_json"),
    ("cli.json_load", "cli", "_load_json"),
)
COMPONENT_CLASSES = {"Trivial": "trivial", "FullFactor": "fullfactor",
                     "Cyclic": "cyclic", "BaseNotFG": "basenotfg"}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # conj_trivial, analyze_misses, components_*
        self.maxima: Counter = Counter()  # max_support, max_abs_shift, max_m
        self.import_s: list[float] = []
        self._stack = [0.0]
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _record(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += elapsed
        self.calls[name] += 1
        self.incl_s[name] += elapsed
        self.self_s[name] += elapsed - child

    def reset_stack(self) -> None:
        """Drop open spans, after an op was interrupted mid-call."""
        self._stack = [0.0]

    def wrap(self, name: str, fn):
        record, clock = self._record, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    self._stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        record(name, clock() - t0)
                    yield item
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, clock() - t0)
        return wrapper

    def _probed(self, name: str, fn):
        """Wrapper for ``name`` plus the counters measured at that boundary."""
        traced = self.wrap(name, fn)
        counts, maxima = self.counts, self.maxima
        if name == "wreath.conj":
            def conj(aut, x):
                if aut.conjugator.is_identity or x.is_identity:
                    counts["conj_trivial"] += 1
                return traced(aut, x)
            return conj
        if name == "wreath.init":
            def init(element, *args, **kwargs):
                traced(element, *args, **kwargs)
                if len(element.base) > maxima["max_support"]:
                    maxima["max_support"] = len(element.base)
                if abs(element.shift) > maxima["max_abs_shift"]:
                    maxima["max_abs_shift"] = abs(element.shift)
            return init
        if name == "subgroups.analyze":
            info = fn.cache_info

            def analyze(spec):
                misses = info().misses
                reports = traced(spec)
                if info().misses != misses:
                    counts["analyze_misses"] += 1
                    maxima["max_m"] = max(maxima["max_m"], spec.m)
                    for report in reports:
                        counts["components_" + COMPONENT_CLASSES[report.classification]] += 1
                return reports
            analyze.cache_clear = fn.cache_clear
            analyze.cache_info = fn.cache_info
            return analyze
        return traced

    # -- installing --------------------------------------------------------------

    def install(self, cf) -> None:
        for name, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(".")
            module = getattr(cf, module_name)
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._probed(name, raw.__func__))
                else:
                    replacement = self._probed(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._probed(name, original)
            for mod in cf.modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- exchange with traced child processes -------------------------------------

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s,
                "counts": self.counts, "maxima": self.maxima, "import_s": self.import_s}

    def merge(self, data: dict) -> None:
        for key in ("calls", "self_s", "incl_s", "counts"):
            table = getattr(self, key)
            for name, value in data[key].items():
                table[name] += value
        for name, value in data["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)
        self.import_s.extend(data["import_s"])


def per_layer(tracer: Tracer, traced_ops: list[float], untraced_ops: list[float],
              cert_sizes: list[int], kernel_ns: dict) -> dict:
    """Per-layer metric values: calls and self time per op, counters per
    op, ratios with their base, maxima, kernel times and trace overhead.

    Both op lists come from the same seed, so their first ops share
    inputs and the overhead compares like with like.
    """
    ops, op_s = max(len(traced_ops), 1), sum(traced_ops) or 1.0
    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}_calls"] = tracer.calls[name] / ops
        out[f"{name}_s"] = tracer.self_s[name] / ops
    for name in ["analyze_misses"] + [f"components_{c}" for c in COMPONENT_CLASSES.values()]:
        out[f"subgroups.{name}"] = tracer.counts[name] / ops
    conj_calls = tracer.calls["wreath.conj"]
    out["wreath.conj_trivial_ratio"] = tracer.counts["conj_trivial"] / conj_calls if conj_calls else 0.0
    analyze_calls = tracer.calls["subgroups.analyze"]
    out["subgroups.analyze_hit_ratio"] = (1 - tracer.counts["analyze_misses"] / analyze_calls
                                          if analyze_calls else 0.0)
    out["wreath.classify_share"] = tracer.incl_s["wreath.classify"] / op_s
    checks_s = tracer.incl_s["realization.subset_checks"]
    out["subgroups.sample_member_share"] = ((tracer.incl_s["subgroups.sample"]
                                             + tracer.incl_s["subgroups.member"]) / checks_s
                                            if checks_s else 0.0)
    out["wreath.max_support"] = tracer.maxima["max_support"]
    out["wreath.max_abs_shift"] = tracer.maxima["max_abs_shift"]
    out["subgroups.max_m"] = tracer.maxima["max_m"]
    out["cli.import_s"] = statistics.median(tracer.import_s)
    out["cli.cert_bytes"] = statistics.mean(cert_sizes) if cert_sizes else 0.0
    for name, ns in kernel_ns.items():
        out[f"wreath.{name}_ns"] = ns
    out["trace.ops_per_s"] = len(traced_ops) / op_s
    common = min(len(traced_ops), len(untraced_ops))
    out["trace.overhead"] = (sum(traced_ops[:common]) / sum(untraced_ops[:common])
                             if common else 0.0)
    return out
