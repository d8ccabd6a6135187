"""Spans and counters for a traced benchmark run, kept in memory.

The tracer wraps public functions of the tetraflows modules and five
``Polynomial`` methods from outside the package; ``src/`` is not changed.
A wrapped module function is replaced in every tetraflows namespace that
holds it (``analysis.gamma1`` and ``cli.gamma1`` as well as
``graphflow.gamma1``), so calls made inside the package are seen too.
Wrappers exist only between ``install`` and ``uninstall``.

Each call to a module function records a span (pass, id, parent, name,
start, end).  Calls to the polynomial kernel are many (tens of thousands per
pass), so they keep only aggregate counters, but their time
is still subtracted from the caller's self time.  A layer's self time is its
calls' durations minus the durations of the wrapped calls they made; the
time the wrappers spend counting is excluded from both.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

# Module functions that get a span: (layer name, module, attribute).
FUNCTIONS = (
    ("graphflow.gamma1", "graphflow", "gamma1"),
    ("graphflow.gamma2", "graphflow", "gamma2"),
    ("graphflow.evaluate_kgraph", "graphflow", "evaluate_kgraph"),
    ("multivector.schouten", "multivector", "schouten"),
    ("multivector.jacobiator", "multivector", "jacobiator"),
    ("multivector.is_poisson", "multivector", "is_poisson"),
    ("generators.build_bivector", "generators", "build_bivector"),
    ("analysis.compat_report", "analysis", "compat_report"),
    ("analysis.find_ratios", "analysis", "find_ratios"),
    ("analysis.perturb_probe", "analysis", "perturb_probe"),
    ("analysis.reproduce_tables", "analysis", "reproduce_tables"),
    ("cli.main", "cli", "main"),
)

# Polynomial methods that keep aggregate counters only: (layer name, attribute).
KERNEL = (
    ("polyring.mul", "__mul__"),
    ("polyring.add", "__add__"),
    ("polyring.diff", "diff"),
    ("polyring.parse", "parse"),
    ("polyring.render", "render"),
)

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = {
    "polyring.mul.calls": "count",
    "polyring.mul.self_s": "s",
    "polyring.mul.term_pairs": "count",
    "polyring.mul.out_terms_max": "count",
    "polyring.mul.merge_ratio": "ratio",
    "polyring.mul.fraction_calls": "count",
    "polyring.add.calls": "count",
    "polyring.add.self_s": "s",
    "polyring.add.terms_copied": "count",
    "polyring.diff.calls": "count",
    "polyring.diff.self_s": "s",
    "polyring.parse.self_s": "s",
    "polyring.render.self_s": "s",
    "graphflow.gamma1.self_s": "s",
    "graphflow.gamma1.out_terms": "count",
    "graphflow.gamma2.self_s": "s",
    "graphflow.gamma2.out_terms": "count",
    "graphflow.evaluate_kgraph.self_s": "s",
    "multivector.schouten.calls": "count",
    "multivector.schouten.self_s": "s",
    "multivector.jacobiator.calls": "count",
    "multivector.jacobiator.self_s": "s",
    "generators.build_bivector.self_s": "s",
    "analysis.compat_report.self_s": "s",
    "analysis.find_ratios.self_s": "s",
    "analysis.perturb_probe.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


def _has_fraction(terms) -> bool:
    return any(isinstance(c, Fraction) for c in terms.values())


def _count_mul(stats, args, result):
    a, b = args
    if result is NotImplemented:
        return
    if hasattr(b, "terms"):
        pairs = len(a.terms) * len(b.terms)
        frac = _has_fraction(a.terms) or _has_fraction(b.terms)
    else:  # a scalar factor
        pairs = len(a.terms)
        frac = isinstance(b, Fraction) or _has_fraction(a.terms)
    out = len(result.terms)
    stats["term_pairs"] += pairs
    stats["out_terms"] += out
    stats["out_terms_max"] = max(stats["out_terms_max"], out)
    stats["fraction_calls"] += frac


def _count_add(stats, args, result):
    # The kernel copies the left operand's terms when neither side is zero.
    a, b = args
    if result is not NotImplemented and a.terms and b.terms:
        stats["terms_copied"] += len(a.terms)


def _count_flow(stats, args, result):
    stats["out_terms"] += sum(len(p.terms) for row in result.raw.entries for p in row)


COUNTERS = {
    "polyring.mul": _count_mul,
    "polyring.add": _count_add,
    "graphflow.gamma1": _count_flow,
    "graphflow.gamma2": _count_flow,
}


class Tracer:
    """Wraps the package's layers and accumulates per-pass statistics."""

    def __init__(self):
        self.pass_id = 0
        self.stats = defaultdict(lambda: defaultdict(float))  # layer -> quantity -> value
        self.spans: list = []  # (pass, id, parent, name, start, end)
        self._child = []  # per open call: time spent in wrapped callees
        self._open = []  # ids of the open spans
        self._patches = []  # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool):
        clock = time.perf_counter
        child = self._child
        open_ids = self._open
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if record:
                span_id = len(self.spans) + len(open_ids)
                parent = open_ids[-1] if open_ids else None
                open_ids.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stats = self.stats[name]
                stats["calls"] += 1
                stats["self_s"] += end - start - child.pop()
                if child:  # the caller's self time excludes this call
                    child[-1] += end - start
                if record:
                    open_ids.pop()
                    self.spans.append((self.pass_id, span_id, parent, name, start, end))
            if count is not None:
                count(stats, args, result)
                if child:  # and the time spent counting it
                    child[-1] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, tf) -> None:
        """Wrap every layer in every loaded tetraflows namespace."""
        modules = [
            m
            for n, m in sys.modules.items()
            if n == "tetraflows" or n.startswith("tetraflows.")
        ]
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(tf, module), attr)
            wrapper = self._wrap(name, original, record=True)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        poly = tf.polyring.Polynomial
        for name, attr in KERNEL:
            original = poly.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, record=False))
            else:
                wrapper = self._wrap(name, original, record=False)
            self._patch(poly, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-pass results ----------------------------------------------------------------

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats.clear()

    def pass_stats(self) -> dict:
        """This pass's statistics, flattened to ``<layer>.<quantity>``."""
        flat = {
            f"{layer}.{quantity}": value
            for layer, quantities in self.stats.items()
            for quantity, value in quantities.items()
        }
        mul = self.stats.get("polyring.mul")
        if mul and mul["term_pairs"]:
            flat["polyring.mul.merge_ratio"] = mul["out_terms"] / mul["term_pairs"]
        return flat
