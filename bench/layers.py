"""Spans and counters around the calls into each qbps module, for traced runs.

The program itself is not instrumented: install() replaces public functions
and methods with timing wrappers from here.  Functions are replaced under
every name a qbps module binds them to (bps imports n1_fiber and congruence
imports the routes by name), so each call site reaches the wrapper.

A span records name, start, end and the index of its parent span; spans stay
in memory until write_spans().  Self time is a span's duration minus that of
its direct children.  Hot calls (n1_fiber, sigma: about half a million on the
default verification) are counted, not timed.  Operation counts are computed
from operand lengths with the same loop bounds as the kernels; they are counts
of the work the code performs, not measurements, and repeat exactly.
"""

import functools
import json
import sys
import time
from collections import Counter

# Functions timed as spans: (module, attribute) -> layer name.
SPAN_FUNCTIONS = {
    ("gw", "n1_series"): "gw.n1_series",
    ("bps", "a_direct_series"): "bps.a_direct",
    ("bps", "b_direct_series"): "bps.b_direct",
    ("bps", "a_closed_series"): "bps.a_closed",
    ("bps", "b_closed_series"): "bps.b_closed",
    ("bps", "b_intermediate_series"): "bps.b_intermediate",
    ("bps", "brace_series"): "bps.brace",
}

# Functions only counted: (module, attribute) -> counter name.
COUNTED_FUNCTIONS = {
    ("gw", "n1_fiber"): "gw.n1_fiber.calls",
    ("qforms", "sigma"): "qforms.sigma.calls",
}

# Layer metric -> (end-to-end metric it should move, workloads where it should).
LAYER_TARGETS = {
    "series.exact_mul": ("wall_s, cpu_s", "table_bps most; verify_default, congruence_deep"),
    "series.exact_inverse": ("wall_s, cpu_s", "congruence_deep most; not table_bps"),
    "series.residue_mul": ("wall_s", "congruence_deep"),
    "series.reduce_mod": ("wall_s", "congruence_deep"),
    "qforms.partition": ("wall_s, peak_rss_mib", "verify_default, congruence_deep"),
    "qforms.power": ("wall_s, peak_rss_mib", "verify_default, congruence_deep"),
    "qforms.divisor_sum": ("wall_s, peak_rss_mib", "verify_default, congruence_deep"),
    "qforms.catalog": ("wall_s, peak_rss_mib", "verify_default, congruence_deep"),
    "gw.n1_fiber": ("wall_s", "verify_default only"),
    "qforms.sigma": ("wall_s", "verify_default only"),
    "gw.n1_series": ("wall_s", "verify_default only"),
    "bps": ("wall_s", "verify_default; table_bps for the closed forms"),
    "congruence": ("wall_s, fail_frac", "verify_default, congruence_deep"),
    "cli": ("wall_s", "table_bps only"),
}

SPAN_METRICS = (
    "series.exact_mul", "series.exact_inverse", "series.residue_mul", "series.reduce_mod",
    "qforms.partition", "qforms.power", "qforms.divisor_sum", "gw.n1_series",
    "bps.a_direct", "bps.b_direct", "bps.a_closed", "bps.b_closed",
    "bps.b_intermediate", "bps.brace", "cli",
)

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "series.exact_mul.calls", "series.exact_mul.coeff_mults",
    "series.exact_inverse.calls", "series.exact_inverse.coeff_mults",
    "series.residue_mul.calls", "series.residue_mul.packed_bytes",
    "qforms.partition.builds", "qforms.power.builds",
    "gw.n1_fiber.calls", "qforms.sigma.calls",
)


def _nonzero_tail_products(coeffs, n, first):
    # Products made by a loop "for i in first..n if c[i]: for k in i..n": each
    # nonzero c[i] meets n - i + 1 partners.
    return sum(n - i + 1 for i in range(first, n + 1) if coeffs[i])


def _packed_bytes(length, modulus):
    # Same slot width as the Kronecker kernel: two packed operands of
    # length * width bytes and a product of 2 * length * width bytes.
    width = (((modulus - 1) * (modulus - 1) * length).bit_length() + 7) // 8
    return 4 * length * width


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._seen = {}          # layer -> objects already returned, to tell builds from hits
        self._qbps = None

    def wrap(self, name, fn, count=None):
        """fn inside a span.  count(args, kwargs), if given, runs first to add to
        self.counts; returning False makes that call bypass the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and count(args, kwargs) is False:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][1:3] = start, time.perf_counter()
                stack.pop()
        return traced

    def _wrap_builds(self, name, fn):
        """Span plus a build counter: a result never returned before is a build."""
        seen = self._seen.setdefault(name, {})
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            value = traced(*args, **kwargs)
            if id(value) not in seen:
                seen[id(value)] = value
                self.counts[f"{name}.builds"] += 1
            return value
        return counted

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, qbps):
        """Patch the loaded qbps modules and classes."""
        self._qbps = qbps
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qbps" or n.startswith("qbps.")]

        def rebind(module_name, attr, make):
            original = getattr(getattr(qbps, module_name), attr)
            replacement = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

        for (module_name, attr), name in SPAN_FUNCTIONS.items():
            rebind(module_name, attr, functools.partial(self.wrap, name))
        for (module_name, attr), name in COUNTED_FUNCTIONS.items():
            rebind(module_name, attr, functools.partial(self._counter, name))

        series, qforms = qbps.series, qbps.qforms
        exact, residue = series.TruncatedSeries, series.ResidueSeries
        counts = self.counts

        def exact_product(args, kwargs):
            a, b = args
            if not isinstance(b, exact):
                return False
            n = min(a.order, b.order)
            counts["series.exact_mul.calls"] += 1
            counts["series.exact_mul.coeff_mults"] += _nonzero_tail_products(a.coefficients, n, 0)

        def exact_inverse(args, kwargs):
            (f,) = args
            counts["series.exact_inverse.calls"] += 1
            counts["series.exact_inverse.coeff_mults"] += _nonzero_tail_products(
                f.coefficients, f.order, 1)

        def residue_product(args, kwargs):
            a, b = args
            if not isinstance(b, residue):
                return False
            counts["series.residue_mul.calls"] += 1
            counts["series.residue_mul.packed_bytes"] += _packed_bytes(
                min(a.order, b.order) + 1, a.modulus)

        exact.__mul__ = self.wrap("series.exact_mul", exact.__mul__, exact_product)
        exact.inverse = self.wrap("series.exact_inverse", exact.inverse, exact_inverse)
        exact.reduce_mod = self.wrap("series.reduce_mod", exact.reduce_mod)
        residue.__mul__ = self.wrap("series.residue_mul", residue.__mul__, residue_product)

        catalog = qforms.QFormCatalog
        catalog.partition = property(self._wrap_builds("qforms.partition", catalog.partition.fget))
        catalog.divisor_sum = property(self.wrap("qforms.divisor_sum", catalog.divisor_sum.fget))
        catalog.power = self._wrap_builds("qforms.power", catalog.power)

    def _self_seconds(self):
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def layer_metrics(self, checks, output_bytes):
        """Every per-layer metric of this run, by name; zero where a layer did no work."""
        metrics = {f"{name}.self_s": 0.0 for name in SPAN_METRICS}
        for (name, _, _, _), own in zip(self.spans, self._self_seconds()):
            if name in SPAN_METRICS:
                metrics[f"{name}.self_s"] += own
        metrics.update({name: self.counts[name] for name in EXACT_COUNTS})
        stats = self._qbps.qforms.catalog_for.cache_info()
        lookups = stats.hits + stats.misses
        metrics["qforms.catalog.hit_ratio"] = stats.hits / lookups if lookups else 0.0
        for check in self._qbps.CHECK_NAMES:
            metrics[f"congruence.{check}.s"] = sum(
                end - start for name, start, end, parent in self.spans
                if parent is None and name == f"congruence.{check}")
        metrics["congruence.checks_failed"] = sum(not c.passed for c in checks)
        metrics["cli.output_bytes"] = output_bytes
        return metrics

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            json.dump([{"name": name, "start": start - origin, "end": end - origin,
                        "parent": parent} for name, start, end, parent in self.spans], out)
