"""Per-layer tracing for the traced benchmark run.

Wrappers are installed around the public functions of each lemnatomic layer,
under every name a caller looks them up by (a module that did
``from .gfq import splits_completely`` holds its own reference, so patching
``lemnatomic.gfq`` alone would miss its calls).  Each call records one span:
name, start, end, parent span and operation id.  Spans stay in memory until
the run ends; per-layer counts and self times are computed from them.

Nothing here is imported or installed by an untraced run.
"""

from __future__ import annotations

import gzip
import json
import time

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("gaussint", "exact_div"),
    ("gaussint", "factor"),
    ("gaussint", "primes_up_to_norm"),
    ("residue", "residue_ring"),
    ("residue", "unit_group"),
    ("residue", "subgroup_generated"),
    ("zipoly", "PolyZi.__mul__"),
    ("zipoly", "exact_divide"),
    ("zipoly", "discriminant"),
    ("gfq", "reduce_poly"),
    ("gfq", "squarefree"),
    ("gfq", "splits_completely"),
    ("gfq", "has_root"),
    ("lemniscate", "torsion_values"),
    ("lemniscate", "lemnatomic_numeric"),
    ("exact", "mult_map"),
    ("exact", "all_torsion_poly"),
    ("exact", "lemnatomic_exact"),
    ("classfield", "verify_prop1"),
    ("classfield", "splitting_primes"),
    ("classfield", "density_report"),
    ("classfield", "theorem_search"),
    ("classfield", "prop2_evidence"),
    ("cache", "cache_load"),
    ("cache", "cache_store"),
    ("cli", "dispatch"),
)


def _mul_products(counters, args, result):
    a, b = args
    counters["zipoly.PolyZi.__mul__.coeff_products"] += len(a.coeffs) * len(getattr(b, "coeffs", (b,)))


def _numeric_report(counters, args, result):
    report = result[1]
    counters["lemniscate.escalations"] += report.escalations
    key = "lemniscate.precision_bits_max"
    counters[key] = max(counters[key], report.precision_bits)


def _split_hit(counters, args, result):
    counters["gfq.splits_completely.hits"] += bool(result)


def _cache_hit(counters, args, result):
    counters["cache.cache_load.hits"] += result is not None


# Counts computed from a call's arguments and result, by wrapped name.
PROBES = {
    "zipoly.PolyZi.__mul__": _mul_products,
    "lemniscate.lemnatomic_numeric": _numeric_report,
    "gfq.splits_completely": _split_hit,
    "cache.cache_load": _cache_hit,
}

COUNTERS = (
    "zipoly.PolyZi.__mul__.coeff_products",
    "lemniscate.escalations",
    "lemniscate.precision_bits_max",
    "gfq.splits_completely.hits",
    "cache.cache_load.hits",
)


class Tracer:
    """Span recorder.  ``op`` is the id of the operation in progress."""

    def __init__(self):
        self.names: list = []
        self.ops: list = []
        self.spans: list = []  # (name id, start, end, parent index, op id)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list = []

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if probe is not None:
                probe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [n, round(s - origin, 7), round(e - origin, 7), p, op]
            for n, s, e, p, op in self.spans
        ]
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "ops": self.ops,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="ascii") as handle:
            json.dump(payload, handle)


def _namespaces(modules):
    """Every module and lemnatomic class namespace a caller can look a name up in."""
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("lemnatomic"):
                yield value


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every target under every name bound to it; returns the undo list.

    ``modules`` maps a short module name to the imported module; the package
    itself is under the key ``""``.
    """
    patches = []
    namespaces = list(dict.fromkeys(_namespaces(modules.values())))
    for module, qual in TARGETS:
        owner = modules[module]
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(f"{module}.{qual}", original)
        for space in namespaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
                    patches.append((space, key, original))
    return patches


def uninstall(patches: list) -> None:
    for space, key, original in reversed(patches):
        setattr(space, key, original)


def layer_stats(names: list, spans: list) -> dict:
    """name -> [calls, total_s, self_s].

    Self time is a span's duration minus the durations of its direct
    children (one thread, so children never overlap).  Total time counts
    only spans with no ancestor of the same name, so recursion is not
    counted twice.
    """
    child = [0.0] * len(spans)
    for n, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {name: [0, 0.0, 0.0] for name in names}
    for index, (n, start, end, parent, _) in enumerate(spans):
        entry = stats[names[n]]
        duration = end - start
        entry[0] += 1
        entry[2] += duration - child[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != n:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry[1] += duration
    return stats


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> (value, unit)) for one traced pass."""
    out = {}
    stats = layer_stats(tracer.names, tracer.spans)
    for name, (calls, total, self_time) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (self_time, "s")
    counters = tracer.counters
    out["zipoly.PolyZi.__mul__.coeff_products"] = (counters["zipoly.PolyZi.__mul__.coeff_products"], "count")
    out["lemniscate.escalations"] = (counters["lemniscate.escalations"], "count")
    out["lemniscate.precision_bits_max"] = (counters["lemniscate.precision_bits_max"], "bits")
    out["gfq.split_hit_ratio"] = (
        _ratio(counters["gfq.splits_completely.hits"], stats["gfq.splits_completely"][0]),
        "ratio",
    )
    out["cache.hit_ratio"] = (_ratio(counters["cache.cache_load.hits"], stats["cache.cache_load"][0]), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
