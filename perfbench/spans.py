"""Spans and counters around the public functions of each ``wittq`` module.

Installed from the benchmark's own files into a workload process; the program
itself carries no instrumentation.  Every call of a wrapped function records
one span (layer name, start, end, parent span) in memory.  The spans are
written out once, when the process ends, together with the per-layer metrics
derived from them and from the ``cache_info()`` of the modules' memos.

``mono_times_gen_p`` is never wrapped: it is hit ten million times per
p=7 power check, so its counters are read from ``cache_info()`` instead.
"""

from __future__ import annotations

import json
import time
from functools import reduce

CLOCK = time.perf_counter

# Layer span -> (module, attribute) pairs.  "Class.method" wraps a method.
# Methods that also take scalars get a span only for element operands; see
# ``_operand_name``.
LAYERS = {
    "restricted.mul": [("restricted", "ElementP.__mul__")],
    "restricted.add": [("restricted", "ElementP.__add__"), ("restricted", "ElementP.__radd__")],
    "restricted.witt_iso": [("restricted", "verify_witt_iso")],
    "hopfp.polymul": [("hopfp", "PolyP.__mul__")],
    "hopfp.pow": [("hopfp", "PolyP.__pow__")],
    "hopfp.build": [("hopfp", "coproduct_p"), ("hopfp", "antipode_p")],
    "hopfp.extend": [
        ("hopfp", "coproduct_element_p"),
        ("hopfp", "antipode_element_p"),
        ("hopfp", "coproduct_poly"),
        ("hopfp", "antipode_poly"),
    ],
    "hopfp.verify_relations": [("hopfp", "verify_relations_preserved")],
    "hopfp.verify_hopf": [("hopfp", "verify_hopf_p")],
    "hopfp.radford": [("hopfp", "radford_check")],
    "hopfp.mismatch": [("hopfp", "first_mismatch_p")],
    "uwitt.mul": [("uwitt", "Element.__mul__")],
    "uwitt.add": [("uwitt", "Element.__add__"), ("uwitt", "Element.__radd__")],
    "series.mul": [("series", "Series.__mul__")],
    "series.invert": [("series", "Series.invert")],
    "hopf0.cocycle": [("hopf0", "cocycle_check")],
    "hopf0.cross_route": [
        ("hopf0", "coproduct_twist"),
        ("hopf0", "antipode_twist"),
        ("hopf0", "antipode_general"),
        ("hopf0", "cobracket_semiclassical"),
    ],
    "hopf0.verify_hopf0": [("hopf0", "verify_hopf0")],
    "hopf0.build": [
        ("hopf0", "coproduct_closed"),
        ("hopf0", "antipode_closed"),
        ("hopf0", "twist"),
        ("hopf0", "coproduct_element"),
        ("hopf0", "antipode_element"),
    ],
    "scalars.coeff": [("scalars", "int_coeff"), ("scalars", "n_coeff"), ("scalars", "gen_binomial")],
    "jsonio.doc": [("jsonio", "element_doc"), ("jsonio", "series_doc"), ("jsonio", "report_doc")],
    "jsonio.dumps": [("jsonio", "dumps")],
    "cli": [("cli", "main")],
}

# Per-layer metric name -> unit; the order is the order of the report.
METRICS = {
    "restricted.mul_r1.calls": "count",
    "restricted.mul_r1.self_s": "s",
    "restricted.mul_r2.calls": "count",
    "restricted.mul_r2.self_s": "s",
    "restricted.mul_r3.calls": "count",
    "restricted.mul.terms_max": "count",
    "restricted.add.self_s": "s",
    "restricted.memo.hits": "count",
    "restricted.memo.misses": "count",
    "restricted.memo.size": "count",
    "restricted.memo.hit_ratio": "ratio",
    "restricted.witt_iso.s": "s",
    "hopfp.polymul.calls": "count",
    "hopfp.polymul.self_s": "s",
    "hopfp.pow.calls": "count",
    "hopfp.pow.s": "s",
    "hopfp.build.calls": "count",
    "hopfp.build.s": "s",
    "hopfp.extend.s": "s",
    "hopfp.verify_relations.s": "s",
    "hopfp.verify_hopf.s": "s",
    "hopfp.radford.s": "s",
    "hopfp.mismatch.s": "s",
    "hopfp.memo.size": "count",
    "uwitt.mul.calls": "count",
    "uwitt.mul.self_s": "s",
    "uwitt.add.self_s": "s",
    "uwitt.memo.hits": "count",
    "uwitt.memo.misses": "count",
    "uwitt.memo.size": "count",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.invert.s": "s",
    "hopf0.cocycle.s": "s",
    "hopf0.cross_route.s": "s",
    "hopf0.verify_hopf0.s": "s",
    "hopf0.build.s": "s",
    "hopf0.memo.size": "count",
    "scalars.coeff.calls": "count",
    "scalars.coeff.self_s": "s",
    "jsonio.doc.s": "s",
    "jsonio.dumps.s": "s",
    "jsonio.bytes": "bytes",
    "report.checks": "count",
    "report.failed": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly between two traced runs of one input.
COUNT_UNITS = ("count", "bytes")


class Tracer:
    """In-memory span store.  A span is [name id, start, end, parent index,
    outermost-of-its-name flag]; the run id names the process that made them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack = [-1]
        self._active: list[int] = []
        self.terms_max = 0
        self.json_bytes = 0
        self.checks = 0
        self.failed = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        spans, stack, active = self.spans, self._stack, self._active
        idx = len(spans)
        rec = [nid, 0.0, 0.0, stack[-1], active[nid] == 0]
        spans.append(rec)
        stack.append(idx)
        active[nid] += 1
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = CLOCK()
            rec[1] = start
            active[nid] -= 1
            stack.pop()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds (outermost spans only) and self seconds
        (span minus its direct children) per span name."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for idx, (nid, start, end, _, outer) in enumerate(self.spans):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["self_s"] += end - start - child[idx]
            if outer:
                agg["s"] += end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _operand_name(base: str, elem_type):
    """Span name for a binary operator: None (no span) for a scalar operand."""

    def name(args):
        return base if isinstance(args[1], elem_type) else None

    return name


def _mul_p_name(elem_type):
    def name(args):
        other = args[1]
        if not isinstance(other, elem_type):
            return None
        return f"restricted.mul_r{min(args[0].rank, 3)}"

    return name


def _resolve(obj, dotted: str):
    owner = obj
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every function in LAYERS.  ``modules`` maps short names to the
    imported ``wittq`` modules; a module-level function is also replaced
    wherever another module imported it by name."""
    restricted, uwitt, series, hopfp = (modules[m] for m in ("restricted", "uwitt", "series", "hopfp"))
    namers = {
        ("restricted", "ElementP.__mul__"): _mul_p_name(restricted.ElementP),
        ("restricted", "ElementP.__add__"): _operand_name("restricted.add", restricted.ElementP),
        ("restricted", "ElementP.__radd__"): _operand_name("restricted.add", restricted.ElementP),
        ("hopfp", "PolyP.__mul__"): _operand_name("hopfp.polymul", (hopfp.PolyP, restricted.ElementP)),
        ("uwitt", "Element.__mul__"): _operand_name("uwitt.mul", uwitt.Element),
        ("uwitt", "Element.__add__"): _operand_name("uwitt.add", uwitt.Element),
        ("uwitt", "Element.__radd__"): _operand_name("uwitt.add", uwitt.Element),
        ("series", "Series.__mul__"): _operand_name("series.mul", (series.Series, uwitt.Element)),
    }
    for layer, targets in LAYERS.items():
        for mod_name, dotted in targets:
            owner, attr = _resolve(modules[mod_name], dotted)
            fn = getattr(owner, attr)
            namer = namers.get((mod_name, dotted))
            wrapped = _wrap(tracer, fn, layer, namer, dotted)
            setattr(owner, attr, wrapped)
            if owner is modules[mod_name]:
                for other in modules.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)
    report = modules["report"].VerificationReport
    add = report.add

    def counted_add(self, identity, params, passed, witness=None):
        tracer.checks += 1
        if not passed:
            tracer.failed += 1
        return add(self, identity, params, passed, witness)

    report.add = counted_add


def _wrap(tracer: Tracer, fn, layer: str, namer, dotted: str):
    fixed = tracer.name_id(layer) if namer is None else None
    observe = _OBSERVERS.get(dotted)

    def wrapped(*args, **kwargs):
        if fixed is None:
            name = namer(args)
            if name is None:
                return fn(*args, **kwargs)
            nid = tracer.name_id(name)
        else:
            nid = fixed
        out = tracer.call(nid, fn, args, kwargs)
        if observe is not None:
            observe(tracer, args, out)
        return out

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", layer)
    return wrapped


def _observe_mul_p(tracer: Tracer, args, out) -> None:
    tracer.terms_max = max(tracer.terms_max, len(args[0].terms), len(args[1].terms), len(out.terms))


def _observe_dumps(tracer: Tracer, args, out) -> None:
    tracer.json_bytes += len(out.encode("utf-8"))


_OBSERVERS = {"ElementP.__mul__": _observe_mul_p, "dumps": _observe_dumps}


def memo_snapshot(modules: dict) -> dict[str, tuple[int, int, int]]:
    """(hits, misses, size) of the memos each layer metric reads: those a
    module defines, not those it imported from another module."""

    def module_caches(mod):
        return [
            v.cache_info()
            for v in vars(mod).values()
            if hasattr(v, "cache_info") and v.__module__ == mod.__name__
        ]

    def total(infos):
        return reduce(lambda a, b: (a[0] + b.hits, a[1] + b.misses, a[2] + b.currsize), infos, (0, 0, 0))

    return {
        "restricted": total([modules["restricted"].mono_times_gen_p.cache_info()]),
        "hopfp": total(module_caches(modules["hopfp"])),
        "uwitt": total(module_caches(modules["uwitt"])),
        "hopf0": total(module_caches(modules["hopf0"])),
    }


def layer_metrics(tracer: Tracer, memo_before: dict, memo_after: dict) -> dict[str, float]:
    """Every per-layer metric this process can give; the benchmark adds
    ``cli.out_bytes`` and ``trace.overhead_s``, which are measured outside it.
    ``<layer>.{calls,s,self_s}`` come from the spans, ``<module>.memo.*`` from
    the ``cache_info()`` snapshots (hits and misses as deltas)."""
    totals = tracer.layer_totals()
    memo = {}
    for mod, after in memo_after.items():
        hits, misses = after[0] - memo_before[mod][0], after[1] - memo_before[mod][1]
        memo[f"{mod}.memo.hits"], memo[f"{mod}.memo.misses"], memo[f"{mod}.memo.size"] = hits, misses, after[2]
        memo[f"{mod}.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counters = {
        "restricted.mul.terms_max": tracer.terms_max,
        "jsonio.bytes": tracer.json_bytes,
        "report.checks": tracer.checks,
        "report.failed": tracer.failed,
    }
    out = {}
    for name in METRICS:
        if name in ("cli.out_bytes", "trace.overhead_s"):
            continue
        if name in counters:
            out[name] = counters[name]
        elif name in memo:
            out[name] = memo[name]
        else:
            layer, _, key = name.rpartition(".")
            out[name] = totals[layer][key] if layer in totals else 0
    return out
