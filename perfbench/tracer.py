"""Span tracer for a traced benchmark pass.

`install` puts a timing wrapper around every public function of the six
traced cep_lab modules, plus `SymbolicFrame.apply` and the `EPSetSampler`
draws, at every binding callers look them up through: module globals
(including the `cep_lab` package namespace), dict values such as
`verification.REGISTRY`, tuples inside dict values, and static methods.
`core` gets no spans: its calls take well under a microsecond, so a wrapper
would mostly measure itself, and its cost shows in its callers' self time.

Each call records a span (name, start, end, parent) in flat arrays; nothing
is aggregated or written until the pass ends.  A recursive call of a
function already on the stack runs unwrapped, inside the outer span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("periodic", "frames", "terms", "congruence", "verification", "cli")

# Span groups the per-layer metrics are reported over.  A group's time and
# call count cover its outermost spans: calls nested inside another call of
# the same group are part of that call.
GROUPS = {
    "periodic.ep_op": ("ep_meet", "ep_join", "ep_bicond", "ep_neg", "ep_leq",
                       "ep_boolean_op"),
    "periodic.classify": ("classify",),
    "periodic.make": ("make_periodic", "finite_set", "cofinite_set",
                      "initial_segment_set", "co_initial_segment_set",
                      "co_singleton_set"),
    "periodic.sample": ("EPSetSampler.sample", "EPSetSampler.sample_pair"),
    "frames.construct": ("wheel", "complex_algebra", "frame_product", "star",
                         "sharp", "flat", "neg_op"),
    "frames.check_property.exhaustive": ("check_property.exhaustive",),
    "frames.check_property.sampled": ("check_property.sampled",),
    "frames.symbolic_apply": ("SymbolicFrame.apply",),
    "frames.flat_condition": ("flat_condition",),
    "terms.check_identity": ("check_identity",),
    "terms.check_clause": ("check_clause",),
    "terms.eval_term": ("eval_term",),
    "terms.build": ("parse_term", "parse_identity", "iota", "make_clause",
                    "relativize_identity", "fix_variable", "substitute"),
    "congruence.is_simple": ("is_simple",),
    "congruence.largest_congruential_below": ("largest_congruential_below",),
    "congruence.scan": ("is_simple", "largest_congruential_below",
                        "is_congruential"),
    "congruence.congruence_lattice": ("congruence_lattice",),
    "congruence.generate_subalgebra": ("generate_subalgebra",),
    "congruence.cep_check_full": ("cep_check_full",),
    "congruence.cep_refute": ("cep_refute",),
    "congruence.subalgebra_frame": ("subalgebra_frame",),
    "congruence.replay_trace": ("replay_trace",),
}

# Groups reported with a call count next to their time.
COUNTED = ("periodic.ep_op", "periodic.classify", "periodic.make",
           "periodic.sample", "frames.check_property.exhaustive",
           "frames.check_property.sampled", "frames.symbolic_apply",
           "terms.check_identity", "terms.check_clause",
           "congruence.is_simple", "congruence.largest_congruential_below",
           "congruence.congruence_lattice", "congruence.generate_subalgebra",
           "congruence.cep_check_full", "congruence.replay_trace")

CLI_LOAD = ("parse_frame_expr", "load_table_frame", "load_kripke")

_BINARY_EP = ("ep_meet", "ep_join", "ep_bicond", "ep_leq")


def _ep_width(a, b) -> int:
    """lcm of the moduli plus the larger threshold: the positions a binary
    EPSet operation has to visit."""
    return (math.lcm(a.modulus, b.modulus)
            + max(a.threshold, b.threshold))


def _attr_for(name: str):
    """Per-span number recorded from the call's arguments or result."""
    if name in _BINARY_EP:
        return lambda args, kw, out: _ep_width(args[0], args[1])
    if name == "ep_boolean_op":
        return lambda args, kw, out: (_ep_width(args[1], args[2])
                                      if len(args) == 3 else None)
    if name in GROUPS["frames.construct"]:
        return lambda args, kw, out: out.alg.size
    if name == "generate_subalgebra":
        return lambda args, kw, out: len(out)
    if name in GROUPS["congruence.scan"]:
        return lambda args, kw, out: args[0].alg.size
    if name in ("check_identity", "check_clause"):
        return lambda args, kw, out: int(out.status == "fails")
    return None


class Tracer:
    """Flat in-memory span store."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr: dict[int, float] = {}
        self._stack = [-1]

    def name(self, full: str) -> int:
        if full not in self._ids:
            self._ids[full] = len(self.names)
            self.names.append(full)
        return self._ids[full]

    def wrap(self, fn, full: str, attr=None, namer=None):
        """Timing wrapper around `fn`; `namer(args, kwargs)` may pick the
        span name per call."""
        nid = self.name(full)
        clock = time.perf_counter
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, attrs = self.start, self.end, self.attr
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid if namer is None else namer(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            active[0] = True
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[0] = False
                stack.pop()
            if attr is not None:
                value = attr(args, kwargs, out)
                if value is not None:
                    attrs[idx] = value
            return out

        return traced

    def spans(self) -> int:
        return len(self.start)

    def save(self, path: str) -> None:
        """Write every span once, as numpy arrays (names, name_id, parent,
        start, end)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _check_property_namer(tracer: Tracer, exhaustive_cls):
    exhaustive = tracer.name("frames.check_property.exhaustive")
    sampled = tracer.name("frames.check_property.sampled")

    def namer(args, kwargs):
        strategy = args[2] if len(args) > 2 else kwargs.get("strategy")
        return (exhaustive if strategy is None
                or isinstance(strategy, exhaustive_cls) else sampled)
    return namer


def install(tracer: Tracer) -> list:
    """Wrap the public functions of the traced modules everywhere they are
    bound.  Returns the replaced bindings, for `uninstall`."""
    from cep_lab import frames, periodic

    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cep_lab.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            namer = (_check_property_namer(tracer, frames.Exhaustive)
                     if obj is frames.check_property else None)
            wrapped[id(obj)] = tracer.wrap(obj, f"{layer}.{name}",
                                           _attr_for(name), namer)
    undo = []

    def rebind(container, key, new):
        old = container[key] if isinstance(container, dict) else vars(container)[key]
        undo.append((container, key, old))
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)

    for cls, attr, layer in ((frames.SymbolicFrame, "apply", "frames"),
                             (periodic.EPSetSampler, "sample", "periodic"),
                             (periodic.EPSetSampler, "sample_pair", "periodic")):
        rebind(cls, attr, tracer.wrap(vars(cls)[attr],
                                      f"{layer}.{cls.__name__}.{attr}"))

    def swap(value):
        if inspect.isfunction(value):
            return wrapped.get(id(value), value)
        if isinstance(value, tuple):
            new = tuple(swap(v) for v in value)
            return value if all(a is b for a, b in zip(new, value)) else new
        return value

    modules = [m for n, m in sys.modules.items()
               if n == "cep_lab" or n.startswith("cep_lab.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                rebind(module, name, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if swap(item) is not item:
                        rebind(value, key, swap(item))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, item in list(vars(value).items()):
                    if (isinstance(item, staticmethod)
                            and id(item.__func__) in wrapped):
                        rebind(value, attr, staticmethod(wrapped[id(item.__func__)]))
    return undo


def uninstall(undo: list) -> None:
    """Restore the bindings `install` replaced."""
    for container, key, old in reversed(undo):
        if isinstance(container, dict):
            container[key] = old
        else:
            setattr(container, key, old)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def aggregate(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose timed phase took `wall_s`.

    Self time of a span is its duration minus its children's; a layer's self
    time sums its spans'.  Time under no span is the benchmark's own, so
    the layers' self times plus `bench.self_s` add up to `wall_s`.
    """
    n = tracer.spans()
    names = tracer.names
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
    parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
    dur = (np.frombuffer(tracer.end, dtype=np.float64)
           - np.frombuffer(tracer.start, dtype=np.float64))
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    # bitmask of the groups each name belongs to, and of the groups open
    # above each span (parents precede their children in the arrays)
    group_names = list(GROUPS)
    name_groups = np.zeros(len(names), dtype=np.int64)
    for g, gname in enumerate(group_names):
        layer = gname.split(".", 1)[0]
        for member in GROUPS[gname]:
            full = f"{layer}.{member}"
            if full in tracer._ids:
                name_groups[tracer._ids[full]] |= 1 << g
    mine = name_groups[name_id] if n else np.zeros(0, dtype=np.int64)
    above = np.zeros(n, dtype=np.int64)
    parent_list = parent.tolist()
    mine_list = mine.tolist()
    above_list = [0] * n
    for i, p in enumerate(parent_list):
        if p >= 0:
            above_list[i] = above_list[p] | mine_list[p]
    above[:] = above_list

    metrics: dict[str, tuple[float, str]] = {}
    layer_ids = np.array([LAYERS.index(layer_of(nm)) for nm in names],
                         dtype=np.int64)
    span_layer = layer_ids[name_id] if n else np.zeros(0, dtype=np.int64)
    for li, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = (float(self_time[span_layer == li].sum()), "s")
    metrics["bench.self_s"] = (wall_s - float(dur[~has_parent].sum()), "s")

    attr = np.full(n, np.nan)
    if tracer.attr:
        keys = np.fromiter(tracer.attr.keys(), dtype=np.int64)
        attr[keys] = np.fromiter(tracer.attr.values(), dtype=np.float64)

    def outermost(gname):
        bit = 1 << group_names.index(gname)
        return ((mine & bit) != 0) & ((above & bit) == 0)

    def by_names(layer, members):
        ids = [tracer._ids[f"{layer}.{m}"] for m in members
               if f"{layer}.{m}" in tracer._ids]
        return np.isin(name_id, ids)

    for gname in GROUPS:
        sel = outermost(gname)
        if gname not in ("periodic.ep_op", "congruence.scan"):
            metrics[f"{gname}.s"] = (float(dur[sel].sum()), "s")
        if gname in COUNTED:
            metrics[f"{gname}.calls"] = (int(sel.sum()), "count")

    ep = outermost("periodic.ep_op")
    calls = int(ep.sum())
    metrics["periodic.ep_op.us_per_call"] = (
        float(dur[ep].sum()) / calls * 1e6 if calls else 0.0, "us")
    widths = attr[ep & ~np.isnan(attr)]
    metrics["periodic.ep_op.width"] = (
        float(widths.mean()) if widths.size else 0.0, "count")
    construct = outermost("frames.construct")
    metrics["frames.construct.out_elems"] = (
        int(np.nansum(attr[construct])), "count")
    gen = outermost("congruence.generate_subalgebra")
    metrics["congruence.generate_subalgebra.out_elems"] = (
        int(np.nansum(attr[gen])), "count")
    for gname in ("terms.check_identity", "terms.check_clause"):
        metrics[f"{gname}.witnesses"] = (
            int(np.nansum(attr[outermost(gname)])), "count")
    scan_s = float(dur[outermost("congruence.scan")].sum())
    scanned = np.nansum(attr[by_names("congruence", GROUPS["congruence.scan"])])
    metrics["congruence.scan.ns_per_elem"] = (
        scan_s / scanned * 1e9 if scanned else 0.0, "ns")
    metrics["cli.load.s"] = (float(self_time[by_names("cli", CLI_LOAD)].sum()), "s")
    return metrics


def span_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a span adds to one call: a wrapped no-op timed against the
    bare one, at its fastest of `repeats`.  Times the span count, it
    estimates a pass's tracing overhead from the wrapper alone, free of the
    drift between a traced and an untraced pass."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "calibration")
    clock = time.perf_counter
    best = math.inf
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (clock() - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def item_times(tracer: Tracer, items) -> dict:
    """Inclusive time of each verification item's span."""
    out = {item: 0.0 for item in items}
    dur = (np.frombuffer(tracer.end, dtype=np.float64)
           - np.frombuffer(tracer.start, dtype=np.float64))
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    for item in items:
        full = "verification.item_" + item.replace("-", "_")
        if full in tracer._ids:
            out[item] = float(dur[name_id == tracer._ids[full]].sum())
    return out
