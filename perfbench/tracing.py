"""Spans and counters around the public functions of haarcp's modules.

install() wraps every public function of each layer module and patches
the wrapper into every haarcp module namespace that holds the function,
since the modules import each other's names (``from .groups import
center``).  Nothing under src/ changes; the wrappers live only in the
benchmark's worker process.

A span is (function id, start, end, parent span, job id, tag).  A call of
a function from inside its own span (recursion, as in mat_det) is folded
into the outermost span.  A generator function gets one span per resumed
step, so its self time counts only the time spent producing items.
Spans stay in memory and are written once when the worker ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import Counter

LAYERS = ["builders", "corpus", "groups", "cp", "isomorphism", "isoclinism",
          "compact", "classify", "specfmt", "cli"]

# Functions whose outermost call builds a Cayley table.
TABLE_BUILDS = {"groups.make_group", "groups.close_generators", "groups.direct_product",
                "groups.quotient", "groups.subgroup_as_group",
                "builders.group_from_elements"}


def _group_tag(args, result):
    G = args[0]
    return f"{G.name}|{G.order}"


# Tags pick out the calls the ROADMAP baseline rows time.
TAGS = {
    "builders.symmetric": lambda args, result: f"n={args[0]}",
    "groups.close_generators": lambda args, result: f"order={result.order}",
    "groups.direct_product": lambda args, result: f"{args[0].name}x{args[1].name}",
    "groups.derived_subgroup_of": lambda args, result: f"{args[0].parent.order}/{args[0].order}",
    "cp.cp_pair_count": _group_tag,
    "cp.cp_class_count": _group_tag,
    "cp.cp_coset_formula": _group_tag,
    "classify.classify_high_cp": _group_tag,
    "isoclinism.find_stem_group": _group_tag,
    "compact.cp_monte_carlo": lambda args, result: f"{args[0].name}|{args[1]}",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []  # indices of open spans
        self.open_fids: list[int] = []
        self.job = -1
        self.counters: Counter = Counter()
        self.largest_table = (0, -1)  # (order, job id)

    # -- hooks that count work at the boundaries ---------------------------

    def after(self, name, args, kwargs, result):
        c = self.counters
        if name == "groups.make_group":
            c["groups.table_entries"] += result.order ** 2
            if result.order > self.largest_table[0]:
                self.largest_table = (result.order, self.job)
        elif name == "isoclinism.find_isoclinism":
            c["isoclinism.find_isoclinism.hits"] += result is not None
        elif name == "compact.splitmix64_stream":
            c["compact.mc_words"] += _arg(args, kwargs, 1, "count")
        elif name == "compact.cp_monte_carlo":
            c["compact.mc_samples"] += _arg(args, kwargs, 1, "samples")

    # -- wrappers ------------------------------------------------------------

    def _open(self, fid):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.open_fids.append(fid)
        return idx

    def _close(self, idx, fid, start, end, tag=None):
        self.stack.pop()
        self.open_fids.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (fid, start, end, parent, self.job, tag)

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        tag_fn = TAGS.get(name)
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(fid)
                        start = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer._close(idx, fid, start, clock())
                            return
                        except BaseException:
                            tracer._close(idx, fid, start, clock())
                            raise
                        tracer._close(idx, fid, start, clock())
                        tracer.counters[name + ".yields"] += 1
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.open_fids and tracer.open_fids[-1] == fid:
                return fn(*args, **kwargs)  # direct recursion: outermost span only
            idx = tracer._open(fid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, fid, start, clock())
                raise
            end = clock()
            tracer._close(idx, fid, start, end, tag_fn(args, result) if tag_fn else None)
            tracer.counters[name + ".calls"] += 1
            tracer.after(name, args, kwargs, result)
            return result
        return wrapper


def public_functions():
    """(layer.name, function) for each public function defined in a layer module."""
    for layer in LAYERS:
        mod = importlib.import_module(f"haarcp.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                yield f"{layer}.{attr}", obj


def _patch(replacements: dict):
    """Replace each original function in every haarcp module namespace."""
    import sys

    for modname, mod in list(sys.modules.items()):
        if modname != "haarcp" and not modname.startswith("haarcp."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])


def install() -> Tracer:
    tracer = Tracer()
    _patch({fn: tracer.wrap(name, fn) for name, fn in public_functions()})
    return tracer


class TablePeak:
    """tracemalloc peak around each outermost table build; keeps the largest table's."""

    def __init__(self):
        self.depth = 0
        self.best = (0, 0)  # (table order, peak bytes)

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                self.depth -= 1
            table = result[0] if isinstance(result, tuple) else result
            self.best = max(self.best, (table.order, peak))
            return result
        return wrapper


def install_table_peak() -> TablePeak:
    probe = TablePeak()
    _patch({fn: probe.wrap(fn) for name, fn in public_functions() if name in TABLE_BUILDS})
    return probe


def self_times(spans: list, names: list[str]) -> tuple[dict[str, float], float]:
    """Self seconds per function name, and the summed duration of root spans."""
    child = [0.0] * len(spans)
    roots = 0.0
    for fid, start, end, parent, _job, _tag in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            roots += end - start
    out: dict[str, float] = Counter()
    for i, (fid, start, end, *_rest) in enumerate(spans):
        out[names[fid]] += end - start - child[i]
    return out, roots
