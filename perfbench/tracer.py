"""Span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the public functions and methods of charbox's layer
modules in place: the defining module's attribute, the class attribute, and
every name that another charbox module re-bound at import time (for example
`survey.box_char_sum` or `harness.tau_profile`). Each call then records one
span (name, start, end, parent span, item id) and the work counts listed in
`COUNTERS`. `uninstall()` puts the original objects back.

Element-level `FieldCtx` arithmetic (mul/inv/div/pow) runs thousands of times
per item, so it records no spans: its outermost calls are counted and timed
in aggregate, and that time is still subtracted from the enclosing span's
self time. The rest of `FieldCtx` is coordinate plumbing and stays unwrapped.
Private helpers (leading underscore) are not wrapped; their time is the self
time of the public call that runs them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("field", "boxes", "characters", "energy", "lattice", "harness", "survey")
ARITH = ("mul", "inv", "div", "pow")

# Span record fields; spans are plain lists so a traced run stays cheap.
NAME, START, END, PARENT, ITEM, AGG = range(6)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_build(tr, args, kwargs, ctx):
    tr.counts["field.builds"] += 1
    tr.counts["field.table_mb"] += (ctx.dlog.nbytes + ctx.exp.nbytes) / 1e6


def _count_values(tr, args, kwargs, result):
    chi = args[0]
    tr.counts["characters.values"] += int(result.size)
    if chi not in tr.seen_chars:
        tr.seen_chars.add(chi)
        tr.counts["characters.chars_evaluated"] += 1
        limit = importlib.import_module("charbox.characters")._TABLE_CACHE_LIMIT
        if chi.ctx.q <= limit:  # values_at builds a q-sized complex128 table
            tr.counts["characters.table_mb"] += chi.ctx.q * 16 / 1e6


def _count_s_dec(tr, args, kwargs, result):
    box = _arg(args, kwargs, 0, "box")
    b0_size = math.prod(2 * h + 1 for h in box.H)
    tr.counts["energy.pairs"] += box.size**2 + b0_size**2


# span name -> hook(tracer, args, kwargs, result); counts derived from input
# and output sizes at the same boundary the span is recorded at.
COUNTERS = {
    "field.build_field": _count_build,
    "boxes.Box.element_indices": lambda tr, a, k, r: tr.add("boxes.elements", a[0].size),
    "boxes.subdivide_box": lambda tr, a, k, r: tr.add("boxes.pieces", len(r)),
    "characters.box_char_sum": lambda tr, a, k, r: tr.add(
        "characters.box_sum_elems", _arg(a, k, 1, "box").size),
    "characters.Character.values_at": _count_values,
    "energy.energy": lambda tr, a, k, r: tr.add("energy.pairs", r.size**2),
    "energy.s_decomposition": _count_s_dec,
    "energy.tau_profile": lambda tr, a, k, r: tr.add("energy.pairs", r.b_size * r.b0_size),
    "harness.moment_sum": lambda tr, a, k, r: tr.add(
        "harness.moment_terms", _arg(a, k, 0, "chi").ctx.q * len(_arg(a, k, 1, "interval"))),
    "harness.burgess_trace": lambda tr, a, k, r: tr.add("harness.shifts", r.b0_size * r.interval_len),
    "lattice.successive_minima": lambda tr, a, k, r: tr.add("lattice.nodes", r.nodes),
    "lattice.minima_for_z": lambda tr, a, k, r: tr.add("lattice.minima_calls", 1),
}


def _public_callables(mod):
    """(owner, attribute, span name, raw object) for every public function
    defined in `mod` and every public method of the classes it defines."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{layer}.{name}", obj
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if obj.__name__ == "FieldCtx" and attr not in ARITH:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield obj, attr, f"{layer}.{obj.__name__}.{attr}", raw


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.arith_calls = 0
        self.arith_s = 0.0
        self.item = None
        self.active = True  # wrappers pass straight through while False
        self.seen_chars = weakref.WeakSet()
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._arith_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        hook = COUNTERS.get(name)
        spans, stack, covered = self.spans, self._stack, self._covered

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0])
            stack.append(idx)
            covered.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[START], rec[END], rec[AGG] = t0, t1, covered.pop()
                if covered:
                    covered[-1] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _arith_wrapper(self, fn):
        covered = self._covered

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._arith_depth or not self.active:
                return fn(*args, **kwargs)
            self._arith_depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._arith_depth = 0
                self.arith_calls += 1
                self.arith_s += dt
                if covered:
                    covered[-1] += dt
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        mods = [importlib.import_module(f"charbox.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for mod in mods:
            for owner, attr, name, raw in _public_callables(mod):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if name.startswith("field.FieldCtx."):
                    wrapped = self._arith_wrapper(fn)
                else:
                    wrapped = self._span_wrapper(name, fn)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                self._patch(owner, attr, wrapped)
                replaced[id(raw)] = wrapped
        # re-bound names: `from .characters import box_char_sum` and the like
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "charbox" or mod_name.startswith("charbox.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
        return self

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived quantities ---------------------------------------------------

    def inclusive_s(self, names, items=None) -> float:
        """Wall time inside spans named in `names`, counting only the
        outermost of nested matches; optionally restricted to item ids."""
        names = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[NAME] not in names or (items is not None and rec[ITEM] not in items):
                continue
            parent = rec[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += rec[END] - rec[START]
        return total

    def self_s(self, name: str) -> float:
        """Duration of spans named `name` minus the time their child spans
        and aggregated arithmetic calls cover."""
        return sum(rec[END] - rec[START] - rec[AGG] for rec in self.spans if rec[NAME] == name)

    def dump(self) -> dict:
        """Spans as columns, plus counts, for writing when the run ends."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        return {
            "span_fields": ["name", "start", "end", "parent", "item", "covered_s"],
            "spans": [list(c) for c in cols],
            "counts": dict(self.counts),
            "arith": {"calls": self.arith_calls, "seconds": self.arith_s},
        }
