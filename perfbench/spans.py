"""Stdlib-only span recorder that instruments pattern_entropy from outside.

Each wrapped public function records a span (name, start, end, parent,
error flag) in memory.  Hot leaf functions get a counter instead of a span,
because a span per call would dominate their cost.  Wrappers are installed by
rebinding every module attribute that refers to the original function, so a
call through ``bounds.build_grid`` or ``oracle.bin_sequence`` is seen exactly
like a call through ``grids.build_grid``; removing them restores the package.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# Functions timed with a span, as "<module>.<function>".
SPANS = (
    "distributions.make_distribution",
    "distributions.iid_entropy",
    "distributions.sample_sequence",
    "grids.build_grid",
    "grids.bin_stats",
    "patterns.extract_pattern",
    "patterns.bin_sequence",
    "patterns.pattern_probability",
    "bounds.simple_bounds",
    "bounds.ub_theorem1",
    "bounds.lb_theorem2",
    "bounds.ub_theorem3_family",
    "bounds.lb_theorem4",
    "bounds.packed_entropies",
    "coder.CoderModel.from_source",
    "coder.encode",
    "coder.decode",
    "coder.sequence_codelength",
    "oracle.exact_entropies",
    "oracle.mc_pattern_entropy",
    "cli.main",
    "cli.run_bounds",
    "cli.write_rows",
)
# Hot leaf functions: call counts only.
COUNTERS = (
    "grids.absent_probability",
    "coder.next_symbol_prob",
)
# Generators: calls and yielded items.
GENERATORS = ("patterns.enumerate_patterns",)

LAYERS = ("distributions", "grids", "patterns", "bounds", "coder", "oracle", "cli")

PACKAGE = "pattern_entropy"

# Public names whose function object lives under another attribute name.
_ATTR = {"cli.write_rows": "_write_rows"}


class Recorder:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        # cleared in place: installed wrappers hold these containers
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".items"] += 1
                yield item

        return wrapper


def write_spans(path, spans) -> None:
    """Write spans as JSON lines; ``parent`` is the list index of the parent span, or -1."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, raised) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "error": raised}) + "\n")


def _count_points(counts, grid):
    counts["grids.points_built"] += len(grid.points)


def _count_groups(counts, theta):
    counts["distributions.groups"] += len(theta.values)


_AFTER = {"grids.build_grid": _count_points,
          "distributions.make_distribution": _count_groups}


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package that refers to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            found += [(mod, attr) for attr, value in vars(mod).items() if value is original]
    return found


def instrument(recorder: Recorder):
    """Wrap every listed function of the imported package; return (install, remove).

    ``install`` rebinds every reference to a wrapper and ``remove`` restores the
    originals, so traced and untraced passes can alternate in one process.
    """
    swaps = []  # (owner, attribute, original, wrapped)
    for kind, names in (("span", SPANS), ("counter", COUNTERS), ("generator", GENERATORS)):
        for name in names:
            module, _, attr = name.partition(".")
            mod = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:  # a classmethod, e.g. CoderModel.from_source
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                swaps.append((cls, meth, original,
                              classmethod(recorder.span(name, original.__func__))))
                continue
            original = getattr(mod, _ATTR.get(name, attr))
            if kind == "span":
                wrapped = recorder.span(name, original, _AFTER.get(name))
            elif kind == "counter":
                wrapped = recorder.counter(name, original)
            else:
                wrapped = recorder.generator(name, original)
            swaps += [(owner, a, original, wrapped) for owner, a in _bindings(original)]

    def install():
        for owner, attr, _, wrapped in swaps:
            setattr(owner, attr, wrapped)

    def remove():
        for owner, attr, original, _ in swaps:
            setattr(owner, attr, original)

    return install, remove


def pass_metrics(recorder: Recorder, wall: float) -> dict:
    """Per-layer figures of one traced pass that took ``wall`` seconds."""
    spans = recorder.spans
    self_s = [end - start for _, start, end, _, _ in spans]
    root_s = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
        else:
            root_s += end - start
    m: dict = {}
    for name in SPANS:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for name in COUNTERS:
        m[f"{name}.calls"] = 0
    for name in GENERATORS:
        m[f"{name}.calls"] = 0
        m[f"{name}.items"] = 0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = 0
    m["coder.encode.calls_in_decode"] = 0
    m["oracle.mc.distinct_patterns"] = 0
    for (name, _, _, parent, raised), s in zip(spans, self_s):
        layer = name.partition(".")[0]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += s
        m[f"{layer}.self_s"] += s
        m[f"{layer}.errors"] += int(raised)
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "coder.encode" and parent_name == "coder.decode":
            m["coder.encode.calls_in_decode"] += 1
        if name == "patterns.pattern_probability" and parent_name == "oracle.mc_pattern_entropy":
            m["oracle.mc.distinct_patterns"] += 1
    m.update(recorder.counts)
    m.setdefault("grids.points_built", 0)
    m.setdefault("distributions.groups", 0)
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - root_s
    return m
