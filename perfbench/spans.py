"""Tracing from outside galois-solve, and the per-layer metrics.

The consumers import functions by name, so :func:`install` rebinds each
traced name in every module that holds it (``solver.apply_adjoint``,
``cli.load_problem``, ...) and patches methods on their class
(``Kernel.support_col``, ``CoverFamily.build``).  A wrapped call records
a span (name, start, end, parent) in memory; per-entry calls
(``Kernel.entry``, ``Kernel.adjoint_entry``) are only counted.  A name
the program no longer has is reported as absent.

Spans opened on a worker thread (the threaded reductions) take the
innermost open span of the main thread as their parent.  A span's self
time is its duration minus the union of its children's intervals, so
overlapping children on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

# (span name, defining module, attribute); each is rebound in every
# galois_solve module that imported the same function object.
FUNCTIONS = [
    ("cli.main", "cli", "main"),
    ("serialize.load_problem", "serialize", "load_problem"),
    ("serialize.solution_to_report", "serialize", "solution_to_report"),
    ("serialize.render_report", "serialize", "render_report"),
    ("kernel.build_moreau", "kernel", "build_moreau"),
    ("kernel.build_table", "kernel", "build_table"),
    ("kernel.build_grid_kernel", "kernel", "build_grid_kernel"),
    ("engine.apply_adjoint", "engine", "apply_adjoint"),
    ("engine.apply_forward", "engine", "apply_forward"),
    ("engine.subdiff_inverse", "engine", "subdiff_inverse"),
    ("covering.check_cover", "covering", "check_cover"),
    ("covering.irredundant_subcover", "covering", "irredundant_subcover"),
    ("solver.solve", "solver", "solve"),
    ("solver.verify", "solver", "verify"),
    ("lab.conjugate", "lab", "conjugate_with_flags"),
    ("lab.conjugate", "lab", "fenchel_conjugate"),
    ("lab.fenchel", "lab", "fenchel_experiment"),
    ("lab.quadratic", "lab", "quadratic_experiment"),
    ("lab.lipschitz", "lab", "lipschitz_experiment"),
    ("lab.weighted_power", "lab", "weighted_power_experiment"),
    ("lab.exgeom", "lab", "exgeom_experiment"),
]
# (span name, module, class, method, is classmethod)
METHODS = [
    ("kernel.support_col", "kernel", "Kernel", "support_col", False),
    ("kernel.support_row", "kernel", "Kernel", "support_row", False),
    ("kernel.bbar_access", "kernel", "Kernel", "bbar_row", False),
    ("kernel.bbar_access", "kernel", "Kernel", "bbar_col", False),
    ("covering.build", "covering", "CoverFamily", "build", True),
    ("engine.from_mapping", "engine", "FunctionOnSpace", "from_mapping", True),
]
COUNTED = [("kernel", "Kernel", "entry"), ("kernel", "Kernel", "adjoint_entry")]

ENGINE_PASSES = ("engine.apply_adjoint", "engine.apply_forward",
                 "engine.subdiff_inverse")
STATUSES = ("unique", "multiple", "no_solution")

# derived metric -> the traced names it needs; reported absent with them
DERIVED = {
    "kernel.entries_built": ("kernel.build_moreau",),
    "kernel.lazy_entries_generated": ("kernel.bbar_access",),
    "kernel.lazy_regen_ratio": ("kernel.bbar_access",),
    "scalar.lookups_per_entry": ("scalar.slice_lookups",) + ENGINE_PASSES,
    "engine.adjoint_passes_per_solve": ("engine.apply_adjoint",
                                        "engine.subdiff_inverse", "solver.solve"),
    "engine.forward_passes_per_solve": ("engine.apply_forward", "solver.solve"),
    "engine.nominal_entries": ENGINE_PASSES,
    "engine.nominal_entries_per_s": ENGINE_PASSES,
    "engine.computed_mb": ENGINE_PASSES,
    "covering.set_members": ("covering.build",),
    "solver.errors": ("solver.solve",),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main = threading.main_thread()
        self._lazy = weakref.WeakKeyDictionary()

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call; ``after(args, result)``
        updates counters once the span has ended."""
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # counters kept at the wrapped boundaries -------------------------

    def _is_lazy(self, kernel, kmod) -> bool:
        lazy = self._lazy.get(kernel)
        if lazy is None:
            nx, ny = kernel.shape
            lazy = self._lazy[kernel] = kernel.is_grid and nx * ny > kmod.DENSE_LIMIT
            if lazy:
                self.counters["kernel.lazy_nominal"] += nx * ny
        return lazy

    def after_hooks(self, gs) -> Dict[str, object]:
        kmod, c = gs["kernel"], self.counters

        def built(args, kernel):
            nx, ny = kernel.shape
            if not (kernel.is_grid and nx * ny > kmod.DENSE_LIMIT):
                c["kernel.entries_built"] += nx * ny

        def bbar(args, arr):
            if self._is_lazy(args[0], kmod):
                c["kernel.lazy_entries_generated"] += arr.size

        def engine_pass(args, result):
            nx, ny = args[0].shape
            c["engine.nominal_entries"] += nx * ny
            if not args[0].is_moreau:
                c["engine.table_entries"] += nx * ny

        def cover_family(args, family):
            c["covering.set_members"] += sum(len(s) for s in family.sets.values())

        def solved(args, sol):
            c["solver.status." + sol.status.value] += 1

        return {
            "kernel.build_moreau": built, "kernel.build_table": built,
            "kernel.build_grid_kernel": built, "kernel.bbar_access": bbar,
            "engine.apply_adjoint": engine_pass,
            "engine.apply_forward": engine_pass,
            "engine.subdiff_inverse": engine_pass,
            "covering.build": cover_family, "solver.solve": solved,
        }

    def dump(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[s[0], code[s[1]], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }


def install(tracer: Tracer, gs: Dict[str, object]) -> None:
    """Wrap the traced names of the galois_solve modules in ``gs``
    (module name -> module object)."""
    hooks = tracer.after_hooks(gs)
    present = set()
    for name, home, attr in FUNCTIONS:
        orig = getattr(gs[home], attr, None)
        if orig is None:
            tracer.absent.append(name)
            continue
        present.add(name)
        traced = tracer.wrap(orig, name, hooks.get(name))
        for mod in gs.values():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
    for name, home, cls_name, attr, is_cm in METHODS:
        cls = getattr(gs[home], cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            tracer.absent.append(name)
            continue
        present.add(name)
        fn = raw.__func__ if is_cm else raw
        traced = tracer.wrap(fn, name, hooks.get(name))
        setattr(cls, attr, classmethod(traced) if is_cm else traced)
    for home, cls_name, attr in COUNTED:
        cls = getattr(gs[home], cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            tracer.absent.append("scalar.slice_lookups")
            continue
        setattr(cls, attr, tracer.count(raw, "scalar.slice_lookups"))
    tracer.absent = sorted(set(tracer.absent) - present)


# ----------------------------------------------------------------------
# arithmetic on a span tree


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _, t0, t1, parent in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _under(spans, name_of, ancestor: str) -> Dict[str, int]:
    """Count spans by name that have a span called ``ancestor`` above them."""
    parent = {s[0]: s[4] for s in spans}
    counts: Dict[str, int] = defaultdict(int)
    for sid, name, _, _, p in spans:
        while p:
            if name_of[p] == ancestor:
                counts[name] += 1
                break
            p = parent.get(p, 0)
    return counts


def layer_metrics(dump: dict) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced round, and the names absent."""
    names = dump["names"]
    spans = [(s[0], names[s[1]], s[2], s[3], s[4]) for s in dump["spans"]]
    c = defaultdict(float, dump["counters"])
    selfs = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    incl: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, _ in spans:
        self_s[name] += selfs[sid]
        incl[name] += t1 - t0
        calls[name] += 1
    name_of = {s[0]: s[1] for s in spans}
    in_solve = _under(spans, name_of, "solver.solve")
    solves = calls["solver.solve"]
    nominal = c["engine.nominal_entries"]
    engine_time = sum(incl[n] for n in ENGINE_PASSES)
    lookups = c["scalar.slice_lookups"]

    m: Dict[str, float] = {}
    for name in ("cli.main", "serialize.load_problem", "kernel.support_col",
                 "kernel.bbar_access", "engine.apply_adjoint",
                 "engine.apply_forward", "engine.subdiff_inverse",
                 "covering.build", "covering.check_cover",
                 "covering.irredundant_subcover", "solver.solve",
                 "solver.verify"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    for name in ("serialize.solution_to_report", "serialize.render_report",
                 "kernel.build_moreau", "kernel.build_table",
                 "kernel.build_grid_kernel", "engine.from_mapping",
                 "lab.fenchel", "lab.quadratic", "lab.lipschitz",
                 "lab.weighted_power", "lab.exgeom", "lab.conjugate"):
        m[name + ".self_s"] = self_s[name]
    m["kernel.support_row.calls"] = calls["kernel.support_row"]
    m["kernel.entries_built"] = c["kernel.entries_built"]
    m["kernel.lazy_entries_generated"] = c["kernel.lazy_entries_generated"]
    m["kernel.lazy_regen_ratio"] = _ratio(c["kernel.lazy_entries_generated"],
                                          c["kernel.lazy_nominal"])
    m["scalar.slice_lookups"] = lookups
    m["scalar.lookups_per_entry"] = _ratio(lookups, c["engine.table_entries"])
    m["engine.adjoint_passes_per_solve"] = _ratio(
        in_solve["engine.apply_adjoint"] + in_solve["engine.subdiff_inverse"], solves)
    m["engine.forward_passes_per_solve"] = _ratio(
        in_solve["engine.apply_forward"], solves)
    m["engine.nominal_entries"] = nominal
    m["engine.nominal_entries_per_s"] = _ratio(nominal, engine_time)
    m["engine.computed_mb"] = nominal * 8 / 1e6
    m["covering.set_members"] = c["covering.set_members"]
    for st in STATUSES:
        m["solver.status." + st] = c["solver.status." + st]
    m["solver.errors"] = c["solver.solve.errors"]

    absent = set(dump["absent"])
    for k in list(m):
        needs = DERIVED.get(k, ())
        if any(k == a or k.startswith(a + ".") or a in needs for a in absent):
            del m[k]
    return m, sorted(absent)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metric_names() -> List[str]:
    """Every per-layer metric :func:`layer_metrics` can report."""
    m, _ = layer_metrics({"names": [], "spans": [], "counters": {}, "absent": []})
    return list(m)
