"""Spans around calls into each idemzeros module, installed from outside.

``install`` replaces module-level functions of the package with wrappers, in
the defining module and wherever another module imported the same object, so
cross-module calls (``oracle`` -> ``digit_tables.enumerate_solutions``,
``fuglede`` -> ``oracle._vanish_masks`` ...) open a span of the callee's
module.  Spans are kept in flat arrays in memory and written out by ``dump``.
A module's self time is its span time minus the time of its child spans.

``IndexSet.__post_init__`` and the resumptions of generator functions after
the first are timed and counted but not stored as spans: there are millions
of them on the oracle grid.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "zn_core",
    "cyclotomic",
    "fourier",
    "ramanujan",
    "digit_tables",
    "oracle",
    "sampling",
    "fuglede",
    "cli",
)

# Private functions wrapped besides each module's public ones.  A name that a
# later version no longer has is listed as absent instead of failing.
EXTRA_NAMES = (
    "oracle._vanish_masks",
    "fuglede._check_class",
)
HOT_METHODS = ("zn_core.IndexSet.__post_init__",)
RAMANUJAN_EVALS = (
    "ramanujan.ramanujan_direct",
    "ramanujan.ramanujan_prime_power",
    "ramanujan.ramanujan_mobius",
    "ramanujan.gcd_class_exponential_sum",
)


def subsets_up_to(N: int, cap) -> int:
    """Subsets of Z_N with at most ``cap`` members (all of them when cap is None)."""
    if cap is None or cap >= N:
        return 1 << N
    return sum(math.comb(N, k) for k in range(cap + 1))


class Tracer:
    """Span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int, layer: str, record: bool) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        idx = parent
        t0 = time.perf_counter()
        if record:
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t0)
            self.parent.append(parent)
            self.op_id.append(self.op)
        frame = [idx, layer, nid, t0, 0.0, record]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        idx, layer, nid, t0, child, record = frame
        dur = t1 - t0
        if record:
            self.end[idx] = t1
        self.self_s[layer] += dur - child
        self.incl_s[self.names[nid]] += dur
        if self.stack:
            self.stack[-1][4] += dur

    def dump(self, path) -> None:
        """Write the spans (name, start, end, parent index, operation id)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
        )


class _TracedIter:
    """Times each resumption of a wrapped generator; only the first is a span."""

    def __init__(self, tracer, gen, nid, layer, full):
        self._tracer, self._gen, self._nid, self._layer = tracer, gen, nid, layer
        self._full = full
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        frame = tr.enter(self._nid, self._layer, self._first)
        self._first = False
        try:
            item = next(self._gen)
        finally:
            tr.exit(frame)
        tr.counts[self._full + ".items"] += 1
        return item


def _wrap(tracer: Tracer, fn, full: str, layer: str, record: bool = True):
    nid = tracer.name_id(full)
    calls = tracer.calls
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            calls[full] += 1
            return _TracedIter(tracer, gen, nid, layer, full)

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        calls[full] += 1
        frame = tracer.enter(nid, layer, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        hook = HOOKS.get(full)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def _hook_compare(counts, args, kwargs, report):
    counts["oracle.subsets_tested"] += subsets_up_to(
        args[0].N, _arg(args, kwargs, 2, "max_cardinality")
    )
    counts["oracle.solutions"] += report.oracle_count


def _hook_brute(counts, args, kwargs, result):
    counts["oracle.subsets_tested"] += subsets_up_to(
        args[0], _arg(args, kwargs, 3, "max_cardinality")
    )
    counts["oracle.solutions"] += len(result)


def _hook_report(counts, args, kwargs, report):
    counts["fuglede.masks_scanned"] += (1 << args[0].N) - 1
    counts["fuglede.classes"] += len(report.classes)


HOOKS = {
    "oracle.compare_with_theorem": _hook_compare,
    "oracle.brute_force_solutions": _hook_brute,
    "fuglede.fuglede_report": _hook_report,
}


def _module_functions(mod):
    for attr, val in vars(mod).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(inspect.unwrap(val))
            and getattr(val, "__module__", None) == mod.__name__
        ):
            yield attr, val


def install(tracer: Tracer) -> None:
    """Wrap every public module-level function plus EXTRA_NAMES and HOT_METHODS."""
    mods = {layer: importlib.import_module(f"idemzeros.{layer}") for layer in LAYERS}
    targets = []
    for layer, mod in mods.items():
        if layer == "cli":
            continue  # the CLI runs in its own subprocesses
        for attr, val in _module_functions(mod):
            targets.append((layer, attr, val))
    for full in EXTRA_NAMES:
        layer, attr = full.split(".")
        if hasattr(mods[layer], attr):
            targets.append((layer, attr, getattr(mods[layer], attr)))
        else:
            tracer.absent.append(full)
    replaced = {}
    for layer, attr, val in targets:
        replaced[id(val)] = (val, _wrap(tracer, val, f"{layer}.{attr}", layer))
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    for full in HOT_METHODS:
        layer, cls_name, meth = full.split(".")
        cls = getattr(mods[layer], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            tracer.absent.append(full)
            continue
        setattr(cls, meth, _wrap(tracer, fn, full, layer, record=False))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process (summed over processes later)."""
    incl, calls, counts = tracer.incl_s, tracer.calls, tracer.counts
    out = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) for layer in LAYERS if layer != "cli"}
    out.update(
        {
            "zn_core.index_sets": calls["zn_core.IndexSet.__post_init__"],
            "cyclotomic.root_sums": calls["cyclotomic.root_sum"],
            "fourier.zero_sets": calls["fourier.zero_set"],
            "ramanujan.evals": sum(calls[n] for n in RAMANUJAN_EVALS),
            "digit_tables.enumerate_s": incl["digit_tables.enumerate_solutions"],
            "digit_tables.solutions": counts["digit_tables.enumerate_solutions.items"],
            "digit_tables.is_solution_s": incl["digit_tables.is_solution"],
            "digit_tables.is_solution_calls": calls["digit_tables.is_solution"],
            "oracle.subsets_tested": counts["oracle.subsets_tested"],
            "oracle.solutions": counts["oracle.solutions"],
            "oracle.vanish_masks_s": incl["oracle._vanish_masks"],
            "sampling.design_s": incl["sampling.design_pattern"],
            "sampling.simulate_s": incl["sampling.simulate"],
            "fuglede.masks_scanned": counts["fuglede.masks_scanned"],
            "fuglede.classes": counts["fuglede.classes"],
            "fuglede.check_s": incl["fuglede._check_class"],
            "trace.spans": len(tracer.start),
        }
    )
    return out
