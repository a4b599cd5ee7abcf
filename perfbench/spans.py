"""Per-layer tracing of koszulkit from outside the library.

``Tracer.install_spans`` rebinds the public functions of each
koszulkit module -- in the defining module and in every module that
imported them with ``from .x import f`` -- plus a few methods, to
wrappers that record spans (name, start, end, parent).  Spans stay
in memory as flat arrays and are written out once, when the run ends.
Work done by a wrapper itself (hashing an argument, scanning a result)
happens outside the span it records, so it lands in the caller's self
time and in ``trace.overhead_ratio``, not in the layer it measures.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYER_MODULES = ("matrices", "fgmodules", "presented", "complexes", "koszul",
                 "sfiltering", "k0", "generators", "suites", "jsonio")

# Public functions whose span name is not "<module>.<function>".
SPAN_RENAMES = {
    ("matrices", "solve"): "matrices.echelon",
    ("matrices", "kernel_basis"): "matrices.echelon",
    ("matrices", "image_basis"): "matrices.echelon",
}

COUNTED_RING_METHODS = ("mul", "divmod", "ext_gcd")


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered, reach = 0.0, lo
        for start, end in sorted((starts[k], ends[k]) for k in kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[parent] -= covered
    return out


def _span_name(module: str, function: str) -> str:
    if module == "jsonio" and function.endswith("_from_json"):
        return "jsonio.parse"
    if module == "jsonio" and function.endswith("_to_json"):
        return "jsonio.serialize"
    return SPAN_RENAMES.get((module, function), f"{module}.{function}")


def _element_bits(x) -> int:
    return abs(x).bit_length() if isinstance(x, int) else max(len(x) - 1, 0)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.labels: dict = {}
        self._stack = [-1]
        self.counts: dict = defaultdict(int)
        self.seen: dict = defaultdict(set)
        self.zero_reads = 0
        self.reads = 0
        self.max_bits = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, /, *args, label: str | None = None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        idx = self._open(name)
        if label is not None:
            self.labels[idx] = label
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.starts[idx] = start
            self.ends[idx] = end

    def spanned(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for ratio and growth counters ----------------------------------

    def _repeat_hook(self, family: str):
        seen, counts = self.seen[family], self.counts

        def before(args):
            key = args[0]
            if key in seen:
                counts[f"{family}.repeats"] += 1
            else:
                seen.add(key)

        return before

    def _mul_hook(self, args):
        left, right = args
        if left.cols and getattr(right, "cols", 0):
            zero = left.ring.zero
            zeros = sum(row.count(zero) for row in left.entries)
            self.zero_reads += zeros * right.cols
            self.reads += left.rows * left.cols * right.cols

    def _snf_result(self, cert):
        for mat in (cert.U, cert.V):
            for row in mat.entries:
                for x in row:
                    bits = _element_bits(x)
                    if bits > self.max_bits:
                        self.max_bits = bits

    # -- installation ----------------------------------------------------------

    def install_spans(self):
        """Wrap koszulkit in this process; call after every koszulkit import."""
        import koszulkit  # noqa: F401  (loads every module)
        from koszulkit import complexes, fgmodules, matrices, rings

        replacements = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"koszulkit.{short}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = _span_name(short, attr)
                    before = after = None
                    if name == "matrices.snf":
                        before, after = self._repeat_hook("snf"), self._snf_result
                    elif name == "matrices.echelon":
                        before = self._repeat_hook("echelon")
                    replacements[value] = self.spanned(name, value, before, after)
        for module_name, module in list(sys.modules.items()):
            if module_name == "koszulkit" or module_name.startswith("koszulkit."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replacements:
                        setattr(module, attr, replacements[value])
        suites = sys.modules["koszulkit.suites"]
        for key, body in list(suites.SUITES.items()):
            suites.SUITES[key] = replacements.get(body, body)

        matrices.Matrix.__mul__ = self.spanned("matrices.mul", matrices.Matrix.__mul__,
                                               before=self._mul_hook)
        make = fgmodules.FgModule.__dict__["make"].__func__
        fgmodules.FgModule.make = classmethod(self.spanned("fgmodules.make", make))
        for cls in (complexes.ChainComplex, complexes.ChainMap, complexes.Homotopy):
            cls.__init__ = self.spanned("complexes.check", cls.__init__)
        for cls in (rings.IntegerRing, rings.PrimeFieldPolynomialRing):
            cls.factor = self.spanned("rings.factor", cls.factor)

    def install_ring_counters(self):
        """Count ring multiplications, divisions and gcds.

        These run millions of times per run, so they are counted in a
        pass of their own: a counter inside every product would inflate
        the self time of the spans around it.
        """
        from koszulkit import rings

        for cls in (rings.IntegerRing, rings.PrimeFieldPolynomialRing):
            for method in COUNTED_RING_METHODS:
                setattr(cls, method, self.counted(f"rings.{method}.calls", getattr(cls, method)))

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, self-time total, and the list of durations."""
        own = self_times(self.starts, self.ends, self.parents)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += own[i]
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def durations_of(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.name_of) if n == name_id]

    def durations_under(self, parent_name: str, child_name: str) -> dict:
        """Durations of ``child_name`` spans whose parent is a labelled
        ``parent_name`` span, grouped by that parent's label."""
        out = defaultdict(list)
        child_id = self._name_ids.get(child_name)
        for i, name_id in enumerate(self.name_of):
            parent = self.parents[i]
            if name_id == child_id and parent in self.labels \
                    and self.names[self.name_of[parent]] == parent_name:
                out[self.labels[parent]].append(self.ends[i] - self.starts[i])
        return dict(out)

    def write(self, path: str):
        """Write every span: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.starts),
                  "labels": {str(k): v for k, v in self.labels.items()},
                  "arrays": ["name_of:H", "starts:d", "ends:d", "parents:i"]}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.starts, self.ends, self.parents):
                handle.write(arr.tobytes())
