"""Spans and work counters around uag's public functions, for the traced run.

``Tracer.install`` wraps every public function of every uag module (plus a
few hot methods) and rebinds the wrapper in every ``uag.*`` namespace that
binds the original, because modules import each other's functions by name.
A wrapper records a span (name, start, end, parent span, op id); a recursive
re-entry of a function already on the stack is folded into its outermost
span. Self time is a span's duration minus the time its child spans cover,
including the child wrappers' own bookkeeping, which is booked separately, so
self times plus bookkeeping add up to the traced wall time. Work counts are
read from arguments and results after the span closes.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import uag

MODULES = (
    "terms",
    "algebras",
    "congruences",
    "spaces",
    "geometry",
    "rules",
    "logic",
    "sexpr",
    "cli",
    "reports",
    "config",
)

# (module, class, method): hot methods whose time belongs to their own layer
METHODS = (
    ("spaces", "GeoContext", "__init__"),
    ("spaces", "PointSet", "__init__"),
    ("algebras", "GeneratedSubalgebra", "as_algebra"),
    ("congruences", "KernelCongruence", "contains"),
    ("congruences", "KernelCongruence", "image"),
    ("congruences", "LazyMeetKernel", "contains"),
    ("congruences", "GroundCongruence", "contains"),
    ("geometry", "CoordinateAlgebra", "kernel"),
)


# index arithmetic called once per table cell; left unwrapped so its time stays
# in the caller (product, meet_kernels) instead of doubling under tracing
FOLDED = frozenset({"algebras.index_to_tuple", "algebras.tuple_to_index"})

SPAN_FIELDS = (("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"), ("parent", "q"), ("op", "q"))
SPAN_KEYS = tuple(k for k, _ in SPAN_FIELDS)
MAX_SPANS = 1_000_000  # spans beyond this are aggregated but not kept


def _cells(alg) -> int:
    return sum(len(t) for t in alg.tables.values())


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.bookkeeping_s = 0.0
        # spans as parallel arrays: id, name index, start, end, parent id, op id
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans = {k: array(t) for k, t in SPAN_FIELDS}
        self.spans_dropped = 0
        self.op_id = -1
        self._stack = [[0.0, -1]]  # [covered time, span id]; bottom is the harness
        self._next_id = 0
        self._active = defaultdict(int)
        self._patched = []

    # ------------------------------------------------------------ spans

    def wrap(self, name, fn, counter):
        tracer, active, stack, spans = self, self._active, self._stack, self.spans
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        name_ix = self._name_ix

        def wrapper(*args, **kwargs):
            if active[name]:
                tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            entered = perf_counter()
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            nix = name_ix[name]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                tracer.self_s[name] += end - start - frame[0]
                tracer.total_s[name] += end - start
                if len(spans["id"]) < MAX_SPANS:
                    for key, value in zip(SPAN_KEYS, (sid, nix, start, end, parent, tracer.op_id)):
                        spans[key].append(value)
                else:
                    tracer.spans_dropped += 1
                tracer.counts[name + ".calls"] += 1
                if ok and counter is not None:
                    counter(tracer.counts, args, kwargs, result)
                left = perf_counter()
                tracer.bookkeeping_s += (left - entered) - (end - start)
                stack[-1][0] += left - entered
            return result

        return wrapper

    def _wrap_generator(self, name, fn, counter):
        step = self.wrap(name, lambda it: next(it), None)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                if counter is not None:
                    counter(self.counts, args, kwargs, value)
                yield value

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        mods = {m: sys.modules[f"uag.{m}"] for m in MODULES if f"uag.{m}" in sys.modules}
        namespaces = [uag] + list(mods.values())
        replace = {}
        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{m}.{attr}"
                if attr.startswith("_") or name in FOLDED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                counter = COUNTERS.get(name)
                if name == "geometry.variety_of_kernel":
                    counter = self._count_sweep_closure
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = (fn, self._wrap_generator(name, fn, counter))
                else:
                    replace[id(fn)] = (fn, self.wrap(name, fn, counter))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, obj))
        for m, cls, meth in METHODS:
            klass = getattr(mods[m], cls)
            fn = vars(klass)[meth]
            name = f"{m}.{cls}.{meth}"
            setattr(klass, meth, self.wrap(name, fn, COUNTERS.get(name)))
            self._patched.append((klass, meth, fn))

    def _count_sweep_closure(self, c, args, kw, r):
        if self._active["geometry.all_closed_point_sets"]:
            c["geometry.all_closed_point_sets.closures"] += 1

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def span_count(self) -> int:
        return len(self.spans["id"]) + self.spans_dropped

    def write_spans(self, path: str) -> None:
        """One CSV line per recorded span: id,name,start,end,parent,op."""
        cols = [self.spans[k] for k in SPAN_KEYS]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(",".join(SPAN_KEYS) + "\n")
            for sid, nix, start, end, parent, op in zip(*cols):
                fh.write(f"{sid},{self.names[nix]},{start:.9f},{end:.9f},{parent},{op}\n")

    def layer_self(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def module_calls(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.counts.items() if k.startswith(prefix) and k.endswith(".calls"))


# ---------------------------------------------------------------- counters
# each gets (counts, args, kwargs, result) and adds to named work counts


def _c_geocontext(c, args, kw, r):
    c["spaces.geocontext.points"] += len(args[0].points)


def _c_pointset(c, args, kw, r):
    c["spaces.pointset.built"] += 1
    c["spaces.pointset.indices"] += len(args[0].indices)


def _c_load_workspace(c, args, kw, r):
    c["sexpr.bytes_in"] += len(args[0].encode())


def _c_inline(c, args, kw, r):
    c["sexpr.bytes_in"] += len(args[0].encode())


def _c_emit(c, args, kw, r):
    c["reports.bytes_out"] += len(r.encode())


def _c_subalgebra(c, args, kw, r):
    c["algebras.subalgebra_generated.members"] += r.size()


def _c_hom_extension(c, args, kw, r):
    c["algebras.hom_extension.hits"] += r is not None


def _c_enumerate_homs(c, args, kw, r):
    c["algebras.enumerate_homs.homs"] += len(r)


def _c_product(c, args, kw, r):
    c["algebras.product.cells"] += _cells(r)


def _c_meet(c, args, kw, r):
    if type(r).__name__ == "LazyMeetKernel":
        c["congruences.meet_kernels.lazy"] += 1
    elif len(args[0]) > 1:
        c["congruences.meet_kernels.product_cells"] += _cells(r.target)


def _c_ground(c, args, kw, r):
    c["congruences.ground_closure.terms"] += len(getattr(r, "_parent", ()))


def _c_variety_of(c, args, kw, r):
    c["geometry.variety_of.points_scanned"] += len(args[0].points)


def _c_coordinate(c, args, kw, r):
    c["geometry.coordinate_algebra.elements"] += sum(r.algebra.sizes)
    c["geometry.coordinate_algebra.cells"] += _cells(r.algebra)


def _c_closed_set(c, args, kw, r):
    c["geometry.all_closed_point_sets.closed_sets"] += 1


def _c_derive(c, args, kw, r):
    c["rules.derive_closure.rounds"] += r.rounds
    c["rules.derive_closure.clauses"] += len(r.clauses)
    c["rules.derive_closure.exhausted"] += bool(r.exhausted)


def _c_eval_formula(c, args, kw, r):
    c["logic.eval_formula.points"] += len(args[2].points)


COUNTERS = {
    "spaces.GeoContext.__init__": _c_geocontext,
    "spaces.PointSet.__init__": _c_pointset,
    "sexpr.load_workspace": _c_load_workspace,
    "sexpr.parse_inline_term": _c_inline,
    "sexpr.parse_inline_pair": _c_inline,
    "sexpr.parse_inline_subst": _c_inline,
    "reports.emit": _c_emit,
    "algebras.subalgebra_generated": _c_subalgebra,
    "algebras.hom_extension": _c_hom_extension,
    "algebras.enumerate_homs": _c_enumerate_homs,
    "algebras.product": _c_product,
    "congruences.meet_kernels": _c_meet,
    "congruences.ground_closure": _c_ground,
    "geometry.variety_of": _c_variety_of,
    "geometry.coordinate_algebra": _c_coordinate,
    "geometry.all_closed_point_sets": _c_closed_set,
    "rules.derive_closure": _c_derive,
    "logic.eval_formula": _c_eval_formula,
}
