"""Spans around the program's layers, installed from the benchmark's side.

`Tracer.install` replaces every public module-level function of each layer
module (and a few named methods) with a wrapper that records a span: name,
layer, start, end, parent span and task id.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children, so a layer's self time is the time
spent in it minus the time covered by calls into other layers.

The `Permutation` dunders are deliberately not wrapped: they run millions
of times per run, and their cost shows up in the calling layer's self time.
"""
from __future__ import annotations

import gzip
import inspect
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("perms", "shapes", "pipedreams", "poly", "complexes", "shuffles", "cli")
METHODS = (
    ("poly", "Polynomial", "__add__", "poly.Polynomial.add"),
    ("poly", "Polynomial", "__sub__", "poly.Polynomial.sub"),
    ("poly", "Polynomial", "__mul__", "poly.Polynomial.mul"),
    ("complexes", "SimplicialComplex", "reduced_euler_characteristic",
     "complexes.reduced_euler_characteristic"),
)
# functions whose calls from outside their layer are checked for repeated arguments
REPEATS = ("perms.reduced_words", "complexes.classify_ball_or_sphere")
# functions whose per-call time is reported by input size
SCALING = {
    "pipedreams.all_pipe_dreams": "n",
    "pipedreams.reduced_pipe_dreams": "n",
    "shuffles.monk_shuffle": "word length",
    "shuffles.pieri_shuffle": "word length",
    "complexes.vertex_decomposition": "ambient length",
}


def _size(name, args, result):
    if name.startswith("pipedreams."):
        return next(iter(result)).n if result else None
    if name.startswith("shuffles."):
        return len(args[1])
    return len(args[0].vertices)


def _output_count(name: str, result, outside: bool) -> tuple[str, int] | None:
    """The counter a call adds to, and by how much."""
    if name in ("pipedreams.reduced_pipe_dreams", "pipedreams.all_pipe_dreams"):
        return name + ".dreams_out", len(result)
    if name == "shapes.enumerate_tableaux":
        return name + ".tableaux_out", len(result)
    if not outside:
        return None
    if name == "perms.reduced_words":
        return name + ".words_out", len(result)
    layer = name.split(".", 1)[0]
    if layer == "poly":
        if hasattr(result, "terms"):
            return "poly.terms_out", len(result.terms)
        if isinstance(result, dict):
            return "poly.terms_out", sum(len(v.terms) for v in result.values()
                                         if hasattr(v, "terms"))
    if layer == "complexes":
        if hasattr(result, "facets"):
            return "complexes.facets_out", len(result.facets)
        if isinstance(result, dict):
            return "complexes.facets_out", sum(len(v.facets) for v in result.values()
                                               if hasattr(v, "facets"))
    return None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.task = -1
        self.names: list[str] = []
        self.name_layer: list[int] = []
        # raw spans, one entry per span in order of entry
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("i")
        self.tasks = array("i")
        self.failed = array("b")
        self.stack: list[list] = []   # [span id, layer id, child time]
        # aggregates, per name id
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = {name: set() for name in REPEATS}
        self.outside_calls: Counter = Counter()
        self.repeat_calls: Counter = Counter()
        self.scaling: dict[str, list] = defaultdict(list)

    # -- installing ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(name.split(".", 1)[0]))
        self.self_s.append(0.0)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer module in `modules`
        (layer name -> module object) and the methods named in METHODS.
        """
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    setattr(module, attr, self.wrap(value, f"{layer}.{attr}"))
        for layer, cls_name, attr, name in METHODS:
            if layer in modules:
                cls = getattr(modules[layer], cls_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        layer = self.name_layer[nid]
        key_seen = self.keys.get(name)
        scaling = name in SCALING
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outside = parent is None or parent[1] != layer
            if key_seen is not None and outside:
                tracer.outside_calls[name] += 1
                key = (args, tuple(sorted(kwargs.items())))
                if key in key_seen:
                    tracer.repeat_calls[name] += 1
                else:
                    key_seen.add(key)
            sid = len(tracer.starts)
            frame = [sid, layer, 0.0]
            stack.append(frame)
            tracer.parents.append(parent[0] if parent else -1)
            tracer.name_ids.append(nid)
            tracer.tasks.append(tracer.task)
            tracer.failed.append(0)
            tracer.ends.append(0.0)
            start = perf_counter()
            tracer.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[sid] = 1
                tracer.errors[nid] += 1
                raise
            finally:
                end = perf_counter()
                tracer.ends[sid] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.self_s[nid] += duration - frame[2]
                tracer.calls[nid] += 1
            counted = _output_count(name, result, outside)
            if counted:
                tracer.counters[counted[0]] += counted[1]
            if scaling and (outside or not name.startswith("complexes.")):
                tracer.scaling[name].append((_size(name, args, result), duration))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer and per-function rows, keyed by metric name."""
        out = {}
        for lid, layer in enumerate(LAYERS):
            ids = [i for i, l in enumerate(self.name_layer) if l == lid]
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.errors"] = self.errors[i]
        out.update(self.counters)
        for name in REPEATS:
            calls = self.outside_calls[name]
            out[f"{name}.repeat_ratio"] = self.repeat_calls[name] / calls if calls else 0.0
        return out

    def scaling_rows(self) -> list[dict]:
        """Median per-call seconds by input size, and the first size whose
        median reaches one second.
        """
        rows = []
        for name, axis in SCALING.items():
            by_size = defaultdict(list)
            for size, seconds in self.scaling.get(name, ()):
                if size is not None:
                    by_size[size].append(seconds)
            points = [{"size": size, "calls": len(v), "median_s": statistics.median(v)}
                      for size, v in sorted(by_size.items())]
            over = [p["size"] for p in points if p["median_s"] >= 1.0]
            rows.append({"name": name, "axis": axis, "points": points,
                         "first_size_over_1s": over[0] if over else None})
        return rows

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tlayer\tstart_s\tend_s\tparent\ttask\terror\n")
            t0 = self.starts[0] if self.starts else 0.0
            for sid in range(len(self.starts)):
                nid = self.name_ids[sid]
                fh.write(f"{sid}\t{self.names[nid]}\t{LAYERS[self.name_layer[nid]]}\t"
                         f"{self.starts[sid] - t0:.7f}\t{self.ends[sid] - t0:.7f}\t"
                         f"{self.parents[sid]}\t{self.tasks[sid]}\t{self.failed[sid]}\n")
        return len(self.starts)
