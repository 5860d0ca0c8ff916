"""Span tracing of lscrystal from outside the package.

`Tracer.install` replaces every public module-level function of the
traced modules (lru-cached ones included) and the constructors of the
two path classes with a timing wrapper, in every
lscrystal namespace that holds a reference to it, so calls between the
package's own modules are seen too.  Nothing in the package changes;
`uninstall` puts the originals back.

Each call is one span (name, start, end, parent span, run id).  Self
time is computed when a span closes: its duration minus the time
covered by its child spans, which on one thread are disjoint and nested
inside it.  Counts, self times and caller->callee call counts cover
every span; the span records themselves are kept in memory up to
`span_cap` and written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("weyl", "paths", "explicit", "oracle", "cli")
TRACED_CLASSES = (("paths", "LSPath"), ("explicit", "ExplicitPath"))
# functions returning a collection; their spans also sum len(result)
SIZED = ("explicit.enumerate_explicit", "oracle.enumerate_ls_paths")
# lru caches read through cache_info(): label -> (module, attribute); a
# cache the package no longer has is skipped and its hit ratio undefined
CACHES = {
    "weyl.pq_table": ("weyl", "pq_table"),
    "weyl.orbit_weight": ("weyl", "orbit_weight"),
    "oracle.sigma_chain_exists": ("oracle", "_sigma_chain_cached"),
}


def _module(short: str):
    return importlib.import_module(f"lscrystal.{short}")


def _traceable(mod, attr: str, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, run_id: int, span_cap: int = 50_000):
        self.run_id = run_id
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.sizes: dict[int, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        # kept span records as parallel arrays; ids are given at span start
        self.spans = {
            "span": array("q"),
            "parent": array("q"),
            "name": array("l"),
            "start": array("d"),
            "end": array("d"),
        }
        self.spans_total = 0
        self._t0 = 0.0
        self._caches = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for label, (m, a) in CACHES.items():
            obj = getattr(_module(m), a, None)
            if hasattr(obj, "cache_info"):
                self._caches[label] = obj
        namespaces = [m for n, m in sys.modules.items() if n == "lscrystal" or n.startswith("lscrystal.")]
        # the stack holds [span id, name id, child time]; the root frame
        # collects the time of top-level spans
        stack = [[-1, -1, 0.0]]
        next_id = [0]
        for short in TRACED_MODULES:
            mod = _module(short)
            for attr, obj in list(vars(mod).items()):
                if not _traceable(mod, attr, obj):
                    continue
                wrapped = self._wrap(obj, f"{short}.{attr}", stack, next_id)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._restore.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(_module(short), cls_name)
            orig = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", orig))
            cls.__init__ = self._wrap(orig, f"{short}.{cls_name}", stack, next_id)
        self._t0 = perf_counter()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, name: str, stack: list, next_id: list):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        nid = len(self.names) - 1
        sized = name in SIZED
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        edges, sizes, spans, cap = self.edges, self.sizes, self.spans, self.span_cap
        s_id, s_parent, s_name = spans["span"], spans["parent"], spans["name"]
        s_start, s_end = spans["start"], spans["end"]
        tracer = self

        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1]
            frame = [sid, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[2] += dur
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[2]
                key = (parent[1], nid)
                edges[key] = edges.get(key, 0) + 1
                tracer.spans_total += 1
                if len(s_id) < cap:
                    s_id.append(sid)
                    s_parent.append(parent[0])
                    s_name.append(nid)
                    s_start.append(start)
                    s_end.append(end)
            if sized:
                sizes[nid] = sizes.get(nid, 0) + len(result)
            return result

        return traced

    def write_spans(self, path) -> None:
        """Append the kept spans as CSV, times in seconds from install."""
        sp = self.spans
        with open(path, "a", newline="") as fh:
            out = csv.writer(fh)
            if fh.tell() == 0:
                out.writerow(("run", "span", "parent", "name", "start_s", "end_s"))
            for k in range(len(sp["span"])):
                out.writerow(
                    (
                        self.run_id,
                        sp["span"][k],
                        sp["parent"][k],
                        self.names[sp["name"][k]],
                        repr(sp["start"][k] - self._t0),
                        repr(sp["end"][k] - self._t0),
                    )
                )

    def summary(self) -> dict:
        """Per-function counts and times, call-graph edges and cache counters."""
        funcs = {}
        for k, name in enumerate(self.names):
            funcs[name] = {"calls": self.calls[k], "self_s": self.self_s[k], "total_s": self.total_s[k]}
            if name in SIZED:
                funcs[name]["size"] = self.sizes.get(k, 0)
        edges = [[self.names[p] if p >= 0 else None, self.names[c], n] for (p, c), n in self.edges.items()]
        caches = {}
        for label, obj in self._caches.items():
            info = obj.cache_info()
            caches[label] = {"hits": info.hits, "misses": info.misses}
        return {
            "funcs": funcs,
            "edges": edges,
            "caches": caches,
            "spans_total": self.spans_total,
            "spans_kept": len(self.spans["span"]),
        }
