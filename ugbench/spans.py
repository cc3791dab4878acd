"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces every public function of each layer module, and
every public method of the classes those modules define, with a timing
wrapper.  The attribute is replaced on the defining module and on every
package module that imported the name (`cli.product`, `groupoid.product`,
...), so calls inside a module, such as `reaches -> edge_adjacency`, are
caught as well.

Spans are kept in memory as a calling-context tree: one node per request
and call path, holding name, layer, parent, request id, first start, last
end, call count and summed duration.  Calls along the same path in one
request fold into one node; one span per call would not fit in memory on
the algebra workload (several million calls per pass).  A layer's self time
is the duration of its nodes minus the part covered by their child nodes.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("fileformat", "core", "paths", "semigroup", "groupoid", "analysis", "cli")
PACKAGE = "ultragraph"
_ALL_MODULES = ("",) + LAYERS + ("fixtures",)

# Functions whose summed duration is reported by name.
TIMED = {
    "core.generate_lattice": "core.generate_lattice_s",
    "groupoid.check_groupoid_laws": "groupoid.check_groupoid_laws_s",
    "groupoid.verify_ck": "groupoid.verify_ck_s",
    "analysis.simplicity_verdict": "analysis.simplicity_verdict_s",
    "analysis.skew_product": "analysis.skew_product_s",
}
# Functions whose call count is reported by name.
CALLED = {
    "core.edge_adjacency": "core.edge_adjacency_calls",
    "core.reaches": "core.reaches_calls",
    "semigroup.product": "semigroup.product_calls",
    "groupoid.compose": "groupoid.compose_calls",
    "groupoid.groupoid_element": "groupoid.groupoid_element_calls",
}


def _count_len(key: str) -> Callable[[Dict[str, float], object], None]:
    def observe(counts: Dict[str, float], result) -> None:
        counts[key] = counts.get(key, 0) + len(result)

    return observe


def _count_true(key: str, test: Callable[[object], bool]):
    def observe(counts: Dict[str, float], result) -> None:
        if test(result):
            counts[key] = counts.get(key, 0) + 1

    return observe


# Observers look at a returned value and add to a named count.
OBSERVERS = {
    "core.generate_lattice": _count_len("core.lattice_sets"),
    "paths.enumerate_paths": _count_len("paths.paths_out"),
    "paths.enumerate_lassos": _count_len("paths.lassos_out"),
    "semigroup.generate_elements": _count_len("semigroup.elements_out"),
    "groupoid.build_elements": _count_len("groupoid.elements_out"),
    "semigroup.product": _count_true("semigroup.product_nonzero", lambda r: not r.is_omega),
    "groupoid.compose": _count_true("groupoid.compose_defined", lambda r: r is not None),
}


class Node:
    __slots__ = ("name", "layer", "parent", "request", "calls", "total", "start", "end", "children")

    def __init__(self, name: str, layer: str, parent: Optional["Node"], request: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.calls = 0
        self.total = 0.0
        self.start = 0.0
        self.end = 0.0
        self.children: Dict[str, "Node"] = {}


class Tracer:
    def __init__(self) -> None:
        self.roots: List[Node] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[Node] = []
        self._patches: List[tuple] = []

    # -- requests
    def begin(self, request: int) -> None:
        root = Node("request", "bench", None, request)
        root.start = perf_counter()
        self.roots.append(root)
        self._stack.clear()
        self._stack.append(root)

    def end(self, bytes_out: int) -> None:
        root = self._stack.pop()
        root.end = perf_counter()
        root.calls, root.total = 1, root.end - root.start
        self.counts["cli.bytes_out"] = self.counts.get("cli.bytes_out", 0) + bytes_out

    # -- patching
    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        st = self._stack
        observe = OBSERVERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = st[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, layer, parent, parent.request)
            st.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                if not node.calls:
                    node.start = t0
                node.calls += 1
                node.total += t1 - t0
                node.end = t1
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"{PACKAGE}.{m}" if m else PACKAGE) for m in _ALL_MODULES]
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    wrappers[id(val)] = self._wrap(val, f"{layer}.{attr}", layer)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    self._wrap_methods(val, layer)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, types.FunctionType):
                new = self._wrap(raw, name, layer)
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches = []

    # -- results
    def nodes(self):
        todo = list(self.roots)
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def metrics(self) -> Dict[str, float]:
        """Self time per layer, named durations and counts."""
        out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({key: 0.0 for key in TIMED.values()})
        out.update({key: 0 for key in CALLED.values()})
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        for node in self.nodes():
            if node.layer == "bench":
                continue
            child = sum(c.total for c in node.children.values())
            out[f"{node.layer}.self_s"] += node.total - child
            if node.name in TIMED:
                out[TIMED[node.name]] += node.total
            if node.name in CALLED:
                out[CALLED[node.name]] += node.calls
            out[f"{node.layer}.calls"] += node.calls
        c = self.counts
        for key in ("core.lattice_sets", "paths.paths_out", "paths.lassos_out",
                    "semigroup.elements_out", "groupoid.elements_out", "cli.bytes_out"):
            out[key] = c.get(key, 0)
        out["semigroup.product_nonzero_ratio"] = _ratio(
            c.get("semigroup.product_nonzero", 0), out["semigroup.product_calls"])
        out["groupoid.compose_defined_ratio"] = _ratio(
            c.get("groupoid.compose_defined", 0), out["groupoid.compose_calls"])
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, parents before children."""
        ids: Dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            todo = deque(self.roots)
            while todo:
                node = todo.popleft()
                ids[id(node)] = len(ids)
                fh.write(json.dumps({
                    "id": ids[id(node)],
                    "parent": None if node.parent is None else ids[id(node.parent)],
                    "request": node.request,
                    "name": node.name,
                    "layer": node.layer,
                    "start": node.start,
                    "end": node.end,
                    "calls": node.calls,
                    "total_s": node.total,
                }) + "\n")
                todo.extend(node.children.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
