"""Spans recorded around the package's public names, from outside the package.

`Tracer.install()` replaces each target wherever a `cqa` module binds it
(module functions) or on its class (methods) with a wrapper that records a
span: name, start, end, parent and one count taken from the result.
`uninstall()` puts the originals back, so untraced runs execute the
package's own code with no wrapper in the way.  A target the package no
longer defines is skipped and reports zero calls.

Spans live in flat arrays while the run lasts; `aggregate` computes each
span's self time as its duration minus its children's, and `write` dumps
them as gzipped TSV at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _size(result) -> int:
    try:
        return len(result)
    except TypeError:  # a lazy result has no length; count nothing
        return 0


def _tuples(result) -> int:
    return len(getattr(result, "tuples", ()))


# (label, module, attribute path, count taken from the result)
TARGETS: list[tuple[str, str, str, object]] = [
    ("attacks.attack_graph", "cqa.attacks", "attack_graph", None),
    ("queries.instantiate", "cqa.queries", "instantiate", None),
    ("queries.substitute", "cqa.queries", "substitute", None),
    ("queries.ConjunctiveQuery.without", "cqa.queries", "ConjunctiveQuery.without", None),
    ("queries.parse_query", "cqa.queries", "parse_query", None),
    ("fds.FunctionalDependencySet.closure", "cqa.fds", "FunctionalDependencySet.closure", None),
    ("classify.in_cparsimony", "cqa.classify", "in_cparsimony", None),
    ("classify.in_cforest", "cqa.classify", "in_cforest", None),
    ("instances.DatabaseInstance", "cqa.instances", "DatabaseInstance.__init__", None),
    ("instances.relation_facts", "cqa.instances", "DatabaseInstance.relation_facts", _size),
    ("instances.block", "cqa.instances", "DatabaseInstance.block", None),
    ("instances.enumerate_repairs", "cqa.instances", "enumerate_repairs", None),
    ("instances.repair_count", "cqa.instances", "repair_count", None),
    ("instances.load_bundle", "cqa.instances", "load_bundle", None),
    ("evaluate.evaluate", "cqa.evaluate", "evaluate", _tuples),
    ("evaluate.certain_answers", "cqa.evaluate", "certain_answers", _tuples),
]


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        return self._open(self._id(name))

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, n: int = 0) -> None:
        self.end[i] = perf_counter()
        self.count[i] = n
        self._stack.pop()

    def _wrap(self, label: str, fn, measure):
        nid = self._id(label)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The work happens while the caller iterates; the span marks the
            # call and its count is the number of items yielded.
            def wrapper(*args, **kwargs):
                i = tracer._open(nid)
                tracer.close(i)
                for item in fn(*args, **kwargs):
                    tracer.count[i] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                i = tracer._open(nid)
                n = 0
                try:
                    out = fn(*args, **kwargs)
                    if measure is not None:
                        n = measure(out)
                    return out
                finally:
                    tracer.close(i, n)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for label, module, path, measure in self.targets:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(label, original, measure)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "cqa" or name.startswith("cqa."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root-span name, per span name: calls, total_s, self_s, count,
        plus `roots` (how many root spans of that name there were).  Counts of
        `evaluate.evaluate` spans directly under `evaluate.certain_answers`
        are also summed as the latter's `candidates`."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        root = array("l", bytes(array("l").itemsize * n))
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child[p] += self.end[i] - self.start[i]
        evaluate_id = self._ids.get("evaluate.evaluate")
        certain_id = self._ids.get("evaluate.certain_answers")
        out: dict[str, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        )
        for i in range(n):
            group = out[self.names[self.name[root[i]]]]
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rec = group[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["count"] += self.count[i]
            p = self.parent[i]
            if self.name[i] == evaluate_id and p >= 0 and self.name[p] == certain_id:
                group["evaluate.certain_answers"]["candidates"] = (
                    group["evaluate.certain_answers"].get("candidates", 0) + self.count[i]
                )
        return out

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tcount\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.count[i]}\n"
                )
