"""Span tracing from outside the package.

Tracer.install wraps every public function of each layer module so that a
call arriving from another module, or from the benchmark through the
proxies it returns, records a span (name, start, end, parent, operation).
Calls inside a module keep going to the unwrapped function, so a layer's
own helpers cost nothing and its time shows as that layer's self time.
Generator functions get one span per resumption, which keeps the time the
consumer spends between items out of the generator's span.  No source file
is changed: install rebinds module attributes and uninstall restores them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from collections import Counter
from typing import Dict, List

LAYERS = ("topology", "planner", "constructions", "plsim", "arcs", "covering4", "cli")
# Reached only through cli; not wrapped, so its time counts as cli self time.
UNTRACED_MODULES = ("brill_noether",)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans in memory.  `hooks` maps a span name to a function
    (args, result, counts) run after the span closes, for counts that must
    not be timed; `hook_ns` is the time they took."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.yields: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hooks: Dict[str, object] = {}
        self.hook_ns = 0
        self.op = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):

            def resume(gen):
                while True:
                    idx = len(spans)
                    spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx][END] = clock()
                    self.yields[name] += 1
                    yield item

            def traced(*args, **kwargs):
                self.calls[name] += 1
                return resume(fn(*args, **kwargs))

        else:

            hook = self.hooks.get(name)

            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][END] = clock()
                if hook is not None:
                    t = clock()
                    hook(args, result, self.counts)
                    self.hook_ns += clock() - t
                return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> types.SimpleNamespace:
        """Wrap the layers' public functions; return proxies of the layer
        modules for the benchmark to call through."""
        mods = {n: importlib.import_module(f"realcover.{n}") for n in LAYERS + UNTRACED_MODULES}
        wrapped: Dict[object, object] = {}
        proxies: Dict[str, types.ModuleType] = {}
        for layer in LAYERS:
            mod = mods[layer]
            proxy = types.ModuleType(mod.__name__)
            proxy.__dict__.update(vars(mod))
            for name, obj in vars(mod).items():
                public = inspect.isfunction(obj) and not name.startswith("_")
                if public and obj.__module__ == mod.__name__:
                    wrapped[obj] = proxy.__dict__[name] = self._wrap(obj, f"{layer}.{name}")
            proxies[layer] = proxy
        by_name = {mod.__name__: layer for layer, mod in mods.items()}
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType) and by_name.get(obj.__name__) in proxies:
                    self._patch(mod, name, proxies[by_name[obj.__name__]])
                elif inspect.isfunction(obj) and obj in wrapped and obj.__module__ != mod.__name__:
                    self._patch(mod, name, wrapped[obj])
        return types.SimpleNamespace(**proxies)

    def _patch(self, mod, name, value) -> None:
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self) -> None:
        while self._undo:
            mod, name, value = self._undo.pop()
            setattr(mod, name, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Seconds per span: its duration minus the durations of its children."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) / 1e9 for s, c in zip(spans, child)]


def outermost(spans: List[list]) -> List[bool]:
    """Whether each span has no ancestor of the same name, so that busy time
    summed over these spans counts re-entrant calls once."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def layer_of(span: list) -> str:
    return span[NAME].split(".", 1)[0]
