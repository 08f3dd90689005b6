"""Spans around the public functions of each povmtree layer.

The tracer replaces each traced function by a wrapper in every povmtree
module that holds a reference to it, because callers look functions up in
their own module's namespace (``tree.py`` calls ``pseudo_inverse`` through
``povmtree.tree.pseudo_inverse``).  A traced class gets its ``__init__``
wrapped instead.  Each call appends one span, ``[name, start_ns, end_ns,
parent]``, to an in-memory list; ``parent`` is the index of the enclosing
span or -1.  Nothing is patched until :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (layer, public name) pairs; the span is called "<layer>.<name>".
TARGETS = (
    ("linalg", "hermitian_eig"),
    ("linalg", "psd_sqrt"),
    ("linalg", "pseudo_inverse"),
    ("linalg", "complete_to_unitary"),
    ("povm", "validate"),
    ("povm", "default_kraus"),
    ("povm", "apply_freedom"),
    ("tree", "compile_tree"),
    ("tree", "split_node"),
    ("tree", "null_space_isometry"),
    ("tree", "verify"),
    ("dilation", "dilate_binary"),
    ("dilation", "full_neumark"),
    ("simulator", "propagate"),
    ("simulator", "QuantumState"),
    ("simulator", "direct_probabilities"),
    ("simulator", "sample"),
    ("io", "save_tree"),
    ("io", "load_tree"),
)

LAYERS = ("linalg", "povm", "tree", "dilation", "simulator", "io")
PACKAGE = "povmtree"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, attr in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
            name = f"{layer}.{attr}"
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self._wrap(name, init))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summarize(self, start: int, end: int) -> dict:
        """Calls and milliseconds per span name, and self time per layer.

        Covers spans[start:end], which must hold whole call trees.  A span's
        self time is its duration minus the durations of its direct children.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(int)
        child = defaultdict(int)
        layer_self: defaultdict = defaultdict(int)
        # children come after their parent, so walking backwards sees every
        # child before its parent
        for i in range(end - 1, start - 1, -1):
            name, t0, t1, parent = self.spans[i]
            duration = t1 - t0
            calls[name] += 1
            total[name] += duration
            layer_self[name.split(".", 1)[0]] += duration - child.pop(i, 0)
            if parent >= 0:
                child[parent] += duration
        out = {}
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total[name] / 1e6
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
        return out

    def dump(self) -> dict:
        """Spans as a compact table: names once, rows [name_index, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}
