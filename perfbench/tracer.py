"""Span tracing around the public functions of each nodalcodes layer.

The tracer rebinds every listed function, in every ``nodalcodes`` module
namespace that binds it, to a timing wrapper.  ``classify`` imports
``enumerate_codes`` by name and ``cli`` imports the classify entry points
by name, so rebinding only the defining module would miss those calls.

A span is ``[name, start, end, parent, op, error, note]`` with times from
``time.perf_counter()``; ``parent`` is the index of the enclosing span in
the same op, or -1.  Spans are kept in memory and handed out per op.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

# The public functions the workloads reach, by layer.  Their spans give the
# per-layer metrics listed in BENCHMARK.json.
TARGETS: Dict[str, List[str]] = {
    "gf2": [
        "canonical_form", "enumerate_codes", "equivalent", "make_code",
        "weight_enumerator", "recognize_de", "parse_code",
    ],
    "lattices": [
        "construction_a", "roots", "identify_root_system", "discriminant",
    ],
    "classify": [
        "feasible_kr_pairs", "saturated_node_sweep", "classify_involution",
        "fiber_budget",
    ],
    "covers": ["cover_invariants"],
    "cli": ["run"],
}

NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


class Tracer:
    """Collects spans for the op currently running; idle between ops."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._seen_canonical: set = set()

    def begin_op(self, op: int) -> None:
        self.spans = []
        self._stack = []
        self._op = op

    def end_op(self) -> List[list]:
        spans, self.spans, self._op = self.spans, [], None
        return spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:  # oracle checks run between ops, untraced
                return fn(*args, **kwargs)
            note = None
            if name == "gf2.canonical_form":
                key = args[0] if args else kwargs.get("code")
                note = key in self._seen_canonical  # repeat of an argument
                self._seen_canonical.add(key)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self._op, False, note]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if name == "lattices.roots":
                span[NOTE] = len(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind every TARGETS function in each module namespace binding it."""
    for layer in TARGETS:
        importlib.import_module(f"nodalcodes.{layer}")
    modules = [
        m for n, m in sys.modules.items()
        if n == "nodalcodes" or n.startswith("nodalcodes.")
    ]
    for layer, names in TARGETS.items():
        home = sys.modules[f"nodalcodes.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
