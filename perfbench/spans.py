"""Outside-in spans around the library's layer boundaries.

While a traced pass runs, every module-level binding that holds one of the
functions in ``LAYERS`` (``voltage_tower.iwasawa.kirchhoff_count`` and every
other module global bound to the same object) is swapped for a recording
wrapper; the bindings are restored afterwards.  Nothing under ``src/``
changes.  A target that no longer exists is skipped, so its layer reports
zero calls instead of failing the run.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# (span name, module, attribute).  The functions through which one layer
# calls the next; ``polynomial`` and ``arith`` are left unwrapped because
# they are per-entry micro-calls whose wrapping would distort their
# callers' timings.
LAYERS = (
    ("cli.main", "voltage_tower.cli", "main"),
    ("documents.read_graph", "voltage_tower.documents", "read_graph"),
    ("documents.write", "voltage_tower.documents", "graph_to_document"),
    ("documents.write", "voltage_tower.documents", "tower_report_to_document"),
    ("documents.write", "voltage_tower.documents", "invariants_to_document"),
    ("documents.write", "voltage_tower.documents", "graph_to_dot"),
    ("iwasawa.invariants", "voltage_tower.iwasawa", "invariants"),
    ("iwasawa.verify_growth", "voltage_tower.iwasawa", "verify_growth"),
    ("iwasawa.char_poly", "voltage_tower.iwasawa", "char_poly"),
    ("tower.derive", "voltage_tower.tower", "derive"),
    ("graph.components", "voltage_tower.graph", "components"),
    ("graph.subgraph", "voltage_tower.graph", "subgraph"),
    ("graph.cycle_weight_profile", "voltage_tower.graph", "cycle_weight_profile"),
    ("linalg.kirchhoff_count", "voltage_tower.linalg", "kirchhoff_count"),
    (
        "linalg.poly_matrix_determinant",
        "voltage_tower.linalg",
        "poly_matrix_determinant",
    ),
    ("backend.bareiss", "voltage_tower.backend", "bareiss_determinant"),
)


def decimal_digits(n: int) -> int:
    """Digits of |n| without int->str (which refuses 4300+ digits)."""
    n = abs(n)
    digits = max(1, (n.bit_length() - 1) * 30103 // 100000)
    while 10**digits <= n:
        digits += 1
    return digits


def _vertices(graph: Any) -> int:
    return getattr(graph, "vertex_count", 0)


def _elimination_size(n: int) -> dict[str, int]:
    # Bareiss on an n x n matrix updates sum_{k<n-1} (n-1-k)^2 entries;
    # computed from the input dimension, not counted inside the kernel.
    return {"dim": n, "updates": (n - 1) * n * (2 * n - 1) // 6}


# Size attributes read from a span's arguments and result.
SIZES: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "backend.bareiss": lambda args, out: _elimination_size(len(args[0])),
    "linalg.kirchhoff_count": lambda args, out: {
        "kappa_digits": decimal_digits(out) if isinstance(out, int) else 0
    },
    "tower.derive": lambda args, out: {
        "vertices": _vertices(getattr(out, "graph", None))
    },
    "graph.subgraph": lambda args, out: {"vertices": _vertices(out)},
}


@dataclass(frozen=True)
class Span:
    job: str
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    sizes: Optional[dict[str, int]]


class Tracer:
    """Records spans of the layer calls made inside :meth:`job` blocks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._job: Optional[str] = None

    @contextmanager
    def installed(self):
        """Swap the layer bindings for recording wrappers, then restore."""
        patches = []
        for name, module_name, attr in LAYERS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, fn)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, key, fn))
                        setattr(module, key, wrapper)
        try:
            yield
        finally:
            for module, key, fn in reversed(patches):
                setattr(module, key, fn)

    @contextmanager
    def job(self, label: str):
        """Record spans of the calls made in this block, tagged ``label``."""
        self._job = label
        try:
            yield
        finally:
            self._job = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span_id = next(self._ids)
            self._stack.append(span_id)
            out = attrs = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                self._stack.pop()
                if sizes is not None and out is not None:
                    attrs = sizes(args, out)
                self.spans.append(
                    Span(self._job, span_id, parent, name, start, end, attrs)
                )

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _package_modules():
    # Public modules only: the benchmark never touches a private module.
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "voltage_tower" or name.startswith("voltage_tower.")
        ):
            continue
        if not name.rsplit(".", 1)[-1].startswith("_"):
            yield module


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    sums: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    maxima: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, self time, and sums and maxima of sizes."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.self_s += s.end - s.start - child_time[s.span_id]
        for key, value in (s.sizes or {}).items():
            t.sums[key] += value
            t.maxima[key] = max(t.maxima[key], value)
    return out
