"""Span recorder for the traced benchmark run.

The recorder wraps public callables of ``pathweights`` from outside the
package: it replaces the attribute on its defining module or class and on
every other ``pathweights`` module that imported the same object by name
(``from .graphs import enumerate_paths`` makes such a copy). Private helpers
are not wrapped, so a span's time includes whatever private work it does.

Spans live in memory as ``[name, parent, op, start, end, size]`` rows and are
written out once, at the end of the run. A target that a later refactor
removes is reported in ``absent`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Wrapped callables, as "<module>.<attribute path>" under ``pathweights``.
TARGETS = (
    "cli.main",
    "modelio.load_model", "modelio.report_rows", "modelio.format_report",
    "model.Model.__init__",
    "graphs.enumerate_paths",
    "symmetric.chol_det", "symmetric.SymMatrix.inverse", "symmetric.SymMatrix.schur_complement",
    "centrality.betweenness",
    "decomposition.decompose", "decomposition.rank_paths",
    "weights.weight", "weights.partial_weight", "weights.factorize",
    "weights.normalized_weight", "weights.weight_bounds", "weights.edge_measures",
    "inflation.inflation_factor", "inflation.inflation_factor_identities",
    "inflation.global_collinearity",
    "fit.ips_fit", "fit.mtp2_sign_search",
)

#: Targets whose result length is recorded as the span's size.
SIZED = {"graphs.enumerate_paths", "decomposition.rank_paths"}

#: Child layers subtracted from a span to give its self time.
KERNEL_LAYERS = ("graphs.", "symmetric.")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.rebound: dict[str, list[str]] = {}
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"pathweights.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[path[-1]] if isinstance(owner, type) else getattr(owner, path[-1])
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            places = [owner]
            if not isinstance(owner, type):
                places += [mod for name, mod in sorted(sys.modules.items())
                           if name == "pathweights" or name.startswith("pathweights.")
                           if mod is not owner and getattr(mod, path[-1], None) is original]
            for place in places:
                self._undo.append((place, path[-1], original))
                setattr(place, path[-1], wrapper)
            self.rebound[target] = [getattr(p, "__name__", str(p)) for p in places]

    def uninstall(self) -> None:
        for place, attr, original in reversed(self._undo):
            setattr(place, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            row = [name, stack[-1] if stack else -1, self.op, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
                if sized:
                    row[5] = len(out)
                return out
            finally:
                row[4] = clock()
                stack.pop()

        return traced

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per target: calls, total seconds, self seconds and summed size.

        Self time is the duration minus the time covered by direct children
        in the graphs and symmetric layers.
        """
        kernel_child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0 and name.startswith(KERNEL_LAYERS):
                kernel_child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
        for i, (name, parent, _, start, end, size) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - kernel_child[i]
            agg["size"] += size
        # paths weighed: every path the enumeration returns is weighed, except
        # under rank_paths, which weighs only the paths it returns
        weighed = out["decomposition.rank_paths"]["size"] + sum(
            size for name, parent, _, _, _, size in self.spans
            if name == "graphs.enumerate_paths"
            and (parent < 0 or self.spans[parent][0] != "decomposition.rank_paths"))
        out["weights.paths_weighed"]["size"] = weighed
        return out

    def write(self, path: Path) -> None:
        doc = {"absent": self.absent, "rebound": self.rebound,
               "fields": ["name", "parent", "op", "start", "end", "size"],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))
