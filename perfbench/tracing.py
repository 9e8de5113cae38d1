"""Per-layer spans around calls into ``bipcon``, recorded from outside the package.

``install`` wraps each traced public function once and rebinds every name
under which a loaded ``bipcon`` module refers to it, so a caller that looked
the function up by importing it (``verifier.edge_connectivity_value``) is
traced as well as one that goes through the defining module. Methods are
rebound on the class. Nothing under ``src/`` is edited.

Kernel calls run into the millions, so every span name is aggregated in
memory (calls, total seconds, self seconds). Only the coarse calls listed in
``COARSE`` also keep a full record (name, start, end, parent). Self time is a
span's duration minus the time its child spans cover; the program is single
threaded while traced, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# span name -> (module that defines it, attribute, class holding it as a method or None)
SPANS = {
    "connectivity.edge_oracle": ("bipcon.connectivity", "edge_oracle_value", None),
    "connectivity.vertex_oracle": ("bipcon.connectivity", "vertex_oracle_value", None),
    "connectivity.edge_flow": ("bipcon.connectivity", "edge_connectivity_value", None),
    "connectivity.vertex_flow": ("bipcon.connectivity", "vertex_connectivity_value", None),
    "connectivity.edge_cert": ("bipcon.connectivity", "edge_connectivity", None),
    "connectivity.vertex_cert": ("bipcon.connectivity", "vertex_connectivity", None),
    "verifier.shape_sweep": ("bipcon.verifier", "shape_sweep", None),
    "verifier.extremal_scan": ("bipcon.verifier", "extremal_scan", None),
    "verifier.check_theorem": ("bipcon.verifier", "check_theorem", None),
    "verifier.metric_value": ("bipcon.verifier", "metric_value", None),
    "constructions.dispatch_witness": ("bipcon.constructions", "dispatch_witness", None),
    "constructions.build_witness": ("bipcon.constructions", "build_witness", None),
    "constructions.bi_cayley": ("bipcon.constructions", "bi_cayley", None),
    "bigraph.from_mask": ("bipcon.bigraph", "from_mask", "BipartiteGraph"),
    "bigraph.complement": ("bipcon.bigraph", "bipartite_complement", None),
    "bigraph.edges": ("bipcon.bigraph", "edges", "BipartiteGraph"),
    "bigraph.degrees": ("bipcon.bigraph", "degrees", None),
    "bounds.N_upper": ("bipcon.bounds", "N_upper", None),
    "bounds.M_upper": ("bipcon.bounds", "M_upper", None),
    "bounds.delta_bounds": ("bipcon.bounds", "delta_bounds", None),
    "cli.main": ("bipcon.cli", "main", None),
}

KERNELS = tuple(name for name in SPANS if name.startswith("connectivity."))
COARSE = frozenset({"cli.main", "verifier.check_theorem", "verifier.shape_sweep", "verifier.extremal_scan"})


@dataclass
class Tracer:
    """Aggregated span statistics plus full records of the coarse spans."""

    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SPANS, 0))
    total_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(SPANS, 0.0))
    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(SPANS, 0.0))
    spans: list[dict] = field(default_factory=list)  # coarse spans only
    distinct_sweeps: set[int] = field(default_factory=set)
    # one entry per open span: [seconds covered by its children, coarse record index or None]
    _stack: list[list] = field(default_factory=list)
    _keep: list = field(default_factory=list)  # sweeps kept alive so their ids stay distinct

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        coarse = name in COARSE
        is_sweep = name == "verifier.shape_sweep"

        def traced(*args, **kwargs):
            record = None
            if coarse:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                record = len(self.spans)
                self.spans.append({"name": name, "parent": parent})
            frame = [0.0, record]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record is not None:
                    self.spans[record].update(start=start, end=end)
            if is_sweep and id(result) not in self.distinct_sweeps:
                self.distinct_sweeps.add(id(result))
                self._keep.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ``bipcon`` module."""
        modules = [m for key, m in list(sys.modules.items()) if key == "bipcon" or key.startswith("bipcon.")]
        for name, (module_name, attr, owner) in SPANS.items():
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self, wall_s: float, graphs: int) -> dict:
        """Per-span and per-layer numbers for a traced pass of ``wall_s`` seconds."""
        per_span = {}
        for name in SPANS:
            calls = self.calls[name]
            per_span[name] = {
                "calls": calls,
                "self_s": self.self_s[name],
                "us_per_call": self.total_s[name] / calls * 1e6 if calls else None,
            }
        kernel_calls = sum(self.calls[name] for name in KERNELS)
        connectivity_self = sum(self.self_s[name] for name in KERNELS)
        return {
            "spans": per_span,
            "connectivity.self_s": connectivity_self,
            "connectivity.us_per_graph": connectivity_self / graphs * 1e6,
            "verifier.sweep_reuse": self.calls["verifier.shape_sweep"] - len(self.distinct_sweeps),
            "verifier.kernel_calls_per_graph": kernel_calls / graphs,
            "unattributed_s": wall_s - sum(self.self_s.values()),
        }
