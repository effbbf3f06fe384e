"""Spans around treefit's public entry points, installed from outside.

``Tracer.install`` replaces every binding of each wrapped function across the
``treefit.*`` modules (``pipeline`` imports ``contains_tree_by_size`` and
``verify`` by name, so patching the defining module alone would miss those
calls) and counts, per layer, how many bindings it replaced.  Spans stay in
memory until ``write_spans``; ``layer_table`` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (layer, module, attribute); "Class.method" patches the class attribute
TARGETS = (
    ("graph.read", "treefit.graph", "read_graph"),
    ("trees.read", "treefit.trees", "read_tree"),
    ("pipeline.solve", "treefit.pipeline", "solve"),
    ("graph.components", "treefit.graph", "Graph.components"),
    ("graph.induced", "treefit.graph", "Graph.induced"),
    ("color_coding.crossover", "treefit.color_coding", "use_exact_search"),
    ("color_coding.exact", "treefit.color_coding", "exact_constrained_embed"),
    ("color_coding.dp", "treefit.color_coding", "colorful_full_tree_dp"),
    ("color_coding.coloring", "treefit.color_coding", "sample_coloring"),
    ("color_coding.ahsc", "treefit.color_coding", "solve_ahsc"),
    ("embedding.verify", "treefit.embedding", "verify"),
    ("embedding.greedy", "treefit.embedding", "chvatal_extend"),
    ("embedding.delta2", "treefit.embedding", "solve_delta_plus_two"),
    ("high_leaf", "treefit.high_leaf", "solve_high_leaf_degree"),
    ("dense", "treefit.dense", "embed_dense"),
    ("preserving", "treefit.preserving", "solve_large_diameter"),
    ("medium", "treefit.medium", "solve_medium"),
    ("small_diameter", "treefit.small_diameter", "solve_small_diameter"),
)

ENGINES = ("high_leaf", "dense", "preserving", "medium", "small_diameter", "color_coding.ahsc")


def _status(result) -> str:
    if result is None:
        return "none"
    if isinstance(result, bool):
        return "true" if result else "false"
    kind = type(result).__name__
    if kind in ("Contains", "PartialEmbedding"):
        return "found"
    if kind == "AhscResult":
        return "found" if result.found else "miss"
    return kind


class Tracer:
    def __init__(self) -> None:
        # (layer, start, end, parent span index or -1, instance, phase, status)
        self.spans: list[tuple] = []
        self.bindings: dict[str, int] = {}
        self.missing: list[str] = []
        self.instance = ""
        self.phase = ""
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            status = "raised"
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                status = _status(result)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.instance, self.phase, status)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import treefit

        for info in pkgutil.walk_packages(treefit.__path__, "treefit."):
            importlib.import_module(info.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "treefit" or name.startswith("treefit.")) and m is not None]
        for layer, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr.split(".")[-1])
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                self.bindings[layer] = 0
                continue
            wrapper = self._wrap(layer, fn)
            replaced = 0
            if "." in attr:
                setattr(owner, attr.split(".")[-1], wrapper)
                replaced += 1
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        replaced += 1
            self.bindings[layer] = replaced

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (layer, start, end, parent, instance, phase, status) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": layer, "parent": parent, "instance": instance,
                    "phase": phase, "status": status,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")

    def layer_table(self, host_bytes: int) -> dict[str, float]:
        """Per-layer metrics; solve-side figures are per traced pass."""
        passes = {phase for *_, phase, _ in self.spans if phase.startswith("pass")}
        per_pass = 1.0 / max(1, len(passes))
        child_ms = defaultdict(float)
        for layer, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000
        calls = defaultdict(int)
        ms = defaultdict(float)
        self_ms = defaultdict(float)
        status = defaultdict(int)
        setup_ms = defaultdict(float)
        for index, (layer, start, end, parent, _inst, phase, st) in enumerate(self.spans):
            dur = (end - start) * 1000
            if phase == "setup":
                setup_ms[layer] += dur
                continue
            calls[layer] += 1
            ms[layer] += dur
            self_ms[layer] += dur - child_ms[index]
            status[layer, st] += 1

        def frac(a: float, b: float) -> float:
            return a / b if b else 0.0

        read_ms = setup_ms["graph.read"]
        out = {
            "graph.read_ms": read_ms,
            "trees.read_ms": setup_ms["trees.read"],
            "graph.read_mb_per_s": frac(host_bytes / 1e6, read_ms / 1000),
            "pipeline.solve_self_ms": self_ms["pipeline.solve"] * per_pass,
            "pipeline.components_ms": (ms["graph.components"] + ms["graph.induced"]) * per_pass,
            "color_coding.crossover_calls": calls["color_coding.crossover"] * per_pass,
            "color_coding.crossover_exact_frac": frac(status["color_coding.crossover", "true"],
                                                      calls["color_coding.crossover"]),
            "color_coding.exact_calls": calls["color_coding.exact"] * per_pass,
            "color_coding.exact_ms": ms["color_coding.exact"] * per_pass,
            "color_coding.exact_found": status["color_coding.exact", "found"] * per_pass,
            "color_coding.exact_exhausted": status["color_coding.exact", "none"] * per_pass,
            "color_coding.exact_budget_hits": status["color_coding.exact", "BudgetExceededError"] * per_pass,
            "color_coding.dp_trials": calls["color_coding.dp"] * per_pass,
            "color_coding.dp_ms_per_trial": frac(ms["color_coding.dp"], calls["color_coding.dp"]),
            "color_coding.dp_hit_ratio": frac(status["color_coding.dp", "found"], calls["color_coding.dp"]),
            "color_coding.coloring_ms": ms["color_coding.coloring"] * per_pass,
            "embedding.verify_calls": calls["embedding.verify"] * per_pass,
            "embedding.verify_ms": ms["embedding.verify"] * per_pass,
            "embedding.greedy_ms": ms["embedding.greedy"] * per_pass,
            "embedding.delta2_calls": calls["embedding.delta2"] * per_pass,
            "embedding.delta2_ms": ms["embedding.delta2"] * per_pass,
        }
        for layer in ENGINES:
            prefix = layer + ("_" if "." in layer else ".")
            out[prefix + "calls"] = calls[layer] * per_pass
            out[prefix + "ms"] = ms[layer] * per_pass
            out[prefix + "found_ratio"] = frac(status[layer, "found"], calls[layer])
        out["trace.bindings"] = sum(self.bindings.values())
        return out
