"""In-memory spans around the public functions of each grundydom layer.

Tracing works by rebinding names: every grundydom module attribute that
refers to a traced function is replaced by a timing wrapper, so calls made
between modules (theory calling solver.grundy, the enumerator calling
graphs.canonical_code) nest as child spans without editing the package.
Spans stay in a list until the pass ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, function, span name); product_bounds spans are named per kind.
TRACED = (
    ("graphs", "canonical_code", "graphs.canonical_code"),
    ("graphs", "enumerate_connected_graphs", "graphs.enumerate"),
    ("products", "product", "products.product"),
    ("solver", "grundy", "solver.grundy"),
    ("solver", "max_weighted_sequence", "solver.weighted"),
    ("sequences", "check_sequence", "sequences.check_sequence"),
    ("theory", "product_bounds", "theory.bounds"),
    ("theory", "strong_simplicial_upper", "theory.strong_simplicial_upper"),
    ("theory", "edge_clique_cover_number", "theory.edge_clique_cover"),
    ("theory", "conjecture_scan", "theory.scan"),
)

BOUND_KINDS = ("cartesian", "strong", "direct", "lexicographic")


def _describe(name, args, kwargs, out) -> tuple[str, dict]:
    """Span name and the counts read at the span boundary from the call and its result."""
    if name == "solver.grundy":
        return name, {
            "mode": kwargs.get("mode", args[1] if len(args) > 1 else "closed"),
            "nodes": out.stats.nodes,
            "memo_entries": out.stats.memo_entries,
        }
    if name == "graphs.enumerate":
        return name, {"classes": len(out)}
    if name == "theory.scan":
        return name, {
            "pairs": len(out.records),
            "counterexamples": len(out.counterexamples),
        }
    if name == "theory.bounds":
        return f"theory.bounds.{out.kind}", {}
    return name, {}


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, operation key, attrs)
        self.spans: list[tuple] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        eager = name == "graphs.enumerate"

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; child spans are appended after it
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if eager:  # the enumerator is a generator; time its work here
                    out = list(out)
            except BaseException:
                stack.pop()
                spans[sid] = (sid, parent, name, start, time.perf_counter(), self.op, {})
                raise
            end = time.perf_counter()
            stack.pop()
            span_name, attrs = _describe(name, args, kwargs, out)
            spans[sid] = (sid, parent, span_name, start, end, self.op, attrs)
            return iter(out) if eager else out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, func, name in TRACED:
            original = getattr(sys.modules[f"grundydom.{module}"], func)
            wrapper = self._wrap(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname != "grundydom" and not modname.startswith("grundydom."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "start": start, "end": end, **attrs,
                }) + "\n")

    def summary(self) -> dict:
        """Per-layer totals for one pass: self times, counts and ratios."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = {}   # name -> summed inclusive seconds
        own = {}     # name -> summed self seconds
        calls = {}
        for sid, _, name, start, end, _, _ in self.spans:
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_time[sid]
            calls[name] = calls.get(name, 0) + 1

        solves = [s for s in self.spans if s[2] == "solver.grundy"]
        grundy_s = {"closed": 0.0, "open": 0.0}
        nodes = {"closed": 0, "open": 0}
        for sid, _, _, start, end, _, attrs in solves:
            grundy_s[attrs["mode"]] += end - start - child_time[sid]
            nodes[attrs["mode"]] += attrs["nodes"]
        scans = [s for s in self.spans if s[2] == "theory.scan"]
        scan_ms = [(end - start) * 1e3 for _, _, _, start, end, _, _ in scans]
        search_s = grundy_s["closed"] + grundy_s["open"]

        out = {
            "solver.nodes": nodes["closed"] + nodes["open"],
            "solver.closed_nodes": nodes["closed"],
            "solver.open_nodes": nodes["open"],
            "solver.closed_s": grundy_s["closed"],
            "solver.open_s": grundy_s["open"],
            "solver.nodes_per_s": (nodes["closed"] + nodes["open"]) / search_s if search_s else 0.0,
            "solver.memo_entries": max((s[6]["memo_entries"] for s in solves), default=0),
            "solver.weighted_s": own.get("solver.weighted", 0.0),
            "solver.weighted_calls": calls.get("solver.weighted", 0),
            "graphs.enumerate_s": own.get("graphs.enumerate", 0.0),
            "graphs.canonical_code_s": own.get("graphs.canonical_code", 0.0),
            "graphs.canonical_code_calls": calls.get("graphs.canonical_code", 0),
            "graphs.classes": sum(s[6]["classes"] for s in self.spans if s[2] == "graphs.enumerate"),
            "theory.edge_clique_cover_s": own.get("theory.edge_clique_cover", 0.0),
            "theory.edge_clique_cover_calls": calls.get("theory.edge_clique_cover", 0),
            "theory.scan_pair_ms_p50": statistics.median(scan_ms) if scan_ms else 0.0,
            "theory.scan_pair_ms_max": max(scan_ms, default=0.0),
            "theory.scan_pairs": sum(s[6]["pairs"] for s in scans),
            "theory.scan_counterexamples": sum(s[6]["counterexamples"] for s in scans),
            "theory.strong_simplicial_upper_s": total.get("theory.strong_simplicial_upper", 0.0),
            "products.product_s": own.get("products.product", 0.0),
            "products.product_calls": calls.get("products.product", 0),
            "sequences.check_sequence_s": own.get("sequences.check_sequence", 0.0),
            "sequences.check_sequence_calls": calls.get("sequences.check_sequence", 0),
        }
        for kind in BOUND_KINDS:
            out[f"theory.bounds.{kind}_s"] = total.get(f"theory.bounds.{kind}", 0.0)
        # [operation, mode, nodes] of each solve the benchmark called itself
        out["instances"] = [
            [op, attrs["mode"], attrs["nodes"]]
            for _, parent, _, _, _, op, attrs in solves if parent == -1
        ]
        return out
