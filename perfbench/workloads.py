"""The three benchmark workloads: their inputs, operations and checks.

A workload is built from a seed (set-up), then yields operations one at a
time as (key, thunk) pairs; the worker times each thunk. Only the random
slice of solve depends on the seed; bounds and census are fixed lists.
Operations run in a fixed order, so the seed changes no cost but the random
slice's. Every output is checked afterwards against the pinned outputs in
pinned.json and, where it carries a witness, re-certified with
check_sequence. Library functions are looked up on the module at call time
so that tracing can rebind them.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

# Values from the ROADMAP baseline table and the paper's formulas.
FIXED_SOLVES = (
    ("closed", "cartesian", "C5", "C5", 16),
    ("closed", "cartesian", "P6", "P6", 30),
    ("closed", "strong", "C5", "C6", 12),
    ("closed", "direct", "C5", "C6", 18),
    ("closed", "direct", "P5", "P6", 24),
    ("closed", "cartesian", "C6", "C6", 24),
    ("open", "cartesian", "C5", "C5", 16),
    ("open", "direct", "C5", "C5", 16),
    ("open", "cartesian", "P5", "C6", 24),
    ("open", "cartesian", "P5", "P6", 26),
    ("open", "strong", "C6", "C6", 18),
)
# The random slice is one fixed draw; the workload seed relabels its vertices.
RANDOM_GRAPH_SEED = 0
RANDOM_GRAPHS = 6
RANDOM_ORDER = 30
RANDOM_EDGE_P = 0.08

BOUND_PAIRS = (
    ("P4xP4", "P3"),
    ("P4xP5", "P2"),
    ("C3xC5", "C4"),
    ("C7", "C5"),
    ("cat(4;2,1,1,2)", "P4"),
    ("K4", "C6"),
)
BOUND_KINDS = ("cartesian", "strong", "direct", "lexicographic")

CENSUS_MAX_ORDER = 7
CONNECTED_GRAPHS = (1, 1, 2, 6, 21, 112, 853)  # OEIS A001349, orders 1..7
SCAN_RIGHT = (("P2", CENSUS_MAX_ORDER), ("P3", 6), ("C4", 6))  # (factor, max left order)


def factor(gd, token: str):
    """P5, C6, K4, P4xP5 (Cartesian product), cat(4;2,1,1,2)."""
    if "x" in token:
        left, right = token.split("x")
        return gd.product("cartesian", factor(gd, left), factor(gd, right)).graph
    if token.startswith("cat("):
        spine, legs = token[4:-1].split(";")
        return gd.caterpillar(int(spine), [int(x) for x in legs.split(",")])
    family = {"P": gd.path, "C": gd.cycle, "K": gd.complete}[token[0]]
    return family(int(token[1:]))


def random_connected_graph(gd, rng: random.Random, n: int, p: float):
    """A random spanning tree plus each other pair with probability p."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            edges.add((u, v))
    return gd.Graph(n, sorted(edges))


def invariant(G) -> tuple:
    """Isomorphism-invariant label: order, size and degree sequence."""
    return (G.n, G.m, sorted(G.degree(v) for v in range(G.n)))


def certify(gd, G, res, mode: str) -> str | None:
    """None when res.witness is a legal dominating sequence of length res.value."""
    rep = gd.check_sequence(G, res.witness, mode=mode)
    if not (rep.legal and rep.dominating and rep.length == res.value):
        return f"{mode} witness rejected (legal={rep.legal} dominating={rep.dominating}" \
               f" length={rep.length} value={res.value})"
    return None


def _multiset_failures(name: str, observed: list, expected: list) -> list[str]:
    seen = Counter(map(repr, observed))
    want = Counter(map(repr, expected))
    extra, missing = seen - want, want - seen
    if not extra and not missing:
        return []
    count = max(sum(extra.values()), sum(missing.values()))
    sample = next(iter(extra or missing))
    return [f"{name}: {count} rows differ from the pins, e.g. {sample}"] * count


class Solve:
    """Large exact solves with the witness on, in both modes."""

    def __init__(self, gd, seed: int, witness: bool):
        self.gd, self.seed, self.witness = gd, seed, witness
        relabel = random.Random(seed)
        self.instances = []  # (key, mode, graph, expected value or None)
        for mode, kind, g, h, value in FIXED_SOLVES:
            G = gd.product(kind, factor(gd, g), factor(gd, h)).graph
            self.instances.append((f"{mode} {kind}({g},{h})", mode, G, value))
        draw = random.Random(RANDOM_GRAPH_SEED)
        for i in range(RANDOM_GRAPHS):
            G = random_connected_graph(gd, draw, RANDOM_ORDER, RANDOM_EDGE_P)
            perm = list(range(G.n))
            relabel.shuffle(perm)
            G = gd.Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
            for mode in ("closed", "open"):
                self.instances.append((f"{mode} random{i}", mode, G, None))

    def ops(self):
        for key, mode, G, _ in self.instances:
            yield key, lambda G=G, mode=mode: self.gd.grundy(G, mode, witness=self.witness)

    def check(self, key, res, pins):
        _, mode, G, value = next(i for i in self.instances if i[0] == key)
        pin = pins["solve"][key]
        counts = {"nodes": res.stats.nodes, "memo_entries": res.stats.memo_entries}
        if res.value != pin["value"] or (value is not None and res.value != value):
            return f"value {res.value}, pinned {pin['value']}", counts
        if not self.witness:
            return None, counts
        if not key.split()[1].startswith("random") or self.seed == pins["seed"]:
            if res.witness != pin["witness"]:
                return f"witness {res.witness} differs from the pinned one", counts
        return certify(self.gd, G, res, mode), counts

    def finish(self, pins):
        return []

    def pins(self, outputs):
        return {key: {"value": res.value, "witness": res.witness}
                for key, res in outputs.items()}


class Bounds:
    """product_bounds for every kind on six factor pairs."""

    def __init__(self, gd, seed: int, witness: bool):
        self.gd = gd
        self.jobs = [(f"{kind} {g},{h}", kind, factor(gd, g), factor(gd, h))
                     for g, h in BOUND_PAIRS for kind in BOUND_KINDS]

    def ops(self):
        for key, kind, G, H in self.jobs:
            yield key, lambda kind=kind, G=G, H=H: self.gd.product_bounds(kind, G, H)

    @staticmethod
    def _row(report):
        return [report.kind, [list(x) for x in report.lower], [list(x) for x in report.upper]]

    def check(self, key, report, pins):
        if self._row(report) != pins["bounds"][key]:
            return f"report {self._row(report)} differs from {pins['bounds'][key]}", {}
        return None, {}

    def finish(self, pins):
        return []

    def pins(self, outputs):
        return {key: self._row(report) for key, report in outputs.items()}


class Census:
    """Every connected graph of order <= 7: enumerate, classify, scan."""

    def __init__(self, gd, seed: int, witness: bool):
        self.gd, self.witness = gd, witness
        self.rights = {name: factor(gd, name) for name, _ in SCAN_RIGHT}
        self.classes: dict[int, list] = {}
        self.graphs = {}  # class name -> graph
        self.class_rows: list = []
        self.scan_rows: list = []

    def _enumerate(self, n):
        self.classes[n] = list(self.gd.enumerate_connected_graphs(n))
        return len(self.classes[n])

    def _classify(self, G):
        closed = self.gd.grundy(G, witness=self.witness)
        open_ = self.gd.grundy(G, "open", witness=self.witness) if G.n >= 2 else None
        return closed, open_, self.gd.edge_clique_cover_number(G)

    def ops(self):
        for n in range(1, CENSUS_MAX_ORDER + 1):
            yield f"enumerate {n}", lambda n=n: self._enumerate(n)
        every = [G for n in sorted(self.classes) for G in self.classes[n]]
        self.graphs = {G.name: G for G in every}
        for G in every:
            yield f"class {G.name}", lambda G=G: self._classify(G)
        for G, name in [(G, name) for name, top in SCAN_RIGHT for G in every if G.n <= top]:
            yield f"scan {G.name}x{name}", \
                lambda G=G, H=self.rights[name]: self.gd.conjecture_scan([(G, H)])

    def check(self, key, out, pins):
        verb, name = key.split()
        if verb == "enumerate":
            n = int(name)
            if out != CONNECTED_GRAPHS[n - 1]:
                return f"{out} classes, expected {CONNECTED_GRAPHS[n - 1]}", {"classes": out}
            return None, {"classes": out}
        if verb == "class":
            G = self.graphs[name]
            closed, open_, ecc = out
            counts = {"closed_nodes": closed.stats.nodes,
                      "open_nodes": open_.stats.nodes if open_ else 0}
            self.class_rows.append(
                [*invariant(G), closed.value, open_.value if open_ else None, ecc])
            if self.witness:
                for res, mode in ((closed, "closed"), (open_, "open")):
                    problem = res and certify(self.gd, G, res, mode)
                    if problem:
                        return problem, counts
            return None, counts
        gname, hname = name.split("x")
        G, H = self.graphs[gname], self.rights[hname]
        (rec,) = out.records
        self.scan_rows.append([*invariant(G), hname, rec.gamma_g, rec.gamma_h,
                               rec.gamma_product, rec.lower, rec.upper, rec.status])
        if rec.status == "counterexample":
            prod = self.gd.product("strong", G, H).graph
            rep = self.gd.check_sequence(prod, rec.witness_product)
            if not (rep.legal and rep.dominating and rep.length == rec.gamma_product):
                return "counterexample witness rejected", {}
        return None, {}

    def finish(self, pins):
        return (_multiset_failures("census classes", self.class_rows, pins["census"]["classes"])
                + _multiset_failures("census scan", self.scan_rows, pins["census"]["scan"]))

    def pins(self, outputs):
        for key, out in outputs.items():
            self.check(key, out, {})
        return {"classes": sorted(self.class_rows, key=repr),
                "scan": sorted(self.scan_rows, key=repr)}


WORKLOADS = {"solve": Solve, "bounds": Bounds, "census": Census}
