"""Command line front end: graph parsing and generation, products, exact
solves, sequence checking, bounds, formulas, witness constructions, the
conjecture scan, and isoperimetric checks.

Reports are line oriented and deterministic for fixed inputs and flags;
lines starting with '#' carry statistics or context and are excluded from
stable-output comparisons. Exit codes: 0 success, 1 parameter or domain
error (or a violated bound, which means a solver bug), 2 capacity limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterator, Sequence

from .errors import CapacityError, InvariantError, ParameterError, ParseError
from .graphs import ENUM_MAX_VERTICES, FamilySpec, Graph, enumerate_connected_graphs, make_graph
from .products import normalize_kind, product
from .sequences import check_sequence
from .solver import MAX_SOLVER_ORDER, grundy
from .theory import (
    conjecture_scan,
    construct_cartesian_witness,
    construct_complete_grid_witness,
    construct_direct_witness,
    construct_lex_witness,
    construct_odd_torus_witness,
    construct_strong_witness,
    formula_value,
    isoperimetric_check,
    product_bounds,
)

# Largest graph order read or written (the order of a product of two
# solver-size factors). Adjacency is bitset based, so this also bounds a
# parsed graph at about 2 MB; it is checked before anything is allocated.
MAX_FILE_ORDER = 4096
_FAMILY_TOKEN = re.compile(r"^([PCKS])(\d+)$")
_TOKEN_FAMILIES = {"P": "path", "C": "cycle", "K": "complete", "S": "star"}


# ---------------------------------------------------------------------------
# Text formats


def parse_graph(text: str, name: str | None = None) -> Graph:
    """Parse the shared graph text format, or JSON when text starts with '{'.

    Text format: a header line "n m" followed by m edge lines "u v"; blank
    lines and lines starting with '#' are skipped. JSON format: an object
    with "n", "edges" (and optionally "name") fields. An order above
    MAX_FILE_ORDER raises CapacityError.
    """
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text, name)
    header: tuple[int, int] | None = None
    adj = []
    m = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            what = "header 'n m'" if header is None else "edge 'u v'"
            raise ParseError(f"expected {what}, got {line!r}", line=lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", line=lineno)
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be non-negative", line=lineno)
            _check_file_order(a)
            header = (a, b)
            adj = [0] * a
            continue
        if m == header[1]:
            raise ParseError(
                f"more than the {header[1]} edges announced in the header",
                line=lineno,
            )
        _append_edge(adj, header[0], a, b, lineno)
        m += 1
    if header is None:
        raise ParseError("empty input, expected a header 'n m'")
    if m != header[1]:
        raise ParseError(f"header announced {header[1]} edges, found {m}")
    return Graph._from_rows(adj, name)


def _check_file_order(n: int) -> None:
    if n > MAX_FILE_ORDER:
        raise CapacityError(f"graph order {n} exceeds file cap {MAX_FILE_ORDER}")


def _append_edge(adj: list[int], n: int, u: int, v: int, lineno: int | None) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"edge {u} {v} out of range for {n} vertices", line=lineno)
    if u == v:
        raise ParseError(f"loop edge at vertex {u}", line=lineno)
    if adj[u] >> v & 1:
        raise ParseError(f"duplicate edge {u} {v}", line=lineno)
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def _parse_graph_json(text: str, name: str | None) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    except (ValueError, RecursionError) as exc:
        # an integer over Python's digit limit, or arrays nested too deep
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("JSON graph must be an object")
    if not _is_json_int(data.get("n")) or data["n"] < 0:
        raise ParseError("JSON graph needs a non-negative integer 'n'")
    n = data["n"]
    _check_file_order(n)
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("JSON 'edges' must be a list of pairs")
    adj = [0] * n
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_json_int(x) for x in e)):
            raise ParseError(f"JSON edge {e!r} is not a pair of integers")
        _append_edge(adj, n, e[0], e[1], None)
    json_name = data.get("name")
    if json_name is not None and not isinstance(json_name, str):
        raise ParseError("JSON 'name' must be a string")
    return Graph._from_rows(adj, name or json_name)


def _is_json_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not vertex ids
    return isinstance(x, int) and not isinstance(x, bool)


def serialize_graph(G: Graph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def graph_to_json(G: Graph) -> str:
    payload = {"n": G.n, "edges": [list(e) for e in G.edges()], "name": G.display_name}
    return json.dumps(payload) + "\n"


def parse_sequence(text: str) -> list[int]:
    items = []
    for tok in text.replace(",", " ").split():
        try:
            items.append(int(tok))
        except ValueError:
            raise ParseError(f"sequence item {tok!r} is not an integer")
    return items


def serialize_sequence(items: Sequence[int]) -> str:
    return " ".join(str(v) for v in items) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}")


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _family_graph(token: str) -> Graph:
    m = _FAMILY_TOKEN.match(token)
    if not m:
        raise ParameterError(
            f"unknown family token {token!r}; use P<k>, C<k>, K<k>, or S<k>"
        )
    k = int(m.group(2))
    # scan skips every pair with a factor this large, so it is never built
    if k > MAX_SOLVER_ORDER:
        raise CapacityError(f"graph order {k} exceeds solver cap {MAX_SOLVER_ORDER}")
    return make_graph(FamilySpec(_TOKEN_FAMILIES[m.group(1)], (k,)))


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grundydom", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("family", choices=["path", "cycle", "complete", "star", "caterpillar", "custom"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("product", help="build a product of two graph files")
    p.set_defaults(handler=_cmd_product)
    p.add_argument("--kind", required=True)
    p.add_argument("file_g")
    p.add_argument("file_h")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("grundy", help="exact Grundy (total) domination number")
    p.set_defaults(handler=_cmd_grundy)
    p.add_argument("file")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--witness", action="store_true", help="also print one optimal sequence")

    p = sub.add_parser("check-seq", help="check a sequence against a graph")
    p.set_defaults(handler=_cmd_check_seq)
    p.add_argument("graph_file")
    p.add_argument("seq_file")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")

    p = sub.add_parser("bounds", help="named product bounds for two factors")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--kind", required=True)
    p.add_argument("file_g")
    p.add_argument("file_h")

    p = sub.add_parser("formula", help="evaluate a catalog formula")
    p.set_defaults(handler=_cmd_formula)
    p.add_argument("formula_id")
    p.add_argument("params", nargs="*", type=int)

    p = sub.add_parser("construct", help="build a witness sequence")
    p.set_defaults(handler=_cmd_construct)
    p.add_argument(
        "what",
        choices=["odd_torus", "complete_grid", "cartesian", "lex", "direct", "strong"],
    )
    p.add_argument("args", nargs="*")
    p.add_argument("--emit-seq", help="also write the sequence to a file")

    p = sub.add_parser("scan", help="strong-product conjecture scan")
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--families", nargs="*", default=None,
                   help="family tokens (P3 C4 ...) to pair against; default: self-pairs")
    p.add_argument("--self-pairs", action="store_true",
                   help="pair each enumerated graph with itself")
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")

    p = sub.add_parser("iso-check", help="ball-versus-subset boundary check")
    p.set_defaults(handler=_cmd_iso_check)
    p.add_argument("kind", choices=["even-torus", "grid"])
    p.add_argument("factors", nargs="+", type=int)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# Verb handlers (each returns the full report text)


def _emit_graph(G: Graph, args, prefix: str = "") -> str:
    body = graph_to_json(G) if args.json else serialize_graph(G)
    text = prefix + body
    if args.output:
        _write(args.output, text)
        return ""
    return text


def _family_order(family: str, params: Sequence[int]) -> int:
    """Order of the graph a family spec describes, read before building it."""
    if not params:
        return 0  # make_graph reports the missing parameter
    if family == "caterpillar":
        return params[0] + sum(params[1:])
    return params[0]  # path, cycle, complete, star: k; custom: n


def _cmd_gen(args) -> str:
    _check_file_order(_family_order(args.family, args.params))
    return _emit_graph(make_graph(FamilySpec(args.family, tuple(args.params))), args)


def _cmd_product(args) -> str:
    kind = normalize_kind(args.kind)
    G, H = _load_graph(args.file_g), _load_graph(args.file_h)
    prefix = f"# product kind={kind} nG={G.n} nH={H.n}\n"
    return _emit_graph(product(kind, G, H).graph, args, prefix=prefix)


def _cmd_grundy(args) -> str:
    G = _load_graph(args.file)
    result = grundy(G, mode=args.mode, witness=args.witness)
    lines = [f"value={result.value}"]
    if args.witness:
        lines.append("witness=" + " ".join(str(v) for v in result.witness))
    s = result.stats
    lines.append(
        f"# stats nodes={s.nodes} memo_entries={s.memo_entries}"
        f" search_s={s.search_s:.3f} reconstruct_s={s.reconstruct_s:.3f}"
        f" components={s.components}"
        f" orbit_skips={s.orbit_skips} forced={s.forced} merged={s.merged}"
    )
    return "\n".join(lines) + "\n"


def _cmd_check_seq(args) -> str:
    G = _load_graph(args.graph_file)
    items = parse_sequence(_read(args.seq_file))
    rep = check_sequence(G, items, mode=args.mode)
    legal = "true" if rep.legal else "false"
    dominating = "true" if rep.dominating else "false"
    return (
        f"legal={legal} dominating={dominating}"
        f" length={rep.length} a_value={rep.a_value}\n"
    )


def _cmd_bounds(args) -> str:
    kind = normalize_kind(args.kind)
    report = product_bounds(kind, _load_graph(args.file_g), _load_graph(args.file_h))
    lines = [f"kind={report.kind}"]
    lines.extend(f"lower.{name}={value}" for name, value in report.lower)
    lines.extend(f"upper.{name}={value}" for name, value in report.upper)
    return "\n".join(lines) + "\n"


def _cmd_formula(args) -> str:
    value, exactness = formula_value(args.formula_id, args.params)
    return f"value={value} exactness={exactness}\n"


def _construct_args(args, count: int, shape: str) -> list[str]:
    if len(args.args) != count:
        raise ParameterError(f"construct {args.what} expects: {shape}")
    return args.args


def _int_arg(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {tok!r}")


def _cmd_construct(args) -> str:
    if args.what == "odd_torus":
        (k,) = _construct_args(args, 1, "<k>")
        seq = construct_odd_torus_witness(_int_arg(k, "k"))
    elif args.what == "complete_grid":
        n, m = _construct_args(args, 2, "<n> <m>")
        seq = construct_complete_grid_witness(_int_arg(n, "n"), _int_arg(m, "m"))
    elif args.what == "cartesian":
        fg, fh, seq_g = _construct_args(args, 3, "<fileG> <fileH> <seqG>")
        seq = construct_cartesian_witness(
            _load_graph(fg), _load_graph(fh), parse_sequence(seq_g)
        )
    else:
        fg, fh, seq_g, seq_h = _construct_args(
            args, 4, "<fileG> <fileH> <seqG> <seqH>"
        )
        builder = {
            "lex": construct_lex_witness,
            "direct": construct_direct_witness,
            "strong": construct_strong_witness,
        }[args.what]
        seq = builder(
            _load_graph(fg), parse_sequence(seq_g),
            _load_graph(fh), parse_sequence(seq_h),
        )
    if args.emit_seq:
        _write(args.emit_seq, serialize_sequence(seq))
    return f"length={len(seq)}\nsequence=" + " ".join(str(v) for v in seq) + "\n"


def _cmd_scan(args) -> str:
    if args.max_n < 1:
        raise ParameterError("--max-n must be at least 1")
    if args.max_n > ENUM_MAX_VERTICES:
        raise ParameterError(f"enumeration capped at {ENUM_MAX_VERTICES} vertices")
    rights = [_family_graph(tok) for tok in args.families or ()]

    def pairs() -> Iterator[tuple[Graph, Graph]]:
        # lazy, so that a bad budget is refused before anything is enumerated
        lefts = [G for n in range(1, args.max_n + 1) for G in enumerate_connected_graphs(n)]
        yield from ((G, H) for G in lefts for H in rights)
        if args.self_pairs or not args.families:
            yield from ((G, G) for G in lefts)

    report = conjecture_scan(pairs(), time_budget=args.budget)
    lines = []
    for r in report.records:
        if r.status == "skipped":
            lines.append(
                f"pair={r.name_g}x{r.name_h} gL=- gR=- gProd=- status=skipped"
            )
            lines.append(f"# skipped {r.name_g}x{r.name_h}: {r.reason}")
            continue
        lines.append(
            f"pair={r.name_g}x{r.name_h} gL={r.gamma_g} gR={r.gamma_h}"
            f" gProd={r.gamma_product} status={r.status}"
        )
    lines.append(
        f"counterexamples={len(report.counterexamples)}"
        f" skipped={len(report.skipped)} checked={len(report.records)}"
    )
    lines.append(f"# settled={sum(r.settled for r in report.records)}")
    lines.append(
        f"# stats pairs={len(report.records)}"
        f" solved={len(report.records) - len(report.skipped)}"
        f" nodes={sum(r.nodes for r in report.records)}"
        f" elapsed={sum(r.elapsed for r in report.records):.3f}s"
    )
    return "\n".join(lines) + "\n"


def _cmd_iso_check(args) -> str:
    rep = isoperimetric_check(
        args.kind, args.factors, args.r, trials=args.trials, seed=args.seed
    )
    factors = ",".join(str(f) for f in rep.factors)
    exhaustive = "true" if rep.exhaustive else "false"
    return (
        f"kind={rep.kind} factors={factors} r={rep.r}"
        f" ball_size={rep.ball_size} ball_boundary={rep.ball_boundary}"
        f" checked={rep.checked} violations={rep.violations}"
        f" exhaustive={exhaustive}\n"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if text:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
