"""Command line verbs, the shared text formats, and the exit code taxonomy."""

import json
import re
import shlex
from pathlib import Path

import pytest

from grundydom import cli, solver, theory
from grundydom.cli import (
    MAX_FILE_ORDER,
    graph_to_json,
    main,
    parse_graph,
    parse_sequence,
    serialize_graph,
    serialize_sequence,
)
from grundydom.errors import CapacityError, ParseError
from grundydom.graphs import ENUM_MAX_VERTICES, Graph, complete, cycle, path, star
from grundydom.products import product
from grundydom.solver import grundy


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def stable(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# === parsing and serialization ===


def test_text_round_trip():
    for g in (path(4), cycle(5), star(5), Graph(3), Graph(1)):
        assert parse_graph(serialize_graph(g)) == g
    assert serialize_graph(path(3)) == "3 2\n0 1\n1 2\n"


def test_text_comments_and_blanks():
    g = parse_graph("# a comment\n\n3 2\n0 1\n\n# mid\n1 2\n")
    assert g == path(3)


def test_json_round_trip():
    for g in (path(4), cycle(5), Graph(2)):
        back = parse_graph(graph_to_json(g))
        assert back == g
        assert back.display_name == g.display_name
    data = json.loads(graph_to_json(cycle(4)))
    assert data["n"] == 4 and data["name"] == "C4" and len(data["edges"]) == 4


def test_parse_error_line_numbers():
    cases = [
        ("3\n", "line 1:", "header"),
        ("2 1\n0 x\n", "line 2:", "two integers"),
        ("-1 0\n", "line 1:", "non-negative"),
        ("3 1\n0 0\n", "line 2:", "loop"),
        ("3 2\n0 1\n1 0\n", "line 3:", "duplicate"),
        ("2 1\n0 5\n", "line 2:", "out of range"),
        ("3 1\n0 1\n1 2\n", "line 3:", "more than the 1 edges"),
    ]
    for text, prefix, needle in cases:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        msg = str(err.value)
        assert msg.startswith(prefix) and needle in msg, (text, msg)
    with pytest.raises(ParseError) as err:
        parse_graph("3 2\n0 1\n")
    assert "announced 2 edges, found 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_graph("")
    assert "empty input" in str(err.value)


def test_parse_json_errors():
    for text in (
        '{"n": -1}',
        '{"n": "three"}',
        '{"n": 3, "edges": 7}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, 0]]}',
        '{"n": 3, "edges": [], "name": 5}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, false]]}',
        '{"n": 3, "edges": [[0, true]]}',
        '{"n": 3,',
        "[1, 2]",
    ):
        with pytest.raises(ParseError):
            parse_graph(text)


def test_sequence_round_trip():
    assert parse_sequence("0, 1, 2") == [0, 1, 2]
    assert parse_sequence("3 4\n5") == [3, 4, 5]
    assert parse_sequence("") == []
    assert serialize_sequence([1, 2, 3]) == "1 2 3\n"
    assert parse_sequence(serialize_sequence([7, 0])) == [7, 0]
    with pytest.raises(ParseError):
        parse_sequence("1 two 3")


def test_parse_rejects_order_above_cap(tmp_path, capsys):
    # a header just above the cap is refused before any adjacency is built
    over = MAX_FILE_ORDER + 1
    for text in (f"{over} 0\n", json.dumps({"n": over, "edges": []})):
        with pytest.raises(CapacityError):
            parse_graph(text)
        code, _, err = run(capsys, "grundy", write(tmp_path, "big.txt", text))
        assert code == 2 and "file cap" in err
    assert parse_graph(f"{MAX_FILE_ORDER} 0\n").n == MAX_FILE_ORDER


def test_files_that_are_not_utf8_are_an_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe3 0\n")
    p3 = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    for argv in (["grundy", str(bad)], ["check-seq", p3, str(bad)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: cannot read {bad}: not UTF-8"), argv


def test_json_loader_limits_are_parse_errors(tmp_path, capsys):
    # an integer over Python's digit limit, and arrays nested past its recursion limit
    deep = "[" * 100_000 + "]" * 100_000
    for text in ('{"n": ' + "9" * 5000 + "}", '{"n": 2, "edges": ' + deep + "}"):
        with pytest.raises(ParseError):
            parse_graph(text)
        code, out, err = run(capsys, "grundy", write(tmp_path, "g.json", text))
        assert (code, out) == (1, "") and err.startswith("error: invalid JSON:")


def test_json_booleans_are_not_integers(tmp_path, capsys):
    f = write(tmp_path, "bool.json", '{"n": 2, "edges": [[true, false]]}')
    code, out, err = run(capsys, "grundy", f)
    assert code == 1 and out == "" and "not a pair of integers" in err


def test_written_graphs_stay_within_file_cap(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "path", str(MAX_FILE_ORDER + 1))
    assert code == 2 and "file cap" in err
    big = write(tmp_path, "k65.txt", serialize_graph(Graph(65)))
    code, _, err = run(capsys, "product", "--kind", "direct", big, big)
    assert code == 2 and "exceeds product cap 4096" in err


def test_product_and_iso_check_refuse_products_over_the_cap(tmp_path, capsys):
    over = "error: product order 4225 exceeds product cap 4096\n"
    k65 = write(tmp_path, "k65.txt", serialize_graph(complete(65)))
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "product", "--kind", "direct", k65, k65, "-o", str(target))
    assert (code, out, err) == (2, "", over) and not target.exists()
    code, out, err = run(capsys, "iso-check", "grid", "65", "65", "--r", "1")
    assert (code, out, err) == (2, "", over)


# === verbs ===


def test_gen(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "path", "4")
    assert code == 0 and err == ""
    assert out == "4 3\n0 1\n1 2\n2 3\n"
    code, out, _ = run(capsys, "gen", "cycle", "5", "--json")
    assert code == 0 and json.loads(out)["name"] == "C5"
    code, out, _ = run(capsys, "gen", "custom", "3", "0", "1", "1", "2")
    assert code == 0 and out == "3 2\n0 1\n1 2\n"
    code, out, _ = run(capsys, "gen", "caterpillar", "2", "1", "1")
    assert code == 0 and out.startswith("4 3\n")


def test_gen_output_file(tmp_path, capsys):
    target = str(tmp_path / "g.txt")
    code, out, _ = run(capsys, "gen", "path", "3", "-o", target)
    assert code == 0 and out == ""
    with open(target) as fh:
        assert parse_graph(fh.read()) == path(3)


def test_unwritable_output_is_an_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x")
    p3 = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    for argv in (
        ["gen", "path", "3", "-o", missing],
        ["product", "--kind", "strong", p3, p3, "-o", missing],
        ["construct", "odd_torus", "5", "--emit-seq", missing],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: cannot write {missing}:") and "Traceback" not in err


def test_gen_checks_order_before_building(capsys, monkeypatch):
    # the order is read from the family parameters, so an oversized graph is
    # refused without ever being built
    def refuse(spec):
        raise AssertionError(f"make_graph called for {spec}")

    monkeypatch.setattr(cli, "make_graph", refuse)
    over = str(MAX_FILE_ORDER + 1)
    for argv in (
        ["path", "100000"],
        ["cycle", over],
        ["complete", over],
        ["star", over],
        ["custom", over, "0", "1"],
        ["caterpillar", "3", "2000", "2000", str(MAX_FILE_ORDER - 4000 - 2)],
    ):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == "" and "file cap" in err, argv
    monkeypatch.undo()
    cap = MAX_FILE_ORDER - 4000 - 3
    code, out, _ = run(capsys, "gen", "caterpillar", "3", "2000", "2000", str(cap))
    assert code == 0 and out.startswith(f"{MAX_FILE_ORDER} ")


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "hypercube", "3")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 1 and "cycle order" in err


def test_gen_one_parameter_family_arity(capsys):
    for fam in ("path", "cycle", "complete", "star"):
        code, out, err = run(capsys, "gen", fam, "3", "4")
        assert (code, out) == (1, "")
        assert err == f"error: family '{fam}' expects 1 parameter(s), got 2\n"


def test_product_verb(tmp_path, capsys):
    pg = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    ph = write(tmp_path, "p2.txt", serialize_graph(path(2)))
    code, out, _ = run(capsys, "product", "--kind", "cartesian", pg, ph)
    assert code == 0
    assert out.splitlines()[0] == "# product kind=cartesian nG=3 nH=2"
    got = parse_graph("\n".join(stable(out)) + "\n")
    assert got == product("cartesian", path(3), path(2)).graph
    # alias goes through normalize_kind; json output parses back
    code, out, _ = run(capsys, "product", "--kind", "lex", pg, ph, "--json")
    assert code == 0
    body = out.splitlines()[-1]
    assert parse_graph(body) == product("lexicographic", path(3), path(2)).graph
    code, _, err = run(capsys, "product", "--kind", "wreath", pg, ph)
    assert code == 1 and "unknown product kind" in err


def test_grundy_verb(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", serialize_graph(path(4)))
    code, out, _ = run(capsys, "grundy", f)
    assert code == 0
    assert stable(out) == ["value=3"]
    assert "# stats nodes=" in out and " search_s=" in out and " reconstruct_s=" in out
    assert "components=1 orbit_skips=0" in out and out.rstrip().endswith(" merged=0")
    # the four vertices of K4 have equal closed rows
    k4 = write(tmp_path, "k4.txt", serialize_graph(complete(4)))
    code, out, _ = run(capsys, "grundy", k4)
    assert code == 0 and stable(out) == ["value=1"] and " merged=3\n" in out
    code, out, _ = run(capsys, "grundy", f, "--witness")
    want = "witness=" + " ".join(map(str, grundy(path(4)).witness))
    assert stable(out) == ["value=3", want]
    code, out, _ = run(capsys, "grundy", f, "--mode", "open")
    assert stable(out) == ["value=4"]


def test_grundy_errors(tmp_path, capsys):
    big = write(tmp_path, "c70.txt", serialize_graph(cycle(70)))
    code, _, err = run(capsys, "grundy", big)
    assert code == 2 and "exceeds solver cap" in err
    code, _, err = run(capsys, "grundy", str(tmp_path / "missing.txt"))
    assert code == 1 and "cannot read" in err
    bad = write(tmp_path, "bad.txt", "3 1\n0 0\n")
    code, _, err = run(capsys, "grundy", bad)
    assert code == 1 and "line 2: loop edge at vertex 0" in err
    small = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    code, out, err = run(capsys, "grundy", small, "--memo-cap", "5")
    assert code == 1 and out == "" and err.startswith("error:") and "--memo-cap" in err


def test_check_seq_verb(tmp_path, capsys):
    g = write(tmp_path, "p4.txt", serialize_graph(path(4)))
    s = write(tmp_path, "s.txt", "0 1 3\n")
    code, out, _ = run(capsys, "check-seq", g, s)
    assert code == 0
    assert out == "legal=true dominating=true length=3 a_value=2\n"
    s2 = write(tmp_path, "s2.txt", "1, 0\n")
    code, out, _ = run(capsys, "check-seq", g, s2)
    assert out == "legal=false dominating=false length=2 a_value=1\n"
    s3 = write(tmp_path, "s3.txt", "0 3 1 2\n")
    code, out, _ = run(capsys, "check-seq", g, s3, "--mode", "open")
    assert out == "legal=true dominating=true length=4 a_value=2\n"


def test_bounds_verb(tmp_path, capsys):
    pg = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    code, out, _ = run(capsys, "bounds", "--kind", "strong", pg, pg)
    assert code == 0
    assert out.splitlines() == [
        "kind=strong",
        "lower.strong_grundy_product=4",
        "upper.strong_min_blowup=6",
        "upper.strong_simplicial_peeling=4",
    ]
    p4 = write(tmp_path, "p4.txt", serialize_graph(path(4)))
    code, out, _ = run(capsys, "bounds", "--kind", "lex", p4, pg)
    lines = out.splitlines()
    assert "lower.lex_sequence_formula=5" in lines
    assert "upper.lex_sequence_formula=5" in lines


def test_formula_verb(capsys):
    code, out, _ = run(capsys, "formula", "thm_cart_torus_odd", "5")
    assert code == 0 and out == "value=16 exactness=exact\n"
    code, out, _ = run(capsys, "formula", "cor_direct_PP", "3", "4")
    assert out == "value=8 exactness=lower-bound\n"
    code, _, err = run(capsys, "formula", "thm_cart_torus_odd", "4")
    assert code == 1 and "thm_cart_torus_odd: requires odd k >= 3" in err
    code, _, err = run(capsys, "formula", "thm_no_such")
    assert code == 1 and "unknown formula id" in err


def test_construct_verb(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "odd_torus", "5")
    assert code == 0
    assert out.splitlines()[0] == "length=16"
    assert out.splitlines()[1] == "sequence=7 12 17 22 13 18 11 16 10 14 15 19 5 6 8 9"
    code, out, _ = run(capsys, "construct", "complete_grid", "3", "3")
    assert out == "length=4\nsequence=0 3 1 2\n"


def test_construct_witness_round_trip(tmp_path, capsys):
    # build the torus with the product verb, emit the witness, then check it
    c5 = write(tmp_path, "c5.txt", serialize_graph(cycle(5)))
    torus = str(tmp_path / "t5.txt")
    code, _, _ = run(capsys, "product", "--kind", "cartesian", c5, c5, "-o", torus)
    assert code == 0
    seqfile = str(tmp_path / "t5.seq")
    code, out, _ = run(capsys, "construct", "odd_torus", "5", "--emit-seq", seqfile)
    assert code == 0
    code, out, _ = run(capsys, "check-seq", torus, seqfile)
    assert code == 0
    assert out.startswith("legal=true dominating=true length=16")


def test_construct_product_witnesses(tmp_path, capsys):
    p3 = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    p2 = write(tmp_path, "p2.txt", serialize_graph(path(2)))
    p4 = write(tmp_path, "p4.txt", serialize_graph(path(4)))
    code, out, _ = run(capsys, "construct", "cartesian", p3, p2, "0,1")
    assert code == 0 and out.splitlines()[0] == "length=4"
    code, out, _ = run(capsys, "construct", "strong", p3, p3, "0 2", "0 2")
    assert code == 0 and out.splitlines()[0] == "length=4"
    code, out, _ = run(capsys, "construct", "lex", p3, p3, "0 2", "0 2")
    assert code == 0 and out.splitlines()[0] == "length=4"
    code, out, _ = run(capsys, "construct", "direct", p3, p4, "0 2", "0 3 1 2")
    assert code == 0 and out.splitlines()[0] == "length=8"


def test_construct_errors(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "odd_torus", "4")
    assert code == 1 and "requires odd k" in err
    code, _, err = run(capsys, "construct", "odd_torus")
    assert code == 1 and "expects" in err
    code, _, err = run(capsys, "construct", "odd_torus", "five")
    assert code == 1 and "must be an integer" in err
    p3 = write(tmp_path, "p3.txt", serialize_graph(path(3)))
    p2 = write(tmp_path, "p2.txt", serialize_graph(path(2)))
    code, _, err = run(capsys, "construct", "cartesian", p3, p2, "0 2")
    assert code == 1 and "factor item 2" in err


def test_construct_and_bounds_refuse_products_over_the_cap(tmp_path, capsys):
    over = "error: product order {} exceeds product cap 4096\n"
    code, out, _ = run(capsys, "construct", "odd_torus", "63")
    assert code == 0 and out.splitlines()[0] == "length=3844"
    code, out, err = run(capsys, "construct", "odd_torus", "65")
    assert (code, out, err) == (2, "", over.format(4225))
    code, out, _ = run(capsys, "construct", "complete_grid", "64", "64")
    assert code == 0 and out.splitlines()[0] == "length=126"
    code, out, err = run(capsys, "construct", "complete_grid", "3000000", "3")
    assert (code, out, err) == (2, "", over.format(9_000_000))
    s64 = write(tmp_path, "s64.txt", serialize_graph(star(64)))
    s65 = write(tmp_path, "s65.txt", serialize_graph(star(65)))
    code, out, _ = run(capsys, "construct", "strong", s64, s64, "0", "0")
    assert (code, out) == (0, "length=1\nsequence=0\n")
    for what, seq_h in (("strong", "0"), ("lex", "0"), ("direct", "0 1")):
        code, out, err = run(capsys, "construct", what, s65, s65, "0", seq_h)
        assert (code, out, err) == (2, "", over.format(4225)), what
    code, out, err = run(capsys, "construct", "cartesian", s65, s65, "0")
    assert (code, out, err) == (2, "", over.format(4225))
    def matching(n):
        # components within the solver cap, so that only the product is refused
        edges = "".join(f"{i} {i + 1}\n" for i in range(0, n, 2))
        return write(tmp_path, f"m{n}.txt", f"{n} {n // 2}\n{edges}")

    m64, m66 = matching(64), matching(66)
    code, out, _ = run(capsys, "bounds", "--kind", "cartesian", m64, m64)
    assert (code, out) == (0, "kind=cartesian\nlower.cartesian_layer_replication=2048\n")
    code, out, err = run(capsys, "bounds", "--kind", "cartesian", m66, m66)
    assert (code, out, err) == (2, "", over.format(4356))


def test_scan_verb(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "2", "--families", "P3")
    assert code == 0
    lines = stable(out)
    assert lines[0] == "pair=g1_0xP3 gL=1 gR=2 gProd=2 status=equality"
    assert lines[1] == "pair=g2_0xP3 gL=1 gR=2 gProd=2 status=equality"
    assert lines[2] == "counterexamples=0 skipped=0 checked=2"
    stats = out.splitlines()[-1]
    assert stats.startswith("# stats pairs=2 solved=2 nodes=") and " elapsed=" in stats


def test_scan_self_pairs_and_budget(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "1")
    assert code == 0
    assert stable(out)[0].startswith("pair=g1_0xg1_0 ")
    code, out, _ = run(capsys, "scan", "--max-n", "1", "--budget", "0.0")
    lines = out.splitlines()
    assert "status=skipped" in lines[0]
    assert lines[1].startswith("# skipped g1_0xg1_0:")
    assert stable(out)[-1] == "counterexamples=0 skipped=1 checked=1"
    assert out.splitlines()[-1] == "# stats pairs=1 solved=0 nodes=0 elapsed=0.000s"


def test_scan_errors(capsys, monkeypatch):
    code, _, err = run(capsys, "scan", "--max-n", "0")
    assert code == 1
    code, _, err = run(capsys, "scan", "--families", "Q7")
    assert code == 1 and "unknown family token" in err
    # a bad budget is refused before any graph is enumerated
    def refuse(n):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(cli, "enumerate_connected_graphs", refuse)
    for budget in ("-1", "nan"):
        code, out, err = run(capsys, "scan", "--max-n", "8", "--budget", budget)
        assert code == 1 and out == "" and "time budget must be nonnegative" in err
    # so is an order above the enumeration cap
    too_big = str(ENUM_MAX_VERTICES + 1)
    code, out, err = run(capsys, "scan", "--max-n", too_big, "--families", "P2")
    assert code == 1 and out == ""
    assert f"enumeration capped at {ENUM_MAX_VERTICES} vertices" in err


def test_search_budget_exits_2_and_skips_scan_pairs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", 100)
    f = write(tmp_path, "c5c5.txt", serialize_graph(product("cartesian", cycle(5), cycle(5)).graph))
    code, out, err = run(capsys, "grundy", f)
    assert code == 2 and out == "" and "search cap 100" in err and "Traceback" not in err
    # P3 stores 2 entries, and so do K2xP3 and K3xP3, whose twin columns
    # merge; P3xP3 has no equal rows and stores 13
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", 5)
    code, out, _ = run(capsys, "scan", "--max-n", "3", "--families", "P3")
    assert code == 0
    assert stable(out)[:4] == ["pair=g1_0xP3 gL=1 gR=2 gProd=2 status=equality",
                               "pair=g2_0xP3 gL=1 gR=2 gProd=2 status=equality",
                               "pair=g3_0xP3 gL=- gR=- gProd=- status=skipped",
                               "pair=g3_1xP3 gL=1 gR=2 gProd=2 status=equality"]
    assert "# skipped g3_0xP3: exact search reached" in out and "search cap 5" in out
    assert stable(out)[4] == "counterexamples=0 skipped=1 checked=4"


def test_scan_checks_family_order_before_building(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError(f"make_graph called for {spec}")

    monkeypatch.setattr(cli, "make_graph", refuse)
    # every pair with a factor above the solver cap would be skipped, and
    # the file cap is far above it
    for token in ("P20000", f"C{MAX_FILE_ORDER + 1}", "P65", "K65", "K1500"):
        code, out, err = run(capsys, "scan", "--max-n", "1", "--families", token)
        assert code == 2 and out == "" and "exceeds solver cap" in err, token


def test_scan_bound_violation_is_an_error_line(capsys, monkeypatch):
    # g1_0xP18 has 18 vertices, so its upper bound is the peeled one; the
    # squares of --max-n 2 have at most 16 and check their product solve,
    # here of an edgeless graph whose value 4 exceeds K2xK2's blow-up bound 2
    with monkeypatch.context() as patch:
        patch.setattr(theory, "_strong_uppers", lambda *args, **kwargs: (0, 0))
        code, out, err = run(capsys, "scan", "--max-n", "1", "--families", "P18")
        assert code == 1 and out == ""
        assert err.startswith("error: bound violation") and "Traceback" not in err
    monkeypatch.setattr(theory, "product", lambda kind, G, H: product(kind, Graph(G.n), Graph(H.n)))
    code, out, err = run(capsys, "scan", "--max-n", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: bound violation") and "Traceback" not in err


def test_iso_check_verb(capsys):
    code, out, _ = run(capsys, "iso-check", "even-torus", "2", "2", "--r", "1")
    assert code == 0
    assert out == (
        "kind=even-torus factors=2,2 r=1 ball_size=5 ball_boundary=6"
        " checked=4368 violations=0 exhaustive=true\n"
    )
    code, out, _ = run(capsys, "iso-check", "grid", "3", "3", "--r", "1", "--trials", "20")
    assert code == 0 and "exhaustive=false" in out and "checked=20" in out
    code, _, err = run(capsys, "iso-check", "even-torus", "3", "3", "--r", "2")
    assert code == 2 and "exceed" in err


def test_unknown_verb_and_flags(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys, "grundy")
    assert code == 1
    code, _, err = run(capsys, "gen", "path", "--bogus")
    assert code == 1


def test_readme_command_line_block(tmp_path, capsys, monkeypatch):
    # each `$ grundydom` line of the README's "Command line" code block, with
    # the output lines under it, '#' lines dropped
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    runs: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            runs.append((line[2:], []))
        elif line and not line.startswith("#"):
            runs[-1][1].append(line)
    assert len(runs) == 11
    monkeypatch.chdir(tmp_path)
    for command, want in runs:
        # an inline comment "FILE holds: TEXT" supplies an input file
        note = re.search(r"#\s*(\S+) holds: (.*)$", command)
        if note:
            (tmp_path / note.group(1)).write_text(note.group(2) + "\n")
        prog, *argv = shlex.split(command, comments=True)
        assert prog == "grundydom"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), command
        assert stable(out) == want, command
