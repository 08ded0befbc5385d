"""Byte-for-byte CLI output of a fixed command list, against a checked-in record.

Each command runs through `cli.main` in a scratch directory; its exit code,
its stdout without '#' lines and its stderr are compared with
`cli_golden.txt`. The first commands write the input files with `gen`,
`product` and `construct`, so the record depends on nothing else.

A change that alters the output on purpose records the file again:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

from grundydom.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")

COMMANDS = [
    # input files, and gen's text and JSON output
    "gen path 4 -o p4.txt",
    "gen cycle 5 -o c5.txt",
    "gen star 4 --json -o s4.json",
    "gen caterpillar 3 1 0 1 -o cat.txt",
    "gen complete 4",
    "gen cycle 4 --json",
    "gen custom 3 --json",
    "gen custom 3 0 1 1 2",
    # the layered product builders: valid runs and each kind's refusal
    "construct lex p4.txt c5.txt '1 2' '0 2'",
    "construct direct p4.txt c5.txt '0 2' '0 1 2'",
    "construct cartesian p4.txt c5.txt '1 3'",
    "construct direct p4.txt c5.txt '0 2' '0 2'",
    "construct strong p4.txt c5.txt '0 2' '0'",
    "construct lex p4.txt c5.txt '0 2'",
    # products
    "product --kind strong p4.txt c5.txt",
    "product --kind lex p4.txt s4.json --json",
    "product --kind cartesian p4.txt c5.txt -o pc.txt",
    "product --kind direct c5.txt p4.txt --json -o d.json",
    # exact solves in both modes
    "grundy p4.txt --witness",
    "grundy c5.txt --mode open --witness",
    "grundy s4.json --witness",
    "grundy pc.txt",
    "grundy cat.txt --mode open",
    "grundy d.json --mode open --witness",
    # witness constructions and sequence checks
    "construct cartesian p4.txt c5.txt '0 1 2' --emit-seq pc.seq",
    "check-seq pc.txt pc.seq",
    "check-seq pc.txt pc.seq --mode open",
    "construct strong p4.txt c5.txt '0 1 2' '0 1 2'",
    "construct odd_torus 3",
    "construct complete_grid 3 4",
    # named bounds of every kind
    "bounds --kind cartesian p4.txt c5.txt",
    "bounds --kind strong cat.txt s4.json",
    "bounds --kind direct c5.txt p4.txt",
    "bounds --kind lexicographic cat.txt p4.txt",
    # formulas, the scan and the isoperimetric check
    "formula thm_cart_grid 3 5",
    "formula cor_strong_torus_upper 4 6",
    "scan --max-n 4 --families P3",
    "scan --max-n 3 --self-pairs --families K3",
    "iso-check grid 4 5 --r 1",
    "iso-check even-torus 4 4 --r 1 --trials 20 --seed 3",
    # error exits
    "gen path 5000",
    "grundy missing.txt",
    "bounds --kind bogus p4.txt c5.txt",
    "formula thm_cart_grid 5 3",
    "check-seq c5.txt pc.seq",
    "scan --max-n 0",
]


def render(workdir: str) -> str:
    """The record of every command, run in order with workdir as the cwd."""
    blocks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(shlex.split(command))
            lines = [f"$ {command}", f"exit={code}"]
            lines += [f"| {ln}" for ln in out.getvalue().splitlines() if not ln.startswith("#")]
            lines += [f"! {ln}" for ln in err.getvalue().splitlines()]
            blocks.append("\n".join(lines) + "\n")
    finally:
        os.chdir(cwd)
    return "".join(blocks)


def test_cli_output_matches_the_record(tmp_path):
    assert render(str(tmp_path)) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        GOLDEN.write_text(render(workdir))
