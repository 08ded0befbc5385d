"""Benchmark of the grundydom library: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Each pass over the workload runs in a fresh interpreter (worker.py), one at
a time, until --seconds have passed and at least two passes ran. With
--trace 0 the end-to-end metrics are printed, scaled to a reference speed
and also as measured; with --trace 1 the run is a separate traced run that
prints the per-layer metrics. Every output is checked against pinned.json; a wrong
output, a rejected witness or a count that differs between passes makes the
run exit 1. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Records of each run, and the
spans of traced passes, are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
RUN_LIMIT_S = 170  # every worker of a run must end within this
SETUP_SAMPLES = 9  # set-up is measured this many times per run, at least
MEMO_CAP_ENV = "GRUNDYDOM_MEMO_CAP"
# The worker's reference loop on the 2-core machine the benchmark was defined
# on, in a quiet moment. Times are scaled by REFERENCE_S over the loop's median
# time in the same process, to take out how fast the shared host ran it.
REFERENCE_S = 0.015

# Counts that must repeat exactly between passes of the same inputs.
DETERMINISTIC = (
    "solver.nodes", "solver.closed_nodes", "solver.open_nodes", "solver.memo_entries",
    "solver.weighted_calls", "graphs.canonical_code_calls", "graphs.classes",
    "theory.edge_clique_cover_calls", "theory.scan_pairs", "theory.scan_counterexamples",
    "products.product_calls", "sequences.check_sequence_calls", "instances",
)
UNITS = {
    "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "fail_ratio": "ratio", "trace.overhead_ratio": "ratio",
    "solver.nodes_per_s": "1/s", "theory.scan_pair_ms_p50": "ms",
    "theory.scan_pair_ms_max": "ms",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def speed(report: dict) -> float:
    """Factor that scales a worker's times to the reference speed."""
    return REFERENCE_S / statistics.median(report["reference_s"])


def clean_env() -> dict:
    """The caller's environment without settings that change the library."""
    env = dict(os.environ)
    env.pop(MEMO_CAP_ENV, None)
    return env


def commit_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setups: list[tuple[float, float]] = []  # (set-up time, speed factor)

    def worker(self, *flags: str) -> dict:
        """Run one worker process to its end and return its JSON report."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker {' '.join(flags)} exited {proc.returncode}:"
                               f"\n{proc.stderr.strip()}")
        report = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append((report["setup_s"], speed(report)))
        return report

    def top_up_setups(self) -> None:
        while len(self.setups) < SETUP_SAMPLES:
            self.worker("--setup-only")


def drift(reports: list[dict]) -> list[str]:
    """Deterministic counts that differ between passes over the same inputs."""
    problems = []
    first = reports[0]["counts"]
    for other in (r["counts"] for r in reports[1:]):
        for key in set(first) | set(other):
            if first.get(key) != other.get(key):
                problems.append(f"counts of '{key}' differ between passes:"
                                f" {first.get(key)} vs {other.get(key)}")
    traced = [r["layers"] for r in reports if "layers" in r]
    for other in traced[1:]:
        problems += [f"{name} differs between traced passes: {traced[0][name]} vs {other[name]}"
                     for name in DETERMINISTIC if traced[0][name] != other[name]]
    return problems


def end_to_end(reports: list[dict], setups: list[tuple], scaled: bool = True) -> dict:
    """The end-to-end metrics, scaled to the reference speed or as measured."""
    def k(factor: float) -> float:
        return factor if scaled else 1.0

    latencies_ms = [x * 1e3 * k(speed(r)) for r in reports for x in r["latencies"]]
    return {
        "setup_s": statistics.median(t * k(f) for t, f in setups),
        "wall_s": statistics.median(r["wall_s"] * k(speed(r)) for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] * k(speed(r)) for r in reports),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(baseline: dict, traced: list[dict], witness_off: dict | None) -> dict:
    layers = {}
    for name in traced[0]["layers"]:
        if name == "instances":
            continue
        values = [r["layers"][name] for r in traced]
        layers[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    search_s = layers["solver.closed_s"] + layers["solver.open_s"]
    if witness_off is None:
        layers["solver.reconstruct_s"] = 0.0
    else:
        off = witness_off["layers"]
        layers["solver.reconstruct_s"] = search_s - off["solver.closed_s"] - off["solver.open_s"]
    layers["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] * speed(r) for r in traced)
        / (baseline["wall_s"] * speed(baseline)))
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run raises SystemExit, so subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "grundydom").is_dir():
        print(f"no grundydom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "load_start": os.getloadavg()[0], "commit": commit_hash(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
    }
    runner = Runner(args.workload, args.seed)
    started = time.monotonic()
    try:
        if args.trace:
            baseline = runner.worker("--trace", "0")
            traced = [runner.worker("--trace", "1", "--spans",
                                    str(OUT / f"spans-{args.workload}-{i}.jsonl"))
                      for i in range(2)]
            reports = [baseline, *traced]
            witness_off = None
            if args.workload == "solve":  # elsewhere reconstruction is lost in noise
                witness_off = runner.worker("--trace", "1", "--witness", "0")
            checked = reports + [witness_off] if witness_off else reports
        else:
            reports = []  # at least two passes, to compare their counts
            while len(reports) < 2 or time.monotonic() - started < args.seconds:
                reports.append(runner.worker("--trace", "0"))
            runner.top_up_setups()
            checked = reports
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    env["load_end"] = os.getloadavg()[0]

    attempted = sum(r["attempted"] for r in checked)
    failures = [f"{k}: {v}" for r in checked for k, v in r["failures"].items()]
    failures += [f for r in checked for f in r["finish_failures"]]
    failed = min(attempted, len(failures))
    errors = drift(reports)
    if args.trace:
        metrics = per_layer(baseline, traced, witness_off)
    else:
        metrics = end_to_end(reports, runner.setups)
    summary = {
        "passes": len(reports), "operations": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "setup_samples": len(runner.setups),
    }
    correct = not failures and not errors

    print(" ".join(f"{k}={v}" for k, v in {**env, **summary}.items()))
    for problem in (failures + errors)[:20]:
        print(f"ERROR {problem}")
    for name, value in {**metrics, "fail_ratio": summary["fail_ratio"]}.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    if not args.trace:
        for name, value in end_to_end(reports, runner.setups, scaled=False).items():
            print(f"as measured: {name} = {value:.6g} {unit(name)}")
        print(f"reference loop = {statistics.median(r for x in reports for r in x['reference_s']):.6g} s"
              f" (REFERENCE_S {REFERENCE_S} s)")
    if args.trace and witness_off:
        for op, _, nodes in sorted(witness_off["layers"]["instances"]):
            print(f"witness-off nodes {op}: {nodes}")

    record = {"env": env, "summary": summary, "correct": correct, "metrics": metrics,
              "failures": failures, "errors": errors,
              "passes": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                            "latencies", "reference_s")}
                         for r in reports]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
