"""One pass over one workload, in a fresh interpreter.

Run by run.py, one process per pass, so the enumeration cache and the memo
start cold and the peak resident size belongs to this pass alone. Prints one
JSON object: set-up time, pass wall and CPU time, per-operation latencies,
failures, deterministic counts and, when traced, per-layer totals.

    python3 perfbench/worker.py --workload solve --seed 0 --trace 0 --witness 1
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_package():
    """Import grundydom from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import grundydom
    from grundydom import graphs, products, sequences, solver, theory  # noqa: F401

    if Path(grundydom.__file__).resolve().parent != SRC / "grundydom":
        raise SystemExit(f"grundydom imported from {grundydom.__file__}, not {SRC}")
    return grundydom


REFERENCE_LOOPS = 200_000
REFERENCE_EVERY_S = 0.5


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the library under test."""
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i & 0xFF
    return s


class Speed:
    """Times the reference loop between operations, to see how fast the host runs us."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = self.cpu = 0.0  # spent in the loop, to take out of the pass
        self.last = 0.0

    def sample(self) -> None:
        cpu0, start = cpu_seconds(), time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        self.wall += self.last - start
        self.cpu += cpu_seconds() - cpu0

    def due(self) -> None:
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()


def cpu_seconds() -> float:
    """User plus system time of this process and of any it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--witness", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the spans to")
    ap.add_argument("--pins", help="write this pass's outputs as pins to this file")
    args = ap.parse_args()

    gd = import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workload = WORKLOADS[args.workload](gd, args.seed, bool(args.witness))
    setup_s = time.perf_counter() - _T0
    speed = Speed()
    if args.setup_only:
        tracer.uninstall()
        for _ in range(3):
            speed.sample()
        print(json.dumps({"setup_s": setup_s, "reference_s": speed.samples}))
        return 0

    outputs, latencies, errors = {}, [], {}
    speed.sample()
    cpu0, wall0, spent_wall, spent_cpu = cpu_seconds(), time.perf_counter(), speed.wall, speed.cpu
    for key, thunk in workload.ops():
        tracer.op = key
        start = time.perf_counter()
        try:
            outputs[key] = thunk()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        speed.due()
    wall_s = time.perf_counter() - wall0 - (speed.wall - spent_wall)
    cpu_s = cpu_seconds() - cpu0 - (speed.cpu - spent_cpu)
    speed.sample()
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.pins:
        with open(args.pins, "w") as fh:
            json.dump(workload.pins(outputs), fh)
        print(json.dumps({"errors": errors}))
        return 0
    pins = json.loads((HERE / "pinned.json").read_text())
    failures, counts = dict(errors), {}
    for key, out in outputs.items():
        problem, counts[key] = workload.check(key, out, pins)
        if problem:
            failures[key] = problem
    finish = workload.finish(pins)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "reference_s": speed.samples,
        "attempted": len(latencies),
        "failures": failures,
        "finish_failures": finish,
        "counts": counts,
    }
    if args.trace:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
