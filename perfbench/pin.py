"""Record the outputs of every workload at the default seed as pinned.json.

The pins were recorded once, at the commit that added the benchmark; every
later run is compared against them. Re-record only when a change is meant to
alter an output, and say so in the change.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, OUT, clean_env
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def layout(value, depth: int = 0) -> str:
    """JSON with one pinned row or output per line, so that diffs stay small."""
    pad = " " * depth
    if isinstance(value, dict):
        items = [f"{pad} {json.dumps(k)}: {layout(v, depth + 1).lstrip()}"
                 for k, v in sorted(value.items())]
        return f"{pad}{{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        rows = [f"{pad} {json.dumps(v)}" for v in value]
        return f"{pad}[\n" + ",\n".join(rows) + f"\n{pad}]"
    return pad + json.dumps(value)


def main() -> int:
    pins = {"seed": DEFAULT_SEED}
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        path = OUT / f"pins-{name}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(DEFAULT_SEED), "--pins", str(path)],
            env=clean_env(), capture_output=True, text=True, check=True,
        )
        errors = json.loads(proc.stdout.splitlines()[-1])["errors"]
        if errors:
            raise SystemExit(f"{name}: operations failed: {errors}")
        pins[name] = json.loads(path.read_text())
    (HERE / "pinned.json").write_text(layout(pins) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
