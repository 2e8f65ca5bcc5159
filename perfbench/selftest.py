"""Self-test of the benchmark: every workload once with tracing on.

Usage: ``python3 perfbench/selftest.py``

Each workload runs with seed 1 for the ``run_seconds`` of
``BENCHMARK.json``.  A traced run fails (``correct`` false) when a layer
the workload exercises records no calls, when a layer marked ≈0 for it
records calls, when a wrapper target has disappeared, or when the traced
outputs differ from the untraced ones; it also checks every output as
the untraced run does.  Exits non-zero if any workload fails or misses a
per-layer metric.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"] for m in spec["per_layer"]}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            print(f"{workload}: benchmark exited with {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        absent = sorted(wanted - set(result["metrics"]))
        if not result["correct"] or absent:
            failures = [ln for ln in proc.stderr.splitlines() if "FAILED" in ln]
            print(f"{workload}: FAILED {failures} missing metrics {absent}")
            status = 1
        else:
            print(f"{workload}: ok ({result['attempted']} checked operations)")
    return status


if __name__ == "__main__":
    sys.exit(main())
