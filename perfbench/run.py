"""The repository benchmark: ``python3 perfbench/run.py --workload <name> ...``.

Runs one workload against the program in ``src/``, checks its outputs and
prints one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` they are
the per-layer metrics of a traced pass, the traced pass is checked against
an untraced one, and a merged Perfetto trace is written under
``.perfbench_out/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

#: end_to_end / per_layer units, as declared in BENCHMARK.json.
UNITS_PATH = os.path.join(common.ROOT, "BENCHMARK.json")


def _units(section: str) -> dict:
    with open(UNITS_PATH) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "serve-warm", "fleet-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = common.checkout_problem()
    if problem is not None:
        common.log(problem)
        return 2
    common.pin_environment()

    import layers

    workload = importlib.import_module(args.workload.replace("-", "_"))

    run_dir = common.make_run_dir(args.workload)
    # Anything that falls back to the default store stays in this run.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "store-default")
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace), run_dir)
        if args.trace:
            problems = layers.check_layers(result["calls"], result["exercised"], result["idle"])
            problems += [f"wrapper target missing: {m}" for m in result["missing"]]
            if problems:
                result["failed"] += len(problems)
                result["failures"] += problems
            traces = os.path.join(common.OUT, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
            layers.write_perfetto(result["spans"], trace_path, result["process_names"])
            common.log(f"trace: {os.path.relpath(trace_path, common.ROOT)}")
    finally:
        common.remove_tree(run_dir)

    section = "per_layer" if args.trace else "end_to_end"
    units = _units(section)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for failure in result["failures"]:
        common.log(f"FAILED: {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": common.environment_record(),
        "counts": result.get("counts", {}), "calls": result.get("calls", {}),
        "failures": result["failures"], "metrics": metrics,
    }
    results = os.path.join(common.OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    common.log(f"environment: {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
