"""One cold run of the paper pipeline at the golden fast-profile scale.

Usage: ``python perfbench/pipeline.py [--setup-only]`` with ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` pointing at an empty store, as
``paper_cold.py`` starts it (``--setup-only`` stops after the imports).
Steps: 6T+8T characterization tables (8000 Monte-Carlo samples), the fast
benchmark ANN (4000 training images, 10 epochs), the Fig. 8 hybrid
configuration study with its defaults, and the three golden points of
``tests/core/golden_fast_profile.json``.

After the pipeline it times EVAL_ROUNDS more evaluations of the golden
points.  Prints one JSON line with the results, those latencies and
``time.monotonic()`` stamps (a clock shared by every process on the
machine), so the parent can time the run from the moment it spawned
this process.
"""

import json
import resource
import sys
import time

EVAL_ROUNDS = 5


def main() -> int:
    started = time.monotonic_ns()
    import repro.cli  # noqa: F401  (the whole program, as the CLI loads it)

    imported = time.monotonic_ns()
    # The benchmark's own modules load after the stamp, outside setup_s.
    import common
    import layers

    layers.start_from_env(started, imported)
    if "--setup-only" in sys.argv[1:]:
        print(json.dumps({"imported_at": imported / 1e9}), flush=True)
        return 0

    import repro.core
    from repro.devices import ptm22
    from repro.mem import CellTables

    with open(common.GOLDEN) as fh:
        golden = json.load(fh)["points"]

    tables = CellTables.build(technology=ptm22(), n_samples=8000)
    model = repro.core.train_benchmark_ann(
        profile="fast", seed=0, n_train=4000, n_val=400, n_test=1000, epochs=10
    )
    sim = repro.core.CircuitToSystemSimulator(model, tables=tables, n_trials=3)
    study = repro.core.hybrid_configuration_study(sim)
    points = []
    memories = []
    for entry in golden:
        spec = entry["request"]
        memory = sim.memory_for(spec["config"], spec["vdd"], msb_in_8t=spec.get("msb_in_8t"))
        memories.append(memory)
        evaluation = sim.evaluate(memory, seed=entry["seed"])
        points.append({
            "baseline_accuracy": evaluation.baseline_accuracy,
            "trial_accuracies": list(evaluation.trial_accuracies),
            "mean_accuracy": evaluation.mean_accuracy,
            "expected_flips": evaluation.expected_flips,
            "access_power": memory.access_power,
            "leakage_power": memory.leakage_power,
            "area": memory.area,
        })
    finished = time.monotonic()
    # Latency samples of the fault-evaluation hot path on the simulator
    # just built: every golden point again, EVAL_ROUNDS times (after the
    # pipeline's end stamp, so the pipeline's wall time excludes them).
    eval_s = []
    for _ in range(EVAL_ROUNDS):
        for entry, memory in zip(golden, memories):
            t0 = time.monotonic()
            sim.evaluate(memory, seed=entry["seed"])
            eval_s.append(time.monotonic() - t0)
    print(json.dumps({
        "imported_at": imported / 1e9,
        "finished_at": finished,
        "eval_s": eval_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": points,
        "study": [
            [r.vdd, r.msb_in_8t, list(r.evaluation.trial_accuracies),
             r.evaluation.expected_flips, r.access_power_reduction_pct,
             r.leakage_reduction_pct, r.area_overhead_pct]
            for r in study
        ],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
