"""``paper-cold``: the library pipeline from an empty store, in fresh processes.

Each repetition is one ``pipeline.py`` process with its own empty store,
so imports, dataset synthesis, training and characterization all do real
work.  The run repeats until the measuring time is spent (at least twice)
and reports medians.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

import common
import layers

#: Tolerances of tests/core/test_golden_regression.py.
REL = 1e-9
ACC_ABS = 0.005
SCALARS = ("expected_flips", "access_power", "leakage_power", "area")
ACCURACIES = ("baseline_accuracy", "mean_accuracy")

EXERCISED = ("startup", "nn.datasets", "nn.training", "nn.inference", "kernels",
             "sram", "mem", "fault", "core", "runtime")
IDLE = ("serving", "distributed")


def _golden_failures(points: List[Dict[str, Any]]) -> List[str]:
    with open(common.GOLDEN) as fh:
        golden = json.load(fh)["points"]
    if len(points) != len(golden):
        return [f"{len(points)} points for {len(golden)} golden entries"]
    failures = []
    for entry, point in zip(golden, points):
        label = f"{entry['request']['config']} @ {entry['request']['vdd']} V"
        bad = [name for name in SCALARS
               if not common.close_to(point[name], entry[name], rel=REL, abs_=1e-12)]
        bad += [name for name in ACCURACIES
                if not common.close_to(point[name], entry[name], abs_=ACC_ABS)]
        trials = point["trial_accuracies"]
        if len(trials) != len(entry["trial_accuracies"]) or not all(
            common.close_to(a, e, abs_=ACC_ABS)
            for a, e in zip(trials, entry["trial_accuracies"])
        ):
            bad.append("trial_accuracies")
        if bad:
            failures.append(f"{label}: {', '.join(bad)} off the golden values")
    return failures


def _pipeline(run_dir: str, index: int, traced: bool, setup_only: bool = False) -> Dict[str, Any]:
    store = os.path.join(run_dir, f"store-{index}")
    spans = os.path.join(run_dir, f"spans-{index}.json") if traced else None
    child = common.Child(
        common.python_argv("pipeline.py", ["--setup-only"] if setup_only else []),
        common.child_env(store, spans),
        os.path.join(run_dir, f"pipeline-{index}.log"),
    )
    try:
        line = child.wait_line("{", timeout=170)
    finally:
        code = child.stop(sig=None, timeout=60)
    if code != 0:
        raise RuntimeError(f"pipeline exited with {code} ({child.tail()})")
    result = json.loads(line)
    result["setup_s"] = result["imported_at"] - child.spawned_at
    if not setup_only:
        result["wall_s"] = result["finished_at"] - child.spawned_at
    result["spans"] = spans
    return result


def run(seed: int, seconds: float, trace: bool, run_dir: str) -> Dict[str, Any]:
    # The pipeline has no inputs to vary: its scale is fixed by the
    # golden data it is checked against, so the seed is unused.
    del seed
    results: List[Dict[str, Any]] = []
    start = time.monotonic()
    while len(results) < 2 or (not trace and time.monotonic() - start < seconds):
        results.append(_pipeline(run_dir, len(results), traced=trace and len(results) == 1))
    untraced = results[:1] if trace else results
    # A third set-up, so setup_s is a median of at least three.
    setups = [r["setup_s"] for r in untraced]
    while len(setups) < 3:
        setups.append(_pipeline(run_dir, len(results) + len(setups), False, True)["setup_s"])

    attempted = 0
    failed = 0
    failures: List[str] = []
    for result in results:
        problems = _golden_failures(result["points"])
        attempted += len(result["points"])
        failed += len(problems)
        failures += problems
    first = results[0]
    for result in results[1:]:
        if (common.canonical(result["points"]) != common.canonical(first["points"])
                or common.canonical(result["study"]) != common.canonical(first["study"])):
            failures.append("pipeline outputs differ between repetitions"
                            + (" (traced vs untraced)" if trace else ""))
            failed += 1

    def evals_ms(result: Dict[str, Any]) -> List[float]:
        return [1e3 * s for s in result["eval_s"]]

    end_to_end = {
        "setup_s": common.median(setups),
        "wall_s": common.median([r["wall_s"] for r in untraced]),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in untraced]),
        "eval_p50_ms": common.median([common.median(evals_ms(r)) for r in untraced]),
        "eval_p90_ms": common.median([common.p90(evals_ms(r)) for r in untraced]),
        "req_per_s": common.median([len(r["eval_s"]) / sum(r["eval_s"]) for r in untraced]),
    }
    common.log(f"paper-cold: {len(untraced)} cold pipelines, wall "
               f"{[round(r['wall_s'], 3) for r in untraced]} s, setup "
               f"{[round(s, 3) for s in setups]} s")
    out: Dict[str, Any] = {"attempted": attempted, "failed": failed,
                           "failures": failures, "end_to_end": end_to_end,
                           "counts": {"pipelines": len(untraced),
                                      "evaluations": sum(len(r["eval_s"]) for r in untraced)}}
    if trace:
        traced = results[1]
        spans, missing = layers.load_spans([traced["spans"]])
        out["spans"] = spans
        out["process_names"] = {spans[0]["pid"]: "pipeline"} if spans else {}
        out["missing"] = missing
        out["per_layer"] = layers.layer_metrics(
            spans, common.scipy_stats_import_s(), None, None
        )
        out["per_layer"]["obs.trace_overhead_frac"] = traced["wall_s"] / first["wall_s"] - 1.0
        out["calls"] = layers.layer_calls(spans, 0)
        out["exercised"], out["idle"] = EXERCISED, IDLE
    return out
