"""``fleet-sweep``: a 6T+8T margin sweep through a dispatcher and two workers.

The dispatcher runs in the benchmark process; the two ``repro-sram
worker`` processes are started through ``launch.py``.  Every sweep uses
its own Monte-Carlo seed, so every shard job misses the store and is
computed.  The population is cut into small blocks and one shard per
block, so per-job dispatch cost is a visible share of the sweep.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

import common
import layers

VDDS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
CELLS = ("6t", "8t")
SAMPLES = 16384
BLOCK_SAMPLES = 1024
SHARDS = SAMPLES // BLOCK_SAMPLES
WORKERS = 2
FLEETS = 3

EXERCISED = ("startup", "kernels", "sram", "runtime", "distributed")
IDLE = ("nn.datasets", "nn.training", "nn.inference", "fault", "core", "serving")


def _analyzer(cell_kind: str, seed: int) -> Any:
    from repro.devices import ptm22
    from repro.sram import make_cell
    from repro.sram.montecarlo import MonteCarloAnalyzer
    from repro.sram.read_path import nominal_read_cycle

    tech = ptm22()
    # Both cells run on the 6T read budget, as in the hybrid array.
    return MonteCarloAnalyzer(
        cell=make_cell(cell_kind, tech), n_samples=SAMPLES, seed=seed,
        read_cycle=nominal_read_cycle(make_cell("6t", tech)),
        block_samples=BLOCK_SAMPLES,
    )


def expected(keys: List[List[Any]]) -> List[str]:
    """Monolithic ``MonteCarloAnalyzer.analyze`` per (cell, seed, vdd) (run by ``verify.py``)."""
    return [common.canonical(_analyzer(kind, seed).analyze(vdd).to_dict())
            for kind, seed, vdd in keys]


def sweep_seed(seed: int, fleet: int, sweep: int) -> int:
    return (seed * 1000 + fleet) * 1000 + sweep


def _sweeps(dispatcher: Any, seeds: List[int], seconds: float) -> List[Dict[str, Any]]:
    """Sweeps until ``seconds`` have passed (at least one).

    A sweep visits the voltages in order, the 6T and then the 8T cell at
    each; ``latencies_s`` holds one entry per voltage, both cells.
    """
    sweeps: List[Dict[str, Any]] = []
    start = time.monotonic()
    for seed in seeds:
        if sweeps and time.monotonic() - start >= seconds:
            break
        analyzers = {kind: _analyzer(kind, seed) for kind in CELLS}
        points = []
        latencies = []
        sweep_start = time.monotonic()
        for vdd in VDDS:
            t0 = time.monotonic()
            for kind, analyzer in analyzers.items():
                rates = analyzer.analyze_sharded(vdd, shards=SHARDS, dispatcher=dispatcher)
                points.append({"key": (kind, seed, vdd),
                               "rates": common.canonical(rates.to_dict())})
            latencies.append(time.monotonic() - t0)
        sweeps.append({"seed": seed, "wall_s": time.monotonic() - sweep_start,
                       "points": points, "latencies_s": latencies})
    return sweeps


def _fleet(run_dir: str, index: int, seeds: List[int], seconds: float,
           traced: bool) -> Dict[str, Any]:
    """Start a dispatcher and its workers, then sweep until time is up.

    ``seeds`` lists the sweep seeds in order; with ``seconds`` the fleet
    stops starting sweeps once that long has passed (at least one).
    """
    from repro.distributed import DirectoryStore, ShardDispatcher

    store = os.path.join(run_dir, f"store-{index}")
    os.makedirs(store)
    dispatcher_spans = os.path.join(run_dir, f"spans-{index}-dispatcher.json")
    setup_start = time.monotonic()
    dispatcher = ShardDispatcher(store=DirectoryStore(store))
    workers = []
    try:
        host, port = dispatcher.start()
        for w in range(WORKERS):
            spans = os.path.join(run_dir, f"spans-{index}-{w}.json") if traced else None
            workers.append(common.Child(
                common.python_argv("launch.py", [
                    "worker", "--connect", f"{host}:{port}", "--cache-dir", store,
                    "--name", f"w{w}",
                ]),
                common.child_env(store, spans),
                os.path.join(run_dir, f"worker-{index}-{w}.log"),
            ))
        dispatcher.await_workers(WORKERS, timeout=170)
        setup_s = time.monotonic() - setup_start
        tracer = layers.Tracer() if traced else None
        uninstall = layers.install(tracer) if tracer is not None else None
        try:
            sweeps = _sweeps(dispatcher, seeds, seconds)
        finally:
            if uninstall is not None:
                uninstall()
        if tracer is not None:
            tracer.dump(dispatcher_spans)
        stats = dispatcher.stats.to_dict()
        rss = max(w.peak_rss_mb() for w in workers)
    finally:
        dispatcher.close()
        codes = [w.stop(sig=None, timeout=30) for w in workers]
    if any(codes):
        raise RuntimeError(f"worker exit codes {codes} ({workers[0].tail()})")
    return {"setup_s": setup_s, "sweeps": sweeps, "stats": stats, "peak_rss_mb": rss,
            "workers": workers, "dispatcher_spans": dispatcher_spans}


def run(seed: int, seconds: float, trace: bool, run_dir: str) -> Dict[str, Any]:
    fleets = [_fleet(run_dir, k, [sweep_seed(seed, k, j) for j in range(1000)],
                     seconds / FLEETS, False)
              for k in range(1 if trace else FLEETS)]
    traced = None
    if trace:
        # The same sweeps as the untraced fleet, into a fresh store.
        traced = _fleet(run_dir, FLEETS, [s["seed"] for s in fleets[0]["sweeps"]],
                        float("inf"), True)

    passes = fleets + ([traced] if traced is not None else [])
    keys = sorted({p["key"] for f in passes for s in f["sweeps"] for p in s["points"]})
    store = os.path.join(run_dir, "store-verify")
    os.makedirs(store)
    answers = common.expected_in_processes("fleet_sweep", keys, run_dir,
                                           common.child_env(store), WORKERS)
    reference = dict(zip(keys, answers))

    attempted = 0
    failed = 0
    failures: List[str] = []
    for fleet in passes:
        for sweep in fleet["sweeps"]:
            for point in sweep["points"]:
                attempted += 1
                if point["rates"] != reference[point["key"]]:
                    failed += 1
                    failures.append(f"merged point {point['key']} differs from analyze()")
    if traced is not None:
        if ([p["rates"] for s in traced["sweeps"] for p in s["points"]]
                != [p["rates"] for s in fleets[0]["sweeps"] for p in s["points"]]):
            failed += 1
            failures.append("traced sweep results differ from untraced ones")

    sweeps = [s for f in fleets for s in f["sweeps"]]
    jobs = len(CELLS) * len(VDDS) * SHARDS
    samples = len(CELLS) * len(VDDS) * SAMPLES

    def latencies_ms(fleet: Dict[str, Any]) -> List[float]:
        return [1e3 * t for s in fleet["sweeps"] for t in s["latencies_s"]]

    def jobs_per_s(fleet: Dict[str, Any]) -> float:
        return jobs * len(fleet["sweeps"]) / sum(s["wall_s"] for s in fleet["sweeps"])

    # Per-fleet figures, then the median over fleets: a stall of the
    # machine during one fleet's sweeps moves one of three values.
    end_to_end = {
        "setup_s": common.median([f["setup_s"] for f in fleets]),
        "wall_s": common.median([s["wall_s"] for s in sweeps]),
        "peak_rss_mb": common.median([f["peak_rss_mb"] for f in fleets]),
        "eval_p50_ms": common.median([common.median(latencies_ms(f)) for f in fleets]),
        "eval_p90_ms": common.median([common.p90(latencies_ms(f)) for f in fleets]),
        "req_per_s": common.median([jobs_per_s(f) for f in fleets]),
    }
    common.log(f"fleet-sweep: {len(sweeps)} sweeps of {jobs} shard jobs, "
               f"{samples / end_to_end['wall_s']:.0f} Monte-Carlo samples/s (median sweep), "
               f"setup {[round(f['setup_s'], 3) for f in fleets]} s")
    out: Dict[str, Any] = {"attempted": attempted, "failed": failed,
                           "failures": failures, "end_to_end": end_to_end,
                           "counts": {"sweeps": len(sweeps),
                                      "points": len(CELLS) * len(VDDS) * len(sweeps),
                                      "mc_samples_per_s": samples / end_to_end["wall_s"]}}
    if traced is not None:
        pids = [w.proc.pid for w in traced["workers"]]
        spans, missing = layers.load_spans(
            [os.path.join(run_dir, f"spans-{FLEETS}-{w}.json") for w in range(WORKERS)]
            + [traced["dispatcher_spans"]]
        )
        out["spans"] = spans
        out["process_names"] = {pid: f"worker w{i}" for i, pid in enumerate(pids)}
        out["process_names"][os.getpid()] = "dispatcher"
        out["missing"] = missing
        wall = sum(s["wall_s"] for s in traced["sweeps"])
        stats = traced["stats"]
        out["per_layer"] = layers.layer_metrics(
            spans, common.scipy_stats_import_s(),
            None,
            {"jobs": stats.get("jobs", 0), "retries": stats.get("retries", 0),
             "speculations": stats.get("speculations", 0), "workers": WORKERS,
             "wall_s": wall},
        )
        out["per_layer"]["obs.trace_overhead_frac"] = (
            jobs_per_s(fleets[0]) / jobs_per_s(traced) - 1.0
        )
        out["calls"] = layers.layer_calls(spans, 0)
        out["exercised"], out["idle"] = EXERCISED, IDLE
    return out
