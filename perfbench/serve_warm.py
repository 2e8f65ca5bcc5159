"""``serve-warm``: ``repro-sram serve`` on a store holding the model and tables.

The store is primed once per program version, untimed, by a ``serve
--stdin`` process that answers no requests; every server then starts on
its own copy of it.  The load is a closed loop over two connections:
each connection sends its next request when the previous answer arrives.
The request mix is generated from the workload seed: every third request
repeats an earlier one of the same server (answered from the response
store or coalesced with the in-flight evaluation); the others are
distinct configurations x voltages x fault seeds that miss every cache.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import layers

SERVER_ARGS = ["serve", "--host", "127.0.0.1", "--port", "0", "--samples", "8000",
               "--trials", "3", "--profile", "fast", "--tech", "ptm22"]
VDDS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
#: Weight layers of the fast-profile network (config2 allocations).
LAYERS = 5
CONNECTIONS = 2
SERVERS = 3
#: Requests per block for ``wall_s``.
BLOCK = 15
#: Non-repeat requests each server answers at least, whatever the time
#: slice: each server's p50/p90 come from >= 34 latencies, and a run has
#: >= 102 of them.
MIN_FRESH = 34
MAX_REQUESTS = 2000

EXERCISED = ("startup", "nn.datasets", "nn.inference", "mem", "fault", "core",
             "runtime", "serving")
IDLE = ("nn.training", "kernels", "sram", "distributed")


def primed_store(run_dir: str) -> str:
    """The store with the served model and tables (built once, untimed)."""
    primed = os.path.join(common.OUT, f"serve-primed-{common.source_digest()}")
    if os.path.isfile(os.path.join(primed, "READY")):
        return primed
    building = os.path.join(run_dir, "priming")
    child = common.Child(
        common.python_argv("launch.py", [*SERVER_ARGS, "--stdin"]),
        common.child_env(building), os.path.join(run_dir, "priming.log"),
    )
    code = child.stop(sig=None, timeout=600)
    if code != 0:
        raise RuntimeError(f"priming the serve store failed ({child.tail()})")
    if any(name.startswith("serve-") for name in os.listdir(building)):
        raise RuntimeError("the primed store holds serve responses")
    open(os.path.join(building, "READY"), "w").close()
    try:
        os.rename(building, primed)
    except OSError:
        if not os.path.isfile(os.path.join(primed, "READY")):
            raise
        common.remove_tree(building)
    return primed


def request_mix(seed: int, segment: int) -> List[Tuple[Dict[str, Any], bool]]:
    """(request, is_repeat) pairs for one server, from the workload seed."""
    rng = random.Random(f"serve-warm/{seed}/{segment}")
    fresh: List[Dict[str, Any]] = []
    used_seeds = set()
    mix = []
    for i in range(MAX_REQUESTS):
        if i % 3 == 2:
            mix.append((dict(rng.choice(fresh)), True))
            continue
        config = rng.choice(("base", "config1", "config2"))
        request: Dict[str, Any] = {"config": config, "vdd": rng.choice(VDDS)}
        if config == "config1":
            request["msb_in_8t"] = rng.randint(1, 4)
        elif config == "config2":
            request["msb_per_layer"] = [rng.randint(0, 4) for _ in range(LAYERS)]
        fault_seed = rng.randrange(1, 2**31)
        while fault_seed in used_seeds:
            fault_seed = rng.randrange(1, 2**31)
        used_seeds.add(fault_seed)
        request["seed"] = fault_seed
        fresh.append(request)
        mix.append((request, False))
    return mix


def _closed_loop(port: int, mix: List[Tuple[Dict[str, Any], bool]],
                 deadline: Optional[float], count: Optional[int]) -> List[Dict[str, Any]]:
    """Send requests in mix order over CONNECTIONS connections.

    Stops after ``count`` requests, or else once ``deadline`` has passed
    and MIN_FRESH non-repeat requests have been sent.
    """
    limit = count if count is not None else len(mix)
    lock = threading.Lock()
    next_index = [0]
    records: List[Dict[str, Any]] = []
    errors: List[BaseException] = []

    def connection() -> None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=120) as sock, \
                    sock.makefile("r") as reader:
                while True:
                    with lock:
                        i = next_index[0]
                        if i >= limit or (
                            deadline is not None and time.monotonic() >= deadline
                            and i - i // 3 >= MIN_FRESH
                        ):
                            return
                        next_index[0] += 1
                    request, repeat = mix[i]
                    line = json.dumps({**request, "id": f"r{i}"}) + "\n"
                    sent = time.monotonic()
                    sock.sendall(line.encode())
                    answer = reader.readline()
                    done = time.monotonic()
                    if not answer:
                        raise RuntimeError("server closed the connection")
                    with lock:
                        records.append({"index": i, "repeat": repeat, "sent": sent,
                                        "done": done, "answer": answer})
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client connection failed: {errors[0]!r}")
    return sorted(records, key=lambda r: r["index"])


def _stats_probe(port: int) -> Dict[str, Any]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock, \
            sock.makefile("r") as reader:
        sock.sendall(b'{"type": "stats"}\n')
        return json.loads(reader.readline())["stats"]


def _serve(run_dir: str, primed: str, index: int, mix: List[Tuple[Dict[str, Any], bool]],
           deadline_s: Optional[float], count: Optional[int], traced: bool) -> Dict[str, Any]:
    store = os.path.join(run_dir, f"store-{index}")
    shutil.copytree(primed, store)
    spans = os.path.join(run_dir, f"spans-{index}.json") if traced else None
    child = common.Child(
        common.python_argv("launch.py", SERVER_ARGS),
        common.child_env(store, spans), os.path.join(run_dir, f"serve-{index}.log"),
    )
    try:
        line = child.wait_line("serving on", timeout=170)
        setup_s = time.monotonic() - child.spawned_at
        port = int(line.split()[2].rsplit(":", 1)[1])
        start = time.monotonic()
        deadline = None if deadline_s is None else start + deadline_s
        records = _closed_loop(port, mix, deadline, count)
        stats = _stats_probe(port)
        rss = child.peak_rss_mb()
    finally:
        code = child.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code} ({child.tail()})")
    return {"setup_s": setup_s, "records": records, "stats": stats, "peak_rss_mb": rss,
            "start": start, "spans": spans, "pid": child.proc.pid}


def expected(requests: List[Dict[str, Any]]) -> List[str]:
    """``sequential_response`` for each request (run by ``verify.py``).

    The simulator is built from the store in ``REPRO_CACHE_DIR``, as
    serve builds it.
    """
    import repro.core
    from repro.devices import ptm22
    from repro.mem import CellTables
    from repro.serving import EvalRequest, sequential_response

    model = repro.core.train_benchmark_ann(profile="fast")
    tables = CellTables.build(technology=ptm22(), n_samples=8000)
    sim = repro.core.CircuitToSystemSimulator(model, tables=tables, n_trials=3)
    return [common.canonical(sequential_response(sim, EvalRequest.from_dict(r)))
            for r in requests]


def _expected_responses(primed: str, run_dir: str,
                        requests: List[Dict[str, Any]]) -> Dict[str, str]:
    """``sequential_response`` for every distinct request (untimed)."""
    store = os.path.join(run_dir, "store-verify")
    shutil.copytree(primed, store)
    distinct = list({common.canonical(r): r for r in requests}.values())
    answers = common.expected_in_processes("serve_warm", distinct, run_dir,
                                           common.child_env(store), CONNECTIONS)
    return {common.canonical(r): a for r, a in zip(distinct, answers)}


def run(seed: int, seconds: float, trace: bool, run_dir: str) -> Dict[str, Any]:
    primed = primed_store(run_dir)
    mixes = [request_mix(seed, k) for k in range(SERVERS)]
    untraced = [_serve(run_dir, primed, k, mixes[k], seconds / SERVERS, None, False)
                for k in range(1 if trace else SERVERS)]
    traced = None
    if trace:
        # Replays exactly the requests the untraced server answered.
        traced = _serve(run_dir, primed, SERVERS, mixes[0], None,
                        len(untraced[0]["records"]), True)

    passes = [(s, mixes[k]) for k, s in enumerate(untraced)]
    if traced is not None:
        passes.append((traced, mixes[0]))
    issued = [mix[r["index"]][0] for s, mix in passes for r in s["records"]]
    verify_start = time.monotonic()
    reference = _expected_responses(primed, run_dir, issued)
    common.log(f"serve-warm: verified {len(reference)} distinct responses in "
               f"{time.monotonic() - verify_start:.1f} s")

    attempted = 0
    failed = 0
    failures: List[str] = []
    for server, mix in passes:
        for record in server["records"]:
            attempted += 1
            request = mix[record["index"]][0]
            answer = json.loads(record["answer"])
            if not answer.get("ok"):
                failed += 1
                failures.append(f"request r{record['index']} failed: {answer.get('error')}")
            elif common.canonical(answer["result"]) != reference[common.canonical(request)]:
                failed += 1
                failures.append(f"request r{record['index']} differs from sequential_response")
    if traced is not None:
        answers = [common.canonical(json.loads(r["answer"])) for r in untraced[0]["records"]]
        if answers != [common.canonical(json.loads(r["answer"])) for r in traced["records"]]:
            failed += 1
            failures.append("traced responses differ from untraced ones")

    def latencies_ms(server: Dict[str, Any]) -> List[float]:
        return [1e3 * (r["done"] - r["sent"]) for r in server["records"] if not r["repeat"]]

    def rate(server: Dict[str, Any]) -> float:
        records = server["records"]
        return len(records) / (max(r["done"] for r in records) - server["start"])

    # Per-server figures, then the median over servers: a stall of the
    # machine during one server's load moves one of three values.
    fresh_ms = [latencies_ms(s) for s in untraced]
    total = sum(len(s["records"]) for s in untraced)
    blocks = []
    for server in untraced:
        records = server["records"]
        for lo in range(0, len(records) - BLOCK + 1, BLOCK):
            block = records[lo:lo + BLOCK]
            blocks.append(max(r["done"] for r in block) - min(r["sent"] for r in block))
    if not blocks:
        raise RuntimeError("too few requests for one block; raise --seconds")
    end_to_end = {
        "setup_s": common.median([s["setup_s"] for s in untraced]),
        "wall_s": common.median(blocks),
        "peak_rss_mb": common.median([s["peak_rss_mb"] for s in untraced]),
        "eval_p50_ms": common.median([common.median(ms) for ms in fresh_ms]),
        "eval_p90_ms": common.median([common.p90(ms) for ms in fresh_ms]),
        "req_per_s": common.median([rate(s) for s in untraced]),
    }
    n_fresh = sum(len(ms) for ms in fresh_ms)
    common.log(f"serve-warm: {total} requests ({n_fresh} non-repeat) over "
               f"{len(untraced)} servers, setup {[round(s['setup_s'], 3) for s in untraced]} s")
    out: Dict[str, Any] = {"attempted": attempted, "failed": failed,
                           "failures": failures, "end_to_end": end_to_end,
                           "counts": {"requests": total, "non_repeat": n_fresh}}
    if traced is not None:
        spans, missing = layers.load_spans([traced["spans"]])
        out["spans"] = spans
        out["process_names"] = {traced["pid"]: "serve"}
        out["missing"] = missing
        out["per_layer"] = layers.layer_metrics(
            spans, common.scipy_stats_import_s(), traced["stats"], None
        )
        traced_p50 = common.median(latencies_ms(traced))
        out["per_layer"]["obs.trace_overhead_frac"] = (
            traced_p50 / common.median(latencies_ms(untraced[0])) - 1.0
        )
        out["calls"] = layers.layer_calls(spans, traced["stats"].get("requests", 0))
        out["exercised"], out["idle"] = EXERCISED, IDLE
    return out
