"""Per-layer tracing for the benchmark: spans around calls into each layer.

The benchmark measures end-to-end metrics with tracing off.  A traced run
installs the wrappers below, which record one span per call into a
layer's public function.  Spans live in memory and are written out when
the process ends; the parent merges the spans of every process into one
Chrome/Perfetto trace and derives the per-layer metrics from them.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of nested layers add up to the
traced wall time instead of counting it twice.

Wrappers are attached where callers actually bind: methods on their
class (every instance and every bound-method lookup goes through it),
module functions at each module that imported them by name.  A target
that no longer exists is recorded in ``Tracer.missing`` rather than
failing, so the self-check can report which layer went unobserved.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variable naming the file a traced child writes its spans
#: to at exit (set by the benchmark for the processes it starts).
SPANS_ENV = "PERFBENCH_SPANS"

_MARK = "__perfbench_wrapped__"


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1]["name"] if stack else None

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Any:
        stack = self._stack()
        span: Dict[str, Any] = {
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else 0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        stack.append(span)
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
        span["start"] = start
        span["end"] = end
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        with self._lock:
            self.spans.append(span)
        return result

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured by the caller (e.g. the startup import)."""
        span = {
            "name": name, "id": next(self._ids), "parent": 0,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "start": start_ns, "end": end_ns,
        }
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with self._lock:
            document = {"spans": list(self.spans), "missing": list(self.missing)}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(document, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Span attributes (counts recorded where the work happens)
# ----------------------------------------------------------------------
def _train_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    x_train = args[2] if len(args) > 2 else kwargs["x_train"]
    return {"samples": int(len(x_train)) * int(getattr(result, "epochs_run", 0))}


def _margin_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    cell = args[1] if len(args) > 1 else kwargs["cell"]
    dvt = args[3] if len(args) > 3 else kwargs["dvt"]
    shape = getattr(dvt, "shape", ())
    return {"cell": str(getattr(cell, "kind", "?")),
            "samples": int(shape[0]) if len(shape) == 2 else 1}


def _eval_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    n_trials = args[5] if len(args) > 5 else kwargs.get("n_trials", 5)
    return {"trials": int(n_trials)}


def _eval_many_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    specs = args[2] if len(args) > 2 else kwargs["specs"]
    return {"trials": sum(int(spec.n_trials) for spec in specs)}


def _get_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _put_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    try:
        cache, namespace, payload = args[0], args[1], args[2]
        size = os.path.getsize(cache.path(namespace, payload))
    except (AttributeError, IndexError, OSError):
        size = 0
    return {"bytes": int(size)}


#: (span name, module, attribute path, attrs function).  Functions that
#: callers import by name are listed once per importing module.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., Dict[str, Any]]]], ...] = (
    ("nn.datasets.load", "repro.core.framework", "load_synthetic_digits", None),
    ("nn.datasets.generate", "repro.nn.datasets.loader", "generate_digit_images", None),
    ("nn.train", "repro.nn.trainer", "SGDTrainer.train", _train_attrs),
    ("nn.dense_forward", "repro.nn.layers", "DenseLayer.forward", None),
    ("nn.dense_backward", "repro.nn.layers", "DenseLayer.backward", None),
    ("nn.predict", "repro.nn.network", "FeedforwardANN.predict", None),
    ("sram.characterize", "repro.mem.tables", "characterize_cell", None),
    ("sram.tally", "repro.sram.montecarlo", "tally_shard", None),
    ("sram.tally", "repro.distributed.jobs", "tally_shard", None),
    ("sram.merge", "repro.sram.montecarlo", "MarginTally.merge", None),
    ("mem.tables_build", "repro.mem.tables", "CellTables.build", None),
    ("fault.eval", "repro.core.framework", "evaluate_under_faults", _eval_attrs),
    ("fault.eval", "repro.core.framework", "evaluate_many_under_faults", _eval_many_attrs),
    ("fault.inject", "repro.fault.injector", "WeightFaultInjector.inject", None),
    ("core.study", "repro.core", "hybrid_configuration_study", None),
    ("core.study", "repro.cli", "hybrid_configuration_study", None),
    ("core.model_load", "repro.core", "train_benchmark_ann", None),
    ("core.model_load", "repro.cli", "train_benchmark_ann", None),
    ("runtime.store_get", "repro.runtime.cache", "ResultCache.get", _get_attrs),
    ("runtime.store_put", "repro.runtime.cache", "ResultCache.put", _put_attrs),
    ("runtime.store_get", "repro.distributed.store", "DirectoryStore.get", _get_attrs),
    ("runtime.store_put", "repro.distributed.store", "DirectoryStore.put", None),
    ("distributed.execute", "repro.distributed.worker", "execute_job", None),
)


def _wrapper(tracer: Tracer, name: str, fn: Callable[..., Any],
             attrs: Optional[Callable[..., Dict[str, Any]]]) -> Callable[..., Any]:
    if name == "nn.dense_forward":
        # Inference forwards belong to the enclosing nn.predict span
        # (their time is the predict layer's self time); only training
        # forwards get spans of their own.
        @functools.wraps(fn)
        def dense_forward(*args: Any, **kwargs: Any) -> Any:
            if tracer.current() == "nn.predict":
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        setattr(dense_forward, _MARK, fn)
        return dense_forward

    @functools.wraps(fn)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, args, kwargs, attrs)

    setattr(wrapped, _MARK, fn)
    return wrapped


def install(tracer: Tracer) -> Callable[[], None]:
    """Attach every wrapper; returns a function that detaches them all."""
    undo: List[Callable[[], None]] = []

    def patch(owner: Any, attr: str, name: str,
              attrs: Optional[Callable[..., Dict[str, Any]]]) -> None:
        # A class attribute is read from the class dict, so a
        # classmethod is rewrapped as one; a function another module
        # imported after an earlier patch is already wrapped.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, _MARK):
            return
        new = _wrapper(tracer, name, fn, attrs)
        setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        undo.append(lambda: setattr(owner, attr, raw))

    for name, module_name, path, attrs in TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            patch(owner, attr, name, attrs)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{module_name}.{path}")

    # Every margin-kernel backend implements its own margins().
    try:
        from repro.kernels.base import MarginKernel
    except ImportError:
        tracer.missing.append("repro.kernels.base.MarginKernel")
    else:
        pending = list(MarginKernel.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "margins" in cls.__dict__:
                patch(cls, "margins", "kernels.margins", _margin_attrs)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def start_from_env(import_start_ns: int, import_end_ns: int) -> None:
    """In a child process: trace if the benchmark asked for it.

    Records the startup import as a span, installs the wrappers and
    writes the spans to ``$PERFBENCH_SPANS`` when the process exits.
    """
    path = os.environ.get(SPANS_ENV)
    if not path:
        return
    tracer = Tracer()
    tracer.add("startup.import", import_start_ns, import_end_ns)
    install(tracer)
    atexit.register(tracer.dump, path)


# ----------------------------------------------------------------------
# Analysis of merged spans
# ----------------------------------------------------------------------
def load_spans(paths: List[str]) -> Tuple[List[Dict[str, Any]], List[str]]:
    spans: List[Dict[str, Any]] = []
    missing: List[str] = []
    for path in paths:
        with open(path) as fh:
            document = json.load(fh)
        spans.extend(document["spans"])
        missing.extend(document["missing"])
    return spans, sorted(set(missing))


def self_times(spans: List[Dict[str, Any]]) -> Dict[Tuple[int, int], int]:
    """Span (pid, id) -> self time in ns (duration minus direct children)."""
    child_ns: Dict[Tuple[int, int], int] = {}
    for span in spans:
        if span["parent"]:
            key = (span["pid"], span["parent"])
            child_ns[key] = child_ns.get(key, 0) + span["end"] - span["start"]
    return {
        (s["pid"], s["id"]): s["end"] - s["start"] - child_ns.get((s["pid"], s["id"]), 0)
        for s in spans
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Dict[str, Any]],
    scipy_stats_import_s: float,
    serving: Optional[Dict[str, Any]],
    distributed: Optional[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced pass.

    ``serving`` holds the summed ``stats`` probe counters of the traced
    servers; ``distributed`` the dispatcher counters plus the number of
    workers and the traced sweep wall time.  Layers a workload does not
    touch come out as 0.
    """
    own = self_times(spans)
    by_key = {(s["pid"], s["id"]): s for s in spans}

    def named(name: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"] == name]

    def self_s(*names: str) -> float:
        return sum(own[(s["pid"], s["id"])] for s in spans if s["name"] in names) / 1e9

    def outermost(name: str) -> List[Dict[str, Any]]:
        # Only the outermost span of a nested chain (a directory store
        # wrapping the result cache, a kernel delegating to another)
        # counts as one call.
        out = []
        for s in named(name):
            parent = by_key.get((s["pid"], s["parent"]))
            if parent is None or parent["name"] != name:
                out.append(s)
        return out

    def duration_s(group: List[Dict[str, Any]]) -> float:
        return sum(s["end"] - s["start"] for s in group) / 1e9

    def attr_sum(group: List[Dict[str, Any]], key: str) -> float:
        return float(sum(s.get("attrs", {}).get(key, 0) for s in group))

    imports = [(s["end"] - s["start"]) / 1e9 for s in named("startup.import")]
    train = named("nn.train")
    evals = named("fault.eval")
    gets = outermost("runtime.store_get")
    puts = outermost("runtime.store_put")
    kernels = outermost("kernels.margins")
    metrics: Dict[str, float] = {
        "startup.import_s": statistics.median(imports) if imports else 0.0,
        "startup.scipy_stats_import_s": scipy_stats_import_s,
        "nn.datasets.load_s": self_s("nn.datasets.load", "nn.datasets.generate"),
        "nn.train_s": self_s("nn.train"),
        "nn.dense_forward_s": self_s("nn.dense_forward"),
        "nn.dense_backward_s": self_s("nn.dense_backward"),
        "nn.train_samples_per_s": _ratio(attr_sum(train, "samples"), duration_s(train)),
        "nn.predict_s": self_s("nn.predict"),
        "nn.predict_calls": float(len(named("nn.predict"))),
        "kernels.margins_s": self_s("kernels.margins"),
        "sram.characterize_s": self_s("sram.characterize"),
        "sram.tally_s": self_s("sram.tally"),
        "sram.merge_s": self_s("sram.merge"),
        "mem.tables_build_s": self_s("mem.tables_build"),
        "fault.eval_s": self_s("fault.eval"),
        "fault.inject_s": self_s("fault.inject"),
        "fault.trials_per_s": _ratio(attr_sum(evals, "trials"), duration_s(evals)),
        "core.study_s": self_s("core.study"),
        "core.model_load_s": self_s("core.model_load"),
        "runtime.store_gets": float(len(gets)),
        "runtime.store_get_s": self_s("runtime.store_get"),
        "runtime.store_hit_ratio": _ratio(
            sum(1 for s in gets if s.get("attrs", {}).get("hit")), len(gets)
        ),
        "runtime.store_puts": float(len(puts)),
        "runtime.store_put_s": self_s("runtime.store_put"),
        "runtime.store_bytes": attr_sum(named("runtime.store_put"), "bytes"),
    }
    for cell in ("6t", "8t"):
        group = [s for s in kernels if s.get("attrs", {}).get("cell") == cell]
        metrics[f"kernels.samples_per_s.{cell}"] = _ratio(
            attr_sum(group, "samples"), duration_s(group)
        )

    serving = serving or {}
    metrics["serving.cache_hit_ratio"] = _ratio(
        serving.get("cache_hits", 0), serving.get("requests", 0)
    )
    metrics["serving.coalesced"] = float(serving.get("coalesced", 0))
    metrics["serving.batches"] = float(serving.get("batches", 0))
    metrics["serving.mean_batch_size"] = _ratio(
        serving.get("evaluations", 0) + serving.get("errors", 0),
        serving.get("batches", 0),
    )

    distributed = distributed or {}
    busy = duration_s(named("distributed.execute"))
    capacity = distributed.get("workers", 0) * distributed.get("wall_s", 0.0)
    metrics["distributed.jobs"] = float(distributed.get("jobs", 0))
    metrics["distributed.retries"] = float(distributed.get("retries", 0))
    metrics["distributed.speculations"] = float(distributed.get("speculations", 0))
    metrics["distributed.worker_busy_s"] = busy
    metrics["distributed.worker_idle_frac"] = (
        max(0.0, 1.0 - busy / capacity) if capacity else 0.0
    )
    return metrics


#: Layer -> span names whose calls show the layer was exercised.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "startup": ("startup.import",),
    "nn.datasets": ("nn.datasets.load", "nn.datasets.generate"),
    "nn.training": ("nn.train", "nn.dense_forward", "nn.dense_backward"),
    "nn.inference": ("nn.predict",),
    "kernels": ("kernels.margins",),
    # Monte-Carlo work only: on a warm store characterize_cell is still
    # called, but it only reads the finished table.
    "sram": ("sram.tally", "sram.merge"),
    "mem": ("mem.tables_build",),
    "fault": ("fault.eval", "fault.inject"),
    "core": ("core.study", "core.model_load"),
    "runtime": ("runtime.store_get", "runtime.store_put"),
    "distributed": ("distributed.execute",),
}


def layer_calls(spans: List[Dict[str, Any]], serving_requests: int) -> Dict[str, int]:
    """Layer -> number of recorded calls (serving from its stats probe)."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    calls = {
        layer: sum(counts.get(name, 0) for name in names)
        for layer, names in LAYER_SPANS.items()
    }
    calls["serving"] = int(serving_requests)
    return calls


def check_layers(calls: Dict[str, int], exercised: Tuple[str, ...],
                 idle: Tuple[str, ...]) -> List[str]:
    """Self-check of one traced pass against the workload's layer table."""
    problems = [f"layer {layer} recorded no calls" for layer in exercised
                if not calls.get(layer)]
    problems += [f"layer {layer} recorded {calls[layer]} calls, expected none"
                 for layer in idle if calls.get(layer)]
    return problems


def write_perfetto(spans: List[Dict[str, Any]], path: str,
                   process_names: Dict[int, str]) -> None:
    """One Chrome trace-event file (loads in Perfetto) for all processes."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in process_names.items()
    ]
    for span in sorted(spans, key=lambda s: s["start"]):
        events.append({
            "ph": "X", "name": span["name"], "cat": span["name"].split(".")[0],
            "pid": span["pid"], "tid": span["tid"] % 1_000_000,
            "ts": span["start"] / 1e3, "dur": (span["end"] - span["start"]) / 1e3,
            "args": span.get("attrs", {}),
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
