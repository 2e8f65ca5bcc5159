"""Shared plumbing: the pinned environment, child processes, statistics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, IO, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "core", "golden_fast_profile.json")
#: Everything the benchmark writes: per-run stores, the primed serve
#: store, traces and result records (ignored by git).
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set identically for the benchmark and every process it starts, so a
#: parent and a child commit are measured under the same settings.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
}
#: Program settings that would change what runs; cleared (defaults:
#: serial sweeps, the default margin backend, the fast profile, the
#: program's own tracer off).
CLEARED_ENV = (
    "REPRO_JOBS", "REPRO_BACKEND", "REPRO_PROFILE", "REPRO_TRACE",
    "REPRO_TRACE_DETERMINISTIC", "REPRO_CACHE_DIR", "PERFBENCH_SPANS",
)


def pin_environment() -> None:
    """Pin this process's environment (before numpy is imported)."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def checkout_problem() -> Optional[str]:
    """Why this directory cannot be benchmarked, or None."""
    for path in (os.path.join(SRC, "repro", "cli.py"), GOLDEN):
        if not os.path.isfile(path):
            return f"missing {os.path.relpath(path, ROOT)}: not a checkout of the program"
    return None


def environment_record() -> Dict[str, Any]:
    """nproc, the Python version and numpy's BLAS, stored with each result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def source_digest() -> str:
    """Digest of the program's sources (keys the primed serve store)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def make_run_dir(label: str) -> str:
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=os.path.join(OUT, "runs"))


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Child:
    """A started process: stdout lines on a queue, stderr to a file."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], log_path: str) -> None:
        self.log_path = log_path
        self._log: IO[bytes] = open(log_path, "wb")
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            list(argv), env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no {prefix!r} line within {timeout:.0f} s ({self.tail()})")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"process exited with {self.proc.wait()} before {prefix!r} ({self.tail()})"
                )
            if line.startswith(prefix):
                return line

    def peak_rss_mb(self) -> float:
        """VmHWM of the live process (Linux)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, sig: Optional[int] = signal.SIGINT, timeout: float = 30.0) -> int:
        """Signal (or just wait for) the process and reap it."""
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()
        return code

    def tail(self, n: int = 5) -> str:
        if not self._log.closed:
            self._log.flush()
        with open(self.log_path, errors="replace") as fh:
            lines = [line.rstrip() for line in fh if line.strip()]
        return " | ".join(lines[-n:]) or "no stderr"


def python_argv(script: str, args: Sequence[str]) -> List[str]:
    return [sys.executable, os.path.join(HERE, script), *args]


def child_env(store: str, spans: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = store
    if spans:
        env["PERFBENCH_SPANS"] = spans
    return env


def expected_in_processes(module: str, items: List[Any], run_dir: str,
                          env: Dict[str, str], workers: int) -> List[Any]:
    """``<module>.expected(items)``, split over ``workers`` verify.py processes.

    Every process is waited for (or killed) before this returns or raises.
    """
    def path(k: int, what: str) -> str:
        return os.path.join(run_dir, f"verify-{module}-{k}.{what}")

    children: List[Child] = []
    try:
        for k in range(workers):
            with open(path(k, "items.json"), "w") as fh:
                json.dump(items[k::workers], fh)
            children.append(Child(
                python_argv("verify.py", [module, path(k, "items.json"), path(k, "answers.json")]),
                env, path(k, "log"),
            ))
        codes = [child.stop(sig=None, timeout=170) for child in children]
    finally:
        for child in children:
            child.stop(sig=signal.SIGKILL)
    if any(codes):
        raise RuntimeError(f"verification exit codes {codes} ({children[0].tail()})")
    answers: List[Any] = [None] * len(items)
    for k in range(workers):
        with open(path(k, "answers.json")) as fh:
            answers[k::workers] = json.load(fh)
    return answers


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def scipy_stats_import_s() -> float:
    """Cumulative ``-X importtime`` cost of ``scipy.stats`` within ``import repro.cli``.

    Measured in a process of its own, so that the traced processes import
    the program untimed, as the untraced ones do (0 if never imported).
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import repro.cli failed: {proc.stderr[-2000:]}")
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(2) == "scipy.stats":
            return int(match.group(1)) / 1e6
    return 0.0


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def close_to(actual: float, expected: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    """``pytest.approx`` semantics: within max(rel * |expected|, abs)."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
