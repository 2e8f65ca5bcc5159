"""Start-up cost guard: the entry points import no heavy scipy modules.

Every CLI invocation, server and fleet worker pays its imports before
doing any work.  ``scipy.stats`` alone used to be most of that cost, for
one normal-CDF call; the modules below are now imported only where they
are used.  This test keeps them off the import path of the entry points.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

DEFERRED = ("scipy.stats", "scipy.ndimage", "scipy.special")


def test_entry_points_leave_heavy_scipy_modules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import json, sys\n"
        "import repro.cli, repro.distributed.worker\n"
        f"print(json.dumps(sorted(m for m in {DEFERRED!r} if m in sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(result.stdout) == []
