"""Start ``repro-sram`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launch.py <repro-sram arguments...>``

The benchmark starts the serve server and the fleet workers through this
launcher so that, in a traced run, the calls inside those processes are
timed by the same wrappers as in the benchmark process.  With
``PERFBENCH_SPANS`` unset it imports ``repro.cli`` and calls its
``main``, as the installed console script does.
"""

import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

if __name__ == "__main__":
    started = time.monotonic_ns()
    # The benchmark stops servers with SIGINT; a parent started in the
    # background may have handed down SIGINT as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import repro.cli

    imported = time.monotonic_ns()
    import layers

    layers.start_from_env(started, imported)
    sys.exit(repro.cli.main(sys.argv[1:]))
