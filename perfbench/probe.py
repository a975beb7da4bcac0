"""Set-up probe: one fresh interpreter that imports the CLI and loads a config.

Usage: ``python3 perfbench/probe.py CONFIG``.  Prints one JSON line as
soon as ``cli.load_experiment(CONFIG)`` has returned; the launching
process takes the set-up time as the interval from launch to that line.
"""

import sys
import time

t0 = time.perf_counter()
import iterlearn.cli as cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
cli.load_experiment(sys.argv[1])
t2 = time.perf_counter()

import json  # noqa: E402

print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "load_experiment_s": t2 - t1,
            "modules_loaded": len(sys.modules),
        }
    ),
    flush=True,
)
