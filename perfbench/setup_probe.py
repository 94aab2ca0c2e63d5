"""Set-up probe: import the package and build a workload's request batch.

``run.py`` starts this script and times it from process start to the
``ready`` line, printed once the request batch exists; that is the
benchmark's ``setup_s``.  After it, the probe times three calibration
units and prints the median in ns, by which ``run.py`` scales the set-up
time to the calibration's reference host.  Usage:
``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath  # noqa: E402,F401
import cnomial.cli  # noqa: E402,F401

import calibrate  # noqa: E402
import workloads  # noqa: E402

workloads.batch(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
print(statistics.median(calibrate.unit_ns() for _ in range(3)))
