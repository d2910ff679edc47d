"""Time a fresh interpreter's import of ``pinchsel.cli`` plus argument resolution.

Usage: python3 perfbench/setup_probe.py <pinchsel arguments...>
Prints the elapsed seconds, then the mean time of the calibration kernel run
four times just before and four times just after. Needs ``src`` on
``PYTHONPATH``.
"""

import sys
import time

from calibrate import kernel_seconds

samples = [kernel_seconds() for _ in range(4)]
t0 = time.perf_counter()
from pinchsel import cli  # noqa: E402  (the import is what is timed)

args = cli.build_parser().parse_args(sys.argv[1:])
cli._resolve(args, need_solvers=args.command == "sweep")
elapsed = time.perf_counter() - t0
samples += [kernel_seconds() for _ in range(4)]
print(repr(elapsed), repr(sum(samples) / len(samples)))
