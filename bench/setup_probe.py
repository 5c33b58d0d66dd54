"""Time one set-up in a fresh process and print it in seconds.

Set-up is ``import surecov`` (with the CLI) plus the workload's one-off
preparation through public calls.  ``run.py`` starts this several times per
run and reports the median as ``setup_s``:

    python3 bench/setup_probe.py <workload> <full|smoke>
"""

import os
import sys
import time


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    name, scale = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import SCALES, WORKLOADS

    WORKLOADS[name](seed=0, scale=SCALES[scale]).prepare()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
