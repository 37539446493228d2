"""One set-up sample: import walkqec and warm up one workload, in this process.

    python3 perfbench/setup_probe.py campaign

Prints ``{"setup_s": ...}``, timed from before the first import of numpy
or walkqec to the end of the workload's warm-up.  run.py starts this in a
fresh interpreter per sample, with its own thread caps and ``PYTHONPATH``.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    import workloads

    workloads.warm_up(workloads.WORKLOADS[sys.argv[1]])
    print(json.dumps({"setup_s": perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
