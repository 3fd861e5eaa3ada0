"""Time one cold set-up of a workload: the set-up a user pays.

    python3 perfbench/setup_probe.py <workload> <seed>

Meant to run in a fresh interpreter (run.py starts several and reports the
median).  It imports gradedrings and the benchmark's workload module, with
every module they pull in, builds the task list and prints the seconds
this took, counted from before the first import.
"""

from time import perf_counter

T0 = perf_counter()

import os   # noqa: E402  (os and sys are loaded when the interpreter starts)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.build(name, workloads.load_library(), seed)
    print(perf_counter() - T0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
