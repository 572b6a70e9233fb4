"""Print the seconds a fresh process takes to import alohagame and
build one workload's inputs from its seed.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` starts it several times per run and reports the median as
``setup_s``; it inherits the thread pins from there.
"""

import sys
from time import perf_counter

import checkout


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    checkout.import_alohagame()
    import workloads

    workloads.WORKLOADS[workload].generate(seed)
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
