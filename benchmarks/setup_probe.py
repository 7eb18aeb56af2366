"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 benchmarks/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing ptqsim, parsing the workload's configs and building its
backends or circuits: everything before the first sweep or transpile. The
inputs must already be in WORKDIR (run.py writes them).
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1:4]
    workloads.WORKLOADS[name](int(seed), Path(workdir)).setup()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
