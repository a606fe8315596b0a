"""Time one workload's program set-up in a fresh interpreter; prints seconds.

    python3 perfbench/probe.py WORKLOAD WORKDIR

Set-up is the package import plus what the workload does once before its
loop: loading the kernel bank (inline-feature) or computing the
distributions (resample).  Loading the benchmark's inputs from WORKDIR is
not timed.  The clock starts before numpy is imported, as it would in a
fresh CLI process.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, work = sys.argv[1], Path(sys.argv[2])
    t0 = time.perf_counter()
    if workload == "disk-cli":
        import motionsample.cli  # noqa: F401
    else:
        import motionsample
    if workload == "inline-feature":
        motionsample.load_kernel_bank(work / "bank.mgkb")
    elapsed = time.perf_counter() - t0
    if workload == "resample":
        import numpy as np

        import workloads

        paths = sorted(work.glob("video*.npy"), key=lambda p: int(p.stem[len("video"):]))
        videos = [np.load(p) for p in paths]
        t1 = time.perf_counter()
        workloads.resample_distributions(videos)
        elapsed += time.perf_counter() - t1
    print(f"{elapsed:.9f}")


if __name__ == "__main__":
    main()
