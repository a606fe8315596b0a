"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload inline-image --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
This process writes the workload's inputs for the seed into a scratch
directory, then runs the timed loop in a child process (``--work``) that
only reads them, so the loop's peak RSS does not include input generation.
The child prints a run stamp, the generated inputs, the metrics under the
workload's own names, ``ops_failed_frac`` and ``outputs_sha256``, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("inline-image", "inline-feature", "disk-cli", "resample")

# The end-to-end metrics carry one name across workloads; each workload's
# own name for them: (name, scale from the generic unit, unit).
ALIASES = {
    "inline-image": {
        "latency_ms.p50": ("clip_latency_ms.p50", 1.0, "ms"),
        "latency_ms.tail": ("clip_latency_ms.tail", 1.0, "ms"),
        "ops_per_s": ("clips_per_s", 1.0, "1/s"),
    },
    "disk-cli": {
        "latency_ms.p50": ("video_wall_ms.p50", 1.0, "ms"),
        "latency_ms.tail": ("video_wall_ms.tail", 1.0, "ms"),
        "ops_per_s": ("batch_videos_per_s", 1.0, "1/s"),
    },
    "resample": {
        "latency_ms.p50": ("draw_latency_us.p50", 1e3, "us"),
        "latency_ms.tail": ("draw_latency_us.tail", 1e3, "us"),
        "ops_per_s": ("draws_per_s", 1.0, "1/s"),
    },
}
ALIASES["inline-feature"] = ALIASES["inline-image"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)  # set for the child process
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "motionsample" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout with src/motionsample and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.work is None:
        return parent(args, argv)
    sys.path.insert(0, str(SRC))
    import motionsample

    if Path(motionsample.__file__).resolve().parent != (SRC / "motionsample").resolve():
        print(f"error: imported motionsample from {motionsample.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, median
    from workloads import SWEEP_OP, WORKLOADS, Run

    inputs = json.loads((args.work / "inputs.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, Tracer(bool(args.trace)), ROOT, args.work, inputs)
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    WORKLOADS[args.workload](run)
    if run.tracer.enabled:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        run.notes["spans"] = {"count": len(run.tracer.spans), "file": str(spans_path.relative_to(ROOT))}
        in_loop = run.tracer.self_times_ms(lambda op: op > SWEEP_OP)
        run.notes["span_self_ms_median"] = {name: round(median(times), 6) for name, times in sorted(in_loop.items())}
    return report(run, spec)


def parent(args, argv) -> int:
    """Write the inputs, run the loop in a child process, remove the inputs."""
    import inputs

    # On SIGTERM, unwind: subprocess.run then kills and reaps the child, and
    # the finally clause removes the inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        described = inputs.prepare(args.workload, args.seed, work)
        (work / "inputs.json").write_text(json.dumps(described))
        cmd = [sys.executable, str(Path(__file__).resolve()), *(sys.argv[1:] if argv is None else argv), "--work", str(work)]
        sys.stdout.flush()
        return subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(run, spec: dict) -> int:
    print("inputs " + json.dumps(run.inputs, sort_keys=True))
    print("notes " + json.dumps(run.notes, sort_keys=True))
    for generic, (name, scale, unit) in ALIASES[run.workload].items():
        print(f"metric {name} = {run.end_to_end[generic] * scale:.6g} {unit}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key in ("setup_s", "peak_rss_mb"):
        print(f"metric {key} = {run.end_to_end[key]:.6g} {units[key]}")
    print(f"ops_failed_frac {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted})")
    print(f"outputs_sha256 {run.outputs_sha256} (first {run.digest_ops} ops)")
    listed = spec["per_layer"] if run.tracer.enabled else spec["end_to_end"]
    values = run.per_layer if run.tracer.enabled else run.end_to_end
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 3
        value = float(values[m["name"]])
        if not math.isfinite(value):
            print(f"error: metric {m['name']} is {value}", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unlisted = set(values) - {m["name"] for m in listed}
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unlisted)}", file=sys.stderr)
        return 3
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
