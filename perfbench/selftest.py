"""Quick self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

It checks that every workload prints, in its result line, exactly the
metrics BENCHMARK.json lists for the trace mode, each with its unit; that
the timings equal the unscaled ones on the notes line scaled by the host
slowdown; that outputs_sha256 repeats for a fixed seed, traced or not; that
a corrupted plan counts as a failed operation; and that without the package
sources the benchmark fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def digest(stdout: str) -> str:
    return next(line.split()[1] for line in stdout.splitlines() if line.startswith("outputs_sha256 "))


class BenchmarkSelfTest(unittest.TestCase):
    def test_metrics_units_and_repeatable_digest(self):
        digests = {}
        for w in SPEC["workloads"]:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(w["name"], 7, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed},
                    )
                    if trace == 0:
                        self.check_scaling(proc.stdout, result["metrics"])
                    digests[w["name"], trace] = digest(proc.stdout)
            self.assertEqual(digests[w["name"], 0], digests[w["name"], 1], f"{w['name']}: traced digest differs")
        self.assertEqual(digest(bench("resample", 7, 0).stdout), digests["resample", 0])

    def check_scaling(self, stdout: str, metrics: dict) -> None:
        """The result's timings are the unscaled ones over the host slowdown (times over it)."""
        notes = json.loads(next(line for line in stdout.splitlines() if line.startswith("notes "))[len("notes "):])
        ref = notes["host_reference_ms"]
        self.assertGreater(ref["samples"], 0)
        slowdown = ref["median"] / ref["nominal"]
        for name, raw in notes["unscaled"].items():
            want = raw * slowdown if name == "ops_per_s" else raw / slowdown
            self.assertAlmostEqual(metrics[name]["value"] / want, 1.0, delta=1e-3, msg=name)

    def test_corrupted_plan_is_a_failed_op(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import inputs
        import run as bench_run
        import spans
        import workloads

        real = workloads.plan_to_json
        calls = []

        def corrupt_first(plan):
            calls.append(plan)
            text = real(plan)
            return text.replace('"indices":[', '"indices":[-1,', 1) if len(calls) == 1 else text

        workloads.plan_to_json = corrupt_first
        work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        try:
            described = inputs.prepare("resample", 7, work)
            run = workloads.Run("resample", 7, 0.2, spans.Tracer(False), ROOT, work, described)
            workloads.resample(run)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(bench_run.report(run, SPEC), 0)
        finally:
            workloads.plan_to_json = real
            shutil.rmtree(work)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)
        self.assertFalse(result["correct"])

    def test_fails_without_sources(self):
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("inline-image", 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()
