"""The four benchmark workloads.

Each is a closed loop: one caller in one process, with no threads of its
own, issuing the next operation only after the previous one returned.  Every
operation gets a fresh sampler seed derived from the run seed and its op id.
The loop reads inputs that ``inputs.prepare`` wrote into the work directory
beforehand, in another process.  Latencies are taken on untraced operations
only; with tracing on, whole blocks of operations alternate between untraced
and traced so both halves see the same input mix, and a side pass after the
loop measures the layers the operations never call.  The fresh-process
set-up probes behind ``setup_s`` run between operations, spread evenly over
the run time, so they sample the same stretch of time as the loop; so does
the host-speed reference task (``hostspeed``), timed between operations at
most every ``REF_EVERY_S`` seconds, by whose median the end-to-end timings
are scaled.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from motionsample import (
    STRATEGIES,
    FrameVolume,
    SamplerConfig,
    build_curve,
    curve_to_csv,
    export_outputs,
    feature_diff_salience,
    image_diff_salience,
    load_frame_directory,
    load_kernel_bank,
    load_raw_tensor,
    mg_sample,
    normalize_salience,
    plan_to_json,
    sample_from_distribution,
    sample_video,
    smooth_distribution,
    video_seed,
)

import hostspeed
import inputs
from spans import Tracer, median, tail

N_FRAMES = 8
MU = 0.5
SETUP_PROBES = 11
REF_EVERY_S = 0.05  # the host-speed reference task costs about 10% of a run
BATCH_MAX_THREADS = 8  # the CLI's batch pool size is min(8, videos)
BATCHES_PER_ROUND = 3  # a batch wall varies ~15% from one to the next; its median needs many
SETUP_OP = -1  # op id of spans around program set-up
SWEEP_OP = -2  # op ids of the side pass count down from here
SWEEP_FRAMES = 64
SWEEP_REPS = 3

# Per-layer metrics that are the median of one span name: (span, scale from ms).
SPAN_METRICS = {
    "ingest.pnm_load_ms": ("ingest.load_frame_directory", 1.0),
    "ingest.mgvt_load_ms": ("ingest.load_raw_tensor", 1.0),
    "ingest.export_ms": ("ingest.export_outputs", 1.0),
    "motion.image_salience_ms.u8": ("motion.image_diff_salience.u8", 1.0),
    "motion.image_salience_ms.f32": ("motion.image_diff_salience.f32", 1.0),
    "motion.feature_salience_ms": ("motion.feature_diff_salience", 1.0),
    "motion.distribution_ms": ("motion.distribution", 1.0),
    "kernels.bank_load_ms": ("kernels.load_kernel_bank", 1.0),
    "sampling.curve_us": ("sampling.build_curve", 1e3),
    **{f"sampling.draw_us.{s}": (f"sampling.draw.{s}", 1e3) for s in STRATEGIES},
    "sampling.plan_json_us": ("sampling.plan_to_json", 1e3),
    "sampling.curve_csv_us": ("sampling.curve_to_csv", 1e3),
}


class BadOutput(Exception):
    """An output failed its check; the operation counts as failed."""


@dataclass
class Layers:
    """Measurements behind the per-layer metrics that are not one span's median."""

    loads: list = field(default_factory=list)  # (file bytes, load ms)
    bytes_written: int = 0  # plan JSON + curve CSV of one video
    conv_shape: tuple | None = None  # (T, H, W, C) the feature path ran on
    pipeline_self_ms: list = field(default_factory=list)
    interpreter_ms: list = field(default_factory=list)
    startup_ms: list = field(default_factory=list)
    cli_minus_inproc_ms: list = field(default_factory=list)  # CLI wall - in-process ingest, sampling, export
    walls_ms: list = field(default_factory=list)  # one CLI process per video
    batch_walls_s: list = field(default_factory=list)
    batch_speedups: list = field(default_factory=list)
    batch_threads: int = 0

    def metrics(self, d: dict[str, list[float]]) -> dict[str, float]:
        """The per-layer metrics these measurements and span durations ``d`` give."""
        out = {m: scale * median(d[span]) for m, (span, scale) in SPAN_METRICS.items() if d.get(span)}
        if self.loads:
            out["ingest.read_mb_per_s"] = sum(b for b, _ in self.loads) / 1e6 / (sum(ms for _, ms in self.loads) / 1e3)
        if self.bytes_written:
            out["ingest.bytes_written"] = float(self.bytes_written)
        if self.conv_shape and "motion.feature_salience_ms" in out:
            t, h, w, c = self.conv_shape
            # one 7x7xC cross-correlation per output pixel and filter, per frame
            mflop = 2 * t * h * w * 8 * c * 49 / 1e6
            out["kernels.conv_mflop_per_clip"] = mflop
            out["kernels.conv_gflop_per_s"] = mflop / out["motion.feature_salience_ms"]
        for key, values in (
            ("pipeline.self_ms", self.pipeline_self_ms),
            ("cli.interpreter_ms", self.interpreter_ms),
            ("cli.startup_ms", self.startup_ms),
            ("cli.batch_speedup", self.batch_speedups),
        ):
            if values:
                out[key] = median(values)
        if self.cli_minus_inproc_ms and self.startup_ms:
            out["cli.self_ms"] = median(self.cli_minus_inproc_ms) - median(self.startup_ms)
        if self.batch_threads:
            out["cli.batch_threads"] = float(self.batch_threads)
        return out


@dataclass
class Run:
    """State of one benchmark run, shared by the workload loop and the report."""

    workload: str
    seed: int
    seconds: float
    tracer: Tracer
    root: Path
    work: Path
    inputs: dict
    attempted: int = 0
    failed: int = 0
    digest_ops: int = 0
    setup: list = field(default_factory=list)  # (wall s, set-up s) of each set-up probe
    refs_ms: list = field(default_factory=list)  # times of the host-speed reference task
    last_ref: float = 0.0
    layers: Layers = field(default_factory=Layers)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def op_seed(self, op: int) -> int:
        return (self.seed * 0x9E3779B97F4A7C15 + op) % (1 << 63)

    def load(self, stem: str, count: int) -> list[np.ndarray]:
        return [np.load(self.work / f"{stem}{k}.npy") for k in range(count)]

    def record(self, op: int, *outputs: bytes | str) -> None:
        """Hash the outputs of operations 0 .. ``digest_ops`` - 1."""
        if not 0 <= op < self.digest_ops:
            return
        for out in outputs:
            data = out.encode("ascii") if isinstance(out, str) else out
            self._digest.update(len(data).to_bytes(8, "little"))
            self._digest.update(data)

    def attempt(self, op: int, fn, *args) -> None:
        """Run operation ``op``; an exception or a failed output check counts as a failure."""
        try:
            fn(*args)
        except Exception:  # the loop must keep running and count the failure
            self.fail(f"op {op} failed:\n{traceback.format_exc()}")
        else:
            self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.failed <= 3:
            print(message, file=sys.stderr)

    def start_loop(self) -> float:
        """Warm the bytecode cache with one uncounted probe and the reference
        task with a few uncounted runs; returns the loop's start time."""
        probe(self, self.workload)
        for _ in range(3):
            hostspeed.reference_ms()
        return time.perf_counter()

    def between_ops(self) -> None:
        """Time the host-speed reference task, if REF_EVERY_S has passed since it last ran."""
        if time.perf_counter() - self.last_ref >= REF_EVERY_S:
            self.refs_ms.append(hostspeed.reference_ms())
            self.last_ref = time.perf_counter()

    def keep_going(self, start: float, op: int) -> bool:
        """Called between operations: makes the set-up probes that are due, if
        any, and says whether the loop goes on.  It goes on until the first
        ``digest_ops`` operations, the run time and all set-up probes are done."""
        self.between_ops()
        elapsed = time.perf_counter() - start
        while len(self.setup) < SETUP_PROBES and elapsed >= len(self.setup) * self.seconds / SETUP_PROBES:
            self.setup.append(probe(self, self.workload))
        return op < self.digest_ops or elapsed < self.seconds or len(self.setup) < SETUP_PROBES

    @property
    def outputs_sha256(self) -> str:
        return self._digest.hexdigest()

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def traced(self, op: int, cycle: int) -> bool:
        return self.tracer.enabled and (op // cycle) % 2 == 1


def check_plan(text: str, cfg: SamplerConfig, t_count: int) -> None:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise BadOutput(f"plan is not JSON: {e}") from e
    if set(obj) != {"strategy", "seed", "mu", "n_frames", "indices", "draws"}:
        raise BadOutput(f"plan keys {sorted(obj)}")
    want = (cfg.strategy, cfg.seed, cfg.mu, cfg.n_frames)
    got = (obj["strategy"], obj["seed"], obj["mu"], obj["n_frames"])
    if got != want:
        raise BadOutput(f"plan (strategy, seed, mu, n_frames) {got} != request {want}")
    idx = obj["indices"]
    if len(idx) != cfg.n_frames or any(type(i) is not int for i in idx):
        raise BadOutput(f"plan wants {cfg.n_frames} integer indices, got {idx}")
    if any(a > b for a, b in zip(idx, idx[1:])) or idx[0] < 0 or idx[-1] >= t_count:
        raise BadOutput(f"indices {idx} not sorted within [0, {t_count})")


def check_csv(text: str, t_count: int) -> None:
    lines = text.split("\n")
    if lines[0] != "frame,cumulative" or len(lines) != t_count + 3 or lines[-1] != "":
        raise BadOutput(f"curve CSV has {len(lines)} lines, want header + {t_count + 1} rows")
    if lines[1] != "0,0" or lines[-2] != f"{t_count},1":
        raise BadOutput(f"curve CSV endpoints {lines[1]!r}, {lines[-2]!r}")


def probe(run: Run, workload: str) -> tuple[float, float]:
    """One fresh-process set-up: (wall seconds, set-up seconds reported by the child)."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(run.work)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.root, env=run.child_env(), capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return wall, float(proc.stdout.split()[-1])


def interpreter_ms(count: int) -> list[float]:
    """Walls of a bare interpreter that does nothing."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def finish_common(run: Run, latencies: list[float], ops_per_s: float, rss_mb: float, op_label: str) -> None:
    """The end-to-end metrics: timings scaled to a host where the reference task takes NOMINAL_MS."""
    tail_v, tail_p, n = tail(latencies)
    raw = {
        "latency_ms.p50": median(latencies),
        "latency_ms.tail": tail_v,
        "ops_per_s": ops_per_s,
        "setup_s": median([s for _, s in run.setup]),
    }
    slowdown = median(run.refs_ms) / hostspeed.NOMINAL_MS
    run.end_to_end.update({k: v * slowdown if k == "ops_per_s" else v / slowdown for k, v in raw.items()})
    run.end_to_end["peak_rss_mb"] = rss_mb
    run.notes.update(
        {
            "op": op_label,
            "latency_samples": n,
            "tail_percentile": round(tail_p, 2),
            "setup_probes": len(run.setup),
            "host_reference_ms": {"median": round(median(run.refs_ms), 4), "nominal": hostspeed.NOMINAL_MS, "samples": len(run.refs_ms)},
            "unscaled": {k: round(v, 6) for k, v in raw.items()},
        }
    )


def rate(latencies_ms: list[float]) -> float:
    """Operations per second of summed latency."""
    return len(latencies_ms) / (sum(latencies_ms) / 1e3) if latencies_ms else 0.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- shared steps


def traced_steps(tr: Tracer, op: int, vol: FrameVolume, cfg: SamplerConfig, representation: str = "image", bank=None):
    """``sample_video`` for the mg strategy, one public step at a time, each under a span.

    Returns the plan, the curve and the steps' summed time in ms.
    """
    spans = []
    if representation == "image":
        tag = "u8" if vol.frames.dtype == np.uint8 else "f32"
        with tr.span(f"motion.image_diff_salience.{tag}", op) as s:
            sal = image_diff_salience(vol)
    else:
        with tr.span("motion.feature_diff_salience", op) as s:
            sal = feature_diff_salience(vol, bank)
    spans.append(s)
    with tr.span("motion.distribution", op) as s:
        m = smooth_distribution(normalize_salience(sal), cfg.mu)
    spans.append(s)
    with tr.span("sampling.build_curve", op) as s:
        curve = build_curve(m)
    spans.append(s)
    with tr.span("sampling.draw.mg", op) as s:
        plan = mg_sample(curve, cfg)
    spans.append(s)
    return plan, curve, sum(end - start for _, _, _, start, end in spans) / 1e6


def paired_steps(run: Run, op: int, vol: FrameVolume, cfg: SamplerConfig, representation: str, bank, lay: Layers, whole_first: bool):
    """Untraced ``sample_video`` and its traced steps, back to back on the same input.

    Returns sample_video's plan and curve.  Appends the pipeline's self
    time, the untraced sample_video time minus the sum of its steps, to
    ``lay``.  Callers alternate ``whole_first`` for each input, so a warm
    cache favours neither side.  The steps must give the same bytes.
    """
    tr = run.tracer

    def untraced():
        t0 = time.perf_counter_ns()
        plan, curve, _ = sample_video(vol, cfg, representation, bank)
        return plan, curve, (time.perf_counter_ns() - t0) / 1e6

    if whole_first:
        plan, curve, whole_ms = untraced()
    with tr.span("op", op):
        step_plan, step_curve, steps_ms = traced_steps(tr, op, vol, cfg, representation, bank)
        with tr.span("sampling.plan_to_json", op):
            text = plan_to_json(step_plan)
        with tr.span("sampling.curve_to_csv", op):
            csv = curve_to_csv(step_curve)
    if not whole_first:
        plan, curve, whole_ms = untraced()
    if text != plan_to_json(plan) or csv != curve_to_csv(curve):
        raise BadOutput("step-by-step replay differs from sample_video")
    lay.pipeline_self_ms.append(whole_ms - steps_ms)
    return plan, curve


def draw_all(run: Run, op: int, m, t_count: int) -> None:
    """One traced draw per strategy from distribution ``m``, each plan checked."""
    for strategy in STRATEGIES:
        cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy=strategy, seed=run.op_seed(op))
        with run.tracer.span(f"sampling.draw.{strategy}", op):
            plan = sample_from_distribution(m, cfg)
        check_plan(plan_to_json(plan), cfg, t_count)


# ---------------------------------------------------------------- inline-*


def _inline(run: Run, representation: str) -> None:
    arrays = run.load("clip", run.inputs["clips"])
    tr = run.tracer
    bank = None
    if representation == "feature":
        for _ in range(SETUP_PROBES if tr.enabled else 1):
            with tr.span("kernels.load_kernel_bank", SETUP_OP):
                bank = load_kernel_bank(run.work / "bank.mgkb")
        run.layers.conv_shape = arrays[0].shape
    volumes = [FrameVolume(a) for a in arrays]
    del arrays
    t_count = volumes[0].t_count
    cycle = len(volumes)
    run.digest_ops = 2 * cycle
    latencies = []

    def op(i: int) -> None:
        vol = volumes[i % cycle]
        cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy="mg", seed=run.op_seed(i))
        if run.traced(i, cycle):
            # traced blocks are the odd ones; the order flips from one to the next
            plan, curve = paired_steps(run, i, vol, cfg, representation, bank, run.layers, (i // (2 * cycle) + i) % 2 == 0)
        else:
            t0 = time.perf_counter_ns()
            plan, curve, _ = sample_video(vol, cfg, representation, bank)
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
        plan_text, csv_text = plan_to_json(plan), curve_to_csv(curve)
        check_plan(plan_text, cfg, t_count)
        check_csv(csv_text, t_count)
        run.record(i, plan_text, csv_text)

    start = run.start_loop()
    i = 0
    while run.keep_going(start, i):
        run.attempt(i, op, i)
        i += 1
    finish_common(run, latencies, rate(latencies), self_rss_mb(), "clip")
    if tr.enabled:
        finish_layers(run, volumes[0].frames)


def inline_image(run: Run) -> None:
    _inline(run, "image")


def inline_feature(run: Run) -> None:
    _inline(run, "feature")


# ---------------------------------------------------------------- disk-cli


@dataclass
class Corpus:
    videos: list  # (kind, path, file bytes): kind is ppm (a frame directory), u8 or f32 (MGVT)
    root: Path  # the directory holding the videos, as --batch scans it
    out: Path


def cli_round(run: Run, corpus: Corpus, op: int, step: int, lay: Layers) -> int:
    """Every corpus video through its own CLI process, then BATCHES_PER_ROUND ``--batch``
    runs; returns the next op id."""
    round_walls, volumes = [], []
    for j in range(len(corpus.videos)):
        run.between_ops()
        run.attempt(op, cli_sample, run, op, corpus, j, lay, round_walls, volumes)
        op += step
    for _ in range(BATCHES_PER_ROUND):
        if len(volumes) == len(corpus.videos):
            run.between_ops()
            run.attempt(op, cli_batch, run, op, corpus, lay, round_walls, volumes)
        else:
            run.fail(f"op {op}: batch skipped, a failed video leaves nothing to compare it against")
        op += step
    return op


def cli_sample(run: Run, op: int, corpus: Corpus, j: int, lay: Layers, round_walls: list, volumes: list) -> None:
    kind, path, size = corpus.videos[j]
    tr = run.tracer
    py = sys.executable
    cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy="mg", seed=run.op_seed(op))
    plan_p, csv_p = corpus.out / f"cli{j}.json", corpus.out / f"cli{j}.csv"
    ref_plan, ref_csv = corpus.out / f"ref{j}.json", corpus.out / f"ref{j}.csv"
    flag = "--frames-dir" if kind == "ppm" else "--raw-tensor"
    cmd = [py, "-m", "motionsample.cli", "sample", flag, str(path), "--seed", str(cfg.seed),
           "--num-frames", str(N_FRAMES), "--mu", str(MU), "--out", str(plan_p), "--emit-curve", str(csv_p)]
    t0 = time.perf_counter()
    with tr.span("cli.sample", op):
        proc = subprocess.run(cmd, cwd=run.root, env=run.child_env(), capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    lay.walls_ms.append(wall * 1e3)
    round_walls.append(wall)
    if proc.returncode != 0:
        raise BadOutput(f"CLI exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    # The same video and seed in-process, for the byte comparison and cli.self_ms.
    t1 = time.perf_counter()
    if kind == "ppm":
        with tr.span("ingest.load_frame_directory", op):
            volume, _ = load_frame_directory(path)
    else:
        with tr.span("ingest.load_raw_tensor", op):
            volume = load_raw_tensor(path)
    lay.loads.append((size, (time.perf_counter() - t1) * 1e3))
    volumes.append(volume)
    if tr.enabled:
        plan, curve, _ = traced_steps(tr, op, volume, cfg)
    else:
        plan, curve, _ = sample_video(volume, cfg)
    with tr.span("ingest.export_outputs", op):
        export_outputs(plan, ref_plan, curve, ref_csv)
    lay.cli_minus_inproc_ms.append((wall - (time.perf_counter() - t1)) * 1e3)
    want_plan = plan_to_json(plan).encode("ascii")
    want_csv = curve_to_csv(curve).encode("ascii")
    got_plan, got_csv = plan_p.read_bytes(), csv_p.read_bytes()
    if got_plan != want_plan or ref_plan.read_bytes() != want_plan:
        raise BadOutput(f"CLI or exported plan for {path.name} differs from plan_to_json")
    if got_csv != want_csv or ref_csv.read_bytes() != want_csv:
        raise BadOutput(f"CLI or exported curve CSV for {path.name} differs from curve_to_csv")
    check_plan(want_plan.decode("ascii"), cfg, volume.t_count)
    check_csv(want_csv.decode("ascii"), volume.t_count)
    lay.bytes_written = len(want_plan) + len(want_csv)
    run.record(op, got_plan, got_csv)


def cli_batch(run: Run, op: int, corpus: Corpus, lay: Layers, round_walls: list, volumes: list) -> None:
    base = run.op_seed(op)
    bout = corpus.out / "batch"
    shutil.rmtree(bout, ignore_errors=True)
    cmd = [sys.executable, "-m", "motionsample.cli", "sample", "--batch", "--frames-dir", str(corpus.root),
           "--seed", str(base), "--num-frames", str(N_FRAMES), "--mu", str(MU), "--out", str(bout)]
    t0 = time.perf_counter()
    with run.tracer.span("cli.batch", op):
        proc = subprocess.run(cmd, cwd=run.root, env=run.child_env(), capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    lay.batch_walls_s.append(wall)
    if proc.returncode != 0:
        raise BadOutput(f"batch CLI exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    names = [p.stem if p.is_file() else p.name for _, p, _ in corpus.videos]
    listed = proc.stdout.decode("ascii").split()
    if listed != [str(bout / f"{n}.plan.json") for n in names]:
        raise BadOutput(f"batch listed {listed}")
    for j, (name, volume) in enumerate(zip(names, volumes)):
        cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy="mg", seed=video_seed(base, j))
        plan, _, _ = sample_video(volume, cfg)
        got = (bout / f"{name}.plan.json").read_bytes()
        if got != plan_to_json(plan).encode("ascii"):
            raise BadOutput(f"batch plan for {name} differs from the in-process plan")
        check_plan(got.decode("ascii"), cfg, volume.t_count)
        run.record(op, got)
    lay.batch_speedups.append(sum(round_walls) / wall)
    lay.batch_threads = min(BATCH_MAX_THREADS, len(corpus.videos))


def disk_cli(run: Run) -> None:
    root = run.work / "corpus"
    videos = []
    for j, (kind, size) in enumerate(zip(run.inputs["kinds"], run.inputs["file_bytes"])):
        videos.append((kind, root / (f"v{j}" if kind == "ppm" else f"v{j}.mgvt"), size))
    corpus = Corpus(videos, root, run.work / "out")
    corpus.out.mkdir()
    tr = run.tracer
    lay = run.layers
    if tr.enabled:
        lay.interpreter_ms = interpreter_ms(SETUP_PROBES)
    run.digest_ops = len(videos) + BATCHES_PER_ROUND  # the first round
    start = run.start_loop()
    op = 0
    while run.keep_going(start, op):
        op = cli_round(run, corpus, op, 1, lay)
    lay.startup_ms = [wall * 1e3 for wall, _ in run.setup]
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    batch_rate = median([len(videos) / w for w in lay.batch_walls_s])
    finish_common(run, lay.walls_ms, batch_rate, child_rss, "video (one CLI process)")
    run.notes["batch_samples"] = len(lay.batch_walls_s)
    if tr.enabled:
        first_mgvt = next(path for kind, path, _ in videos if kind == "u8")
        finish_layers(run, load_raw_tensor(first_mgvt).frames)


# ---------------------------------------------------------------- resample

RESAMPLE_N = (8, 16, 32)


def resample_distributions(videos: list[np.ndarray], tr: Tracer | None = None):
    """The program's set-up for resample: salience, normalize and smooth, once per video."""
    tr = tr or Tracer(False)
    out = []
    for frames in videos:
        with tr.span("motion.image_diff_salience.u8", SETUP_OP):
            sal = image_diff_salience(FrameVolume(frames))
        with tr.span("motion.distribution", SETUP_OP):
            out.append(smooth_distribution(normalize_salience(sal), MU))
    return out


def resample(run: Run) -> None:
    videos = run.load("video", run.inputs["videos"])
    tr = run.tracer
    dists = resample_distributions(videos, tr)
    if not dists[-1].degenerate_uniform:
        run.fail("the all-static video did not take the degenerate_uniform path")
    combos = [
        (m, strategy, n)
        for m in dists
        for strategy in STRATEGIES
        for n in RESAMPLE_N
        if not (strategy == "topk" and n > m.t_count)  # topk rejects N > T by design
    ]
    cycle = len(combos)
    run.digest_ops = cycle
    latencies = []

    def op(i: int) -> None:
        m, strategy, n = combos[i % cycle]
        cfg = SamplerConfig(n_frames=n, mu=MU, strategy=strategy, seed=run.op_seed(i))
        traced = run.traced(i, cycle)
        t0 = time.perf_counter_ns()
        if traced:
            with tr.span("op", i):
                with tr.span(f"sampling.draw.{strategy}", i):
                    plan = sample_from_distribution(m, cfg)
                with tr.span("sampling.plan_to_json", i):
                    text = plan_to_json(plan)
        else:
            plan = sample_from_distribution(m, cfg)
            text = plan_to_json(plan)
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
        check_plan(text, cfg, m.t_count)
        run.record(i, text)
        if traced and strategy == "mg":
            with tr.span("sampling.build_curve", i):
                curve = build_curve(m)
            with tr.span("sampling.curve_to_csv", i):
                check_csv(curve_to_csv(curve), m.t_count)

    start = run.start_loop()
    i = 0
    while run.keep_going(start, i):
        run.attempt(i, op, i)
        i += 1
    finish_common(run, latencies, rate(latencies), self_rss_mb(), "draw + plan JSON")
    if tr.enabled:
        finish_layers(run, videos[0])


# ---------------------------------------------------------------- per-layer


def finish_layers(run: Run, frames: np.ndarray) -> None:
    """Per-layer metrics of a traced run: from the loop where its operations
    call the layer, else from a side pass over ``frames``, its first input."""
    tr = run.tracer
    run.per_layer = run.layers.metrics(tr.durations_ms(lambda op: op > SWEEP_OP))
    run.per_layer["motion.static_transition_share"] = run.inputs["static_transition_share"]
    run.per_layer["trace.overhead_ms"] = tr.overhead_ms_per_op()
    sweep = Layers()
    layer_sweep(run, frames, sweep, cli="cli.self_ms" not in run.per_layer)
    swept = sweep.metrics(tr.durations_ms(lambda op: op <= SWEEP_OP))
    run.notes["per_layer_from_side_pass"] = sorted(set(swept) - set(run.per_layer))
    run.per_layer = {**swept, **run.per_layer}


def layer_sweep(run: Run, frames: np.ndarray, lay: Layers, cli: bool) -> None:
    """Call every layer's public functions on up to SWEEP_FRAMES frames of ``frames``.

    Ingest, motion (both dtypes and the feature path), kernels and all five
    draws run SWEEP_REPS times, each under op ids counting down from
    SWEEP_OP; with ``cli``, so do CLI processes over a two-video corpus of
    the same frames.
    """
    tr = run.tracer
    frames = np.ascontiguousarray(frames[:SWEEP_FRAMES])
    if frames.shape[-1] == 1:
        frames = np.repeat(frames, 3, axis=-1)
    root = run.work / "sweep"
    root.mkdir()
    corpus = Corpus(
        [("ppm", root / "v0", inputs.write_ppm_dir(frames, root / "v0")),
         ("u8", root / "v1.mgvt", inputs.write_mgvt(frames, root / "v1.mgvt"))],
        root,
        run.work / "sweep-out",
    )
    corpus.out.mkdir()
    bank_path = run.work / "sweep.mgkb"
    inputs.write_mgkb(inputs.kernel_weights(np.random.default_rng([run.seed, 5]), 3), bank_path)
    if cli:
        lay.interpreter_ms = interpreter_ms(SWEEP_REPS)
        probe(run, "disk-cli")  # warms the bytecode cache; not counted
        lay.startup_ms = [probe(run, "disk-cli")[0] * 1e3 for _ in range(SWEEP_REPS)]
    t_count = frames.shape[0]
    few = FrameVolume(frames[:8])
    lay.conv_shape = few.frames.shape

    def layers_once(op: int, rep: int) -> None:
        with tr.span("ingest.load_raw_tensor", op):
            u8 = load_raw_tensor(corpus.videos[1][1])
        with tr.span("kernels.load_kernel_bank", op):
            bank = load_kernel_bank(bank_path)
        for k, vol in enumerate((u8, FrameVolume(u8.frames.astype(np.float32)))):
            cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy="mg", seed=run.op_seed(op))
            plan, curve = paired_steps(run, op, vol, cfg, "image", bank, lay, (rep + k) % 2 == 0)
            check_plan(plan_to_json(plan), cfg, t_count)
            check_csv(curve_to_csv(curve), t_count)
        m = smooth_distribution(normalize_salience(image_diff_salience(u8)), MU)
        draw_all(run, op, m, t_count)
        cfg = SamplerConfig(n_frames=N_FRAMES, mu=MU, strategy="mg", seed=run.op_seed(op))
        plan, _, _ = traced_steps(tr, op, few, cfg, "feature", bank)
        check_plan(plan_to_json(plan), cfg, few.t_count)

    op = SWEEP_OP
    for rep in range(SWEEP_REPS):
        run.attempt(op, layers_once, op, rep)
        op -= 1
        if cli:
            op = cli_round(run, corpus, op, -1, lay)


WORKLOADS = {
    "inline-image": inline_image,
    "inline-feature": inline_feature,
    "disk-cli": disk_cli,
    "resample": resample,
}
