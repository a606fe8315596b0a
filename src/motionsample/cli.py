"""Command-line front-end.

Subcommands: ``sample`` (pick frames from a video on disk), ``eval``
(synthetic strategy comparison), ``gen`` (write a synthetic video as an MGVT
raw tensor).

Exit codes: 0 success, 1 usage error, 2 input/format error.  A ``ConfigError``
that reaches ``main`` means the flags were wrong (exit 1); a bad input, be it
a file, a frame, a weights file or a video too large to allocate, is exit 2.
Runs are byte-reproducible given --seed (or --deterministic) and identical
inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, MotionSampleError
from .evalbench import SyntheticSpec, compare_strategies, generate_synthetic_video
from .ingest import export_outputs, list_videos, load_kernel_bank, load_video, save_raw_tensor, video_reads, write_atomic
from .motion import REPRESENTATIONS, downsample_volume
from .sampling import (
    STRATEGIES,
    SamplerConfig,
    curve_to_csv,
    plan_to_json,
    sample_video,
    video_seed,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we want 1
        raise ConfigError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_sampler_flags(p: argparse.ArgumentParser, one_strategy: bool) -> None:
    """Sampler flags, defaulting to ``SamplerConfig``'s; ``--strategy`` and ``--window`` only where a run draws with one strategy."""
    if one_strategy:
        p.add_argument("--strategy", choices=STRATEGIES, default=SamplerConfig.strategy)
    p.add_argument("--num-frames", type=int, default=SamplerConfig.n_frames, metavar="N")
    p.add_argument("--mu", type=float, default=SamplerConfig.mu)
    p.add_argument("--stride", type=int, default=SamplerConfig.stride, metavar="K")
    if one_strategy:
        p.add_argument("--window", type=int, default=SamplerConfig.window_len, metavar="L")
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--deterministic", action="store_true")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    """Synthetic-video flags, defaulting to ``SyntheticSpec``'s; it has no default frame count."""
    p.add_argument("--t-count", type=int, default=100, metavar="T")
    p.add_argument("--height", type=int, default=SyntheticSpec.height)
    p.add_argument("--width", type=int, default=SyntheticSpec.width)
    p.add_argument("--channels", type=int, default=SyntheticSpec.channels, choices=(1, 3))
    p.add_argument(
        "--burst",
        action="append",
        default=None,
        metavar="S:E:AMP",
        help="planted burst, zero-based inclusive frames S..E with amplitude AMP (repeatable)",
    )
    p.add_argument("--background", type=float, default=SyntheticSpec.background)
    p.add_argument("--noise", type=float, default=SyntheticSpec.noise)
    p.add_argument("--gen-seed", type=int, default=SyntheticSpec.seed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="motionsample", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sample = sub.add_parser("sample", help="select frame indices from a video on disk")
    src = sample.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames-dir", metavar="DIR", help="directory of PGM/PPM frames")
    src.add_argument("--raw-tensor", metavar="FILE", help="MGVT raw tensor file")
    sample.add_argument("--batch", action="store_true", help="input path holds many videos")
    sample.add_argument("--representation", choices=REPRESENTATIONS, default="image")
    sample.add_argument("--weights", metavar="FILE", help="MGKB kernel weight file")
    sample.add_argument("--downsample", type=int, default=1, metavar="K")
    _add_sampler_flags(sample, one_strategy=True)
    sample.add_argument("--out", metavar="FILE", help="plan JSON path (default: stdout)")
    sample.add_argument("--emit-curve", metavar="FILE", help="also write the curve CSV")

    ev = sub.add_parser("eval", help="compare strategies on a synthetic burst video")
    _add_synth_flags(ev)
    ev.add_argument("--representation", choices=REPRESENTATIONS, default="image")
    _add_sampler_flags(ev, one_strategy=False)
    ev.add_argument("--out", metavar="FILE", help="report JSON path (default: stdout)")

    gen = sub.add_parser("gen", help="write a synthetic video as an MGVT raw tensor")
    _add_synth_flags(gen)
    gen.add_argument("--out", metavar="FILE", required=True)
    return parser


def _sampler_config(args: argparse.Namespace, **fields) -> SamplerConfig:
    return SamplerConfig(
        n_frames=args.num_frames,
        mu=args.mu,
        stride=args.stride,
        seed=args.seed,
        deterministic=args.deterministic,
        **fields,
    )


def _parse_bursts(args: argparse.Namespace) -> tuple[tuple[int, int, float], ...]:
    if args.burst is None:
        return ()
    bursts = []
    for text in args.burst:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--burst wants S:E:AMP, got {text!r}")
        try:
            bursts.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as e:
            raise ConfigError(f"bad --burst {text!r}: {e}") from e
    return tuple(bursts)


def _synthetic_spec(args: argparse.Namespace) -> SyntheticSpec:
    return SyntheticSpec(
        t_count=args.t_count,
        height=args.height,
        width=args.width,
        channels=args.channels,
        bursts=_parse_bursts(args),
        background=args.background,
        noise=args.noise,
        seed=args.gen_seed,
    )


def _batch_jobs(root: Path, out_dir: Path) -> list[tuple[Path, bool, Path]]:
    """(video, is frames dir, plan path) per video under root but out_dir, in natural order; plan paths must differ."""
    jobs: dict[Path, tuple[Path, bool, Path]] = {}
    for path, frames_dir in list_videos(root, skip=out_dir):
        out_path = out_dir / f"{path.name if frames_dir else path.stem}.plan.json"
        if out_path in jobs:
            raise MotionSampleError(f"{jobs[out_path][0]} and {path} would both write {out_path}")
        jobs[out_path] = (path, frames_dir, out_path)
    return list(jobs.values())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _run_sample(args: argparse.Namespace) -> int:
    if args.weights and args.representation == "image":
        raise ConfigError("--weights needs --representation feature")
    if args.downsample < 1:
        raise ConfigError("--downsample must be >= 1")
    cfg = _sampler_config(args, strategy=args.strategy, window_len=args.window)
    if args.batch and args.emit_curve:
        raise ConfigError("--emit-curve is not available with --batch")
    if args.batch and not args.out:
        raise ConfigError("--batch requires --out DIRECTORY")
    if args.out and args.emit_curve and Path(args.out).resolve() == Path(args.emit_curve).resolve():
        raise ConfigError("--out and --emit-curve name the same file")
    root = Path(args.frames_dir or args.raw_tensor)
    for flag, target in (("--out", args.out), ("--emit-curve", args.emit_curve)):
        if target and not args.batch and video_reads(root, args.frames_dir is not None, target):
            raise ConfigError(f"{flag} {target} names a file of the input video {root}")
        if target and args.weights and Path(target).resolve() == Path(args.weights).resolve():
            raise ConfigError(f"{flag} {target} names the --weights file {args.weights}")
    # A single video is the batch of one at ordinal 0, whose seed is --seed itself.
    jobs = _batch_jobs(root, Path(args.out)) if args.batch else [(root, args.frames_dir is not None, args.out)]
    bank = load_kernel_bank(args.weights) if args.weights else None

    def work(item: tuple[int, tuple[Path, bool, Path | str | None]]) -> str | None:
        """Load, sample and write one video (its plan to stdout without --out); else an error that starts with its path."""
        ordinal, (path, frames_dir, out_path) = item
        try:
            volume = downsample_volume(load_video(path, frames_dir)[0], args.downsample)
            plan, curve, _ = sample_video(volume, replace(cfg, seed=video_seed(cfg.seed, ordinal)), args.representation, bank)
            if out_path is not None:
                export_outputs(plan, out_path, curve, args.emit_curve)
                return None
            if args.emit_curve is not None:
                write_atomic(args.emit_curve, curve_to_csv(curve))
        except (MotionSampleError, OSError, MemoryError) as e:
            return str(e) if str(e).startswith(str(path)) else f"{path}: {e}"
        sys.stdout.write(plan_to_json(plan))
        return None

    if args.batch:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    workers = min(8, _usable_cpus(), len(jobs))
    if workers == 1:  # every single-video run: no pool, no threads
        errors = [work(item) for item in enumerate(jobs)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(work, enumerate(jobs)))
    if args.batch:
        for (_, _, out_path), error in zip(jobs, errors):
            if error is None:
                print(out_path)
    for error in filter(None, errors):
        print(f"error: {error}", file=sys.stderr)
    return EXIT_INPUT if any(errors) else EXIT_OK


def _run_eval(args: argparse.Namespace) -> int:
    # eval runs every compared strategy; building the stride config checks --stride before any work
    cfg = _sampler_config(args, strategy="stride")
    spec = _synthetic_spec(args)
    volume = generate_synthetic_video(spec)
    report = compare_strategies(volume, spec, cfg, args.representation)
    if args.out:
        write_atomic(args.out, report.to_json())
    else:
        sys.stdout.write(report.to_json())
    return EXIT_OK


def _run_gen(args: argparse.Namespace) -> int:
    spec = _synthetic_spec(args)
    volume = generate_synthetic_video(spec)
    save_raw_tensor(volume, args.out)
    print(
        f"wrote {args.out}: {volume.t_count}x{volume.height}x{volume.width}x{volume.channels} float32"
    )
    return EXIT_OK


_HANDLERS = {
    "sample": _run_sample,
    "eval": _run_eval,
    "gen": _run_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:  # argparse's text carries its own usage and prefix
        print(e, file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:  # flags only: load_kernel_bank wraps a weights file's, work catches a video's
        print(f"motionsample {args.command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MotionSampleError, OSError, MemoryError) as e:  # an input too large to allocate is an input error
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
