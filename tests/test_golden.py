"""Byte-identity check: CLI outputs on a fixed corpus against committed sha256 digests.

Every input is built here from numpy seeds: a PPM frame directory, uint8 and
float32 MGVT files, an all-static clip, a clip holding a NaN, a ``--batch``
root, a long tie-heavy uint8 clip for ``topk`` and ``mg-clip``, and a PPM
directory whose headers use comments, CR, TAB, VT and FF separators and
leading zeros, and two uint8 clips whose frames the image salience takes in
several chunks (ten chunks of up to four 96x96x3 frame pairs; one pair at
a time for 300x300x3 frames, each past the 128 KiB chunk budget), and three
uint8 clips whose frames change only in small blocks on a static textured
background (the feature convolution's changed windows: each border and
corner, one pixel, two opposite corners at once, and a 32x32x3 frame whose
whole-frame dgemm has 1280 columns, 1222 rounded up to whole 64-column
blocks), and four float32 clips of awkward shapes for the float32 image
salience (T = 2, 1x1x1 frames, one channel, and frames of signed zeros,
subnormals and 1e30 beside 1e-30), and two kernel banks that miss the
uint8 exactness bound of README's *Reproducibility notes* (``random_bank(3,
seed=5)`` and a one-channel bank holding one weight of 1e-30), run over the
uint8 clips of the feature convolution, and two integer-valued float32 clips
written by ``generate_synthetic_video`` (no noise, integer bursts), sampled
under ``--representation feature``, beside ``eval --representation
feature`` on such clips for C = 1 and 3, and the three block clips cast to
float32 (textured integer-valued float32 input), whose digests must equal
their uint8 twins'.  Each case runs
``motionsample.cli.main`` in-process and records the sha256 of its exit
code, stdout, stderr and every file it wrote; the corpus root is replaced
by ``ROOT`` in stdout and stderr first.  The digests live in
``golden_digests.json`` beside this file.

Left out on purpose: ``--representation feature`` curve CSVs of float32
input holding a non-integer or a value outside 0..255, and of banks that
miss the exactness bound (beyond the wide-bank cases above).  Their float64
sums run through BLAS dgemm and may round, so their last bits may depend on the
kernel OpenBLAS picks for the CPU; the oracle tolerances in the other tests
cover them.  Every case here gives the same digests under the default,
Prescott, Haswell, SkylakeX and Sandybridge kernels
(``OPENBLAS_CORETYPE=<X> PYTHONPATH=src python -m pytest tests/test_golden.py``).

Regenerate the digests (only for a change meant to alter outputs) with
``PYTHONPATH=src python tests/test_golden.py``; it lists the cases added,
removed and changed against the committed file before it overwrites it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from motionsample import (
    ConvKernelBank,
    FrameVolume,
    SyntheticSpec,
    generate_synthetic_video,
    random_bank,
    save_kernel_bank,
    save_raw_tensor,
)
from motionsample.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
STRATEGIES = ("mg", "segment", "stride", "topk", "mg-clip")

# name -> (input flag, relative path, channels, float32 feature input)
INPUTS = {
    "ppm": ("--frames-dir", "ppm", 3, False),
    "u8": ("--raw-tensor", "u8.mgvt", 1, False),
    "f32": ("--raw-tensor", "f32.mgvt", 3, True),
    "static": ("--raw-tensor", "static.mgvt", 1, False),
}
VARIANTS = {
    "default": ["--seed", "7"],
    "deterministic": ["--deterministic"],
    "mu2-ds2": ["--mu", "2", "--downsample", "2", "--seed", "11", "--num-frames", "5"],
    "feature": ["--representation", "feature", "--seed", "3"],
}
# uint8 clips the image salience takes in several chunks: name -> (T, H, W, C)
CHUNKED = {"chunks": (40, 96, 96, 3), "wide": (11, 300, 300, 3)}
# uint8 clips that change in small blocks only: name -> (H, W, C)
WINDOWED = {"blocks1": (20, 24, 1), "blocks3": (18, 22, 3), "blocks32": (32, 32, 3)}
# float32 clips of awkward shapes: name -> (T, H, W, C)
F32_ODD = {"f32-t2": (2, 9, 7, 3), "f32-1x1": (12, 1, 1, 1), "f32-c1": (15, 13, 7, 1), "f32-extremes": (9, 6, 5, 3)}
# uint8 feature inputs run under a bank that misses the exactness bound: name -> (input flag, relative path)
WIDE_BANK_INPUTS = {"ppm": ("--frames-dir", "ppm"), "blocks1": ("--raw-tensor", "blocks1.mgvt"),
                    "blocks3": ("--raw-tensor", "blocks3.mgvt"), "blocks32": ("--raw-tensor", "blocks32.mgvt")}
# integer-valued float32 clips written by the synthetic generator: name -> channels
SYNTH_INT = {"synth1": 1, "synth3": 3}
# values where float64 differences of float32 pixels are exact, round or vanish
_EXTREMES = np.array([0.0, -0.0, 1e30, -1e30, 1e-30, -1e-30, 1e-45, -1e-45, 1.5, 3e38], dtype=np.float32)


def _write_ppm_dir(d: Path, frames: np.ndarray) -> None:
    d.mkdir()
    h, w = frames.shape[1:3]
    for t, frame in enumerate(frames):
        (d / f"frame{t + 1}.ppm").write_bytes(b"P6\n%d %d\n255\n" % (w, h) + frame.tobytes())


def _moving_u8(rng, t, h, w, c) -> np.ndarray:
    """Random frames with runs of exact repeats and one 0/255 extreme pair."""
    frames = rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8)
    for i in range(2, t, 5):
        frames[i] = frames[i - 1]
    frames[t // 2] = 0
    frames[t // 2 + 1] = 255
    return frames


def _blocks_u8(rng, h, w, c) -> np.ndarray:
    """A static textured background in which only small blocks change.

    Each frame redraws one block of its predecessor: every corner and the
    middle of every border, one channel of one interior pixel, two opposite
    corners at once, and an interior block drifting one pixel a frame.  One
    frame repeats its predecessor exactly.
    """
    coarse = rng.integers(0, 256, size=(h // 4 + 1, w // 4 + 1, c), dtype=np.uint8)
    frame = np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[:h, :w].copy()
    frames = [frame.copy()]
    b, my, mx = 3, h // 2 - 1, w // 2 - 1

    def redraw(*origins):
        for y, x in origins:
            frame[y : y + b, x : x + b] = rng.integers(0, 256, size=(b, b, c), dtype=np.uint8)
        frames.append(frame.copy())

    for origin in [(0, 0), (0, mx), (0, w - b), (my, w - b), (h - b, w - b), (h - b, mx), (h - b, 0), (my, 0)]:
        redraw(origin)
    frame[my, mx + 1, c - 1] ^= 0x5A  # one channel of one pixel
    redraw()
    redraw()  # an exact repeat
    redraw((0, 0), (h - b, w - b))
    for i in range(4):
        redraw((my - 2 + i, mx - 3 + i))
    return np.stack(frames)


def _long_ties_u8(rng, t) -> np.ndarray:
    """Flat 4x4 frames in four grey levels, held for runs of up to 80 frames.

    Repeat runs longer than the 32-frame clip window give zero-mass windows,
    and level steps of equal size give many equal salience scores.
    """
    levels = np.array([0, 64, 128, 192], dtype=np.uint8)
    frames = np.empty((t, 4, 4, 1), dtype=np.uint8)
    i = 0
    while i < t:
        run = int(rng.choice([1, 1, 2, 3, 40, 80]))
        frames[i : i + run] = levels[rng.integers(4)]
        i += run
    return frames


# Legal headers the plain writer above never produces; each takes (width, height).
_ODD_HEADERS = (
    b"P6#comment right after the magic\n%d\t%d\r255\n",
    b"P6\r\n# two\n#comment lines\n0%d 00%d\x0b000255\t",
    b"P6\x0b%d#a comment ends a field\n%d\x0c\x0c255\r",
    b"P6 \t\r\n\x0b\x0c000000000%d\n#\n%d\n0255 ",
)


def _write_odd_ppm_dir(d: Path, frames: np.ndarray) -> None:
    d.mkdir()
    h, w = frames.shape[1:3]
    for t, frame in enumerate(frames):
        header = _ODD_HEADERS[t % len(_ODD_HEADERS)] % (w, h)
        (d / f"f{t}.ppm").write_bytes(header + frame.tobytes())


def _wide_banks() -> dict[int, ConvKernelBank]:
    """Banks whose sums a uint8 frame may round, by channel count: 54.24 bits, and 130.64 from one tiny weight."""
    tiny = random_bank(1, seed=0).kernels.copy()
    tiny[2, 0, 3, 4] = 1e-30
    return {1: ConvKernelBank(tiny), 3: random_bank(3, seed=5)}


def build_corpus(root: Path) -> None:
    rng = np.random.default_rng(20261018)
    _write_ppm_dir(root / "ppm", _moving_u8(rng, 24, 16, 16, 3))
    save_raw_tensor(FrameVolume(_moving_u8(rng, 40, 12, 12, 1)), root / "u8.mgvt")
    f32 = rng.uniform(0, 255, size=(32, 10, 10, 3)).astype(np.float32)
    f32[5] = f32[4]
    save_raw_tensor(FrameVolume(f32), root / "f32.mgvt")
    static = np.repeat(rng.integers(0, 256, size=(1, 8, 8, 1), dtype=np.uint8), 12, axis=0)
    save_raw_tensor(FrameVolume(static), root / "static.mgvt")
    nan = rng.uniform(0, 255, size=(6, 8, 8, 1)).astype(np.float32)
    nan[4, 1, 2, 0] = np.nan
    save_raw_tensor(FrameVolume(nan), root / "nan.mgvt")
    batch = root / "batch"
    batch.mkdir()
    _write_ppm_dir(batch / "clip2", _moving_u8(rng, 20, 8, 8, 3))
    _write_ppm_dir(batch / "clip10", _moving_u8(rng, 36, 8, 8, 3))
    save_raw_tensor(FrameVolume(_moving_u8(rng, 28, 8, 8, 3)), batch / "clip3.mgvt")
    f32b = rng.uniform(0, 255, size=(18, 8, 8, 3)).astype(np.float32)
    save_raw_tensor(FrameVolume(f32b), batch / "clip4.mgvt")
    for c in (1, 3):
        save_kernel_bank(random_bank(c, seed=5 + c), root / f"bank{c}.mgkb")
    save_raw_tensor(FrameVolume(_long_ties_u8(rng, 1100)), root / "long.mgvt")
    _write_odd_ppm_dir(root / "odd-headers", _moving_u8(rng, 16, 8, 6, 3))
    for name, shape in CHUNKED.items():
        save_raw_tensor(FrameVolume(_moving_u8(rng, *shape)), root / f"{name}.mgvt")
    blocks = {name: _blocks_u8(rng, *shape) for name, shape in WINDOWED.items()}
    for name, frames in blocks.items():
        save_raw_tensor(FrameVolume(frames), root / f"{name}.mgvt")
    for name, shape in F32_ODD.items():
        if name == "f32-extremes":
            frames = rng.choice(_EXTREMES, size=shape)
        else:
            frames = rng.uniform(0, 255, size=shape).astype(np.float32)
        save_raw_tensor(FrameVolume(frames), root / f"{name}.mgvt")
    for c, bank in _wide_banks().items():  # seeded apart from rng, so the inputs above stay as they were
        save_kernel_bank(bank, root / f"wide{c}.mgkb")
    for name, c in SYNTH_INT.items():  # no noise and integer bursts: every value an integer in 0..255
        spec = SyntheticSpec(t_count=40, height=16, width=16, channels=c, bursts=((5, 12, 50), (25, 31, 100)))
        save_raw_tensor(generate_synthetic_video(spec), root / f"{name}.mgvt")
    for name, frames in blocks.items():  # the textured uint8 clips above, cast: integer-valued float32, no new draw
        save_raw_tensor(FrameVolume(frames.astype(np.float32)), root / f"{name}-f32.mgvt")


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """case id -> (argv with ROOT and OUT placeholders, written files to hash)."""
    cases = {}
    for name, (flag, rel, c, f32) in INPUTS.items():
        for variant, extra in VARIANTS.items():
            weights = ["--weights", f"ROOT/bank{c}.mgkb"] if variant == "feature" else []
            for s in STRATEGIES:
                argv = ["sample", flag, f"ROOT/{rel}", "--strategy", s, *extra, *weights,
                        "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
                files = ["plan.json"] if f32 and variant == "feature" else ["plan.json", "curve.csv"]
                cases[f"sample-{name}-{variant}-{s}"] = (argv, files)
        cases[f"stdout-{name}"] = (["sample", flag, f"ROOT/{rel}", "--num-frames", "6", "--seed", "5"], [])
    for variant in ("default", "deterministic"):
        for s in ("topk", "mg-clip"):
            argv = ["sample", "--raw-tensor", "ROOT/long.mgvt", "--strategy", s, *VARIANTS[variant],
                    "--num-frames", "32", "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
            cases[f"sample-long-{variant}-{s}"] = (argv, ["plan.json", "curve.csv"])
    for s in STRATEGIES:
        argv = ["sample", "--frames-dir", "ROOT/odd-headers", "--strategy", s, *VARIANTS["default"],
                "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
        cases[f"sample-odd-headers-{s}"] = (argv, ["plan.json", "curve.csv"])
    # The widest and narrowest draws: N = 32 with the largest seed, and N = 1.
    for variant, extra in {"n32-maxseed": ["--num-frames", "32", "--seed", str(2**64 - 1)],
                           "n1": ["--num-frames", "1"]}.items():
        for s in STRATEGIES:
            argv = ["sample", "--raw-tensor", "ROOT/u8.mgvt", "--strategy", s, *extra,
                    "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
            cases[f"sample-u8-{variant}-{s}"] = (argv, ["plan.json", "curve.csv"])
    for name in CHUNKED:
        for variant in ("default", "deterministic", "mu2-ds2"):
            for s in STRATEGIES:
                argv = ["sample", "--raw-tensor", f"ROOT/{name}.mgvt", "--strategy", s, *VARIANTS[variant],
                        "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
                cases[f"sample-{name}-{variant}-{s}"] = (argv, ["plan.json", "curve.csv"])
    for name, (_, _, c) in WINDOWED.items():
        for clip in (name, f"{name}-f32"):
            for s in STRATEGIES:
                argv = ["sample", "--raw-tensor", f"ROOT/{clip}.mgvt", "--strategy", s, *VARIANTS["feature"],
                        "--weights", f"ROOT/bank{c}.mgkb", "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
                cases[f"sample-{clip}-feature-{s}"] = (argv, ["plan.json", "curve.csv"])
    for name, (flag, rel) in WIDE_BANK_INPUTS.items():
        c = 1 if name == "blocks1" else 3
        for s in STRATEGIES:
            argv = ["sample", flag, f"ROOT/{rel}", "--strategy", s, *VARIANTS["feature"],
                    "--weights", f"ROOT/wide{c}.mgkb", "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
            cases[f"sample-{name}-feature-wide-{s}"] = (argv, ["plan.json", "curve.csv"])
    for name, (t, _, _, _) in F32_ODD.items():
        for s in STRATEGIES:
            argv = ["sample", "--raw-tensor", f"ROOT/{name}.mgvt", "--strategy", s, "--seed", "7",
                    "--num-frames", str(min(t, 4)), "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
            cases[f"sample-{name}-{s}"] = (argv, ["plan.json", "curve.csv"])
    for name, c in SYNTH_INT.items():
        for s in STRATEGIES:
            argv = ["sample", "--raw-tensor", f"ROOT/{name}.mgvt", "--strategy", s, *VARIANTS["feature"],
                    "--weights", f"ROOT/bank{c}.mgkb", "--out", "OUT/plan.json", "--emit-curve", "OUT/curve.csv"]
            cases[f"sample-{name}-feature-{s}"] = (argv, ["plan.json", "curve.csv"])
    batch_plans = [f"clip{i}.plan.json" for i in (2, 3, 4, 10)]
    for variant, extra in VARIANTS.items():
        weights = ["--weights", "ROOT/bank3.mgkb"] if variant == "feature" else []
        for s in STRATEGIES:
            argv = ["sample", "--batch", "--frames-dir", "ROOT/batch", "--strategy", s, *extra,
                    *weights, "--out", "OUT"]
            cases[f"batch-{variant}-{s}"] = (argv, batch_plans)
    cases["error-nan-frame"] = (["sample", "--raw-tensor", "ROOT/nan.mgvt"], [])
    cases["error-topk-too-few"] = (["sample", "--raw-tensor", "ROOT/static.mgvt",
                                    "--strategy", "topk", "--num-frames", "20"], [])
    cases["error-channel-mismatch"] = (["sample", "--frames-dir", "ROOT/ppm", "--representation",
                                        "feature", "--weights", "ROOT/bank1.mgkb"], [])
    synth = ["--t-count", "60", "--height", "16", "--width", "16", "--channels", "3",
             "--burst", "10:19:4", "--burst", "40:44:9", "--noise", "2", "--gen-seed", "4"]
    cases["eval-stdout"] = (["eval", *synth, "--seed", "9"], [])
    cases["eval-file"] = (["eval", *synth, "--mu", "2", "--deterministic", "--out", "OUT/report.json"],
                          ["report.json"])
    cases["gen"] = (["gen", *synth, "--out", "OUT/g.mgvt"], ["g.mgvt"])
    for c in (1, 3):  # integer bursts over the integer background, no noise: an integer-valued float32 clip
        argv = ["eval", "--t-count", "60", "--height", "16", "--width", "16", "--channels", str(c),
                "--burst", "10:19:4", "--burst", "40:44:9", "--noise", "0", "--representation", "feature",
                "--seed", "9"]
        cases[f"eval-feature-c{c}"] = (argv, [])
    return cases


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(root: Path, out: Path, case: str) -> dict[str, str]:
    """Run one case with outputs under ``out`` (created here); artifact name -> sha256."""
    argv, files = CASES[case]
    out.mkdir(parents=True)
    argv = [a.replace("ROOT", str(root)).replace("OUT", str(out)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    def scrub(text: str) -> bytes:
        return text.replace(str(out), "OUT").replace(str(root), "ROOT").encode()

    digests = {"exit": _sha(str(code).encode()), "stdout": _sha(scrub(stdout.getvalue())),
               "stderr": _sha(scrub(stderr.getvalue()))}
    for name in files:
        digests[name] = _sha((out / name).read_bytes())
    return digests


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    build_corpus(root)
    return root


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


def test_float32_block_clips_match_their_uint8_twins():
    """A uint8 clip cast to float32 writes the same plan and curve bytes under a bank that meets the bound."""
    digests = json.loads(DIGESTS.read_text())
    twins = [(f"sample-{name}-f32-feature-{s}", f"sample-{name}-feature-{s}") for name in WINDOWED for s in STRATEGIES]
    assert [digests[f32] for f32, _ in twins] == [digests[u8] for _, u8 in twins]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_committed_digests(corpus, tmp_path, case):
    expected = json.loads(DIGESTS.read_text())[case]
    assert run_case(corpus, tmp_path / "out", case) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        root.mkdir()
        build_corpus(root)
        digests = {case: run_case(root, Path(tmp) / "out" / case, case) for case in sorted(CASES)}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for label, ids in (("added", digests.keys() - old.keys()), ("removed", old.keys() - digests.keys()),
                       ("changed", {c for c in digests.keys() & old.keys() if digests[c] != old[c]})):
        print(f"{label} ({len(ids)}): {' '.join(sorted(ids)) or '-'}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
