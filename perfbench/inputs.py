"""Seeded input generation for the benchmark workloads.

Everything here uses only numpy and the standard library, never the
package's own generators or writers, so a change to those cannot shift a
workload's inputs.  The same seed always yields the same bytes.

``prepare`` writes one workload's inputs into a work directory and returns
their description; the timed loop runs in another process that only reads
them, so its peak RSS does not include input generation.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

_MGVT_HEADER = struct.Struct("<4sIIIIII4x")  # magic, version, T, H, W, C, dtype tag
_MGKB_HEADER = struct.Struct("<4sI8x")  # magic, channels


def static_share(frames: np.ndarray) -> float:
    """Share of consecutive-frame transitions whose frames are bit-identical."""
    flat = frames.reshape(frames.shape[0], -1)
    return float(np.mean(np.all(flat[1:] == flat[:-1], axis=1)))


def moving_clip(rng: np.random.Generator, t: int, h: int, w: int, c: int, static_frac: float) -> np.ndarray:
    """A (t, h, w, c) uint8 clip: blocky objects drifting over a textured background.

    Each transition is, with probability ``static_frac``, an exact repeat of
    the previous frame; otherwise every object moves one step, so motion
    varies with object size and velocity.
    """
    coarse = rng.integers(0, 256, size=(h // 8 + 1, w // 8 + 1, c), dtype=np.uint8)
    background = np.repeat(np.repeat(coarse, 8, axis=0), 8, axis=1)[:h, :w]
    n_obj = int(rng.integers(2, 6))
    size = rng.integers(max(2, h // 10), max(3, h // 3), size=(n_obj, 2))
    pos = rng.uniform(0, 1, size=(n_obj, 2)) * (np.array([h, w]) - size)
    vel = rng.uniform(-3, 3, size=(n_obj, 2))
    colour = rng.integers(0, 256, size=(n_obj, c), dtype=np.uint8)
    moves = rng.random(t) >= static_frac
    out = np.empty((t, h, w, c), dtype=np.uint8)
    for i in range(t):
        if i > 0 and not moves[i]:
            out[i] = out[i - 1]
            continue
        if i > 0:
            pos += vel
            limit = np.array([h, w]) - size
            bounced = (pos < 0) | (pos > limit)
            vel[bounced] *= -1
            np.clip(pos, 0, limit, out=pos)
        frame = background.copy()
        for (y, x), (sy, sx), col in zip(pos.astype(int), size, colour):
            frame[y : y + sy, x : x + sx] = col
        out[i] = frame
    return out


def salience_video(rng: np.random.Generator, t: int, shape: str) -> np.ndarray:
    """A small (t, 8, 8, 1) uint8 video whose motion profile has the given shape.

    ``spiky``: a few short bursts, static elsewhere.  ``uniform``: every
    transition changes the frame by a near-constant amount.  ``static``:
    every frame identical, so salience is all zero.
    """
    base = rng.integers(0, 256, size=(8, 8, 1), dtype=np.uint8)
    out = np.repeat(base[np.newaxis], t, axis=0)
    if shape == "static":
        return out
    if shape == "uniform":
        other = rng.integers(0, 256, size=(8, 8, 1), dtype=np.uint8)
        out[1::2] = other
        px = rng.integers(0, 64, size=t)
        out.reshape(t, 64)[np.arange(t), px] = rng.integers(0, 256, size=t, dtype=np.uint8)
        return out
    if shape != "spiky":
        raise ValueError(f"unknown salience shape {shape!r}")
    for _ in range(max(1, t // 64)):
        start = int(rng.integers(1, t))
        for i in range(start, min(t, start + int(rng.integers(1, 6)))):
            out[i] = rng.integers(0, 256, size=(8, 8, 1), dtype=np.uint8)
        out[i + 1 :] = out[i]
    return out


def kernel_weights(rng: np.random.Generator, channels: int) -> np.ndarray:
    """An (8, C, 7, 7) float32 bank drawn from N(0, 1/49)."""
    return rng.normal(0.0, 1.0 / 49.0, size=(8, channels, 7, 7)).astype(np.float32)


def _write_synced(path: Path, data: bytes) -> int:
    """Write and fsync, so write-back of set-up files does not overlap the timed loop."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    return len(data)


def write_mgkb(weights: np.ndarray, path: Path) -> int:
    return _write_synced(path, _MGKB_HEADER.pack(b"MGKB", weights.shape[1]) + weights.astype("<f4").tobytes())


def write_mgvt(frames: np.ndarray, path: Path) -> int:
    tag = 0 if frames.dtype == np.uint8 else 1
    t, h, w, c = frames.shape
    payload = frames.tobytes() if tag == 0 else frames.astype("<f4").tobytes()
    return _write_synced(path, _MGVT_HEADER.pack(b"MGVT", 1, t, h, w, c, tag) + payload)


def write_ppm_dir(frames: np.ndarray, path: Path) -> int:
    """One binary P6 file per frame of a (T, H, W, 3) uint8 clip, named f0.ppm, f1.ppm, ..."""
    path.mkdir(parents=True)
    t, h, w, _ = frames.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return sum(_write_synced(path / f"f{i}.ppm", header + frames[i].tobytes()) for i in range(t))


def describe(arrays: list[np.ndarray]) -> dict:
    return {
        "dtype_mix": {str(np.dtype(d)): sum(a.dtype == d for a in arrays) for d in (np.uint8, np.float32)},
        "input_bytes": sum(a.nbytes for a in arrays),
        "static_transition_share": float(np.mean([static_share(a) for a in arrays])),
    }


def save_arrays(arrays: list[np.ndarray], work: Path, stem: str) -> None:
    for k, a in enumerate(arrays):
        np.save(work / f"{stem}{k}.npy", a)


def _inline_image(seed: int, work: Path) -> dict:
    # Three clips in four are uint8 and one float32: p50 lands on the uint8
    # path and the tail on the float32 path.  No frame is repeated on purpose.
    rng = np.random.default_rng([seed, 1])
    clips = [moving_clip(rng, 160, 112, 112, 3, 0.0) for _ in range(4)]
    clips[3] = clips[3].astype(np.float32)
    save_arrays(clips, work, "clip")
    return {"clips": len(clips), "shape": list(clips[0].shape), **describe(clips)}


def _inline_feature(seed: int, work: Path) -> dict:
    # About 60% of transitions are exact repeats: the property a
    # skip-static change to the feature path would exploit.
    rng = np.random.default_rng([seed, 2])
    clips = [moving_clip(rng, 64, 64, 64, 3, 0.6) for _ in range(4)]
    write_mgkb(kernel_weights(rng, 3), work / "bank.mgkb")
    save_arrays(clips, work, "clip")
    return {"clips": len(clips), "shape": list(clips[0].shape), **describe(clips)}


CORPUS_KINDS = ("ppm", "u8", "u8", "ppm", "f32", "u8")


def _disk_cli(seed: int, work: Path) -> dict:
    """PPM frame directories v<j>/ and MGVT files v<j>.mgvt under work/corpus."""
    rng = np.random.default_rng([seed, 3])
    corpus = work / "corpus"
    corpus.mkdir()
    shares, sizes = [], []
    for j, kind in enumerate(CORPUS_KINDS):
        frames = moving_clip(rng, 160, 112, 112, 3, 0.0)
        shares.append(static_share(frames))
        if kind == "ppm":
            sizes.append(write_ppm_dir(frames, corpus / f"v{j}"))
        else:
            sizes.append(write_mgvt(frames.astype(np.float32) if kind == "f32" else frames, corpus / f"v{j}.mgvt"))
    return {
        "videos": len(CORPUS_KINDS),
        "kinds": list(CORPUS_KINDS),
        "shape": [160, 112, 112, 3],
        "dtype_mix": {"uint8": len(CORPUS_KINDS) - CORPUS_KINDS.count("f32"), "float32": CORPUS_KINDS.count("f32")},
        "file_bytes": sizes,
        "input_bytes": sum(sizes),
        "static_transition_share": float(np.mean(shares)),
        "page_cache": "warm: the page cache is not dropped between calls",
    }


RESAMPLE_T = (16, 64, 256, 1024, 4096)


def _resample(seed: int, work: Path) -> dict:
    """Spiky and near-uniform motion for each T, plus one all-static video."""
    rng = np.random.default_rng([seed, 4])
    videos = [salience_video(rng, t, shape) for t in RESAMPLE_T for shape in ("spiky", "uniform")]
    videos.append(salience_video(rng, 512, "static"))
    save_arrays(videos, work, "video")
    return {
        "videos": len(videos),
        "t_counts": [int(v.shape[0]) for v in videos],
        "frame_shape": list(videos[0].shape[1:]),
        **describe(videos),
    }


PREPARE = {
    "inline-image": _inline_image,
    "inline-feature": _inline_feature,
    "disk-cli": _disk_cli,
    "resample": _resample,
}


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``work``; return their description."""
    return PREPARE[workload](seed, work)
