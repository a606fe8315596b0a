"""Per-frame motion salience from temporal differences.

A video is a T x H x W x C tensor. The motion signal of frame t is the
summed absolute difference against frame t-1 (image level), or the summed
per-pixel euclidean norm of the difference between shallow convolution
features (feature level). Salience is then l1-normalized into a probability
distribution over frames and optionally power-smoothed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StructuralError
from .kernels import KERNEL_COUNT, KERNEL_PADDING, ConvKernelBank, _conv2d_window, _window_scratch

DISTRIBUTION_SUM_TOL = 1e-9
_CHUNK_BYTES = 128 * 1024  # uint8 image salience: size cap of each of its two difference buffers


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FrameVolume:
    """Decoded video frames, shape (T, H, W, C), dtype uint8 or float32.

    The array is adopted without copying and marked read-only; videos can be
    large and the type guarantees immutability instead.
    """

    frames: np.ndarray

    def __post_init__(self):
        f = self.frames
        if not isinstance(f, np.ndarray) or f.ndim != 4:
            raise StructuralError(
                f"frame volume must be a 4-d (T, H, W, C) array, got "
                f"{getattr(f, 'shape', None)}"
            )
        if f.dtype not in (np.uint8, np.float32):
            raise StructuralError(f"frame dtype must be uint8 or float32, got {f.dtype}")
        t, h, w, c = f.shape
        if t < 1 or h < 1 or w < 1:
            raise StructuralError(f"frame volume dimensions must be >= 1, got {f.shape}")
        if c not in (1, 3):
            raise StructuralError(f"channel count must be 1 or 3, got {c}")
        object.__setattr__(self, "frames", _frozen_array(np.ascontiguousarray(f)))

    @property
    def t_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def channels(self) -> int:
        return self.frames.shape[3]


@dataclass(frozen=True)
class SalienceVector:
    """Raw per-frame motion magnitude; values[0] is 0 by definition."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # own copy, frozen below
        if v.ndim != 1 or v.size < 1:
            raise StructuralError("salience must be a non-empty 1-d vector")
        if v[0] != 0.0:
            raise StructuralError(f"salience[0] must be 0, got {v[0]}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            bad = int(np.argmin(np.isfinite(v) & (v >= 0)))  # argmin of a bool array: first False
            raise StructuralError(f"salience entry {bad} (frame {bad}) must be finite and >= 0")
        object.__setattr__(self, "values", _frozen_array(v))

    @property
    def t_count(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class MotionDistribution:
    """l1-normalized per-frame motion probabilities.

    The instance owns a read-only copy of ``probs``; an array the constructor
    did not create is copied.  ``degenerate_uniform`` marks that the
    all-zero-salience fallback produced a uniform distribution.
    """

    probs: np.ndarray
    degenerate_uniform: bool = False

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p is self.probs:  # the caller's array: copy, so later writes to it cannot reach us
            p = p.copy()
        if p.ndim != 1 or p.size < 1:
            raise StructuralError("distribution must be a non-empty 1-d vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise StructuralError("probabilities must be finite and >= 0")
        total = float(p.sum())
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise StructuralError(f"probabilities must sum to 1 within 1e-9, got {total!r}")
        object.__setattr__(self, "probs", _frozen_array(p))

    @property
    def t_count(self) -> int:
        return self.probs.size


def _salience_vector(out: np.ndarray, frames: np.ndarray) -> SalienceVector:
    """Wrap scores computed from ``frames``; a non-finite score names the first non-finite frame.

    Score t mixes frames t-1 and t, so its own index can point one frame
    late; the frames are scanned only on this error path.
    """
    finite = np.isfinite(out)
    if not finite.all():
        bad = int(np.argmin(finite))  # argmin of a bool array: first False
        frame = next((t for t in range(frames.shape[0]) if not np.isfinite(frames[t]).all()), bad)
        raise StructuralError(f"salience entry {bad} (frame {frame}) must be finite and >= 0")
    return SalienceVector(out)


def image_diff_salience(video: FrameVolume) -> SalienceVector:
    """Summed absolute pixel difference between consecutive frames.

    Channels count as extra spatial extent: for C=3 the absolute differences
    of all three channels are summed.

    uint8 frames are taken as flat rows of H*W*C pixels, in chunks of k
    consecutive frame pairs, k = max(1, min(T-1, 128 KiB // (H*W*C))).  Each
    chunk is differenced as max - min in uint8, which cannot wrap, into two
    (k, H*W*C) buffers reused for the whole clip, and each row is summed by
    an integer accumulator (uint32 while 255*H*W*C fits it, else uint64).
    Every score is then an exact integer below 2**53, so neither the chunking
    nor the summation order can change its float64 value.  Scratch memory is
    two buffers of at most 128 KiB, or two frames when one frame is larger.
    float32 frames are widened to float64, differenced and summed in float64
    a pair at a time.  In both branches scratch memory does not grow with T.
    """
    frames = video.frames
    t_count = video.t_count
    out = np.zeros(t_count, dtype=np.float64)
    if frames.dtype == np.uint8:
        flat = frames.reshape(t_count, -1)
        n = flat.shape[1]
        k = max(1, min(t_count - 1, _CHUNK_BYTES // n))
        hi, lo = np.empty((k, n), dtype=np.uint8), np.empty((k, n), dtype=np.uint8)
        acc = np.uint32 if 255 * n < 2**32 else np.uint64
        for s in range(1, t_count, k):
            e = min(s + k, t_count)
            hk, lk = hi[: e - s], lo[: e - s]
            np.maximum(flat[s:e], flat[s - 1 : e - 1], out=hk)
            np.minimum(flat[s:e], flat[s - 1 : e - 1], out=lk)
            np.subtract(hk, lk, out=hk)
            out[s:e] = hk.sum(axis=1, dtype=acc)
    else:
        prev = frames[0].astype(np.float64)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: the error below names the frame
            for t in range(1, t_count):
                cur = frames[t].astype(np.float64)
                diff = cur - prev
                np.abs(diff, out=diff)
                out[t] = diff.sum(dtype=np.float64)
                prev = cur
    return _salience_vector(out, frames)


def feature_diff_salience(video: FrameVolume, bank: ConvKernelBank) -> SalienceVector:
    """Motion magnitude from shallow convolution features.

    Each frame is mapped to 8 feature maps; consecutive maps are subtracted,
    the 8 channels collapse per pixel to sqrt(sum of squares), and the result
    is summed over the spatial domain.  values[0] is 0.

    Only the window a frame's changes can reach is convolved: the bounding
    box of the pixels that differ from the previous frame, widened by the
    3-pixel kernel radius and clipped to the frame.  A frame bit-identical
    to its predecessor has no window and scores 0.  The scores have the bits
    of convolving every frame whole (README, *Reproducibility notes*).  The
    scratch, whole-frame convolution buffers, the cached feature map and an
    (H, W) norm map, does not grow with T.

    Pixels compare by value, so 0.0 and -0.0 are equal; the two can change a
    feature value only in the sign of a zero, which no square can see.  A
    NaN never compares equal, so it lies inside its frame's window and is
    rejected as non-finite.  An infinity does compare equal, so the first
    feature map is checked directly: a clip whose frame 0 holds one is
    rejected even when every later frame repeats it.
    """
    if bank.channels != video.channels:
        raise ConfigError(
            f"kernel bank expects {bank.channels} channel(s), video has {video.channels}"
        )
    frames = video.frames
    t_count, h, w, c = frames.shape
    flat = frames.reshape(t_count, h, w * c)  # one row of pixels is W*C values
    norms = np.zeros((h, w))
    out = np.zeros(t_count, dtype=np.float64)
    r = KERNEL_PADDING
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: the errors below name the frame
        scratch = _window_scratch(h, w, c)  # one set of convolution buffers for every window
        masks, spent, conv = scratch[1].view(np.bool_), scratch[2], scratch[3]  # the first two free between windows
        feats = _conv2d_window(frames[0], bank, 0, h, 0, w, scratch).copy()  # updated in place, window by window
        if t_count > 1 and not np.isfinite(feats).all():
            raise StructuralError("salience entry 1 (frame 0) must be finite and >= 0")
        k = max(1, min(t_count - 1, masks.size // flat[0].size))
        for s in range(1, t_count, k):
            e = min(s + k, t_count)
            changed = masks[: (e - s) * flat[0].size].reshape(e - s, h, w * c)
            np.not_equal(flat[s:e], flat[s - 1 : e - 1], out=changed)
            for t, row_mask, col_mask in zip(range(s, e), changed.any(axis=2), changed.any(axis=1)):
                rows = np.flatnonzero(row_mask)
                if rows.size == 0:
                    continue
                cols = np.flatnonzero(col_mask)
                y0, y1 = max(rows[0] - r, 0), min(rows[-1] + r + 1, h)
                x0, x1 = max(cols[0] // c - r, 0), min(cols[-1] // c + r + 1, w)
                cur = _conv2d_window(frames[t], bank, y0, y1, x0, x1, scratch)
                cached = feats[:, y0:y1, x0:x1]
                diff = spent[: KERNEL_COUNT * cur.strides[0] // cur.itemsize]  # conv's (8, n) block
                window = np.ndarray(cur.shape, buffer=spent, strides=cur.strides)  # where cur sits in it
                np.copyto(window, cached)
                np.subtract(diff, conv[: diff.size], out=diff)  # -(cur - cached), exactly: the same squares
                np.square(diff, out=diff)
                np.sqrt(window.sum(axis=0), out=norms[y0:y1, x0:x1])  # the cropped view keeps the sum order
                out[t] = norms.sum()
                norms[y0:y1, x0:x1] = 0.0
                cached[...] = cur
    return _salience_vector(out, frames)


def normalize_salience(s: SalienceVector) -> MotionDistribution:
    """l1-normalize salience into per-frame probabilities.

    A video with zero total salience (static content) has no defined
    normalization; it falls back to the uniform distribution and sets
    ``degenerate_uniform``.
    """
    total = float(s.values.sum())
    if total > 0.0:
        return MotionDistribution(s.values / total)
    t = s.t_count
    return MotionDistribution(np.full(t, 1.0 / t), degenerate_uniform=True)


def smooth_distribution(m: MotionDistribution, mu: float) -> MotionDistribution:
    """Power-smooth a distribution: probs^mu, renormalized.

    mu < 1 flattens toward uniform, mu > 1 sharpens, mu = 1 returns ``m``
    itself.  mu = 0 gives the exact uniform distribution by arithmetic: every
    p**0 is 1.0 (0**0 too), T ones sum to exactly T, and each entry is 1/T.
    Zero entries stay zero for mu > 0.
    """
    if not np.isfinite(mu) or mu < 0:
        raise ConfigError(f"smoothing exponent must be >= 0, got {mu!r}")
    if mu == 1.0:
        return m
    powered = np.power(m.probs, mu)
    total = float(powered.sum())
    if total <= 0.0:
        # Unreachable for exact arithmetic on a valid distribution, but tiny
        # probabilities can underflow for large mu.
        t = m.t_count
        return MotionDistribution(np.full(t, 1.0 / t), degenerate_uniform=True)
    return MotionDistribution(powered / total, degenerate_uniform=m.degenerate_uniform)


def downsample_volume(video: FrameVolume, factor: int) -> FrameVolume:
    """Nearest-neighbor spatial decimation by an integer factor (>= 1)."""
    if int(factor) != factor or factor < 1:
        raise ConfigError(f"downsample factor must be an integer >= 1, got {factor!r}")
    factor = int(factor)
    if factor == 1:
        return video
    return FrameVolume(np.ascontiguousarray(video.frames[:, ::factor, ::factor, :]))
