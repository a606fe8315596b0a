"""Per-frame motion salience from temporal differences.

A video is a T x H x W x C tensor. The motion signal of frame t is the
summed absolute difference against frame t-1 (image level), or the summed
per-pixel euclidean norm of the difference between shallow convolution
features (feature level). Salience is then l1-normalized into a probability
distribution over frames and optionally power-smoothed.  ``video_salience``
computes a video's salience at either level, once; ``sampling.sample_salience``
normalizes, smooths and draws from it.

The feature level uses a fixed, training-free bank of eight 7x7 filters:
load it from an MGKB weight file (``ingest``), build it from a seeded
Gaussian draw, or use the identity test preset.  ``conv2d_apply`` runs
the bank over a frame, and ``_conv2d_window`` over any window of it, in row
strips whose bands stay within 4160 columns, each as one float64 dgemm per
horizontal tap over shifted row bands of the zero-padded input: 7*C band
rows instead of a 49*C-row im2col matrix, and scratch sized by the frame's
width, capped by the whole frame, never growing with its height.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, StructuralError

DISTRIBUTION_SUM_TOL = 1e-9  # a distribution, and so a curve's F_T, sums to 1 within this
KERNEL_COUNT = 8
KERNEL_SIZE = 7
KERNEL_PADDING = 3
_RANDOM_STDDEV = 1.0 / 49.0
_CHUNK_BYTES = 256 * 1024  # size cap of uint8 image salience's two difference buffers and of feature change masks


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

    The instance owns a read-only copy of ``probs``.  ``degenerate_uniform``
    marks that the all-zero-salience fallback produced a uniform distribution.
    """

    probs: np.ndarray
    degenerate_uniform: bool = False

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)  # own copy, frozen below
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
    of all three channels are summed.  uint8 frames are differenced over
    chunks of frame pairs and summed in uint16 groups of at most 256
    values, then in uint32 or uint64, so the scores are exact integers,
    whatever the chunking; float32 frames are widened once into two reused
    float64 buffers, differenced over frame t-1's and summed there.  Scratch
    memory does not grow with T.  README, *Reproducibility notes*, states
    the chunking, grouping, accumulator and float32 rules.
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
        g = min(n, 256)  # a group of 256 differences sums to at most 65280: exact in uint16
        full = n - n % g
        for s in range(1, t_count, k):
            e = min(s + k, t_count)
            hk, lk = hi[: e - s], lo[: e - s]
            np.maximum(flat[s:e], flat[s - 1 : e - 1], out=hk)
            np.minimum(flat[s:e], flat[s - 1 : e - 1], out=lk)
            np.subtract(hk, lk, out=hk)
            sums = hk[:, :full].reshape(e - s, -1, g).sum(axis=2, dtype=np.uint16).sum(axis=1, dtype=acc)
            if full < n:  # the last n % g columns, fewer than a group
                sums += hk[:, full:].sum(axis=1, dtype=np.uint16)
            out[s:e] = sums
    else:
        n = frames[0].size
        step = -(-n // 8) * 8  # whole 64-byte lines per frame, so both buffers start on one
        prev, cur = _aligned_empty(2 * step).reshape(2, step)[:, :n].reshape(2, *frames.shape[1:])
        np.copyto(prev, frames[0])
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: the error below names the frame
            for t in range(1, t_count):
                np.copyto(cur, frames[t])
                np.subtract(cur, prev, out=prev)  # frame t-1's last read: its buffer takes the difference
                np.abs(prev, out=prev)
                out[t] = prev.sum(dtype=np.float64)
                prev, cur = cur, prev
    return _salience_vector(out, frames)


@dataclass(frozen=True)
class ConvKernelBank:
    """Weights finite as float32, shaped (8, C, 7, 7); stride 1, zero-padding 3, no bias."""

    kernels: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernels)
        if k.ndim != 4 or k.shape[0] != KERNEL_COUNT or k.shape[2:] != (KERNEL_SIZE, KERNEL_SIZE):
            raise ConfigError(
                f"kernel bank must be shaped (8, C, 7, 7), got {np.shape(self.kernels)}"
            )
        if k.shape[1] not in (1, 3):
            raise ConfigError(f"kernel channel count must be 1 or 3, got {k.shape[1]}")
        bad = np.flatnonzero(~(np.abs(k) <= np.finfo(np.float32).max))  # NaN, inf, or inf once cast: named as given
        if bad.size:
            raise ConfigError(f"kernel weights must be finite, got {k.flat[bad[0]]} in filter {bad[0] // k[0].size}")
        object.__setattr__(self, "kernels", _frozen_array(np.ascontiguousarray(k, dtype=np.float32)))

    @property
    def channels(self) -> int:
        return self.kernels.shape[1]

    @cached_property
    def _taps(self) -> np.ndarray:
        """Read-only float64 (7, 8, 7*C) weights of ``_conv2d_window``: for each tap dx, rows k, columns (c, dy)."""
        taps = self.kernels.astype(np.float64).transpose(3, 0, 1, 2).reshape(KERNEL_SIZE, KERNEL_COUNT, -1)
        return _frozen_array(taps)

    @cached_property
    def _sums_uint8_exactly(self) -> bool:
        """Whether every filter meets README's uint8 bound: 255 * sum|w| / min ulp(w) < 2**53, in integers."""
        mant, exp = np.frexp(self.kernels.reshape(KERNEL_COUNT, -1).astype(np.float64))
        units = np.ldexp(np.abs(mant), 24).astype(np.int64).tolist()  # |w| = units * ulp(w) = units * 2**(exp - 24)
        shifts = (exp - np.where(mant != 0, exp, exp.max()).min(axis=1, keepdims=True)).tolist()  # log2(ulp(w) / min ulp)
        return all(255 * sum(a << b for a, b in zip(u, e) if a) < 2**53 for u, e in zip(units, shifts))


def identity_bank(channels: int = 1) -> ConvKernelBank:
    """Filter 0 passes the (channel-summed) input through; filters 1-7 are zero."""
    k = np.zeros((KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE), dtype=np.float32)
    k[0, :, KERNEL_SIZE // 2, KERNEL_SIZE // 2] = 1.0
    return ConvKernelBank(k)


def random_bank(channels: int = 1, seed: int = 0) -> ConvKernelBank:
    """Deterministic Gaussian initialization, standard deviation 1/49, from a seed (default seed 0)."""
    rng = np.random.default_rng(seed)
    k = rng.normal(0.0, _RANDOM_STDDEV, size=(KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE))
    return ConvKernelBank(k.astype(np.float32))


# Every dgemm multiplies whole 64-column blocks, so no column that reaches the
# output is left to a BLAS edge kernel, which may sum in another order.
_COLUMN_BLOCK = 64
_BAND_COLUMNS = 4160  # band cap, 65 column blocks: windows run in strips whose bands fit, each (8, 4160) product in cache


def conv2d_apply(frame: np.ndarray, bank: ConvKernelBank) -> np.ndarray:
    """Cross-correlate one (H, W, C) frame with the bank; returns (8, H, W).

    Stride 1 with zero-padding 3, so the spatial size is preserved.  The
    frame is the widest window of ``_conv2d_window``, its strips copied out
    of a scratch sized by ``_window_scratch``.  Each output sums the
    same 49*C products as the direct correlation, in a float64 order that
    BLAS fixes in part; README, *Reproducibility notes*, says which bits
    that leaves to the BLAS kernel.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3:
        raise ConfigError(f"frame must be (H, W, C), got shape {frame.shape}")
    if frame.shape[2] != bank.channels:
        raise ConfigError(
            f"kernel bank expects {bank.channels} channel(s), frame has {frame.shape[2]}"
        )
    return _feature_map(frame, bank, _window_scratch(*frame.shape))


def _feature_map(frame: np.ndarray, bank: ConvKernelBank, scratch: tuple[np.ndarray, ...]) -> np.ndarray:
    """The whole frame's (8, H, W) features, strip by strip through ``scratch``."""
    out = np.empty((KERNEL_COUNT, *frame.shape[:2]))
    for ys, ye, strip in _conv2d_window(frame, bank, 0, out.shape[1], 0, out.shape[2], scratch):
        out[:, ys:ye] = strip
    return out


def _aligned_empty(size: int) -> np.ndarray:
    """A flat float64 buffer starting on a 64-byte boundary, so its vector loops' speed does not follow the heap."""
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // buf.itemsize
    return buf[start : start + size]


def _band_length(h: int, wp: int) -> int:
    """Columns of each band of an h-row strip with rows Wp wide: h*Wp + 6, rounded up to whole column blocks."""
    return -(-(h * wp + KERNEL_SIZE - 1) // _COLUMN_BLOCK) * _COLUMN_BLOCK


def _window_scratch(h: int, w: int, c: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for ``_conv2d_window`` on (H, W, C) frames: padded input, bands, tap products, output.

    They are sized by the widest band a strip can have, ``_BAND_COLUMNS`` or
    one row of the frame's width, and never beyond the whole frame's band,
    so one set serves every window of a clip and does not grow with the
    frame's height, while a small frame's scratch stays as small as the
    frame.  They are views of one block: taken and freed once per clip, one
    block is reused from the heap, where glibc handed four smaller ones back
    to the OS and faulted them in again on every call.  Each strip refills
    all four; the tap products are free once it is yielded, and the output
    holds it.
    """
    wp = w + 2 * KERNEL_PADDING
    n = min(max(_BAND_COLUMNS, _band_length(1, wp)), _band_length(h, wp))  # whole 64-byte lines: buffers start on one
    sizes = [c * KERNEL_SIZE * n, KERNEL_COUNT * n, KERNEL_COUNT * n, c * (KERNEL_SIZE * wp + n)]
    bands, products, out, padded = np.split(_aligned_empty(sum(sizes)), np.cumsum(sizes[:-1]))
    return padded, bands, products, out


def _conv2d_window(
    frame: np.ndarray, bank: ConvKernelBank, y0: int, y1: int, x0: int, x1: int, scratch: tuple[np.ndarray, ...],
    prev: np.ndarray | None = None,
):
    """Yield (ys, ye, strip) for rows ys:ye of output window y0:y1, x0:x1 of ``conv2d_apply(frame, bank)``.

    Each strip is shaped (8, ye-ys, x1-x0).  The window runs in the fewest
    strips of near-equal height whose bands stay within ``_BAND_COLUMNS``
    (a strip has at least one row, so a row wider than the cap makes one
    wider band); strips of one pixel come only from one-pixel windows,
    since numpy sums a lone pixel's channels in another order (README,
    *Reproducibility notes*).  Each strip is a view into ``scratch`` (from
    ``_window_scratch`` for the frame's shape), valid until the next strip
    or call that uses the same buffers.  Accumulation runs in float64, as
    one band product per horizontal tap.  A strip's input, rows ys-3:ye+3
    and columns x0-3:x1+3, is read from the frame (given a uint8 ``prev``,
    from frame - prev: the window then convolves the difference) into a
    planar (C, R, Wp) array, Wp = (x1-x0)+6, with zeros only where it
    reaches past the frame border and in the rows below it.
    Band (c, dy) is plane c read flat from offset dy*Wp, n values long, n =
    h*Wp+6 rounded up to a multiple of 64, h = ye-ys; so its entry
    y*Wp + x + dx is input pixel (c, y+dy, x+dx): the 7 horizontal taps of a
    row are one band read at offsets 0..6.  Tap dx's kernels as an (8, 7*C)
    matrix, columns (c, dy), times the (7*C, n) bands give Y_dx (8, n), one
    dgemm per dx.  Output (k, y, x) is Y_0[k, y*Wp + x] + ... +
    Y_6[k, y*Wp + x + 6], added in that order, each add once over Y_dx read
    flat while it is still in cache; the strip leaves out the columns past
    h*Wp, which mix in the next filter's row, and the 6 pad columns of each
    row.  A strip is a window, so each value has the whole frame's bits
    (README, *Reproducibility notes*).
    """
    h, w, c = frame.shape
    pad, size = KERNEL_PADDING, KERNEL_SIZE
    wp = x1 - x0 + 2 * pad
    flat_padded, flat_bands, flat_products, flat_out = scratch
    strips = -(-(y1 - y0) // max(1, (_BAND_COLUMNS - size + 1) // wp))
    for i in range(strips):
        ys, ye = y0 + i * (y1 - y0) // strips, y0 + (i + 1) * (y1 - y0) // strips
        n = _band_length(ye - ys, wp)
        rows = size - 1 + -(-n // wp)
        padded = flat_padded[: c * rows * wp].reshape(c, rows, wp)
        padded[...] = 0.0
        iy0, iy1, ix0, ix1 = max(ys - pad, 0), min(ye + pad, h), max(x0 - pad, 0), min(x1 + pad, w)
        src = frame[iy0:iy1, ix0:ix1]
        if prev is not None:  # uint8 frames: the difference is exact in int16, taken in the frame's own layout
            src = np.subtract(src, prev[iy0:iy1, ix0:ix1], dtype=np.int16)
        padded[:, iy0 - ys + pad : iy1 - ys + pad, ix0 - x0 + pad : ix1 - x0 + pad] = np.moveaxis(src, 2, 0)
        bands = flat_bands[: c * size * n].reshape(c * size, n)  # row (c, dy): padded's plane c from dy*Wp, n values
        np.copyto(bands.reshape(c, size, n), np.ndarray((c, size, n), buffer=flat_padded, strides=padded.strides))
        out, product = flat_out[: KERNEL_COUNT * n].reshape(KERNEL_COUNT, n), flat_products[: KERNEL_COUNT * n]
        np.matmul(bank._taps[0], bands, out=out)
        sums = out.reshape(-1)[: KERNEL_COUNT * n - size + 1]  # so no read passes the end of a product
        for dx in range(1, size):
            np.matmul(bank._taps[dx], bands, out=product.reshape(KERNEL_COUNT, n))
            sums += product[dx : dx + sums.size]
        yield ys, ye, out[:, : (ye - ys) * wp].reshape(KERNEL_COUNT, ye - ys, wp)[:, :, : x1 - x0]


def feature_diff_salience(video: FrameVolume, bank: ConvKernelBank) -> SalienceVector:
    """Motion magnitude from shallow convolution features.

    Each frame is mapped to 8 feature maps; consecutive maps are subtracted,
    the 8 channels collapse per pixel to sqrt(sum of squares), and the result
    is summed over the spatial domain.  values[0] is 0.

    Only the window a frame's changes can reach is convolved: the bounding
    box of the pixels that differ from the previous frame, widened by the
    3-pixel kernel radius and clipped to the frame.  A frame bit-identical
    to its predecessor has no window and scores 0.  The scores have the bits
    of convolving every frame whole (README, *Reproducibility notes*).  uint8
    frames under a bank that meets README's exactness bound convolve windows
    of frames[t] - frames[t-1]: no frame 0, no cached feature map.  Other
    clips convolve frame 0 whole, then windows of frames[t] against the
    cached map.  The scratch, one set of strip buffers sized by the frame's
    width and capped by its whole band, change masks of at most 256 KiB or
    one frame, an (H, W) norm map and the feature map if cached, does not
    grow with T.

    Pixels compare by value, so 0.0 and -0.0 are equal; the two can change a
    feature value only in the sign of a zero, which no square can see.  A
    NaN never compares equal, so it lies inside its frame's window and is
    rejected as non-finite.  An infinity does compare equal, so a float32
    clip's first feature map is checked directly: a clip whose frame 0
    holds one is rejected even when every later frame repeats it.
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
    by_difference = frames.dtype == np.uint8 and bank._sums_uint8_exactly  # README, *Reproducibility notes*
    scratch = _window_scratch(h, w, c)  # one set of strip buffers for every window
    k = max(1, min(t_count - 1, _CHUNK_BYTES // flat[0].size))
    masks = np.empty((k, h, w * c), dtype=np.bool_)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: the errors below name the frame
        if not by_difference:
            feats = _feature_map(frames[0], bank, scratch)  # updated in place
            if t_count > 1 and not np.isfinite(feats.sum()):  # a finite map sums below 1e80: no overflow
                raise StructuralError("salience entry 1 (frame 0) must be finite and >= 0")
        for s in range(1, t_count, k):
            e = min(s + k, t_count)
            changed = masks[: e - s]
            np.not_equal(flat[s:e], flat[s - 1 : e - 1], out=changed)
            for t, row_mask, col_mask in zip(range(s, e), changed.any(axis=2), changed.any(axis=1)):
                rows = np.flatnonzero(row_mask)
                if rows.size == 0:
                    continue
                cols = np.flatnonzero(col_mask)
                y0, y1 = max(rows[0] - r, 0), min(rows[-1] + r + 1, h)
                x0, x1 = max(cols[0] // c - r, 0), min(cols[-1] // c + r + 1, w)
                prev = frames[t - 1] if by_difference else None
                for ys, ye, new in _conv2d_window(frames[t], bank, y0, y1, x0, x1, scratch, prev):
                    diff = scratch[2][: new.size].reshape(new.shape)  # spent tap products; contiguous, as (8, H, W)
                    if by_difference:
                        np.square(new, out=diff)
                    else:
                        cached = feats[:, ys:ye, x0:x1]
                        np.subtract(cached, new, out=diff)  # -(cur - cached), exactly: the same squares
                        np.square(diff, out=diff)
                        cached[...] = new
                    np.sqrt(diff.sum(axis=0), out=norms[ys:ye, x0:x1])
                out[t] = norms.sum()
                norms[y0:y1, x0:x1] = 0.0
    return _salience_vector(out, frames)


def normalize_salience(s: SalienceVector) -> MotionDistribution:
    """l1-normalize salience into per-frame probabilities.

    A video with zero total salience (static content) has no defined
    normalization; it falls back to the uniform distribution and sets
    ``degenerate_uniform``.
    """
    return _l1_normalize(s.values)


def _l1_normalize(v: np.ndarray, degenerate_uniform: bool = False) -> MotionDistribution:
    """``v / v.sum()``, or the uniform distribution, marked ``degenerate_uniform``, when the sum is not positive."""
    total = float(v.sum())
    if total > 0.0:
        return MotionDistribution(v / total, degenerate_uniform=degenerate_uniform)
    return MotionDistribution(np.full(v.size, 1.0 / v.size), degenerate_uniform=True)


def smooth_distribution(m: MotionDistribution, mu: float) -> MotionDistribution:
    """Power-smooth a distribution: probs^mu, renormalized.

    mu < 1 flattens toward uniform, mu > 1 sharpens, mu = 1 returns ``m``
    itself.  mu = 0 gives the exact uniform distribution by arithmetic: every
    p**0 is 1.0 (0**0 too), T ones sum to exactly T, and each entry is 1/T.
    Zero entries stay zero for mu > 0.
    """
    if not np.isfinite(mu) or mu < 0:
        raise ConfigError(f"smoothing exponent must be finite and >= 0, got {mu!r}")
    if mu == 1.0:
        return m
    # no uniform fallback in exact arithmetic, but tiny probabilities can underflow for large mu
    return _l1_normalize(np.power(m.probs, mu), m.degenerate_uniform)


REPRESENTATIONS = ("image", "feature")


def video_salience(volume: FrameVolume, representation: str = "image", bank: ConvKernelBank | None = None) -> SalienceVector:
    """Image- or feature-level salience: the stage every draw from a video shares.

    A seed-0 Gaussian bank is the feature default.
    """
    if representation == "image":
        return image_diff_salience(volume)
    if representation == "feature":
        return feature_diff_salience(volume, bank or random_bank(volume.channels))
    raise ConfigError(f"unknown representation {representation!r}, expected one of {REPRESENTATIONS}")


def downsample_volume(video: FrameVolume, factor: int) -> FrameVolume:
    """Nearest-neighbor spatial decimation by an integer factor (>= 1)."""
    if int(factor) != factor or factor < 1:
        raise ConfigError(f"downsample factor must be an integer >= 1, got {factor!r}")
    factor = int(factor)
    if factor == 1:
        return video
    return FrameVolume(np.ascontiguousarray(video.frames[:, ::factor, ::factor, :]))
