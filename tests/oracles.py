"""Independent brute-force references the fast implementations are checked against.

Nothing here may call into the code paths under test.
"""

import math

import numpy as np


# One unit segment sampled at 1e-6; buffers are reused so a thousand oracle
# calls do not thrash the allocator.
_GRID = np.linspace(0.0, 1.0, 1_000_001)
_GRID_EVAL = np.empty_like(_GRID)


def brute_force_invert(curve_values, y: float) -> int:
    """Invert a piecewise-linear cumulative curve by scanning at 1e-6 resolution.

    Returns the zero-based frame index of the leftmost x with F(x) >= y:
    nearest integer (half up), clamped to [1, T], minus 1.  Only the segment
    that can contain the leftmost crossing is evaluated; earlier segments sit
    entirely below y because F is non-decreasing.  The evaluated grid is
    monotone, so searchsorted finds the same point a left-to-right scan would.
    """
    f = np.asarray(curve_values, dtype=np.float64)
    t = f.size - 1
    for k in range(1, t + 1):
        if f[k] >= y:
            np.multiply(_GRID, f[k] - f[k - 1], out=_GRID_EVAL)
            np.add(_GRID_EVAL, f[k - 1], out=_GRID_EVAL)
            # rounding can leave the last grid value an ulp below f[k]
            idx = min(int(np.searchsorted(_GRID_EVAL, y, side="left")), _GRID.size - 1)
            x_star = (k - 1) + float(_GRID[idx])
            return min(max(math.floor(x_star + 0.5), 1), t) - 1
    return t - 1


def loop_conv2d(frame, kernels) -> np.ndarray:
    """Cross-correlation with stride 1 / zero-padding 3 via explicit loops."""
    frame = np.asarray(frame, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    h, w, c = frame.shape
    n_out, _, kh, kw = kernels.shape
    pad = 3
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
    padded[pad : pad + h, pad : pad + w, :] = frame
    out = np.zeros((n_out, h, w))
    for o in range(n_out):
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for ch in range(c):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += padded[y + dy, x + dx, ch] * kernels[o, ch, dy, dx]
                out[o, y, x] = acc
    return out


def tensordot_conv2d(frame, kernels) -> np.ndarray:
    """The same cross-correlation as one (H*W, C*49) x (C*49, 8) tensordot.

    This was the package's layout before ``kernels @ columns``; uint8 frames
    must still give its bits, float32 frames its values to rounding.
    """
    pad = 3
    padded = np.pad(np.asarray(frame).astype(np.float64, copy=False), ((pad, pad), (pad, pad), (0, 0)))
    # (H, W, C, 7, 7) windows against (8, C, 7, 7) kernels -> (H, W, 8)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (7, 7), axis=(0, 1))
    out = np.tensordot(windows, np.asarray(kernels, dtype=np.float64), axes=([2, 3, 4], [1, 2, 3]))
    return np.ascontiguousarray(np.moveaxis(out, 2, 0))


def loop_image_salience(frames) -> np.ndarray:
    """Image-level salience computed frame pair by frame pair."""
    frames = np.asarray(frames, dtype=np.float64)
    t = frames.shape[0]
    out = np.zeros(t)
    for i in range(1, t):
        out[i] = float(np.sum(np.abs(frames[i] - frames[i - 1])))
    return out


def shannon_entropy(probs) -> float:
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


# Scalar references for the sampler's draw path: one generator call and one
# searchsorted per pick, as the package drew before its draws were vectorized.
# The package now takes all N doubles in one block, walks them in one float
# loop that also redraws endpoint hits, and inverts them in one searchsorted;
# these references keep the pick-by-pick calls it must match.


def scalar_interval_draws(n: int, rng) -> list:
    """One uniform(lo, hi) per interval (i/N, (i+1)/N), endpoint hits redrawn; midpoints without rng."""
    if rng is None:
        return [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
    ys = []
    for i in range(n):
        lo, hi = i / n, (i + 1) / n
        y = float(rng.uniform(lo, hi))
        while not (lo < y < hi):
            y = float(rng.uniform(lo, hi))
        ys.append(y)
    return ys


def scalar_curve(probs) -> np.ndarray:
    """Curve anchors with the package's arithmetic: 0, then the running sum, F_T pinned to 1."""
    f = np.empty(len(probs) + 1, dtype=np.float64)
    f[0] = 0.0
    np.cumsum(probs, out=f[1:])
    f[-1] = 1.0
    np.minimum(f, 1.0, out=f)
    return f


def scalar_invert(f, y: float) -> int:
    """Leftmost rising segment holding y, interpolated, rounded half-up, clamped; zero-based."""
    if y <= 0.0:
        k = int(np.argmax(f > 0.0))
    else:
        k = int(np.searchsorted(f, y, side="left"))
    x = (k - 1) + (y - f[k - 1]) / (f[k] - f[k - 1])
    return min(max(math.floor(x + 0.5), 1), f.size - 1) - 1


def scalar_plan(probs, strategy: str, n: int, seed: int, deterministic: bool,
                stride: int = 4, window_len: int = 32):
    """(indices, draws or None, window_start or None) of one plan, drawn pick by pick."""
    probs = np.asarray(probs, dtype=np.float64)
    rng = None if deterministic else np.random.default_rng(seed)
    t = probs.size
    if strategy == "mg":
        ys = scalar_interval_draws(n, rng)
        f = scalar_curve(probs)
        return [scalar_invert(f, y) for y in ys], ys, None
    if strategy == "segment":
        indices = []
        for i in range(n):
            lo, hi = i * t / n, (i + 1) * t / n
            pos = lo + t / (2 * n) if rng is None else float(rng.uniform(lo, hi))
            indices.append(min(math.floor(pos), t - 1))
        return indices, None, None
    if strategy == "stride":
        start = 0 if rng is None else int(rng.integers(0, max(0, t - 1 - stride * (n - 1)) + 1))
        return [min(start + stride * i, t - 1) for i in range(n)], None, None
    if strategy == "topk":
        return sorted(sorted(range(t), key=lambda k: (-probs[k], k))[:n]), None, None
    assert strategy == "mg-clip", strategy
    start = 0 if rng is None else int(rng.integers(0, max(0, t - window_len) + 1))
    sub = probs[start : start + window_len]
    total = float(sub.sum())
    window = sub / total if total > 0.0 else np.full(sub.size, 1.0 / sub.size)
    ys = scalar_interval_draws(n, rng)
    f = scalar_curve(window)
    return [scalar_invert(f, y) + start for y in ys], ys, start


# The byte-by-byte PGM/PPM header tokenizer the package used before its header
# became one regular expression, kept verbatim as the reference for the
# differential test.  Its one fault is kept too: a header number longer than
# 4300 digits makes int() raise a bare ValueError.


class FormatError(Exception):
    """The reference's rejection of a file."""


def tokenizer_parse_pnm(data: bytes, name: str) -> tuple[np.ndarray, int]:
    """Binary P5/P6 with maxval 255; returns ((H, W, C) uint8 array, channels)."""
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise FormatError(f"{name}: not a binary PGM/PPM file (magic {data[:2]!r})")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{name}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise FormatError(f"{name}: unterminated comment")
            pos = eol + 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise FormatError(f"{name}: unexpected byte {ch!r} in header")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{name}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{name}: only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{name}: missing whitespace before pixel data")
    pos += 1  # exactly one whitespace byte separates header and raster
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise FormatError(f"{name}: expected {expected} pixel bytes, got {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return pixels, channels
