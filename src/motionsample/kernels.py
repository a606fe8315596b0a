"""The 8-filter 7x7 convolution bank used by feature-level differencing.

The bank is a fixed, training-free input: load it from a weight file, build
it from a seeded Gaussian draw, or use the identity/zero test presets.
``conv2d_apply`` runs the bank over a frame, and ``_conv2d_window`` over any
window of it, as a float64 dgemm over shifted row bands of the zero-padded
input: 7*C band rows instead of a 49*C-row im2col matrix.

Weight file layout (little-endian): 16-byte header = magic b"MGKB",
uint32 channel count, 8 reserved zero bytes; then 8*C*7*7 float32 weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

KERNEL_COUNT = 8
KERNEL_SIZE = 7
KERNEL_PADDING = 3
_RANDOM_STDDEV = 1.0 / 49.0

_WEIGHT_MAGIC = b"MGKB"
_WEIGHT_HEADER = struct.Struct("<4sI8x")  # magic, channels, reserved


@dataclass(frozen=True)
class ConvKernelBank:
    """Weights shaped (8, C, 7, 7); stride 1, zero-padding 3, no bias."""

    kernels: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernels, dtype=np.float32)
        if k.ndim != 4 or k.shape[0] != KERNEL_COUNT or k.shape[2:] != (KERNEL_SIZE, KERNEL_SIZE):
            raise ConfigError(
                f"kernel bank must be shaped (8, C, 7, 7), got {np.shape(self.kernels)}"
            )
        if k.shape[1] not in (1, 3):
            raise ConfigError(f"kernel channel count must be 1 or 3, got {k.shape[1]}")
        k = np.ascontiguousarray(k)
        k.flags.writeable = False
        object.__setattr__(self, "kernels", k)

    @property
    def channels(self) -> int:
        return self.kernels.shape[1]

    @cached_property
    def _taps(self) -> np.ndarray:
        """Read-only float64 (7*8, 7*C) weights of ``_conv2d_window``: rows (dx, k), columns (c, dy)."""
        taps = self.kernels.astype(np.float64).transpose(3, 0, 1, 2).reshape(KERNEL_SIZE * KERNEL_COUNT, -1)
        taps.flags.writeable = False
        return taps


def identity_bank(channels: int = 1) -> ConvKernelBank:
    """Filter 0 passes the (channel-summed) input through; filters 1-7 are zero."""
    k = np.zeros((KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE), dtype=np.float32)
    k[0, :, KERNEL_SIZE // 2, KERNEL_SIZE // 2] = 1.0
    return ConvKernelBank(k)


def zero_bank(channels: int = 1) -> ConvKernelBank:
    return ConvKernelBank(
        np.zeros((KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE), dtype=np.float32)
    )


def random_bank(channels: int = 1, seed: int = 0) -> ConvKernelBank:
    """Deterministic Gaussian initialization, standard deviation 1/49, from a seed (default seed 0)."""
    rng = np.random.default_rng(seed)
    k = rng.normal(0.0, _RANDOM_STDDEV, size=(KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE))
    return ConvKernelBank(k.astype(np.float32))


def save_kernel_bank(bank: ConvKernelBank, path) -> None:
    """Write the bank as an MGKB weight file, atomically."""
    from .ingest import write_atomic  # ingest imports this module through motion

    data = _WEIGHT_HEADER.pack(_WEIGHT_MAGIC, bank.channels)
    data += bank.kernels.astype("<f4").tobytes()
    write_atomic(path, data)


def load_kernel_bank(path) -> ConvKernelBank:
    raw = Path(path).read_bytes()
    if len(raw) < _WEIGHT_HEADER.size:
        raise FormatError(f"{path}: weight file shorter than its 16-byte header")
    magic, channels = _WEIGHT_HEADER.unpack_from(raw)
    if magic != _WEIGHT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_WEIGHT_MAGIC!r}")
    if channels not in (1, 3):
        raise FormatError(f"{path}: kernel channel count must be 1 or 3, got {channels}")
    expected = _WEIGHT_HEADER.size + KERNEL_COUNT * channels * KERNEL_SIZE * KERNEL_SIZE * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    weights = np.frombuffer(raw, dtype="<f4", offset=_WEIGHT_HEADER.size)
    return ConvKernelBank(
        weights.reshape(KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE).copy()
    )


# Every dgemm multiplies whole 64-column blocks, so no column that reaches the
# output is left to a BLAS edge kernel, which may sum in another order.
_COLUMN_BLOCK = 64


def conv2d_apply(frame: np.ndarray, bank: ConvKernelBank) -> np.ndarray:
    """Cross-correlate one (H, W, C) frame with the bank; returns (8, H, W).

    Stride 1 with zero-padding 3, so the spatial size is preserved.  This is
    the widest window of ``_conv2d_window``, which documents the layout.
    Each output sums the same 49*C products as the direct correlation, in a
    float64 order that BLAS fixes in part; README, *Reproducibility notes*,
    says which bits that leaves to the BLAS kernel.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3:
        raise ConfigError(f"frame must be (H, W, C), got shape {frame.shape}")
    if frame.shape[2] != bank.channels:
        raise ConfigError(
            f"kernel bank expects {bank.channels} channel(s), frame has {frame.shape[2]}"
        )
    h, w, c = frame.shape
    return np.ascontiguousarray(_conv2d_window(frame, bank, 0, h, 0, w, _window_scratch(h, w, c)))


def _window_scratch(h: int, w: int, c: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for ``_conv2d_window`` on (H, W, C) frames: padded input, bands, band product, output.

    They are sized for the whole frame, so one set serves every window of a
    clip.  Each call refills the bands and the band product, so they are free
    between calls; the output buffer holds the last window's output as the
    (8, n) block from offset 0 that the returned view crops.
    """
    wp = w + 2 * KERNEL_PADDING
    n = -(-(h * wp + KERNEL_SIZE - 1) // _COLUMN_BLOCK) * _COLUMN_BLOCK
    return (np.empty(c * (KERNEL_SIZE * wp + n)), np.empty(c * KERNEL_SIZE * n),
            np.empty(KERNEL_SIZE * KERNEL_COUNT * n), np.empty(KERNEL_COUNT * n))


def _conv2d_window(
    frame: np.ndarray, bank: ConvKernelBank, y0: int, y1: int, x0: int, x1: int, scratch: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Output rows y0:y1 and columns x0:x1 of ``conv2d_apply(frame, bank)``; (8, y1-y0, x1-x0).

    The result is a view into ``scratch`` (from ``_window_scratch`` for the
    frame's shape), valid until the next call that uses the same buffers.
    Accumulation runs in float64, as one band product over shifted bands.
    The window's input, rows y0-3:y1+3 and columns x0-3:x1+3, is read from
    the frame into a planar (C, R, Wp) array, Wp = (x1-x0)+6, with zeros
    only where it reaches past the frame border and in the rows below it.
    Band (c, dy) is plane c read flat from offset dy*Wp, n values long, n =
    h*Wp+6 rounded up to a multiple of 64, h = y1-y0; so its entry
    y*Wp + x + dx is input pixel (c, y+dy, x+dx): the 7 horizontal taps of a
    row are one band read at offsets 0..6.  The kernels as a (7*8, 7*C)
    matrix, rows (dx, k) and columns (c, dy), times the (7*C, n) bands give
    Y (7, 8, n) in one dgemm.  Output (k, y, x) is Y[0, k, y*Wp + x] + ... +
    Y[6, k, y*Wp + x + 6], added in that order, each add once over a dx slab
    read flat; the columns past h*Wp, which mix in the next filter's row,
    and the 6 pad columns of each row are cropped.  Each value has the whole
    frame's bits (README, *Reproducibility notes*).
    """
    h, w, c = frame.shape
    pad, size = KERNEL_PADDING, KERNEL_SIZE
    wp = x1 - x0 + 2 * pad
    span = (y1 - y0) * wp
    n = -(-(span + size - 1) // _COLUMN_BLOCK) * _COLUMN_BLOCK  # band length, rounded up
    rows = size - 1 + -(-n // wp)
    flat_padded, flat_bands, flat_partial, flat_out = scratch
    padded = flat_padded[: c * rows * wp].reshape(c, rows, wp)
    padded[...] = 0.0
    iy0, iy1, ix0, ix1 = max(y0 - pad, 0), min(y1 + pad, h), max(x0 - pad, 0), min(x1 + pad, w)
    padded[:, iy0 - y0 + pad : iy1 - y0 + pad, ix0 - x0 + pad : ix1 - x0 + pad] = np.moveaxis(
        frame[iy0:iy1, ix0:ix1], 2, 0
    )
    bands = flat_bands[: c * size * n].reshape(c, size, n)  # band (c, dy): padded's strides, n values long
    np.copyto(bands, np.ndarray((c, size, n), buffer=flat_padded, strides=padded.strides))
    bands = bands.reshape(c * size, n)  # rows (c, dy)
    partial = flat_partial[: size * KERNEL_COUNT * n].reshape(size * KERNEL_COUNT, n)
    np.matmul(bank._taps, bands, out=partial)
    partial = partial.reshape(size, KERNEL_COUNT * n)  # Y, each dx slab flat over (k, column)
    out = flat_out[: KERNEL_COUNT * n - size + 1]  # so no read passes the end of its slab
    np.add(partial[0, : out.size], partial[1, 1 : 1 + out.size], out=out)
    for dx in range(2, size):
        out += partial[dx, dx : dx + out.size]
    out = flat_out[: KERNEL_COUNT * n].reshape(KERNEL_COUNT, n)[:, :span]
    return out.reshape(KERNEL_COUNT, y1 - y0, wp)[:, :, : x1 - x0]
