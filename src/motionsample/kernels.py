"""The 8-filter 7x7 convolution bank used by feature-level differencing.

The bank is a fixed, training-free input: load it from a weight file, build
it from a seeded Gaussian draw, or use the identity/zero test presets.
``conv2d_apply`` runs the bank as one float64 dgemm over shifted row bands of
the zero-padded frame: 7*C band rows instead of a 49*C-row im2col matrix.

Weight file layout (little-endian): 16-byte header = magic b"MGKB",
uint32 channel count, 8 reserved zero bytes; then 8*C*7*7 float32 weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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


def conv2d_apply(frame: np.ndarray, bank: ConvKernelBank) -> np.ndarray:
    """Cross-correlate one (H, W, C) frame with the bank; returns (8, H, W).

    Stride 1 with zero-padding 3, so the spatial size is preserved.
    Accumulation runs in float64, as one dgemm over shifted bands.  The frame
    is zero-padded into a planar (C, H+7, Wp) array, Wp = W+6; the extra zero
    row gives the last band room.  Band (c, dy) is plane c read flat from
    offset dy*Wp, H*Wp+6 values long, so its entry y*Wp + x + dx is padded
    pixel (c, y+dy, x+dx): the 7 horizontal taps of a row are one band read
    at offsets 0..6.  The kernels as a (7*8, 7*C) matrix, rows (dx, k) and
    columns (c, dy), times the (7*C, H*Wp+6) bands give Y (7, 8, H*Wp+6).
    Output (k, y, x) is Y[0, k, y*Wp + x] + ... + Y[6, k, y*Wp + x + 6],
    added in that order, with the 6 pad columns of each row cropped.

    Each output sums the same 49*C products as the direct correlation; only
    the order of the float64 sums differs, and BLAS fixes part of it.  Products
    of uint8 pixels and float32 weights are exact, so a bank whose partial sums
    are exact too gives the same bits in any order (README, *Reproducibility
    notes*).
    """
    frame = np.asarray(frame)
    if frame.ndim != 3:
        raise ConfigError(f"frame must be (H, W, C), got shape {frame.shape}")
    if frame.shape[2] != bank.channels:
        raise ConfigError(
            f"kernel bank expects {bank.channels} channel(s), frame has {frame.shape[2]}"
        )
    h, w, c = frame.shape
    pad, size = KERNEL_PADDING, KERNEL_SIZE
    wp = w + 2 * pad
    span = h * wp
    padded = np.zeros((c, h + size, wp))
    padded[:, pad : pad + h, pad : pad + w] = np.moveaxis(frame, 2, 0)
    windows = np.lib.stride_tricks.sliding_window_view(padded.reshape(c, -1), span + size - 1, axis=1)
    bands = windows[:, : size * wp : wp].reshape(c * size, -1)  # rows (c, dy), a copy
    taps = bank.kernels.astype(np.float64).transpose(3, 0, 1, 2).reshape(size * KERNEL_COUNT, c * size)
    partial = (taps @ bands).reshape(size, KERNEL_COUNT, -1)  # Y
    out = partial[0, :, :span] + partial[1, :, 1 : 1 + span]
    for dx in range(2, size):
        out += partial[dx, :, dx : dx + span]
    return np.ascontiguousarray(out.reshape(KERNEL_COUNT, h, wp)[:, :, :w])
