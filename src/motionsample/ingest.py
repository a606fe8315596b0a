"""Codec-free input formats and sampler output writing.

Three input formats: a directory of binary PGM/PPM images (P5/P6, maxval 255,
one file per frame, natural-sorted by filename), a single "MGVT" raw tensor
file, and an "MGKB" kernel weight file for feature-level salience.  Frame
extraction from real containers is left to external tools; see the README
for an ffmpeg recipe.  ``load_video`` and ``list_videos`` hold every rule
about which format a path is read as.

MGVT layout (little-endian): 32-byte header = magic b"MGVT", uint32 version
(1), uint32 T, H, W, C, uint32 dtype tag (0 = uint8, 1 = float32), 4 reserved
zero bytes; then the T*H*W*C payload in C order.

MGKB layout (little-endian): 16-byte header = magic b"MGKB", uint32 channel
count, 8 reserved zero bytes; then 8*C*7*7 float32 weights.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, StructuralError
from .motion import KERNEL_COUNT, KERNEL_SIZE, ConvKernelBank, FrameVolume
from .sampling import CumulativeCurve, SamplePlan, curve_to_csv, plan_to_json

RAW_TENSOR_MAGIC = b"MGVT"
RAW_TENSOR_VERSION = 1
_RAW_HEADER = struct.Struct("<4sIIIIII4x")  # magic, version, T, H, W, C, dtype
_WEIGHT_MAGIC = b"MGKB"
_WEIGHT_HEADER = struct.Struct("<4sI8x")  # magic, channels, reserved

_DTYPE_TAGS = {0: np.dtype("u1"), 1: np.dtype("<f4")}
_PNM_EXTENSIONS = (".pgm", ".ppm")


@dataclass(frozen=True)
class VideoManifest:
    """Provenance of a loaded volume: source, format, dims, frame order."""

    source: str
    format: str  # "image-dir" or "raw-tensor"
    t_count: int
    height: int
    width: int
    channels: int
    frame_ids: tuple[str, ...]


def _name_order(name: str) -> tuple:
    """Natural order, digit runs as numbers (img2 < img10); ties (clip2, clip02) go by the raw name, so no listing order shows."""
    return tuple(int(p) if p.isdecimal() else p for p in re.split(r"(\d+)", name)), name


# Netpbm header after the magic: width, height and maxval, each at most nine
# significant digits, with whitespace or "#...\n" comments before and between
# them (none needed after the magic), then exactly one whitespace byte.
# In a bytes pattern \s is ASCII whitespace and \d is [0-9].
_PNM_GAP = rb"(?:\s|#[^\n]*\n)"
_PNM_FIELD = rb"0*(\d{1,9})"
_PNM_HEADER = re.compile(_PNM_GAP + b"*" + _PNM_FIELD + (_PNM_GAP + b"+" + _PNM_FIELD) * 2 + rb"\s")


def _parse_pnm(data: bytes, name: str) -> np.ndarray:
    """Binary P5/P6 with maxval 255; returns an (H, W, C) uint8 array."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{name}: not a binary PGM/PPM file (magic {magic!r})")
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise FormatError(f"{name}: malformed PGM/PPM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise FormatError(f"{name}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{name}: only maxval 255 is supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    got = len(data) - header.end()
    if got < expected:
        raise FormatError(f"{name}: expected {expected} pixel bytes, got {got}")
    pixels = np.frombuffer(data, np.uint8, count=expected, offset=header.end())
    return pixels.reshape(height, width, channels)


def _manifest(volume: FrameVolume, source, fmt: str, frame_ids: tuple[str, ...]) -> VideoManifest:
    return VideoManifest(str(source), fmt, volume.t_count, volume.height, volume.width,
                         volume.channels, frame_ids)


def load_frame_directory(path) -> tuple[FrameVolume, VideoManifest]:
    """Load every PGM/PPM frame under ``path`` in natural filename order."""
    root = Path(path)
    if not root.is_dir():
        raise StructuralError(f"{root}: not a directory")
    names = sorted(
        (p.name for p in root.iterdir() if p.is_file() and p.suffix.lower() in _PNM_EXTENSIONS),
        key=_name_order,
    )
    if not names:
        raise StructuralError(f"{root}: no frames with extensions {_PNM_EXTENSIONS} found")
    frames = None  # allocated once the first frame gives the shape
    for t, name in enumerate(names):
        frame_path = root / name
        pixels = _parse_pnm(frame_path.read_bytes(), str(frame_path))
        if frames is None:
            frames = np.empty((len(names), *pixels.shape), dtype=np.uint8)
        elif pixels.shape != frames.shape[1:]:
            raise StructuralError(
                f"{frame_path}: frame shape {pixels.shape} differs from first frame {frames.shape[1:]}"
            )
        frames[t] = pixels
    volume = FrameVolume(frames)
    return volume, _manifest(volume, root, "image-dir", tuple(names))


def load_raw_tensor(path) -> FrameVolume:
    """Parse an MGVT file into a frame volume; the payload is read once, into its array."""
    with open(path, "rb") as f:
        header = f.read(_RAW_HEADER.size)
        if len(header) < _RAW_HEADER.size:
            raise FormatError(f"{path}: shorter than the 32-byte MGVT header")
        magic, version, t, h, w, c, dtype_tag = _RAW_HEADER.unpack(header)
        if magic != RAW_TENSOR_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {RAW_TENSOR_MAGIC!r}")
        if version != RAW_TENSOR_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dtype_tag not in _DTYPE_TAGS:
            raise FormatError(f"{path}: unknown dtype tag {dtype_tag}")
        if 0 in (t, h, w, c):  # numpy cannot shape an empty array with huge other dims
            raise FormatError(f"{path}: header declares an empty {t}x{h}x{w}x{c} volume")
        dtype = _DTYPE_TAGS[dtype_tag]
        expected = t * h * w * c * dtype.itemsize
        actual = os.fstat(f.fileno()).st_size - _RAW_HEADER.size
        if actual != expected:
            raise FormatError(f"{path}: expected {expected} payload bytes, got {actual}")
        data = np.fromfile(f, dtype=dtype, count=t * h * w * c)
    return FrameVolume(data.reshape(t, h, w, c))


def load_video(path, frames_dir: bool) -> tuple[FrameVolume, VideoManifest]:
    """Load one video: a PGM/PPM frame directory if ``frames_dir``, else an MGVT file (no frame ids)."""
    if frames_dir:
        return load_frame_directory(path)
    volume = load_raw_tensor(path)
    return volume, _manifest(volume, path, "raw-tensor", ())


def video_reads(path, frames_dir: bool, target) -> bool:
    """Whether ``load_video(path, frames_dir)`` reads ``target``, or would once a file is written there."""
    source, target = Path(path).resolve(), Path(target).resolve()
    if frames_dir:
        return target.parent == source and target.suffix.lower() in _PNM_EXTENSIONS
    return target == source


def list_videos(root, skip=None) -> list[tuple[Path, bool]]:
    """(video, is frame dir) for every subdirectory and ``*.mgvt`` file in ``root`` but ``skip``, in natural order."""
    root = Path(root)
    if not root.is_dir():
        raise StructuralError(f"{root}: not a directory")
    skip = None if skip is None else Path(skip).resolve()
    videos = [(p, is_dir) for p in root.iterdir()
              if ((is_dir := p.is_dir()) or p.suffix.lower() == ".mgvt") and (skip is None or p.resolve() != skip)]
    if not videos:
        raise StructuralError(f"{root}: no videos found")
    return sorted(videos, key=lambda v: _name_order(v[0].name))


def save_raw_tensor(volume: FrameVolume, path) -> None:
    """Write a frame volume as an MGVT file (round-trips bit-exactly), atomically."""
    tag = 0 if volume.frames.dtype == np.uint8 else 1
    header = _RAW_HEADER.pack(
        RAW_TENSOR_MAGIC,
        RAW_TENSOR_VERSION,
        volume.t_count,
        volume.height,
        volume.width,
        volume.channels,
        tag,
    )
    payload = volume.frames.astype("<f4").tobytes() if tag else volume.frames.tobytes()
    write_atomic(path, header + payload)


def save_kernel_bank(bank: ConvKernelBank, path) -> None:
    """Write the bank as an MGKB weight file, atomically."""
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
    try:
        return ConvKernelBank(weights.reshape(KERNEL_COUNT, channels, KERNEL_SIZE, KERNEL_SIZE).copy())
    except ConfigError as e:
        raise FormatError(f"{path}: {e}") from e


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (ASCII text or bytes) to a temporary file beside ``path``, then rename it into place.

    A write that fails midway leaves ``path`` as it was and removes the
    temporary file, so a reader never sees a partial output.  Every output
    file of the package goes through here.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp) and e.filename2 is None:
            e.filename = str(path)  # open() failed: name the output asked for, not the temporary file
        raise


def export_outputs(plan: SamplePlan, plan_path, curve: CumulativeCurve | None = None, curve_path=None) -> None:
    """Write the optional curve CSV, then the plan JSON; both byte-stable and atomic.

    The curve goes first, so a plan on disk means every requested file was written.
    """
    if curve_path is not None:
        if curve is None:
            raise StructuralError("curve_path given but no curve to write")
        write_atomic(curve_path, curve_to_csv(curve))
    write_atomic(plan_path, plan_to_json(plan))
