"""Codec-free frame loading and sampler output writing.

Two input formats: a directory of binary PGM/PPM images (P5/P6, maxval 255,
one file per frame, natural-sorted by filename), or a single "MGVT" raw
tensor file.  Frame extraction from real containers is left to external
tools; see the README for an ffmpeg recipe.

MGVT layout (little-endian): 32-byte header = magic b"MGVT", uint32 version
(1), uint32 T, H, W, C, uint32 dtype tag (0 = uint8, 1 = float32), 4 reserved
zero bytes; then the T*H*W*C payload in C order.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, StructuralError
from .motion import FrameVolume
from .sampling import CumulativeCurve, SamplePlan, curve_to_csv, plan_to_json

RAW_TENSOR_MAGIC = b"MGVT"
RAW_TENSOR_VERSION = 1
_RAW_HEADER = struct.Struct("<4sIIIIII4x")  # magic, version, T, H, W, C, dtype

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


def natural_key(name: str) -> tuple:
    """Sort key treating digit runs as numbers, so img2 < img10."""
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


def _parse_pnm(data: bytes, name: str) -> tuple[np.ndarray, int]:
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


def load_frame_directory(path) -> tuple[FrameVolume, VideoManifest]:
    """Load every PGM/PPM frame under ``path`` in natural filename order."""
    root = Path(path)
    if not root.is_dir():
        raise StructuralError(f"{root}: not a directory")
    names = sorted(
        (p.name for p in root.iterdir() if p.is_file() and p.suffix.lower() in _PNM_EXTENSIONS),
        key=natural_key,
    )
    if not names:
        raise StructuralError(f"{root}: no frames with extensions {_PNM_EXTENSIONS} found")
    frames = None  # allocated once the first frame gives the shape
    for t, name in enumerate(names):
        frame_path = root / name
        pixels, _ = _parse_pnm(frame_path.read_bytes(), str(frame_path))
        if frames is None:
            frames = np.empty((len(names), *pixels.shape), dtype=np.uint8)
        elif pixels.shape != frames.shape[1:]:
            raise StructuralError(
                f"{frame_path}: frame shape {pixels.shape} differs from first frame {frames.shape[1:]}"
            )
        frames[t] = pixels
    volume = FrameVolume(frames)
    manifest = VideoManifest(
        source=str(root),
        format="image-dir",
        t_count=volume.t_count,
        height=volume.height,
        width=volume.width,
        channels=volume.channels,
        frame_ids=tuple(names),
    )
    return volume, manifest


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
    """Write the plan JSON and, optionally, the curve CSV; both byte-stable and atomic."""
    write_atomic(plan_path, plan_to_json(plan))
    if curve_path is not None:
        if curve is None:
            raise StructuralError("curve_path given but no curve to write")
        write_atomic(curve_path, curve_to_csv(curve))
