"""Bit-exact raster and manifest I/O.

Images travel as binary PPM (P6, 8-bit), label/mask/distance maps as binary
PGM (P5, 8-bit), and real-valued score maps as a small versioned binary
format. Writers always emit one canonical byte layout so that
write -> read -> write reproduces files byte for byte; readers additionally
tolerate the standard netpbm whitespace/comment variations.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

SCORE_MAGIC = b"DHSC"
SCORE_VERSION = 1
MAX_VAL = 255


def _read_netpbm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace/comment-separated integers, return (values, offset)."""
    values: list[int] = []
    i = 0
    while len(values) < count:
        if i >= len(data):
            raise DataFormatError("truncated netpbm header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(data) and data[j:j + 1].isdigit():
                j += 1
            values.append(int(data[i:j]))
            i = j
        else:
            raise DataFormatError(f"unexpected byte {c!r} in netpbm header")
    # exactly one whitespace byte separates the header from the pixel data
    if i >= len(data) or not data[i:i + 1].isspace():
        raise DataFormatError("missing separator after netpbm header")
    return values, i + 1


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] != magic:
        raise DataFormatError(f"{path}: expected {magic.decode()} file")
    (w, h, maxval), offset = _read_netpbm_tokens(data[2:], 3)
    offset += 2
    if maxval != MAX_VAL:
        raise DataFormatError(f"{path}: only maxval {MAX_VAL} supported, got {maxval}")
    need = w * h * channels
    pixels = data[offset:]
    if len(pixels) != need:
        raise DataFormatError(f"{path}: expected {need} pixel bytes, found {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8)
    return arr.reshape(h, w) if channels == 1 else arr.reshape(h, w, 3)


def _write_netpbm(path, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    header = b"%s\n%d %d\n%d\n" % (magic, w, h, MAX_VAL)
    Path(path).write_bytes(header + np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def read_ppm(path) -> np.ndarray:
    """8-bit RGB image as uint8 (H, W, 3)."""
    return _read_netpbm(path, b"P6", 3)


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise DataFormatError("PPM writer expects uint8 (H, W, 3)")
    _write_netpbm(path, b"P6", image)


def read_pgm(path) -> np.ndarray:
    """8-bit gray raster as uint8 (H, W)."""
    return _read_netpbm(path, b"P5", 1)


def write_pgm(path, raster: np.ndarray) -> None:
    raster = np.asarray(raster)
    if raster.ndim != 2 or raster.dtype != np.uint8:
        raise DataFormatError("PGM writer expects uint8 (H, W)")
    _write_netpbm(path, b"P5", raster)


def read_score_raster(path) -> np.ndarray:
    """Real-valued score map as float32 (H, W); a NaN score is a format error,
    since no ranking of it is defined."""
    data = Path(path).read_bytes()
    if data[:4] != SCORE_MAGIC:
        raise DataFormatError(f"{path}: bad score-raster magic")
    if len(data) < 16:
        raise DataFormatError(f"{path}: truncated score-raster header")
    version, h, w = struct.unpack("<III", data[4:16])
    if version != SCORE_VERSION:
        raise DataFormatError(f"{path}: unsupported score-raster version {version}")
    if len(data) != 16 + 4 * h * w:
        raise DataFormatError(f"{path}: score raster has wrong byte length")
    scores = np.frombuffer(data[16:], dtype="<f4").reshape(h, w)
    if np.isnan(scores).any():
        raise DataFormatError(f"{path}: score raster holds NaN")
    return scores


def write_score_raster(path, scores: np.ndarray) -> None:
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DataFormatError("score raster must be 2-D")
    h, w = scores.shape
    header = SCORE_MAGIC + struct.pack("<III", SCORE_VERSION, h, w)
    Path(path).write_bytes(header + scores.astype("<f4").tobytes())


@dataclass(frozen=True)
class ManifestRow:
    split: str
    image: str
    label: str
    mask: str


MANIFEST_FIELDS = ("split", "image", "label", "mask")


def write_manifest(path, rows: list[ManifestRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for r in rows:
            writer.writerow([r.split, r.image, r.label, r.mask])


def read_manifest(path) -> list[ManifestRow]:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: unreadable manifest: {exc}") from None
    if not lines or lines[0] != list(MANIFEST_FIELDS):
        raise DataFormatError(f"{path}: manifest header must be {','.join(MANIFEST_FIELDS)}")
    for line in lines[1:]:
        if len(line) != len(MANIFEST_FIELDS):
            raise DataFormatError(f"{path}: malformed manifest row {line!r}")
    return [ManifestRow(*line) for line in lines[1:]]
