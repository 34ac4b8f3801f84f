"""Truncated and byte-flipped files: a reader may accept them or raise
DataFormatError, and nothing else, so the CLI always exits 3 on them."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_v1_checkpoint
from hybridseg.errors import DataFormatError
from hybridseg.network import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from hybridseg.rasters import (
    ManifestRow,
    read_manifest,
    read_pgm,
    read_ppm,
    read_score_raster,
    write_manifest,
    write_pgm,
    write_ppm,
    write_score_raster,
)

READERS = {"ppm": read_ppm, "pgm": read_pgm, "dhsc": read_score_raster,
           "csv": read_manifest, "dhck": load_checkpoint, "v1.dhck": load_checkpoint}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One small valid file per format, as (directory, {format: bytes})."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_ppm(d / "s.ppm", rng.integers(0, 256, (3, 2, 3), dtype=np.uint8))
    write_pgm(d / "s.pgm", rng.integers(0, 256, (3, 2), dtype=np.uint8))
    write_score_raster(d / "s.dhsc", rng.standard_normal((3, 2)))
    write_manifest(d / "s.csv", [ManifestRow("train", "a.ppm", "a.pgm", "a_mask.pgm"),
                                 ManifestRow("test", "b.ppm", "b.pgm", "b_mask.pgm")])
    params = init_params(NetworkConfig(input_channels=1, widths=(2,), num_classes=2,
                                       kernel_size=1))
    save_checkpoint(d / "s.dhck", params, step=3)
    write_v1_checkpoint(d / "s.v1.dhck", params, [np.array([0.5, -0.25])], step=3)
    return d, {fmt: (d / f"s.{fmt}").read_bytes() for fmt in READERS}


def header_length(fmt: str, data: bytes) -> int:
    """Bytes before the payload: the netpbm header, the DHSC header, the
    DHCK header (v1 or v2) plus its JSON config block, or the whole manifest."""
    if fmt in ("ppm", "pgm"):
        return data.index(b"255\n") + 4
    if fmt == "dhsc":
        return 16
    if fmt.endswith("dhck"):
        return 20 + struct.unpack("<I", data[16:20])[0]
    return len(data)


def read_or_reject(path, fmt: str, data: bytes) -> None:
    path.write_bytes(data)
    try:
        READERS[fmt](path)
    except DataFormatError:
        pass


@pytest.mark.parametrize("fmt", READERS)
def test_every_truncation_reads_or_is_a_format_error(samples, fmt):
    d, good = samples
    for size in range(len(good[fmt])):
        read_or_reject(d / f"truncated.{fmt}", fmt, good[fmt][:size])


@pytest.mark.parametrize("fmt", READERS)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_flipped_header_byte_reads_or_is_a_format_error(samples, fmt, data):
    d, good = samples
    flipped = bytearray(good[fmt])
    at = data.draw(st.integers(0, header_length(fmt, good[fmt]) - 1), label="offset")
    flipped[at] = data.draw(st.integers(0, 255).filter(lambda b: b != good[fmt][at]),
                            label="byte")
    read_or_reject(d / f"flipped.{fmt}", fmt, bytes(flipped))
