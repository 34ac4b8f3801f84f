import numpy as np
import pytest

from hybridseg.errors import DataFormatError
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


def test_ppm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, image)
    loaded = read_ppm(p1)
    np.testing.assert_array_equal(loaded, image)
    write_ppm(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_round_trip_bit_exact(tmp_path):
    raster = np.arange(256, dtype=np.uint8).reshape(16, 16)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, raster)
    loaded = read_pgm(p1)
    np.testing.assert_array_equal(loaded, raster)
    write_pgm(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_reader_accepts_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # comment\n# another\n 3\t2 # dims\n255\n" + bytes(range(6)))
    np.testing.assert_array_equal(read_pgm(p), np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_pixel_data_may_start_with_whitespace_byte(tmp_path):
    # the single header-terminating whitespace must not eat pixel bytes
    raster = np.full((2, 2), ord("\n"), dtype=np.uint8)
    p = tmp_path / "ws.pgm"
    write_pgm(p, raster)
    np.testing.assert_array_equal(read_pgm(p), raster)


@pytest.mark.parametrize("payload", [
    b"P5\n3 2\n254\n" + bytes(6),       # unsupported maxval
    b"P6\n3 2\n255\n" + bytes(6),       # ppm magic on pgm read
    b"P5\n3 2\n255\n" + bytes(5),       # truncated pixels
    b"P5\n3 2\n255\n" + bytes(7),       # trailing bytes
    b"P5\n3 x\n255\n" + bytes(6),       # junk in header
])
def test_pgm_rejects_malformed(tmp_path, payload):
    p = tmp_path / "bad.pgm"
    p.write_bytes(payload)
    with pytest.raises(DataFormatError):
        read_pgm(p)


def test_ppm_writer_validates_input():
    with pytest.raises(DataFormatError):
        write_ppm("/tmp/never.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DataFormatError):
        write_ppm("/tmp/never.ppm", np.zeros((4, 4, 3), dtype=np.float64))


class TestScoreRaster:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        scores = rng.normal(scale=40.0, size=(9, 5)).astype(np.float32)
        scores[0, 0] = np.float32(-3.4e38)
        scores[0, 1:3] = np.inf, -np.inf  # legal, unlike NaN
        p1, p2 = tmp_path / "a.dhsc", tmp_path / "b.dhsc"
        write_score_raster(p1, scores)
        loaded = read_score_raster(p1)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, scores)
        write_score_raster(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_length(self, tmp_path):
        p = tmp_path / "a.dhsc"
        write_score_raster(p, np.zeros((3, 4), dtype=np.float32))
        assert p.stat().st_size == 16 + 4 * 3 * 4

    def test_float64_input_is_rounded_to_f32(self, tmp_path):
        p = tmp_path / "a.dhsc"
        write_score_raster(p, np.array([[1.0 + 1e-12]]))
        assert read_score_raster(p)[0, 0] == np.float32(1.0 + 1e-12)

    def test_rejects_nan(self, tmp_path):
        p = tmp_path / "a.dhsc"
        scores = np.zeros((2, 3), dtype=np.float32)
        scores[1, 2] = np.nan
        write_score_raster(p, scores)
        with pytest.raises(DataFormatError, match="NaN"):
            read_score_raster(p)

    @pytest.mark.parametrize("mutate", [
        lambda b: b"XXXX" + b[4:],            # magic
        lambda b: b[:4] + b"\x02" + b[5:],    # version
        lambda b: b[:-1],                     # truncated
        lambda b: b + b"\x00",                # trailing
        lambda b: b[:9],                      # header cut inside the dimensions
        lambda b: b[:4],                      # magic only
    ])
    def test_rejects_malformed(self, tmp_path, mutate):
        p = tmp_path / "a.dhsc"
        write_score_raster(p, np.zeros((2, 2), dtype=np.float32))
        p.write_bytes(mutate(p.read_bytes()))
        with pytest.raises(DataFormatError):
            read_score_raster(p)


class TestManifest:
    ROWS = [ManifestRow("train", "a.ppm", "a_label.pgm", "a_role.pgm"),
            ManifestRow("test", "b.ppm", "b_label.pgm", "b_role.pgm")]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "manifest.csv"
        write_manifest(p, self.ROWS)
        assert read_manifest(p) == self.ROWS

    def test_lf_line_endings_and_header(self, tmp_path):
        p = tmp_path / "manifest.csv"
        write_manifest(p, self.ROWS)
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"split,image,label,mask\n")

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("split,img\ntrain,a.ppm\n")
        with pytest.raises(DataFormatError):
            read_manifest(p)

    def test_rejects_short_row(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("split,image,label,mask\ntrain,a.ppm\n")
        with pytest.raises(DataFormatError):
            read_manifest(p)

    @pytest.mark.parametrize("row", [b"train,a\xff.ppm,a.pgm,m.pgm\n",
                                     b"train," + b"a" * 200_000 + b",a.pgm,m.pgm\n"],
                             ids=["not-utf8", "field-over-csv-limit"])
    def test_rejects_unreadable_rows(self, tmp_path, row):
        p = tmp_path / "manifest.csv"
        p.write_bytes(b"split,image,label,mask\n" + row)
        with pytest.raises(DataFormatError):
            read_manifest(p)
