import errno
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionsample import (
    FormatError,
    StructuralError,
    build_curve,
    export_outputs,
    load_frame_directory,
    load_kernel_bank,
    load_raw_tensor,
    mg_sample,
    save_raw_tensor,
    SamplerConfig,
    MotionDistribution,
)
from motionsample import ingest
from motionsample.ingest import _name_order, _parse_pnm
from conftest import random_volume, write_pgm, write_ppm
import oracles


def raw_tensor_bytes(t, h, w, c, dtype_tag, payload, version=1, magic=b"MGVT"):
    header = struct.pack("<4sIIIIII4x", magic, version, t, h, w, c, dtype_tag)
    return header + payload


class TestNaturalSort:
    """``_name_order``, the sort key of frame files and batch videos: natural order, then the raw name."""

    def test_digit_runs_sort_numerically(self):
        names = [f"f{i}" for i in range(1, 13)]
        shuffled = sorted(names)  # plain lexicographic puts f10 before f2
        assert shuffled != names
        assert sorted(shuffled, key=_name_order) == names

    def test_img2_before_img10(self):
        assert sorted(["img10.pgm", "img2.pgm"], key=_name_order) == ["img2.pgm", "img10.pgm"]

    def test_mixed_prefixes(self):
        names = ["a2", "a10", "b1", "a1"]
        assert sorted(names, key=_name_order) == ["a1", "a2", "a10", "b1"]

    def test_non_decimal_digits_stay_text(self):
        # "²".isdigit() is True but int("²") raises; only Nd digits, the ones \d matches, are numbers
        assert _name_order("clip1²") == (("clip", 1, "²"), "clip1²")
        assert _name_order("f1²3.pgm") == (("f", 1, "²", 3, ".pgm"), "f1²3.pgm")
        assert sorted(["f1²3.pgm", "f12.pgm", "f1.pgm"], key=_name_order) == ["f1.pgm", "f1²3.pgm", "f12.pgm"]


class TestLoadFrameDirectory:
    def test_grayscale_happy_path(self, tmp_path, rng):
        for name in ("img1.pgm", "img2.pgm"):
            write_pgm(tmp_path / name, rng.integers(0, 256, size=(4, 4), dtype=np.uint8))
        volume, manifest = load_frame_directory(tmp_path)
        assert (volume.t_count, volume.height, volume.width, volume.channels) == (2, 4, 4, 1)
        assert manifest.frame_ids == ("img1.pgm", "img2.pgm")
        assert manifest.format == "image-dir"

    def test_color_happy_path(self, tmp_path, rng):
        write_ppm(tmp_path / "a.ppm", rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8))
        volume, _ = load_frame_directory(tmp_path)
        assert volume.channels == 3

    def test_natural_order_of_many_frames(self, tmp_path, rng):
        # written out of order on purpose; the loader must natural-sort
        for i in (10, 2, 1, 12, 3, 11, 9, 4, 5, 8, 6, 7):
            write_pgm(tmp_path / f"f{i}.pgm", np.full((2, 2), i, dtype=np.uint8))
        volume, manifest = load_frame_directory(tmp_path)
        assert manifest.frame_ids == tuple(f"f{i}.pgm" for i in range(1, 13))
        assert volume.frames[:, 0, 0, 0].tolist() == list(range(1, 13))

    @pytest.mark.parametrize("listing", ["f2.pgm f02.pgm f1.pgm", "f1.pgm f02.pgm f2.pgm"])
    def test_tied_names_ignore_listing_order(self, tmp_path, monkeypatch, listing):
        # f2 and f02 share a natural key; the raw name breaks the tie
        for value, name in enumerate(("f1.pgm", "f02.pgm", "f2.pgm")):
            write_pgm(tmp_path / name, np.full((2, 2), value, dtype=np.uint8))
        monkeypatch.setattr(Path, "iterdir", lambda self: iter([self / n for n in listing.split()]))
        volume, manifest = load_frame_directory(tmp_path)
        assert manifest.frame_ids == ("f1.pgm", "f02.pgm", "f2.pgm")
        assert volume.frames[:, 0, 0, 0].tolist() == [0, 1, 2]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(StructuralError, match="no frames"):
            load_frame_directory(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StructuralError, match="not a directory"):
            load_frame_directory(tmp_path / "absent")

    def test_dimension_mismatch_names_file(self, tmp_path, rng):
        write_pgm(tmp_path / "a1.pgm", np.zeros((4, 4), dtype=np.uint8))
        write_pgm(tmp_path / "a2.pgm", np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(StructuralError, match=f"^{re.escape(str(tmp_path / 'a2.pgm'))}: "):
            load_frame_directory(tmp_path)

    def test_mixed_pgm_ppm_rejected(self, tmp_path, rng):
        write_pgm(tmp_path / "a1.pgm", np.zeros((4, 4), dtype=np.uint8))
        write_ppm(tmp_path / "a2.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(StructuralError):
            load_frame_directory(tmp_path)

    def test_ignores_other_extensions(self, tmp_path, rng):
        write_pgm(tmp_path / "a1.pgm", np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "notes.txt").write_text("not a frame")
        volume, manifest = load_frame_directory(tmp_path)
        assert manifest.frame_ids == ("a1.pgm",)


class TestPnmParsing:
    def test_header_comments_are_skipped(self, tmp_path):
        data = b"P5\n# extractor note\n2 2\n255\n" + bytes(range(4))
        (tmp_path / "c.pgm").write_bytes(data)
        volume, _ = load_frame_directory(tmp_path)
        assert volume.frames[0, :, :, 0].tolist() == [[0, 1], [2, 3]]

    def test_bad_magic_names_file(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 1 2 3")
        with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / 'bad.pgm'))}: "):
            load_frame_directory(tmp_path)

    def test_maxval_other_than_255(self, tmp_path):
        (tmp_path / "deep.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_frame_directory(tmp_path)

    def test_truncated_raster(self, tmp_path):
        (tmp_path / "short.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FormatError, match="short.pgm"):
            load_frame_directory(tmp_path)

    def test_truncated_header(self, tmp_path):
        (tmp_path / "stub.pgm").write_bytes(b"P5\n2")
        with pytest.raises(FormatError):
            load_frame_directory(tmp_path)

    @pytest.mark.parametrize("header", [
        b"P5\n2",  # truncated
        b"P5\n# no end of line",  # unterminated comment
        b"P5\n2 x 2 255\n",  # unexpected byte
        b"P5\n2 2 255#\n",  # no whitespace before the raster
    ])
    def test_malformed_header_message(self, header):
        with pytest.raises(FormatError, match=r"^f\.pgm: malformed PGM/PPM header$"):
            _parse_pnm(header + bytes(4), "f.pgm")

    def test_huge_header_number_names_file(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            load_frame_directory(tmp_path)

    def test_leading_zeros_are_not_significant(self):
        pixels = _parse_pnm(b"P5 " + b"0" * 5000 + b"2 000000000001 0255\n\x07\x08", "z.pgm")
        assert pixels.shape[2] == 1 and pixels[:, :, 0].tolist() == [[7, 8]]

    @pytest.mark.parametrize("width, message", [
        (b"999999999", "expected 999999999 pixel bytes, got 1"),  # nine significant digits: a header
        (b"1000000000", "malformed PGM/PPM header"),
    ])
    def test_nine_significant_digits_at_most(self, width, message):
        with pytest.raises(FormatError, match=f"^wide.pgm: {message}$"):
            _parse_pnm(b"P5 " + width + b" 1 255\n\x00", "wide.pgm")


@st.composite
def _pnm_files(draw):
    """Small P5/P6 files that mostly follow the header grammar; a share of them break one rule or one byte."""
    ws = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    body = st.binary(max_size=6) | st.sampled_from([b"1 1 255", b"\r7 "])  # digits in a comment are not fields
    comment = body.map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")

    def gap(min_size):
        return b"".join(draw(st.lists(ws | comment, min_size=min_size, max_size=3)))

    def number(value):
        return b"0" * draw(st.sampled_from([0, 0, 1, 3, 12])) + b"%d" % value

    dim = st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 0])
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(dim), draw(dim)
    maxval = draw(st.sampled_from([255] * 6 + [0, 65535]))
    header = (magic + gap(0) + number(width) + gap(1) + number(height) + gap(1) + number(maxval)
              + draw(st.sampled_from([b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"", b"#\n"])))
    size = max(0, width * height * (3 if magic == b"P6" else 1) + draw(st.sampled_from([0] * 6 + [-1, 2])))
    data = header + draw(st.binary(min_size=size, max_size=size))
    if draw(st.integers(0, 4)) == 0:  # overwrite one byte anywhere
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + draw(st.binary(min_size=1, max_size=1)) + data[i + 1 :]
    return data


class TestPnmAgainstTokenizer:
    """The header grammar accepts exactly what the byte-by-byte tokenizer accepted, with the same pixels."""

    @settings(max_examples=500, deadline=None)
    @given(data=_pnm_files())
    def test_same_pixels_or_both_reject(self, data):
        try:
            expected = oracles.tokenizer_parse_pnm(data, "f.ppm")
        except (oracles.FormatError, ValueError):
            expected = None
        try:
            got = _parse_pnm(data, "f.ppm")
        except FormatError:
            got = None
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.shape[2] == expected[1]
            assert got.dtype == np.uint8 and np.array_equal(got, expected[0])


class TestLoadVideo:
    def test_raw_tensor_manifest(self, tmp_path, rng):
        path = tmp_path / "v.mgvt"
        save_raw_tensor(random_volume(rng, 3, h=2, w=5, c=3), path)
        volume, manifest = ingest.load_video(path, frames_dir=False)
        assert np.array_equal(volume.frames, load_raw_tensor(path).frames)
        assert manifest == ingest.VideoManifest(str(path), "raw-tensor", 3, 2, 5, 3, ())

    def test_frame_directory_manifest(self, tmp_path, rng):
        for name in ("f2.pgm", "f10.pgm"):
            write_pgm(tmp_path / name, rng.integers(0, 256, size=(2, 3), dtype=np.uint8))
        volume, manifest = ingest.load_video(tmp_path, frames_dir=True)
        expected_volume, expected_manifest = load_frame_directory(tmp_path)
        assert np.array_equal(volume.frames, expected_volume.frames)
        assert manifest == expected_manifest


class TestListVideos:
    def test_frame_dirs_and_mgvt_files_in_natural_order(self, tmp_path, rng):
        for name in ("clip10", "clip2"):
            (tmp_path / name).mkdir()
        for name in ("clip3.mgvt", "clip1.MGVT"):
            save_raw_tensor(random_volume(rng, 2), tmp_path / name)
        (tmp_path / "notes.txt").write_text("not a video")
        assert ingest.list_videos(tmp_path) == [
            (tmp_path / "clip1.MGVT", False), (tmp_path / "clip2", True),
            (tmp_path / "clip3.mgvt", False), (tmp_path / "clip10", True),
        ]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tied_names_ignore_listing_order(self, tmp_path, rng, monkeypatch, reverse):
        # "clip2" and "clip02" are equal in natural order: the order, and so each video's seed, must not
        # follow the file system's listing
        names = ["clip2", "clip02", "a1.mgvt", "a01.mgvt"]
        for name in names[:2]:
            (tmp_path / name).mkdir()
        for name in names[2:]:
            save_raw_tensor(random_volume(rng, 2), tmp_path / name)
        listing = [tmp_path / n for n in (names[::-1] if reverse else names)]
        monkeypatch.setattr(Path, "iterdir", lambda self: iter(listing))
        assert ingest.list_videos(tmp_path) == [
            (tmp_path / "a01.mgvt", False), (tmp_path / "a1.mgvt", False),
            (tmp_path / "clip02", True), (tmp_path / "clip2", True),
        ]

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(StructuralError, match=f"^{re.escape(str(tmp_path / 'absent'))}: not a directory$"):
            ingest.list_videos(tmp_path / "absent")

    def test_no_videos_found(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a video")
        with pytest.raises(StructuralError, match=f"^{re.escape(str(tmp_path))}: no videos found$"):
            ingest.list_videos(tmp_path)


class TestRawTensor:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "one.mgvt"
        path.write_bytes(raw_tensor_bytes(1, 1, 1, 1, 0, b"\x07"))
        volume = load_raw_tensor(path)
        assert volume.frames[0, 0, 0, 0] == 7
        assert volume.frames.dtype == np.uint8

    def test_round_trip_uint8(self, tmp_path, rng):
        v = random_volume(rng, 3, h=4, w=5, c=3)
        path = tmp_path / "v.mgvt"
        save_raw_tensor(v, path)
        np.testing.assert_array_equal(load_raw_tensor(path).frames, v.frames)

    def test_round_trip_float32(self, tmp_path, rng):
        v = random_volume(rng, 2, h=3, w=3, c=1, dtype=np.float32)
        path = tmp_path / "v.mgvt"
        save_raw_tensor(v, path)
        loaded = load_raw_tensor(path)
        assert loaded.frames.dtype == np.float32
        np.testing.assert_array_equal(loaded.frames, v.frames)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "short.mgvt"
        path.write_bytes(raw_tensor_bytes(1, 2, 2, 1, 0, b"\x00" * 3))
        with pytest.raises(FormatError, match=r"expected 4 payload bytes, got 3"):
            load_raw_tensor(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "odd.mgvt"
        path.write_bytes(raw_tensor_bytes(1, 1, 1, 1, 2, b"\x00" * 8))
        with pytest.raises(FormatError, match="dtype"):
            load_raw_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mgvt"
        path.write_bytes(raw_tensor_bytes(1, 1, 1, 1, 0, b"\x07", magic=b"XXXX"))
        with pytest.raises(FormatError, match="magic"):
            load_raw_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.mgvt"
        path.write_bytes(raw_tensor_bytes(1, 1, 1, 1, 0, b"\x07", version=2))
        with pytest.raises(FormatError, match="version"):
            load_raw_tensor(path)

    @pytest.mark.parametrize("dims", [(0, 5, 5, 3), (0, 2**32 - 1, 2**32 - 1, 3), (2, 4, 0, 1)])
    def test_empty_volume_names_file(self, tmp_path, dims):
        path = tmp_path / "empty.mgvt"
        path.write_bytes(raw_tensor_bytes(*dims, 0, b""))
        with pytest.raises(FormatError, match="empty.mgvt"):
            load_raw_tensor(path)

    def test_header_is_32_bytes(self, tmp_path, rng):
        v = random_volume(rng, 1, h=1, w=1, c=1)
        path = tmp_path / "v.mgvt"
        save_raw_tensor(v, path)
        assert path.stat().st_size == 32 + 1


def _kernel_bank_files(channels):
    """MGKB files declaring ``channels``: payloads one byte short, exact and one byte long."""
    exact = 8 * channels * 7 * 7 * 4
    sizes = st.sampled_from([exact - 1, exact, exact + 1]) if channels <= 4 else st.integers(0, 64)
    return st.builds(lambda magic, size: struct.pack("<4sI8x", magic, channels) + bytes(max(0, size)),
                     st.sampled_from([b"MGKB", b"MGKX"]), sizes)


class TestHeaderFuzz:
    """Whatever the bytes, the parsers return a volume or bank, or raise a format error."""

    _dim = st.integers(0, 4) | st.integers(0, 2**32 - 1)
    _mgvt_files = st.builds(raw_tensor_bytes, _dim, _dim, _dim, _dim, st.integers(0, 3),
                            st.binary(max_size=80), version=st.sampled_from([1, 2]))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=64) | _mgvt_files)
    def test_raw_tensor(self, tmp_path, data):
        path = tmp_path / "fuzz.mgvt"
        path.write_bytes(data)
        try:
            load_raw_tensor(path)
        except (FormatError, StructuralError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64) | st.builds(
        lambda magic, header, raster: magic + header + raster,
        st.sampled_from([b"P5", b"P6"]),
        st.from_regex(rb"([ \t\n]|#[ -~]*\n)*[0-9]{1,4}[ \t\n]+[0-9]{1,4}[ \t\n]+[0-9]{1,4}[ \t\n]?", fullmatch=True),
        st.binary(max_size=64),
    ))
    def test_pnm(self, data):
        try:
            _parse_pnm(data, "fuzz.pgm")
        except (FormatError, StructuralError):
            pass

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=64) | _dim.flatmap(_kernel_bank_files))
    def test_kernel_bank(self, tmp_path, data):
        path = tmp_path / "fuzz.mgkb"
        path.write_bytes(data)
        try:
            load_kernel_bank(path)
        except FormatError:
            pass


class TestExportOutputs:
    def _plan_and_curve(self):
        m = MotionDistribution(np.array([0.0, 0.5, 0.25, 0.25]))
        curve = build_curve(m)
        cfg = SamplerConfig(n_frames=2, strategy="mg", deterministic=True)
        return mg_sample(curve, cfg), curve

    def test_plan_json_written(self, tmp_path):
        plan, _ = self._plan_and_curve()
        out = tmp_path / "plan.json"
        export_outputs(plan, out)
        assert f'"indices":{list(plan.indices)}'.replace(" ", "") in out.read_text()

    def test_plan_json_literal_indices(self, tmp_path):
        from motionsample import SamplePlan

        cfg = SamplerConfig(n_frames=2, strategy="segment", deterministic=True)
        plan = SamplePlan((0, 2), cfg)
        out = tmp_path / "plan.json"
        export_outputs(plan, out)
        assert '"indices":[0,2]' in out.read_text()

    def test_curve_csv_written(self, tmp_path):
        plan, curve = self._plan_and_curve()
        curve_path = tmp_path / "curve.csv"
        export_outputs(plan, tmp_path / "plan.json", curve, curve_path)
        rows = curve_path.read_text().strip().split("\n")
        assert rows[0] == "frame,cumulative"
        assert rows[1:] == ["0,0", "1,0", "2,0.5", "3,0.75", "4,1"]

    def test_byte_stable_across_runs(self, tmp_path):
        plan, curve = self._plan_and_curve()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_outputs(plan, a, curve, tmp_path / "a.csv")
        export_outputs(plan, b, curve, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unwritable_path_names_path(self, tmp_path):
        plan, _ = self._plan_and_curve()
        missing = tmp_path / "no_such_dir" / "plan.json"
        with pytest.raises(OSError) as err:
            export_outputs(plan, missing)
        assert "no_such_dir" in str(err.value)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_output(self, tmp_path, monkeypatch, existing):
        plan, curve = self._plan_and_curve()
        out = tmp_path / "plan.json"
        if existing:
            out.write_text("old plan")

        opened = []

        class DiskFull:
            """A file that takes half of what is written to it, then reports a full disk."""

            def __init__(self, path, *args, **kwargs):
                opened.append(Path(path))
                self.f = open(path, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                self.f.flush()
                assert opened[-1].stat().st_size > 0
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ingest, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            export_outputs(plan, out, curve, tmp_path / "curve.csv")
        assert len(opened) == 1 and opened[0].parent == tmp_path
        assert [p.name for p in tmp_path.iterdir()] == (["plan.json"] if existing else [])
        if existing:
            assert out.read_text() == "old plan"

    def test_curve_path_without_curve_rejected(self, tmp_path):
        plan, _ = self._plan_and_curve()
        with pytest.raises(StructuralError):
            export_outputs(plan, tmp_path / "p.json", None, tmp_path / "c.csv")

    def test_failed_curve_write_leaves_no_plan(self, tmp_path):
        plan, curve = self._plan_and_curve()
        with pytest.raises(OSError, match="missing"):
            export_outputs(plan, tmp_path / "p.json", curve, tmp_path / "missing" / "c.csv")
        assert list(tmp_path.iterdir()) == []


class TestVolumeRoundTripProperty:
    def test_save_load_is_identity(self, tmp_path, rng):
        for dtype in (np.uint8, np.float32):
            for _ in range(5):
                v = random_volume(
                    rng,
                    int(rng.integers(1, 5)),
                    h=int(rng.integers(1, 6)),
                    w=int(rng.integers(1, 6)),
                    c=int(rng.choice([1, 3])),
                    dtype=dtype,
                )
                path = tmp_path / "rt.mgvt"
                save_raw_tensor(v, path)
                loaded = load_raw_tensor(path)
                assert loaded.frames.dtype == v.frames.dtype
                np.testing.assert_array_equal(loaded.frames, v.frames)
