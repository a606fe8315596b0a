import errno
import json
import os
import struct
import threading
from dataclasses import fields

import numpy as np
import pytest

from motionsample import FrameVolume, SamplerConfig, SyntheticSpec, load_raw_tensor, random_bank, save_kernel_bank, save_raw_tensor, video_seed
from motionsample import cli
from motionsample.cli import main
from conftest import write_pgm


def make_frames_dir(tmp_path, name, t=8, seed=0, h=8, w=8):
    rng = np.random.default_rng(seed)
    d = tmp_path / name
    d.mkdir()
    for i in range(t):
        write_pgm(d / f"frame{i + 1}.pgm", rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    return d


class TestSampleCommand:
    def test_plan_to_stdout(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        assert main(["sample", "--frames-dir", str(d), "--num-frames", "4", "--seed", "7"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n_frames"] == 4 and obj["seed"] == 7
        assert len(obj["indices"]) == 4

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        d = make_frames_dir(tmp_path, "v")
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        argv = ["sample", "--frames-dir", str(d), "--strategy", "mg", "--num-frames", "8",
                "--mu", "0.5", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mu_zero_matches_segment_where_conventions_agree(self, tmp_path, capsys):
        # T = 8 frames, N = 8: the curve-rounding and segment-floor conventions coincide
        d = make_frames_dir(tmp_path, "v", t=8)
        base = ["--frames-dir", str(d), "--num-frames", "8", "--deterministic"]
        assert main(["sample", *base, "--strategy", "mg", "--mu", "0"]) == 0
        mg = json.loads(capsys.readouterr().out)["indices"]
        assert main(["sample", *base, "--strategy", "segment"]) == 0
        seg = json.loads(capsys.readouterr().out)["indices"]
        assert mg == seg == list(range(8))

    def test_emit_curve_row_count(self, tmp_path):
        t = 11
        d = make_frames_dir(tmp_path, "v", t=t)
        curve_path = tmp_path / "curve.csv"
        assert main(["sample", "--frames-dir", str(d), "--out", str(tmp_path / "p.json"),
                     "--emit-curve", str(curve_path)]) == 0
        lines = curve_path.read_text().strip().split("\n")
        assert lines[0] == "frame,cumulative"
        assert len(lines) == t + 2

    def test_raw_tensor_input(self, tmp_path, capsys):
        mgvt = tmp_path / "v.mgvt"
        assert main(["gen", "--t-count", "30", "--height", "16", "--width", "16",
                     "--burst", "5:14:3.0", "--out", str(mgvt)]) == 0
        capsys.readouterr()
        assert main(["sample", "--raw-tensor", str(mgvt), "--num-frames", "4",
                     "--deterministic"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["indices"]) == 4

    def test_feature_representation_with_weights(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        weights = tmp_path / "bank.mgkb"
        save_kernel_bank(random_bank(1, seed=3), weights)
        assert main(["sample", "--frames-dir", str(d), "--representation", "feature",
                     "--weights", str(weights), "--num-frames", "4", "--seed", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["indices"]) == 4

    @pytest.mark.parametrize("batch", [False, True])
    def test_non_finite_weights_blame_the_weights_file(self, tmp_path, capsys, batch):
        mgvt = tmp_path / "videos" / "v.mgvt"
        mgvt.parent.mkdir()
        save_raw_tensor(FrameVolume(np.arange(3 * 8 * 8, dtype=np.float32).reshape(3, 8, 8, 1)), mgvt)
        weights = tmp_path / "nan.mgkb"
        save_kernel_bank(random_bank(1, seed=3), weights)
        raw = bytearray(weights.read_bytes())
        raw[16 + 4 * 2 * 49 : 16 + 4 * 2 * 49 + 4] = struct.pack("<f", float("nan"))  # filter 2
        weights.write_bytes(bytes(raw))
        argv = ["sample", "--raw-tensor", str(mgvt.parent if batch else mgvt), "--representation", "feature",
                "--weights", str(weights)]
        assert main(argv + (["--batch", "--out", str(tmp_path / "plans")] if batch else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {weights}: kernel weights must be finite, got nan in filter 2\n"

    def test_downsample_flag(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v", h=16, w=16)
        assert main(["sample", "--frames-dir", str(d), "--downsample", "2",
                     "--num-frames", "2", "--deterministic"]) == 0
        assert len(json.loads(capsys.readouterr().out)["indices"]) == 2


class TestSampleErrors:
    def test_no_input_flag_is_usage_error(self, capsys):
        assert main(["sample"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_both_input_flags_is_usage_error(self, tmp_path, capsys):
        assert main(["sample", "--frames-dir", "a", "--raw-tensor", "b"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["sample", "--frames-dir", "x", "--what"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["transcode"]) == 1

    def test_bench_is_no_longer_a_subcommand(self, capsys):
        assert main(["bench"]) == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_weights_with_image_representation_conflict(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        assert main(["sample", "--frames-dir", str(d), "--weights", "w.mgkb"]) == 1
        assert "--representation feature" in capsys.readouterr().err

    def test_negative_mu_is_usage_error(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        assert main(["sample", "--frames-dir", str(d), "--mu", "-1"]) == 1

    @pytest.mark.parametrize("mu", ["-1", "nan", "inf"])
    def test_mu_error_says_finite_and_non_negative(self, tmp_path, capsys, mu):
        d = make_frames_dir(tmp_path, "v")
        assert main(["sample", "--frames-dir", str(d), "--mu", mu]) == 1
        assert f"mu must be finite and >= 0, got {float(mu)!r}" in capsys.readouterr().err

    def test_missing_input_dir_is_input_error(self, tmp_path, capsys):
        assert main(["sample", "--frames-dir", str(tmp_path / "absent")]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_raw_tensor_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgvt"
        bad.write_bytes(b"NOTAVIDEO")
        assert main(["sample", "--raw-tensor", str(bad)]) == 2

    def test_non_finite_frame_names_file_and_frame(self, tmp_path, capsys):
        frames = np.zeros((6, 8, 8, 1), dtype=np.float32)
        frames[4, 2, 3, 0] = np.nan
        mgvt = tmp_path / "nan.mgvt"
        save_raw_tensor(FrameVolume(frames), mgvt)
        assert main(["sample", "--raw-tensor", str(mgvt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {mgvt}: salience entry 4 (frame 4) must be finite and >= 0\n"

    def test_failed_curve_write_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        d = make_frames_dir(tmp_path, "v")
        out = tmp_path / "out"
        out.mkdir()

        def no_rename(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", no_rename)
        assert main(["sample", "--frames-dir", str(d), "--emit-curve", str(out / "curve.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {d}: ") and "Input/output error" in captured.err
        assert list(out.iterdir()) == []

    def test_failed_curve_write_leaves_no_plan(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        plan = tmp_path / "p.json"
        assert main(["sample", "--frames-dir", str(d), "--out", str(plan),
                     "--emit-curve", str(tmp_path / "missing" / "c.csv")]) == 2
        assert "missing" in capsys.readouterr().err
        assert not plan.exists()

    def test_curve_and_plan_on_one_path_is_usage_error(self, tmp_path, capsys):
        mgvt = tmp_path / "v.mgvt"
        assert main(["gen", "--t-count", "12", "--height", "8", "--width", "8", "--out", str(mgvt)]) == 0
        capsys.readouterr()
        (tmp_path / "sub").mkdir()
        plan = tmp_path / "p.json"
        assert main(["sample", "--raw-tensor", str(mgvt), "--out", str(plan),
                     "--emit-curve", str(tmp_path / "sub" / ".." / "p.json")]) == 1
        assert "--out and --emit-curve name the same file" in capsys.readouterr().err
        assert not plan.exists()

    @pytest.mark.parametrize("flag", ["--out", "--emit-curve"])
    def test_output_over_the_input_tensor_is_usage_error(self, tmp_path, capsys, flag):
        mgvt = tmp_path / "v.mgvt"
        assert main(["gen", "--t-count", "12", "--height", "8", "--width", "8", "--out", str(mgvt)]) == 0
        capsys.readouterr()
        before = mgvt.read_bytes()
        (tmp_path / "sub").mkdir()
        for target in (mgvt, tmp_path / "sub" / ".." / "v.mgvt"):
            assert main(["sample", "--raw-tensor", str(mgvt), flag, str(target)]) == 1
            assert f"{flag} {target} names a file of the input video" in capsys.readouterr().err
        assert mgvt.read_bytes() == before

    @pytest.mark.parametrize("flag", ["--out", "--emit-curve"])
    def test_output_over_the_weights_file_is_usage_error(self, tmp_path, capsys, flag):
        mgvt, weights = tmp_path / "v.mgvt", tmp_path / "bank.mgkb"
        assert main(["gen", "--t-count", "12", "--height", "8", "--width", "8", "--out", str(mgvt)]) == 0
        save_kernel_bank(random_bank(1, seed=3), weights)
        capsys.readouterr()
        before = weights.read_bytes()
        (tmp_path / "sub").mkdir()
        for target in (weights, tmp_path / "sub" / ".." / "bank.mgkb"):
            argv = ["sample", "--raw-tensor", str(mgvt), "--representation", "feature", "--weights", str(weights)]
            assert main([*argv, flag, str(target)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag} {target} names the --weights file {weights}" in captured.err
        assert weights.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.mgkb", "sub", "v.mgvt"]

    @pytest.mark.parametrize("flag", ["--out", "--emit-curve"])
    def test_output_onto_a_frame_of_the_input_dir_is_usage_error(self, tmp_path, capsys, flag):
        d = make_frames_dir(tmp_path, "v")
        before = sorted((p.name, p.read_bytes()) for p in d.iterdir())
        for name in ("frame1.pgm", "new.PPM"):  # an existing frame, and one the next load would read
            assert main(["sample", "--frames-dir", str(d), flag, str(d / name)]) == 1
            assert "names a file of the input video" in capsys.readouterr().err
        assert sorted((p.name, p.read_bytes()) for p in d.iterdir()) == before
        # a file the frame loader skips may live beside the frames
        assert main(["sample", "--frames-dir", str(d), flag, str(d / "plan.json")]) == 0

    def test_num_frames_above_the_cap_is_usage_error_before_any_read(self, tmp_path, capsys):
        mgvt = tmp_path / "v.mgvt"
        assert main(["gen", "--t-count", "10", "--height", "8", "--width", "8", "--out", str(mgvt)]) == 0
        capsys.readouterr()
        for video in (mgvt, tmp_path / "missing.mgvt"):  # a read of the missing file would exit 2
            argv = ["sample", "--raw-tensor", str(video), "--num-frames", "65537",
                    "--out", str(tmp_path / "plan.json"), "--emit-curve", str(tmp_path / "curve.csv")]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "motionsample sample: error: n_frames must be an integer in 1..65536, got 65537\n"
        assert list(tmp_path.iterdir()) == [mgvt]

    def test_zero_downsample_is_usage_error(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v")
        assert main(["sample", "--frames-dir", str(d), "--downsample", "0"]) == 1
        assert "--downsample must be >= 1" in capsys.readouterr().err

    def test_topk_with_too_few_frames_is_input_error(self, tmp_path, capsys):
        d = make_frames_dir(tmp_path, "v", t=3)
        assert main(["sample", "--frames-dir", str(d), "--strategy", "topk",
                     "--num-frames", "8"]) == 2


class TestBatchMode:
    def test_batch_over_directories(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "clip1", t=6, seed=1)
        make_frames_dir(root, "clip2", t=9, seed=2)
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--num-frames", "4",
                     "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        plans = sorted(p.name for p in out.iterdir())
        assert plans == ["clip1.plan.json", "clip2.plan.json"]
        one = json.loads((out / "clip1.plan.json").read_text())
        two = json.loads((out / "clip2.plan.json").read_text())
        assert one["seed"] == 5 and two["seed"] == 4  # 5 XOR ordinal

    def test_batch_is_reproducible(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "a", t=5, seed=3)
        make_frames_dir(root, "b", t=7, seed=4)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        argv = ["sample", "--frames-dir", str(root), "--batch", "--seed", "9",
                "--num-frames", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("a.plan.json", "b.plan.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_batch_requires_out(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        assert main(["sample", "--frames-dir", str(root), "--batch"]) == 1

    def test_batch_rejects_emit_curve(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        assert main(["sample", "--frames-dir", str(root), "--batch",
                     "--out", str(tmp_path / "o"), "--emit-curve", "c.csv"]) == 1

    def test_empty_batch_dir_is_input_error(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        assert main(["sample", "--frames-dir", str(root), "--batch",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("representation", ["image", "feature"])
    def test_batch_plan_equals_single_video_run(self, tmp_path, capsys, representation):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "v1", t=9, seed=1)
        make_frames_dir(root, "v10", t=7, seed=2)
        rng = np.random.default_rng(3)
        save_raw_tensor(FrameVolume(rng.integers(0, 256, (10, 8, 8, 1), dtype=np.uint8)), root / "v2.mgvt")
        save_raw_tensor(FrameVolume(rng.uniform(0, 255, (8, 8, 8, 1)).astype(np.float32)), root / "v3.mgvt")
        flags = ["--num-frames", "4", "--mu", "0.7", "--representation", representation]
        if representation == "feature":
            weights = tmp_path / "bank.mgkb"
            save_kernel_bank(random_bank(1, seed=3), weights)
            flags += ["--weights", str(weights)]
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--seed", "6",
                     "--out", str(out), *flags]) == 0
        order = [("v1", "--frames-dir"), ("v2.mgvt", "--raw-tensor"), ("v3.mgvt", "--raw-tensor"),
                 ("v10", "--frames-dir")]
        plans = [out / f"{name.removesuffix('.mgvt')}.plan.json" for name, _ in order]
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in plans)
        for i, ((name, flag), plan) in enumerate(zip(order, plans)):
            assert main(["sample", flag, str(root / name), "--seed", str(video_seed(6, i)), *flags]) == 0
            assert plan.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--raw-tensor", "--frames-dir"])
    def test_rerun_with_out_under_the_root_skips_its_own_plans(self, tmp_path, capsys, flag):
        root = tmp_path / "videos"
        root.mkdir()
        if flag == "--raw-tensor":
            rng = np.random.default_rng(2)
            for name in ("a", "b"):
                save_raw_tensor(FrameVolume(rng.integers(0, 256, (6, 8, 8, 1), dtype=np.uint8)), root / f"{name}.mgvt")
        else:
            make_frames_dir(root, "a", seed=1)
            make_frames_dir(root, "b", seed=2)
        out = root / "plans"
        argv = ["sample", flag, str(root), "--batch", "--num-frames", "3", "--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(first) == ["a.plan.json", "b.plan.json"]
        capsys.readouterr()
        # the same directory named another way is still the run's own output
        assert main([*argv[:-1], str(tmp_path / "videos" / ".." / "videos" / "plans")]) == 0
        assert capsys.readouterr().err == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_root_holding_only_the_out_dir_has_no_videos(self, tmp_path, capsys):
        root = tmp_path / "videos"
        (root / "plans").mkdir(parents=True)
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(root / "plans")]) == 2
        assert capsys.readouterr().err == f"error: {root}: no videos found\n"

    def test_non_decimal_digits_in_names(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "good", seed=1)
        make_frames_dir(root, "clip1²", seed=2)
        write_pgm(make_frames_dir(root, "bad", t=3, seed=3) / "f1²3.pgm", np.zeros((8, 8), dtype=np.uint8))
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        plans = [out / f"{name}.plan.json" for name in ("bad", "clip1²", "good")]
        assert (captured.out, captured.err) == ("".join(f"{p}\n" for p in plans), "")

    def test_name_collision_is_input_error_before_any_work(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "a", seed=1)
        save_raw_tensor(FrameVolume(np.zeros((4, 8, 8, 1), dtype=np.uint8)), root / "a.mgvt")
        make_frames_dir(root, "b", seed=2)
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{root / 'a'} and {root / 'a.mgvt'}" in captured.err
        assert not out.exists()

    def test_bad_videos_fail_alone(self, tmp_path, capsys):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "clip1", seed=1)
        save_raw_tensor(FrameVolume(np.zeros((4, 8, 8, 1), dtype=np.uint8)), root / "clip2.mgvt")
        truncated = (root / "clip2.mgvt").read_bytes()[:-5]
        (root / "clip2.mgvt").write_bytes(truncated)
        make_frames_dir(root, "clip3", seed=3)
        (make_frames_dir(root, "clip4", seed=4) / "frame2.pgm").write_bytes(b"P9 junk")
        huge = make_frames_dir(root, "clip5", seed=5) / "frame3.pgm"  # a header number int() refuses
        huge.write_bytes(b"P5\n" + b"9" * 5000 + b" 8\n255\n" + bytes(64))
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        good = [out / "clip1.plan.json", out / "clip3.plan.json"]
        assert captured.out == "".join(f"{p}\n" for p in good)
        assert sorted(out.iterdir()) == good
        errors = captured.err.splitlines()
        assert len(errors) == 3
        assert errors[0].startswith(f"error: {root / 'clip2.mgvt'}: ") and "payload bytes" in errors[0]
        assert errors[1].startswith(f"error: {root / 'clip4' / 'frame2.pgm'}: not a binary PGM/PPM")
        assert errors[2] == f"error: {huge}: malformed PGM/PPM header"


class TestBatchPool:
    """The batch pool is sized to the CPUs the process may use; one worker runs in the calling thread."""

    @pytest.fixture
    def started(self, monkeypatch):
        started, start = [], threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        return started

    @staticmethod
    def _allow_cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def _corpus(tmp_path):
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "clip1", t=6, seed=1)
        make_frames_dir(root, "clip2", t=9, seed=2)
        f32 = np.random.default_rng(3).uniform(0, 255, (8, 8, 8, 1)).astype(np.float32)
        save_raw_tensor(FrameVolume(f32), root / "clip3.mgvt")
        (make_frames_dir(root, "clip4", t=3, seed=4) / "frame2.pgm").write_bytes(b"P9 junk")
        make_frames_dir(root, "clip5", t=12, seed=5)
        return root

    def test_same_plans_and_lines_for_any_cpu_count(self, tmp_path, capsys, monkeypatch, started):
        root = self._corpus(tmp_path)
        runs, threads = {}, {}
        for cpus in (1, 2, 8):
            self._allow_cpus(monkeypatch, cpus)
            out, before = tmp_path / f"plans{cpus}", len(started)
            code = main(["sample", "--frames-dir", str(root), "--batch", "--seed", "3", "--out", str(out)])
            captured = capsys.readouterr()
            plans = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs[cpus] = (code, captured.out.replace(str(out), "OUT"), captured.err, plans)
            threads[cpus] = len(started) - before
        assert runs[1] == runs[2] == runs[8]
        assert runs[1][0] == 2 and len(runs[1][3]) == 4
        assert threads[1] == 0 and 1 <= threads[2] <= 2 and 1 <= threads[8] <= 5  # 5 videos

    def test_one_cpu_starts_no_thread(self, tmp_path, capsys, monkeypatch, started):
        self._allow_cpus(monkeypatch, 1)
        root = tmp_path / "videos"
        root.mkdir()
        make_frames_dir(root, "a", seed=1)
        make_frames_dir(root, "b", seed=2)
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(tmp_path / "o")]) == 0
        assert started == []

    def test_single_video_runs_in_the_calling_thread(self, tmp_path, capsys, monkeypatch, started):
        self._allow_cpus(monkeypatch, 8)
        assert main(["sample", "--frames-dir", str(make_frames_dir(tmp_path, "v")), "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        assert started == []

    @pytest.mark.parametrize("count, usable", [(None, 1), (4, 4)])
    def test_cpu_count_where_the_os_has_no_affinity_mask(self, monkeypatch, count, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli._usable_cpus() == usable


def test_flag_defaults_are_the_dataclass_defaults():
    parser = cli._build_parser()
    config = {f.name: f.default for f in fields(SamplerConfig)}
    spec = {f.name: f.default for f in fields(SyntheticSpec)}
    sampler_flags = {"num_frames": "n_frames", "mu": "mu", "stride": "stride", "seed": "seed",
                     "deterministic": "deterministic"}
    synth_flags = {"height": "height", "width": "width", "channels": "channels", "background": "background",
                   "noise": "noise", "gen_seed": "seed"}
    sample = vars(parser.parse_args(["sample", "--raw-tensor", "v.mgvt"]))
    assert sample["strategy"] == config["strategy"] and sample["window"] == config["window_len"]
    for argv in (["sample", "--raw-tensor", "v.mgvt"], ["eval"]):
        args = vars(parser.parse_args(argv))
        assert {flag: args[flag] for flag in sampler_flags} == {flag: config[f] for flag, f in sampler_flags.items()}
    for argv in (["eval"], ["gen", "--out", "v.mgvt"]):
        args = vars(parser.parse_args(argv))
        assert {flag: args[flag] for flag in synth_flags} == {flag: spec[f] for flag, f in synth_flags.items()}
        assert args["t_count"] == 100


class TestEvalCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["eval", "--t-count", "100", "--burst", "40:59:4.0",
                     "--num-frames", "8", "--mu", "1", "--deterministic"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["coverage"]["mg"] == 1.0
        assert obj["coverage"]["segment"] == 0.25
        assert obj["salience_mass_in_bursts"] == 1.0

    def test_report_without_bursts_writes_a_float_mass(self, capsys):
        assert main(["eval", "--t-count", "1", "--height", "8", "--width", "8", "--num-frames", "1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(',"salience_mass_in_bursts":0.0}\n')
        assert json.loads(out)["salience_mass_in_bursts"] == 0.0

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["eval", "--t-count", "50", "--burst", "10:19:2.0",
                     "--deterministic", "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["coverage"]) == {"mg", "segment", "stride", "topk"}

    def test_bad_burst_spec_is_usage_error(self, capsys):
        assert main(["eval", "--burst", "10-19-2"]) == 1
        assert main(["eval", "--burst", "a:b:c"]) == 1

    def test_burst_outside_video_is_usage_error(self, capsys):
        assert main(["eval", "--t-count", "10", "--burst", "5:40:1.0"]) == 1

    @pytest.mark.parametrize("flag", [["--strategy", "topk"], ["--window", "8"]])
    def test_single_strategy_flags_are_not_eval_flags(self, capsys, flag):
        assert main(["eval", "--t-count", "20", *flag]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_zero_stride_is_usage_error(self, capsys):
        assert main(["eval", "--t-count", "20", "--stride", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "motionsample eval: error: stride must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_sampler_setting_the_clip_cannot_meet_is_usage_error(self, tmp_path, capsys, to_file):
        # the default --num-frames 8 asks topk for more frames than the 4 that --t-count makes
        out = ["--out", str(tmp_path / "report.json")] if to_file else []
        assert main(["eval", "--t-count", "4", "--height", "8", "--width", "8", *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "motionsample eval: error: topk needs n_frames <= t_count, got 8 > 4\n"
        assert list(tmp_path.iterdir()) == []


class TestSyntheticValues:
    """eval and gen reject a noise, background or burst amplitude that makes no finite float32 clip,
    a burst amplitude that float32 rounds away, and a bad seed."""

    @pytest.mark.parametrize("command, flags, message", [
        ("eval", ["--noise", "nan"], "noise amplitude must be >= 0 and within float32, got nan"),
        ("eval", ["--noise", "inf"], "noise amplitude must be >= 0 and within float32, got inf"),
        ("eval", ["--background", "inf"], "background must keep frames, noise included, within float32, got inf"),
        ("eval", ["--burst", "2:5:nan"], "burst amplitude must be > 0 and keep frames within float32, got nan"),
        ("gen", ["--background", "nan"], "background must keep frames, noise included, within float32, got nan"),
        ("eval", ["--background", "1e39"], "background must keep frames, noise included, within float32, got 1e+39"),
        ("gen", ["--background", "3e38", "--noise", "1e38"],
         "background must keep frames, noise included, within float32, got 3e+38"),
        ("gen", ["--burst", "2:5:3.5e38"], "burst amplitude must be > 0 and keep frames within float32, got 3.5e+38"),
        ("gen", ["--noise", "1", "--gen-seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
        ("gen", ["--gen-seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
        ("eval", ["--noise", "1", "--gen-seed", str(2**64)], f"seed must fit in 64 unsigned bits, got {2**64}"),
        ("eval", ["--burst", "0:0:1e-45"], "burst amplitude 1e-45 is lost in float32 beside background 128.0"),
        ("gen", ["--burst", "0:0:1e-45"], "burst amplitude 1e-45 is lost in float32 beside background 128.0"),
    ])
    def test_value_outside_float32_is_usage_error(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "out.file"
        argv = [command, "--t-count", "10", "--height", "8", "--width", "8", *flags, "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"motionsample {command}: error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestMemoryError:
    """A video too large to allocate is an input error (exit 2), never a traceback; in a batch it fails alone."""

    @staticmethod
    def _no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 37.3 GiB for an array with shape (2, 100000, 100000, 1)")

    @pytest.mark.parametrize("command", ["eval", "gen"])
    def test_synthetic_video_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "generate_synthetic_video", self._no_memory)
        out = tmp_path / "out.file"
        assert main([command, "--t-count", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Unable to allocate 37.3 GiB for an array with shape (2, 100000, 100000, 1)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_batch_video_too_large_to_allocate_fails_alone(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "videos"
        root.mkdir()
        for i in (1, 2, 3):
            make_frames_dir(root, f"clip{i}", seed=i)
        real_load = cli.load_video

        def load_video(path, frames_dir):
            return (self._no_memory if path.name == "clip2" else real_load)(path, frames_dir)

        monkeypatch.setattr(cli, "load_video", load_video)
        out = tmp_path / "plans"
        assert main(["sample", "--frames-dir", str(root), "--batch", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        good = [out / "clip1.plan.json", out / "clip3.plan.json"]
        assert captured.out == "".join(f"{p}\n" for p in good)
        assert sorted(out.iterdir()) == good
        assert captured.err == (
            f"error: {root / 'clip2'}: Unable to allocate 37.3 GiB for an array with shape (2, 100000, 100000, 1)\n"
        )


class TestGenCommand:
    def test_writes_loadable_tensor(self, tmp_path, capsys):
        out = tmp_path / "v.mgvt"
        assert main(["gen", "--t-count", "12", "--height", "8", "--width", "8",
                     "--burst", "2:7:3.0", "--out", str(out)]) == 0
        volume = load_raw_tensor(out)
        assert volume.t_count == 12 and volume.frames.dtype == np.float32
        assert str(out) in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.mgvt", tmp_path / "b.mgvt"
        argv = ["gen", "--t-count", "10", "--height", "8", "--width", "8",
                "--noise", "0.5", "--gen-seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "v.mgvt"
        assert main(["gen", "--t-count", "4", "--out", str(out)]) == 2


class TestAtomicOutputs:
    """Every output file is renamed into place; a failed rename keeps the earlier file."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--t-count", "20", "--deterministic"],
        ["gen", "--t-count", "4", "--height", "8", "--width", "8"],
    ], ids=["eval", "gen"])
    def test_failed_rename_keeps_earlier_output(self, tmp_path, capsys, monkeypatch, argv):
        out = tmp_path / "out.file"
        out.write_bytes(b"earlier")

        def no_rename(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", no_rename)
        assert main(argv + ["--out", str(out)]) == 2
        assert "Input/output error" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier"
        assert list(tmp_path.iterdir()) == [out]

    def test_missing_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "v.mgvt"
        assert main(["gen", "--t-count", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_failed_rename_keeps_earlier_kernel_bank(self, tmp_path, monkeypatch):
        out = tmp_path / "bank.mgkb"
        save_kernel_bank(random_bank(1, seed=1), out)
        earlier = out.read_bytes()

        def no_rename(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="Input/output error"):
            save_kernel_bank(random_bank(1, seed=2), out)
        assert out.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [out]
