import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionsample import motion, sampling
from motionsample import (
    ConfigError,
    ConvKernelBank,
    conv2d_apply,
    FrameVolume,
    MotionDistribution,
    SalienceVector,
    StructuralError,
    downsample_volume,
    feature_diff_salience,
    identity_bank,
    image_diff_salience,
    normalize_salience,
    random_bank,
    smooth_distribution,
)
from conftest import convolve_window, needs_openblas_x86_64, random_volume, weights_at_the_bound
from oracles import loop_image_salience, shannon_entropy

MU_GRID = (0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 2.0)


def volume(*frames, dtype=np.uint8):
    return FrameVolume(np.asarray(frames, dtype=dtype))


class TestFrameVolume:
    def test_accessors(self):
        v = volume(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))
        assert (v.t_count, v.height, v.width, v.channels) == (2, 2, 3, 1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(StructuralError):
            FrameVolume(np.zeros((2, 3, 4), dtype=np.uint8))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(StructuralError):
            FrameVolume(np.zeros((1, 2, 2, 2), dtype=np.uint8))

    def test_rejects_bad_dtype(self):
        with pytest.raises(StructuralError):
            FrameVolume(np.zeros((1, 2, 2, 1), dtype=np.float64))

    def test_rejects_empty_axis(self):
        with pytest.raises(StructuralError):
            FrameVolume(np.zeros((0, 2, 2, 1), dtype=np.uint8))

    def test_frames_are_immutable(self):
        v = volume(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            v.frames[0, 0, 0, 0] = 1


class TestImageDiffSalience:
    def test_hand_example_grayscale(self):
        v = volume([[[0], [10]]], [[[3], [10]]])
        assert image_diff_salience(v).values.tolist() == [0.0, 3.0]

    def test_hand_example_rgb_channel_sum(self):
        v = volume([[[0, 0, 0]]], [[[1, 2, 3]]])
        assert image_diff_salience(v).values.tolist() == [0.0, 6.0]

    def test_identical_frames_are_zero(self):
        frame = np.full((3, 4, 1), 7)
        v = volume(*([frame] * 5))
        assert image_diff_salience(v).values.tolist() == [0.0] * 5

    def test_single_frame(self):
        v = volume(np.zeros((2, 2, 1)))
        assert image_diff_salience(v).values.tolist() == [0.0]

    def test_uint8_does_not_wrap(self):
        v = volume([[[255]]], [[[0]]])
        assert image_diff_salience(v).values.tolist() == [0.0, 255.0]

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 7))
            c = int(rng.choice([1, 3]))
            v = random_volume(rng, t, h=3, w=4, c=c)
            expected = loop_image_salience(v.frames)
            np.testing.assert_array_equal(image_diff_salience(v).values, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.uint8,
            st.tuples(
                st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.just(1)
            ),
        )
    )
    def test_first_zero_and_nonnegative(self, data):
        s = image_diff_salience(FrameVolume(data))
        assert s.values[0] == 0.0
        assert np.all(s.values >= 0)

    def test_time_reversal(self, rng):
        # zero-based identity: S'[t] = S[T - t] for t in 1..T-1
        for _ in range(10):
            t = int(rng.integers(2, 9))
            v = random_volume(rng, t, c=3)
            s = image_diff_salience(v).values
            rev = image_diff_salience(FrameVolume(v.frames[::-1].copy())).values
            assert rev[0] == 0.0
            np.testing.assert_array_equal(rev[1:], s[1:][::-1])

    def test_intensity_scale_invariance(self, rng):
        v = random_volume(rng, 6, dtype=np.float32)
        scaled = FrameVolume((v.frames * np.float32(2.0)))
        s, s2 = image_diff_salience(v), image_diff_salience(scaled)
        np.testing.assert_allclose(s2.values, 2.0 * s.values, rtol=1e-12)
        m, m2 = normalize_salience(s), normalize_salience(s2)
        np.testing.assert_allclose(m2.probs, m.probs, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.uint8,
            st.tuples(
                st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 3])
            ),
        )
    )
    def test_uint8_bitwise_equal_to_loop_oracle(self, data):
        s = image_diff_salience(FrameVolume(data)).values
        assert s.tobytes() == loop_image_salience(data).tobytes()


def int64_diff_sum(a, b, block=1 << 20) -> int:
    """sum |a - b| over two uint8 frames in int64, a block of pixels at a time."""
    a, b = a.ravel(), b.ravel()
    return sum(
        int(np.abs(a[i : i + block].astype(np.int64) - b[i : i + block]).sum())
        for i in range(0, a.size, block)
    )


class TestUint8Accumulator:
    """Scores near and past 2**32, where the integer accumulator widens to uint64."""

    @pytest.mark.parametrize("shape, expected", [
        ((257, 65537, 1), 2**32 - 1),  # 255*H*W*C = 2**32 - 1: the largest uint32 frame
        ((4200, 4200, 1), 255 * 4200 * 4200),  # past 2**32: needs uint64
    ])
    def test_extreme_contrast_pair(self, shape, expected):
        frames = np.zeros((2, *shape), dtype=np.uint8)
        frames[1] = 255
        s = image_diff_salience(FrameVolume(frames)).values
        assert int64_diff_sum(frames[1], frames[0]) == expected
        assert s.tolist() == [0.0, float(expected)]

    def test_large_random_pair_equals_int64_reference(self, rng):
        frames = rng.integers(0, 256, size=(2, 2400, 2400, 3), dtype=np.uint8)
        frames[1, ::2] = 255 - frames[0, ::2]
        s = image_diff_salience(FrameVolume(frames)).values
        assert 255 * frames[0].size > 2**32
        assert s[1] == float(int64_diff_sum(frames[1], frames[0]))


def _chunk_pairs(n: int, t: int | None = None) -> int:
    """Frame pairs per uint8 salience chunk for a clip of t frames of n values each (t=None: a long clip).

    A chunk holds rows of n values zero-padded to whole groups of min(n, 256).
    """
    g = min(n, 256)
    k = motion._CHUNK_BYTES // (-(-n // g) * g)
    return max(1, k if t is None else min(t - 1, k))


class TestUint8Chunks:
    """uint8 salience runs over chunks of frame pairs and sums each row in uint16 groups of 256 values;
    scores at every chunk and group boundary match the oracle."""

    @staticmethod
    def _assert_bitwise_equal_to_oracle(rng, t, h, w, c):
        frames = rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8)
        frames[t // 2] = 0  # a 0/255 extreme pair, and a repeat inside the clip
        if t > 2:
            frames[t // 2 - 1] = 255
            frames[-1] = frames[-2]
        s = image_diff_salience(FrameVolume(frames)).values
        assert s.tobytes() == loop_image_salience(frames).tobytes()

    @pytest.mark.parametrize("h, w, c", [(96, 96, 3), (160, 160, 1)])
    def test_clip_lengths_around_the_chunk_size(self, rng, h, w, c):
        k = _chunk_pairs(h * w * c)
        assert k > 1
        for t in (1, 2, k, k + 1, k + 2, 2 * k + 1):
            self._assert_bitwise_equal_to_oracle(rng, t, h, w, c)

    @pytest.mark.parametrize("h, w, c", [(300, 300, 3), (520, 520, 1)])
    def test_frames_past_the_budget_go_one_pair_at_a_time(self, rng, h, w, c):
        assert _chunk_pairs(h * w * c) == 1
        for t in (1, 2, 5):
            self._assert_bitwise_equal_to_oracle(rng, t, h, w, c)

    @pytest.mark.parametrize("c", [1, 3])
    def test_tiny_frames_fit_the_clip_in_one_chunk(self, rng, c):
        assert _chunk_pairs(4 * 5 * c) > 300
        for t in (3, 31, 300):
            assert _chunk_pairs(4 * 5 * c, t) == t - 1
            self._assert_bitwise_equal_to_oracle(rng, t, 4, 5, c)

    # n = H*W*C = 255, 256, 257, 273, 511, 512, 513: below, at and past one and two whole groups
    @pytest.mark.parametrize("h, w, c", [(5, 17, 3), (16, 16, 1), (1, 257, 1), (13, 7, 3), (7, 73, 1), (8, 64, 1),
                                         (9, 19, 3)])
    def test_row_lengths_around_the_group_size(self, rng, h, w, c):
        k = _chunk_pairs(h * w * c)
        for t in (k - 1, k, k + 1, 2 * k + 1):
            self._assert_bitwise_equal_to_oracle(rng, t, h, w, c)

    def test_one_value_frames(self, rng):
        # n = 1: groups of one value, 2**18 pairs a chunk; the oracle loop takes
        # seconds at this length, so it runs on the frames around each chunk
        # boundary and the clip's last frame, and an int64 sum covers the rest
        k = _chunk_pairs(1)
        for t in (k - 1, k, k + 1, 2 * k + 1):
            frames = rng.integers(0, 256, size=(t, 1, 1, 1), dtype=np.uint8)
            s = image_diff_salience(FrameVolume(frames)).values
            exact = np.abs(np.diff(frames.reshape(t).astype(np.int64)))
            assert s[0] == 0.0 and s[1:].tolist() == exact.astype(np.float64).tolist()
            for b in [*range(1, t, _chunk_pairs(1, t)), t]:
                lo, hi = max(1, b - 2), min(t, b + 2)
                assert s[lo:hi].tobytes() == loop_image_salience(frames[lo - 1 : hi])[1:].tobytes()

    @pytest.mark.parametrize("h, w, c", [(16, 16, 1), (1, 257, 1), (7, 73, 1), (8, 64, 1), (9, 19, 3), (64, 64, 3)])
    def test_alternating_black_and_white_frames_fill_every_group(self, h, w, c):
        # every difference is 255, so each whole group of 256 sums to 65280, the most a group can hold
        n = h * w * c
        t = 2 * _chunk_pairs(n) + 1
        frames = np.zeros((t, h, w, c), dtype=np.uint8)
        frames[1::2] = 255
        s = image_diff_salience(FrameVolume(frames)).values
        assert s.tolist() == [0.0] + [255.0 * n] * (t - 1)
        assert s.tobytes() == loop_image_salience(frames).tobytes()


# float32 pixels whose float64 differences are exact, round (1e30 beside 1e-30),
# cancel to a signed zero, or start from a float32 subnormal
_F32_EXTREMES = np.array([0.0, -0.0, 1e30, -1e30, 1e-30, -1e-30, 1e-45, -1e-45, 1.5, 3e38], dtype=np.float32)


class TestFloat32ImageSalience:
    """float32 frames are widened once into reused float64 buffers; scores equal the oracle's bits."""

    @pytest.mark.parametrize("t", [1, 2, 7])
    @pytest.mark.parametrize("h, w", [(1, 1), (13, 7)])
    @pytest.mark.parametrize("c", [1, 3])
    def test_bitwise_equal_to_loop_oracle(self, rng, t, h, w, c):
        for frames in (rng.uniform(-255, 255, size=(t, h, w, c)).astype(np.float32),
                       rng.choice(_F32_EXTREMES, size=(t, h, w, c))):
            s = image_diff_salience(FrameVolume(frames)).values
            assert s.tobytes() == loop_image_salience(frames).tobytes()

    def test_frames_larger_than_a_pairwise_block(self, rng):
        frames = rng.uniform(0, 255, size=(3, 112, 112, 3)).astype(np.float32)
        s = image_diff_salience(FrameVolume(frames)).values
        assert s.tobytes() == loop_image_salience(frames).tobytes()

    def test_hand_example_rounding_and_signed_zeros(self):
        frames = np.array([[1e-30, 1e30, 0.0], [1e30, 1e-30, -0.0]], dtype=np.float32).reshape(2, 1, 3, 1)
        big = float(np.float32(1e30))
        assert big - float(np.float32(1e-30)) == big  # the float64 difference rounds
        assert image_diff_salience(FrameVolume(frames)).values.tolist() == [0.0, 2 * big]


class TestNonFiniteWithoutWarnings:
    """numpy's RuntimeWarning for inf - inf must not leak ahead of the StructuralError."""

    @pytest.mark.parametrize("representation", ["image", "feature"])
    @pytest.mark.parametrize("frames_with_inf", [(0, 1, 2, 3, 4), (3, 4)])
    def test_raises_structural_error_only(self, rng, representation, frames_with_inf):
        frames = random_volume(rng, 5, h=8, w=8, dtype=np.float32).frames.copy()
        frames[list(frames_with_inf), 1, 2, 0] = np.inf
        first = frames_with_inf[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match=rf"^salience entry {max(first, 1)} \(frame {first}\)"):
                if representation == "image":
                    image_diff_salience(FrameVolume(frames))
                else:
                    feature_diff_salience(FrameVolume(frames), random_bank(1))


class TestFeatureDiffSalience:
    def test_identity_bank_matches_image_diff(self, rng):
        for _ in range(10):
            v = random_volume(rng, int(rng.integers(2, 6)), h=5, w=6, c=1)
            img = image_diff_salience(v).values
            feat = feature_diff_salience(v, identity_bank(1)).values
            np.testing.assert_allclose(feat, img, rtol=1e-4, atol=1e-9)

    def test_zero_bank_gives_zero_salience(self, rng):
        v = random_volume(rng, 4)
        s = feature_diff_salience(v, ConvKernelBank(np.zeros((8, 1, 7, 7), np.float32)))
        assert s.values.tolist() == [0.0] * 4

    def test_hand_example_center_weight_two(self):
        v = volume([[[5]]], [[[7]]], dtype=np.float32)
        kernels = np.zeros((8, 1, 7, 7), np.float32)
        kernels[0, 0, 3, 3] = 2.0
        s = feature_diff_salience(v, ConvKernelBank(kernels))
        assert s.values.tolist() == [0.0, 4.0]

    def test_channel_mismatch(self, rng):
        with pytest.raises(ConfigError):
            feature_diff_salience(random_volume(rng, 2, c=3), identity_bank(1))

    def test_time_reversal(self, rng):
        v = random_volume(rng, 5, c=1)
        bank = identity_bank(1)
        s = feature_diff_salience(v, bank).values
        rev = feature_diff_salience(FrameVolume(v.frames[::-1].copy()), bank).values
        np.testing.assert_allclose(rev[1:], s[1:][::-1], rtol=1e-12)


def repeat_runs(rng, dtype, c):
    """Frames 0 1 1 1 2 3 3 4 4 4 4: exact repeats in runs, moving frames between."""
    distinct = random_volume(rng, 5, h=6, w=7, c=c, dtype=dtype).frames
    return FrameVolume(distinct[[0, 1, 1, 1, 2, 3, 3, 4, 4, 4, 4]])


def convolve_every_frame(video, bank):
    """feature_diff_salience without the repeat skip: one conv2d_apply per frame."""
    feats = [conv2d_apply(frame, bank) for frame in video.frames]
    out = [0.0] + [np.sqrt(np.square(cur - prev).sum(axis=0)).sum() for prev, cur in zip(feats, feats[1:])]
    return np.array(out)


@pytest.fixture
def conv_calls(monkeypatch):
    """Records the window of each convolution (whole frame or not) feature_diff_salience runs, however many strips."""
    calls = []
    convolve = motion._conv2d_window

    def counting(frame, bank, *window_and_scratch):
        calls.append(window_and_scratch[:4])
        return convolve(frame, bank, *window_and_scratch)

    monkeypatch.setattr(motion, "_conv2d_window", counting)
    return calls


class TestFeatureSkipsRepeats:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("c", [1, 3])
    def test_bitwise_equal_to_convolving_every_frame(self, rng, dtype, c):
        v = repeat_runs(rng, dtype, c)
        bank = random_bank(c, seed=int(rng.integers(1 << 16)))
        s = feature_diff_salience(v, bank).values
        assert np.array_equal(s, convolve_every_frame(v, bank))
        assert s[[2, 3, 6, 8, 9, 10]].tolist() == [0.0] * 6

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_clip_longer_than_two_chunks_of_change_masks(self, rng, dtype):
        h, w, c, t_count = 20, 24, 3, 400
        # a chunk holds as many transitions as their change masks, a bool per value, fit in _CHUNK_BYTES
        assert t_count - 1 > 2 * (motion._CHUNK_BYTES // (h * w * c))
        frames = np.repeat(random_volume(rng, 1, h=h, w=w, c=c, dtype=dtype).frames, t_count, axis=0)
        for t in np.flatnonzero(rng.random(t_count) < 0.4):
            y, x = rng.integers(0, h - 3), rng.integers(0, w - 3)
            frames[t:, y : y + 3, x : x + 3] += 1
        video, bank = FrameVolume(frames), random_bank(c, seed=5)
        s = feature_diff_salience(video, bank).values
        assert s.tobytes() == convolve_every_frame(video, bank).tobytes()

    def test_uint8_clip_convolves_changed_frames_only(self, rng, conv_calls):
        # uint8 under a bank that meets the bound: only the changed frames' differences, never frame 0
        v = repeat_runs(rng, np.uint8, 1)
        feature_diff_salience(v, random_bank(1))
        changed = sum(not np.array_equal(a, b) for a, b in zip(v.frames, v.frames[1:]))
        assert len(conv_calls) == changed == 4

    def test_static_uint8_clip_convolves_nothing_and_falls_back_to_uniform(self, rng, conv_calls):
        v = FrameVolume(np.repeat(random_volume(rng, 1).frames, 6, axis=0))
        s = feature_diff_salience(v, random_bank(1))
        assert len(conv_calls) == 0  # a uint8 clip under a bank that meets the bound: frame 0 is not convolved
        assert s.values.tolist() == [0.0] * 6
        assert normalize_salience(s).degenerate_uniform

    def test_repeated_nan_frame_still_raises(self, rng):
        # every frame repeats frame 0 byte for byte; only NaN != NaN keeps them apart
        frame = random_volume(rng, 1, dtype=np.float32).frames.copy()
        frame[0, 1, 2, 0] = np.nan
        with pytest.raises(StructuralError, match=r"salience entry 1 \(frame 0\)"):
            feature_diff_salience(FrameVolume(np.repeat(frame, 3, axis=0)), random_bank(1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_all_repeat_clip_with_non_finite_frame_0_raises(self, rng, bad):
        # inf == inf, so every later frame is skipped; only the frame-0 check sees it
        frame = random_volume(rng, 1, h=8, w=8, dtype=np.float32).frames.copy()
        frame[0, 1, 2, 0] = bad
        video = FrameVolume(np.repeat(frame, 5, axis=0))
        for salience in (image_diff_salience, lambda v: feature_diff_salience(v, random_bank(1))):
            with pytest.raises(StructuralError, match=r"^salience entry 1 \(frame 0\) must be finite"):
                salience(video)

    def test_single_frame_clip_has_no_entry_to_reject(self, rng):
        frame = random_volume(rng, 1, dtype=np.float32).frames.copy()
        frame[0, 0, 0, 0] = np.inf
        assert feature_diff_salience(FrameVolume(frame), random_bank(1)).values.tolist() == [0.0]


def tiny_weight_bank(c):
    """``random_bank(c)`` with one weight of 1e-30: 130 bits, far past the uint8 exactness bound."""
    k = random_bank(c).kernels.copy()
    k[2, 0, 3, 4] = 1e-30
    return ConvKernelBank(k)


class TestFeatureByDifference:
    @pytest.mark.parametrize("dtype, wide, by_difference", [(np.uint8, False, True), (np.float32, False, False),
                                                            (np.uint8, True, False)])
    def test_frame_0_is_convolved_whole_unless_uint8_meets_the_bound(self, rng, monkeypatch, dtype, wide,
                                                                     by_difference):
        calls = []
        convolve = motion._conv2d_window

        def recording(frame, bank, y0, y1, x0, x1, scratch, prev=None):
            calls.append(((y0, y1, x0, x1), prev is not None))
            return convolve(frame, bank, y0, y1, x0, x1, scratch, prev)

        monkeypatch.setattr(motion, "_conv2d_window", recording)
        v = repeat_runs(rng, dtype, 1)  # 6x7 random frames: every window is the whole frame
        bank = tiny_weight_bank(1) if wide else random_bank(1)
        assert bank._sums_uint8_exactly != wide
        s = feature_diff_salience(v, bank).values
        whole = (0, 6, 0, 7)
        assert calls == [(whole, False)] * (not by_difference) + [(whole, by_difference)] * 4
        monkeypatch.undo()
        assert s.tobytes() == convolve_every_frame(v, bank).tobytes()

    def test_windows_convolve_the_difference(self, rng):
        frames = rng.integers(0, 256, size=(2, 11, 13, 3), dtype=np.uint8)
        frames[1, :2] = frames[0, :2]
        bank = random_bank(3)
        for y0, y1 in [(0, 11), (2, 9)]:  # the whole frame, and a window inside it
            window = convolve_window(frames[1], bank, y0, y1, 3, 13, prev=frames[0])
            expected = conv2d_apply(frames[1].astype(np.float64) - frames[0], bank)[:, y0:y1, 3:13]
            assert window.tobytes() == expected.tobytes()
        # 112 rows of 3-channel pixels run in four strips, each differencing its own halo rows
        frames = rng.integers(0, 256, size=(2, 112, 112, 3), dtype=np.uint8)
        window = convolve_window(frames[1], bank, 0, 112, 0, 112, prev=frames[0])
        assert window.tobytes() == conv2d_apply(frames[1].astype(np.float64) - frames[0], bank).tobytes()

    def test_uint8_clip_under_a_bank_that_misses_the_bound_keeps_the_whole_frame_bits(self, rng):
        # 1.0 beside 3.3e-9 misses the bound, so convolving the difference could round
        # apart from differencing the features; 1e-30 could not catch it, those sums are exact
        k = np.zeros((8, 1, 7, 7), dtype=np.float32)
        k[0, 0, 3, 3], k[0, 0, 3, 4] = 1.0, 3.3e-9
        bank = ConvKernelBank(k)
        assert not bank._sums_uint8_exactly
        for _ in range(4):
            video = random_volume(rng, 12, h=9, w=11)
            assert feature_diff_salience(video, bank).values.tobytes() == convolve_every_frame(video, bank).tobytes()

    @pytest.mark.parametrize("c", [1, 3])
    def test_extreme_frames_under_a_bank_at_the_edge_of_the_bound(self, rng, c):
        # every filter's sums reach 255 * sum|w| = (2**53 - 32) ulps of its smallest weight
        k = np.zeros((8, c, 7, 7))
        for f in range(8):
            cells = rng.choice(c * 49, size=3, replace=False)
            k[f].flat[cells] = np.multiply(weights_at_the_bound(2**53 // 255), rng.choice([-1, 1], size=3))
        bank = ConvKernelBank(k)
        frames = rng.choice(np.array([0, 255], dtype=np.uint8), size=(6, 10, 9, c))
        frames[3] = frames[2]
        v = FrameVolume(frames)
        assert bank._sums_uint8_exactly
        assert feature_diff_salience(v, bank).values.tobytes() == convolve_every_frame(v, bank).tobytes()


def block_changes(rng, h, w, c, dtype):
    """A static background changed in small blocks, one step per frame.

    Frames 1-8 change a 2x2 block at each corner and border middle, frame 9
    one channel of one pixel, frame 10 the two opposite corners (so the
    window is the whole frame), frame 11 nothing, and frame 12 every pixel.
    """
    frames = [random_volume(rng, 1, h=h, w=w, c=c, dtype=dtype).frames[0]]

    def change(*blocks):
        frame = frames[-1].copy()
        for y, x, channels in blocks:
            old = frame[y : y + 2, x : x + 2, channels]
            if dtype == np.uint8:  # a nonzero step modulo 256 always changes the value
                frame[y : y + 2, x : x + 2, channels] = old + rng.integers(1, 256, old.shape).astype(np.uint8)
            else:
                frame[y : y + 2, x : x + 2, channels] = old + rng.uniform(1, 50, old.shape).astype(np.float32)
        frames.append(frame)

    every = slice(None)
    for y, x in [(0, 0), (0, w // 2), (0, w - 2), (h // 2, w - 1), (h - 2, w - 2), (h - 1, w // 2), (h - 2, 0), (h // 2, 0)]:
        change((max(y, 0), max(x, 0), every))  # clipped on frames one pixel high or wide
    change((h // 2, w // 2, slice(c - 1, c)))
    change((0, 0, every), (h - 1, w - 1, every))
    change()
    change(*[(y, x, every) for y in range(0, h, 2) for x in range(0, w, 2)])
    return FrameVolume(np.stack(frames))


class TestFeatureWindows:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("hw", [(20, 24), (5, 6), (3, 11), (12, 4), (1, 9), (9, 1), (1, 1)])
    def test_bitwise_equal_to_convolving_every_frame(self, rng, hw, c, dtype):
        # random_bank(3, seed=5) misses the uint8 exactness bound, so sum order shows there too
        v = block_changes(rng, *hw, c, dtype)
        bank = random_bank(c, seed=5)
        s = feature_diff_salience(v, bank).values
        assert s.tobytes() == convolve_every_frame(v, bank).tobytes()
        assert (s[1:11] > 0).all() and s[11] == 0.0

    @pytest.mark.parametrize("c", [1, 3])
    def test_window_is_the_changed_box_widened_by_the_kernel_radius(self, rng, conv_calls, c):
        base = random_volume(rng, 1, h=20, w=24, c=c).frames[0]
        frames = np.repeat(base[np.newaxis], 6, axis=0)
        frames[1:, 10, 12, 0] += 1  # one pixel
        frames[2:, 0:2, 0:2] += 1  # a corner block
        frames[3:, 19, 23, c - 1] += 1  # the last channel of the last pixel
        frames[4:, 5, 23, c - 1] += 1  # the right border
        frames[5:, 0, 0] += 1
        frames[5:, 19, 23] += 1  # opposite corners
        feature_diff_salience(FrameVolume(frames), random_bank(c))
        # uint8 under a bank that meets the bound: no whole-frame call for frame 0
        assert conv_calls == [(7, 14, 9, 16), (0, 5, 0, 5), (16, 20, 20, 24), (2, 9, 20, 24), (0, 20, 0, 24)]

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("hw", [(20, 24), (1, 1), (1, 24), (20, 1), (97, 131)])
    def test_windows_of_changing_shape_share_one_scratch(self, rng, conv_calls, hw, c, dtype):
        # windows grow, then shrink, so each strip's buffers still hold what a
        # strip of another shape left there; 1-pixel-high or wide frames give
        # 1x1, 1xW and Hx1 windows, and a 97x131 frame's larger windows run
        # in two to four strips of their own heights
        h, w = hw
        centre = (h // 2, h // 2 + 1, w // 2, w // 2 + 1)
        boxes = [centre, (h // 4, h - h // 4, w // 4, w - w // 4), (0, h, 0, w), (0, 1, 0, w), (0, h, w - 1, w),
                 (h - 1, h, 0, 1), (0, h, 0, w), centre]
        frames = np.repeat(random_volume(rng, 1, h=h, w=w, c=c, dtype=dtype).frames, 1 + len(boxes), axis=0)
        for t, (y0, y1, x0, x1) in enumerate(boxes, 1):
            frames[t:, y0:y1, x0:x1] += 1  # a uint8 255 wraps to 0, still a change
        video, bank = FrameVolume(frames), random_bank(c, seed=5)
        s = feature_diff_salience(video, bank).values
        frame0 = 0 if dtype == np.uint8 and bank._sums_uint8_exactly else 1  # frame 0's whole-frame call
        windows = conv_calls[frame0:]  # the oracle's whole-frame calls are counted too
        assert s.tobytes() == convolve_every_frame(video, bank).tobytes()
        areas = [(y1 - y0) * (x1 - x0) for y0, y1, x0, x1 in windows]
        assert len(areas) == len(boxes)
        if h * w > 1:
            assert areas[0] < areas[1] < areas[2] > areas[7]

    @pytest.mark.parametrize("h, heights", [(594, [297, 297]), (1187, [395, 396, 396])])
    def test_tall_one_pixel_wide_windows_get_no_one_pixel_strip(self, rng, h, heights):
        # numpy sums a lone pixel's 8 squared differences as a pairwise tree, not
        # k = 0..7 in order as over the whole frame, so a one-row strip of a
        # one-pixel-wide window could change the bits; a strip holds 593 such
        # rows. The square root and the map sum hide most such last-bit changes,
        # so the strip heights are checked too
        bank = random_bank(1, seed=5)
        video = random_volume(rng, 12, h=h, w=1, dtype=np.float32)
        strips = motion._conv2d_window(video.frames[0], bank, 0, h, 0, 1, motion._window_scratch(h, 1, 1))
        assert [ye - ys for ys, ye, _ in strips] == heights
        assert feature_diff_salience(video, bank).values.tobytes() == convolve_every_frame(video, bank).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_inside_a_later_window_names_its_frame(self, rng, bad):
        frames = np.repeat(random_volume(rng, 1, h=20, w=24, dtype=np.float32).frames, 8, axis=0)
        for t in range(1, 8):
            frames[t:, 2 * t, 3 * t] += 1.0  # every frame changes one pixel of its own
        frames[3:, 6, 10, 0] = bad  # first in frame 3, beside that frame's pixel (6, 9), then kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match=r"^salience entry 3 \(frame 3\) must be finite"):
                feature_diff_salience(FrameVolume(frames), random_bank(1))


class TestSalienceVector:
    def test_rejects_nonzero_first_entry(self):
        with pytest.raises(StructuralError):
            SalienceVector(np.array([1.0, 2.0]))

    def test_rejects_negative_entries(self):
        with pytest.raises(StructuralError):
            SalienceVector(np.array([0.0, -2.0]))

    @pytest.mark.parametrize("values", [[], [[0.0, 1.0]]])
    def test_rejects_empty_or_not_1d(self, values):
        with pytest.raises(StructuralError, match="non-empty 1-d"):
            SalienceVector(np.array(values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_error_names_first_offending_frame(self, bad):
        with pytest.raises(StructuralError, match=r"^salience entry 3 \(frame 3\) must be finite"):
            SalienceVector(np.array([0.0, 1.0, 2.0, bad, np.nan]))


class TestNonFiniteFrameNamed:
    @pytest.mark.parametrize("representation", ["image", "feature"])
    @pytest.mark.parametrize("frame, entry, bad", [(0, 1, np.nan), (0, 1, np.inf), (4, 4, np.nan), (4, 4, -np.inf)])
    def test_error_names_first_frame_holding_the_value(self, rng, representation, frame, entry, bad):
        frames = random_volume(rng, 6, dtype=np.float32).frames.copy()
        frames[frame, 1, 2, 0] = bad
        with pytest.raises(StructuralError, match=rf"^salience entry {entry} \(frame {frame}\) must be finite"):
            if representation == "image":
                image_diff_salience(FrameVolume(frames))
            else:
                feature_diff_salience(FrameVolume(frames), random_bank(1))

    @pytest.mark.parametrize("representation", ["image", "feature"])
    @pytest.mark.parametrize("first, last", [(550, 550), (549, 550)])
    def test_long_clip_names_the_frame_from_its_own_transition(self, rng, representation, first, last):
        # the frame is named from the first bad score's transition, not by a scan from frame 0
        frames = random_volume(rng, 600, dtype=np.float32).frames.copy()
        frames[first : last + 1, 2, 3, 0] = np.nan
        with pytest.raises(StructuralError, match=rf"^salience entry {first} \(frame {first}\) must be finite"):
            if representation == "image":
                image_diff_salience(FrameVolume(frames))
            else:
                feature_diff_salience(FrameVolume(frames), random_bank(1))


    def test_infinities_in_frame_0_leak_no_numpy_warning(self, rng):
        # two infinities under weights of opposite signs sum to inf - inf in the convolution
        frames = random_volume(rng, 6, dtype=np.float32).frames.copy()
        frames[0, 1, 2:4, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match=r"^salience entry 1 \(frame 0\)"):
                feature_diff_salience(FrameVolume(frames), random_bank(1))


@needs_openblas_x86_64
def test_non_finite_frames_named_under_prescott_kernel():
    # the feature path's non-finite scores come out of OpenBLAS's dgemm; another kernel must name the same frames
    tests, src = Path(__file__).parent, str(Path(motion.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{tests / 'test_motion.py'}::TestNonFiniteFrameNamed"],
        cwd=tests.parent, env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert " passed" in child.stdout and "skipped" not in child.stdout


class TestMotionDistributionOwnsProbs:
    def test_later_writes_to_the_callers_array_do_not_reach_it(self):
        base = np.array([0.1, 0.2, 0.3, 0.4])
        for m in (MotionDistribution(base[:]), MotionDistribution(base)):
            before = sampling.distribution_curve(m).values.tolist()
            base[0] = 0.9
            assert m.probs.tolist() == [0.1, 0.2, 0.3, 0.4]
            assert sampling.distribution_curve(m).values.tolist() == before
            base[0] = 0.1

    def test_probs_are_read_only(self):
        m = MotionDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            m.probs[0] = 1.0


class TestMotionDistributionRejects:
    @pytest.mark.parametrize("probs, message", [
        ([], "non-empty 1-d"),
        ([[0.5, 0.5]], "non-empty 1-d"),
        ([1.5, -0.5], "finite and >= 0"),
        ([np.nan, 1.0], "finite and >= 0"),
        ([np.inf, 0.0], "finite and >= 0"),
        ([0.5, 0.5 + 2e-9], "sum to 1 within 1e-9"),
        ([0.5, 0.5 - 2e-9], "sum to 1 within 1e-9"),
    ])
    def test_rejects_invalid_probs(self, probs, message):
        with pytest.raises(StructuralError, match=message):
            MotionDistribution(np.array(probs))

    def test_sum_within_tolerance_is_accepted(self):
        assert MotionDistribution(np.array([0.5, 0.5 + 5e-10])).t_count == 2


class TestNormalizeSalience:
    def test_hand_example(self):
        m = normalize_salience(SalienceVector(np.array([0.0, 3.0, 1.0])))
        assert m.probs.tolist() == [0.0, 0.75, 0.25]
        assert not m.degenerate_uniform

    def test_all_zero_falls_back_to_uniform(self):
        m = normalize_salience(SalienceVector(np.zeros(4)))
        assert m.probs.tolist() == [0.25] * 4
        assert m.degenerate_uniform

    def test_single_nonzero_entry(self):
        m = normalize_salience(SalienceVector(np.array([0.0, 5.0])))
        assert m.probs.tolist() == [0.0, 1.0]

    def test_sums_to_one(self, rng):
        for _ in range(50):
            t = int(rng.integers(1, 400))
            values = rng.uniform(0, 1e6, size=t)
            values[0] = 0.0
            m = normalize_salience(SalienceVector(values))
            assert abs(m.probs.sum() - 1.0) <= 1e-9


class TestSmoothDistribution:
    def test_hand_example_sqrt(self):
        m = MotionDistribution(np.array([0.64, 0.04, 0.16, 0.16]))
        out = smooth_distribution(m, 0.5)
        np.testing.assert_allclose(out.probs, [4 / 9, 1 / 9, 2 / 9, 2 / 9], atol=1e-12)

    def test_mu_one_is_identity(self, rng):
        probs = rng.dirichlet(np.ones(6))
        m = MotionDistribution(probs)
        out = smooth_distribution(m, 1.0)
        assert out is m
        np.testing.assert_array_equal(out.probs, m.probs)

    def test_mu_zero_is_uniform(self, rng):
        """Every p**0 is 1.0, 0**0 too, so T ones over their exact sum T give 1/T bit for bit."""
        for t, zeros, degenerate in itertools.product([1, 3, 7, 49, 4097], [False, True], [False, True]):
            probs = rng.dirichlet(np.ones(t))
            if zeros and t > 1:
                probs[rng.permutation(t)[: (t + 1) // 2]] = 0.0  # at least one zero and one nonzero
                probs /= probs.sum()
            m = MotionDistribution(probs, degenerate_uniform=degenerate)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = smooth_distribution(m, 0.0)
            assert out.probs.tobytes() == np.full(t, 1.0 / t).tobytes()
            assert out.degenerate_uniform is degenerate

    def test_zero_entries_stay_zero(self):
        m = MotionDistribution(np.array([0.0, 0.5, 0.5]))
        out = smooth_distribution(m, 0.5)
        assert out.probs[0] == 0.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigError):
            smooth_distribution(MotionDistribution(np.array([1.0])), -0.5)

    @pytest.mark.parametrize("mu", [-0.5, np.nan, np.inf])
    def test_bad_mu_message_says_finite_and_non_negative(self, mu):
        with pytest.raises(ConfigError, match=rf"^smoothing exponent must be finite and >= 0, got {mu!r}$"):
            smooth_distribution(MotionDistribution(np.array([1.0])), mu)

    def test_underflow_falls_back_to_uniform(self):
        m = MotionDistribution(np.full(4, 0.25))
        out = smooth_distribution(m, 1e9)
        assert out.probs.tolist() == [0.25] * 4
        assert out.degenerate_uniform

    def test_exponent_composes_multiplicatively(self):
        m = MotionDistribution(np.array([0.64, 0.04, 0.16, 0.16]))
        twice = smooth_distribution(smooth_distribution(m, 0.5), 0.5)
        once = smooth_distribution(m, 0.25)
        np.testing.assert_allclose(twice.probs, once.probs, atol=1e-12)

    def test_entropy_non_increasing_over_mu_grid(self, rng):
        for _ in range(100):
            t = int(rng.integers(2, 40))
            probs = rng.dirichlet(np.ones(t))
            m = MotionDistribution(probs)
            entropies = [shannon_entropy(smooth_distribution(m, mu).probs) for mu in MU_GRID]
            for a, b in zip(entropies, entropies[1:]):
                assert b <= a + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20), st.floats(0.0, 3.0))
    def test_output_is_distribution(self, raw, mu):
        values = np.array([0.0] + raw)
        m = normalize_salience(SalienceVector(values))
        out = smooth_distribution(m, mu)
        assert abs(out.probs.sum() - 1.0) <= 1e-9
        assert np.all(out.probs >= 0)


class TestVideoSalience:
    def test_dispatches_on_representation_with_a_seed_0_default_bank(self, rng):
        v = random_volume(rng, 5, h=9, w=7, c=3)
        assert motion.video_salience(v).values.tobytes() == image_diff_salience(v).values.tobytes()
        default = feature_diff_salience(v, random_bank(3, seed=0)).values.tobytes()
        assert motion.video_salience(v, "feature").values.tobytes() == default
        other = random_bank(3, seed=1)
        assert motion.video_salience(v, "feature", other).values.tobytes() == feature_diff_salience(v, other).values.tobytes()

    def test_rejects_unknown_representation(self, rng):
        with pytest.raises(ConfigError) as e:
            motion.video_salience(random_volume(rng, 3), "flow")
        assert str(e.value) == "unknown representation 'flow', expected one of ('image', 'feature')"


class TestDownsample:
    def test_factor_two_takes_every_other_pixel(self):
        frame = np.arange(16, dtype=np.uint8).reshape(1, 4, 4, 1)
        out = downsample_volume(FrameVolume(frame), 2)
        assert out.frames[0, :, :, 0].tolist() == [[0, 2], [8, 10]]

    def test_factor_one_is_identity(self, rng):
        v = random_volume(rng, 2)
        assert downsample_volume(v, 1) is v

    def test_bad_factor_rejected(self, rng):
        with pytest.raises(ConfigError):
            downsample_volume(random_volume(rng, 1), 0)

    def test_salience_still_valid_after_downsampling(self, rng):
        v = random_volume(rng, 4, h=9, w=11)
        s = image_diff_salience(downsample_volume(v, 3))
        assert s.values[0] == 0.0 and np.all(s.values >= 0)
