import contextlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from motionsample import (
    ConfigError,
    ConvKernelBank,
    FormatError,
    FrameVolume,
    conv2d_apply,
    feature_diff_salience,
    identity_bank,
    image_diff_salience,
    load_kernel_bank,
    random_bank,
    save_kernel_bank,
)
from motionsample.motion import _BAND_COLUMNS, _CHUNK_BYTES, _band_length, _conv2d_window, _window_scratch
from conftest import convolve_window, needs_openblas_x86_64, weights_at_the_bound
from oracles import loop_conv2d, tensordot_conv2d
import motionsample


class TestBankConstruction:
    def test_shape_accessors(self):
        bank = identity_bank(3)
        assert bank.kernels.shape == (8, 3, 7, 7)
        assert bank.channels == 3

    def test_rejects_wrong_filter_count(self):
        with pytest.raises(ConfigError):
            ConvKernelBank(np.zeros((4, 1, 7, 7), dtype=np.float32))

    def test_rejects_wrong_kernel_size(self):
        with pytest.raises(ConfigError):
            ConvKernelBank(np.zeros((8, 1, 5, 5), dtype=np.float32))

    def test_rejects_bad_channels(self):
        with pytest.raises(ConfigError):
            ConvKernelBank(np.zeros((8, 2, 7, 7), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights_naming_the_filter(self, bad):
        k = np.zeros((8, 3, 7, 7))
        k[2, 1, 4, 5] = bad
        k[5, 0, 0, 0] = np.nan  # only the first is named
        with pytest.raises(ConfigError, match=r"^kernel weights must be finite, got -?(nan|inf) in filter 2$"):
            ConvKernelBank(k)

    @pytest.mark.parametrize("big", [1e40, -1e40])
    def test_weight_past_float32_range_is_named_as_given(self, big):
        k = np.zeros((8, 1, 7, 7))
        k[3, 0, 2, 2] = big
        k[0, 0, 0, 0] = np.finfo(np.float32).max  # the largest float32 itself is fine
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast overflow warning on the way
            with pytest.raises(ConfigError, match=rf"^kernel weights must be finite, got {re.escape(f'{big:g}')} in filter 3$"):
                ConvKernelBank(k)

    def test_random_bank_is_seed_deterministic(self):
        a = random_bank(1, seed=7)
        b = random_bank(1, seed=7)
        c = random_bank(1, seed=8)
        np.testing.assert_array_equal(a.kernels, b.kernels)
        assert not np.array_equal(a.kernels, c.kernels)

    def test_random_bank_stddev(self):
        k = random_bank(3, seed=0).kernels
        assert abs(float(k.std()) - 1 / 49) < 0.2 / 49

    def test_identity_bank_layout(self):
        k = identity_bank(1).kernels
        assert k[0, 0, 3, 3] == 1.0
        assert float(np.abs(k).sum()) == 1.0


class TestConv2d:
    def test_all_ones_kernel_covers_padded_image(self):
        frame = np.ones((3, 3, 1), dtype=np.float32)
        kernels = np.zeros((8, 1, 7, 7), dtype=np.float32)
        kernels[0] = 1.0
        out = conv2d_apply(frame, ConvKernelBank(kernels))
        assert out.shape == (8, 3, 3)
        np.testing.assert_array_equal(out[0], np.full((3, 3), 9.0))
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_zero_kernels_give_zero_maps(self, rng):
        frame = rng.uniform(size=(4, 5, 1)).astype(np.float32)
        out = conv2d_apply(frame, ConvKernelBank(np.zeros((8, 1, 7, 7), np.float32)))
        np.testing.assert_array_equal(out, 0.0)

    def test_center_weight_two_on_single_pixel(self):
        frame = np.array([[[5.0]]], dtype=np.float32)
        kernels = np.zeros((8, 1, 7, 7), dtype=np.float32)
        kernels[0, 0, 3, 3] = 2.0
        out = conv2d_apply(frame, ConvKernelBank(kernels))
        assert out[0].tolist() == [[10.0]]

    def test_preserves_spatial_size(self, rng):
        frame = rng.uniform(size=(9, 13, 3)).astype(np.float32)
        assert conv2d_apply(frame, random_bank(3)).shape == (8, 9, 13)

    def test_matches_loop_oracle(self, rng):
        # random asymmetric kernels pin the cross-correlation orientation
        for c in (1, 3):
            frame = rng.uniform(-1, 1, size=(5, 6, c))
            bank = random_bank(c, seed=int(rng.integers(1000)))
            fast = conv2d_apply(frame, bank)
            slow = loop_conv2d(frame, bank.kernels)
            np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            conv2d_apply(rng.uniform(size=(3, 3, 3)).astype(np.float32), identity_bank(1))

    def test_rejects_non_3d_frame(self):
        with pytest.raises(ConfigError):
            conv2d_apply(np.zeros((3, 3), dtype=np.float32), identity_bank(1))


# the last four stress the band layout's flat row offsets: rows no wider than
# the kernel, a one-column frame and odd widths
_REFERENCE_SHAPES = [(1, 1), (2, 3), (33, 17), (64, 64), (112, 112), (1, 7), (7, 1), (5, 6), (97, 131)]


class TestConv2dAgainstTensordot:
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("hw", _REFERENCE_SHAPES)
    def test_uint8_bitwise(self, rng, hw, c):
        frame = rng.integers(0, 256, size=(*hw, c), dtype=np.uint8)
        bank = random_bank(c, seed=int(rng.integers(1000)))
        out = conv2d_apply(frame, bank)
        assert out.dtype == np.float64 and out.shape == (8, *hw) and out.flags.c_contiguous
        assert out.tobytes() == tensordot_conv2d(frame, bank.kernels).tobytes()

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("hw", _REFERENCE_SHAPES)
    def test_float32_within_tolerance(self, rng, hw, c):
        frame = rng.uniform(0, 255, size=(*hw, c)).astype(np.float32)
        bank = random_bank(c, seed=int(rng.integers(1000)))
        out = conv2d_apply(frame, bank)
        assert out.dtype == np.float64 and out.shape == (8, *hw) and out.flags.c_contiguous
        np.testing.assert_allclose(out, tensordot_conv2d(frame, bank.kernels), rtol=1e-10, atol=1e-12)


def _band_columns(h: int, w: int) -> int:
    """Columns of the bands of h rows of an (h, w) window: h*(w+6)+6, rounded up to 64."""
    return -(-(h * (w + 6) + 6) // 64) * 64


def _strips(h: int, w: int) -> int:
    """Strips of an (h, w) window: the fewest whose bands, of near-equal row counts, stay within 4160 columns."""
    return -(-h // max(1, (4160 - 6) // (w + 6)))


def test_reference_shapes_span_several_strips():
    # a strip that reads fewer than the 3 halo rows above and below it changes
    # outputs only where a window runs in more than one strip
    assert _BAND_COLUMNS == 4160
    wide = [hw for hw in _REFERENCE_SHAPES if _strips(*hw) > 1]
    assert wide == [(64, 64), (112, 112), (97, 131)]
    assert [_strips(*hw) for hw in wide] == [2, 4, 4]


def test_rows_wider_than_the_band_cap_run_one_row_per_strip(rng):
    # a 4150-pixel row makes bands of 4162 columns, 4224 once rounded up: past
    # the cap, so each strip is one row and the scratch holds that wider band
    h, w, c = 3, 4150, 1
    frame = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    bank = random_bank(c, seed=0)
    strips = _conv2d_window(frame, bank, 0, h, 0, w, _window_scratch(h, w, c))
    assert [ye - ys for ys, ye, _ in strips] == [1, 1, 1]
    assert conv2d_apply(frame, bank).tobytes() == tensordot_conv2d(frame, bank.kernels).tobytes()


# (h, w, c, stacked_threaded): shapes whose one stacked (7*8, 7*C) band product
# over the whole frame sat just below and above OpenBLAS's one-thread limit
# (10**6 multiply-adds), and ones whose stacked product took about 2.7e6-2.8e6.
# A per-tap product is (8, 7*C) times the bands of one strip, at most 4160
# columns here, so at most 8*21*4160 = 0.70e6 multiply-adds at C = 3: every
# one now stays below the limit
_THREADING_EDGES = [(25, 26, 3, False), (27, 26, 3, True), (71, 26, 3, True), (73, 26, 3, True),
                    (77, 26, 1, False), (79, 26, 1, True), (217, 26, 1, True), (219, 26, 1, True)]


@pytest.mark.parametrize("h, w, c, stacked_threaded", _THREADING_EDGES)
def test_uint8_bitwise_on_each_side_of_the_dgemm_threading_limit(rng, h, w, c, stacked_threaded):
    assert (56 * 7 * c * _band_columns(h, w) > 10**6) == stacked_threaded
    assert 8 * 7 * c * _band_columns(-(-h // _strips(h, w)), w) <= 8 * 21 * _BAND_COLUMNS < 10**6
    frame = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    bank = random_bank(c, seed=0)
    assert conv2d_apply(frame, bank).tobytes() == tensordot_conv2d(frame, bank.kernels).tobytes()


def _edge_windows(h: int, w: int):
    """Windows at each corner, border and the middle of an (h, w) frame, and the whole frame."""
    rows = [(0, min(h, 4)), (h // 3, h // 3 + max(1, h // 3)), (max(h - 4, 0), h), (0, h)]
    cols = [(0, min(w, 4)), (w // 3, w // 3 + max(1, w // 3)), (max(w - 4, 0), w), (0, w)]
    return [(y0, y1, x0, x1) for y0, y1 in rows for x0, x1 in cols]


class TestConv2dWindow:
    # random_bank(3, seed=5) misses the uint8 exactness bound, so sum order shows there too;
    # at C = 3 the 40x41, 27x26 and 71x26 frames ran a threaded dgemm under one stacked
    # product, and a 112x112 frame's whole-height windows run in four strips
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("hw", [(20, 24), (5, 6), (3, 11), (12, 4), (1, 1), (40, 41), (27, 26), (71, 26),
                                    (112, 112)])
    def test_window_has_the_whole_frame_bits(self, rng, hw, c, dtype):
        if dtype == np.uint8:
            frame = rng.integers(0, 256, size=(*hw, c), dtype=np.uint8)
        else:
            frame = rng.uniform(0, 255, size=(*hw, c)).astype(np.float32)
        bank = random_bank(c, seed=5)
        whole = conv2d_apply(frame, bank)
        scratch = _window_scratch(*frame.shape)  # shared by every window, as in a clip
        for y0, y1, x0, x1 in _edge_windows(*hw):
            window = convolve_window(frame, bank, y0, y1, x0, x1, scratch)
            assert window.tobytes() == whole[:, y0:y1, x0:x1].tobytes(), (y0, y1, x0, x1)

    # the whole 6x25 frame, then windows of that size inside a 20x40 frame, at its top right and bottom left
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("hw, y0, x0", [((6, 25), 0, 0), ((20, 40), 2, 5), ((20, 40), 0, 15), ((20, 40), 14, 0)])
    def test_window_whose_bands_fill_whole_column_blocks_has_the_whole_frame_bits(self, rng, dtype, hw, y0, x0):
        # 6 rows of Wp = 31: the band length h*Wp + 6 = 192 needs no rounding, so the
        # last filter's last output sits in the output block's last column
        h, w, c = 6, 25, 3
        assert _band_length(h, w + 6) == h * (w + 6) + 6 == 3 * 64
        frame = rng.uniform(0, 255, size=(*hw, c)).astype(dtype)
        bank = random_bank(c, seed=5)
        window = convolve_window(frame, bank, y0, y0 + h, x0, x0 + w)
        whole = conv2d_apply(frame, bank)
        assert window.tobytes() == whole[:, y0 : y0 + h, x0 : x0 + w].tobytes()


def _exact_sum_bits(bank: ConvKernelBank) -> float:
    """Bits that 255 * sum|w| spans in units of the smallest nonzero weight's ulp, per filter.

    Every product of a uint8 pixel and a float32 weight w is a multiple of
    ulp(w) = 2**(frexp(w).exp - 24), so every partial sum of a filter's
    products is a multiple of its smallest ulp and at most 255 * sum|w|.
    Below 53 bits each such sum is a float64, so it is exact in any order.
    """
    k = bank.kernels.astype(np.float64).reshape(bank.kernels.shape[0], -1)
    ulp = np.ldexp(1.0, np.frexp(k)[1] - 24)
    smallest = np.where(k != 0, ulp, np.inf).min(axis=1)
    return float(np.log2(255 * np.abs(k).sum(axis=1) / smallest).max())


# random_bank(C, seed=0) is the CLI's bank without --weights (44.75 and 48.07
# bits); not every seed passes, random_bank(3, seed=5) needs 54.24
@pytest.mark.parametrize("c, seed, exact", [(1, 0, True), (3, 0, True), (3, 5, False)])
def test_default_bank_sums_uint8_exactly_in_any_order(c, seed, exact):
    bank = random_bank(c, seed=seed)
    assert (_exact_sum_bits(bank) < 53) == bank._sums_uint8_exactly == exact


@pytest.mark.parametrize("bank", [identity_bank(1), identity_bank(3),
                                  ConvKernelBank(np.zeros((8, 3, 7, 7), np.float32))])
def test_banks_with_zero_filters_meet_the_bound(bank):
    assert bank._sums_uint8_exactly


@pytest.mark.parametrize("units, exact", [(2**53 // 255, True), (2**53 // 255 + 1, False)])
def test_bound_property_is_exact_at_its_edge(units, exact):
    # 255 * units is 2**53 - 32, then 2**53 + 223: the float oracle's log2 cannot be trusted this close
    k = np.zeros((8, 3, 7, 7))
    k[5, 1, 2:5, 3] = weights_at_the_bound(units)
    k[0, 0, 3, 3] = 1.0
    assert ConvKernelBank(k)._sums_uint8_exactly == exact


def test_bound_property_agrees_with_the_oracle_on_random_banks():
    # in two banks of three, about half the filters get one small weight whose
    # ulp puts the filter near 53 bits, so both answers come up often
    rng = np.random.default_rng(2401)
    answers, near = [], 0
    for i in range(1000):
        c = (1, 3)[i % 2]
        k = rng.normal(0.0, rng.uniform(1e-3, 10.0), size=(8, c, 7, 7)).astype(np.float32)
        if i % 3:
            for f in np.flatnonzero(rng.random(8) < 0.5):
                e = round(math.log2(255 * float(np.abs(k[f]).sum(dtype=np.float64))) + 24 - rng.uniform(50, 56))
                k[f, 0, 0, 0] = math.ldexp(rng.uniform(0.5, 1.0), e) * rng.choice([-1, 1])
        bank = ConvKernelBank(k)
        bits = _exact_sum_bits(bank)
        near += abs(bits - 53) < 1
        answers.append(bank._sums_uint8_exactly)
        assert answers[-1] == (bits < 53), (i, bits)
    assert near > 100 and 200 < sum(answers) < 800, (near, sum(answers))


@pytest.mark.parametrize("hwc", [(1, 1, 1), (5, 6, 3), (64, 64, 3)])
def test_window_scratch_starts_on_64_byte_boundaries(hwc):
    # the feature loop's vector adds read and write these buffers; left where
    # the heap put them, they made feature salience ~25% slower on an AVX-512 Xeon
    assert [buf.ctypes.data % 64 for buf in _window_scratch(*hwc)] == [0, 0, 0, 0]


def test_scratch_stays_below_the_im2col_matrix(rng):
    h, w, c = 112, 112, 3
    frame = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    bank = random_bank(c, seed=0)
    tracemalloc.start()
    try:
        conv2d_apply(frame, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * 49 * h * w * 8


def test_feature_salience_scratch_does_not_grow_with_t(rng):
    h, w, c = 64, 64, 3
    bank = random_bank(c, seed=0)
    feature_map = 8 * h * w * 8

    def peak_of(salience, *args) -> int:
        tracemalloc.start()
        try:
            salience(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scratch = peak_of(conv2d_apply, rng.integers(0, 256, size=(h, w, c), dtype=np.uint8), bank)
    # every frame changes every pixel, so every window is the whole frame
    clips = [FrameVolume(rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8)) for t in (20, 200)]
    for clip in clips:  # numpy's first-call allocations stay out of the peaks
        feature_diff_salience(clip, bank)
    short, long = (peak_of(feature_diff_salience, clip, bank) for clip in clips)
    assert long - short <= 8 * (200 - 20) + 64 * 1024  # the float64 score vector, plus slack
    assert long < scratch + 2 * feature_map  # the cached map, plus slack


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
def test_feature_salience_scratch_does_not_grow_with_frame_height(rng, dtype):
    # the strip buffers are sized by the frame's width; only the (H, W) norm
    # map, the change masks and a float32 clip's cached (8, H, W) feature map
    # grow with H (the clip itself is allocated before the peaks are taken)
    t, w, c = 4, 64, 3
    bank = random_bank(c, seed=0)

    def peak_of(h: int) -> int:
        video = FrameVolume(rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8).astype(dtype))
        feature_diff_salience(video, bank)  # numpy's first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            feature_diff_salience(video, bank)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def frame_sized(h: int) -> int:
        masks = max(1, min(t - 1, _CHUNK_BYTES // (h * w * c))) * h * w * c
        return 8 * h * w + masks + (dtype == np.float32) * 8 * 8 * h * w

    low, tall = peak_of(64), peak_of(512)
    assert tall - low <= frame_sized(512) - frame_sized(64) + 16 * 1024  # plus slack for row and column indices


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
def test_small_frames_get_scratch_sized_by_the_frame(rng, dtype):
    # the strip buffers hold no more than the whole frame's band: an 8x8x3
    # clip's band is 14*8+6 = 118 columns, 128 once rounded, not the 4160 of
    # the cap, so its feature salience peaks far below the cap's 1.3 MiB
    bank = random_bank(3, seed=0)
    video = FrameVolume(rng.integers(0, 256, size=(4, 8, 8, 3), dtype=np.uint8).astype(dtype))
    feature_diff_salience(video, bank)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        feature_diff_salience(video, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_uint8_feature_salience_keeps_no_feature_map(rng):
    # beside the convolution scratch, a uint8 clip under a bank that meets the
    # bound holds only arrays of an eighth of an (8, H, W) map or less (norms,
    # a window's channel sum, its difference); a float32 clip caches the map
    h, w, c = 64, 64, 3
    bank = random_bank(c, seed=0)
    frames = rng.integers(0, 256, size=(6, h, w, c), dtype=np.uint8)
    scratch, feature_map = sum(buf.nbytes for buf in _window_scratch(h, w, c)), 8 * h * w * 8

    def peak_of(video: FrameVolume) -> int:
        feature_diff_salience(video, bank)  # numpy's first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            feature_diff_salience(video, bank)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(FrameVolume(frames)) < scratch + feature_map * 3 // 4
    assert peak_of(FrameVolume(frames.astype(np.float32))) > scratch + feature_map


def test_uint8_image_salience_scratch_does_not_grow_with_t(rng):
    h, w, c = 112, 112, 3
    frame_bytes = h * w * c

    def peak_of(t: int) -> int:
        video = FrameVolume(rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8))
        tracemalloc.start()
        try:
            image_diff_salience(video)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_of(20), peak_of(400)
    assert long - short <= 8 * (400 - 20) + 8 * 1024  # the float64 score vector, plus slack
    assert long < 2 * _CHUNK_BYTES + 2 * frame_bytes  # two difference buffers at the chunk cap


@pytest.mark.parametrize("n", [257, 273])
def test_uint8_image_salience_rows_past_a_group_stay_within_the_chunk_bytes(rng, n):
    # rows of 257 and 273 values pad to two whole groups: no copy of a chunk's first group is taken
    t = 2000
    video = FrameVolume(rng.integers(0, 256, size=(t, 1, n, 1), dtype=np.uint8))
    image_diff_salience(video)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        image_diff_salience(video)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _CHUNK_BYTES + 8 * t + 8 * 1024  # two difference buffers, the float64 scores, slack


def test_float32_image_salience_scratch_does_not_grow_with_t(rng):
    h, w, c = 56, 56, 3
    frame64 = 8 * h * w * c

    def peak_of(t: int) -> int:
        video = FrameVolume(rng.uniform(0, 255, size=(t, h, w, c)).astype(np.float32))
        tracemalloc.start()
        try:
            image_diff_salience(video)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_of(20), peak_of(400)
    assert long - short <= 8 * (400 - 20) + 8 * 1024  # the float64 score vector, plus slack
    assert long < 3 * frame64  # two float64 frame buffers, plus slack


# Printed by a child process under another OpenBLAS kernel and by this one.
_UINT8_SALIENCE = """
import numpy as np
from motionsample import FrameVolume, feature_diff_salience, random_bank
rng = np.random.default_rng(5)
for h, w, c in ((8, 8, 3), (33, 17, 1), (64, 64, 3)):
    frames = rng.integers(0, 256, size=(6, h, w, c), dtype=np.uint8)
    print(feature_diff_salience(FrameVolume(frames), random_bank(c, seed=0)).values.tobytes().hex())
"""


@needs_openblas_x86_64
def test_uint8_feature_salience_same_bytes_under_prescott_kernel():
    # README: uint8 input gives the same bytes under every BLAS kernel
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_UINT8_SALIENCE, {})
    src = str(Path(motionsample.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _UINT8_SALIENCE], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout == here.getvalue()


# Run in children under the Prescott kernel on 1, 2 and 3 OpenBLAS threads:
# threads would split a dgemm by columns, and a split point off the kernel's
# column blocks would leave columns to its edge kernel. Every per-tap product
# stays below OpenBLAS's one-thread limit, so the thread count should not show.
_FLOAT32_WINDOWS = f"""
import numpy as np
from motionsample import conv2d_apply, random_bank
from motionsample.motion import _conv2d_window, _window_scratch
rng = np.random.default_rng(3)
frame = rng.uniform(0, 255, size=(64, 64, 3)).astype(np.float32)
bank = random_bank(3, seed=0)
whole = conv2d_apply(frame, bank)
scratch = _window_scratch(64, 64, 3)
windows = {[*_edge_windows(64, 64), (3, 60, 0, 64), (9, 64, 5, 61), (0, 51, 13, 64), (20, 63, 1, 50)]!r}
for y0, y1, x0, x1 in windows:
    strips = [strip.tobytes() == whole[:, ys:ye, x0:x1].tobytes()
              for ys, ye, strip in _conv2d_window(frame, bank, y0, y1, x0, x1, scratch)]
    print(all(strips))
"""


@needs_openblas_x86_64
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_float32_windows_have_the_whole_frame_bits_under_prescott_kernel(threads):
    src = str(Path(motionsample.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _FLOAT32_WINDOWS], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.split() == ["True"] * 20


class TestWeightFile:
    def test_round_trip(self, tmp_path, rng):
        bank = random_bank(3, seed=5)
        path = tmp_path / "bank.mgkb"
        save_kernel_bank(bank, path)
        loaded = load_kernel_bank(path)
        np.testing.assert_array_equal(loaded.kernels, bank.kernels)
        assert path.stat().st_size == 16 + 8 * 3 * 7 * 7 * 4

    def test_header_layout(self, tmp_path):
        path = tmp_path / "bank.mgkb"
        save_kernel_bank(identity_bank(1), path)
        raw = path.read_bytes()
        assert raw[:4] == b"MGKB"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert raw[8:16] == b"\x00" * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bank.mgkb"
        save_kernel_bank(identity_bank(1), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_kernel_bank(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bank.mgkb"
        save_kernel_bank(identity_bank(1), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="expected"):
            load_kernel_bank(path)

    def test_non_finite_weight_is_a_format_error_naming_file_and_filter(self, tmp_path):
        path = tmp_path / "nan.mgkb"
        save_kernel_bank(identity_bank(1), path)
        raw = bytearray(path.read_bytes())
        raw[16 + 4 * 7 * 49 : 16 + 4 * 7 * 49 + 4] = struct.pack("<f", np.inf)  # filter 7, first weight
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: kernel weights must be finite, got inf in filter 7$"):
            load_kernel_bank(path)

    @pytest.mark.parametrize("channels", [0, 2, 4])
    def test_bad_channel_count_names_file(self, tmp_path, channels):
        # the payload has the size the header implies, so only the count is wrong
        path = tmp_path / "bank.mgkb"
        path.write_bytes(struct.pack("<4sI8x", b"MGKB", channels) + bytes(8 * channels * 7 * 7 * 4))
        message = f"^{re.escape(str(path))}: kernel channel count must be 1 or 3, got {channels}$"
        with pytest.raises(FormatError, match=message):
            load_kernel_bank(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "bank.mgkb"
        path.write_bytes(b"MGKB")
        with pytest.raises(FormatError):
            load_kernel_bank(path)
