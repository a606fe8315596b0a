import math

import numpy as np
import pytest

from motionsample import FrameVolume, MotionDistribution, SalienceVector, normalize_salience
from motionsample.motion import _conv2d_window, _window_scratch


def write_pgm(path, pixels) -> None:
    """Binary P5, maxval 255; pixels is (H, W) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def write_ppm(path, pixels) -> None:
    """Binary P6, maxval 255; pixels is (H, W, 3) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = pixels.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def random_volume(rng, t, h=4, w=5, c=1, dtype=np.uint8) -> FrameVolume:
    if dtype == np.uint8:
        data = rng.integers(0, 256, size=(t, h, w, c), dtype=np.uint8)
    else:
        data = rng.uniform(0, 255, size=(t, h, w, c)).astype(np.float32)
    return FrameVolume(data)


def convolve_window(frame, bank, y0, y1, x0, x1, scratch=None, prev=None) -> np.ndarray:
    """Window y0:y1, x0:x1 of ``frame``'s features, (8, y1-y0, x1-x0): the strips ``_conv2d_window`` yields, stacked.

    Each strip is copied out before the next one reuses the scratch
    (by default one for the frame's shape); the strips must tile the
    window's rows in order.
    """
    scratch = scratch or _window_scratch(*frame.shape)
    strips = [(ys, ye, strip.copy()) for ys, ye, strip in _conv2d_window(frame, bank, y0, y1, x0, x1, scratch, prev)]
    assert [ys for ys, _, _ in strips] + [y1] == [y0] + [ye for _, ye, _ in strips]
    return np.concatenate([strip for _, _, strip in strips], axis=1)


def weights_at_the_bound(units: int) -> list[float]:
    """Three float32 weights whose |w| sum to ``units`` times the smallest one's ulp, 2**-43.

    A filter holding them meets README's uint8 exactness bound exactly when
    255 * units < 2**53.
    """
    tiny = 1 << 23  # 2**-20, the smallest weight, in ulps
    b = (units - tiny) % (1 << 22) + (1 << 23)  # no smaller than tiny, so its ulp is no smaller
    a = units - tiny - b  # a multiple of 2**22 below 2**46: 24 significant bits
    return [math.ldexp(x, -43) for x in (a, b, tiny)]


def random_distribution(rng, t, zero_runs=True) -> MotionDistribution:
    """A salience-shaped distribution: entry 0 is zero, optional zero plateaus."""
    values = rng.uniform(0.0, 1.0, size=t)
    values[0] = 0.0
    if zero_runs and t > 2:
        n_zero = int(rng.integers(0, t // 2 + 1))
        if n_zero:
            values[rng.choice(np.arange(1, t), size=min(n_zero, t - 1), replace=False)] = 0.0
    if values.sum() == 0.0 and t > 1:
        values[-1] = 1.0
    return normalize_salience(SalienceVector(values))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
