"""Frame-index selection from a cumulative motion curve.

The curve is the prefix sum of the per-frame motion distribution, treated as
piecewise-linear between integer anchors.  Motion-guided sampling splits the
y-axis into N even intervals, draws one value per interval, and inverts the
curve; dense motion regions therefore receive proportionally more picks.
Baselines: segment (one pick per equal temporal segment), fixed stride,
top-magnitude, and a windowed clip variant of motion-guided sampling.

All indices in sample plans are zero-based.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StructuralError
from .motion import (DISTRIBUTION_SUM_TOL, ConvKernelBank, FrameVolume, MotionDistribution, SalienceVector,
                     normalize_salience, smooth_distribution, video_salience)

STRATEGIES = ("mg", "segment", "stride", "topk", "mg-clip")
_MAX_PICKS = 2**16  # n_frames cap: a plan's memory grows with N, not with the video


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator (PCG64) for reproducible draws."""
    return np.random.default_rng(seed)


def video_seed(seed: int, ordinal: int) -> int:
    """Per-video stream in batch runs: base seed XOR video ordinal."""
    return (int(seed) ^ int(ordinal)) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class CumulativeCurve:
    """Anchors (k, F_k) for k in 0..T; F_0 = 0, F_T = 1, non-decreasing.

    An F_T within 1e-9 of 1 is accepted and stored as exactly 1.
    """

    values: np.ndarray

    def __post_init__(self):
        f = np.array(self.values, dtype=np.float64)  # own copy, pinned and frozen below
        if f.ndim != 1 or f.size < 2:
            raise StructuralError("curve needs at least anchors (0, F_0) and (1, F_1)")
        if not np.all(np.isfinite(f)):
            raise StructuralError("curve values must be finite")
        if f[0] != 0.0:
            raise StructuralError(f"F_0 must be 0, got {f[0]!r}")
        if abs(f[-1] - 1.0) > DISTRIBUTION_SUM_TOL:
            raise StructuralError(f"F_T must be 1 within 1e-9, got {f[-1]!r}")
        if (f[1:] < f[:-1]).any():
            raise StructuralError("curve must be non-decreasing")
        object.__setattr__(self, "values", _pin_end(f))


def store_integers(obj, names: tuple[str, ...]) -> None:
    """Store each named field of a frozen dataclass as ``operator.index`` of it; anything else is a ConfigError naming it."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters for one sampling run.

    ``deterministic`` replaces every random draw with its interval midpoint
    (or segment center / zero start), making runs reproducible without an RNG.
    The integer fields take anything ``operator.index`` accepts (numpy
    integers too) and are stored as Python ``int``; floats are rejected.
    ``mu`` takes any real number (numpy floats too) and is stored as a
    Python ``float``; ``deterministic`` takes a bool (numpy bools too) and is
    stored as a Python ``bool``.
    ``n_frames`` is capped at 65536: a plan's memory follows N, not the
    video.  Strategy-specific fields are range-checked only for the strategy
    they apply to.
    """

    n_frames: int = 8
    mu: float = 0.5
    strategy: str = "mg"
    stride: int = 4
    window_len: int = 32
    seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        store_integers(self, ("n_frames", "stride", "window_len", "seed"))
        if not 1 <= self.n_frames <= _MAX_PICKS:
            raise ConfigError(f"n_frames must be an integer in 1..{_MAX_PICKS}, got {self.n_frames!r}")
        if not isinstance(self.mu, numbers.Real):
            raise ConfigError(f"mu must be a real number, got {self.mu!r}")
        object.__setattr__(self, "mu", float(self.mu))
        if not isinstance(self.deterministic, (bool, np.bool_)):
            raise ConfigError(f"deterministic must be a bool, got {self.deterministic!r}")
        object.__setattr__(self, "deterministic", bool(self.deterministic))
        if not math.isfinite(self.mu) or self.mu < 0:
            raise ConfigError(f"mu must be finite and >= 0, got {self.mu!r}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if self.strategy == "stride" and self.stride < 1:
            raise ConfigError(f"stride must be an integer >= 1, got {self.stride!r}")
        if self.strategy == "mg-clip" and self.window_len < 1:
            raise ConfigError(f"window_len must be an integer >= 1, got {self.window_len!r}")


@dataclass(frozen=True)
class SamplePlan:
    """Selected frame indices plus provenance.

    The strategy that drew it is ``config.strategy``.  ``draws`` holds the
    per-pick y values for the motion-guided strategies; ``window_start`` is
    the clip offset for mg-clip.
    """

    indices: tuple[int, ...]
    config: SamplerConfig
    draws: tuple[float, ...] | None = None
    window_start: int | None = None

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        if len(idx) != self.config.n_frames:
            raise StructuralError(
                f"plan has {len(idx)} indices, config wants {self.config.n_frames}"
            )
        if min(idx) < 0:  # idx is not empty: n_frames >= 1
            raise StructuralError("frame indices must be >= 0")
        if not all(map(operator.le, idx, idx[1:])):
            raise StructuralError(f"indices must be non-decreasing, got {idx}")
        object.__setattr__(self, "indices", idx)
        if self.draws is not None:
            object.__setattr__(self, "draws", tuple(map(float, self.draws)))


def _pin_end(f: np.ndarray) -> np.ndarray:
    """Clamp anchors to 1, pin F_T to 1 and freeze them in place: every y in [0, 1] gets an anchor at or above it."""
    np.minimum(f, 1.0, out=f)
    f[-1] = 1.0
    f.flags.writeable = False
    return f


def _anchors(probs: np.ndarray) -> np.ndarray:
    """Prefix-sum probabilities into curve anchors, pinning F_T to exactly 1."""
    f = np.empty(probs.size + 1, dtype=np.float64)
    f[0] = 0.0
    np.cumsum(probs, out=f[1:])
    if abs(f[-1] - 1.0) > DISTRIBUTION_SUM_TOL:
        raise StructuralError(f"distribution sums to {f[-1]!r}, cannot build curve")
    return _pin_end(f)


def build_curve(m: MotionDistribution) -> CumulativeCurve:
    """The distribution's ``_anchors``, checked by ``CumulativeCurve``."""
    return CumulativeCurve(_anchors(m.probs))


def distribution_curve(m: MotionDistribution) -> CumulativeCurve:
    """The curve of ``m``, built and validated once and kept on the frozen instance.

    ``MotionDistribution`` owns a read-only copy of its probabilities, so the
    kept curve cannot go stale.  Threads racing on a first call each build
    the same curve and either one is kept.
    """
    curve = m.__dict__.get("_curve")
    if curve is None:
        curve = build_curve(m)
        object.__setattr__(m, "_curve", curve)
    return curve


def _invert(f: np.ndarray, ys) -> np.ndarray:
    """invert_curve over curve anchors ``f`` and a sequence of y values in [0, 1]: zero-based indices, int64."""
    ys = np.asarray(ys, dtype=np.float64)
    k = f.searchsorted(ys, side="left")  # 0 only for y = 0, since F_0 = 0
    if not k.all():
        k[k == 0] = f.searchsorted(0.0, side="right")  # y = 0: the first rising anchor
    k1 = k - 1
    lo = f.take(k1)
    x = k1 + (ys - lo) / (f.take(k) - lo)
    r = (x + 0.5).astype(np.int64)  # F_{k-1} <= y <= F_k: x in [k-1, k], so this floors and stays <= T
    np.maximum(r, 1, out=r)
    return r - 1


def invert_curve(curve: CumulativeCurve, y: float) -> int:
    """Map a cumulative value y in [0, 1] to a zero-based frame index.

    The leftmost segment with F_{k-1} <= y <= F_k and positive slope is
    interpolated to a real x; plateaus therefore resolve to their leftmost
    preimage.  x rounds half-up to a 1-based frame number, clamped to [1, T].
    """
    if not (0.0 <= y <= 1.0):
        raise ConfigError(f"y must lie in [0, 1], got {y!r}")
    return int(_invert(curve.values, [y])[0])


def _resolve_rng(cfg: SamplerConfig) -> np.random.Generator | None:
    return None if cfg.deterministic else make_rng(cfg.seed)


def _require_strategy(cfg: SamplerConfig, expected: str) -> None:
    if cfg.strategy != expected:
        raise ConfigError(f"config strategy is {cfg.strategy!r}, operation needs {expected!r}")


def _interval_draws(n: int, rng: np.random.Generator | None) -> list[float]:
    """One y per interval (i/N, (i+1)/N), endpoints excluded; midpoints when rng is None.

    ``lo + (hi - lo) * d`` is the expression of numpy's scalar
    ``uniform(lo, hi)``, and the doubles come from one ``rng.random(n)``
    block, then one ``rng.random()`` per redraw, so the draws and the stream
    equal N scalar ``uniform`` calls.  A y on an endpoint (about N * 2**-53
    per plan) is redrawn in place, by the same loop.
    """
    if rng is None:
        return [(2 * i + 1) / (2 * n) for i in range(n)]
    doubles = itertools.chain(rng.random(n).tolist(), iter(rng.random, None))
    ys = []
    for i, d in zip(range(n), doubles):  # range first: zip stops without taking a double
        lo, hi = i / n, (i + 1) / n
        y = lo + (hi - lo) * d
        while not lo < y < hi:
            y = lo + (hi - lo) * next(doubles)
        ys.append(y)
    return ys


def mg_sample(curve: CumulativeCurve, cfg: SamplerConfig) -> SamplePlan:
    """Motion-guided sampling: invert one draw per even y-interval."""
    _require_strategy(cfg, "mg")
    ys = _interval_draws(cfg.n_frames, _resolve_rng(cfg))
    return SamplePlan(_invert(curve.values, ys).tolist(), cfg, draws=ys)


def segment_sample(t_count: int, cfg: SamplerConfig) -> SamplePlan:
    """One frame per equal temporal segment [(i-1)T/N, iT/N)."""
    _require_strategy(cfg, "segment")
    if not isinstance(t_count, numbers.Integral) or t_count < 1:
        raise StructuralError(f"t_count must be an integer >= 1, got {t_count!r}")
    rng = _resolve_rng(cfg)
    n = cfg.n_frames
    edges = [i * t_count / n for i in range(n + 1)]
    if rng is None:
        pos = [lo + t_count / (2 * n) for lo in edges[:-1]]
    else:  # uniform(lo, hi) per segment
        pos = [lo + (hi - lo) * d for lo, hi, d in zip(edges, edges[1:], rng.random(n).tolist())]
    return SamplePlan([min(math.floor(p), t_count - 1) for p in pos], cfg)


def stride_sample(t_count: int, cfg: SamplerConfig) -> SamplePlan:
    """Arithmetic progression from a random start; overruns clamp to the last frame."""
    _require_strategy(cfg, "stride")
    if not isinstance(t_count, numbers.Integral) or t_count < 1:
        raise StructuralError(f"t_count must be an integer >= 1, got {t_count!r}")
    rng = _resolve_rng(cfg)
    n, s = cfg.n_frames, cfg.stride
    hi = max(0, t_count - 1 - s * (n - 1))
    start = 0 if rng is None else int(rng.integers(0, hi + 1))
    indices = [min(start + s * i, t_count - 1) for i in range(n)]
    return SamplePlan(tuple(indices), cfg)


def topk_sample(m: MotionDistribution, cfg: SamplerConfig) -> SamplePlan:
    """The N frames with the largest probability, ties to the smaller index.

    A partial selection finds the N-th largest value v; every frame above v
    is kept, and the first frames at exactly v fill the rest.  ``-0.0 == 0.0``,
    so signed zeros tie as they would in a stable sort.
    """
    _require_strategy(cfg, "topk")
    n, p = cfg.n_frames, m.probs
    if n > p.size:
        raise ConfigError(f"topk needs n_frames <= t_count, got {n} > {p.size}")
    v = np.partition(p, p.size - n)[p.size - n]
    keep = p >= v  # at least n frames, since v is the n-th largest
    surplus = np.count_nonzero(keep) - n
    if surplus:  # more frames at v than places left: drop the last of them
        keep[np.flatnonzero(p == v)[-surplus:]] = False
    return SamplePlan(np.flatnonzero(keep).tolist(), cfg)


def windowed_clip_sample(m: MotionDistribution, cfg: SamplerConfig) -> SamplePlan:
    """Motion-guided sampling restricted to a contiguous window of frames.

    The window start is drawn first, then the interval draws, both from the
    one generator seeded by ``cfg.seed``.  Draws are recorded in window-curve
    coordinates.
    """
    _require_strategy(cfg, "mg-clip")
    t = m.t_count
    rng = _resolve_rng(cfg)
    start = 0 if rng is None else int(rng.integers(0, max(0, t - cfg.window_len) + 1))
    sub = m.probs[start : start + cfg.window_len]
    total = float(sub.sum())
    # build_curve's anchors without CumulativeCurve's copy and checks: m.probs
    # is finite and >= 0, so sub / total is in [0, 1] and its cumsum never
    # decreases; _anchors keeps the F_T check.
    f = _anchors(sub / total if total > 0.0 else np.full(sub.size, 1.0 / sub.size))
    ys = _interval_draws(cfg.n_frames, rng)
    indices = _invert(f, ys) + start
    return SamplePlan(indices.tolist(), cfg, draws=ys, window_start=start)


def sample_from_distribution(m: MotionDistribution, cfg: SamplerConfig) -> SamplePlan:
    """Dispatch on cfg.strategy over a ready (already smoothed) distribution.

    mg draws from the distribution's kept curve (``distribution_curve``).
    """
    if cfg.strategy == "mg":
        return mg_sample(distribution_curve(m), cfg)
    if cfg.strategy == "segment":
        return segment_sample(m.t_count, cfg)
    if cfg.strategy == "stride":
        return stride_sample(m.t_count, cfg)
    if cfg.strategy == "topk":
        return topk_sample(m, cfg)
    return windowed_clip_sample(m, cfg)


def sample_salience(salience: SalienceVector, cfg: SamplerConfig) -> tuple[SamplePlan, CumulativeCurve, MotionDistribution]:
    """The draw stage: ``salience`` l1-normalized, power-smoothed by ``cfg.mu`` and sampled.

    The plan follows from the salience and ``cfg`` alone: its draws come
    from a generator seeded by ``cfg.seed``.  Returns the plan together with
    the smoothed distribution and its curve so callers can export or inspect
    them without recomputation; an mg plan was drawn from that very curve.
    """
    m = smooth_distribution(normalize_salience(salience), cfg.mu)
    return sample_from_distribution(m, cfg), distribution_curve(m), m


def sample_video(
    volume: FrameVolume,
    cfg: SamplerConfig,
    representation: str = "image",
    bank: ConvKernelBank | None = None,
) -> tuple[SamplePlan, CumulativeCurve, MotionDistribution]:
    """The whole pipeline on one video: ``sample_salience`` of its ``video_salience``."""
    return sample_salience(video_salience(volume, representation, bank), cfg)


def _format_float(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def plan_to_json(plan: SamplePlan) -> str:
    """Byte-stable JSON, written directly: ``json.dumps``'s text with sorted keys, no spaces, floats by repr."""
    cfg = plan.config
    draws = ",".join(map(repr, plan.draws or ()))
    indices = ",".join(map(repr, plan.indices))
    return (f'{{"draws":[{draws}],"indices":[{indices}],"mu":{cfg.mu!r},'
            f'"n_frames":{cfg.n_frames},"seed":{cfg.seed},"strategy":"{cfg.strategy}"}}\n')


def curve_to_csv(curve: CumulativeCurve) -> str:
    """CSV with header "frame,cumulative" and T+1 anchor rows."""
    lines = ["frame,cumulative"]
    lines += [f"{k},{_format_float(v)}" for k, v in enumerate(curve.values)]
    return "\n".join(lines) + "\n"
