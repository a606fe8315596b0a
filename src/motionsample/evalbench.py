"""Synthetic burst videos and strategy comparison.

The generator plants motion bursts with analytically exact salience: every
frame inside a burst toggles one block in a cycling grid of disjoint slots,
so each in-burst transition changes exactly max(1, H // 8) * max(1, W // 8)
pixels by exactly the burst amplitude.  Outside bursts (and with zero noise)
consecutive frames are identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, StructuralError
from .motion import FrameVolume, MotionDistribution, normalize_salience, smooth_distribution, video_salience
from .sampling import SamplePlan, SamplerConfig, make_rng, sample_from_distribution, store_integers

COMPARED_STRATEGIES = ("mg", "segment", "stride", "topk")
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic video: constant background plus planted motion bursts.

    Bursts are zero-based inclusive (start, end, amplitude) frame ranges and
    may not overlap.  Amplitude and background should be exactly
    representable in float32 (integers are) so the generated salience is
    exact; an amplitude that float32 rounds away beside the background
    plants no motion, and is rejected.  ``noise`` adds per-frame uniform
    noise in [-noise, noise]; every frame value, noise included, must lie
    within the float32 range.  ``t_count``, ``height``, ``width`` and
    ``channels`` follow ``SamplerConfig``'s rule for its integer fields, and
    ``seed``, which seeds the noise, its rule for its seed.
    """

    t_count: int
    height: int = 32
    width: int = 32
    channels: int = 1
    bursts: tuple[tuple[int, int, float], ...] = ()
    background: float = 128.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        store_integers(self, ("t_count", "height", "width", "channels"))
        if self.t_count < 1 or self.height < 1 or self.width < 1:
            raise ConfigError("t_count, height, and width must all be >= 1")
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {self.channels}")
        object.__setattr__(self, "seed", SamplerConfig(seed=self.seed).seed)  # an integer in [0, 2**64), or ConfigError
        if not 0 <= self.noise <= _F32_MAX:  # NaN fails every comparison, here and below
            raise ConfigError(f"noise amplitude must be >= 0 and within float32, got {self.noise!r}")
        if not abs(self.background) + self.noise <= _F32_MAX:
            raise ConfigError(f"background must keep frames, noise included, within float32, got {self.background!r}")
        bursts = tuple((int(s), int(e), float(a)) for s, e, a in self.bursts)
        for s, e, a in bursts:
            if not (0 <= s <= e <= self.t_count - 1):
                raise ConfigError(f"burst ({s}, {e}) outside frames [0, {self.t_count - 1}]")
            if not (a > 0 and abs(self.background + a) + self.noise <= _F32_MAX):
                raise ConfigError(f"burst amplitude must be > 0 and keep frames within float32, got {a!r}")
            if np.float32(self.background + a) == np.float32(self.background):
                raise ConfigError(f"burst amplitude {a!r} is lost in float32 beside background {self.background!r}")
        for (s1, e1, _), (s2, e2, _) in zip(sorted(bursts), sorted(bursts)[1:]):
            if s2 <= e1:
                raise ConfigError(f"bursts ({s1},{e1}) and ({s2},{e2}) overlap")
        object.__setattr__(self, "bursts", bursts)

    def burst_amplitude(self, frame: int) -> float | None:
        for s, e, a in self.bursts:
            if s <= frame <= e:
                return a
        return None


@dataclass(frozen=True)
class CoverageReport:
    """Per-strategy burst coverage and the distribution's mass inside the bursts."""

    coverage: dict[str, float]
    salience_mass_in_bursts: float | None = None

    def __post_init__(self):
        for name, frac in self.coverage.items():
            if not (0.0 <= frac <= 1.0):
                raise StructuralError(f"coverage[{name!r}] = {frac!r} outside [0, 1]")

    def to_json(self) -> str:
        obj = {
            "coverage": dict(sorted(self.coverage.items())),
            "salience_mass_in_bursts": self.salience_mass_in_bursts,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def generate_synthetic_video(spec: SyntheticSpec) -> FrameVolume:
    """Render the spec to a float32 frame volume.

    Every burst frame toggles one max(1, H // 8) x max(1, W // 8) block, so
    the summed absolute difference of transition t is exactly amplitude times
    its area for zero-based t in [max(start, 1), end], else 0 (noise aside).
    """
    bh, bw = max(1, spec.height // 8), max(1, spec.width // 8)
    rows, cols = spec.height // bh, spec.width // bw
    slots = [(r * bh, c * bw) for r in range(rows) for c in range(cols)]
    on_amp = np.zeros(len(slots))
    cursor = 0
    canvas = np.full((spec.height, spec.width, spec.channels), spec.background, dtype=np.float32)
    frames = np.empty((spec.t_count, spec.height, spec.width, spec.channels), dtype=np.float32)
    for f in range(spec.t_count):
        amp = spec.burst_amplitude(f)
        if amp is not None:
            slot = cursor % len(slots)
            cursor += 1
            y, x = slots[slot]
            if on_amp[slot] == 0.0:
                on_amp[slot] = amp
                canvas[y : y + bh, x : x + bw, 0] = np.float32(spec.background + amp)
            else:
                on_amp[slot] = 0.0
                canvas[y : y + bh, x : x + bw, 0] = np.float32(spec.background)
        frames[f] = canvas
    if spec.noise > 0:
        rng = make_rng(spec.seed)
        frames += rng.uniform(-spec.noise, spec.noise, frames.shape).astype(np.float32)
    return FrameVolume(frames)


def burst_coverage(plan: SamplePlan, spec: SyntheticSpec) -> float:
    """Fraction of the plan's indices that land inside a burst range."""
    if max(plan.indices) >= spec.t_count:
        raise StructuralError(
            f"plan index {max(plan.indices)} outside the spec's {spec.t_count} frames"
        )
    inside = sum(1 for i in plan.indices if spec.burst_amplitude(i) is not None)
    return inside / len(plan.indices)


def salience_mass_in_bursts(m: MotionDistribution, spec: SyntheticSpec) -> float:
    if m.t_count != spec.t_count:
        raise StructuralError(
            f"distribution covers {m.t_count} frames, spec has {spec.t_count}"
        )
    total = sum((float(m.probs[s : e + 1].sum()) for s, e, _ in spec.bursts), 0.0)
    return min(1.0, total)  # a subset of probs can exceed 1 by rounding noise


def compare_strategies(
    volume: FrameVolume,
    spec: SyntheticSpec,
    cfg: SamplerConfig,
    representation: str = "image",
) -> CoverageReport:
    """Run mg, segment, stride, and topk on one distribution; report coverage.

    The distribution is computed once.  Each strategy gets a fresh generator
    seeded from cfg.seed, so results do not depend on strategy order.
    """
    m = smooth_distribution(normalize_salience(video_salience(volume, representation)), cfg.mu)
    coverage = {}
    for strategy in COMPARED_STRATEGIES:
        plan = sample_from_distribution(m, replace(cfg, strategy=strategy))
        coverage[strategy] = burst_coverage(plan, spec)
    return CoverageReport(coverage=coverage, salience_mass_in_bursts=salience_mass_in_bursts(m, spec))

