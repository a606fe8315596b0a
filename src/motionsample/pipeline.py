"""End-to-end orchestration: frame volume -> salience -> distribution -> plan."""

from __future__ import annotations

from .errors import ConfigError
from .motion import (
    ConvKernelBank,
    FrameVolume,
    MotionDistribution,
    feature_diff_salience,
    image_diff_salience,
    normalize_salience,
    random_bank,
    smooth_distribution,
)
from .sampling import (
    CumulativeCurve,
    SamplePlan,
    SamplerConfig,
    distribution_curve,
    sample_from_distribution,
)

REPRESENTATIONS = ("image", "feature")


def video_distribution(
    volume: FrameVolume,
    mu: float,
    representation: str = "image",
    bank: ConvKernelBank | None = None,
) -> MotionDistribution:
    """Image- or feature-level salience, l1-normalized and power-smoothed by mu: what every strategy draws from.

    A seed-0 Gaussian bank is the feature default.
    """
    if representation == "image":
        salience = image_diff_salience(volume)
    elif representation == "feature":
        salience = feature_diff_salience(volume, bank or random_bank(volume.channels))
    else:
        raise ConfigError(f"unknown representation {representation!r}, expected one of {REPRESENTATIONS}")
    return smooth_distribution(normalize_salience(salience), mu)


def sample_video(
    volume: FrameVolume,
    cfg: SamplerConfig,
    representation: str = "image",
    bank: ConvKernelBank | None = None,
) -> tuple[SamplePlan, CumulativeCurve, MotionDistribution]:
    """Run the full sampling pipeline on one video.

    The plan follows from the video and ``cfg`` alone: its draws come from a
    generator seeded by ``cfg.seed``.  Returns the plan together with the
    smoothed distribution and its curve so callers can export or inspect them
    without recomputation; an mg plan was drawn from that very curve.
    """
    m = video_distribution(volume, cfg.mu, representation, bank)
    plan = sample_from_distribution(m, cfg)
    return plan, distribution_curve(m), m
