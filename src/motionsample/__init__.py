"""Motion-guided video frame sampling.

Rank frames by temporal-difference motion salience, turn the salience into a
smoothed cumulative distribution over frame index, and pick N frames by
inverse-transform sampling so high-motion segments are covered evenly.
Includes segment/stride/top-magnitude baselines, codec-free frame ingestion,
a synthetic evaluation harness, and a CLI.
"""

from types import ModuleType as _ModuleType

from .errors import ConfigError, FormatError, MotionSampleError, StructuralError
from .evalbench import (
    CoverageReport,
    SyntheticSpec,
    burst_coverage,
    compare_strategies,
    generate_synthetic_video,
    salience_mass_in_bursts,
)
from .ingest import (
    VideoManifest,
    export_outputs,
    load_frame_directory,
    load_kernel_bank,
    load_raw_tensor,
    save_kernel_bank,
    save_raw_tensor,
)
from .motion import (
    ConvKernelBank,
    FrameVolume,
    MotionDistribution,
    SalienceVector,
    conv2d_apply,
    downsample_volume,
    feature_diff_salience,
    identity_bank,
    image_diff_salience,
    normalize_salience,
    random_bank,
    smooth_distribution,
)
from .sampling import (
    STRATEGIES,
    CumulativeCurve,
    SamplePlan,
    SamplerConfig,
    build_curve,
    curve_to_csv,
    invert_curve,
    make_rng,
    mg_sample,
    plan_to_json,
    sample_from_distribution,
    sample_video,
    segment_sample,
    stride_sample,
    topk_sample,
    video_seed,
    windowed_clip_sample,
)

__version__ = "0.1.0"

# A name is public exactly when this module imports it; the submodules the imports bind are not.
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
