import json
import time
from dataclasses import replace

import numpy as np
import pytest

from motionsample import (
    ConfigError,
    CoverageReport,
    SamplerConfig,
    StructuralError,
    SyntheticSpec,
    burst_coverage,
    compare_strategies,
    generate_synthetic_video,
    image_diff_salience,
    mg_sample,
    normalize_salience,
    build_curve,
    salience_mass_in_bursts,
    sample_video,
    smooth_distribution,
)
from motionsample import evalbench, sampling
from motionsample.evalbench import COMPARED_STRATEGIES


def spec_with(t=50, bursts=(), **kw):
    return SyntheticSpec(t_count=t, height=32, width=32, channels=1, bursts=bursts, **kw)


class TestSyntheticSpec:
    def test_burst_outside_range_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(t=10, bursts=((5, 12, 1.0),))

    def test_non_positive_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(bursts=((1, 2, 0.0),))

    def test_overlapping_bursts_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(bursts=((0, 10, 1.0), (10, 20, 1.0)))

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(bursts=((9, 3, 1.0),))

    def test_amplitude_that_float32_rounds_away_rejected(self):
        # the float32 ulp of 128 is 2**-16: 128 + 2**-17 rounds to even, back to 128
        assert spec_with(bursts=((1, 2, 2.0**-16),)).bursts == ((1, 2, 2.0**-16),)
        for a in (2.0**-17, 1e-45):
            with pytest.raises(ConfigError, match=f"^burst amplitude {a!r} is lost in float32 beside background 128.0$"):
                spec_with(bursts=((1, 2, a),))

    @pytest.mark.parametrize("field, value, message", [
        ("t_count", 0, "must all be >= 1"),
        ("height", 0, "must all be >= 1"),
        ("channels", 2, "channels must be 1 or 3, got 2"),
        ("noise", -0.5, "noise amplitude must be >= 0"),
        ("seed", 1.5, r"^seed must be an integer, got 1\.5$"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            SyntheticSpec(**{"t_count": 10, field: value})

    @pytest.mark.parametrize("field, value", [("t_count", 2.5), ("t_count", 10.0), ("height", 8.0),
                                              ("width", "8"), ("channels", 3.0)])
    def test_non_integral_size_field_names_itself(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            SyntheticSpec(**{"t_count": 10, field: value})

    @pytest.mark.parametrize("field, value", [("t_count", np.int64(6)), ("height", np.uint8(8)),
                                              ("width", np.int32(4)), ("channels", np.int16(3))])
    def test_numpy_integer_size_fields_stored_as_int(self, field, value):
        spec = SyntheticSpec(**{"t_count": 6, "height": 4, "width": 4, field: value})
        assert type(getattr(spec, field)) is int and getattr(spec, field) == value
        assert generate_synthetic_video(spec).frames.shape == (spec.t_count, spec.height, spec.width, spec.channels)


class TestGenerator:
    def test_static_video_has_zero_salience(self):
        volume = generate_synthetic_video(spec_with())
        assert image_diff_salience(volume).values.tolist() == [0.0] * 50

    def test_single_burst_salience_support_and_mass(self):
        spec = spec_with(t=50, bursts=((10, 19, 3.0),))
        s = image_diff_salience(generate_synthetic_video(spec)).values
        area = max(1, 32 // 8) * max(1, 32 // 8)  # the generator's contract: one block of one channel
        positive = np.nonzero(s)[0].tolist()
        assert positive == list(range(10, 20))
        np.testing.assert_array_equal(s[positive], 3.0 * area)

    def test_burst_starting_at_frame_zero(self):
        spec = spec_with(t=20, bursts=((0, 4, 2.0),))
        s = image_diff_salience(generate_synthetic_video(spec)).values
        assert np.nonzero(s)[0].tolist() == [1, 2, 3, 4]

    def test_two_bursts_split_mass_proportionally(self):
        # 5 transitions at amp 2 vs 10 transitions at amp 6: mass ratio 1:6
        spec = spec_with(t=60, bursts=((5, 9, 2.0), (20, 29, 6.0)))
        m = normalize_salience(image_diff_salience(generate_synthetic_video(spec)))
        mass_a = float(m.probs[5:10].sum())
        mass_b = float(m.probs[20:30].sum())
        assert abs(mass_a + mass_b - 1.0) <= 1e-9
        assert abs(mass_b / mass_a - 6.0) <= 1e-9

    def test_noise_perturbs_static_frames(self):
        spec = spec_with(t=10, noise=1.0, seed=3)
        s = image_diff_salience(generate_synthetic_video(spec)).values
        assert np.all(s[1:] > 0)

    def test_generation_is_seed_deterministic(self):
        spec = spec_with(t=10, noise=0.5, seed=9)
        a = generate_synthetic_video(spec)
        b = generate_synthetic_video(spec)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_tiny_frames_still_exact(self):
        spec = SyntheticSpec(t_count=12, height=1, width=1, channels=1, bursts=((3, 8, 5.0),))
        s = image_diff_salience(generate_synthetic_video(spec)).values
        assert np.nonzero(s)[0].tolist() == list(range(3, 9))
        np.testing.assert_array_equal(s[3:9], 5.0)

    def test_color_transition_moves_one_block_of_one_channel(self):
        spec = SyntheticSpec(t_count=8, height=16, width=16, channels=3, bursts=((2, 5, 4.0),))
        s = image_diff_salience(generate_synthetic_video(spec)).values
        np.testing.assert_array_equal(s[2:6], 4.0 * max(1, 16 // 8) * max(1, 16 // 8))


class TestBurstCoverage:
    def _plan(self, indices):
        cfg = SamplerConfig(n_frames=len(indices), strategy="segment", deterministic=True)
        from motionsample import SamplePlan

        return SamplePlan(tuple(indices), cfg)

    def test_all_inside(self):
        spec = spec_with(bursts=((10, 19, 1.0),))
        assert burst_coverage(self._plan([10, 12, 19]), spec) == 1.0

    def test_no_bursts_defined(self):
        assert burst_coverage(self._plan([1, 2, 3]), spec_with()) == 0.0

    def test_six_of_eight(self):
        spec = spec_with(bursts=((10, 19, 1.0),))
        plan = self._plan([0, 5, 10, 11, 12, 13, 14, 15])
        assert burst_coverage(plan, spec) == 0.75

    def test_plan_outside_spec_rejected(self):
        with pytest.raises(StructuralError):
            burst_coverage(self._plan([100]), spec_with(t=50))

    def test_index_one_past_the_last_frame_rejected(self):
        assert burst_coverage(self._plan([0, 49]), spec_with(t=50)) == 0.0
        with pytest.raises(StructuralError, match="plan index 50 outside the spec's 50 frames"):
            burst_coverage(self._plan([0, 50]), spec_with(t=50))


class TestCompareStrategies:
    def test_static_video_mg_equals_segment_coverage(self):
        spec = spec_with(t=40)
        volume = generate_synthetic_video(spec)
        cfg = SamplerConfig(n_frames=8, mu=1.0, deterministic=True)
        report = compare_strategies(volume, spec, cfg)
        assert report.coverage["mg"] == report.coverage["segment"] == 0.0
        assert report.salience_mass_in_bursts == 0.0

    def test_burst_video_concentration(self):
        # 20-frame burst in T=100 carries all salience
        spec = spec_with(t=100, bursts=((40, 59, 4.0),))
        volume = generate_synthetic_video(spec)
        cfg = SamplerConfig(n_frames=8, mu=1.0, deterministic=True)
        report = compare_strategies(volume, spec, cfg)
        assert report.coverage["mg"] == 1.0
        assert report.coverage["segment"] == 0.25
        assert report.coverage["topk"] == 1.0
        assert report.salience_mass_in_bursts == 1.0

    def test_mg_dominates_segment_on_small_bursts(self):
        # burst fraction <= 25%, deterministic modes, mu in {0.5, 1}
        for t, start, length in ((60, 22, 12), (100, 70, 20), (148, 9, 30)):
            spec = spec_with(t=t, bursts=((start, start + length - 1, 5.0),))
            volume = generate_synthetic_video(spec)
            for mu in (0.5, 1.0):
                cfg = SamplerConfig(n_frames=8, mu=mu, deterministic=True)
                report = compare_strategies(volume, spec, cfg)
                assert report.coverage["mg"] >= report.coverage["segment"]

    @pytest.mark.parametrize("representation, channels", [("image", 1), ("feature", 3)])
    def test_matches_one_sample_video_per_strategy(self, representation, channels):
        spec = SyntheticSpec(t_count=48, height=16, width=16, channels=channels,
                             bursts=((8, 19, 3.0), (30, 33, 6.0)), noise=0.5, seed=2)
        volume = generate_synthetic_video(spec)
        cfg = SamplerConfig(n_frames=6, mu=0.7, seed=11)
        report = compare_strategies(volume, spec, cfg, representation)
        coverage, mass = {}, None
        for strategy in COMPARED_STRATEGIES:
            plan, _, m = sample_video(volume, replace(cfg, strategy=strategy), representation)
            coverage[strategy] = burst_coverage(plan, spec)
            mass = salience_mass_in_bursts(m, spec)
        assert report == CoverageReport(coverage=coverage, salience_mass_in_bursts=mass)

    @pytest.mark.parametrize("representation", ["image", "feature"])
    def test_computes_the_salience_once(self, monkeypatch, representation):
        calls = []
        real = evalbench.video_salience

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (evalbench, sampling):  # a detour through sample_video would show too
            monkeypatch.setattr(module, "video_salience", spy)
        spec = spec_with(t=30, bursts=((10, 19, 2.0),))
        compare_strategies(generate_synthetic_video(spec), spec, SamplerConfig(n_frames=4), representation)
        assert len(calls) == 1

    def test_report_json_round_trips(self):
        spec = spec_with(t=40, bursts=((10, 19, 2.0),))
        report = compare_strategies(
            generate_synthetic_video(spec), spec, SamplerConfig(n_frames=4, deterministic=True)
        )
        obj = json.loads(report.to_json())
        assert set(obj) == {"coverage", "salience_mass_in_bursts"}
        assert set(obj["coverage"]) == {"mg", "segment", "stride", "topk"}

    def test_coverage_fraction_validation(self):
        with pytest.raises(StructuralError):
            CoverageReport(coverage={"mg": 1.5})


class TestMgBurstProperty:
    def test_deterministic_mg_hits_dominant_burst(self):
        # single burst with all salience, mu=1, burst length >= N
        for t, n in ((60, 4), (100, 8), (200, 16), (64, 8)):
            length = max(n, t // 5)
            start = (t - length) // 2
            spec = spec_with(t=t, bursts=((start, start + length - 1, 3.0),))
            volume = generate_synthetic_video(spec)
            m = smooth_distribution(normalize_salience(image_diff_salience(volume)), 1.0)
            cfg = SamplerConfig(n_frames=n, strategy="mg", mu=1.0, deterministic=True)
            plan = mg_sample(build_curve(m), cfg)
            inside = sum(1 for i in plan.indices if start <= i <= start + length - 1)
            assert inside / n >= 0.9


class TestPipelineEdgesAndScaling:
    """sample_video on a one-frame video, and image salience's cost against T; perfbench/run.py measures latency."""

    def test_single_frame_video_sanity(self):
        spec = SyntheticSpec(t_count=1, height=8, width=8, channels=1)
        volume = generate_synthetic_video(spec)
        cfg = SamplerConfig(n_frames=4, strategy="mg", deterministic=True)
        plan, _, _ = sample_video(volume, cfg)
        assert plan.indices == (0, 0, 0, 0)

    def test_doubling_t_scales_roughly_linearly(self):
        def make_volume(t):
            return generate_synthetic_video(
                SyntheticSpec(t_count=t, height=64, width=64, channels=3, bursts=((5, t - 5, 3.0),))
            )

        def time_once(volume):
            begin = time.perf_counter()
            image_diff_salience(volume)
            return time.perf_counter() - begin

        small, large = make_volume(128), make_volume(256)
        time_once(small), time_once(large)  # warm-up
        # interleave and take minima: robust against scheduler noise
        small_times, large_times = [], []
        for _ in range(15):
            small_times.append(time_once(small))
            large_times.append(time_once(large))
        ratio = min(large_times) / min(small_times)
        assert 1.5 <= ratio <= 3.0, f"scaling ratio {ratio:.2f} outside [1.5, 3.0]"
