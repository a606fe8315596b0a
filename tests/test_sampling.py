import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionsample import (
    STRATEGIES,
    ConfigError,
    CumulativeCurve,
    FrameVolume,
    MotionDistribution,
    SalienceVector,
    SamplePlan,
    SamplerConfig,
    StructuralError,
    build_curve,
    curve_to_csv,
    invert_curve,
    make_rng,
    mg_sample,
    normalize_salience,
    plan_to_json,
    sample_from_distribution,
    sample_video,
    segment_sample,
    smooth_distribution,
    stride_sample,
    topk_sample,
    video_seed,
    windowed_clip_sample,
)
from motionsample import sampling
from motionsample.motion import REPRESENTATIONS, video_salience
from conftest import random_distribution, random_volume
from oracles import brute_force_invert, scalar_interval_draws, scalar_plan


def dist(*probs):
    return MotionDistribution(np.array(probs, dtype=np.float64))


def uniform_dist(t):
    return MotionDistribution(np.full(t, 1.0 / t))


def cfg_for(strategy, n, **kw):
    return SamplerConfig(n_frames=n, strategy=strategy, **kw)


class TestBuildCurve:
    def test_two_frame_example(self):
        c = build_curve(dist(0.5, 0.5))
        assert c.values.tolist() == [0.0, 0.5, 1.0]

    def test_uniform_four(self):
        c = build_curve(uniform_dist(4))
        assert c.values.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_frame(self):
        c = build_curve(dist(1.0))
        assert c.values.tolist() == [0.0, 1.0]

    def test_endpoint_pinned_to_exactly_one(self, rng):
        for _ in range(50):
            m = random_distribution(rng, int(rng.integers(1, 60)))
            c = build_curve(m)
            assert c.values[0] == 0.0
            assert c.values[-1] == 1.0
            assert np.all(np.diff(c.values) >= 0)

    def test_curve_type_validation(self):
        with pytest.raises(StructuralError):
            CumulativeCurve(np.array([0.0, 0.5]))  # does not end at 1
        with pytest.raises(StructuralError):
            CumulativeCurve(np.array([0.1, 1.0]))  # does not start at 0
        with pytest.raises(StructuralError):
            CumulativeCurve(np.array([0.0, 0.6, 0.5, 1.0]))  # decreasing

    @pytest.mark.parametrize("end", [1 - 5e-10, 1 + 5e-10])
    def test_hand_built_end_within_tolerance_is_pinned_to_one(self, end):
        c = CumulativeCurve(np.array([0.0, 0.5, end]))
        assert c.values.tolist() == [0.0, 0.5, 1.0]
        assert invert_curve(c, 1.0) == 1
        for seed in range(50):
            plan = mg_sample(c, SamplerConfig(n_frames=8, seed=seed))
            assert 0 <= min(plan.indices) and max(plan.indices) <= 1

    def test_anchors_just_above_one_stay_non_decreasing(self):
        c = CumulativeCurve(np.array([0.0, 1 + 2e-10, 1 + 5e-10]))
        assert c.values.tolist() == [0.0, 1.0, 1.0]
        assert invert_curve(c, 1.0) == 0

    @pytest.mark.parametrize("values, message", [
        ([1.0], "at least anchors"),
        ([], "at least anchors"),
        ([[0.0, 1.0]], "at least anchors"),
        ([0.0, np.nan, 1.0], "finite"),
        ([0.0, np.inf, 1.0], "finite"),
        ([0.0, 0.5, -np.inf], "finite"),
    ])
    def test_curve_rejects_short_or_non_finite(self, values, message):
        with pytest.raises(StructuralError, match=message):
            CumulativeCurve(np.array(values))


class TestInvertCurve:
    def test_hand_interpolation(self):
        c = build_curve(dist(0.0, 0.5, 0.25, 0.25))
        assert invert_curve(c, 0.25) == 1  # x = 1.5, rounds half-up to 2

    def test_hand_anchor_hit(self):
        c = build_curve(dist(0.0, 0.5, 0.25, 0.25))
        assert invert_curve(c, 0.75) == 2  # x = 3 exactly

    def test_y_one_hits_last_frame_on_rising_curve(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 30))
            values = rng.uniform(0.1, 1.0, size=t)  # strictly positive slope everywhere
            m = MotionDistribution(values / values.sum())
            assert invert_curve(build_curve(m), 1.0) == t - 1

    def test_y_zero_maps_to_first_rising_segment(self):
        c = build_curve(dist(0.0, 0.0, 0.5, 0.5))
        # first positive slope starts at x=2 -> 1-based frame 2 -> index 1
        assert invert_curve(c, 0.0) == 1

    def test_plateau_resolves_leftmost(self):
        c = build_curve(dist(0.0, 0.5, 0.0, 0.0, 0.5))
        # F hits 0.5 at x=2 and stays flat until x=4; leftmost preimage wins
        assert invert_curve(c, 0.5) == 1

    def test_domain_errors(self):
        c = build_curve(uniform_dist(4))
        for y in (-0.1, 1.1, float("nan")):
            with pytest.raises(ConfigError):
                invert_curve(c, y)

    def test_monotone_in_y(self, rng):
        for _ in range(20):
            c = build_curve(random_distribution(rng, int(rng.integers(2, 40))))
            ys = np.sort(rng.uniform(0, 1, size=12))
            idx = [invert_curve(c, float(y)) for y in ys]
            assert all(a <= b for a, b in zip(idx, idx[1:]))

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            c = build_curve(random_distribution(rng, int(rng.integers(1, 50))))
            y = float(rng.uniform(0, 1))
            assert invert_curve(c, y) == brute_force_invert(c.values, y)

    @pytest.mark.parametrize("weights", [
        (1.0,),                                     # T = 1
        (0.0, 2.0, 0.0, 0.0, 2.0, 0.0),             # plateaus inside and at both ends
        (0.0, 0.0, 1.0, 3.0),                       # a leading plateau at F = 0
        (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),   # one long plateau at F = 0.5
        (1e-300, 1.0, 1e-300, 1e-300, 1.0, 1e-300),  # masses F cannot hold beside 0.5
        (1e-300, 1.0),                              # a first segment of slope 1e-300
        (0.0, 1e-300, 0.0, 1.0, 0.0),               # a plateau at F = 1e-300
        (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0),
    ])
    def test_anchors_and_their_neighbours_match_brute_force(self, weights):
        """y = 0, y = 1, every anchor and the next double on either side of each.

        At y = 0 on a curve with F_1 = 0 the two differ by definition: the
        oracle takes the leftmost x with F(x) >= 0, which is 0, while
        invert_curve takes the start of the first rising segment.
        """
        w = np.array(weights)
        c = build_curve(MotionDistribution(w / w.sum()))
        f = c.values.tolist()
        t = len(f) - 1
        ys = {0.0, 1.0}
        for v in f:
            ys |= {v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)}
        for y in sorted(y for y in ys if 0.0 <= y <= 1.0):
            got = invert_curve(c, y)
            assert 0 <= got <= t - 1
            if y == 0.0 and f[1] == 0.0:
                first_rising = next(k for k, v in enumerate(f) if v > 0.0)
                assert got == max(first_rising - 1, 1) - 1
            else:
                assert got == brute_force_invert(c.values, y), y


class TestMgSample:
    def test_uniform_t8_n8_deterministic(self):
        plan = mg_sample(build_curve(uniform_dist(8)), cfg_for("mg", 8, deterministic=True))
        assert plan.indices == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_uniform_t8_n4_deterministic(self):
        # midpoints invert to x = 1, 3, 5, 7; brute-force confirmed
        plan = mg_sample(build_curve(uniform_dist(8)), cfg_for("mg", 4, deterministic=True))
        assert plan.indices == (0, 2, 4, 6)

    def test_deterministic_picks_match_brute_force(self, rng):
        for _ in range(20):
            t, n = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            c = build_curve(random_distribution(rng, t))
            plan = mg_sample(c, cfg_for("mg", n, deterministic=True))
            expected = tuple(
                brute_force_invert(c.values, (2 * i - 1) / (2 * n)) for i in range(1, n + 1)
            )
            assert plan.indices == expected

    def test_concentrated_mass_pins_picks(self, rng):
        t, k = 10, 5  # all mass at 1-based frame 5
        probs = np.zeros(t)
        probs[k - 1] = 1.0
        c = build_curve(MotionDistribution(probs))
        for seed in range(10):
            plan = mg_sample(c, cfg_for("mg", 6, seed=seed))
            assert set(plan.indices) <= {k - 2, k - 1}

    def test_draws_live_in_open_intervals(self, rng):
        n = 7
        plan = mg_sample(build_curve(uniform_dist(13)), cfg_for("mg", n, seed=3))
        for i, y in enumerate(plan.draws):
            assert i / n < y < (i + 1) / n

    def test_deterministic_draws_are_midpoints(self):
        plan = mg_sample(build_curve(uniform_dist(4)), cfg_for("mg", 4, deterministic=True))
        assert plan.draws == (1 / 8, 3 / 8, 5 / 8, 7 / 8)

    def test_same_seed_same_plan(self):
        c = build_curve(uniform_dist(20))
        a = mg_sample(c, cfg_for("mg", 8, seed=42))
        b = mg_sample(c, cfg_for("mg", 8, seed=42))
        assert a.indices == b.indices and a.draws == b.draws

    def test_plan_depends_only_on_distribution(self, rng):
        # any upstream change that leaves the distribution intact leaves the plan intact
        values = np.array([0.0, 2.0, 6.0, 4.0])
        m1 = dist(0.0, 2 / 12, 6 / 12, 4 / 12)
        m2 = MotionDistribution(values / values.sum())
        cfg = cfg_for("mg", 5, seed=9)
        a = mg_sample(build_curve(m1), cfg)
        b = mg_sample(build_curve(m2), cfg)
        assert a.indices == b.indices and a.draws == b.draws

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_plan_invariants(self, t, n, seed):
        c = build_curve(MotionDistribution(np.full(t, 1.0 / t)))
        plan = mg_sample(c, cfg_for("mg", n, seed=seed))
        assert len(plan.indices) == n
        assert all(0 <= i <= t - 1 for i in plan.indices)
        assert all(a <= b for a, b in zip(plan.indices, plan.indices[1:]))

    def test_wrong_strategy_rejected(self):
        with pytest.raises(ConfigError):
            mg_sample(build_curve(uniform_dist(4)), cfg_for("segment", 2))


class TestSegmentSample:
    def test_deterministic_centers(self):
        plan = segment_sample(8, cfg_for("segment", 4, deterministic=True))
        assert plan.indices == (1, 3, 5, 7)

    def test_t_equals_n(self):
        det = segment_sample(5, cfg_for("segment", 5, deterministic=True))
        rnd = segment_sample(5, cfg_for("segment", 5, seed=11))
        assert det.indices == rnd.indices == (0, 1, 2, 3, 4)

    def test_more_segments_than_frames(self):
        plan = segment_sample(3, cfg_for("segment", 6, deterministic=True))
        assert plan.indices == (0, 0, 1, 1, 2, 2)

    def test_random_picks_stay_in_their_segment(self, rng):
        t, n = 50, 7
        for seed in range(20):
            plan = segment_sample(t, cfg_for("segment", n, seed=seed))
            for i, idx in enumerate(plan.indices):
                assert i * t / n - 1 < idx < (i + 1) * t / n
                assert 0 <= idx <= t - 1


@pytest.mark.parametrize("strategy, sampler", [("segment", segment_sample), ("stride", stride_sample)])
def test_zero_frames_rejected(strategy, sampler):
    with pytest.raises(StructuralError, match="t_count must be >= 1, got 0"):
        sampler(0, cfg_for(strategy, 4, deterministic=True))


class TestStrideSample:
    def test_deterministic_progression(self):
        plan = stride_sample(40, cfg_for("stride", 8, stride=4, deterministic=True))
        assert plan.indices == (0, 4, 8, 12, 16, 20, 24, 28)

    def test_short_video_clamps(self):
        plan = stride_sample(5, cfg_for("stride", 8, stride=4, deterministic=True))
        assert plan.indices == (0, 4, 4, 4, 4, 4, 4, 4)

    def test_single_pick(self):
        plan = stride_sample(10, cfg_for("stride", 1, stride=4, seed=3))
        assert len(plan.indices) == 1 and 0 <= plan.indices[0] <= 9

    def test_random_start_range(self):
        t, n, s = 40, 8, 4
        starts = {
            stride_sample(t, cfg_for("stride", n, stride=s, seed=seed)).indices[0]
            for seed in range(200)
        }
        assert min(starts) >= 0 and max(starts) <= t - 1 - s * (n - 1)
        assert len(starts) > 1


class TestTopkSample:
    def test_hand_example(self):
        plan = topk_sample(dist(0.1, 0.4, 0.2, 0.3), cfg_for("topk", 2))
        assert plan.indices == (1, 3)

    def test_ties_break_to_smaller_index(self):
        plan = topk_sample(uniform_dist(4), cfg_for("topk", 2))
        assert plan.indices == (0, 1)

    def test_n_equals_t(self):
        plan = topk_sample(uniform_dist(5), cfg_for("topk", 5))
        assert plan.indices == (0, 1, 2, 3, 4)

    def test_n_larger_than_t_rejected(self):
        with pytest.raises(ConfigError):
            topk_sample(uniform_dist(3), cfg_for("topk", 4))

    def test_signed_zeros_tie(self):
        plan = topk_sample(dist(0.0, 0.5, -0.0, 0.5, 0.0), cfg_for("topk", 4))
        assert plan.indices == (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4096), st.floats(0.0, 1.0), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_matches_scalar_reference_on_tie_heavy_input(self, t, n_share, zero_share, seed):
        gen = np.random.default_rng(seed)
        weights = gen.integers(0, 4, size=t).astype(np.float64)
        run = int(zero_share * t)  # one zero plateau, then scattered -0.0 entries
        at = int(gen.integers(0, t - run + 1))
        weights[at : at + run] = 0.0
        weights[gen.random(t) < 0.1] = -0.0
        if not (weights > 0).any():
            weights[-1] = 1.0
        m = MotionDistribution(weights / weights.sum())
        n = max(1, round(n_share * t))
        indices, _, _ = scalar_plan(m.probs, "topk", n, seed, True)
        assert list(topk_sample(m, cfg_for("topk", n)).indices) == indices


class TestWindowedClipSample:
    def test_uniform_t64_window32_deterministic(self):
        cfg = cfg_for("mg-clip", 8, window_len=32, deterministic=True)
        plan = windowed_clip_sample(uniform_dist(64), cfg)
        assert plan.indices == (1, 5, 9, 13, 17, 21, 25, 29)
        assert plan.window_start == 0

    def test_short_video_uses_whole_curve(self):
        m = random_distribution(make_rng(5), 16)
        clip_cfg = cfg_for("mg-clip", 8, window_len=32, deterministic=True)
        mg_cfg = cfg_for("mg", 8, deterministic=True)
        clip = windowed_clip_sample(m, clip_cfg)
        full = mg_sample(build_curve(m), mg_cfg)
        assert clip.indices == full.indices

    def test_mass_concentrated_inside_window(self):
        t, k = 40, 12  # all window mass at zero-based frame 11 (1-based 12)
        probs = np.zeros(t)
        probs[k - 1] = 1.0
        cfg = cfg_for("mg-clip", 6, window_len=20, deterministic=True)
        plan = windowed_clip_sample(MotionDistribution(probs), cfg)
        assert set(plan.indices) <= {k - 2, k - 1}

    def test_window_start_range_and_offset(self, rng):
        t, length = 50, 16
        m = random_distribution(rng, t)
        seen = set()
        for seed in range(40):
            plan = windowed_clip_sample(m, cfg_for("mg-clip", 4, window_len=length, seed=seed))
            assert 0 <= plan.window_start <= t - length
            assert all(plan.window_start <= i < plan.window_start + length for i in plan.indices)
            seen.add(plan.window_start)
        assert len(seen) > 1

    def test_all_zero_window_falls_back_to_uniform(self):
        probs = np.zeros(40)
        probs[39] = 1.0  # every draw of window [0, 31] sees zero mass
        cfg = cfg_for("mg-clip", 4, window_len=32, deterministic=True)
        plan = windowed_clip_sample(MotionDistribution(probs), cfg)
        expected = mg_sample(build_curve(uniform_dist(32)), cfg_for("mg", 4, deterministic=True))
        assert plan.indices == expected.indices

    def test_window_anchors_equal_build_curve_bitwise(self, rng, monkeypatch):
        inverted = []
        real = sampling._invert

        def spy(f, ys):
            inverted.append(f)
            return real(f, ys)

        monkeypatch.setattr(sampling, "_invert", spy)
        zero_mass = np.zeros(300)
        zero_mass[[0, 150, 299]] = [0.25, 0.5, 0.25]
        dists = [random_distribution(rng, t) for t in (1, 7, 40, 4096)]
        dists += [MotionDistribution(zero_mass), plateau_distribution(100)]
        zero_windows = 0
        for m in dists:
            for length in (1, 5, 32, m.t_count, m.t_count + 3):
                for seed, det in ((0, True), (1, False), (2, False), (3, False)):
                    plan = windowed_clip_sample(m, cfg_for("mg-clip", 4, window_len=length, seed=seed,
                                                           deterministic=det))
                    sub = m.probs[plan.window_start : plan.window_start + length]
                    total = float(sub.sum())
                    window = MotionDistribution(sub / total) if total > 0 else uniform_dist(sub.size)
                    zero_windows += total == 0
                    assert inverted.pop().tobytes() == build_curve(window).values.tobytes()
        assert zero_windows > 0


def y_mass_edges(f):
    """Edge j of frame j's y-mass [G(j + 0.5), G(j + 1.5)], G interpolating anchors ``f``; 0 and 1 at the ends."""
    return np.concatenate([[0.0], (f[1:-1] + f[2:]) / 2, [1.0]])


def test_mg_is_motion_uniform_over_every_frame_range():
    # The paper's "motion uniform" property: each of the N draws lies in its own
    # 1/N interval of y, so the picks in any frame range [a, b] differ from N times
    # the range's y-mass by at most 2.  Every range at once: prefix counts minus
    # N times the edges, whose spread bounds each range's deviation.
    rng = np.random.default_rng(2104)
    worst = 0.0
    for _ in range(3000):
        t, n = int(rng.integers(1, 200)), int(rng.integers(1, 40))
        p = rng.random(t) * (rng.random(t) >= 0.4)  # about 40% zero-mass frames
        if not p.any():
            p[rng.integers(t)] = 1.0
        curve = build_curve(MotionDistribution(p / p.sum()))
        cfg = cfg_for("mg", n, seed=int(rng.integers(2**63)), deterministic=bool(rng.random() < 0.5))
        picks = np.concatenate([[0], np.cumsum(np.bincount(mg_sample(curve, cfg).indices, minlength=t))])
        deviation = picks - n * y_mass_edges(curve.values)
        worst = max(worst, deviation.max() - deviation.min())
    assert worst <= 2, worst


def test_mg_clip_is_motion_uniform_inside_its_window():
    # The same bound in window coordinates, over the curve of the window's own
    # distribution; a window with no mass draws from the uniform distribution.
    rng = np.random.default_rng(2105)
    worst, zero_windows = 0.0, 0
    for _ in range(3000):
        t, n, length = int(rng.integers(1, 200)), int(rng.integers(1, 40)), int(rng.integers(1, 240))
        p = rng.random(t) * (rng.random(t) >= 0.4)  # about 40% zero-mass frames
        if not p.any():
            p[rng.integers(t)] = 1.0
        m = MotionDistribution(p / p.sum())
        cfg = cfg_for("mg-clip", n, window_len=length, seed=int(rng.integers(2**63)),
                      deterministic=bool(rng.random() < 0.5))
        plan = windowed_clip_sample(m, cfg)
        sub = m.probs[plan.window_start : plan.window_start + length]
        zero_windows += not sub.any()
        curve = build_curve(MotionDistribution(sub / sub.sum()) if sub.any() else uniform_dist(sub.size))
        picks = np.bincount(np.array(plan.indices) - plan.window_start, minlength=sub.size)
        deviation = np.concatenate([[0], np.cumsum(picks)]) - n * y_mass_edges(curve.values)
        worst = max(worst, deviation.max() - deviation.min())
    assert zero_windows > 0
    assert worst <= 2, worst


def test_segment_is_motion_uniform_in_time_over_every_frame_range():
    # segment's version of the bound, in time: each of the N draws lies in its
    # own segment [(i-1)T/N, iT/N), so the picks in any frame range [a, b] differ
    # from N(b - a + 1)/T by at most 2.  Every range at once, as for mg.
    rng = np.random.default_rng(2106)
    worst = 0.0
    for _ in range(3000):
        t, n = int(rng.integers(1, 200)), int(rng.integers(1, 40))
        cfg = cfg_for("segment", n, seed=int(rng.integers(2**63)), deterministic=bool(rng.random() < 0.5))
        picks = np.concatenate([[0], np.cumsum(np.bincount(segment_sample(t, cfg).indices, minlength=t))])
        deviation = picks - n * np.arange(t + 1) / t
        worst = max(worst, deviation.max() - deviation.min())
    assert worst <= 2, worst


class TestMgSegmentRelationship:
    def test_deviation_at_most_one_index_everywhere(self):
        # Exhaustive uniform-distribution sweep; the two conventions may
        # disagree by one position per pick, never more.
        max_dev = 0
        equal_pairs = []
        for t in range(1, 65):
            uniform = MotionDistribution(np.full(t, 1.0 / t))
            curve = build_curve(uniform)
            for n in range(1, 17):
                mg = mg_sample(curve, cfg_for("mg", n, deterministic=True)).indices
                seg = segment_sample(t, cfg_for("segment", n, deterministic=True)).indices
                dev = max(abs(a - b) for a, b in zip(mg, seg))
                max_dev = max(max_dev, dev)
                if mg == seg:
                    equal_pairs.append((t, n))
        print(f"observed max mg/segment deviation: {max_dev}")
        assert max_dev <= 1
        assert (8, 8) in equal_pairs  # T an odd multiple of N: conventions agree


class TestSamplePlanType:
    def test_rejects_descending_indices(self):
        with pytest.raises(StructuralError):
            SamplePlan((3, 1), cfg_for("mg", 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(StructuralError):
            SamplePlan((1,), cfg_for("mg", 2))

    def test_rejects_negative_index(self):
        with pytest.raises(StructuralError):
            SamplePlan((-1, 2), cfg_for("mg", 2))


class TestSamplerConfigType:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            SamplerConfig(strategy="optical-flow")

    def test_bad_n_frames(self):
        with pytest.raises(ConfigError):
            SamplerConfig(n_frames=0)

    def test_n_frames_is_capped_at_65536(self):
        assert SamplerConfig(n_frames=2**16).n_frames == 2**16
        with pytest.raises(ConfigError, match=r"n_frames must be an integer in 1\.\.65536, got 65537"):
            SamplerConfig(n_frames=2**16 + 1)

    def test_negative_mu(self):
        with pytest.raises(ConfigError):
            SamplerConfig(mu=-1.0)

    def test_stride_validated_only_for_stride_strategy(self):
        SamplerConfig(strategy="mg", stride=0)  # ignored parameter, accepted
        with pytest.raises(ConfigError):
            SamplerConfig(strategy="stride", stride=0)

    def test_window_validated_only_for_clip_strategy(self):
        SamplerConfig(strategy="segment", window_len=0)
        with pytest.raises(ConfigError):
            SamplerConfig(strategy="mg-clip", window_len=0)

    def test_seed_must_fit_u64(self):
        with pytest.raises(ConfigError):
            SamplerConfig(seed=2**64)

    @pytest.mark.parametrize("field, value, strategy", [
        ("n_frames", 8.0, "mg"),
        ("seed", 1.5, "mg"),
        ("window_len", 16.0, "mg-clip"),
        ("stride", 2.0, "stride"),
    ])
    def test_non_integral_field_names_itself(self, field, value, strategy):
        with pytest.raises(ConfigError, match=field):
            SamplerConfig(strategy=strategy, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_frames", np.int64(4)), ("seed", np.uint64(5)), ("stride", np.int32(3)),
        ("window_len", np.uint16(16)),
    ])
    def test_numpy_integers_stored_as_int(self, field, value):
        strategy = {"stride": "stride", "window_len": "mg-clip"}.get(field, "mg")
        cfg = SamplerConfig(strategy=strategy, **{field: value})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == value
        plan = json.loads(plan_to_json(sample_from_distribution(uniform_dist(40), cfg)))
        assert plan["n_frames"] == cfg.n_frames and plan["seed"] == cfg.seed

    @pytest.mark.parametrize("mu", [np.float32(0.5), np.float64(0.5)])
    def test_numpy_mu_stored_as_float(self, mu):
        cfg = SamplerConfig(mu=mu)
        assert type(cfg.mu) is float and cfg.mu == 0.5
        plan = json.loads(plan_to_json(sample_from_distribution(uniform_dist(40), cfg)))
        assert plan["mu"] == 0.5

    @pytest.mark.parametrize("value", ["no", 0, 1, 1.0, None, np.int64(1)])
    def test_non_bool_deterministic_names_itself(self, value):
        with pytest.raises(ConfigError, match=f"^deterministic must be a bool, got {re.escape(repr(value))}$"):
            SamplerConfig(deterministic=value)

    @pytest.mark.parametrize("value", [np.True_, np.False_])
    def test_numpy_bool_deterministic_stored_as_bool(self, value):
        cfg = SamplerConfig(n_frames=4, deterministic=value)
        assert type(cfg.deterministic) is bool and cfg.deterministic == value
        plan = sample_from_distribution(uniform_dist(40), cfg)
        assert (plan.draws == (0.125, 0.375, 0.625, 0.875)) == bool(value)

    @pytest.mark.parametrize("mu", ["x", None])
    def test_non_real_mu_names_itself(self, mu):
        with pytest.raises(ConfigError, match="mu"):
            SamplerConfig(mu=mu)


class TestDispatchAndRng:
    def test_dispatch_covers_all_strategies(self, rng):
        m = random_distribution(rng, 40)
        for strategy in ("mg", "segment", "stride", "topk", "mg-clip"):
            cfg = replace(SamplerConfig(n_frames=4, seed=1), strategy=strategy)
            plan = sample_from_distribution(m, cfg)
            assert plan.config.strategy == strategy
            assert len(plan.indices) == 4

    def test_video_seed_stream(self):
        assert video_seed(0, 0) == 0
        assert video_seed(5, 3) == 6
        assert video_seed(2**64 - 1, 1) == 2**64 - 2
        assert video_seed(7, 0) == 7


class TestSerialization:
    def test_plan_json_shape(self):
        plan = mg_sample(build_curve(uniform_dist(8)), cfg_for("mg", 2, seed=7, mu=0.5))
        obj = json.loads(plan_to_json(plan))
        assert set(obj) == {"strategy", "seed", "mu", "n_frames", "indices", "draws"}
        assert obj["strategy"] == "mg"
        assert obj["seed"] == 7
        assert obj["n_frames"] == 2
        assert len(obj["draws"]) == 2

    def test_plan_json_byte_stable(self):
        c = build_curve(uniform_dist(10))
        a = plan_to_json(mg_sample(c, cfg_for("mg", 4, seed=3)))
        b = plan_to_json(mg_sample(c, cfg_for("mg", 4, seed=3)))
        assert a == b and a.endswith("\n")

    def test_non_mg_plan_has_empty_draws(self):
        plan = segment_sample(8, cfg_for("segment", 2, deterministic=True))
        assert json.loads(plan_to_json(plan))["draws"] == []

    def test_plan_json_is_json_dumps_text(self, rng):
        """plan_to_json writes its text directly; it must stay json.dumps's, key order and float text included."""
        odd = [5e-324, 1e-300, 1e-7, 0.1, 1 / 3, 0.5, 2.0, 123456789.0, 1e16, 1e300]
        for mu in (0.0, 5e-324, 1e-300, 0.1, 2.0, 1e300):
            for seed in (0, 2**64 - 1):
                for n in range(1, 101):
                    strategy = STRATEGIES[n % len(STRATEGIES)]
                    cfg = cfg_for(strategy, n, mu=mu, seed=seed)
                    indices = np.sort(rng.integers(0, 5000, n)).tolist()
                    draws = [odd[i % len(odd)] if i % 3 else float(rng.random()) for i in range(n)]
                    for plan_draws in (None, draws):
                        plan = SamplePlan(indices, cfg, draws=plan_draws)
                        assert plan_to_json(plan) == reference_json(cfg, indices, plan_draws)

    def test_curve_csv_golden(self):
        csv_text = curve_to_csv(build_curve(uniform_dist(4)))
        assert csv_text == "frame,cumulative\n0,0\n1,0.25\n2,0.5\n3,0.75\n4,1\n"

    def test_curve_csv_row_count(self, rng):
        t = 17
        csv_text = curve_to_csv(build_curve(random_distribution(rng, t)))
        lines = csv_text.strip().split("\n")
        assert lines[0] == "frame,cumulative"
        assert len(lines) == t + 2


def reference_json(cfg, indices, draws) -> str:
    obj = {
        "strategy": cfg.strategy,
        "seed": cfg.seed,
        "mu": cfg.mu,
        "n_frames": cfg.n_frames,
        "indices": list(indices),
        "draws": list(draws) if draws is not None else [],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def plateau_distribution(t):
    """Mass on a few frames with zero-probability runs between them."""
    probs = np.zeros(t)
    for k, w in zip((t // 3, t // 3 + 1, t - 1), (2.0, 3.0, 4.0)):
        probs[min(k, t - 1)] += w
    return MotionDistribution(probs / probs.sum())


class TestVectorDrawsMatchScalarReference:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plans_equal_reference_byte_for_byte(self, strategy, rng):
        for t in (1, 2, 16, 4096):
            for m in (uniform_dist(t), random_distribution(rng, t), plateau_distribution(t)):
                for n in (1, 2, 3, 8, 32, 100):
                    if strategy == "topk" and n > t:
                        continue
                    for seed, det in ((0, True), (0, False), (7, False), (2**64 - 1, False)):
                        window = 32 if seed % 2 else 5
                        cfg = cfg_for(strategy, n, seed=seed, deterministic=det, window_len=window)
                        plan = sample_from_distribution(m, cfg)
                        indices, draws, start = scalar_plan(m.probs, strategy, n, seed, det, window_len=window)
                        assert plan_to_json(plan) == reference_json(cfg, indices, draws)
                        assert plan.window_start == start

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_endpoint_redraws_follow_scalar_rule(self, n, monkeypatch):
        top = math.nextafter(1.0, 0.0)  # lands on hi in every interval but the first
        script = [0.0, 0.25, top, 0.0, 0.0, 0.5, top, 0.75] * 3 + [0.1] * 3 * n
        vector_rng, scalar_rng = ScriptedRng(script), ScriptedRng(script)
        monkeypatch.setattr(sampling, "make_rng", lambda seed: vector_rng)
        plan = mg_sample(build_curve(uniform_dist(64)), cfg_for("mg", n))
        assert list(plan.draws) == scalar_interval_draws(n, scalar_rng)
        assert vector_rng.consumed == scalar_rng.consumed > n

    def test_no_redraw_takes_exactly_n_doubles(self, monkeypatch):
        stub = ScriptedRng([0.5] * 8)
        monkeypatch.setattr(sampling, "make_rng", lambda seed: stub)
        mg_sample(build_curve(uniform_dist(8)), cfg_for("mg", 8))
        assert stub.consumed == 8


class ScriptedRng:
    """A stand-in generator returning scripted doubles; uniform() uses numpy's scalar formula."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.consumed = 0

    def _next(self) -> float:
        if self.consumed == len(self.doubles):
            raise AssertionError("script exhausted")
        self.consumed += 1
        return self.doubles[self.consumed - 1]

    def random(self, size=None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(size)])

    def uniform(self, low, high):
        return low + (high - low) * self._next()


class TestCurvePerDistribution:
    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls = []
        real = sampling.build_curve

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sampling, "build_curve", counting)
        return calls

    def test_repeated_mg_draws_build_the_curve_once(self, rng, build_calls):
        m = random_distribution(rng, 40)
        plans = [sample_from_distribution(m, cfg_for("mg", 8, seed=s)) for s in range(6)]
        assert len(build_calls) == 1
        assert plans[0] != plans[1]  # the draws still differ
        expected = mg_sample(sampling.build_curve(m), cfg_for("mg", 8, seed=3))
        assert plan_to_json(plans[3]) == plan_to_json(expected)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sample_video_returns_the_curve_it_drew_from(self, rng, build_calls, monkeypatch, strategy):
        drawn_from = []
        real_mg = sampling.mg_sample

        def spy(curve, cfg):
            drawn_from.append(curve)
            return real_mg(curve, cfg)

        monkeypatch.setattr(sampling, "mg_sample", spy)
        volume = FrameVolume(rng.integers(0, 256, (40, 6, 5, 1), dtype=np.uint8))
        plan, curve, m = sample_video(volume, cfg_for(strategy, 4, seed=2))
        assert len(build_calls) == 1  # mg-clip builds its window's anchors without build_curve
        assert curve.values.tolist() == build_curve(m).values.tolist()
        if strategy == "mg":
            assert drawn_from == [curve] and drawn_from[0] is curve


def test_sample_video_rejects_unknown_representation(rng):
    volume = FrameVolume(rng.integers(0, 256, (6, 4, 4, 1), dtype=np.uint8))
    with pytest.raises(ConfigError, match="unknown representation 'flow'"):
        sample_video(volume, cfg_for("mg", 2), "flow")


class TestSalienceStage:
    """``sample_video`` is ``sample_salience`` of ``video_salience``: a salience kept as text replays its plans."""

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_plans_replay_from_the_salience_written_as_repr(self, rng, representation, dtype):
        frames = random_volume(rng, 30, h=9, w=7, c=3, dtype=dtype).frames.copy()
        frames[10:16] = frames[10]  # a static run: zero scores among the others
        volume = FrameVolume(frames)
        text = [repr(float(v)) for v in video_salience(volume, representation).values]
        salience = SalienceVector(np.array([float(v) for v in text]))
        for strategy in STRATEGIES:
            for deterministic in (False, True):
                cfg = SamplerConfig(n_frames=6, mu=0.7, strategy=strategy, window_len=12, seed=9,
                                    deterministic=deterministic)
                plan, curve, _ = sample_video(volume, cfg, representation)
                replay, replay_curve, _ = sampling.sample_salience(salience, cfg)
                assert plan_to_json(replay) == plan_to_json(plan), (strategy, deterministic)
                assert curve_to_csv(replay_curve) == curve_to_csv(curve), (strategy, deterministic)

    def test_returns_the_kept_curve_of_the_smoothed_distribution(self, rng):
        salience = SalienceVector(np.concatenate(([0.0], rng.uniform(0, 5, 19))))
        plan, curve, m = sampling.sample_salience(salience, cfg_for("mg", 4, seed=1))
        assert curve is sampling.distribution_curve(m)
        assert m.probs.tobytes() == smooth_distribution(normalize_salience(salience), 0.5).probs.tobytes()
        assert plan_to_json(plan) == plan_to_json(mg_sample(curve, cfg_for("mg", 4, seed=1)))
