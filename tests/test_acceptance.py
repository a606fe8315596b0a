"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and the measured numbers per criterion.

Known red: ``test_mu_degeneracy_grid``.  The motion-guided sampler maps the
inverted curve position x to a frame via round-half-up on a 1-based axis
(pinned by the hand-example and windowed-clip criteria below), while the
segment sampler floors positions on a zero-based axis.  On the exact grid
this criterion sweeps, the inverted midpoints land on integers, where those
two conventions always differ by exactly one index, so equality is
unsatisfiable without breaking the hand-example criteria.  The adjacent
within-one-index property is covered in test_sampling.py.
"""

import time

import numpy as np

from motionsample import (
    FrameVolume,
    MotionDistribution,
    SalienceVector,
    SamplerConfig,
    SyntheticSpec,
    build_curve,
    burst_coverage,
    feature_diff_salience,
    generate_synthetic_video,
    identity_bank,
    image_diff_salience,
    invert_curve,
    mg_sample,
    normalize_salience,
    salience_mass_in_bursts,
    segment_sample,
    smooth_distribution,
)
from conftest import random_distribution, random_volume
from oracles import brute_force_invert, shannon_entropy

MU_GRID = (0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 2.0)


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


def det_cfg(strategy: str, n: int, mu: float = 0.5) -> SamplerConfig:
    return SamplerConfig(n_frames=n, mu=mu, strategy=strategy, deterministic=True)


def test_mu_degeneracy_grid():
    """mg(mu=0, deterministic) versus segment(deterministic) on the stated grid."""
    start = time.perf_counter()
    mismatches = []
    for n in (4, 8):
        for t in (8, 16, 32, 64):
            if t % (2 * n):
                continue
            uniform = smooth_distribution(
                MotionDistribution(np.full(t, 1.0 / t)), 0.0
            )
            mg = mg_sample(build_curve(uniform), det_cfg("mg", n, mu=0.0)).indices
            seg = segment_sample(t, det_cfg("segment", n)).indices
            if mg != seg:
                mismatches.append((t, n, mg, seg))
    elapsed = time.perf_counter() - start
    detail = f"{len(mismatches)} grid points differ, {elapsed:.2f}s"
    if mismatches:
        t, n, mg, seg = mismatches[0]
        detail += f"; e.g. T={t} N={n}: mg={list(mg)} segment={list(seg)}"
    ok = report("mu-degeneracy grid equality", not mismatches, detail)
    assert elapsed < 1.0
    assert ok, (
        "mg(mu=0, det) != segment(det) on every grid point; the curve-rounding "
        "and segment-floor index conventions are one apart when inverted "
        "midpoints are integers (see module docstring)"
    )


def test_normalization_and_curve_invariants(rng):
    start = time.perf_counter()
    worst_sum = 0.0
    for _ in range(10_000):
        t = int(rng.integers(1, 513))
        values = rng.uniform(0.0, 1000.0, size=t)
        values[0] = 0.0
        if rng.random() < 0.3 and t > 2:  # zero runs exercise plateau handling
            values[rng.integers(1, t) :] = 0.0
        mu = float(rng.choice(MU_GRID))
        m = smooth_distribution(normalize_salience(SalienceVector(values)), mu)
        worst_sum = max(worst_sum, abs(float(m.probs.sum()) - 1.0))
        curve = build_curve(m)
        assert curve.values[0] == 0.0
        assert abs(curve.values[-1] - 1.0) <= 1e-9
        assert np.all(np.diff(curve.values) >= 0)
        assert worst_sum <= 1e-9
    elapsed = time.perf_counter() - start
    ok = report(
        "normalization and curve invariants",
        elapsed < 10.0,
        f"10000 vectors, worst |sum-1| = {worst_sum:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_inversion_matches_brute_force_oracle(rng):
    start = time.perf_counter()
    checked = 0
    for _ in range(1_000):
        t = int(rng.integers(1, 129))
        curve = build_curve(random_distribution(rng, t))
        y = float(rng.uniform(0.0, 1.0))
        assert invert_curve(curve, y) == brute_force_invert(curve.values, y)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = report(
        "curve inversion vs 1e-6 brute-force scan",
        checked == 1_000 and elapsed < 10.0,
        f"{checked} pairs, {elapsed:.2f}s",
    )
    assert ok


def test_hand_computed_golden_values():
    diff = image_diff_salience(
        FrameVolume(np.array([[[[0], [10]]], [[[3], [10]]]], dtype=np.uint8))
    )
    golden_diff = diff.values.tolist() == [0.0, 3.0]

    smoothed = smooth_distribution(MotionDistribution(np.array([0.64, 0.04, 0.16, 0.16])), 0.5)
    golden_smooth = bool(
        np.allclose(smoothed.probs, [4 / 9, 1 / 9, 2 / 9, 2 / 9], atol=1e-12, rtol=0)
    )

    curve = build_curve(MotionDistribution(np.array([0.0, 0.5, 0.25, 0.25])))
    golden_interp = invert_curve(curve, 0.25) == 1 == brute_force_invert(curve.values, 0.25)
    golden_anchor = invert_curve(curve, 0.75) == 2 == brute_force_invert(curve.values, 0.75)

    uniform8 = build_curve(MotionDistribution(np.full(8, 1 / 8)))
    plan = mg_sample(uniform8, det_cfg("mg", 8))
    oracle = tuple(brute_force_invert(uniform8.values, (2 * i - 1) / 16) for i in range(1, 9))
    golden_uniform = plan.indices == tuple(range(8)) == oracle

    ok = report(
        "hand-computed golden values",
        golden_diff and golden_smooth and golden_interp and golden_anchor and golden_uniform,
        "diff, smoothing, two inversions, uniform T=8/N=8",
    )
    assert ok


def test_burst_concentration():
    start = time.perf_counter()
    spec = SyntheticSpec(
        t_count=100, height=32, width=32, channels=1, bursts=((40, 59, 4.0),)
    )
    volume = generate_synthetic_video(spec)
    m = smooth_distribution(normalize_salience(image_diff_salience(volume)), 1.0)
    mass = salience_mass_in_bursts(m, spec)
    mg_plan = mg_sample(build_curve(m), det_cfg("mg", 8, mu=1.0))
    seg_plan = segment_sample(100, det_cfg("segment", 8))
    mg_cov = burst_coverage(mg_plan, spec)
    seg_cov = burst_coverage(seg_plan, spec)
    elapsed = time.perf_counter() - start
    ok = report(
        "burst concentration",
        mass >= 0.99 and mg_cov == 1.0 and seg_cov <= 0.25 and elapsed < 1.0,
        f"mass={mass:.4f}, mg={mg_cov:.2f}, segment={seg_cov:.2f}, {elapsed:.2f}s",
    )
    assert ok


def test_entropy_monotone_in_mu(rng):
    worst_rise = 0.0
    for _ in range(1_000):
        t = int(rng.integers(2, 64))
        m = MotionDistribution(rng.dirichlet(np.ones(t)))
        entropies = [shannon_entropy(smooth_distribution(m, mu).probs) for mu in MU_GRID]
        for a, b in zip(entropies, entropies[1:]):
            worst_rise = max(worst_rise, b - a)
        assert worst_rise <= 1e-12
    ok = report(
        "entropy non-increasing over mu grid",
        worst_rise <= 1e-12,
        f"1000 distributions, worst rise = {worst_rise:.2e}",
    )
    assert ok


def test_single_video_latency():
    spec = SyntheticSpec(
        t_count=160, height=112, width=112, channels=3, bursts=((30, 89, 4.0),)
    )
    volume = FrameVolume(generate_synthetic_video(spec).frames.astype(np.uint8))
    cfg = det_cfg("mg", 8, mu=0.5)

    def run_once() -> None:
        m = smooth_distribution(normalize_salience(image_diff_salience(volume)), cfg.mu)
        mg_sample(build_curve(m), cfg)

    run_once()  # warm-up excluded from the statistic
    times = []
    for _ in range(15):
        begin = time.perf_counter()
        run_once()
        times.append(time.perf_counter() - begin)
    median_ms = float(np.median(times) * 1e3)
    ok = report(
        "single-video latency (160 frames, 112x112x3)",
        median_ms < 50.0,
        f"median {median_ms:.2f} ms over 15 runs, bound 50 ms",
    )
    assert ok


def test_feature_image_equivalence(rng):
    bank = identity_bank(1)
    worst_rel = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 9))
        h, w = int(rng.integers(4, 17)), int(rng.integers(4, 17))
        volume = random_volume(rng, t, h=h, w=w, c=1)
        img = image_diff_salience(volume).values
        feat = feature_diff_salience(volume, bank).values
        np.testing.assert_allclose(feat, img, rtol=1e-4, atol=1e-9)
        nonzero = img > 0
        if nonzero.any():
            worst_rel = max(
                worst_rel, float(np.max(np.abs(feat[nonzero] - img[nonzero]) / img[nonzero]))
            )
    ok = report(
        "feature/image equivalence with identity bank",
        worst_rel <= 1e-4,
        f"100 videos, worst relative error = {worst_rel:.2e}",
    )
    assert ok
