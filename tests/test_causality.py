from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathsig import (
    DataError,
    LorenzParams,
    NullModelSpec,
    Path,
    PreprocessConfig,
    WindowSpec,
    cross_correlation,
    default_three_channel_events,
    granger_var,
    lorenz,
    mix_seed,
    shuffle_channels,
    shuffle_null,
    signed_area,
    signature_derivative,
    sliding_signature_derivative,
    sliding_signed_area,
    three_channel_event_series,
)
from pathsig import _null
from pathsig._null import _significant_runs
from conftest import random_path


def circle_pair(periods=2.0, per_period=400):
    n = int(periods * per_period)
    t = np.linspace(0.0, periods, n + 1)
    theta = 2.0 * np.pi * t
    return Path(t, np.column_stack([np.cos(theta), np.sin(theta)]))


# ---------------------------------------------------------------------------
# specs


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(length=0.0, stride=0.1)
    with pytest.raises(ValueError):
        WindowSpec(length=0.5, stride=0.0)


def test_null_model_spec_validation():
    with pytest.raises(ValueError):
        NullModelSpec(replicates=1, seed=1)
    with pytest.raises(ValueError):
        NullModelSpec(replicates=10, seed=1, band_sigmas=0.0)
    with pytest.raises(ValueError):
        NullModelSpec(replicates=10, seed=1, band_mode="bootstrap")


# ---------------------------------------------------------------------------
# sliding signed area


def test_full_domain_window_equals_signed_area(rng):
    a = random_path(rng, n_samples=30, n_channels=2)
    w = WindowSpec(length=a.duration, stride=1.0)
    times, areas = sliding_signed_area(a, (1, 2), w)
    assert areas.shape == (1,)
    assert areas[0] == pytest.approx(signed_area(a, 1, 2), abs=1e-12)


def test_window_grid_frozen_small_case():
    # T=11 samples on dt=0.1: window 0.4 spans 4 segments, stride 0.2
    # snaps starts to even samples -> starts 0,2,4,6, centers 0.2..0.8
    t = np.linspace(0.0, 1.0, 11)
    a = Path(t, np.column_stack([t, t * t]))
    times, areas = sliding_signed_area(a, (1, 2), WindowSpec(0.4, 0.2))
    assert np.allclose(times, [0.2, 0.4, 0.6, 0.8])
    for center, area in zip(times, areas):
        k1 = int(round((center - 0.2) / 0.1))
        sl = slice(k1, k1 + 5)
        x = t[sl] - t[sl][0]
        y = (t * t)[sl] - (t * t)[sl][0]
        shoelace = 0.5 * (
            np.dot(x[:-1], np.diff(y)) - np.dot(y[:-1], np.diff(x))
        )
        assert area == pytest.approx(shoelace, abs=1e-14)


def test_window_shorter_than_spacing_raises():
    t = np.linspace(0.0, 1.0, 11)
    a = Path(t, np.column_stack([t, t]))
    with pytest.raises(ValueError):
        sliding_signed_area(a, (1, 2), WindowSpec(0.01, 0.1))


def test_window_longer_than_series_raises(rng):
    a = random_path(rng, n_samples=10)
    with pytest.raises(ValueError):
        sliding_signed_area(a, (1, 2), WindowSpec(100.0, 1.0))


def test_window_over_one_sample_is_longer_than_the_series():
    """One sample has no uniform step: the windows are laid out in time."""
    a = Path([0.0], [[1.0, 2.0]])
    with pytest.raises(DataError, match="^window is longer than the series$"):
        sliding_signed_area(a, (1, 2), WindowSpec(1.0, 1.0))


@pytest.mark.parametrize("length", [0.3, 0.7, 1.7])
def test_strides_below_half_dt_start_a_window_at_every_sample(rng, length):
    # 0.51 dt still walks the stride grid; below dt/2 the starts are taken
    # as every sample without building the grid
    a = random_path(rng, n_samples=40, n_channels=2)
    a = Path(0.1 * a.times - 2.0, a.values)
    grid = WindowSpec(length, 0.051)
    want = sliding_signed_area(a, (1, 2), grid)
    want_d = sliding_signature_derivative(a, (1, 2), grid)
    assert want[0].size == 40 - round(length / 0.1)
    for stride in (0.049, 0.01, 1e-12):
        w = WindowSpec(length, stride)
        got = sliding_signed_area(a, (1, 2), w)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        got = sliding_signature_derivative(a, (1, 2), w)
        assert np.array_equal(got[1], want_d[1])


def test_too_many_nonuniform_windows_raise_before_allocating(rng):
    a = random_path(rng, n_samples=20, n_channels=2, uniform=False)
    with pytest.raises(ValueError, match="over the cap"):
        sliding_signed_area(a, (1, 2), WindowSpec(1.0, a.duration * 1e-7))


def test_window_starting_past_the_last_sample_has_zero_area():
    # the end tolerance admits a start just past t_end for a window shorter
    # than that tolerance; like every window here it holds no sample
    t = np.array([0.0, 0.3, 1.0, 1.1, 2.0])
    a = Path(t, np.arange(10.0).reshape(5, 2) ** 1.5)
    w = WindowSpec(1e-12, (2.0 + 1e-10) / 4)
    times, areas = sliding_signed_area(a, (1, 2), w)
    assert times.size == 5 and times[-1] > 2.0
    assert np.array_equal(areas, np.zeros(5))


def test_commensurate_circle_windows_are_constant():
    a = circle_pair(periods=2.0, per_period=400)
    times, areas = sliding_signed_area(a, (1, 2), WindowSpec(1.0, 0.05))
    assert times.shape == (21,)
    spread = areas.max() - areas.min()
    assert spread / abs(areas.mean()) < 1e-6


def test_nonuniform_windows_match_brute_force(rng):
    times = np.cumsum(rng.uniform(0.5, 1.5, 40))
    values = rng.normal(size=(40, 2))
    a = Path(times, values)
    w = WindowSpec(length=10.0, stride=3.0)
    got_t, got_v = sliding_signed_area(a, (1, 2), w)

    def restrict(col, ws, we):
        inside = (times >= ws) & (times <= we)
        xs = np.concatenate(
            [
                [np.interp(ws, times, col)],
                col[inside],
                [np.interp(we, times, col)],
            ]
        )
        return xs

    t0, t_end = times[0], times[-1]
    exp_t, exp_v = [], []
    m = 0
    while t0 + m * w.stride + w.length <= t_end + 1e-9 * a.duration:
        ws = t0 + m * w.stride
        we = ws + w.length
        x = restrict(values[:, 0], ws, we)
        y = restrict(values[:, 1], ws, we)
        x, y = x - x[0], y - y[0]
        exp_v.append(
            0.5 * (np.dot(x[:-1], np.diff(y)) - np.dot(y[:-1], np.diff(x)))
        )
        exp_t.append(0.5 * (ws + we))
        m += 1
    assert np.allclose(got_t, exp_t, atol=1e-9)
    assert np.allclose(got_v, exp_v, atol=1e-9)


@st.composite
def nonuniform_windows(draw):
    """A non-uniform path with dyadic times and a window spec for it.

    Times, strides and "end" lengths are dyadic, so in that mode the last
    window ends exactly at t_end. Strides reach 16x below the smallest
    sample gap, and "short" windows fit inside one gap.
    """
    n = draw(st.integers(3, 10))
    gaps = np.array(draw(st.lists(st.integers(1, 16), min_size=n - 1,
                                  max_size=n - 1))) / 16.0
    assume(gaps.min() != gaps.max())
    times = draw(st.integers(-800, 800)) / 16.0 + np.concatenate(
        [[0.0], np.cumsum(gaps)]
    )
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 100.0),
                      st.floats(-100.0, -1e-3))
    values = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n,
                                    max_size=n)))
    duration = times[-1] - times[0]
    stride = 2.0 ** draw(st.integers(-8, 3))
    mode = draw(st.sampled_from(["end", "short", "free"]))
    if mode == "end":
        m = draw(st.integers(0, int(np.ceil(duration / stride)) - 1))
        length = duration - m * stride
    elif mode == "short":
        length = gaps.min() * draw(st.floats(0.05, 0.95))
    else:
        length = duration * draw(st.floats(1e-3, 1.0))
    return Path(times, values), WindowSpec(length, stride)


def stride_windows(times, w):
    """(start, end) of each window on the stride grid, ends clipped."""
    t0, t_end = times[0], times[-1]
    tol = 1e-9 * max(1.0, t_end - t0)
    m = 0
    while t0 + m * w.stride + w.length <= t_end + tol:
        ws = t0 + m * w.stride
        yield ws, min(ws + w.length, t_end)
        m += 1


@settings(max_examples=60, deadline=None)
@given(nonuniform_windows())
def test_nonuniform_areas_match_shoelace_of_each_window(case):
    a, w = case
    times = a.times
    bounds = list(stride_windows(times, w))
    assert bounds  # window lengths never exceed the duration
    got_t, got_v = sliding_signed_area(a, (1, 2), w)
    scale = float(np.abs(a.values).max()) ** 2
    assert np.array_equal(got_t, [0.5 * (ws + we) for ws, we in bounds])
    for (ws, we), area in zip(bounds, got_v):
        inside = (times > ws) & (times < we)
        x, y = (
            np.concatenate([[np.interp(ws, times, c)], c[inside],
                            [np.interp(we, times, c)]])
            for c in (a.channel(1), a.channel(2))
        )
        x, y = x - x[0], y - y[0]
        shoelace = 0.5 * (np.dot(x[:-1], np.diff(y)) - np.dot(y[:-1], np.diff(x)))
        assert abs(area - shoelace) <= 1e-12 * scale
        if not inside.any():
            assert area == 0.0  # one straight piece: null bands are 0 too


@settings(max_examples=60, deadline=None)
@given(nonuniform_windows())
def test_nonuniform_influence_matches_mean_over_full_segments(case):
    a, w = case
    a = Path(a.times, a.values - a.values[0])
    times = a.times
    _, stream = signature_derivative(a, 1, 2)
    widths = np.diff(times)
    expected = []
    for ws, we in stride_windows(times, w):
        segs = np.flatnonzero((times[:-1] >= ws) & (times[1:] <= we))
        if segs.size:
            span = widths[segs].sum()
            center = 0.5 * (times[segs[0]] + times[segs[-1] + 1])
            mean = np.dot(stream[segs], widths[segs]) / span
            expected.append((center, mean, span))
    if not expected:
        with pytest.raises(ValueError, match="no window contains"):
            sliding_signature_derivative(a, (1, 2), w)
        return
    got_t, got_v = sliding_signature_derivative(a, (1, 2), w)
    scale = float(np.abs(a.values).max()) ** 2
    assert np.array_equal(got_t, [c for c, _, _ in expected])
    for value, (_, mean, span) in zip(got_v, expected):
        assert abs(value - mean) <= 1e-12 * scale / span


# ---------------------------------------------------------------------------
# sliding signature derivative


def test_sliding_derivative_without_window_is_raw_stream(rng):
    a = random_path(rng, n_samples=12)
    a = Path(a.times, a.values - a.values[0])
    t1, v1 = sliding_signature_derivative(a, (1, 2))
    t2, v2 = signature_derivative(a, 1, 2)
    assert np.array_equal(t1, t2) and np.array_equal(v1, v2)


def test_sliding_derivative_window_means(rng):
    t = np.linspace(0.0, 1.0, 21)
    values = rng.normal(size=(21, 2))
    values -= values[0]
    a = Path(t, values)
    w = WindowSpec(length=0.25, stride=0.1)
    centers, means = sliding_signature_derivative(a, (1, 2), w)
    _, stream = signature_derivative(a, 1, 2)
    for center, mean in zip(centers, means):
        k1 = int(round((center - 0.125) / 0.05))
        assert mean == pytest.approx(stream[k1 : k1 + 5].mean(), abs=1e-12)


def test_sliding_derivative_constant_stream_windows(rng):
    t = np.linspace(0.0, 1.0, 50)
    a = Path(t, np.column_stack([t, t]))  # stream = midpoints, linear
    centers, means = sliding_signature_derivative(
        a, (1, 2), WindowSpec(0.2, 0.1)
    )
    # mean of a linear stream over symmetric windows = value at the center
    assert np.allclose(means, centers, atol=1e-12)


@pytest.mark.parametrize(
    "times, pair, message",
    [
        ([0.0], (1, 2), "signature_derivative needs at least 2 samples"),
        ([0.0, 1.0, 2.5], (1, 5), r"channel 5 outside \[1, 2\]"),
    ],
    ids=["one-sample", "bad-channel"],
)
def test_sliding_derivative_names_path_faults_before_a_bad_window(
    times, pair, message
):
    """The windows are chosen before the stream integral, but a fault of
    the path or pair is still named before a window that does not fit."""
    a = Path(np.array(times), np.ones((len(times), 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sliding_signature_derivative(a, pair, WindowSpec(1e9, 1.0))


# ---------------------------------------------------------------------------
# seeds and shuffles


def test_mix_seed_is_deterministic_and_spread():
    outs = [mix_seed(42, r) for r in range(100)]
    assert outs == [mix_seed(42, r) for r in range(100)]
    assert len(set(outs)) == 100
    assert all(0 <= v < 2 ** 64 for v in outs)
    assert mix_seed(42, 0) != mix_seed(43, 0)


def test_shuffle_channels_preserves_multisets(rng):
    a = random_path(rng, n_samples=50, n_channels=3)
    sh = shuffle_channels(a, mix_seed(7, 0))
    for c in range(3):
        assert np.array_equal(
            np.sort(sh.values[:, c]), np.sort(a.values[:, c])
        )
    assert np.array_equal(sh.times, a.times)


def test_shuffle_channels_is_deterministic(rng):
    a = random_path(rng, n_samples=50, n_channels=2)
    s1 = shuffle_channels(a, 12345)
    s2 = shuffle_channels(a, 12345)
    s3 = shuffle_channels(a, 54321)
    assert np.array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, s3.values)


def test_shuffle_channels_are_independent(rng):
    n = 200
    base = np.arange(n, dtype=float)
    a = Path(base.copy(), np.column_stack([base, base]))
    sh = shuffle_channels(a, 99)
    # identical channels get different permutations
    assert not np.array_equal(sh.values[:, 0], sh.values[:, 1])


def test_shuffle_channels_takes_the_seeds_pcg64_takes(rng):
    """A seed past 64 bits shuffles as np.random.PCG64 seeded with it
    does, and a negative seed is refused by PCG64 itself."""
    a = random_path(rng, n_samples=20, n_channels=2)
    for seed in (2**64, 2**70 + 3):
        expected = np.random.Generator(np.random.PCG64(seed)).permuted(
            a.values, axis=0)
        assert np.array_equal(shuffle_channels(a, seed).values, expected)
    with pytest.raises(ValueError, match="non-negative"):
        shuffle_channels(a, -1)


# ---------------------------------------------------------------------------
# shuffle null model


def event_path(rng, n=400):
    t = np.linspace(0.0, 1.0, n)
    bump = np.exp(-0.5 * ((t - 0.5) / 0.03) ** 2)
    lagged = np.exp(-0.5 * ((t - 0.53) / 0.03) ** 2)
    values = np.column_stack([bump, lagged]) + rng.normal(0, 0.02, (n, 2))
    return Path(t, values)


def area_stat(pair):
    return lambda p, w: sliding_signed_area(p, pair, w)


def test_shuffle_null_is_deterministic(rng):
    a = event_path(rng)
    spec = NullModelSpec(replicates=20, seed=11)
    w = WindowSpec(0.2, 0.05)
    r1 = shuffle_null(a, area_stat((1, 2)), spec, w=w, pair=(1, 2))
    r2 = shuffle_null(a, area_stat((1, 2)), spec, w=w, pair=(1, 2))
    for field in ("times", "observed", "null_mean", "null_std", "band_lo", "band_hi"):
        assert np.array_equal(getattr(r1, field), getattr(r2, field))
    assert r1.runs == r2.runs
    assert np.array_equal(r1.significant_mask, r2.significant_mask)


def test_shuffle_null_matches_manual_replicate_loop(rng):
    a = event_path(rng, n=200)
    spec = NullModelSpec(replicates=8, seed=3)
    w = WindowSpec(0.25, 0.1)
    cfg = PreprocessConfig(center=True)
    report = shuffle_null(
        a, area_stat((1, 2)), spec, w=w, preprocess_cfg=cfg, pair=(1, 2)
    )
    from pathsig import preprocess

    curves = []
    for r in range(8):
        sh = shuffle_channels(a, mix_seed(3, r))
        _, curve = sliding_signed_area(preprocess(sh, cfg), (1, 2), w)
        curves.append(curve)
    curves = np.array(curves)
    assert np.allclose(report.null_mean, curves.mean(axis=0), atol=0)
    assert np.allclose(report.null_std, curves.std(axis=0), atol=0)
    assert np.allclose(
        report.band_lo, curves.mean(0) - 3.0 * curves.std(0), atol=1e-15
    )


def test_shuffle_null_observed_is_unshuffled_statistic(rng):
    a = event_path(rng, n=200)
    w = WindowSpec(0.25, 0.1)
    report = shuffle_null(
        a, area_stat((1, 2)), NullModelSpec(replicates=5, seed=1), w=w
    )
    times, observed = sliding_signed_area(a, (1, 2), w)
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.observed, observed)


def test_quantile_bands_cover_like_gaussian_for_normal_nulls(rng):
    # with 1-sigma bands the erfc-matched quantiles of a big null ensemble
    # sit near mean +- std
    a = event_path(rng, n=120)
    w = WindowSpec(0.3, 0.15)
    g = shuffle_null(
        a,
        area_stat((1, 2)),
        NullModelSpec(replicates=400, seed=5, band_sigmas=1.0),
        w=w,
    )
    q = shuffle_null(
        a,
        area_stat((1, 2)),
        NullModelSpec(
            replicates=400, seed=5, band_sigmas=1.0, band_mode="quantile"
        ),
        w=w,
    )
    width_g = g.band_hi - g.band_lo
    width_q = q.band_hi - q.band_lo
    assert np.all(width_q > 0)
    ratio = width_q / width_g
    assert 0.6 < ratio.mean() < 1.4


def test_significant_runs_extraction():
    times = np.linspace(0.0, 1.0, 11)
    above = np.zeros(11, dtype=bool)
    below = np.zeros(11, dtype=bool)
    above[1:4] = True  # length 3
    below[6:8] = True  # length 2
    runs = _significant_runs(times, above, below, min_run_length=3)
    assert len(runs) == 1
    assert runs[0].sign == 1
    assert runs[0].start == pytest.approx(0.1)
    assert runs[0].end == pytest.approx(0.3)
    runs2 = _significant_runs(times, above, below, min_run_length=2)
    assert len(runs2) == 2
    assert runs2[1].sign == -1


def loop_runs(times, above, below, min_run_length):
    """Reference: walk the points, closing a run at each sign change."""
    sign = np.zeros(times.size, dtype=int)
    sign[above] = 1
    sign[below] = -1
    runs, start = [], 0
    for k in range(1, times.size + 1):
        if k == times.size or sign[k] != sign[start]:
            if sign[start] != 0 and k - start >= min_run_length:
                runs.append((float(times[start]), float(times[k - 1]),
                             int(sign[start])))
            start = k
    return tuple(runs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.integers(1, 6),
)))
def test_significant_runs_match_loop_reference(case):
    above, below, min_run_length = case
    above, below = np.array(above, dtype=bool), np.array(below, dtype=bool)
    times = np.arange(above.size) * 0.5
    want = loop_runs(times, above, below, min_run_length)
    assert _significant_runs(times, above, below, min_run_length) == want


def test_shuffle_null_finds_planted_lead(rng):
    # smoothing inside the pipeline is what collapses the null variance:
    # shuffled samples decorrelate at lag one, the observed bumps survive
    a = event_path(rng)
    spec = NullModelSpec(replicates=60, seed=9, band_sigmas=3.0, min_run_length=3)
    w = WindowSpec(0.1, 0.02)
    report = shuffle_null(
        a,
        area_stat((1, 2)),
        spec,
        w=w,
        preprocess_cfg=PreprocessConfig(smooth_sigma=0.01),
        pair=(1, 2),
    )
    assert any(r.sign > 0 for r in report.runs)
    d = report.to_dict()
    assert d["pair"] == [1, 2]
    assert d["replicates"] == 60
    assert all(set(r) == {"start", "end", "sign"} for r in d["runs"])


# ---------------------------------------------------------------------------
# cross-correlation


def test_xcorr_zero_lag_same_channel_is_mean_square(rng):
    x = rng.normal(size=50)
    a = Path(np.arange(50.0), np.column_stack([x, x]))
    lags, r = cross_correlation(a, (1, 1), max_lag=10.0)
    zero = np.flatnonzero(lags == 0.0)[0]
    assert r[zero] == pytest.approx(np.mean(x * x), abs=1e-12)
    assert r[zero] >= 0


def test_xcorr_matches_brute_force(rng):
    T = 40
    x = rng.normal(size=T)
    y = rng.normal(size=T)
    a = Path(np.arange(T, dtype=float), np.column_stack([x, y]))
    lags, r = cross_correlation(a, (1, 2), max_lag=12.0)
    d_values = np.rint(lags).astype(int)
    for d, got in zip(d_values, r):
        total = 0.0
        for t in range(T):
            if 0 <= t - d < T:
                total += x[t] * y[t - d]
        assert got == pytest.approx(total / (T - abs(d)), abs=1e-12)


def test_xcorr_delayed_copy_peaks_at_minus_k_dt(rng):
    T, k = 240, 7
    x = rng.normal(size=T)
    y = np.zeros(T)
    y[k:] = x[:-k]  # channel 2 lags channel 1 by k samples
    a = Path(np.arange(T, dtype=float), np.column_stack([x, y]))
    lags, r = cross_correlation(a, (1, 2), max_lag=20.0)
    assert lags[np.argmax(r)] == pytest.approx(-k * 1.0)


def test_xcorr_symmetry_between_pair_orders(rng):
    a = random_path(rng, n_samples=60, n_channels=2)
    lags_ij, r_ij = cross_correlation(a, (1, 2), max_lag=8.0)
    lags_ji, r_ji = cross_correlation(a, (2, 1), max_lag=8.0)
    assert np.allclose(r_ij, r_ji[::-1], atol=1e-12)


def test_xcorr_zero_channel_gives_zero(rng):
    x = rng.normal(size=30)
    a = Path(np.arange(30.0), np.column_stack([x, np.zeros(30)]))
    _, r = cross_correlation(a, (1, 2), max_lag=5.0)
    assert np.all(r == 0.0)


def test_xcorr_rejects_bad_lag_and_grid(rng):
    a = random_path(rng, n_samples=30)
    with pytest.raises(ValueError):
        cross_correlation(a, (1, 2), max_lag=a.duration + 5.0)
    b = random_path(rng, n_samples=30, uniform=False)
    with pytest.raises(ValueError):
        cross_correlation(b, (1, 2), max_lag=2.0)


# ---------------------------------------------------------------------------
# every pairwise curve is judged by one finiteness rule, which names the pair

# finite samples whose increments and products overflow float64
HUGE = Path(np.arange(4.0), [[0, 0], [1e308, -1e308], [-1e308, 1e308],
                             [1e308, -1e308]])
# the midpoint of the first gap overflows, so an influence time is inf
GAP = Path(np.array([-1e308, 1e308, 1.5e308]), [[0, 1], [1, 0], [2, 3]])
# windows of 8e307 from 0 reach 1.6e308, whose window center overflows
BIG = Path(np.array([0.0, 8e307, 1.6e308]), [[0, 1], [1, 0], [2, 3]])
# channels rising smoothly to 1.3e154: every window area is finite, but a
# shuffled copy's jumps of ~1e154 make products past float64
_u = np.arange(200) / 199
RISE = Path(np.arange(200.0), 1.3e154 * np.column_stack([_u, _u**2]))

STATISTICS = {
    "signed_area": sliding_signed_area,
    "signature_derivative": sliding_signature_derivative,
    "xcorr": lambda p, pair, w: cross_correlation(p, pair, 1.0),
}
_HUGE_WINDOW = WindowSpec(1.0, 1.0)
_TIME_CASES = [("signed_area", BIG, WindowSpec(8e307, 8e307)),
               ("signature_derivative", GAP, None)]


def _named(name, pair=(1, 2)):
    of = f" of pair {pair[0]},{pair[1]}" if pair else ""
    return f"^the {name} curve{of} is not finite$"


@pytest.mark.parametrize("name", list(STATISTICS))
def test_a_curve_whose_values_overflow_names_its_pair(name):
    with pytest.raises(ValueError, match=_named(name)):
        STATISTICS[name](HUGE, (1, 2), _HUGE_WINDOW)


@pytest.mark.parametrize("name, a, w", _TIME_CASES,
                         ids=["signed_area", "signature_derivative"])
def test_a_curve_whose_times_overflow_names_its_pair(name, a, w):
    with pytest.raises(ValueError, match=_named(name)):
        STATISTICS[name](a, (1, 2), w)


@pytest.mark.parametrize(
    "name, a, w",
    [("signed_area", HUGE, _HUGE_WINDOW),
     ("signature_derivative", HUGE, _HUGE_WINDOW)] + _TIME_CASES,
    ids=["signed_area-values", "signature_derivative-values",
         "signed_area-times", "signature_derivative-times"],
)
def test_a_null_whose_observed_curve_overflows_names_its_pair(name, a, w):
    """Times past float64 raise too, where a report with inf times (which
    JSON cannot hold) used to be returned."""
    stat = STATISTICS[name]
    with pytest.raises(ValueError, match=_named(name)):
        shuffle_null(a, lambda p, win: stat(p, (1, 2), win),
                     NullModelSpec(replicates=4, seed=1), w=w,
                     statistic_name=name, pair=(1, 2))


@pytest.mark.filterwarnings("ignore:channel 1 does not start at 0")
@pytest.mark.parametrize("name", ["signed_area", "signature_derivative"])
def test_a_replicate_whose_curve_overflows_names_its_pair(name):
    """The observed curve is finite; a shuffled copy's is not, and the run
    says so instead of blaming the bands."""
    stat = STATISTICS[name]
    w = WindowSpec(20.0, 5.0)
    stat(RISE, (1, 2), w)
    with pytest.raises(ValueError, match="^a shuffled replicate failed: "
                       + _named(name)[1:]):
        shuffle_null(RISE, lambda p, win: stat(p, (1, 2), win),
                     NullModelSpec(replicates=20, seed=1), w=w,
                     statistic_name=name, pair=(1, 2))


@pytest.mark.parametrize("band_mode", ["gaussian", "quantile"])
@pytest.mark.parametrize(
    "column, what",
    # every replicate of the column is 1e308, so their sum overflows
    [(np.full(8, 1e308), "mean"),
     # replicates of +-1e200 have a finite mean and squares past float64
     (np.tile([1e200, -1e200], 4), "std")],
    ids=["mean", "std"],
)
def test_a_null_whose_mean_or_std_overflows_names_it(column, what, band_mode):
    """Every replicate curve is finite; the null names the first of its
    mean and std that is not, in either band mode, not the bands."""
    a = Path(np.arange(8.0), np.column_stack([column, np.arange(8.0)]))
    with pytest.raises(ValueError, match=f"^the null {what} is not finite$"):
        shuffle_null(a, lambda p, w: (p.times, p.values[..., 0]),
                     NullModelSpec(replicates=20, seed=1, band_mode=band_mode))


@pytest.mark.parametrize("pair", [(1, 2), None], ids=["pair", "no-pair"])
def test_an_opaque_statistic_with_inf_times_is_caught(pair):
    """shuffle_null judges a statistic that checks nothing by the same rule:
    the raw stream's times overflow on GAP."""
    with pytest.raises(ValueError, match=_named("stream", pair)):
        shuffle_null(GAP, lambda p, w: signature_derivative(p, 1, 2),
                     NullModelSpec(replicates=4, seed=1),
                     statistic_name="stream", pair=pair)


# ---------------------------------------------------------------------------
# the null shuffles and preprocesses only its pair's channels


def _c09():
    return three_channel_event_series(
        default_three_channel_events(), samples=1500, noise_sigma=0.05, seed=101)


def _c10():
    traj = lorenz(LorenzParams(dt=0.002, steps=30000))
    return Path(traj.times[::50], traj.values[::50], traj.channel_names)


def _five_channels():
    """Random walks on five scales, named so that a message shows which."""
    rng = np.random.default_rng(17)
    values = np.cumsum(rng.normal(size=(301, 5)), axis=0)
    return Path(np.linspace(0.0, 1.0, 301), values * [1.0, 1e3, 0.5, 2e-3, 7.0],
                ("v", "w", "x", "y", "z"))


_SERIES = {
    # series, its pairs, (statistic, window) pairs
    "c09": (_c09, [(1, 2), (2, 3), (1, 3)],
            [("signed_area", WindowSpec(0.1, 0.005))]),
    "c10": (_c10, [(1, 2)], [("signature_derivative", None)]),
    "five": (_five_channels, [(1, 2), (2, 4), (5, 3), (2, 2)],
             [("signed_area", WindowSpec(0.1, 0.02)),
              ("signature_derivative", WindowSpec(0.05, 0.01))]),
}
_MODES = {
    "none": {},
    "smooth": {"smooth_sigma": 4.0},  # in sample steps
    "center": {"center": True},
    "per": {"normalize": "per"},
    "global": {"normalize": "global"},
    "prepend_zero": {"prepend_zero": True},
    "all": {"smooth_sigma": 4.0, "center": True, "normalize": "per",
            "prepend_zero": True},
}
_REPORT_ARRAYS = ("times", "observed", "null_mean", "null_std", "band_lo",
                  "band_hi", "significant_mask")


def _preprocessing(mode, a):
    """The mode's PreprocessConfig for a, its smoothing in a's sample steps."""
    cfg = dict(_MODES[mode])
    if "smooth_sigma" in cfg:
        cfg["smooth_sigma"] *= float(a.times[1] - a.times[0])
    return PreprocessConfig(**cfg) if cfg else None


@pytest.mark.filterwarnings("ignore:channel \\d+ does not start at 0")
@pytest.mark.parametrize("mode", list(_MODES))
@pytest.mark.parametrize("series", list(_SERIES))
def test_a_null_of_a_pair_matches_the_whole_path_pipeline(series, mode):
    """Shuffling up to the pair's last channel and preprocessing the pair's
    two gives, bit for bit, the report of the whole path through the
    pipeline, which pair=None keeps. The 30 replicates run as two chunks of
    14 and one of 2 on c09, and as one chunk on the other series."""
    make, pairs, statistics = _SERIES[series]
    a = make()
    cfg = _preprocessing(mode, a)
    spec = NullModelSpec(replicates=30, seed=202)
    for pair in pairs:
        for name, w in statistics:
            stat = STATISTICS[name]
            run = [shuffle_null(a, lambda p, win: stat(p, pair, win), spec, w=w,
                                preprocess_cfg=cfg, statistic_name=name, pair=given)
                   for given in (pair, None)]
            for field in _REPORT_ARRAYS:
                got, whole = (getattr(r, field) for r in run)
                assert got.dtype == whole.dtype and got.shape == whole.shape
                assert got.tobytes() == whole.tobytes(), (pair, name, field)
            assert run[0].runs == run[1].runs


@pytest.mark.parametrize("mode", ["smooth", "center", "global"])
def test_channels_outside_the_pair_read_zero(mode):
    """A statistic that reads a channel outside its pair reads 0 there, in
    the observed curve and in every replicate; the pair's own channels are
    not 0."""
    a = _five_channels()
    seen = []

    def stat(p, w):
        seen.append((p.values.shape, [bool(np.any(p.channel(c))) for c in range(1, 6)]))
        return sliding_signed_area(p, (4, 2), w)

    shuffle_null(a, stat, NullModelSpec(replicates=50, seed=3),
                 w=WindowSpec(0.1, 0.02), preprocess_cfg=_preprocessing(mode, a),
                 pair=(4, 2))
    chunk = _null._CHUNK_VALUES // a.values.size
    assert [shape[:-2] for shape, _ in seen] == (
        [()] + [(chunk,)] * (50 // chunk) + [(50 % chunk,)] * (50 % chunk > 0))
    assert all(shape[-1] == 5 for shape, _ in seen)
    assert all(read == [False, True, False, True, False] for _, read in seen)


@pytest.mark.parametrize("pair", [(1, 5), (5, 1), (0, 2)])
def test_a_pair_outside_the_channels_is_refused_by_the_statistic(pair):
    """The statistic's own one-line error, as without the pair, not an
    IndexError from the channel selection."""
    a = _c09()
    bad = next(c for c in pair if not 1 <= c <= 3)
    with pytest.raises(ValueError, match=rf"^channel {bad} outside \[1, 3\]$"):
        shuffle_null(a, lambda p, w: sliding_signed_area(p, pair, w),
                     NullModelSpec(replicates=10, seed=1), w=WindowSpec(0.1, 0.05),
                     preprocess_cfg=PreprocessConfig(smooth_sigma=0.004), pair=pair)


# ---------------------------------------------------------------------------
# Granger measure


def var1_pair(rng, T, coupling, self_coef=0.3):
    x = np.zeros(T)
    y = np.zeros(T)
    ex = rng.normal(0, 1.0, T)
    ey = rng.normal(0, 1.0, T)
    for t in range(1, T):
        x[t] = 0.5 * x[t - 1] + ex[t]
        y[t] = coupling * x[t - 1] + self_coef * y[t - 1] + ey[t]
    return Path(np.arange(T, dtype=float), np.column_stack([x, y]))


def test_granger_independent_noise_is_near_zero(rng):
    cs = []
    for _ in range(10):
        values = rng.normal(size=(500, 2))
        a = Path(np.arange(500.0), values)
        cs.append(granger_var(a, caused=1, covariates=(), order=1))
    assert abs(np.mean(cs)) < 0.1


def test_granger_detects_var1_coupling(rng):
    a = var1_pair(rng, T=2000, coupling=0.8)
    c = granger_var(a, caused=2, covariates=(), order=1)
    assert c > 0.2


def test_granger_self_driven_channel_is_near_zero(rng):
    a = var1_pair(rng, T=3000, coupling=0.0, self_coef=0.7)
    c = granger_var(a, caused=2, covariates=(), order=1)
    assert abs(c) < 0.05


def test_granger_higher_order_and_covariates(rng):
    T = 1500
    values = rng.normal(size=(T, 3))
    values[2:, 2] += 0.7 * values[:-2, 0]
    a = Path(np.arange(float(T)), values)
    c = granger_var(a, caused=3, covariates=(2,), order=2)
    assert c > 0.1


def test_granger_singular_design_raises(rng):
    x = rng.normal(size=200)
    a = Path(np.arange(200.0), np.column_stack([x, x]))
    with pytest.raises(ValueError, match="singular"):
        granger_var(a, caused=1, covariates=(), order=1)


def test_granger_refuses_a_design_over_the_cap(rng):
    """(T - order) x (N*order + 1) cells, counted on the full model before
    it is built: 3,000 x 2,001 here, over 2**21."""
    a = random_path(rng, n_samples=4000, n_channels=2)
    with pytest.raises(ValueError, match="^order 1000 needs a design matrix of "
                       "6003000 cells, over the cap of 2097152$"):
        granger_var(a, caused=2, covariates=(), order=1000)


def test_granger_argument_validation(rng):
    a = random_path(rng, n_samples=100, n_channels=2)
    with pytest.raises(ValueError):
        granger_var(a, caused=3, covariates=(), order=1)
    with pytest.raises(ValueError):
        granger_var(a, caused=1, covariates=(2,), order=1)
    small = random_path(rng, n_samples=6, n_channels=2)
    with pytest.raises(ValueError):
        granger_var(small, caused=1, covariates=(), order=1)
