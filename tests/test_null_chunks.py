"""The shuffle null's channel-major chunk source against the time-major one
it replaced, kept here as _chunks_reference with its smoothing and
preprocessing: every chunk, curve and report must match bit for bit. Also
pins smoothing with a kernel as wide as the series, where np.pad reflects
more than once, smoothing a group of rows per np.correlate call against
one np.convolve per row, the one boundary that names a failed replicate,
and quantile bands from one np.quantile call against one per edge."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import (NullModelSpec, Path, PreprocessConfig, WindowSpec,
                     gaussian_smooth, preprocess, shuffle_null,
                     sliding_signed_area)
from pathsig import _null, path_core
from pathsig._pcg64 import generators, mix_seed
from pathsig.path_core import ConfigError
from pathsig.io import canonical_json

_CHUNKS = _null._chunks

# ---------------------------------------------------------------------------
# the time-major pipeline: the chunk source, smoothing and preprocessing as
# they were before chunks stayed channel-major


def _smooth_reference(a: Path, sigma: float) -> Path:
    """np.pad of all rows, then one np.convolve per row."""
    if sigma == 0 or a.n_samples < 2:
        return a
    dt = path_core._uniform_dt(a)
    radius = int(np.floor(3.0 * sigma / dt + 1e-12))
    if radius == 0:
        return a
    offsets = np.arange(-radius, radius + 1) * dt
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    rows = np.swapaxes(a.values, -1, -2)
    padded = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(radius, radius)],
                    mode="reflect")
    smoothed = np.empty(a.values.shape)
    out = np.swapaxes(smoothed, -1, -2)
    for k in np.ndindex(rows.shape[:-1]):
        out[k] = np.convolve(padded[k], kernel, mode="valid")
    return Path(a.times, smoothed, a.channel_names)


def _preprocess_reference(a: Path, cfg: PreprocessConfig) -> Path:
    """A time-major copy, its mean an axis -2 reduction."""
    if cfg.smooth_sigma > 0:
        a = _smooth_reference(a, cfg.smooth_sigma)
    if not (cfg.center or cfg.normalize != "none" or cfg.prepend_zero):
        return a
    times = a.times
    if cfg.prepend_zero:
        times = np.concatenate([[times[0] - float(np.median(np.diff(times)))
                                 if times.size > 1 else times[0] - 1.0], times])
    n = a.n_channels
    values = np.zeros(a.values.shape[:-2] + (times.size, n))
    body = values[..., times.size - a.n_samples:, :]
    if cfg.center:
        means = a.values.mean(axis=-2)
        for c in range(n):
            np.subtract(a.values[..., c], means[..., c, None], out=body[..., c])
    else:
        body[...] = a.values
    if cfg.normalize != "none":
        ranges = np.empty(body.shape[:-2] + (n,))
        for c in range(n):
            ranges[..., c] = body[..., c].max(axis=-1) - body[..., c].min(axis=-1)
        if cfg.normalize == "global":
            ranges = np.broadcast_to(ranges.max(axis=-1, keepdims=True), ranges.shape)
        scale = np.where(ranges == 0.0, 1.0, ranges)
        for c in range(n):
            body[..., c] /= scale[..., c, None]
    return Path(times, values, a.channel_names)


def _columns(values: np.ndarray, src) -> np.ndarray:
    out = np.empty(values.shape[:-1] + (len(src),))
    for k, c in enumerate(src):
        out[..., k] = 0.0 if c is None else values[..., c]
    return out


def _chunks_reference(a: Path, spec: NullModelSpec, cfg, reads, held,
                      statistic, w):
    """Each chunk copied to time-major columns after the shuffle, and again
    to widen it to all channels, then the statistic's curve rows of it."""
    held = list(held)
    n = a.n_channels
    chunk = max(1, _null._CHUNK_VALUES // a.values.size)
    rngs = generators(mix_seed(spec.seed, r) for r in range(spec.replicates))
    rows = np.ascontiguousarray(a.values[:, :held[-1] + 1].T)
    names = [a.channel_names[c] for c in held]
    at = [held.index(c) if c in reads else None for c in range(n)]
    try:
        for r0 in range(0, spec.replicates, chunk):
            r1 = min(r0 + chunk, spec.replicates)
            p = Path(a.times,
                     _columns(_null._permuted(rows.T, rngs, r1 - r0), held), names)
            if cfg is not None:
                p = _preprocess_reference(p, cfg)
            if len(reads) < n:
                p = Path(p.times, _columns(p.values, at), a.channel_names)
            _, values = statistic(p, w)
            yield r0, r1, values
    except ValueError as e:
        raise ConfigError(f"a shuffled replicate failed: {e}") from e


# ---------------------------------------------------------------------------


def _wide_reference(a: Path, sigma: float) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _smooth_reference(a, sigma).values


@pytest.mark.parametrize("t, sigma", [(6, 0.5), (6, 0.2), (6, 0.6), (2, 1.0),
                                      (3, 0.5), (5, 0.25), (9, 2.0)])
def test_a_kernel_as_wide_as_the_series_reflects_as_np_pad(t, sigma):
    """A radius of T - 1 or more reflects more than once (T = 6, sigma 0.5
    on [0, 1] is radius 7): one path, a time-major batch and a channel-major
    batch each give np.pad's and np.convolve's bytes."""
    times = np.linspace(0.0, 1.0, t)
    one = Path(times, np.arange(2.0 * t).reshape(t, 2))
    assert gaussian_smooth(one, sigma).values.tobytes() == \
        _wide_reference(one, sigma).tobytes()
    values = np.random.default_rng(t).normal(size=(3, t, 2))
    rows = np.ascontiguousarray(np.swapaxes(values, 1, 2))
    for batch in (Path(times, values), Path(times, np.swapaxes(rows, 1, 2))):
        assert gaussian_smooth(batch, sigma).values.tobytes() == \
            _wide_reference(batch, sigma).tobytes()


def _rows_per_group(t: int, r: int) -> int:
    """gaussian_smooth's rows per np.correlate call at T = t, radius r."""
    if r > path_core._SMOOTH_GROUP_RADIUS:
        return 1
    return max(1, (path_core._SMOOTH_GROUP - 2 * r) // (t + 2 * r))


def _smoothing_inputs(t: int, r: int, rng):
    """(layout, Path) pairs whose row counts straddle the groups: one path
    of 1, g - 1, g, g + 1 and 2g + 1 channels (g rows per group), and
    batches of as many paths of 1 and 3 channels (g // N paths per group),
    time-major, channel-major and every other row of a wider channel-major
    array."""
    times = np.arange(float(t))
    g = _rows_per_group(t, r)
    for n, per in ((1, g), (3, max(1, g // 3))):
        for count in sorted({1, per - 1, per, per + 1, 2 * per + 1} - {0}):
            values = rng.normal(size=(count, t, n))
            rows = np.swapaxes(values, 1, 2)
            wide = np.full((count, 2 * n, t), np.nan)
            wide[:, ::2] = rows
            yield f"time-major {count}x{n}", Path(times, values)
            yield f"channel-major {count}x{n}", Path(
                times, np.swapaxes(np.ascontiguousarray(rows), 1, 2))
            yield f"strided {count}x{n}", Path(times, np.swapaxes(wide[:, ::2], 1, 2))
            if n == 1:
                yield f"one path of {count}", Path(times, values[..., 0].T)


@pytest.mark.parametrize("t, r", [
    (7, 1), (7, 3), (7, 5), (7, 6), (7, 10), (7, 28),
    (60, 1), (60, 20), (60, 58), (60, 59), (60, 63), (60, 240),
    (1500, 1), (1500, 17), (1500, 1498), (1500, 1499), (1500, 1503),
    (1500, 6000)])
def test_grouped_smoothing_matches_one_convolve_per_row(t, r):
    """Rows smoothed a group at a time, back to back in one buffer, give
    np.pad's and np.convolve's bytes row by row: at row counts around the
    group size and twice it, radii from 1 to past the series (np.pad's
    repeated reflection), grouped (radius up to 32) or one row per call,
    every layout; and the layout is kept."""
    sigma = r / 3.0  # dt = 1: the radius is floor(3 sigma)
    for layout, a in _smoothing_inputs(t, r, np.random.default_rng(t + r)):
        got = gaussian_smooth(a, sigma).values
        want = _smooth_reference(a, sigma).values
        assert got.shape == want.shape, layout
        assert got.tobytes() == want.tobytes(), layout
        if layout.startswith(("time-major", "one path")):
            assert got.flags.c_contiguous, layout
        else:
            assert np.swapaxes(got, -1, -2).flags.c_contiguous, layout


_PAIRS = [(1, 2), (2, 3), (1, 3), (3, 1), (2, 2), None]
_CONFIGS = [None, PreprocessConfig(smooth_sigma=1.0)] + [
    PreprocessConfig(smooth_sigma=s, center=c, normalize=m, prepend_zero=z)
    for s in (0.0, 2.5) for c in (False, True)
    for m in ("none", "per", "global") for z in (False, True)]


def _held(a: Path, pair, cfg):
    """shuffle_null's channels read and channels preprocessed."""
    n = a.n_channels
    reads = held = range(n)
    if pair is not None and all(1 <= c <= n for c in pair):
        reads = sorted({c - 1 for c in pair})
        if len(reads) == 2 and getattr(cfg, "normalize", "") != "global":
            held = range(reads[0], reads[1] + 1, reads[1] - reads[0])
    return reads, held


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(4, 40),
    st.sampled_from(_PAIRS),
    st.sampled_from(_CONFIGS),
    st.sampled_from([1, 7]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["normal", "integer", "scaled"]),
)
def test_channel_major_chunks_match_the_time_major_ones(
        n, t, pair, cfg, chunk, seed, kind):
    """Every chunk, its curve and the report, bit for bit, at chunk sizes 1
    and 7, for every pair, preprocessing and channel count."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        values = rng.normal(size=(t, n))
    elif kind == "integer":
        values = rng.integers(-2, 3, (t, n)).astype(float)
    else:
        values = rng.normal(size=(t, n)) * 10.0 ** rng.integers(-100, 100, n)
    a = Path(np.arange(t) * 0.25, values)
    if pair is not None and max(pair) > n:
        pair = None
    spec = NullModelSpec(replicates=17, seed=seed % 1000)
    reads, held = _held(a, pair, cfg)
    stat_pair = pair or (1, n)
    w = WindowSpec(0.5, 0.25)
    old = _null._CHUNK_VALUES
    _null._CHUNK_VALUES = chunk * a.values.size
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            own = lambda p, w: (p.times, p)  # a statistic that returns its batch
            new = list(_CHUNKS(a, spec, cfg, reads, held, own, None))
            ref = list(_chunks_reference(a, spec, cfg, reads, held, own, None))
            assert [c[:2] for c in new] == [c[:2] for c in ref]
            for (_, _, p), (_, _, q) in zip(new, ref):
                assert p.times.tobytes() == q.times.tobytes()
                assert p.channel_names == q.channel_names
                assert p.values.shape == q.values.shape
                assert p.values.tobytes() == q.values.tobytes()
                assert np.shares_memory(p.channel(1), p.values)
                assert p.channel(1).strides[-1] == 8  # a contiguous row
                assert sliding_signed_area(p, stat_pair, w)[1].tobytes() == \
                    sliding_signed_area(q, stat_pair, w)[1].tobytes()
            reports = []
            for chunks, pre in ((_CHUNKS, preprocess),
                                (_chunks_reference, _preprocess_reference)):
                _null._chunks, path_core.preprocess = chunks, pre
                try:
                    reports.append(canonical_json(shuffle_null(
                        a, lambda p, w: sliding_signed_area(p, stat_pair, w),
                        spec, w, cfg, "signed_area", pair).to_dict()))
                except ValueError as exc:
                    reports.append(str(exc))
                finally:
                    _null._chunks, path_core.preprocess = _CHUNKS, preprocess
    finally:
        _null._CHUNK_VALUES = old
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# the replicate failure boundary, and quantile bands

_PREFIX = "a shuffled replicate failed: "
# channel a alternates +-0.85e308: its mean in time order is finite, but a
# shuffled order can sum past the float64 range
_ALT = Path(np.arange(40.0), np.column_stack([
    np.where(np.arange(40) % 2 == 0, 0.85e308, -0.85e308),
    (7.0 * np.arange(40)) % 5]), ("a", "b"))
_CENTERED = PreprocessConfig(center=True, normalize="per")
_NOISE = Path(np.arange(40.0), np.random.default_rng(3).normal(size=(40, 2)))
_W = WindowSpec(10.0, 5.0)


def _area(p, w):
    return sliding_signed_area(p, (1, 2), w)


def _on_batches(batch_statistic):
    """The area statistic for the observed path, batch_statistic for a batch."""
    return lambda p, w: (_area if p.values.ndim == 2 else batch_statistic)(p, w)


def _failing(exc):
    """A statistic that raises exc."""
    def statistic(p, w):
        raise exc
    return statistic


def _unpack_message() -> str:
    try:
        _, _ = (1, 2, 3)
    except ValueError as e:
        return str(e)


def _null_of(statistic, a=_NOISE, cfg=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return shuffle_null(a, statistic, NullModelSpec(replicates=20, seed=1),
                            _W, cfg, "signed_area", (1, 2))


@pytest.mark.parametrize("statistic, a, cfg, message", [
    (_area, _ALT, _CENTERED,
     "cannot center: the mean of channel a is not finite"),
    (_on_batches(_failing(ValueError("no curve for a batch"))), _NOISE, None,
     "no curve for a batch"),
    (_on_batches(lambda p, w: (p.times, p.values, p.values)), _NOISE, None,
     _unpack_message()),
], ids=["chunk", "statistic", "three-items"])
def test_a_replicate_failure_is_prefixed_once(statistic, a, cfg, message):
    """A ValueError raised while a chunk is built (a replicate's centering
    mean overflows) or by the statistic, or a statistic that returns three
    items for a batch, ends the null with the replicate's message behind
    exactly one prefix. The observed curve of each is fine."""
    _area(a if cfg is None else preprocess(a, cfg), _W)
    with pytest.raises(ConfigError) as info:
        _null_of(statistic, a, cfg)
    assert str(info.value) == _PREFIX + message


def test_errors_outside_the_replicate_boundary_keep_their_own_text():
    """A TypeError from the statistic propagates as it is; the observed
    curve's own ValueError, and a statistic that returns one (W,) curve for
    a batch, raise with no prefix."""
    bad = TypeError("not a batch")
    with pytest.raises(TypeError) as info:
        _null_of(_on_batches(_failing(bad)))
    assert info.value is bad
    with pytest.raises(ValueError) as info:
        _null_of(_failing(ValueError("no observed curve")))
    assert str(info.value) == "no observed curve"
    with pytest.raises(ConfigError) as info:
        _null_of(_on_batches(lambda p, w: _area(Path(p.times, p.values[0]), w)))
    assert str(info.value) == "statistic changed length under shuffling"


@pytest.mark.parametrize("r", [2, 3, 17, 1000])
def test_quantile_bands_are_two_quantile_calls(r):
    """Both band edges from one np.quantile call over [p, 1 - p] equal one
    call per edge, bit for bit, at several widths, band_sigmas and value
    kinds (ties included)."""
    rng = np.random.default_rng(r)
    for width in (1, 4, 33):
        for curves in (rng.normal(size=(r, width)),
                       rng.integers(-3, 4, (r, width)).astype(float),
                       rng.standard_cauchy((r, width)) * 1e100):
            for sigmas in (0.1, 1.0, 2.0, 3.0, 4.5):
                spec = NullModelSpec(replicates=r, seed=0, band_sigmas=sigmas,
                                     band_mode="quantile")
                p_lo = 0.5 * math.erfc(sigmas / math.sqrt(2.0))
                report = _null._report("s", None, np.arange(float(width)),
                                       curves[0], curves, spec)
                lo = np.quantile(curves, p_lo, axis=0)
                hi = np.quantile(curves, 1.0 - p_lo, axis=0)
                assert report.band_lo.tobytes() == lo.tobytes()
                assert report.band_hi.tobytes() == hi.tobytes()
