"""The shuffle null's channel-major chunk source against the time-major one
it replaced, kept here as _chunks_reference with its smoothing and
preprocessing: every chunk, curve and report must match bit for bit. Also
pins smoothing with a kernel as wide as the series, where np.pad reflects
more than once."""

from __future__ import annotations

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


def _chunks_reference(a: Path, spec: NullModelSpec, cfg, reads, held):
    """Each chunk copied to time-major columns after the shuffle, and again
    to widen it to all channels."""
    held = list(held)
    n = a.n_channels
    chunk = max(1, _null._CHUNK_VALUES // a.values.size)
    rngs = generators(mix_seed(spec.seed, r) for r in range(spec.replicates))
    rows = np.ascontiguousarray(a.values[:, :held[-1] + 1].T)
    names = [a.channel_names[c] for c in held]
    at = [held.index(c) if c in reads else None for c in range(n)]
    for r0 in range(0, spec.replicates, chunk):
        r1 = min(r0 + chunk, spec.replicates)
        p = Path(a.times, _columns(_null._permuted(rows.T, rngs, r1 - r0), held),
                 names)
        if cfg is not None:
            p = _preprocess_reference(p, cfg)
        if len(reads) < n:
            p = Path(p.times, _columns(p.values, at), a.channel_names)
        yield r0, r1, p


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
            new = list(_CHUNKS(a, spec, cfg, reads, held))
            ref = list(_chunks_reference(a, spec, cfg, reads, held))
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

