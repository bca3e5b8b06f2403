"""The batch axis of Path: functions that broadcast over it give each row's
bytes, functions that do not refuse it, and the shuffle null's chunking
changes neither its reports nor, beyond one chunk, its memory."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import (
    NullModelSpec,
    Path,
    PreprocessConfig,
    WindowSpec,
    close_path,
    concat,
    cross_correlation,
    default_three_channel_events,
    gaussian_smooth,
    granger_var,
    inverse,
    lead_matrix,
    mix_seed,
    one_variation,
    preprocess,
    reduce_path,
    reparametrize,
    shuffle_channels,
    shuffle_null,
    signature,
    signature_derivative_integral,
    signature_oracle,
    signed_area,
    signed_area_via_winding,
    sliding_signature_derivative,
    sliding_signed_area,
    three_channel_event_series,
    winding_number,
)
from pathsig import _null, _pcg64
from pathsig.io import canonical_json, path_csv_blocks, reports_artifact


@st.composite
def batches(draw, uniform=None):
    """A (R, T, N) batch of paths on one grid, uniform or not, with ties
    and constant channels mixed in: in every path, or in some paths only."""
    r = draw(st.integers(1, 4))
    t = draw(st.integers(2, 40))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform:
        times = draw(st.sampled_from([0.0, -3.5, 1e3])) + np.arange(t) * draw(
            st.sampled_from([1.0, 0.1, 1 / 255, 2.0**-10]))
    else:
        times = np.cumsum(rng.uniform(0.05, 2.0, t))
    kind = draw(st.sampled_from(
        ["normal", "integer", "constant", "some constant", "scaled"]))
    if kind == "normal":
        values = rng.normal(size=(r, t, n))
    elif kind == "integer":
        values = rng.integers(-2, 3, (r, t, n)).astype(float)
    elif kind == "constant":
        values = rng.normal(size=(r, t, n))
        values[..., 0] = 1.5
    elif kind == "some constant":
        values = rng.normal(size=(r, t, n))
        values[::2, :, n - 1] = -0.25
    else:
        values = rng.normal(size=(r, t, n)) * 10.0 ** rng.integers(-150, 150, n)
    return Path(times, values)


def row(batch: Path, k: int) -> Path:
    return Path(batch.times, batch.values[k], batch.channel_names)


def outcome(fn, *args):
    """fn's result, or the message of its ValueError, with warnings off."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except ValueError as exc:
            return str(exc)


def assert_rows_match(fn, batch: Path, *args) -> None:
    """fn on the batch equals fn on each row stacked, bit for bit; or the
    batch raises the error of its first row that raises."""
    whole = outcome(fn, batch, *args)
    rows = [outcome(fn, row(batch, k), *args) for k in range(len(batch.values))]
    errors = [r for r in rows if isinstance(r, str)]
    if isinstance(whole, str) or errors:
        assert errors and whole == errors[0]
        return
    if isinstance(whole, Path):
        assert np.array_equal(whole.times, rows[0].times)
        whole, rows = whole.values, [p.values for p in rows]
    else:
        assert np.array_equal(whole[0], rows[0][0])
        whole, rows = whole[1], [r[1] for r in rows]
    assert whole.shape == (len(rows),) + rows[0].shape
    assert whole.tobytes() == np.stack(rows).tobytes()


def windows(batch: Path, data) -> WindowSpec:
    span = batch.duration
    return WindowSpec(span * data.draw(st.floats(0.05, 1.0)),
                      span * data.draw(st.floats(0.002, 0.5)))


# ---------------------------------------------------------------------------
# functions that broadcast: batch rows are bit-identical to single paths


@settings(max_examples=80, deadline=None)
@given(batches(uniform=True), st.floats(0.0, 4.0))
def test_smoothing_a_batch_smooths_each_path(batch, sigma_steps):
    sigma = sigma_steps * float(batch.times[1] - batch.times[0])
    assert_rows_match(gaussian_smooth, batch, sigma)


@settings(max_examples=150, deadline=None)
@given(batches(), st.data())
def test_preprocessing_a_batch_preprocesses_each_path(batch, data):
    smooth = 0.0
    if batch.is_uniform() and data.draw(st.booleans()):
        smooth = data.draw(st.floats(0.0, 3.0)) * float(batch.times[1]
                                                         - batch.times[0])
    cfg = PreprocessConfig(
        smooth_sigma=smooth,
        center=data.draw(st.booleans()),
        normalize=data.draw(st.sampled_from(["per", "global", "none"])),
        prepend_zero=data.draw(st.booleans()),
    )
    assert_rows_match(preprocess, batch, cfg)


@settings(max_examples=150, deadline=None)
@given(batches(), st.data())
def test_sliding_area_of_a_batch_is_each_paths_area(batch, data):
    pair = (data.draw(st.integers(1, batch.n_channels)),
            data.draw(st.integers(1, batch.n_channels)))
    assert_rows_match(sliding_signed_area, batch, pair, windows(batch, data))


@settings(max_examples=150, deadline=None)
@given(batches(), st.data())
def test_sliding_influence_of_a_batch_is_each_paths_influence(batch, data):
    pair = (data.draw(st.integers(1, batch.n_channels)),
            data.draw(st.integers(1, batch.n_channels)))
    w = windows(batch, data) if data.draw(st.booleans()) else None
    assert_rows_match(sliding_signature_derivative, batch, pair, w)
    assert_rows_match(signature_derivative_integral, batch, *pair)


def test_a_batch_is_checked_like_its_paths():
    times = np.arange(3.0)
    with pytest.raises(ValueError, match="finite"):
        Path(times, np.array([np.zeros((3, 2)), np.full((3, 2), np.inf)]))
    with pytest.raises(ValueError, match=r"\(\.\.\., T, N\) with T=3"):
        Path(times, np.zeros((2, 4, 2)))
    batch = Path(times, np.zeros((5, 3, 2)))
    assert (batch.n_samples, batch.n_channels) == (3, 2)
    assert batch.channel(2).shape == (5, 3)


# ---------------------------------------------------------------------------
# functions that do not broadcast refuse a batch


# two closed paths of 12 samples: every function below accepts one of them
_LOOPS = np.random.default_rng(1).normal(size=(2, 12, 2))
_LOOPS[:, -1] = _LOOPS[:, 0]
_BATCH = Path(np.arange(12.0), _LOOPS)
_ONE = row(_BATCH, 0)
_NULL = NullModelSpec(replicates=2, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda b: signature(b, 2),
        lambda b: signature_oracle(b, (1, 2)),
        lead_matrix,
        lambda b: signed_area(b, 1, 2),
        close_path,
        lambda b: winding_number(b, 1, 2, (9.0, 9.0)),
        lambda b: signed_area_via_winding(b, 1, 2),
        lambda b: concat(b, _ONE),
        lambda b: concat(_ONE, b),
        inverse,
        reduce_path,
        one_variation,
        lambda b: reparametrize(b, lambda t: 2.0 * t),
        lambda b: cross_correlation(b, (1, 2), 1.0),
        lambda b: granger_var(b, 1, [], 1),
        lambda b: shuffle_channels(b, 7),
        lambda b: shuffle_null(b, lambda p, w: (p.times, p.channel(1)), _NULL),
        path_csv_blocks,
    ],
    ids=["signature", "signature_oracle", "lead_matrix", "signed_area",
         "close_path", "winding_number", "signed_area_via_winding",
         "concat-first", "concat-second", "inverse", "reduce_path",
         "one_variation", "reparametrize", "cross_correlation",
         "granger_var", "shuffle_channels", "shuffle_null", "path_csv_blocks"],
)
def test_functions_of_one_path_refuse_a_batch(call):
    with pytest.raises(ValueError, match=r"takes one path, not a batch .*"
                                         r"\(2, 12, 2\)"):
        call(_BATCH)
    call(_ONE)  # the single path is accepted


def test_a_statistic_that_does_not_broadcast_is_refused():
    """A statistic that returns one curve for a whole batch changed length."""
    flat = lambda p, w: (p.times, p.values.reshape(-1)[: p.n_samples])
    with pytest.raises(ValueError, match="changed length under shuffling"):
        shuffle_null(_ONE, flat, _NULL)


# ---------------------------------------------------------------------------
# the shuffle null in chunks


def test_batched_shuffle_matches_the_per_channel_permutations():
    """Each replicate of a chunk is what the one-path loop drew: channel by
    channel, rng.permutation of the replicate's own generator."""
    values = np.random.default_rng(3).normal(size=(50, 3))
    seeds = [mix_seed(11, r) for r in range(5)]
    chunk = _null._permuted(values, _pcg64.generators(seeds), len(seeds))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        expected = np.column_stack(
            [values[rng.permutation(50), c] for c in range(3)])
        assert np.array_equal(chunk[k], expected)
        a = Path(np.arange(50.0), values)
        assert np.array_equal(shuffle_channels(a, seed).values, expected)


@pytest.mark.parametrize("t, n", [(1, 1), (1, 3), (2, 1), (2, 3), (9, 1)])
def test_shuffling_short_or_one_channel_series(t, n):
    """One or two samples, or one channel: each replicate is still the
    per-channel permutation loop's draw, and the caller's values are left
    as they were."""
    values = np.random.default_rng(4).normal(size=(t, n))
    before = values.copy()
    seeds = [mix_seed(7, r) for r in range(6)]
    chunk = _null._permuted(values, _pcg64.generators(seeds), len(seeds))
    assert np.array_equal(values, before)
    a = Path(np.arange(float(t)), values)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        expected = np.column_stack(
            [values[rng.permutation(t), c] for c in range(n)])
        assert np.array_equal(chunk[k], expected)
        assert np.array_equal(shuffle_channels(a, seed).values, expected)
    assert np.array_equal(values, before)


@pytest.mark.parametrize(
    "seeds",
    [[0, 1, 2**32 - 1, 2**32, 2**64 - 1]]
    + [[mix_seed(seed, r) for r in range(1000)] for seed in (0, 202, 2**63 + 5)],
    ids=["edges", "mixed-0", "mixed-202", "mixed-2^63+5"],
)
def test_replicate_states_are_the_ones_pcg64_starts_from(seeds):
    """The SeedSequence hash on uint32 arrays and the two LCG steps give
    each seed the state and increment that np.random.PCG64(seed) holds."""
    expected = [(g["state"]["state"], g["state"]["inc"])
                for g in (np.random.PCG64(s).state for s in seeds)]
    assert _pcg64.states(seeds) == expected


def test_a_reseeded_generator_draws_as_a_fresh_one(monkeypatch):
    """Across seed batches, and after a draw that leaves half a 64-bit
    word buffered, the reused Generator draws what a fresh one would."""
    monkeypatch.setattr(_pcg64, "BATCH", 3)
    def draws(g):
        return [g.integers(2**32, size=3, dtype=np.uint32).tolist(),
                g.permutation(7).tolist(), g.random()]

    seeds = [mix_seed(9, r) for r in range(8)]
    for seed, rng in zip(seeds, _pcg64.generators(seeds)):
        assert draws(rng) == draws(np.random.Generator(np.random.PCG64(seed)))


# acceptance c09: its input, windows and smoothing
C09 = three_channel_event_series(
    default_three_channel_events(), samples=1500, noise_sigma=0.05, seed=101
)
C09_PIPELINE = dict(w=WindowSpec(0.1, 0.005),
                    preprocess_cfg=PreprocessConfig(smooth_sigma=0.004))


def c09_reports():
    """c09's null model of 1000 replicates, as canonical JSON bytes."""
    spec = NullModelSpec(replicates=1000, seed=202)
    reports = [
        shuffle_null(
            C09, lambda p, w, pair=pair: sliding_signed_area(p, pair, w), spec,
            statistic_name="signed_area", pair=pair, **C09_PIPELINE,
        )
        for pair in ((1, 2), (2, 3), (1, 3))
    ]
    return canonical_json(reports_artifact("slidearea", reports, {}))


@pytest.fixture(scope="module")
def c09_default_chunks():
    return c09_reports()


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_c09_reports_do_not_depend_on_the_chunk_size(chunk, monkeypatch,
                                                     c09_default_chunks):
    assert _null._CHUNK_VALUES // (1500 * 3) not in (1, 7)
    monkeypatch.setattr(_null, "_CHUNK_VALUES", chunk * 1500 * 3)
    assert c09_reports() == c09_default_chunks


def _null_peak(replicates: int) -> int:
    """tracemalloc peak of c09's null for one pair, after a 2-replicate
    run has made numpy's one-time allocations."""

    def run(r):
        shuffle_null(
            C09, lambda p, w: sliding_signed_area(p, (1, 2), w),
            NullModelSpec(replicates=r, seed=202), **C09_PIPELINE,
        )

    run(2)
    tracemalloc.start()
    try:
        run(replicates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_null_memory_is_the_curve_matrix_plus_one_chunk():
    """At c09 settings (181 windows) the peak is the (R, 181) curve matrix,
    np.std's temporary of the same size, and one chunk's pipeline: a few
    copies of the chunk's _CHUNK_VALUES floats. Ten times the replicates
    adds the two matrices' growth and nothing per chunk."""
    chunk_bytes = 8 * _null._CHUNK_VALUES
    matrix = {r: 8 * r * 181 for r in (200, 2000)}
    peak = {r: _null_peak(r) for r in (200, 2000)}
    for r in peak:
        assert peak[r] < 2 * matrix[r] + 4 * chunk_bytes, (r, peak[r])
    slack = chunk_bytes // 4
    assert peak[2000] - peak[200] < 2 * (matrix[2000] - matrix[200]) + slack
