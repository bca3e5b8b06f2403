from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import (
    LeadMatrix,
    Path,
    PreprocessConfig,
    TruncatedTensor,
    concat,
    gaussian_smooth,
    inverse,
    one_variation,
    preprocess,
    reduce_path,
    reparametrize,
)
from pathsig.path_core import _exact_backtrack
from conftest import random_path


def path_of(points, times=None) -> Path:
    values = np.asarray(points, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return Path(np.asarray(times, dtype=float), values)


# ---------------------------------------------------------------------------
# construction


def test_times_must_strictly_increase():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Path(np.array([1.0, 0.0]), np.zeros((2, 1)))


def test_objects_freeze_their_own_view_not_the_callers_array():
    """Path, TruncatedTensor and LeadMatrix share memory with a C-contiguous
    float64 input and hold it read-only, while the caller's arrays keep
    their flags."""
    times, values = np.linspace(0.0, 1.0, 5), np.zeros((5, 2))
    grades = (np.ones(1), np.zeros(2))
    matrix = np.zeros((2, 2))
    held = [
        (times, Path(times, values).times),
        (values, Path(times, values).values),
        *zip(grades, TruncatedTensor(2, 1, grades).levels),
        (matrix, LeadMatrix(("a", "b"), matrix).values),
    ]
    for given, kept in held:
        assert given.flags.writeable
        assert not kept.flags.writeable
        assert np.shares_memory(given, kept)


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.array([[0.0], [np.nan]]))


def test_shape_and_name_validation():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.zeros((2, 2)), ("only-one",))


def test_default_channel_names():
    a = path_of([[0.0, 0.0], [1.0, 1.0]])
    assert a.channel_names == ("c1", "c2")


def test_arrays_are_read_only(rng):
    a = random_path(rng)
    with pytest.raises(ValueError):
        a.times[0] = -1.0
    with pytest.raises(ValueError):
        a.values[0, 0] = 42.0


def test_channel_is_one_based(rng):
    a = random_path(rng, n_channels=3)
    assert np.array_equal(a.channel(2), a.values[:, 1])
    with pytest.raises(ValueError):
        a.channel(0)
    with pytest.raises(ValueError):
        a.channel(4)


def test_uniformity_and_duration():
    assert path_of([[0.0], [1.0], [2.0]]).is_uniform()
    assert not path_of([[0.0], [1.0], [2.0]], times=[0.0, 1.0, 3.0]).is_uniform()
    assert path_of([[0.0], [1.0]], times=[2.0, 5.0]).duration == 3.0


# ---------------------------------------------------------------------------
# concatenation and inversion


def test_concat_translates_and_merges_junction():
    a = path_of([[0.0], [1.0]])
    b = path_of([[5.0], [7.0]])
    c = concat(a, b)
    # b is translated to start where a ends: displacement 2 continues from 1
    assert c.n_samples == 3
    assert np.allclose(c.values[:, 0], [0.0, 1.0, 3.0])
    assert c.times[-1] > c.times[-2]


def test_concat_with_point_path_is_identity(rng):
    a = random_path(rng)
    b = Path(np.array([0.0]), np.array([[9.0, 9.0]]))
    c = concat(a, b)
    assert np.array_equal(c.values, a.values)


def test_inverse_is_an_exact_involution(rng):
    a = random_path(rng, uniform=False)
    back = inverse(inverse(a))
    assert np.array_equal(back.times, a.times)
    assert np.array_equal(back.values, a.values)


def test_inverse_reverses_values(rng):
    a = random_path(rng)
    assert np.array_equal(inverse(a).values, a.values[::-1])


# ---------------------------------------------------------------------------
# tree-like reduction


def test_reduce_out_and_back_to_point():
    a = path_of([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    r = reduce_path(a)
    assert r.n_samples == 1
    assert np.array_equal(r.values[0], [0.0, 0.0])


def test_reduce_partial_backtrack():
    a = path_of([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 5.0]])
    r = reduce_path(a)
    assert np.allclose(r.values, [[0.0, 0.0], [1.0, 0.0], [1.0, 5.0]])


def test_reduce_overshoot_backtrack():
    a = path_of([[0.0], [1.0], [-1.0]])
    r = reduce_path(a)
    assert np.allclose(r.values, [[0.0], [-1.0]])


def test_reduce_drops_zero_segments():
    a = path_of([[0.0], [0.0], [1.0]])
    assert reduce_path(a).n_samples == 2


def test_reduce_of_concat_with_inverse_is_a_point(rng):
    for _ in range(10):
        a = random_path(rng, n_samples=5)
        r = reduce_path(concat(a, inverse(a)))
        assert r.n_samples == 1


def test_reduce_keeps_irreducible_path():
    a = path_of([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    r = reduce_path(a)
    assert np.array_equal(r.values, a.values)


def test_reduce_keeps_a_turn_whose_cross_terms_overflow():
    """Directions (1, 1) then (-1, -2): every cross term overflows to the
    same -inf, which once read as colinear and dropped the middle vertex."""
    a = path_of([[0.0, 0.0], [1e200, 1e200], [0.0, -1e200]])
    assert np.array_equal(reduce_path(a).values, a.values)


def _reduce_reference(a: Path) -> Path:
    """reduce_path as two lists pushed and popped in lockstep: the loop it
    replaced, kept as the reference its one stack is compared against."""
    times = a.times
    values = a.values
    out_t = [float(times[0])]
    out_v = [values[0]]
    for s in range(1, a.n_samples):
        t = float(times[s])
        w = values[s]
        while True:
            if np.array_equal(w, out_v[-1]):
                break  # zero displacement: drop the incoming sample
            if len(out_v) < 2:
                out_t.append(t)
                out_v.append(w)
                break
            u, v = out_v[-2], out_v[-1]
            d1 = v - u
            d2 = w - v
            if not _exact_backtrack(d1, d2):
                out_t.append(t)
                out_v.append(w)
                break
            if np.array_equal(w, u):
                # full cancellation of the spike u -> v -> u
                out_t.pop()
                out_v.pop()
                break
            out_t.pop()
            out_v.pop()
            if float(np.dot(d2, d2)) < float(np.dot(d1, d1)):
                # partial backtrack: w sits strictly between u and v
                out_t.append(t)
                out_v.append(w)
                break
            # overshoot past u: re-examine w against the segment before u
    return Path(np.asarray(out_t), np.vstack(out_v), a.channel_names)


@st.composite
def lattice_walks(draw) -> Path:
    """A walk on the integer lattice in one or two channels, steps in
    {-2..2} per channel: full, partial and overshooting backtracks and
    zero segments all occur. Times are irregular."""
    n = draw(st.integers(1, 2))
    steps = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          max_size=14))
    start = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    values = np.cumsum(np.array([start] + steps, dtype=float), axis=0)
    gaps = draw(st.lists(st.floats(0.125, 4.0), min_size=len(steps),
                         max_size=len(steps)))
    return Path(np.cumsum([0.0] + gaps), values)


@settings(max_examples=300, deadline=None)
@given(lattice_walks())
def test_reduce_matches_the_two_list_reference_bit_for_bit(a):
    got, ref = reduce_path(a), _reduce_reference(a)
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.values.shape == ref.values.shape
    assert got.values.tobytes() == ref.values.tobytes()


def test_reduce_reexamines_a_sample_that_overshoots_twice():
    """0 -> 1 -> 2 -> -1 backtracks past 1 and then past 0: -1 is checked
    against each earlier segment in turn, not appended after the first."""
    r = reduce_path(path_of([[0.0], [1.0], [2.0], [-1.0]]))
    assert np.array_equal(r.values, [[0.0], [-1.0]])
    assert np.array_equal(r.times, [0.0, 3.0])


# ---------------------------------------------------------------------------
# 1-variation


def test_one_variation_single_segment():
    a = path_of([[0.0, 0.0], [3.0, 4.0]])
    assert one_variation(a) == pytest.approx(5.0)


def test_one_variation_constant_path():
    assert one_variation(path_of([[2.0], [2.0]])) == 0.0


def test_one_variation_additive_under_concat(rng):
    a = random_path(rng)
    b = random_path(rng)
    assert one_variation(concat(a, b)) == pytest.approx(
        one_variation(a) + one_variation(b), abs=1e-12
    )


# ---------------------------------------------------------------------------
# reparametrization


def test_reparametrize_keeps_values(rng):
    a = random_path(rng, n_samples=5)
    warped = reparametrize(a, lambda t: t ** 3 + t)
    assert np.array_equal(warped.values, a.values)
    assert np.all(np.diff(warped.times) > 0)


def test_reparametrize_rejects_non_monotone_warp(rng):
    a = random_path(rng, n_samples=5)
    with pytest.raises(ValueError):
        reparametrize(a, lambda t: -t)
    with pytest.raises(ValueError):
        reparametrize(a, lambda t: np.zeros_like(t))


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_sigma_zero_is_identity(rng):
    a = random_path(rng)
    assert np.array_equal(gaussian_smooth(a, 0.0).values, a.values)


def test_smooth_constant_series_unchanged():
    a = path_of([[3.0]] * 50)
    out = gaussian_smooth(a, 2.5)
    assert np.allclose(out.values, 3.0, atol=1e-12)


def test_smooth_reduces_noise_variance(rng):
    noise = rng.normal(size=(400, 1))
    a = Path(np.arange(400, dtype=float), noise)
    out = gaussian_smooth(a, 10.0)
    assert out.values.var() < a.values.var()


def test_smooth_requires_uniform_grid(rng):
    a = random_path(rng, uniform=False)
    with pytest.raises(ValueError):
        gaussian_smooth(a, 1.0)


def test_smooth_impulse_is_symmetric():
    values = np.zeros((41, 1))
    values[20, 0] = 1.0
    out = gaussian_smooth(Path(np.arange(41, dtype=float), values), 3.0)
    assert np.allclose(out.values, out.values[::-1], atol=1e-15)
    assert out.values.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_all_off_returns_input(rng):
    a = random_path(rng)
    assert preprocess(a, PreprocessConfig()) is a


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(smooth_sigma=-1.0)
    with pytest.raises(ValueError):
        PreprocessConfig(normalize="weird")


def test_center_makes_channel_means_zero(rng):
    a = random_path(rng, n_samples=40, n_channels=3)
    out = preprocess(a, PreprocessConfig(center=True))
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)


def test_per_channel_normalize_forces_unit_range(rng):
    a = random_path(rng, n_samples=40, n_channels=3)
    out = preprocess(a, PreprocessConfig(normalize="per"))
    ranges = out.values.max(axis=0) - out.values.min(axis=0)
    assert np.allclose(ranges, 1.0, atol=1e-12)


def test_global_normalize_scales_all_channels_alike(rng):
    a = random_path(rng, n_samples=40, n_channels=3)
    out = preprocess(a, PreprocessConfig(normalize="global"))
    ranges = out.values.max(axis=0) - out.values.min(axis=0)
    assert ranges.max() == pytest.approx(1.0, abs=1e-12)
    expected = a.values * (1.0 / (a.values.max(0) - a.values.min(0)).max())
    assert np.allclose(out.values, expected, atol=1e-12)


def test_normalize_constant_channel_warns_and_leaves_it():
    values = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    a = Path(np.arange(10.0), values)
    with pytest.warns(UserWarning):
        out = preprocess(a, PreprocessConfig(normalize="per"))
    assert np.array_equal(out.values[:, 0], values[:, 0])


@pytest.mark.parametrize("mode, what", [
    ("per", "range of channel c2"), ("global", "global range")])
def test_normalizing_a_range_that_overflows_raises(mode, what):
    values = np.array([[0.0, 0.0], [1.0, 1e308], [2.0, -1e308]])
    a = Path(np.arange(3.0), values)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=f"the {what} is not finite"):
            preprocess(a, PreprocessConfig(normalize=mode))


@pytest.mark.parametrize("times", [[-1e308, 1e308, 1.5e308],
                                   [-1.7e308, -1e308, 0.0]],
                         ids=["step", "origin"])
def test_prepending_an_origin_that_overflows_raises(times):
    """The median step, or the time one step before the first, is past
    float64: the origin cannot be prepended, and no numpy warning says so."""
    a = Path(np.array(times), np.zeros((3, 1)))
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="^cannot prepend the origin "
                                             "sample: the time step "
                                             "overflows float64$"):
            preprocess(a, PreprocessConfig(prepend_zero=True))


@pytest.mark.parametrize("normalize", ["none", "per"])
def test_centering_a_mean_that_overflows_raises(normalize):
    values = np.array([[0.0, 1e308], [1.0, 1e308], [0.0, -1e308]])
    a = Path(np.arange(3.0), values)
    # only the second path of the batch overflows
    batch = Path(a.times, np.stack([np.ones_like(values), values]))
    cfg = PreprocessConfig(center=True, normalize=normalize)
    with np.errstate(all="raise"):
        for p in (a, batch):
            with pytest.raises(ValueError, match="cannot center: the mean of "
                                                 "channel c2 is not finite"):
                preprocess(p, cfg)


@pytest.mark.parametrize("normalize", ["none", "per"])
def test_centered_values_that_overflow_raise(normalize):
    # the mean of c2 is finite (-3.4e307), but 1.7e308 minus it is not
    values = np.array([[0.0, 1.7e308], [1.0, -1.7e308], [0.0, -1.7e308],
                       [1.0, 1.7e308], [0.0, -1.7e308]])
    a = Path(np.arange(5.0), values)
    # only the second path of the batch overflows
    batch = Path(a.times, np.stack([np.ones_like(values), values]))
    cfg = PreprocessConfig(center=True, normalize=normalize)
    with np.errstate(all="raise"):
        for p in (a, batch):
            with pytest.raises(ValueError,
                               match="cannot center: channel c2 overflows"):
                preprocess(p, cfg)


def test_prepend_zero_adds_origin_sample(rng):
    a = random_path(rng, n_samples=10)
    out = preprocess(a, PreprocessConfig(prepend_zero=True))
    assert out.n_samples == a.n_samples + 1
    assert np.all(out.values[0] == 0.0)
    assert out.times[0] == pytest.approx(a.times[0] - 1.0)
    assert np.array_equal(out.values[1:], a.values)


def test_smoothing_happens_before_normalization(rng):
    # if normalization ran first, smoothing would shrink the range below 1
    a = random_path(rng, n_samples=200)
    cfg = PreprocessConfig(smooth_sigma=3.0, normalize="per")
    out = preprocess(a, cfg)
    ranges = out.values.max(axis=0) - out.values.min(axis=0)
    assert np.allclose(ranges, 1.0, atol=1e-12)


def test_package_exports_each_module_public_names_once():
    """pathsig's exports are its modules' __all__ lists, each name listed
    in one module: MAX_COEFFICIENTS in path_core, the module all import."""
    import importlib
    import sys

    import pathsig

    modules = [
        importlib.import_module(f"pathsig.{name}")
        for name in ("tensor_algebra", "path_core", "signature", "leadlag",
                     "causality", "dynamics")
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert pathsig.__all__ == ["__version__"] + names
    for module in modules:
        for name in module.__all__:
            assert getattr(pathsig, name) is getattr(module, name)
    assert "MAX_COEFFICIENTS" in modules[1].__all__
    assert sys.modules["pathsig.signature"].MAX_COEFFICIENTS == 1 << 21
    assert pathsig.signature is sys.modules["pathsig.signature"].signature
