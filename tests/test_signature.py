from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import (
    DEFAULT_LEVEL_CAP,
    Path,
    TruncatedTensor,
    concat,
    inverse,
    shuffle,
    signature,
    signature_derivative,
    signature_derivative_integral,
    signature_oracle,
    tensor_product,
)
from pathsig.signature import _BLOCK_BYTES, MAX_COEFFICIENTS
from conftest import dyadic_path, random_path

@st.composite
def nonuniform_paths(draw, n_channels, min_samples=1, max_samples=12):
    """A path with random sample spacing and bounded coordinates."""
    t = draw(st.integers(min_samples, max_samples))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=t, max_size=t))
    row = st.lists(
        st.floats(-10.0, 10.0), min_size=n_channels, max_size=n_channels
    )
    values = draw(st.lists(row, min_size=t, max_size=t))
    return Path(np.cumsum(gaps), np.array(values, dtype=float))


def total_variation(a: Path) -> float:
    return float(np.abs(np.diff(a.values, axis=0)).sum())


# ---------------------------------------------------------------------------
# closed forms and the simplex oracle


def test_single_segment_closed_form():
    a = Path(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 2.0]]))
    s = signature(a, 2)
    assert s.coefficient(()) == 1.0
    assert s.coefficient((1,)) == pytest.approx(1.0)
    assert s.coefficient((2,)) == pytest.approx(2.0)
    assert s.coefficient((1, 1)) == pytest.approx(0.5)
    assert s.coefficient((1, 2)) == pytest.approx(1.0)
    assert s.coefficient((2, 1)) == pytest.approx(1.0)
    assert s.coefficient((2, 2)) == pytest.approx(2.0)


def test_constant_path_gives_unit_tensor():
    a = Path(np.array([0.0, 1.0, 2.0]), np.full((3, 2), 4.5))
    s = signature(a, 3)
    assert s.tensor.max_abs_difference(TruncatedTensor.unit(2, 3)) == 0.0


def test_grade_one_is_total_displacement(rng):
    a = random_path(rng, n_samples=7, n_channels=3)
    s = signature(a, 2)
    assert np.allclose(
        s.tensor.levels[1], a.values[-1] - a.values[0], atol=1e-12
    )


def test_oracle_single_letter_is_displacement(rng):
    a = random_path(rng, n_samples=5, n_channels=2)
    for i in (1, 2):
        assert signature_oracle(a, (i,)) == pytest.approx(
            a.values[-1, i - 1] - a.values[0, i - 1], abs=1e-12
        )


def test_oracle_double_letter_closed_form(rng):
    # S^(ii) = displacement_i^2 / 2: the shuffle identity with I = J = (i)
    a = random_path(rng, n_samples=6, n_channels=2)
    disp = a.values[-1] - a.values[0]
    for i in (1, 2):
        assert signature_oracle(a, (i, i)) == pytest.approx(
            0.5 * disp[i - 1] ** 2, abs=1e-10
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(nonuniform_paths))
def test_engine_matches_simplex_oracle(a):
    s = signature(a, 3)
    scale = 1.0 + total_variation(a)
    letters = range(1, a.n_channels + 1)
    for k in (1, 2, 3):
        for word in itertools.product(letters, repeat=k):
            assert abs(s.coefficient(word) - signature_oracle(a, word)) <= (
                1e-12 * scale**k
            )


def _oracle_reference(a: Path, word) -> float:
    """signature_oracle's sum with its hand-rolled product and run counter:
    the loop it replaced, kept as the reference it is compared against."""
    k = len(word)
    if k == 0:
        return 1.0
    deltas = np.diff(a.values, axis=0)
    m = deltas.shape[0]
    if m == 0:
        return 0.0
    cols = [deltas[:, c - 1] for c in word]
    total = 0.0
    for segs in itertools.combinations_with_replacement(range(m), k):
        term = 1.0
        for pos, s in enumerate(segs):
            term *= cols[pos][s]
        run = 1
        for pos in range(1, k):
            if segs[pos] == segs[pos - 1]:
                run += 1
            else:
                term /= math.factorial(run)
                run = 1
        term /= math.factorial(run)
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    nonuniform_paths(n, max_samples=7),
    st.lists(st.integers(1, n), max_size=4))))
def test_oracle_matches_the_run_counter_reference_bit_for_bit(case):
    a, word = case
    got, ref = signature_oracle(a, word), _oracle_reference(a, word)
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_oracle_rejects_long_words(rng):
    a = random_path(rng)
    with pytest.raises(ValueError):
        signature_oracle(a, (1, 1, 1, 1, 1))


def test_level_bounds(rng):
    a = random_path(rng)
    with pytest.raises(ValueError):
        signature(a, 0)
    with pytest.raises(ValueError):
        signature(a, DEFAULT_LEVEL_CAP + 1)


def test_output_size_cap():
    # 20 channels at level 5 need 3.4M coefficients, at level 4 only 168k
    a = Path(np.arange(2.0), np.zeros((2, 20)))
    assert sum(20**k for k in range(5)) <= MAX_COEFFICIENTS
    assert signature(a, 4).tensor.levels[4].size == 20**4
    with pytest.raises(ValueError, match="coefficients, over the cap"):
        signature(a, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: nonuniform_paths(n, 1, 1)),
       st.integers(1, DEFAULT_LEVEL_CAP))
def test_single_sample_gives_unit_signature(a, level):
    unit = TruncatedTensor.unit(a.n_channels, level)
    assert signature(a, level).tensor.max_abs_difference(unit) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: nonuniform_paths(n, 2, 2)),
       st.integers(1, DEFAULT_LEVEL_CAP))
def test_two_samples_give_segment_exponential(a, level):
    delta = a.values[1] - a.values[0]
    levels = signature(a, level).tensor.levels
    power = np.ones(1)
    for k in range(1, level + 1):
        power = np.kron(power, delta) / k
        assert np.allclose(levels[k], power, rtol=1e-14, atol=1e-300)


# ---------------------------------------------------------------------------
# algebraic identities


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    nonuniform_paths(n, max_samples=8), nonuniform_paths(n, max_samples=8)
)))
def test_chen_identity(ab):
    a, b = ab
    joined = signature(concat(a, b), 4).tensor
    product = tensor_product(signature(a, 4).tensor, signature(b, 4).tensor)
    scale = 1.0 + total_variation(a) + total_variation(b)
    for k in range(5):
        assert np.max(np.abs(joined.levels[k] - product.levels[k])) <= (
            1e-11 * scale**k
        )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
def test_chen_identity_across_blocks(seed, split_at):
    # rows per block as the engine sizes them at N=3, L=6
    rows = _BLOCK_BYTES // (24 * sum(3**k for k in range(7)))
    n_samples = 3 * rows + 7
    rng = np.random.default_rng(seed)
    a = random_path(rng, n_samples=n_samples, n_channels=3, uniform=False)
    cut = min(max(1, int(split_at * n_samples)), n_samples - 2)
    head = Path(a.times[: cut + 1], a.values[: cut + 1])
    tail = Path(a.times[cut:], a.values[cut:])
    whole = signature(a, 6).tensor
    product = tensor_product(
        signature(head, 6).tensor, signature(tail, 6).tensor
    )
    for k in range(7):
        error = np.max(np.abs(whole.levels[k] - product.levels[k]))
        assert error <= 1e-11 * np.max(np.abs(product.levels[k]))


def test_shuffle_identity_all_short_words(rng):
    for n in (2, 3):
        a = random_path(rng, n_samples=6, n_channels=n)
        s = signature(a, 4)
        letters = range(1, n + 1)
        words = [()] + [
            w
            for k in (1, 2)
            for w in itertools.product(letters, repeat=k)
        ]
        for wi in words:
            for wj in words:
                lhs = s.coefficient(wi) * s.coefficient(wj)
                rhs = sum(s.coefficient(k) for k in shuffle(wi, wj))
                assert lhs == pytest.approx(rhs, abs=1e-10)


def test_shuffle_consequence_s21(rng):
    a = random_path(rng, n_samples=8, n_channels=2)
    s = signature(a, 2)
    assert s.coefficient((2, 1)) == pytest.approx(
        s.coefficient((1,)) * s.coefficient((2,)) - s.coefficient((1, 2)),
        abs=1e-10,
    )


def test_tree_like_path_has_unit_signature(rng):
    for _ in range(10):
        a = random_path(rng, n_samples=5, n_channels=2)
        s = signature(concat(a, inverse(a)), 4)
        assert s.tensor.max_abs_difference(TruncatedTensor.unit(2, 4)) < 1e-10


# ---------------------------------------------------------------------------
# invariances


def test_translation_invariance_is_exact(rng):
    a = dyadic_path(rng, n_samples=7, n_channels=2)
    c = np.array([3.0, -2.5])  # dyadic constants shift exactly
    b = Path(a.times, a.values + c, a.channel_names)
    sa = signature(a, 3)
    sb = signature(b, 3)
    for k in range(4):
        assert np.array_equal(sa.tensor.levels[k], sb.tensor.levels[k])


def test_reparametrization_invariance_bitwise(rng):
    a = random_path(rng, n_samples=7)
    warped = Path(np.exp(a.times / 4.0), a.values, a.channel_names)
    sa = signature(a, 3)
    sw = signature(warped, 3)
    for k in range(4):
        assert np.array_equal(sa.tensor.levels[k], sw.tensor.levels[k])


def test_colinear_sample_insertion_invariance(rng):
    a = random_path(rng, n_samples=5, n_channels=2)
    # split segment 2 at its midpoint: same polygonal image
    t_mid = 0.5 * (a.times[2] + a.times[3])
    v_mid = 0.5 * (a.values[2] + a.values[3])
    b = Path(
        np.insert(a.times, 3, t_mid),
        np.insert(a.values, 3, v_mid, axis=0),
        a.channel_names,
    )
    diff = signature(a, 4).tensor.max_abs_difference(signature(b, 4).tensor)
    assert diff < 1e-12


@dataclass(frozen=True)
class ScaleCheck:
    """Record of a lambda-scaling verification run."""

    scale: float
    level: int
    per_grade_deviation: Tuple[float, ...]
    max_deviation: float
    tolerance: float
    passed: bool


def scale_path_signature_check(
    a: Path, lam: float, level: int, tolerance: float = 1e-10
) -> ScaleCheck:
    """Check signature(lam * a) against lam^k-scaled grades of signature(a)."""
    base = signature(a, level).tensor
    scaled = signature(a.with_values(a.values * lam), level).tensor
    deviations = []
    for k in range(level + 1):
        expected = base.levels[k] * lam**k
        deviations.append(float(np.max(np.abs(scaled.levels[k] - expected))))
    worst = max(deviations)
    return ScaleCheck(
        scale=lam,
        level=level,
        per_grade_deviation=tuple(deviations),
        max_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def test_scaling_check_passes_for_spec_scales(rng):
    a = random_path(rng, n_samples=6, n_channels=2)
    for lam in (-2.0, 0.5, 3.0):
        check = scale_path_signature_check(a, lam, 3)
        assert check.passed, check
        assert check.max_deviation < 1e-10


def test_scaling_zero_collapses_to_unit(rng):
    a = random_path(rng)
    check = scale_path_signature_check(a, 0.0, 3)
    assert check.passed


# ---------------------------------------------------------------------------
# signature derivative stream


def zero_started(rng, n_samples=20, n_channels=2) -> Path:
    a = random_path(rng, n_samples=n_samples, n_channels=n_channels)
    return Path(a.times, a.values - a.values[0], a.channel_names)


def test_derivative_constant_channel_is_zero(rng):
    values = np.column_stack([np.zeros(10), rng.normal(size=10)])
    a = Path(np.arange(10.0), values)
    times, stream = signature_derivative(a, 1, 2)
    assert np.all(stream == 0.0)
    assert times.shape == (9,)


def test_derivative_timestamps_are_midpoints(rng):
    a = zero_started(rng, n_samples=6)
    times, _ = signature_derivative(a, 1, 2)
    assert np.allclose(times, 0.5 * (a.times[:-1] + a.times[1:]))


def test_derivative_linear_channels():
    t = np.linspace(0.0, 1.0, 11)
    a = Path(t, np.column_stack([t, t]))
    times, stream = signature_derivative(a, 1, 2)
    assert np.allclose(stream, times)


def test_derivative_warns_when_start_is_nonzero(rng):
    a = random_path(rng, n_samples=6)
    shifted = Path(a.times, a.values - a.values[0] + [5.0, 0.0])
    with pytest.warns(UserWarning):
        signature_derivative(shifted, 1, 2)


def test_derivative_needs_two_samples():
    a = Path(np.array([0.0]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        signature_derivative(a, 1, 2)


def test_derivative_integral_reconstructs_sij(rng):
    for _ in range(10):
        a = zero_started(rng, n_samples=25)
        s = signature(a, 2)
        for i, j in ((1, 2), (2, 1), (1, 1)):
            _, cumulative = signature_derivative_integral(a, i, j)
            assert cumulative[-1] == pytest.approx(
                s.coefficient((i, j)), abs=1e-12
            )


def test_derivative_sign_pattern_sin_cos():
    t = np.linspace(0.0, 2.0 * np.pi, 400)
    a = Path(t, np.column_stack([np.sin(t), np.cos(t)]))
    _, stream = signature_derivative(a, 1, 1)
    # gamma_1 * gamma_1' = sin * cos near each midpoint; squared-channel
    # stream for (1,1) must integrate to displacement^2/2 = 0 over a period
    _, cumulative = signature_derivative_integral(a, 1, 1)
    assert abs(cumulative[-1]) < 1e-10
    # and the (i, j) = (1, 2) stream is sin * (cos)' <= 0 everywhere
    _, stream12 = signature_derivative(a, 1, 2)
    assert np.all(stream12 <= 1e-12)
