from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import (
    DimensionMismatch,
    TruncatedTensor,
    lyndon_words,
    shuffle,
    tensor_exp,
    tensor_log,
    tensor_product,
    word_index,
    words_of_length,
)


def random_tensor(rng, n=2, level=3, unit_constant=False) -> TruncatedTensor:
    levels = [rng.normal(size=n ** k) for k in range(level + 1)]
    levels[0] = np.array([1.0]) if unit_constant else np.array([0.0])
    return TruncatedTensor(n, level, tuple(levels))


# ---------------------------------------------------------------------------
# word indexing


def test_words_of_length_is_lexicographic():
    assert words_of_length(2, 0) == [()]
    assert words_of_length(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert words_of_length(3, 1) == [(1,), (2,), (3,)]


def test_word_index_matches_enumeration_order():
    for n in (1, 2, 3):
        for k in range(4):
            for pos, word in enumerate(words_of_length(n, k)):
                assert word_index(word, n) == pos


def test_word_index_rejects_out_of_alphabet_letters():
    with pytest.raises(ValueError):
        word_index((0,), 2)
    with pytest.raises(ValueError):
        word_index((3,), 2)


# ---------------------------------------------------------------------------
# tensor container and arithmetic


def test_unit_has_one_in_grade_zero_only():
    t = TruncatedTensor.unit(2, 3)
    assert t.coefficient(()) == 1.0
    assert all(np.all(t.levels[k] == 0) for k in range(1, 4))


def test_from_grade_one_places_vector():
    t = TruncatedTensor.from_grade_one(np.array([3.0, -1.0]), 2)
    assert t.coefficient((1,)) == 3.0
    assert t.coefficient((2,)) == -1.0
    assert t.coefficient(()) == 0.0


def test_vector_space_ops(rng):
    a = random_tensor(rng)
    b = random_tensor(rng)
    s = a + b
    d = a - b
    for word in [(), (1,), (2, 1), (1, 2, 2)]:
        assert s.coefficient(word) == pytest.approx(
            a.coefficient(word) + b.coefficient(word)
        )
        assert d.coefficient(word) == pytest.approx(
            a.coefficient(word) - b.coefficient(word)
        )
    assert (2.0 * a).coefficient((2, 1)) == pytest.approx(
        2 * a.coefficient((2, 1))
    )
    assert (-a).coefficient((1,)) == -a.coefficient((1,))


def test_mixed_shapes_are_rejected(rng):
    a = random_tensor(rng, n=2, level=3)
    b = random_tensor(rng, n=3, level=3)
    c = random_tensor(rng, n=2, level=2)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        tensor_product(a, c)


def test_levels_are_read_only(rng):
    a = random_tensor(rng)
    with pytest.raises(ValueError):
        a.levels[1][0] = 99.0


def test_serialization_round_trip(rng):
    a = random_tensor(rng, n=2, level=3)
    d = a.to_dict()
    assert set(d) == {"N", "L", "levels"}
    back = TruncatedTensor.from_dict(d)
    assert back.max_abs_difference(a) == 0.0


# ---------------------------------------------------------------------------
# tensor product


def test_unit_is_multiplicative_identity(rng):
    a = random_tensor(rng, unit_constant=True)
    e = TruncatedTensor.unit(2, 3)
    assert tensor_product(e, a).max_abs_difference(a) < 1e-15
    assert tensor_product(a, e).max_abs_difference(a) < 1e-15


def test_tensor_product_concatenates_words():
    # (e_1) x (e_2) must put all its mass on the word (1, 2)
    u = TruncatedTensor.from_grade_one(np.array([1.0, 0.0]), 2)
    v = TruncatedTensor.from_grade_one(np.array([0.0, 1.0]), 2)
    p = tensor_product(u, v)
    assert p.coefficient((1, 2)) == 1.0
    assert p.coefficient((2, 1)) == 0.0


def test_tensor_product_grade_two_is_kron(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    p = tensor_product(
        TruncatedTensor.from_grade_one(a, 2),
        TruncatedTensor.from_grade_one(b, 2),
    )
    assert np.allclose(p.levels[2], np.kron(a, b))


def test_tensor_product_associative(rng):
    a = random_tensor(rng, unit_constant=True)
    b = random_tensor(rng, unit_constant=True)
    c = random_tensor(rng, unit_constant=True)
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert left.max_abs_difference(right) < 1e-12


# ---------------------------------------------------------------------------
# exp and log


def test_exp_of_zero_is_unit():
    z = TruncatedTensor.zero(2, 3)
    assert tensor_exp(z).max_abs_difference(TruncatedTensor.unit(2, 3)) == 0.0


def test_exp_grades_match_kron_powers(rng):
    # independent oracle: grade k of exp(v) is v^(x k) / k!
    v = rng.normal(size=3)
    e = tensor_exp(TruncatedTensor.from_grade_one(v, 4))
    power = np.array([1.0])
    for k in range(5):
        assert np.allclose(e.levels[k], power / math.factorial(k), atol=1e-14)
        power = np.kron(power, v)


def test_exp_rejects_nonzero_constant_term(rng):
    a = random_tensor(rng, unit_constant=True)
    with pytest.raises(ValueError):
        tensor_exp(a)


def test_log_of_unit_is_zero():
    e = TruncatedTensor.unit(3, 3)
    assert tensor_log(e).max_abs_difference(TruncatedTensor.zero(3, 3)) == 0.0


def test_log_rejects_constant_term_not_one(rng):
    a = random_tensor(rng)
    with pytest.raises(ValueError):
        tensor_log(a)


def test_log_exp_round_trip(rng):
    for _ in range(20):
        a = random_tensor(rng, n=2, level=4)
        assert tensor_log(tensor_exp(a)).max_abs_difference(a) < 1e-12
        s = random_tensor(rng, n=2, level=4, unit_constant=True)
        assert tensor_exp(tensor_log(s)).max_abs_difference(s) < 1e-10


# ---------------------------------------------------------------------------
# product, exp and log against the np.kron versions they replaced


def _kron_product(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    a._check_compatible(b)
    out = []
    for k in range(a.level + 1):
        acc = np.zeros(a.alphabet_size**k)
        for p in range(k + 1):
            acc += np.kron(a.levels[p], b.levels[k - p])
        out.append(acc)
    return TruncatedTensor(a.alphabet_size, a.level, tuple(out))


def _kron_exp(a: TruncatedTensor) -> TruncatedTensor:
    if a.levels[0][0] != 0.0:
        raise ValueError("tensor_exp requires a zero constant term")
    result = TruncatedTensor.unit(a.alphabet_size, a.level)
    power = TruncatedTensor.unit(a.alphabet_size, a.level)
    for j in range(1, a.level + 1):
        power = _kron_product(power, a) * (1.0 / j)
        result = result + power
    return result


def _kron_log(s: TruncatedTensor) -> TruncatedTensor:
    if s.levels[0][0] != 1.0:
        raise ValueError("tensor_log requires constant term exactly 1")
    x = s - TruncatedTensor.unit(s.alphabet_size, s.level)
    result = TruncatedTensor.zero(s.alphabet_size, s.level)
    power = TruncatedTensor.unit(s.alphabet_size, s.level)
    for j in range(1, s.level + 1):
        power = _kron_product(power, x)
        result = result + power * ((-1.0) ** (j - 1) / j)
    return result


@st.composite
def _tensors(draw, n, level, constants):
    """Grades of normal draws at one of several scales, with +-0.0 sprinkled
    in, or grades that are all +0.0 or all -0.0; the largest scale
    overflows the higher grades of a product, exp or log."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e60]))
    levels = [np.array([draw(st.sampled_from(constants))])]
    for k in range(1, level + 1):
        kind = draw(st.sampled_from(["values", "values", "+0", "-0"]))
        v = rng.normal(size=n**k) * scale
        if kind == "values":
            u = rng.random(n**k)
            v[u < 0.15] = 0.0
            v[u > 0.85] = -0.0
        else:
            v[:] = 0.0 if kind == "+0" else -0.0
        levels.append(v)
    return TruncatedTensor(n, level, tuple(levels))


def _assert_same_bits_or_both_raise(new, old, *args):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = old(*args)
    except ValueError:
        with pytest.raises(ValueError, match="non-finite coefficient"):
            new(*args)
        return
    got = new(*args)
    for x, y in zip(got.levels, expected.levels):
        assert np.array_equal(x.view(np.int64), y.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 6))
def test_product_exp_and_log_match_the_kron_versions_bit_for_bit(data, n, level):
    """Same bits, signed zeros included, and a ValueError exactly where the
    np.kron versions raised one."""
    a = data.draw(_tensors(n, level, [0.0, -0.0, 1.0, -2.5]))
    b = data.draw(_tensors(n, level, [0.0, -0.0, 1.0, 0.5]))
    _assert_same_bits_or_both_raise(tensor_product, _kron_product, a, b)
    a0 = data.draw(_tensors(n, level, [0.0, -0.0]))
    _assert_same_bits_or_both_raise(tensor_exp, _kron_exp, a0)
    s = data.draw(_tensors(n, level, [1.0]))
    _assert_same_bits_or_both_raise(tensor_log, _kron_log, s)


# ---------------------------------------------------------------------------
# shuffle product


def test_shuffle_multiset_with_repeated_letter():
    # (1,2) and (2,3) share the letter 2, so one interleaving has
    # multiplicity two; hand-enumerated
    got = Counter(shuffle((1, 2), (2, 3)))
    expected = Counter(
        {
            (1, 2, 2, 3): 2,
            (2, 1, 2, 3): 1,
            (1, 2, 3, 2): 1,
            (2, 1, 3, 2): 1,
            (2, 3, 1, 2): 1,
        }
    )
    assert got == expected


def test_shuffle_basics():
    assert shuffle((), (1, 2)) == [(1, 2)]
    assert Counter(shuffle((1,), (2,))) == Counter([(1, 2), (2, 1)])


@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), max_size=3),
)
def test_shuffle_count_and_commutativity(i, j):
    i, j = tuple(i), tuple(j)
    out = shuffle(i, j)
    assert len(out) == math.comb(len(i) + len(j), len(i))
    assert Counter(out) == Counter(shuffle(j, i))
    for word in out:
        assert Counter(word) == Counter(i) + Counter(j)


# ---------------------------------------------------------------------------
# Lyndon words


def brute_force_lyndon(n: int, max_len: int):
    """A word is Lyndon iff strictly smaller than all proper rotations."""
    out = []
    for k in range(1, max_len + 1):
        for word in itertools.product(range(1, n + 1), repeat=k):
            rotations = [word[r:] + word[:r] for r in range(1, k)]
            if all(word < rot for rot in rotations):
                out.append(word)
    return out


def test_lyndon_words_match_rotation_definition():
    for n in (2, 3):
        got = lyndon_words(n, 5)
        expected = sorted(brute_force_lyndon(n, 5), key=lambda w: (len(w), w))
        assert got == expected


def test_lyndon_counts_for_two_letters():
    words = lyndon_words(2, 5)
    by_len = Counter(len(w) for w in words)
    assert [by_len[k] for k in range(1, 6)] == [2, 1, 2, 3, 6]


def test_lyndon_counts_match_witt_formula():
    sympy = pytest.importorskip("sympy")
    for n in (2, 3):
        by_len = Counter(len(w) for w in lyndon_words(n, 6))
        for k in range(1, 7):
            witt = (
                sum(
                    int(sympy.mobius(d)) * n ** (k // d)
                    for d in sympy.divisors(k)
                )
                // k
            )
            assert by_len[k] == witt


@settings(max_examples=30)
@given(st.integers(2, 3), st.integers(1, 4))
def test_lyndon_sorted_and_unique(n, max_len):
    words = lyndon_words(n, max_len)
    assert len(set(words)) == len(words)
    assert words == sorted(words, key=lambda w: (len(w), w))
