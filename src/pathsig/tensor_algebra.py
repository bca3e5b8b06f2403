"""Truncated tensor algebra over words in the alphabet {1, ..., N}.

Signature coefficients of an N-channel path live in the free tensor algebra
truncated at level L. A grade-k component is stored densely as a flat array
of N**k coefficients in lexicographic word order, i.e. the word
(i_1, ..., i_k) sits at the base-N integer with digits (i_1 - 1, ..., i_k - 1).
Words themselves are plain tuples of 1-based letters; the empty tuple is the
constant term.

The product, exp and log share one kernel over plain lists of grade arrays.
np.multiply.outer of two flat grade arrays, raveled, concatenates words in
lexicographic storage order, so no index shuffling is needed. exp and log
skip the terms with a factor that is zero by construction and check
finiteness once, on their result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .path_core import ConfigError, _check, _frozen

Word = Tuple[int, ...]

__all__ = [
    "Word",
    "DimensionMismatch",
    "TruncatedTensor",
    "tensor_product",
    "tensor_exp",
    "tensor_log",
    "shuffle",
    "lyndon_words",
    "word_index",
    "words_of_length",
    "validate_word",
]


class DimensionMismatch(ConfigError):
    """Two tensors disagree on alphabet size or truncation level."""


def validate_word(word: Sequence[int], alphabet_size: int) -> Word:
    """Return ``word`` as a tuple, checking every letter lies in [1, N]."""
    w = tuple(int(c) for c in word)
    for c in w:
        if not 1 <= c <= alphabet_size:
            raise ConfigError(f"letter {c} outside alphabet [1, {alphabet_size}]")
    return w


def word_index(word: Sequence[int], alphabet_size: int) -> int:
    """Lexicographic index of ``word`` within all words of its length."""
    idx = 0
    for c in validate_word(word, alphabet_size):
        idx = idx * alphabet_size + (c - 1)
    return idx


def words_of_length(alphabet_size: int, k: int) -> List[Word]:
    """All words of length k over [1, N], in lexicographic (storage) order."""
    return list(itertools.product(range(1, alphabet_size + 1), repeat=k))


def _zero_grades(n: int, level: int) -> List[np.ndarray]:
    """Grades 0..level over N = n, each all +0.0."""
    return [np.zeros(n**k) for k in range(level + 1)]


@dataclass(frozen=True)
class TruncatedTensor:
    """Element of the tensor algebra truncated at ``level``.

    ``levels[k]`` is the flat grade-k coefficient array of length
    ``alphabet_size ** k``; ``levels[0]`` holds the single constant term.
    Immutable; its read-only arrays share a C-contiguous float64 input's memory.
    """

    alphabet_size: int
    level: int
    levels: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        _check("alphabet_size", self.alphabet_size, 1)
        _check("level", self.level, 0)
        if len(self.levels) != self.level + 1:
            raise ConfigError(f"expected {self.level + 1} grade arrays, "
                              f"got {len(self.levels)}")
        frozen = []
        for k, arr in enumerate(self.levels):
            a = _frozen(arr)
            if a.shape != (self.alphabet_size**k,):
                raise ConfigError(f"grade {k} must have {self.alphabet_size ** k} "
                                  f"entries, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ConfigError(f"non-finite coefficient at grade {k}")
            frozen.append(a)
        object.__setattr__(self, "levels", tuple(frozen))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet_size: int, level: int) -> "TruncatedTensor":
        return cls(alphabet_size, level, tuple(_zero_grades(alphabet_size, level)))

    @classmethod
    def unit(cls, alphabet_size: int, level: int) -> "TruncatedTensor":
        """Multiplicative identity: constant term 1, all higher grades 0."""
        levels = _zero_grades(alphabet_size, level)
        levels[0][0] = 1.0
        return cls(alphabet_size, level, tuple(levels))

    @classmethod
    def from_grade_one(
        cls, vector: Sequence[float], level: int
    ) -> "TruncatedTensor":
        """Embed a channel-displacement vector at grade 1."""
        v = np.asarray(vector, dtype=float)
        levels = _zero_grades(len(v), level)
        if level >= 1:
            levels[1] = v.copy()
        return cls(len(v), level, tuple(levels))

    # -- access ------------------------------------------------------------

    def coefficient(self, word: Sequence[int]) -> float:
        w = validate_word(word, self.alphabet_size)
        if len(w) > self.level:
            raise ConfigError(f"word {w} longer than truncation level {self.level}")
        return float(self.levels[len(w)][word_index(w, self.alphabet_size)])

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedTensor") -> None:
        if (
            self.alphabet_size != other.alphabet_size
            or self.level != other.level
        ):
            raise DimensionMismatch(
                f"(N={self.alphabet_size}, L={self.level}) vs "
                f"(N={other.alphabet_size}, L={other.level})"
            )

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._check_compatible(other)
        return TruncatedTensor(
            self.alphabet_size,
            self.level,
            tuple(a + b for a, b in zip(self.levels, other.levels)),
        )

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._check_compatible(other)
        return TruncatedTensor(
            self.alphabet_size,
            self.level,
            tuple(a - b for a, b in zip(self.levels, other.levels)),
        )

    def __mul__(self, scalar: float) -> "TruncatedTensor":
        s = float(scalar)
        return TruncatedTensor(
            self.alphabet_size, self.level, tuple(a * s for a in self.levels)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "TruncatedTensor":
        return self * -1.0

    def max_abs_difference(self, other: "TruncatedTensor") -> float:
        """Largest absolute coefficient difference across all grades."""
        self._check_compatible(other)
        return max(
            float(np.max(np.abs(a - b))) if a.size else 0.0
            for a, b in zip(self.levels, other.levels)
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.alphabet_size,
            "L": self.level,
            "levels": [lvl.tolist() for lvl in self.levels],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TruncatedTensor":
        return cls(
            int(obj["N"]),
            int(obj["L"]),
            tuple(np.asarray(lvl, dtype=float) for lvl in obj["levels"]),
        )


def _graded_product(a: Sequence[np.ndarray], b: Sequence[np.ndarray], n: int,
                    level: int, low_a: int, low_b: int) -> List[np.ndarray]:
    """Grades 0..level of the product of grade lists a and b over N = n.

    Grade k adds the outer products of a[p] and b[k - p] in increasing p to
    a +0.0 accumulator. The grades of a below low_a and of b below low_b
    must be zero (of either sign), and their terms are skipped. The
    accumulator never holds -0.0, so a +-0.0 term leaves its bits alone: a
    finite result is bit-identical to one that keeps every term.
    """
    out = _zero_grades(n, level)
    for k, acc in enumerate(out):
        for p in range(low_a, k - low_b + 1):
            acc += np.multiply.outer(a[p], b[k - p]).ravel()
    return out


def tensor_product(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Graded product of two truncated tensors; grades above L are discarded.

    Grade-k output is sum over p+q=k of (grade-p of a) tensor (grade-q of b),
    every term kept.
    """
    a._check_compatible(b)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _graded_product(a.levels, b.levels, a.alphabet_size, a.level, 0, 0)
    return TruncatedTensor(a.alphabet_size, a.level, tuple(out))


def tensor_exp(a: TruncatedTensor) -> TruncatedTensor:
    """exp(a) = sum_{j>=0} a^(x)j / j!, truncated at L.

    Requires a zero constant term, so a^(x)j has lowest grade j and the sum
    is finite (j <= L). An overflow raises ConfigError naming the lowest
    non-finite grade of the result.
    """
    if a.levels[0][0] != 0.0:
        raise ConfigError("tensor_exp requires a zero constant term")
    n, level = a.alphabet_size, a.level
    power = TruncatedTensor.unit(n, level).levels
    result = [lvl.copy() for lvl in power]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, level + 1):
            power = _graded_product(power, a.levels, n, level, j - 1, 1)
            for k in range(j, level + 1):
                power[k] *= 1.0 / j
                result[k] += power[k]
    return TruncatedTensor(n, level, tuple(result))


def tensor_log(s: TruncatedTensor) -> TruncatedTensor:
    """log(s) = sum_{j>=1} (-1)^(j-1)/j (s - 1)^(x)j, truncated at L.

    s - 1 is s with grade 0 zeroed, so the kernel reads s's grades and skips
    grade 0. An overflow raises ConfigError naming the lowest non-finite
    grade of the result.
    """
    if s.levels[0][0] != 1.0:
        raise ConfigError("tensor_log requires constant term exactly 1")
    n, level = s.alphabet_size, s.level
    power = TruncatedTensor.unit(n, level).levels
    result = _zero_grades(n, level)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, level + 1):
            power = _graded_product(power, s.levels, n, level, j - 1, 1)
            c = (-1.0) ** (j - 1) / j
            for k in range(j, level + 1):
                result[k] += power[k] * c
    return TruncatedTensor(n, level, tuple(result))


def shuffle(i: Sequence[int], j: Sequence[int]) -> List[Word]:
    """All (k,l)-shuffles of words i and j, duplicates retained.

    Returns the shuffle multiset as a list of C(k+l, k) words in a
    deterministic order: for each way of choosing which output slots carry
    the letters of i (itertools.combinations order), the letters of i and j
    are interleaved preserving their internal orders.
    """
    wi, wj = tuple(i), tuple(j)
    k, l = len(wi), len(wj)
    out: List[Word] = []
    for slots in itertools.combinations(range(k + l), k):
        word = [0] * (k + l)
        in_i = set(slots)
        it_i = iter(wi)
        it_j = iter(wj)
        for pos in range(k + l):
            word[pos] = next(it_i) if pos in in_i else next(it_j)
        out.append(tuple(word))
    return out


def lyndon_words(n: int, max_len: int) -> List[Word]:
    """All Lyndon words over [1, n] of length <= max_len, sorted by (length, lex).

    A word is Lyndon when it is strictly smaller than every proper rotation
    of itself. Generation uses Duval's algorithm, which emits Lyndon words in
    lexicographic order; the result is then re-sorted by (length, lex).
    """
    _check("n", n, 1)
    _check("max_len", max_len, 1)
    found: List[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        found.append(tuple(c + 1 for c in w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == n - 1:
            w.pop()
    found.sort(key=lambda u: (len(u), u))
    return found
