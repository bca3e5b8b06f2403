"""Signature computation: blocked prefix engine and slow simplex oracle.

A linear segment with increment d has signature exp(d), whose grade p is
d^(x)p / p!, so by Chen's identity grade k of the prefix signature after
segment m obeys

    S^k(m) = S^k(m-1) + sum_{p=1..k} S^(k-p)(m-1) (x) d_m^(x)p / p!.

The right-hand side needs only lower-grade prefixes, so grade k for a whole
run of segments is one batched product followed by one cumsum (a plain sum
for the top grade, whose prefixes nobody reads). This is the level-by-level
scheme of iisignature (Reizenstein & Graham, arXiv:1802.08252) and Signatory
(Kidger & Lyons, arXiv:2001.00706). It is exact for sampled series up to
floating-point rounding.

Segments are processed in blocks, carrying the running signature from one
block to the next, so the working arrays stay within _BLOCK_BYTES however
long the path is (or a few multiples of the output when one segment's rows
alone exceed it). signature() refuses requests whose output would exceed
MAX_COEFFICIENTS before allocating anything.

signature_oracle evaluates a single coefficient straight from the iterated
integral over the ordered simplex instead, by summing over ordered tuples of
segments with the exact polynomial volume of each simplex cell. It is
exponentially slow in the word length and exists purely as an independent
reference for the engine.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .path_core import MAX_COEFFICIENTS, ConfigError, DataError, Path, one_path
from .tensor_algebra import TruncatedTensor, validate_word

__all__ = [
    "DEFAULT_LEVEL_CAP",
    "SignatureResult",
    "signature",
    "signature_oracle",
    "signature_derivative",
    "signature_derivative_integral",
]

#: analysis pipelines need only level 2; the library accepts up to this cap
DEFAULT_LEVEL_CAP = 6

#: the simplex oracle costs O(T^k); keep it a reference implementation
ORACLE_MAX_WORD = 4

#: working-set budget for one block of segments in the prefix engine
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SignatureResult:
    """Truncated signature together with provenance of the path it came from."""

    tensor: TruncatedTensor
    level: int
    n_channels: int
    n_samples: int
    channel_names: Tuple[str, ...]

    def coefficient(self, word: Sequence[int]) -> float:
        return self.tensor.coefficient(word)

    def to_dict(self) -> dict:
        out = self.tensor.to_dict()
        out["channel_names"] = list(self.channel_names)
        out["n_samples"] = self.n_samples
        return out


def _prefix_levels(deltas: np.ndarray, level: int) -> List[np.ndarray]:
    """Grades 0..level of the signature of the path with (M, N) increments.

    Grade k's step terms are evaluated for a whole block in Horner form,
    ((d/k + S^1) (x) d/(k-1) + S^2) ... (x) d/1, where S^j holds each
    segment's exclusive grade-j prefix; the grades reached at the end of a
    block seed the next one.
    """
    n = deltas.shape[1]
    sig = [np.ones(1)] + [np.zeros(n**k) for k in range(1, level + 1)]
    # per segment: prefixes and increments of every grade plus one product
    row_bytes = 3 * 8 * sum(n**k for k in range(level + 1))
    block = max(1, _BLOCK_BYTES // row_bytes)
    for first in range(0, deltas.shape[0], block):
        d = deltas[first:first + block]
        rows = d.shape[0]
        scaled = [None] + [d / c for c in range(1, level + 1)]
        before = [None]  # before[j][m]: grade j prefix ahead of segment m
        for k in range(1, level + 1):
            acc = scaled[k]
            for j in range(1, k):
                acc = acc + before[j]
                acc = acc[:, :, None] * scaled[k - j][:, None, :]
                acc = acc.reshape(rows, -1)
            if k == level:
                sig[k] = sig[k] + acc.sum(axis=0)
                break
            prefix = np.empty_like(acc)
            prefix[0] = sig[k]
            np.cumsum(acc[:-1], axis=0, out=prefix[1:])
            prefix[1:] += sig[k]
            sig[k] = prefix[-1] + acc[-1]
            before.append(prefix)
    return sig


@one_path
def signature(a: Path, level: int) -> SignatureResult:
    """Truncated signature of a sampled path via the blocked prefix engine.

    level must lie in [1, DEFAULT_LEVEL_CAP], and the output's sum_k N^k
    coefficients may not exceed MAX_COEFFICIENTS. A single-point path has
    the unit signature.
    """
    if not 1 <= level <= DEFAULT_LEVEL_CAP:
        raise ConfigError(f"level must be in [1, {DEFAULT_LEVEL_CAP}], got {level}")
    size = sum(a.n_channels**k for k in range(level + 1))
    if size > MAX_COEFFICIENTS:
        raise ConfigError(f"a level-{level} signature of {a.n_channels} channels has "
                          f"{size} coefficients, over the cap of {MAX_COEFFICIENTS}")
    # an overflow shows as a non-finite coefficient, refused by TruncatedTensor
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _prefix_levels(np.diff(a.values, axis=0), level)
    return SignatureResult(
        tensor=TruncatedTensor(a.n_channels, level, tuple(levels)),
        level=level,
        n_channels=a.n_channels,
        n_samples=a.n_samples,
        channel_names=a.channel_names,
    )


@one_path
def signature_oracle(a: Path, word: Sequence[int]) -> float:
    """One signature coefficient by brute-force simplex integration.

    The iterated integral over t_1 <= ... <= t_k splits over ordered tuples
    of segments. The derivative is constant on each segment, so a tuple
    visiting segments s_1 <= ... <= s_k contributes the product of the
    matching displacement components divided by g! for every group of g
    equal consecutive segments (the volume of the ordered corner of the
    cell). The sum over all tuples is exact, no quadrature error.
    """
    w = validate_word(word, a.n_channels)
    k = len(w)
    if k > ORACLE_MAX_WORD:
        raise ConfigError(f"oracle word length {k} exceeds {ORACLE_MAX_WORD} "
                          "(cost grows as T^k)")
    if k == 0:
        return 1.0
    deltas = np.diff(a.values, axis=0)
    m = deltas.shape[0]
    if m == 0:
        return 0.0
    cols = [deltas[:, c - 1] for c in w]
    total = 0.0
    for segs in itertools.combinations_with_replacement(range(m), k):
        term = math.prod(col[s] for col, s in zip(cols, segs))
        for _, run in itertools.groupby(segs):
            term /= math.factorial(len(list(run)))
        total += term
    return total


def signature_derivative(
    a: Path, i: int, j: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The second-level integrand gamma_i(t) * gamma_j'(t) as a stream.

    gamma_j' is the piecewise-constant segment slope and gamma_i is taken at
    the segment midpoint, so the stream integrates segment-exactly: the sum
    of value * segment width reconstructs S^(i,j). That identity needs
    channel i to start at 0 (the usual origin-prepending preprocessing); a
    warning is raised otherwise. Channel j enters only through slopes, so
    its offset is irrelevant. Returns (midpoint times, stream values), of
    length T-1; the values of a batch have shape (..., T-1).
    """
    if a.n_samples < 2:
        raise DataError("signature_derivative needs at least 2 samples")
    x = a.channel(i)
    y = a.channel(j)
    if np.any(x[..., 0] != 0.0):
        warnings.warn(
            f"channel {i} does not start at 0; the stream integral "
            "will not match the second-level signature coefficient"
        )
    widths = np.diff(a.times)
    mid_times = a.times[:-1] + 0.5 * widths
    mid_x = 0.5 * (x[..., :-1] + x[..., 1:])
    slope_y = np.diff(y) / widths
    return mid_times, mid_x * slope_y


def signature_derivative_integral(
    a: Path, i: int, j: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of the derivative stream, sampled at segment ends.

    For a path whose channel i starts at 0 the final entry equals S^(i,j)
    exactly (per-segment trapezoidal integration of a linear integrand).
    """
    mid_times, stream = signature_derivative(a, i, j)
    widths = np.diff(a.times)
    return a.times[1:], np.cumsum(stream * widths, axis=-1)
