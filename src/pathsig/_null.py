"""The shuffle null: a statistic's curve judged against per-channel
time-shuffled replicates. _chunks yields them a batch at a time, each
channel-major from the shuffle to the statistic, shuffle_null fills the
(R, W) curve matrix, and _report judges the observed curve against it.
pathsig.causality re-exports the public names."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from . import path_core
from ._pcg64 import generators, mix_seed
from .path_core import (MAX_COEFFICIENTS, ConfigError, Path, PreprocessConfig,
                        _check, one_path)

if TYPE_CHECKING:
    from .causality import WindowSpec

Statistic = Callable[[Path, Optional["WindowSpec"]], Tuple[np.ndarray, np.ndarray]]

#: float64 values in one chunk of shuffled replicates (14 replicates of
#: c09's 1500 x 3 samples); bounds the null model's working set
_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class NullModelSpec:
    """Shuffle-null configuration.

    band_mode "gaussian" sets bands at mean +- band_sigmas * std; "quantile"
    uses the empirical two-sided quantiles at the matching normal coverage.
    min_run_length counts consecutive stride points.
    """

    replicates: int
    seed: int
    band_sigmas: float = 3.0
    min_run_length: int = 5
    band_mode: str = "gaussian"

    def __post_init__(self) -> None:
        _check("replicates", self.replicates, 2)
        _check("band_sigmas", self.band_sigmas, 0, strict=True)
        _check("min_run_length", self.min_run_length, 1)
        if self.band_mode not in ("gaussian", "quantile"):
            raise ConfigError("band_mode must be 'gaussian' or 'quantile', "
                             f"got {self.band_mode!r}")


class Run(NamedTuple):
    """Maximal significant run: [start_time, end_time] with constant sign."""

    start: float
    end: float
    sign: int


@dataclass(frozen=True)
class SignificanceReport:
    """Observed statistic curve with null-model bands, mask, and runs."""

    statistic_name: str
    pair: Optional[Tuple[int, int]]
    times: np.ndarray
    observed: np.ndarray
    null_mean: np.ndarray
    null_std: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    significant_mask: np.ndarray
    runs: Tuple[Run, ...]
    replicates: int
    seed: int
    band_sigmas: float
    band_mode: str
    min_run_length: int

    def __post_init__(self) -> None:
        n = self.times.size
        for name in ("observed", "null_mean", "null_std", "band_lo", "band_hi",
                     "significant_mask"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigError(f"{name} must have shape ({n},)")

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic_name,
            "pair": list(self.pair) if self.pair else None,
            "times": self.times.tolist(),
            "observed": self.observed.tolist(),
            "null_mean": self.null_mean.tolist(),
            "null_std": self.null_std.tolist(),
            "band_lo": self.band_lo.tolist(),
            "band_hi": self.band_hi.tolist(),
            "significant": self.significant_mask.tolist(),
            "runs": [r._asdict() for r in self.runs],
            "replicates": self.replicates,
            "seed": self.seed,
            "band_sigmas": self.band_sigmas,
            "band_mode": self.band_mode,
            "min_run_length": self.min_run_length,
        }


def _curve(name: str, pair: Optional[Tuple[int, int]], times, values):
    """A statistic's (times, values), once every one of them is finite."""
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        of = f" of pair {pair[0]},{pair[1]}" if pair is not None else ""
        raise ConfigError(f"the {name} curve{of} is not finite")
    return times, values


def _permuted(values: np.ndarray, rngs: Iterator[np.random.Generator],
              count: int) -> np.ndarray:
    """count (T, N) copies of values, copy k with each channel permuted by
    the kth generator taken from rngs: shape (count, T, N), a view of a
    channel-major (count, N, T) array. Generator.permuted along time takes
    each channel's draws in turn, as rng.permutation(T) would: copy k holds
    values[rng.permutation(T), c]. values.T is copied unless it is already
    C-contiguous."""
    rows = np.ascontiguousarray(values.T)
    out = np.empty((count,) + rows.shape)
    for copy, rng in zip(out, rngs):  # out first: takes count generators
        rng.permuted(rows, axis=1, out=copy)
    return np.swapaxes(out, 1, 2)


def _widened(p: Path, names, reads, held) -> Path:
    """p, whose channels are held's, widened to the channels names names:
    channel c is p's of held[k] = c if c is in reads, else 0. A batch
    comes back channel-major. It fills one row at a time: np.zeros
    (calloc) raised lorenz-sig's peak RSS by ~0.4 MB."""
    out = np.empty(p.values.shape[:-2] + (len(names), p.n_samples))
    for c in range(len(names)):
        out[..., c, :] = p.values[..., held.index(c)] if c in reads else 0.0
    return Path(p.times, np.swapaxes(out, -1, -2), names, _grid=p)


@one_path
def shuffle_channels(a: Path, derived_seed: int) -> Path:
    """Independently permute each channel's samples (Fisher-Yates).

    Destroys temporal structure while preserving each channel's value
    multiset; the time grid is untouched.
    """
    rng = np.random.Generator(np.random.PCG64(derived_seed))
    return a.with_values(_permuted(a.values, [rng], 1)[0])


def _chunks(a: Path, spec: NullModelSpec, cfg: Optional[PreprocessConfig],
            reads, held) -> Iterator[Tuple[int, int, Path]]:
    """The replicates of a's null as (r0, r1, batch), a chunk of about
    _CHUNK_VALUES values at a time: batch holds replicates r0..r1-1, each
    with every channel up to held's last permuted by its own generator,
    then held's channels preprocessed by cfg. Batch has all of a's
    channels, those outside reads at 0. A chunk stays channel-major from
    the shuffle to the statistic: its values view an (r1 - r0, N, T)
    array, so each channel is a contiguous row, and each stage drops the
    buffer of the one before. held, a range (all channels, or a pair),
    slices the shuffled rows without a copy. The grid is a's, checked once.
    A failure is raised prefixed with "a shuffled replicate failed: "."""
    n = a.n_channels
    chunk = max(1, _CHUNK_VALUES // a.values.size)
    rngs = generators(mix_seed(spec.seed, r) for r in range(spec.replicates))
    rows = np.ascontiguousarray(a.values[:, :held.stop].T)
    cut = slice(held.start, held.stop, held.step)
    try:
        for r0 in range(0, spec.replicates, chunk):
            r1 = min(r0 + chunk, spec.replicates)
            p = Path(a.times, _permuted(rows.T, rngs, r1 - r0)[..., cut],
                     a.channel_names[cut], _grid=a)
            if cfg is not None:
                p = path_core.preprocess(p, cfg)
            if len(reads) < n:
                p = _widened(p, a.channel_names, reads, held)
            yield r0, r1, p
            del p  # the next chunk is built without this one
    except ValueError as e:
        raise ConfigError(f"a shuffled replicate failed: {e}") from e


@one_path
@np.errstate(over="ignore", invalid="ignore")
def shuffle_null(
    a: Path,
    statistic: Statistic,
    spec: NullModelSpec,
    w: Optional[WindowSpec] = None,
    preprocess_cfg: Optional[PreprocessConfig] = None,
    statistic_name: str = "statistic",
    pair: Optional[Tuple[int, int]] = None,
) -> SignificanceReport:
    """Calibrate the statistic against per-channel time-shuffled replicates.

    The shuffle acts on the raw samples of a; each replicate then passes
    through the identical pipeline (preprocessing, including smoothing, then
    the statistic over windows w). Replicate r's generator is seeded
    exactly as np.random.PCG64(mix_seed(spec.seed, r)) would be, as
    shuffle_channels does. Curves are reduced with numpy's pairwise
    mean/std, so the report is a pure function of (input, spec), whatever
    the chunk size.

    Replicates reach the statistic as batched Paths (see _chunks), so it
    must broadcast: given a batch of R paths it returns (times, values)
    with values of shape (R, W), row r being what one path would give.
    Another shape raises "statistic changed length under shuffling".
    Raises ConfigError when an observed time or value overflows float64
    (naming pair, if given), or names the first of the null's mean, std
    and bands that does. A replicate can fail where the observed series
    does not: its centering mean is a float sum in shuffled order, and its
    curve can overflow where the statistic checks its own. That error is
    raised as a ConfigError prefixed with "a shuffled replicate failed: ".

    A pair of two channels of a also names the only channels the statistic
    reads. Every other channel reads 0, in the observed curve and in every
    replicate alike. So a replicate shuffles the channels only up to the
    pair's last (its generator is its own, so the draws of later channels
    would change nothing), and smooths and preprocesses the pair's two
    only; under normalize="global", whose range couples the channels, it
    still preprocesses all of them. The observed series is preprocessed
    whole first, so its errors and warnings are every channel's, as with
    pair None, where every channel is read. A pair (i, i) zeroes the other
    channels but shuffles and preprocesses all of them. A pair that names a
    channel outside [1, N] leaves every channel in, for the statistic to
    refuse.
    """
    n = a.n_channels
    # the channels the statistic reads, and those the replicates preprocess;
    # one channel alone would change the bytes of a batch's centering mean
    reads = held = range(n)
    if pair is not None and all(1 <= c <= n for c in pair):
        reads = sorted({c - 1 for c in pair})
        if len(reads) == 2 and getattr(preprocess_cfg, "normalize", "") != "global":
            held = range(reads[0], reads[1] + 1, reads[1] - reads[0])
    p = a if preprocess_cfg is None else path_core.preprocess(a, preprocess_cfg)
    if len(reads) < n:
        p = _widened(p, p.channel_names, reads, range(n))
    times, observed = _curve(statistic_name, pair, *statistic(p, w))
    if spec.replicates * observed.size > MAX_COEFFICIENTS:
        raise ConfigError(f"{spec.replicates} replicates x {observed.size} windows "
                         f"is over the cap of {MAX_COEFFICIENTS}")
    curves = np.empty((spec.replicates, observed.size))
    for r0, r1, batch in _chunks(a, spec, preprocess_cfg, reads, held):
        try:
            _, values = statistic(batch, w)
        except ValueError as e:
            raise ConfigError(f"a shuffled replicate failed: {e}") from e
        if np.shape(values) != (r1 - r0, observed.size):
            raise ConfigError("statistic changed length under shuffling")
        curves[r0:r1] = values
        del batch  # as _chunks drops it: the next chunk is built without it
    return _report(statistic_name, pair, times, observed, curves, spec)


def _report(name, pair, times, observed, curves, spec) -> SignificanceReport:
    """The observed curve of the named statistic and pair, judged against
    the (R, W) replicate curves under spec."""
    null_mean = curves.mean(axis=0)
    null_std = curves.std(axis=0)
    if spec.band_mode == "gaussian":
        band_lo = null_mean - spec.band_sigmas * null_std
        band_hi = null_mean + spec.band_sigmas * null_std
    else:
        # empirical quantiles at the two-sided coverage of +-k sigma
        p_lo = 0.5 * math.erfc(spec.band_sigmas / math.sqrt(2.0))
        band_lo = np.quantile(curves, p_lo, axis=0)
        band_hi = np.quantile(curves, 1.0 - p_lo, axis=0)
    for what, arr in (("mean", null_mean), ("std", null_std)):
        if not np.isfinite(arr).all():
            raise ConfigError(f"the null {what} is not finite")
    if not np.isfinite([band_lo, band_hi]).all():
        raise ConfigError("the null bands are not finite at "
                         f"band_sigmas={spec.band_sigmas:g}")
    above = observed > band_hi
    below = observed < band_lo
    return SignificanceReport(
        statistic_name=name, pair=pair, times=times, observed=observed,
        null_mean=null_mean, null_std=null_std, band_lo=band_lo, band_hi=band_hi,
        significant_mask=above | below,
        runs=_significant_runs(times, above, below, spec.min_run_length),
        **asdict(spec),  # replicates, seed, band_sigmas, band_mode, min_run_length
    )


def _significant_runs(times: np.ndarray, above: np.ndarray, below: np.ndarray,
                      min_run_length: int) -> Tuple[Run, ...]:
    """Maximal constant-sign excursions of length >= min_run_length."""
    sign = np.zeros(times.size, dtype=int)
    sign[above] = 1
    sign[below] = -1
    cuts = np.flatnonzero(np.diff(sign)) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [sign.size]])
    return tuple(
        Run(float(times[s]), float(times[e - 1]), int(sign[s]))
        for s, e in zip(starts, ends)
        if e - s >= min_run_length and sign[s] != 0
    )

