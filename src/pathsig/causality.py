"""Sliding-window lead-lag pipelines, shuffle null models, and baselines.

The core procedure: slide a window along the series, compute the signed
area (or the signature-derivative influence stream) per window, then
calibrate pointwise significance bands by re-running the identical pipeline
on per-channel time-shuffled copies of the raw data, a batch of copies per
run. Each window value is a difference of one prefix sum over the samples
(of the cross terms for the area, of the stream integral for influence), so
a window costs O(1) on uniform and non-uniform grids alike.
Cross-correlation and a VAR-based Granger measure are provided as the
classical baselines the signed-area statistic is contrasted against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._pcg64 import generators, mix_seed
from .path_core import MAX_COEFFICIENTS, Path, PreprocessConfig, one_path
from .path_core import preprocess
from .signature import signature_derivative
from .signature import signature_derivative_integral

__all__ = [
    "WindowSpec",
    "NullModelSpec",
    "Run",
    "SignificanceReport",
    "sliding_signed_area",
    "sliding_signature_derivative",
    "shuffle_channels",
    "mix_seed",
    "shuffle_null",
    "cross_correlation",
    "granger_var",
]

Statistic = Callable[[Path, Optional["WindowSpec"]], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window: length and stride, both in the path's time units."""

    length: float
    stride: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("window length must be > 0")
        if self.stride <= 0:
            raise ValueError("window stride must be > 0")
        for name, value in (("length", self.length), ("stride", self.stride)):
            if not math.isfinite(value):
                raise ValueError(f"window {name} must be finite, got {value}")


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
        if self.replicates < 2:
            raise ValueError("null model needs at least 2 replicates")
        if self.band_sigmas <= 0:
            raise ValueError("band_sigmas must be > 0")
        if not math.isfinite(self.band_sigmas):
            raise ValueError(f"band_sigmas must be finite, got {self.band_sigmas}")
        if self.min_run_length < 1:
            raise ValueError("min_run_length must be >= 1")
        if self.band_mode not in ("gaussian", "quantile"):
            raise ValueError(
                f"band_mode must be 'gaussian' or 'quantile', got {self.band_mode!r}"
            )


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
                raise ValueError(f"{name} must have shape ({n},)")

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


# -- window machinery --------------------------------------------------------


def _uniform_dt(a: Path) -> Optional[float]:
    if a.n_samples < 2:
        return None
    return float(a.times[1] - a.times[0]) if a.is_uniform() else None


def _index_windows(a: Path, dt: float, w: WindowSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Sample-aligned windows on a uniform grid.

    Window length snaps to round(length/dt) segments and each start on the
    stride grid snaps to its nearest sample. Returns (start, end) sample
    index arrays; end - start is constant. A stride under dt/2 puts a grid
    point strictly inside every sample's rounding cell, so every sample
    starts a window and the grid is not built.
    """
    n_seg = np.rint(w.length / dt)  # a float, so that a huge ratio is inf
    if n_seg < 1:
        raise ValueError("window is shorter than the sample spacing")
    if n_seg > a.n_samples - 1:
        raise ValueError("window is longer than the series")
    n_seg = int(n_seg)
    last_start = a.n_samples - 1 - n_seg
    if w.stride < 0.5 * dt:
        k1 = np.arange(last_start + 1)
        return k1, k1 + n_seg
    m = np.arange(int(np.floor(last_start * dt / w.stride + 1e-9)) + 2)
    with np.errstate(over="ignore"):  # inf past the end is dropped below
        k1 = np.rint(m * w.stride / dt)
    k1 = np.unique(k1[k1 <= last_start]).astype(int)
    return k1, k1 + n_seg


def _from_zero(x: np.ndarray) -> np.ndarray:
    """x with a 0 prepended along its last axis: a prefix sum's origin."""
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)


def _interp(t: np.ndarray, grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.interp(t, grid, x) for x of shape (..., T).

    np.interp takes one 1-d curve, so a batch runs it row by row; the
    rows keep np.interp's bytes.
    """
    rows = [np.interp(t, grid, row) for row in x.reshape(-1, x.shape[-1])]
    return np.reshape(rows, x.shape[:-1] + t.shape)


def _time_windows(a: Path, w: WindowSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Window (start, end) time arrays on the stride grid, ends clipped."""
    t_end = float(a.times[-1])
    tol = 1e-9 * max(1.0, a.duration)
    count = (a.duration + tol - w.length) / w.stride + 1
    if count > MAX_COEFFICIENTS:
        raise ValueError(
            f"stride {w.stride:g} gives {count:.3g} windows, "
            f"over the cap of {MAX_COEFFICIENTS}"
        )
    ws = float(a.times[0]) + np.arange(int(max(count, 0.0)) + 1) * w.stride
    we = ws + w.length
    keep = we <= t_end + tol
    if not keep.any():
        raise ValueError("window is longer than the series")
    return ws[keep], np.minimum(we[keep], t_end)


def _curve(name: str, pair: Optional[Tuple[int, int]], times, values):
    """A statistic's (times, values), once every one of them is finite."""
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        of = f" of pair {pair[0]},{pair[1]}" if pair is not None else ""
        raise ValueError(f"the {name} curve{of} is not finite")
    return times, values


@np.errstate(over="ignore", invalid="ignore")
def sliding_signed_area(
    a: Path, pair: Tuple[int, int], w: WindowSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Signed area of (i, j) over each sliding window, about the window start.

    Windows start on the stride grid and are stamped at their centers. On a
    uniform grid both length and starts snap to the sample grid; otherwise
    the window runs between boundary vertices interpolated at its exact
    start and end times. Either way each window costs O(1) from one prefix
    sum of the samples' cross terms x dy - y dx. Raises ValueError("the
    signed_area curve of pair i,j is not finite") past float64, with no
    numpy warning first.
    """
    i, j = pair
    x = a.channel(i)
    y = a.channel(j)
    dx = np.diff(x)
    dy = np.diff(y)
    cross = _from_zero(np.cumsum(x[..., :-1] * dy - y[..., :-1] * dx, axis=-1))
    dt = _uniform_dt(a)
    if dt is not None:
        lo, hi = _index_windows(a, dt, w)
        ts, te = a.times[lo], a.times[hi]
        xs, ys, xe, ye = x[..., lo], y[..., lo], x[..., hi], y[..., hi]
        core = cross[..., hi] - cross[..., lo]
    else:
        ts, te = _time_windows(a, w)
        # samples lo..hi lie strictly inside (hi < lo if none does, also for
        # a start past t_end); the start vertex sits on the segment ending
        # at lo, the end vertex on the one starting at hi
        lo = np.searchsorted(a.times[:-1], ts, side="right")
        hi = np.searchsorted(a.times, te, side="left") - 1
        xs, ys = _interp(ts, a.times, x), _interp(ts, a.times, y)
        xe, ye = _interp(te, a.times, x), _interp(te, a.times, y)
        core = (cross[..., hi] - cross[..., lo] + xs * y[..., lo]
                - ys * x[..., lo] + x[..., hi] * ye - y[..., hi] * xe)
    areas = 0.5 * (core - xs * (ye - ys) + ys * (xe - xs))
    # exactly 0 for a window inside one segment: rounding noise there would
    # be judged against null bands that are exactly 0 too
    return _curve("signed_area", pair, 0.5 * (ts + te), np.where(hi < lo, 0.0, areas))


@np.errstate(over="ignore", invalid="ignore")
def sliding_signature_derivative(
    a: Path, pair: Tuple[int, int], w: Optional[WindowSpec] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Influence stream gamma_i * gamma_j', pointwise or window-averaged.

    With w = None this is exactly signature_derivative. Otherwise each
    window's value is the segment-width-weighted mean of the stream over
    the segments inside the window (on non-uniform grids, segments lying
    entirely inside), stamped at the center of those segments. Window sums
    are differences of the stream integral signature_derivative_integral.
    Raises ValueError naming the pair, with no numpy warning first, when
    either curve is not finite.
    """
    i, j = pair
    # the faults signature_derivative names (one sample, a bad channel) come
    # before a window's, and the windows before the integral, which can warn
    if w is None or a.n_samples < 2:
        return _curve("signature_derivative", pair, *signature_derivative(a, i, j))
    a.channel(i), a.channel(j)
    dt = _uniform_dt(a)
    if dt is not None:
        k1, k2 = _index_windows(a, dt, w)
    else:
        ws, we = _time_windows(a, w)
        k1 = np.searchsorted(a.times, ws, side="left")
        k2 = np.searchsorted(a.times, we, side="right") - 1
        keep = k2 > k1
        k1, k2 = k1[keep], k2[keep]
        if k1.size == 0:
            raise ValueError("no window contains a full segment")
    _, integral = signature_derivative_integral(a, i, j)
    weighted = _from_zero(integral)
    span = _from_zero(np.cumsum(np.diff(a.times)))
    values = (weighted[..., k2] - weighted[..., k1]) / (span[k2] - span[k1])
    centers = 0.5 * (a.times[k1] + a.times[k2])
    return _curve("signature_derivative", pair, centers, values)


# -- shuffle null model -------------------------------------------------------

#: float64 values in one chunk of shuffled replicates (14 replicates of
#: c09's 1500 x 3 samples); bounds the null model's working set
_CHUNK_VALUES = 1 << 16


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


def _columns(values: np.ndarray, src) -> np.ndarray:
    """A (..., T, len(src)) array whose column k is column src[k] of
    values, or 0 where src[k] is None. It fills one column at a time:
    numpy copies a strided block of a few columns several times slower,
    and np.zeros (calloc) raised lorenz-sig's peak RSS by ~0.4 MB."""
    out = np.empty(values.shape[:-1] + (len(src),))
    for k, c in enumerate(src):
        out[..., k] = 0.0 if c is None else values[..., c]
    return out


@one_path
def shuffle_channels(a: Path, derived_seed: int) -> Path:
    """Independently permute each channel's samples (Fisher-Yates).

    Destroys temporal structure while preserving each channel's value
    multiset; the time grid is untouched.
    """
    rng = np.random.Generator(np.random.PCG64(derived_seed))
    return a.with_values(rng.permuted(a.values, axis=0))


@one_path
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
    shuffle_channels does; one reused generator takes each replicate's
    state, derived for many replicates in one vectorised pass. Curves are
    reduced with numpy's pairwise mean/std, so the report is a pure
    function of (input, spec) regardless of execution schedule.

    Replicates run in chunks of about _CHUNK_VALUES float64 values, each
    chunk as one batched Path through the pipeline. So the statistic must broadcast:
    given a batch of R paths it returns (times, values) with values of
    shape (R, W), row r being what one path would give. A statistic that
    returns another shape raises "statistic changed length under
    shuffling". Raises ValueError when an observed time or value overflows
    float64 (naming pair, if given), or names the first of the null's mean,
    std and bands that does.
    A replicate can fail where the observed series does not: its centering
    mean is a float sum in shuffled order, and its curve can overflow where
    the statistic checks its own. That error is raised prefixed with "a
    shuffled replicate failed: ".

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
            held = reads

    def pipeline(p: Path) -> Tuple[np.ndarray, np.ndarray]:
        if preprocess_cfg is not None:
            p = preprocess(p, preprocess_cfg)
        if len(reads) < n:  # p holds all n channels, or only those of reads
            at = dict(zip(reads, reads if p.n_channels == n else range(n)))
            p = Path(p.times, _columns(p.values, [at.get(c) for c in range(n)]),
                     a.channel_names)
        return statistic(p, w)

    with np.errstate(over="ignore", invalid="ignore"):
        times, observed = _curve(statistic_name, pair, *pipeline(a))
        if spec.replicates * observed.size > MAX_COEFFICIENTS:
            raise ValueError(
                f"{spec.replicates} replicates x {observed.size} windows is "
                f"over the cap of {MAX_COEFFICIENTS}"
            )
        curves = np.empty((spec.replicates, observed.size))
        chunk = max(1, _CHUNK_VALUES // a.values.size)
        rngs = generators(mix_seed(spec.seed, r) for r in range(spec.replicates))
        rows = np.ascontiguousarray(a.values[:, :held[-1] + 1].T)
        names = [a.channel_names[c] for c in held]
        for r0 in range(0, spec.replicates, chunk):
            r1 = min(r0 + chunk, spec.replicates)
            try:
                _, batch = pipeline(Path(a.times, _columns(
                    _permuted(rows.T, rngs, r1 - r0), held), names))
            except ValueError as e:
                raise ValueError(f"a shuffled replicate failed: {e}") from e
            if np.shape(batch) != (r1 - r0, observed.size):
                raise ValueError("statistic changed length under shuffling")
            curves[r0:r1] = batch
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
            raise ValueError(f"the null {what} is not finite")
    if not np.isfinite([band_lo, band_hi]).all():
        raise ValueError(
            f"the null bands are not finite at band_sigmas={spec.band_sigmas:g}"
        )
    above = observed > band_hi
    below = observed < band_lo
    return SignificanceReport(
        statistic_name=statistic_name,
        pair=pair,
        times=times,
        observed=observed,
        null_mean=null_mean,
        null_std=null_std,
        band_lo=band_lo,
        band_hi=band_hi,
        significant_mask=above | below,
        runs=_significant_runs(times, above, below, spec.min_run_length),
        replicates=spec.replicates,
        seed=spec.seed,
        band_sigmas=spec.band_sigmas,
        band_mode=spec.band_mode,
        min_run_length=spec.min_run_length,
    )


def _significant_runs(
    times: np.ndarray,
    above: np.ndarray,
    below: np.ndarray,
    min_run_length: int,
) -> Tuple[Run, ...]:
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


# -- classical baselines ------------------------------------------------------


@one_path
@np.errstate(over="ignore", invalid="ignore")
def cross_correlation(
    a: Path, pair: Tuple[int, int], max_lag: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Unbiased cross-correlation r(t_d) of channels (i, j) over lags.

    Discretization of r(t_d) = 1/(T - t_d) * integral gamma_i(t)
    gamma_j(t - t_d) dt with zero padding outside the domain: the sum over
    the overlap divided by the overlap sample count (so lag 0 with i = j is
    exactly the mean of gamma_i^2, and negative lags are treated
    symmetrically). A positive peak lag means channel j leads channel i by
    that much. Requires uniform sampling and |max_lag| < duration. Raises
    ValueError("the xcorr curve of pair i,j is not finite") past float64,
    with no numpy warning first.
    """
    i, j = pair
    x = a.channel(i)
    y = a.channel(j)
    dt = _uniform_dt(a)
    if dt is None:
        raise ValueError("cross_correlation requires a uniform time grid")
    if not 0 < max_lag < a.duration:
        raise ValueError("max_lag must lie in (0, duration)")
    t = x.size
    d_max = int(np.floor(max_lag / dt + 1e-9))
    lags = np.arange(-d_max, d_max + 1)
    r = np.empty(lags.size)
    for pos, d in enumerate(lags):
        xs, ys = (x[d:], y[: t - d]) if d >= 0 else (x[: t + d], y[-d:])
        r[pos] = float(np.dot(xs, ys)) / (t - abs(d))
    return _curve("xcorr", pair, lags * dt, r)


@one_path
def granger_var(
    a: Path, caused: int, covariates: Sequence[int], order: int
) -> float:
    """Granger measure C = ln(var restricted / var full) for one channel.

    Fits two VAR(order) models by OLS with intercept and compares the
    caused channel's residual variances: the full model regresses on lags
    of every channel, the restricted one only on lags of the caused channel
    and the given covariates. Large C means the omitted channels carry
    predictive information about the caused channel. Raises ValueError
    when the full model's design matrix, (T - order) x (N*order + 1),
    holds more than MAX_COEFFICIENTS cells.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if _uniform_dt(a) is None:
        raise ValueError("granger_var requires a uniform time grid")
    n = a.n_channels
    a.channel(caused)
    restricted = sorted({caused} | {int(c) for c in covariates})
    for c in restricted:
        a.channel(c)
    if len(restricted) == n:
        raise ValueError("covariates span all channels; no candidate cause left")
    if a.n_samples <= n * order + 5:
        raise ValueError(
            f"need more than {n * order + 5} samples for order {order}, "
            f"got {a.n_samples}"
        )
    cells = (a.n_samples - order) * (n * order + 1)
    if cells > MAX_COEFFICIENTS:
        raise ValueError(
            f"order {order} needs a design matrix of {cells} cells, "
            f"over the cap of {MAX_COEFFICIENTS}"
        )
    var_full = _residual_variance(a.values, list(range(1, n + 1)), caused, order)
    var_restricted = _residual_variance(a.values, restricted, caused, order)
    if var_full == 0.0:
        return 0.0 if var_restricted == 0.0 else math.inf
    return float(np.log(var_restricted / var_full))


def _residual_variance(
    values: np.ndarray, channels: Sequence[int], caused: int, order: int
) -> float:
    t = values.shape[0]
    cols = [c - 1 for c in channels]
    blocks = [np.ones((t - order, 1))]
    for k in range(1, order + 1):
        blocks.append(values[order - k : t - k][:, cols])
    design = np.hstack(blocks)
    target = values[order:, caused - 1]
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("singular design matrix in VAR fit")
    resid = target - design @ beta
    return float(np.var(resid))
