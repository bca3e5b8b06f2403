"""Sliding-window lead-lag statistics, their shuffle null, and baselines.

The core procedure: slide a window along the series, compute the signed
area (or the signature-derivative influence stream) per window, then
calibrate pointwise significance bands by re-running the identical pipeline
on per-channel time-shuffled copies of the raw data, a batch of copies per
run (pathsig._null, re-exported here). Each window value is a difference of
one prefix sum over the samples (of the cross terms for the area, of the
stream integral for influence), so a window costs O(1) on uniform and
non-uniform grids alike. Cross-correlation and a VAR-based Granger measure
are the classical baselines the signed-area statistic is contrasted with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._null import NullModelSpec, Run, SignificanceReport, _curve
from ._null import shuffle_channels, shuffle_null
from ._pcg64 import mix_seed
from .path_core import (MAX_COEFFICIENTS, ConfigError, DataError, Path, _check,
                        _uniform_dt, one_path)
from .signature import signature_derivative, signature_derivative_integral

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


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window: length and stride, both in the path's time units."""

    length: float
    stride: float

    def __post_init__(self) -> None:
        _check("window length", self.length, 0, strict=True)
        _check("window stride", self.stride, 0, strict=True)


# -- window machinery --------------------------------------------------------


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
        raise DataError("window is shorter than the sample spacing")
    if n_seg > a.n_samples - 1:
        raise DataError("window is longer than the series")
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
        raise ConfigError(f"stride {w.stride:g} gives {count:.3g} windows, "
                          f"over the cap of {MAX_COEFFICIENTS}")
    ws = float(a.times[0]) + np.arange(int(max(count, 0.0)) + 1) * w.stride
    we = ws + w.length
    keep = we <= t_end + tol
    if not keep.any():
        raise DataError("window is longer than the series")
    return ws[keep], np.minimum(we[keep], t_end)


@np.errstate(over="ignore", invalid="ignore")
def sliding_signed_area(
    a: Path, pair: Tuple[int, int], w: WindowSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Signed area of (i, j) over each sliding window, about the window start.

    Windows start on the stride grid and are stamped at their centers. On a
    uniform grid both length and starts snap to the sample grid; otherwise
    the window runs between boundary vertices interpolated at its exact
    start and end times. Either way each window costs O(1) from one prefix
    sum of the samples' cross terms x dy - y dx. Raises ConfigError("the
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
    Raises ConfigError naming the pair, with no numpy warning first, when
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
            raise DataError("no window contains a full segment")
    _, integral = signature_derivative_integral(a, i, j)
    weighted = _from_zero(integral)
    span = _from_zero(np.cumsum(np.diff(a.times)))
    values = (weighted[..., k2] - weighted[..., k1]) / (span[k2] - span[k1])
    centers = 0.5 * (a.times[k1] + a.times[k2])
    return _curve("signature_derivative", pair, centers, values)


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
    that much. Requires uniform sampling and 0 < max_lag < duration. Raises
    ConfigError("the xcorr curve of pair i,j is not finite") past float64,
    with no numpy warning first.
    """
    i, j = pair
    x = a.channel(i)
    y = a.channel(j)
    dt = _uniform_dt(a)
    if dt is None:
        raise DataError("cross_correlation requires a uniform time grid")
    _check("max_lag", max_lag, 0, strict=True)
    if max_lag >= a.duration:
        raise DataError(f"max_lag {max_lag:g} is not under the series "
                        f"duration {a.duration:g}")
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
    predictive information about the caused channel. Raises ConfigError
    when the full model's design matrix, (T - order) x (N*order + 1),
    holds more than MAX_COEFFICIENTS cells.
    """
    _check("order", order, 1)
    if _uniform_dt(a) is None:
        raise DataError("granger_var requires a uniform time grid")
    n = a.n_channels
    a.channel(caused)
    restricted = sorted({caused} | {int(c) for c in covariates})
    for c in restricted:
        a.channel(c)
    if len(restricted) == n:
        raise DataError("covariates span all channels; no candidate cause left")
    if a.n_samples <= n * order + 5:
        raise DataError(f"need more than {n * order + 5} samples for order "
                        f"{order}, got {a.n_samples}")
    cells = (a.n_samples - order) * (n * order + 1)
    if cells > MAX_COEFFICIENTS:
        raise ConfigError(f"order {order} needs a design matrix of {cells} "
                          f"cells, over the cap of {MAX_COEFFICIENTS}")
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
        raise DataError("singular design matrix in VAR fit")
    resid = target - design @ beta
    return float(np.var(resid))
