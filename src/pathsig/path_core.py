"""Sampled multivariate paths and the path-level operations on them.

A Path is a piecewise-linear interpolant of T samples of an N-channel
series: strictly increasing times, a T x N value array, and channel names.
All downstream integrals (signatures, signed areas) are exact over the
linear segments, so concatenation, inversion and reduction here are exact
operations on vertex sequences.

The value array may carry leading batch axes, (..., T, N): a batch of paths
on one time grid, as the shuffle null model builds from its replicates.
Smoothing, preprocessing and the window statistics broadcast over them, row
for row the same bytes as one path at a time. Every other function takes
one path and refuses a batch (see one_path).

Every check in the package raises one of the two ValueErrors defined here:
DataError when the input cannot serve the request, ConfigError otherwise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "DataError",
    "ConfigError",
    "MAX_COEFFICIENTS",
    "Path",
    "PreprocessConfig",
    "concat",
    "inverse",
    "reduce_path",
    "one_variation",
    "reparametrize",
    "preprocess",
    "gaussian_smooth",
]

#: largest signature size sum_k N^k that signature() will allocate, and the
#: cap on every other array a request sizes: samples, windows, kernels
MAX_COEFFICIENTS = 1 << 21

#: relative tolerance for deciding a time grid is uniform
_UNIFORM_RTOL = 1e-8


class DataError(ValueError):
    """The input cannot serve the request: its own grid, length, channel
    count or values (the CLI's exit 3)."""


class ConfigError(ValueError):
    """The request is at fault: an option or argument, a combination of
    them, a size cap, a misused call, or a result past float64's range such
    as a diverging integration (the CLI's exit 5)."""


def _frozen(x, strided: bool = False) -> np.ndarray:
    """x as a read-only float64 view, sharing a C-contiguous float64's
    memory, or with strided any float64's, strides kept."""
    v = (np.asarray if strided else np.ascontiguousarray)(x, dtype=float).view()
    v.setflags(write=False)
    return v


def _check(name: str, value, low=None, strict: bool = False) -> None:
    """Raise ConfigError, naming the field and its value, unless value is
    finite and, given low, >= low (> low when strict). Compared, never
    converted, so an int past float64's range is checked exactly."""
    if not -math.inf < value < math.inf:
        raise ConfigError(f"{name} must be finite, got {value}")
    if low is not None and not (value > low if strict else value >= low):
        op = ">" if strict else ">="
        raise ConfigError(f"{name} must be {op} {low}, got {value}")


@dataclass(frozen=True)
class Path:
    """Timestamped N-channel polygonal path, or a batch of them.

    times: shape (T,), strictly increasing, arbitrary units.
    values: shape (T, N), row t is the path position at times[t]; or
    (..., T, N), a batch of paths that share times and channel names.
    channel_names: N labels; generated as c1..cN when omitted.
    Shape and finiteness are checked once for the whole batch (DataError).
    The arrays are read-only views, sharing memory with a C-contiguous
    float64 input; a batch shares a float64 input's memory in any layout
    and keeps its strides. So a channel of a channel-major batch, values
    viewing an (..., N, T) array, is a contiguous row of T samples.
    Given _grid (by keyword, private), a Path whose times object is times,
    the grid is taken as checked and its uniform step (_uniform_dt) is
    taken over, as each Path the shuffle null makes of a chunk does.
    """

    times: np.ndarray
    values: np.ndarray
    channel_names: Tuple[str, ...] = ()
    _: KW_ONLY
    _grid: InitVar[Optional["Path"]] = None

    def __post_init__(self, _grid: Optional["Path"]) -> None:
        checked = _grid is not None and self.times is _grid.times
        t = self.times if checked else _frozen(self.times)
        v = np.asarray(self.values, dtype=float)
        v = _frozen(v, strided=v.ndim > 2)
        if t.ndim != 1 or t.size < 1:
            raise DataError("times must be a 1-d array with at least one sample")
        if v.ndim < 2 or v.shape[-2] != t.size:
            raise DataError(f"values must be (..., T, N) with T={t.size}, "
                            f"got shape {v.shape}")
        if not (checked or np.all(np.isfinite(t))) or not np.all(np.isfinite(v)):
            raise DataError("times and values must be finite")
        # compared, not subtracted: a gap between finite times can overflow
        if not checked and t.size > 1 and not np.all(t[1:] > t[:-1]):
            raise DataError("times must be strictly increasing")
        if checked:
            object.__setattr__(self, "_dt", _uniform_dt(_grid))
        names = tuple(self.channel_names)
        if not names:
            names = tuple(f"c{k + 1}" for k in range(v.shape[-1]))
        if len(names) != v.shape[-1]:
            raise DataError(f"{len(names)} channel names for {v.shape[-1]} channels")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_channels(self) -> int:
        return self.values.shape[-1]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def channel(self, i: int) -> np.ndarray:
        """Values of 1-based channel i (letters of signature words), with
        shape (..., T)."""
        if not 1 <= i <= self.n_channels:
            raise DataError(f"channel {i} outside [1, {self.n_channels}]")
        return self.values[..., i - 1]

    def is_uniform(self) -> bool:
        """True when the time grid is uniform to relative tolerance 1e-8.
        A gap that overflows float64 makes the grid not uniform."""
        if self.n_samples < 3:
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(self.times)
            return bool(np.max(np.abs(dt - dt[0])) <= _UNIFORM_RTOL * abs(dt[0]))

    def with_values(self, values: np.ndarray) -> "Path":
        return Path(self.times, values, self.channel_names, _grid=self)


def _uniform_dt(a: Path) -> Optional[float]:
    """a's uniform time step; None for one sample or a non-uniform grid.
    Worked out once per grid, and kept on the Path."""
    if "_dt" not in a.__dict__:
        dt = None
        if a.n_samples > 1 and a.is_uniform():
            dt = float(a.times[1] - a.times[0])
        object.__setattr__(a, "_dt", dt)
    return a.__dict__["_dt"]


def one_path(fn: Callable) -> Callable:
    """Decorate a function that takes one path, not a batch: it raises
    ConfigError when any Path argument carries batch axes."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        for arg in (*args, *kwargs.values()):
            if isinstance(arg, Path) and arg.values.ndim > 2:
                raise ConfigError(f"{fn.__name__} takes one path, not a batch of "
                                  f"values of shape {arg.values.shape}")
        return fn(*args, **kwargs)

    return checked


@dataclass(frozen=True)
class PreprocessConfig:
    """Preprocessing recipe; defaults are the identity (all steps off).

    normalize: "per" rescales each channel to range sup-inf = 1, "global"
    divides every channel by the largest channel range, "none" leaves scales
    alone. The steps run in the fixed order smoothing -> centering ->
    normalization -> origin prepend.
    """

    smooth_sigma: float = 0.0
    center: bool = False
    normalize: str = "none"
    prepend_zero: bool = False

    def __post_init__(self) -> None:
        _check("smooth_sigma", self.smooth_sigma, 0)
        if self.normalize not in ("per", "global", "none"):
            raise ConfigError("normalize must be 'per', 'global' or 'none', "
                              f"got {self.normalize!r}")


@one_path
@np.errstate(over="ignore", invalid="ignore")
def concat(a: Path, b: Path) -> Path:
    """Concatenate two paths, translating b so its start meets a's end.

    b's time axis is shifted to continue a's; the duplicate junction sample
    is merged away. A time or value past float64 is the Path's DataError.
    """
    if a.n_channels != b.n_channels:
        raise DataError(f"channel-count mismatch: {a.n_channels} vs {b.n_channels}")
    if b.n_samples == 1:
        return a
    # offset first: when b already starts at a's end the shift is exactly
    # zero and b's increments survive bit for bit (x + 0.0 == x)
    offset = a.values[-1] - b.values[0]
    shifted_values = b.values[1:] + offset
    shifted_times = a.times[-1] + (b.times[1:] - b.times[0])
    return Path(
        np.concatenate([a.times, shifted_times]),
        np.vstack([a.values, shifted_values]),
        a.channel_names,
    )


@one_path
def inverse(a: Path) -> Path:
    """The path run backwards: values reversed, times negated and reversed.

    The increments of the result are exactly the reversed increments of the
    input, and inverse(inverse(a)) reproduces a bit for bit (IEEE negation
    is exact). The interval moves from [t0, tE] to [-tE, -t0], which is
    immaterial downstream by reparametrization invariance.
    """
    return Path(-a.times[::-1], a.values[::-1], a.channel_names)


def _exact_backtrack(d1: np.ndarray, d2: np.ndarray) -> bool:
    """True when segment d2 runs exactly opposite to d1 along the same ray."""
    if float(np.dot(d1, d2)) >= 0.0:
        return False
    # colinear exactly: every 2x2 cross term vanishes, and nan (overflow) does not
    return not np.any(np.outer(d1, d2) - np.outer(d2, d1))


@one_path
@np.errstate(over="ignore", invalid="ignore")
def reduce_path(a: Path) -> Path:
    """Cancel exact backtracks until the polygonal path is irreducible.

    Removes zero-displacement samples and any vertex pattern that retraces
    the previous segment along the same ray (fully, partially, or
    overshooting past its start). Only exact cancellations count: noisy
    near-backtracks are left alone. The surviving vertices keep their
    original timestamps.
    """
    out = [(a.times[0], a.values[0])]  # the (time, vertex) stack
    for t, w in zip(a.times[1:], a.values[1:]):
        # w is dropped at zero displacement, also after a full backtrack to u
        while not np.array_equal(w, out[-1][1]):
            if len(out) > 1:
                (_, u), (_, v) = out[-2:]
                d1, d2 = v - u, w - v
                if _exact_backtrack(d1, d2):
                    out.pop()
                    if float(np.dot(d2, d2)) >= float(np.dot(d1, d1)):
                        continue  # back at u or past it: re-examine w
            out.append((t, w))  # a turn, or w strictly between u and v
            break
    times, values = zip(*out)
    return Path(np.asarray(times), np.vstack(values), a.channel_names)


@one_path
@np.errstate(over="ignore")
def one_variation(a: Path) -> float:
    """Exact 1-variation of the interpolant: sum of segment norms. Raises
    ConfigError when it overflows float64."""
    if a.n_samples < 2:
        return 0.0
    total = float(np.sum(np.linalg.norm(np.diff(a.values, axis=0), axis=1)))
    _check("the 1-variation", total)
    return total


@one_path
def reparametrize(a: Path, warp: Callable[[np.ndarray], np.ndarray]) -> Path:
    """Replace times by warp(times); sample values are untouched.

    The warp must be strictly increasing on the sampled times. Used to
    exercise parametrization invariance.
    """
    new_times = np.asarray(warp(a.times), dtype=float)
    if new_times.shape != a.times.shape:
        raise ConfigError("warp must map the time grid to a grid of equal length")
    if not np.all(new_times[1:] > new_times[:-1]):
        raise ConfigError("warp must be strictly increasing on the time grid")
    return Path(new_times, a.values, a.channel_names)


def gaussian_smooth(a: Path, sigma: float) -> Path:
    """Convolve each channel (of each path in a batch) with a unit-sum
    Gaussian kernel.

    sigma is in time units; the kernel is truncated at +-3 sigma and
    renormalized, and channels are reflect-padded at the boundaries.
    Requires a uniform time grid. sigma = 0 is the identity. A kernel of
    more than MAX_COEFFICIENTS samples is refused before it is built.
    The result keeps the layout of a's rows, so a channel-major batch
    stays channel-major. Each row is padded by slicing into one reused
    buffer (by np.pad when the kernel reaches past the far end, where
    the reflection repeats) and correlated with the reversed kernel: the
    numpy loop np.convolve runs, so the bytes are np.convolve's.
    """
    _check("sigma", sigma, 0)
    if sigma == 0 or a.n_samples < 2:
        return a
    dt = _uniform_dt(a)
    if dt is None:
        raise DataError("gaussian_smooth requires a uniform time grid")
    radius = np.floor(3.0 * sigma / dt + 1e-12)
    if 2 * radius + 1 > MAX_COEFFICIENTS:
        raise ConfigError(f"a smoothing kernel of {2 * radius + 1:.3g} samples is "
                          f"over the cap of {MAX_COEFFICIENTS}")
    r = int(radius)
    if r == 0:
        return a
    offsets = np.arange(-r, r + 1) * dt
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    taps = kernel[::-1].copy()
    # one row per (path, channel), along time
    rows = np.swapaxes(a.values, -1, -2)
    out = np.empty_like(rows)
    if r >= a.n_samples - 1:
        rows = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(r, r)], mode="reflect")
    padded = np.empty(a.n_samples + 2 * r)
    for k in np.ndindex(rows.shape[:-1]):
        row = rows[k]
        if row.size < padded.size:
            padded[r:-r] = row
            padded[:r] = row[r:0:-1]
            padded[-r:] = row[-2:-2 - r:-1]
            row = padded
        out[k] = np.correlate(row, taps, "valid")
    return a.with_values(np.swapaxes(out, -1, -2))


@np.errstate(over="ignore", invalid="ignore")
def _step_past(times: np.ndarray, side: int, what: str) -> float:
    """The time one median step after the grid (side 1) or before it (-1);
    one sample steps by 1. Raises ConfigError naming what, past float64."""
    step = float(np.median(np.diff(times))) if times.size > 1 else 1.0
    past = times[-1 if side > 0 else 0] + side * step
    if not np.isfinite(past):
        raise ConfigError(f"cannot {what}: the time step overflows float64")
    return past


def preprocess(a: Path, cfg: PreprocessConfig) -> Path:
    """Apply the standard conditioning recipe in its fixed order.

    (1) Gaussian smoothing, (2) per-channel mean centering, (3) range
    normalization so sup - inf = 1 (per channel, or dividing all channels
    by the global maximum range), (4) prepending a zero sample one median
    time step before the first, so the path starts at the origin.
    A constant channel cannot be normalized; it is left unscaled with a
    warning. A channel whose mean, centered values or range overflow
    float64 raises ConfigError naming it. A batch is reduced over time path
    by path, one channel at a time, and comes back channel-major; the mean
    keeps the summation order of one path, which adds a column in time
    order when N > 1 (numpy sums a contiguous row pairwise).
    """
    if cfg.smooth_sigma > 0:
        a = gaussian_smooth(a, cfg.smooth_sigma)
    if not (cfg.center or cfg.normalize != "none" or cfg.prepend_zero):
        return a
    # the other steps fill one fresh array, behind the origin row if there
    # is one, so a batch costs a single copy of its values
    times = a.times
    if cfg.prepend_zero:
        origin = _step_past(times, -1, "prepend the origin sample")
        times = np.concatenate([[origin], times])
    n = a.n_channels
    batch = a.values.ndim > 2
    shape = (n, times.size) if batch else (times.size, n)
    values = np.zeros(a.values.shape[:-2] + shape)
    if batch:
        values = np.swapaxes(values, -1, -2)
    body = values[..., times.size - a.n_samples:, :]
    # one channel at a time: a channel of a batch is a row of T samples
    if cfg.center:
        with np.errstate(over="ignore", invalid="ignore"):
            if batch and n > 1:  # summed in time order, in place in body
                means = (0.0 + np.cumsum(a.values, axis=-2, out=body)[..., -1, :]
                         ) / a.n_samples
            else:
                means = a.values.mean(axis=-2)
            if not np.isfinite(means).all():
                c = np.argmin(np.isfinite(means).reshape(-1, n).all(axis=0))
                raise ConfigError(f"cannot center: the mean of channel "
                                 f"{a.channel_names[c]} is not finite")
            for c in range(n):
                np.subtract(a.values[..., c], means[..., c, None], out=body[..., c])
                if not np.isfinite(body[..., c]).all():
                    raise ConfigError(
                        f"cannot center: channel {a.channel_names[c]} overflows")
    else:
        body[...] = a.values
    if cfg.normalize != "none":
        ranges = np.empty(body.shape[:-2] + (n,))
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(n):
                ranges[..., c] = body[..., c].max(axis=-1) - body[..., c].min(axis=-1)
        if cfg.normalize == "global":
            ranges = np.broadcast_to(ranges.max(axis=-1, keepdims=True), ranges.shape)
        bad = ~np.isfinite(ranges).reshape(-1, ranges.shape[-1]).all(axis=0)
        if bad.any():
            what = "global range" if cfg.normalize == "global" else (
                f"range of channel {a.channel_names[np.argmax(bad)]}")
            raise ConfigError(f"cannot normalize: the {what} is not finite")
        flat = ranges == 0.0
        if flat.any():
            if cfg.normalize == "global":
                warnings.warn("all channels constant; global normalization skipped")
            else:
                names = [a.channel_names[k] for k in
                         np.nonzero(flat.reshape(-1, flat.shape[-1]).any(axis=0))[0]]
                warnings.warn(
                    f"constant channel(s) {names} left unscaled by normalization"
                )
        scale = np.where(flat, 1.0, ranges)
        for c in range(n):
            body[..., c] /= scale[..., c, None]
    return Path(times, values, a.channel_names, _grid=a)
