"""Deterministic generators: Lorenz trajectories and synthetic lead-lag data.

Everything here is a pure function of (parameters, seed) and reproduces bit
for bit. The Lorenz system is integrated with fixed-step classical RK4
rather than an adaptive solver: reproducibility across platforms matters
more than step-size finesse for a qualitative analysis target.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .path_core import MAX_COEFFICIENTS, ConfigError, DataError, Path, _check

__all__ = [
    "IntegrationError",
    "LorenzParams",
    "lorenz",
    "cyclic_pair",
    "Event",
    "default_three_channel_events",
    "three_channel_event_series",
]


class IntegrationError(ConfigError, RuntimeError):
    """The ODE state left the finite range: a bad step size or start."""


@dataclass(frozen=True)
class LorenzParams:
    """Classic chaotic regime by default: sigma=10, rho=28, beta=8/3."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    x0: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    dt: float = 0.005
    steps: int = 10000

    def __post_init__(self) -> None:
        for name in ("sigma", "rho", "beta"):
            _check(name, getattr(self, name))
        for value in self.x0:
            _check("x0", value)
        _check("dt", self.dt, 0, strict=True)
        _check("steps", self.steps, 1)
        _check("steps x dt", self.steps * self.dt)  # the last sample's time
        if self.steps >= MAX_COEFFICIENTS:
            raise ConfigError(f"{self.steps} steps give {self.steps + 1} samples, "
                              f"over the cap of {MAX_COEFFICIENTS}")


def _check_samples(samples: int) -> None:
    """A generated series has 16 to MAX_COEFFICIENTS rows; the cap is
    checked before anything is allocated."""
    _check("samples", samples, 16)
    if samples > MAX_COEFFICIENTS:
        raise ConfigError(f"{samples} samples is over the cap of {MAX_COEFFICIENTS}")


#: RK4 steps between two checks that the state is finite
_BLOCK_STEPS = 4096


def lorenz(params: LorenzParams = LorenzParams()) -> Path:
    """Integrate x' = sigma(y-x), y' = x(rho-z) - y, z' = xy - beta z.

    Classical fixed-step RK4 from params.x0; returns the (steps + 1)-sample
    3-channel path on the uniform grid k * dt. The stepper runs on Python
    floats, which are IEEE doubles like numpy's float64, and evaluates every
    stage, written out in the loop body to save a call per stage, in the
    same order as the elementwise array form
    s + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), so trajectories are bit
    identical to that form. Rows are appended to a flat double buffer that
    the returned path wraps without a copy. Divergence to a non-finite
    state raises IntegrationError naming the step. The state is checked
    once per block of _BLOCK_STEPS steps: each coordinate is updated as
    x = x + ..., so once non-finite it stays so, and a block that ends
    non-finite is scanned for its first non-finite row, the step a check
    after every step would name.
    """
    p = params
    sigma, rho, beta = float(p.sigma), float(p.rho), float(p.beta)
    dt = float(p.dt)
    half, sixth = 0.5 * dt, dt / 6.0

    x, y, z = (float(v) for v in p.x0)
    out = array("d", (x, y, z))
    append = out.append
    finite = math.isfinite
    for start in range(1, p.steps + 1, _BLOCK_STEPS):
        for _ in range(min(_BLOCK_STEPS, p.steps + 1 - start)):
            a1, b1, c1 = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
            u, v, w = x + half * a1, y + half * b1, z + half * c1
            a2, b2, c2 = sigma * (v - u), u * (rho - w) - v, u * v - beta * w
            u, v, w = x + half * a2, y + half * b2, z + half * c2
            a3, b3, c3 = sigma * (v - u), u * (rho - w) - v, u * v - beta * w
            u, v, w = x + dt * a3, y + dt * b3, z + dt * c3
            a4, b4, c4 = sigma * (v - u), u * (rho - w) - v, u * v - beta * w
            x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            append(x)
            append(y)
            append(z)
        if not (finite(x) and finite(y) and finite(z)):
            rows = np.frombuffer(out).reshape(-1, 3)[start:]
            k = start + int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise IntegrationError(f"non-finite state at step {k}")
    times = np.arange(p.steps + 1) * p.dt
    return Path(times, np.frombuffer(out).reshape(-1, 3), ("x", "y", "z"))


@dataclass(frozen=True)
class Event:
    """One localized lead-lag event: leader bumps, follower repeats later.

    time is the leader bump center on the unit interval; lag and width are
    in the same units. Overlapping events are permitted and simply add.
    Channels are integers, every field finite, width positive.
    """

    time: float
    leader: int
    follower: int
    lag: float = 0.02
    width: float = 0.03
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            types = int if f.name in ("leader", "follower") else (int, float)
            if isinstance(value, bool) or not isinstance(value, types):
                kind = "an integer" if types is int else "a number"
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            try:
                float(value)
            except OverflowError:  # an int past the float range
                raise ConfigError(f"{f.name} is too large") from None
            _check(f.name, value)
        _check("width", self.width, 0, strict=True)


def _check_noise(noise_sigma: float, seed: int) -> None:
    _check("noise_sigma", noise_sigma, 0)
    if noise_sigma > 0 and seed < 0:
        raise ConfigError(f"seed must be >= 0 when noise_sigma > 0, got {seed}")


def _noisy(values: np.ndarray, noise_sigma: float, seed: int) -> np.ndarray:
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
        if not np.isfinite(values).all():
            raise ConfigError(f"the noise is not finite at noise_sigma={noise_sigma:g}")
    return values


@np.errstate(over="ignore", invalid="ignore")
def _bump_train(u: np.ndarray, centres: np.ndarray, width: float,
                amplitude: float, out: np.ndarray) -> None:
    """Add into out, at positions u, amplitude times the raised-cosine bumps
    of one width at increasing centres whose supports do not overlap; a bump
    adds exactly +-0.0 outside its support, so only the samples around it
    are evaluated. Unwarned, an infinite (u - c) / w reads 0, a sum inf."""
    # the support widened by more than the rounding of (u - c) / w and of
    # the bounds, so that every sample past it is outside
    pad = 1e-15 * (np.abs(centres) + width)
    lo = np.searchsorted(u, centres - width - pad)
    counts = np.searchsorted(u, centres + width + pad) - lo
    # the sample index of each gathered entry, bump after bump; in place,
    # since the heap keeps the peak of these temporaries
    rows = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    rows += np.arange(rows.size)
    rel = u[rows]
    rel -= np.repeat(centres, counts)
    rel /= width
    bump = np.pi * rel
    np.cos(bump, out=bump)
    bump += 1.0
    bump *= 0.5
    bump[np.abs(rel) > 1.0] = 0.0
    bump *= amplitude
    out[rows] += bump


def cyclic_pair(
    n_events: int = 4,
    phase_lag: float = 0.25,
    warp: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    samples: int = 2000,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> Path:
    """Two channels of periodic unit bumps with channel 2 lagging channel 1.

    Events sit at (k + 1/2) / n_events on the unit interval; channel 2's
    bumps trail by phase_lag event periods, so channel 1 leads for positive
    lags (positive signed area A^(1,2)). An optional strictly increasing
    warp of [0, 1] resamples the same underlying curve at warped positions,
    producing a pure reparametrization of the unwarped series. Noise is
    additive Gaussian, seeded.
    """
    _check_samples(samples)
    _check("n_events", n_events, 1)
    if n_events > samples:
        raise ConfigError(f"n_events {n_events} is more than samples {samples}")
    if not 0 <= abs(phase_lag) < 1:
        raise ConfigError("phase_lag must lie in (-1, 1)")
    period = 1.0 / n_events
    t = np.linspace(0.0, 1.0, samples)
    if warp is not None:
        u = np.asarray(warp(t), dtype=float)
        if u.shape != t.shape or not np.all(np.diff(u) > 0):
            raise ConfigError("warp must be strictly increasing on [0, 1]")
    else:
        u = t
    _check_noise(noise_sigma, seed)
    # a bump's support is half a period wide, so a channel's never overlap
    centres = (np.arange(n_events) + 0.5) * period
    values = np.zeros((samples, 2))
    _bump_train(u, centres, period / 4, 1.0, values[:, 0])
    _bump_train(u, centres + phase_lag * period, period / 4, 1.0, values[:, 1])
    return Path(t, _noisy(values, noise_sigma, seed), ("y1", "y2"))


def three_channel_event_series(
    events: Sequence[Event],
    samples: int = 2000,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> Path:
    """Three channels on [0, 1] with raised-cosine lead-lag events.

    Each event adds a bump of the given width to its leader channel at
    event.time and to its follower channel at event.time + event.lag, on a
    seeded Gaussian noise baseline, in event order. Channels not named by
    any event stay pure noise; bumps that sum past float64 raise DataError.
    """
    _check_samples(samples)
    t = np.linspace(0.0, 1.0, samples)
    _check_noise(noise_sigma, seed)
    values = np.zeros((samples, 3))
    for ev in events:
        if not 0.0 <= ev.time <= 1.0:
            raise DataError(f"event time {ev.time} outside [0, 1]")
        for ch, c in ((ev.leader, ev.time), (ev.follower, ev.time + ev.lag)):
            if not 1 <= ch <= 3:
                raise DataError(f"event channel {ch} outside [1, 3]")
            _bump_train(t, np.array([c]), ev.width, ev.amplitude, values[:, ch - 1])
    if not np.isfinite(values).all():
        raise DataError("the events' bumps sum past float64")
    return Path(t, _noisy(values, noise_sigma, seed), ("y1", "y2", "y3"))


def default_three_channel_events() -> Tuple[Event, Event]:
    """Stock scenario: channel 1 leads 2 early, channel 3 leads 2 late."""
    return (
        Event(time=0.25, leader=1, follower=2),
        Event(time=0.70, leader=3, follower=2),
    )
