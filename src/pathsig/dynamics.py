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
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .path_core import MAX_COEFFICIENTS, Path

__all__ = [
    "IntegrationError",
    "LorenzParams",
    "lorenz",
    "cyclic_pair",
    "Event",
    "default_three_channel_events",
    "three_channel_event_series",
]


class IntegrationError(ValueError, RuntimeError):
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
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps >= MAX_COEFFICIENTS:
            raise ValueError(
                f"{self.steps} steps give {self.steps + 1} samples, over the "
                f"cap of {MAX_COEFFICIENTS}"
            )


def _check_samples(samples: int) -> None:
    """A generated series has 16 to MAX_COEFFICIENTS rows; the cap is
    checked before anything is allocated."""
    if samples < 16:
        raise ValueError("samples must be >= 16")
    if samples > MAX_COEFFICIENTS:
        raise ValueError(
            f"{samples} samples is over the cap of {MAX_COEFFICIENTS}"
        )


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
    state raises IntegrationError naming the step.
    """
    p = params
    sigma, rho, beta = float(p.sigma), float(p.rho), float(p.beta)
    dt = float(p.dt)
    half, sixth = 0.5 * dt, dt / 6.0

    x, y, z = (float(v) for v in p.x0)
    out = array("d", (x, y, z))
    finite = math.isfinite
    for k in range(1, p.steps + 1):
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
        if not (finite(x) and finite(y) and finite(z)):
            raise IntegrationError(f"non-finite state at step {k}")
        out.extend((x, y, z))
    times = np.arange(p.steps + 1) * p.dt
    return Path(times, np.frombuffer(out).reshape(-1, 3), ("x", "y", "z"))


@dataclass(frozen=True)
class Event:
    """One localized lead-lag event: leader bumps, follower repeats later.

    time is the leader bump center on the unit interval; lag and width are
    in the same units. Overlapping events are permitted and simply add.
    Channels are integers, lag, width and amplitude finite, width positive.
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
                raise ValueError(f"{f.name} is too large") from None
        for name in ("lag", "width", "amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")


def _bumps(u: np.ndarray, events: Iterable[Event], channels: int,
           noise_sigma: float, seed: int) -> np.ndarray:
    """The events' bumps at positions u, added in event order, plus noise.
    A bump adds exactly +-0.0 outside its support, so only the samples
    around the support are evaluated."""
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0: {noise_sigma}")
    if noise_sigma > 0 and seed < 0:
        raise ValueError(f"seed must be >= 0 when noise_sigma > 0, got {seed}")
    values = np.zeros((u.size, channels))
    for ev in events:
        if not 0.0 <= ev.time <= 1.0:
            raise ValueError(f"event time {ev.time} outside [0, 1]")
        w = ev.width
        for ch, c in ((ev.leader, ev.time), (ev.follower, ev.time + ev.lag)):
            if not 1 <= ch <= channels:
                raise ValueError(f"event channel {ch} outside [1, {channels}]")
            # the support widened by more than the rounding of (u - c) / w
            # and of the bounds, so that every sample past it is outside
            pad = 1e-15 * (abs(c) + w)
            lo, hi = np.searchsorted(u, (c - w - pad, c + w + pad))
            rel = (u[lo:hi] - c) / w
            cos = 0.5 * (1.0 + np.cos(np.pi * rel))
            bump = np.where(np.abs(rel) <= 1.0, cos, 0.0)
            values[lo:hi, ch - 1] += ev.amplitude * bump
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
    return values


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
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if n_events > samples:
        raise ValueError(f"n_events {n_events} is more than samples {samples}")
    if not 0 <= abs(phase_lag) < 1:
        raise ValueError("phase_lag must lie in (-1, 1)")
    period = 1.0 / n_events
    t = np.linspace(0.0, 1.0, samples)
    if warp is not None:
        u = np.asarray(warp(t), dtype=float)
        if u.shape != t.shape or not np.all(np.diff(u) > 0):
            raise ValueError("warp must be strictly increasing on [0, 1]")
    else:
        u = t
    events = (Event((k + 0.5) * period, 1, 2, phase_lag * period, period / 4)
              for k in range(n_events))
    return Path(t, _bumps(u, events, 2, noise_sigma, seed), ("y1", "y2"))


def three_channel_event_series(
    events: Sequence[Event],
    samples: int = 2000,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> Path:
    """Three channels on [0, 1] with raised-cosine lead-lag events.

    Each event adds a bump of the given width to its leader channel at
    event.time and to its follower channel at event.time + event.lag, on a
    seeded Gaussian noise baseline. Channels not named by any event stay
    pure noise.
    """
    _check_samples(samples)
    t = np.linspace(0.0, 1.0, samples)
    return Path(t, _bumps(t, events, 3, noise_sigma, seed), ("y1", "y2", "y3"))


def default_three_channel_events() -> Tuple[Event, Event]:
    """Stock scenario: channel 1 leads 2 early, channel 3 leads 2 late."""
    return (
        Event(time=0.25, leader=1, follower=2),
        Event(time=0.70, leader=3, follower=2),
    )
