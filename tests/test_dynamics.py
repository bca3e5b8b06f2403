from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
import time
from array import array
from typing import Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig import dynamics
from pathsig import (
    Event,
    IntegrationError,
    LorenzParams,
    Path,
    cyclic_pair,
    default_three_channel_events,
    lorenz,
    signed_area,
    three_channel_event_series,
)


# ---------------------------------------------------------------------------
# Lorenz / RK4


def test_lorenz_default_shape_and_grid():
    a = lorenz(LorenzParams(steps=100))
    assert a.n_samples == 101
    assert a.channel_names == ("x", "y", "z")
    assert np.array_equal(a.times, np.arange(101) * 0.005)


def test_lorenz_is_bitwise_deterministic():
    p = LorenzParams(steps=500)
    a = lorenz(p)
    b = lorenz(p)
    assert np.array_equal(a.values, b.values)


def test_lorenz_rk4_error_scales_as_dt_fourth():
    # Richardson on t in [0, 0.5]: the ratio of successive endpoint
    # differences |x(dt)-x(dt/2)| / |x(dt/2)-x(dt/4)| approaches 2^4
    base = 0.01
    ends = []
    for dt in (base, base / 2, base / 4):
        steps = int(round(0.5 / dt))
        a = lorenz(LorenzParams(dt=dt, steps=steps))
        ends.append(a.values[-1])
    q = np.linalg.norm(ends[0] - ends[1])
    r = np.linalg.norm(ends[1] - ends[2])
    assert 11.0 < q / r < 23.0


def test_lorenz_z_axis_is_invariant_and_decays():
    z0 = 5.0
    steps = 200
    p = LorenzParams(x0=(0.0, 0.0, z0), dt=0.005, steps=steps)
    a = lorenz(p)
    assert np.all(a.values[:, 0] == 0.0)
    assert np.all(a.values[:, 1] == 0.0)
    t_end = steps * 0.005
    expected = z0 * np.exp(-p.beta * t_end)
    assert a.values[-1, 2] == pytest.approx(expected, rel=1e-8)


def test_lorenz_blowup_raises_with_step_index():
    with pytest.raises(IntegrationError, match="step"):
        lorenz(LorenzParams(dt=10.0, steps=50))


def test_lorenz_param_validation():
    with pytest.raises(ValueError):
        LorenzParams(dt=0.0)
    with pytest.raises(ValueError):
        LorenzParams(steps=0)


def reference_lorenz(p: LorenzParams) -> np.ndarray:
    """The stepper with one field() call per RK4 stage, as it was before
    the stages were written out in the loop body: the reference that the
    inlined stepper must match bit for bit."""
    sigma, rho, beta = float(p.sigma), float(p.rho), float(p.beta)
    dt = float(p.dt)
    half, sixth = 0.5 * dt, dt / 6.0

    def field(x: float, y: float, z: float) -> Tuple[float, float, float]:
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    x, y, z = (float(v) for v in p.x0)
    out = array("d", (x, y, z))
    finite = math.isfinite
    for k in range(1, p.steps + 1):
        a1, b1, c1 = field(x, y, z)
        a2, b2, c2 = field(x + half * a1, y + half * b1, z + half * c1)
        a3, b3, c3 = field(x + half * a2, y + half * b2, z + half * c2)
        a4, b4, c4 = field(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        if not (finite(x) and finite(y) and finite(z)):
            raise IntegrationError(f"non-finite state at step {k}")
        out.extend((x, y, z))
    return np.frombuffer(out).reshape(-1, 3)


def _stepped(fn, params):
    """fn's trajectory values, or the message of its IntegrationError."""
    try:
        return fn(params)
    except IntegrationError as exc:
        return f"IntegrationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 60.0), st.floats(-60.0, 60.0), st.floats(0.0, 60.0),
       st.tuples(*[st.floats(-50.0, 50.0)] * 3),
       # a start scaled far out, or to inf and nan, or a long step diverges
       st.sampled_from([1.0, 1.0, 1.0, 1e100, 1e160, math.inf]),
       st.one_of(st.floats(1e-6, 0.02), st.floats(0.02, 20.0)),
       st.integers(1, 300),
       # blocks of 7 put a divergence inside a later block or at its end
       st.sampled_from([7, dynamics._BLOCK_STEPS]))
def test_lorenz_matches_the_field_closure_stepper(sigma, rho, beta, x0, scale,
                                                  dt, steps, block):
    params = LorenzParams(sigma, rho, beta, tuple(v * scale for v in x0),
                          dt, steps)
    expected = _stepped(reference_lorenz, params)
    with mock.patch.object(dynamics, "_BLOCK_STEPS", block):
        got = _stepped(lambda p: lorenz(p).values, params)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


@pytest.mark.parametrize(
    "dt, x0, step",
    [
        (0.1414685994386673, (1.0, 1.0, 1.0), 7),
        (0.1401626318693161, (1.0, 1.0, 1.0), 8),
        (0.13997705280780792, (1.0, 1.0, 1.0), 11),
        (0.005, (math.inf, 1.0, 1.0), 1),
        (0.005, (1.0, 1.0, math.nan), 1),
    ],
    ids=["end-of-block-1", "start-of-block-2", "inside-block-2",
         "inf-start", "nan-start"],
)
def test_lorenz_in_blocks_of_7_names_the_diverging_step(dt, x0, step):
    """The step a check after every step names, also when the start row
    is the non-finite one: step 1, never step 0."""
    params = LorenzParams(x0=x0, dt=dt, steps=40)
    message = f"IntegrationError: non-finite state at step {step}"
    assert _stepped(reference_lorenz, params) == message
    with mock.patch.object(dynamics, "_BLOCK_STEPS", 7):
        assert _stepped(lambda p: lorenz(p).values, params) == message


def test_lorenz_stops_within_the_block_that_diverges():
    """2,000,000 steps would take seconds; the run that diverges at step 3
    stops at the end of its first block."""
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"^non-finite state at step 3$"):
        lorenz(LorenzParams(dt=10.0, steps=2_000_000))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# cyclic pair


def test_cyclic_pair_shapes_and_names():
    a = cyclic_pair(samples=500)
    assert a.n_samples == 500
    assert a.channel_names == ("y1", "y2")
    assert a.times[0] == 0.0 and a.times[-1] == 1.0


def test_cyclic_pair_channel_two_is_lagged_copy():
    # samples chosen so the lag is exactly 125 grid steps
    a = cyclic_pair(n_events=4, phase_lag=0.25, samples=2001)
    shift = 125
    assert 0.25 * (1.0 / 4) * 2000 == shift
    y1 = a.values[: 2001 - shift, 0]
    y2 = a.values[shift:, 1]
    assert np.allclose(y1, y2, atol=1e-12)


def test_cyclic_pair_positive_lag_means_channel_one_leads():
    a = cyclic_pair(n_events=4, phase_lag=0.25, samples=3000)
    assert signed_area(a, 1, 2) > 0.0
    b = cyclic_pair(n_events=4, phase_lag=-0.25, samples=3000)
    assert signed_area(b, 1, 2) < 0.0


def test_cyclic_pair_warp_resamples_same_curve():
    plain = cyclic_pair(samples=4000)
    warped = cyclic_pair(samples=4000, warp=lambda u: u ** 2)
    # the warped series is the same trajectory traversed at a different
    # speed: full-domain signed areas agree
    assert signed_area(warped, 1, 2) == pytest.approx(
        signed_area(plain, 1, 2), abs=1e-3
    )
    assert not np.allclose(plain.values, warped.values)


def test_cyclic_pair_warp_must_be_increasing():
    with pytest.raises(ValueError):
        cyclic_pair(warp=lambda u: -u)


def test_cyclic_pair_noise_is_seeded():
    a = cyclic_pair(samples=300, noise_sigma=0.1, seed=4)
    b = cyclic_pair(samples=300, noise_sigma=0.1, seed=4)
    c = cyclic_pair(samples=300, noise_sigma=0.1, seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_cyclic_pair_validation():
    with pytest.raises(ValueError):
        cyclic_pair(samples=5)
    with pytest.raises(ValueError):
        cyclic_pair(phase_lag=1.5)
    with pytest.raises(ValueError):
        cyclic_pair(n_events=0)


# ---------------------------------------------------------------------------
# three-channel events


def test_event_series_places_bumps():
    events = [
        Event(time=0.25, leader=1, follower=2),
        Event(time=0.70, leader=3, follower=2),
    ]
    a = three_channel_event_series(events, samples=2000)
    t = a.times
    assert t[np.argmax(a.values[:, 0])] == pytest.approx(0.25, abs=0.01)
    assert t[np.argmax(a.values[:, 2])] == pytest.approx(0.70, abs=0.01)
    # follower channel peaks lag samples later for each event
    first_half = a.values[: 1000, 1]
    second_half = a.values[1000:, 1]
    assert t[np.argmax(first_half)] == pytest.approx(0.27, abs=0.01)
    assert t[1000 + np.argmax(second_half)] == pytest.approx(0.72, abs=0.01)


def test_default_events_cover_the_two_leads():
    ev = default_three_channel_events()
    assert (ev[0].leader, ev[0].follower) == (1, 2)
    assert (ev[1].leader, ev[1].follower) == (3, 2)
    assert ev[0].lag > 0 and ev[1].lag > 0


def test_event_series_leader_leads_follower():
    events = [Event(time=0.5, leader=1, follower=2, lag=0.03)]
    a = three_channel_event_series(events, samples=3000)
    assert signed_area(a, 1, 2) > 0.0


def test_event_series_seeded_noise_and_validation():
    a = three_channel_event_series(
        default_three_channel_events(), samples=500, noise_sigma=0.05, seed=1
    )
    b = three_channel_event_series(
        default_three_channel_events(), samples=500, noise_sigma=0.05, seed=1
    )
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        three_channel_event_series([Event(time=2.0, leader=1, follower=2)])
    with pytest.raises(ValueError):
        three_channel_event_series([Event(time=0.5, leader=0, follower=2)])
    with pytest.raises(ValueError):
        three_channel_event_series([], samples=4)


def test_event_fields_are_checked_on_construction():
    with pytest.raises(TypeError, match="leader must be an integer, got 1.0"):
        Event(time=0.5, leader=1.0, follower=2)
    with pytest.raises(TypeError, match="amplitude must be a number"):
        Event(time=0.5, leader=1, follower=2, amplitude=True)
    with pytest.raises(ValueError, match="lag is too large"):
        Event(time=0.5, leader=1, follower=2, lag=10**400)
    for width in (0, 0.0, -0.1):
        with pytest.raises(ValueError, match="width must be > 0"):
            Event(time=0.5, leader=1, follower=2, width=width)
    for field in ("lag", "width", "amplitude"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                Event(time=0.5, leader=1, follower=2, **{field: value})


@pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_noise_is_rejected(noise):
    with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
        cyclic_pair(samples=32, noise_sigma=noise)
    with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
        three_channel_event_series(
            default_three_channel_events(), samples=32, noise_sigma=noise
        )


@pytest.mark.parametrize("seed", [-1, -2**70], ids=["-1", "-2**70"])
def test_a_negative_seed_is_refused_only_with_noise(seed):
    """The seed is checked beside noise_sigma, before anything is drawn or
    allocated; noiseless series never draw, so any seed builds them."""
    match = f"^seed must be >= 0 when noise_sigma > 0, got {seed}$"
    with pytest.raises(ValueError, match=match):
        cyclic_pair(samples=32, noise_sigma=0.1, seed=seed)
    with pytest.raises(ValueError, match=match):
        three_channel_event_series(
            default_three_channel_events(), samples=32, noise_sigma=0.1, seed=seed
        )
    assert np.array_equal(cyclic_pair(samples=32, seed=seed).values,
                          cyclic_pair(samples=32).values)


# ---------------------------------------------------------------------------
# the bump builder against evaluating every bump over the whole grid


def _raised_cosine(u, center, width):
    rel = (u - center) / width
    return np.where(np.abs(rel) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * rel)), 0.0)


def _full_grid_cyclic(n_events, phase_lag, warp, samples, noise_sigma, seed):
    period = 1.0 / n_events
    width = 0.25 * period
    t = np.linspace(0.0, 1.0, samples)
    u = t if warp is None else np.asarray(warp(t), dtype=float)
    centers = (np.arange(n_events) + 0.5) * period
    g1 = np.zeros_like(u)
    g2 = np.zeros_like(u)
    for c in centers:
        g1 += _raised_cosine(u, c, width)
        g2 += _raised_cosine(u, c + phase_lag * period, width)
    values = np.column_stack([g1, g2])
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
    return values


def _full_grid_events(events, samples, noise_sigma, seed):
    t = np.linspace(0.0, 1.0, samples)
    values = np.zeros((samples, 3))
    for ev in events:
        values[:, ev.leader - 1] += ev.amplitude * _raised_cosine(
            t, ev.time, ev.width
        )
        values[:, ev.follower - 1] += ev.amplitude * _raised_cosine(
            t, ev.time + ev.lag, ev.width
        )
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
    return values


_NOISE = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
# tiny widths, widths past the grid, and centres at and beyond its ends
_events = st.builds(
    Event,
    time=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    leader=st.integers(1, 3),
    follower=st.integers(1, 3),
    lag=st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 1 / 255]), st.floats(-2.0, 2.0)
    ),
    width=st.one_of(
        st.sampled_from([5e-324, 1e-300, 1e-9, 1 / 255, 0.5, 5.0, 1e6]),
        st.floats(1e-4, 0.3),
    ),
    amplitude=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0)),
)



@settings(max_examples=150, deadline=None)
@given(
    st.lists(_events, min_size=1, max_size=6),
    st.integers(16, 600),
    _NOISE,
    st.integers(0, 2**32),
)
def test_event_series_matches_full_grid_bumps(events, samples, noise, seed):
    """The builder runs outside errstate, so a numpy warning it raises is
    an error (pytest's RuntimeWarning filter); only the full-grid reference,
    which evaluates every bump at every sample, is let off."""
    a = three_channel_event_series(events, samples, noise, seed)
    with np.errstate(all="ignore"):
        expected = _full_grid_events(events, samples, noise, seed)
    assert a.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lag", [1.7e308, -1.7e308])
def test_support_bounds_past_float64_do_not_warn(lag):
    """A centre and width whose support bounds overflow give the full-grid
    bumps, without a numpy warning (pytest makes one an error)."""
    events = [Event(0.5, 1, 2, lag=lag, width=1.7e308)]
    a = three_channel_event_series(events, samples=20)
    with np.errstate(all="ignore"):
        expected = _full_grid_events(events, 20, 0.0, 0)
    assert a.values.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(16, 600),
    st.data(),
    st.floats(-0.99, 0.99),
    st.one_of(st.none(), st.floats(0.2, 5.0)),
    _NOISE,
    st.integers(0, 2**32),
)
def test_cyclic_pair_matches_full_grid_bumps(samples, data, lag, power, noise,
                                             seed):
    n_events = data.draw(st.integers(1, min(samples, 80)))
    warp = None if power is None else (lambda u: u**power)
    a = cyclic_pair(n_events, lag, warp, samples, noise, seed)
    expected = _full_grid_cyclic(n_events, lag, warp, samples, noise, seed)
    assert a.values.tobytes() == expected.tobytes()


def test_many_cyclic_events_are_linear_in_their_count():
    """20,000 events over 200,000 samples: a full-grid loop takes minutes."""
    code = (
        "from pathsig.dynamics import cyclic_pair\n"
        "cyclic_pair(n_events=20000, samples=200000)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=10, capture_output=True
    )
    assert done.returncode == 0, done.stderr
