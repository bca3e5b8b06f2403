from __future__ import annotations

import argparse

import numpy as np
import pytest

from pathsig import Path


def leaf_commands(parser: argparse.ArgumentParser, prefix=()):
    """(argv prefix, parser) for every leaf (sub)command of the CLI."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, prefix + (name,))
            return
    yield prefix, parser


def random_path(
    rng: np.random.Generator,
    n_samples: int = 6,
    n_channels: int = 2,
    uniform: bool = True,
) -> Path:
    if uniform:
        times = np.arange(n_samples, dtype=float)
    else:
        times = np.cumsum(rng.uniform(0.5, 1.5, n_samples))
    values = rng.normal(0.0, 1.0, (n_samples, n_channels))
    return Path(times, values)


def dyadic_path(
    rng: np.random.Generator, n_samples: int = 6, n_channels: int = 2
) -> Path:
    """Times and values on the 2**-16 grid: exactly representable floats."""
    scale = 2.0 ** -16
    times = np.cumsum(rng.integers(1, 64, n_samples)).astype(float) * scale
    values = rng.integers(-(2 ** 12), 2 ** 12, (n_samples, n_channels))
    return Path(times, values.astype(float) * scale)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)
