"""An oracle for the shuffle null that shares no code with it: the exact
permutation moments of a bilinear statistic.

With no preprocessing, or with linear preprocessing only (smoothing,
centering), a window's signed area is bilinear in the pair's two channels:
x^T M_w y. The null shuffles each channel by its own uniform permutation P,
and E[(Px)(Px)^T] = alpha I + beta 11^T, with alpha and beta set by sum x
and sum x^2. So each window's null mean is mean(x) mean(y) 1^T M_w 1 and
its second moment is tr(M_w^T C_x M_w C_y), with C_x = E[(Px)(Px)^T].
M_w comes from the pipeline itself, run on the basis pairs (e_a, e_b) as
one batched Path, so the oracle needs no copy of the window code.
"""

from __future__ import annotations

import numpy as np
import pytest

from pathsig import (
    NullModelSpec,
    Path,
    PreprocessConfig,
    WindowSpec,
    preprocess,
    shuffle_null,
    sliding_signed_area,
)

T = 60
TIMES = np.arange(float(T))
WINDOW = WindowSpec(11.0, 3.0)  # 17 windows of 11 segments
REPLICATES = 20_000
#: two independent random walks: skewed, not centered, unequal scales
SERIES = np.cumsum(np.random.default_rng(12).normal(size=(T, 2)), axis=0) * [1.0, 3.0]
PIPELINES = {"raw": None,
             "smooth-center": PreprocessConfig(smooth_sigma=1.5, center=True)}


def _bilinear_forms(cfg) -> np.ndarray:
    """(W, T, T): M[w, a, b] is window w's statistic on the path whose
    channels are the basis vectors e_a and e_b, after preprocessing."""
    eye = np.eye(T)
    basis = np.stack([np.repeat(eye, T, axis=0), np.tile(eye, (T, 1))], axis=-1)
    p = Path(TIMES, basis)  # path a * T + b is (e_a, e_b)
    if cfg is not None:
        p = preprocess(p, cfg)
    _, values = sliding_signed_area(p, (1, 2), WINDOW)
    return values.T.reshape(-1, T, T)


def _permuted_second_moment(x: np.ndarray) -> np.ndarray:
    """E[(Px)(Px)^T] over the uniform permutations P of x's T entries."""
    s1, s2 = x.sum(), x @ x
    beta = (s1 * s1 - s2) / (T * (T - 1))  # E[x_P(i) x_P(j)], i != j
    return (s2 / T - beta) * np.eye(T) + beta


def _exact_moments(cfg):
    """Each window's null mean and std under independent uniform
    permutations of the two channels."""
    x, y = SERIES.T
    m = _bilinear_forms(cfg)
    mean = x.mean() * y.mean() * m.sum(axis=(1, 2))
    left = np.swapaxes(m, 1, 2) @ _permuted_second_moment(x)
    right = m @ _permuted_second_moment(y)
    second = np.einsum("wij,wji->w", left, right)  # tr(M^T C_x M C_y)
    return mean, np.sqrt(second - mean * mean)


def _null(cfg):
    """shuffle_null's report on SERIES, and the (R, W) replicate curves its
    statistic returned, in the order it returned them."""
    returned = []

    def statistic(p, w):
        times, values = sliding_signed_area(p, (1, 2), w)
        returned.append(values)
        return times, values

    report = shuffle_null(
        Path(TIMES, SERIES), statistic, NullModelSpec(replicates=REPLICATES, seed=2024),
        w=WINDOW, preprocess_cfg=cfg, statistic_name="signed_area", pair=(1, 2),
    )
    return report, np.concatenate(returned[1:])  # the first is the observed curve


@pytest.mark.parametrize("cfg", list(PIPELINES.values()), ids=list(PIPELINES))
def test_the_null_has_the_exact_permutation_moments(cfg):
    """The report's mean lies within 4 standard errors of the exact mean.
    Its std lies within 4 standard errors of the exact std, the error taken
    by the delta method from the replicates' fourth central moment, so
    heavy-tailed windows get the wider margin that their kurtosis needs.
    The report reduces each replicate the statistic returned, once, and no
    two replicates are alike."""
    mean, std = _exact_moments(cfg)
    assert mean.size == 17 and (std > 0).all()
    report, curves = _null(cfg)
    assert curves.shape == (REPLICATES, mean.size)
    assert np.unique(curves, axis=0).shape == curves.shape
    assert np.allclose(report.null_mean, curves.mean(axis=0), rtol=0, atol=1e-12 * std)
    assert np.allclose(report.null_std, curves.std(axis=0), rtol=1e-12, atol=0)

    z_mean = (report.null_mean - mean) / (std / np.sqrt(REPLICATES))
    assert np.abs(z_mean).max() <= 4.0, z_mean
    s = report.null_std
    m4 = ((curves - report.null_mean) ** 4).mean(axis=0)
    se_std = np.sqrt((m4 - s**4) / REPLICATES) / (2.0 * s)
    z_std = (s - std) / se_std
    assert np.abs(z_std).max() <= 4.0, z_std
