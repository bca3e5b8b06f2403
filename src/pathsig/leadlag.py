"""Signed areas, lead matrices, winding-number verification, family areas.

The signed area A^(i,j) = (S^(i,j) - S^(j,i)) / 2 of a channel pair is the
production lead-lag statistic; positive values mean channel i leads. For a
path closed back to its start it equals the integral of the winding number
of the closed planar projection, which signed_area_via_winding evaluates on
a grid as a deliberately independent (and much slower) verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .path_core import (ConfigError, DataError, Path, _check, _frozen, _step_past,
                        one_path)

__all__ = [
    "LeadMatrix",
    "signed_area",
    "close_path",
    "winding_number",
    "signed_area_via_winding",
    "lead_matrix",
    "family_area",
]


@np.errstate(over="ignore", invalid="ignore")
def _areas(values: np.ndarray, what: str) -> np.ndarray:
    """Signed areas of every channel pair of the (T, N) polyline about its
    first vertex: 1/2 (C - C^T) with C_ij = sum_t (x_i(t) - x_i(0)) dx_j(t).
    Raises ConfigError, naming what, when an area overflows float64.

    einsum reduces in a fixed order, so unlike a BLAS product the bytes do
    not depend on the thread count.
    """
    c = np.einsum("ti,tj->ij", values[:-1] - values[0], np.diff(values, axis=0))
    areas = 0.5 * (c - c.T)
    if not np.isfinite(areas).all():
        raise ConfigError(f"{what} is not finite: an area overflows")
    return areas


@one_path
def signed_area(a: Path, i: int, j: int) -> float:
    """Signed area of the (i, j) channel pair about the path's start point.

    Exact per segment: with X, Y the channels rebased to start at 0,
    A = 1/2 * sum(X dY - Y dX). i = j gives exactly 0. Raises ConfigError
    when the area overflows float64.
    """
    return float(_areas(_planar_polygon(a, i, j), f"the signed area A^({i},{j})")[0, 1])


@one_path
def close_path(a: Path) -> Path:
    """Append one linear segment returning to the start point.

    The closing sample lands one median time step after the end; a time
    past float64 raises ConfigError. An already-closed path gains a
    zero-displacement segment, which changes no signed area.
    """
    if a.n_samples < 2:
        raise DataError("close_path needs at least 2 samples")
    times = np.concatenate([a.times, [_step_past(a.times, 1, "close the path")]])
    return Path(times, np.vstack([a.values, a.values[0]]), a.channel_names)


def _planar_polygon(a: Path, i: int, j: int) -> np.ndarray:
    """(T, 2) projection onto channels (i, j)."""
    return np.column_stack([a.channel(i), a.channel(j)])


def _segment_distances(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest polygon segment.

    points: (B, 2); verts: (M+1, 2) closed vertex chain. Returns (B,).
    """
    p0 = verts[:-1]
    d = verts[1:] - p0
    dd = np.einsum("md,md->m", d, d)
    dd = np.where(dd == 0.0, 1.0, dd)
    rel = points[:, None, :] - p0[None, :, :]
    t = np.clip(np.einsum("bmd,md->bm", rel, d) / dd, 0.0, 1.0)
    foot = rel - t[:, :, None] * d[None, :, :]
    return np.sqrt(np.min(np.einsum("bmd,bmd->bm", foot, foot), axis=1))


def _winding_angles(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Total swept angle / 2 pi of the closed chain about each point."""
    rel = verts[None, :, :] - points[:, None, :]
    a0 = rel[:, :-1, :]
    a1 = rel[:, 1:, :]
    cross = a0[:, :, 0] * a1[:, :, 1] - a0[:, :, 1] * a1[:, :, 0]
    dot = a0[:, :, 0] * a1[:, :, 0] + a0[:, :, 1] * a1[:, :, 1]
    return np.sum(np.arctan2(cross, dot), axis=1) / (2.0 * np.pi)


@one_path
@np.errstate(over="ignore", invalid="ignore")
def winding_number(closed: Path, i: int, j: int, x: Sequence[float]) -> int:
    """Winding number of the closed (i, j) projection about the point x.

    Computed by exact per-segment angle accumulation. The path must be
    closed in channels (i, j) and x must stay farther than 1e-12 from every
    segment. Raises ConfigError when the angle sum overflows float64.
    """
    verts = _planar_polygon(closed, i, j)
    gap = float(np.linalg.norm(verts[-1] - verts[0]))
    scale = max(1.0, float(np.max(np.abs(verts))))
    if gap > 1e-12 * scale:
        raise DataError(f"path is not closed in channels ({i}, {j}); "
                        f"endpoint gap {gap:g}")
    point = np.asarray(x, dtype=float).reshape(1, 2)
    if float(_segment_distances(point, verts)[0]) <= 1e-12:
        raise ConfigError("winding number undefined: point lies on the curve")
    w = float(_winding_angles(point, verts)[0])
    _check(f"the angle sum of channels ({i}, {j})", w)
    n = int(round(w))
    # a closed chain away from the point sweeps an exact multiple of 2 pi
    assert abs(w - n) < 0.25, f"angle sum {w} is not near an integer"
    return n


@one_path
@np.errstate(over="ignore", invalid="ignore")
def signed_area_via_winding(
    a: Path,
    i: int,
    j: int,
    cells: Union[int, Tuple[int, int]] = 200,
    margin: float = 0.05,
) -> float:
    """Riemann sum of the winding number over a grid: the area oracle.

    Closes the (i, j) projection back to its start, lays a cells x cells
    grid over the bounding box plus a margin (fraction of the box diagonal),
    and sums winding_number(cell center) * cell area. Centers within 1e-9 of
    the curve are jittered by half a cell. Never the production route; cost
    is O(grid * T). Raises ConfigError when the sum overflows float64.
    """
    verts = _planar_polygon(a, i, j)
    if not np.array_equal(verts[-1], verts[0]):
        verts = np.vstack([verts, verts[0]])
    nx, ny = (cells, cells) if isinstance(cells, int) else cells
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    if diag == 0.0:
        return 0.0
    lo = lo - margin * diag
    hi = hi + margin * diag
    dx = (hi[0] - lo[0]) / nx
    dy = (hi[1] - lo[1]) / ny
    cx = lo[0] + dx * (np.arange(nx) + 0.5)
    cy = lo[1] + dy * (np.arange(ny) + 0.5)
    centers = np.column_stack(
        [np.repeat(cx, ny), np.tile(cy, nx)]
    )
    total = 0.0
    chunk = max(1, 2_000_000 // max(1, verts.shape[0]))
    for start in range(0, centers.shape[0], chunk):
        block = centers[start : start + chunk]
        near = _segment_distances(block, verts) <= 1e-9
        if np.any(near):
            block = block.copy()
            block[near] += np.array([0.5 * dx, 0.5 * dy])
        w = _winding_angles(block, verts)
        total += float(np.sum(np.round(w)))
    area = total * dx * dy
    _check(f"the winding area A^({i},{j})", area)
    return area


@dataclass(frozen=True)
class LeadMatrix:
    """Skew-symmetric matrix of pairwise signed areas; values is a read-only
    view, sharing memory with a C-contiguous float64 input."""

    channel_names: Tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _frozen(self.values)
        n = len(self.channel_names)
        if v.shape != (n, n):
            raise ConfigError(f"expected ({n}, {n}) matrix, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def to_dict(self) -> dict:
        return {
            "channels": list(self.channel_names),
            "A": self.values.tolist(),
        }


@one_path
def lead_matrix(a: Path) -> LeadMatrix:
    """All pairwise signed areas; entry (i, j) is signed_area(a, i, j).

    Skew-symmetry is exact: (j, i) is the same difference taken the other
    way round, and IEEE subtraction is antisymmetric. Raises ConfigError
    when an area overflows float64.
    """
    return LeadMatrix(a.channel_names, _areas(a.values, "the lead matrix"))


@np.errstate(over="ignore", invalid="ignore")
def family_area(alpha: np.ndarray, i: int, j: int) -> float:
    """Area integral of a sampled family of paths alpha: [0,1]^2 -> R^N.

    alpha has shape (ns, nt, N) on the uniform unit grid. Evaluates
    the double integral of
    d(alpha_i)/ds * d(alpha_j)/dt - d(alpha_i)/dt * d(alpha_j)/ds
    with central-difference Jacobians at cell centers and midpoint
    quadrature, which is exact for integrands linear per cell. Raises
    ConfigError when the integral is not finite.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 3:
        raise DataError("alpha must have shape (ns, nt, N)")
    ns, nt, n = alpha.shape
    if ns < 2 or nt < 2:
        raise DataError("family grid must be at least 2 x 2")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DataError(f"channels ({i}, {j}) outside [1, {n}]")
    ds = 1.0 / (ns - 1)
    dt = 1.0 / (nt - 1)
    fi = alpha[:, :, i - 1]
    fj = alpha[:, :, j - 1]

    def d_ds(f: np.ndarray) -> np.ndarray:
        return (f[1:, :-1] - f[:-1, :-1] + f[1:, 1:] - f[:-1, 1:]) / (2.0 * ds)

    def d_dt(f: np.ndarray) -> np.ndarray:
        return (f[:-1, 1:] - f[:-1, :-1] + f[1:, 1:] - f[1:, :-1]) / (2.0 * dt)

    integrand = d_ds(fi) * d_dt(fj) - d_dt(fi) * d_ds(fj)
    area = float(np.sum(integrand)) * ds * dt
    _check(f"the family area A^({i},{j})", area)
    return area
