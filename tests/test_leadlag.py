from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from pathsig import (
    LeadMatrix,
    Path,
    close_path,
    family_area,
    inverse,
    lead_matrix,
    signature,
    signed_area,
    signed_area_via_winding,
    winding_number,
)
from pathsig.io import path_csv_blocks
from conftest import random_path


def circle(n=1000, radius=1.0, turns=1.0, reverse=False, center=(0.0, 0.0)):
    theta = np.linspace(0.0, 2.0 * np.pi * turns, n + 1)
    if reverse:
        theta = -theta
    x = center[0] + radius * np.cos(theta)
    y = center[1] + radius * np.sin(theta)
    return Path(np.linspace(0.0, 1.0, n + 1), np.column_stack([x, y]))


# ---------------------------------------------------------------------------
# signed area


def test_signed_area_matches_signature_antisymmetrization(rng):
    for _ in range(10):
        a = random_path(rng, n_samples=8, n_channels=3)
        s = signature(a, 2)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            expected = 0.5 * (s.coefficient((i, j)) - s.coefficient((j, i)))
            assert signed_area(a, i, j) == pytest.approx(expected, abs=1e-12)


def test_signed_area_same_channel_is_zero(rng):
    a = random_path(rng)
    assert signed_area(a, 1, 1) == 0.0
    with pytest.raises(ValueError):
        signed_area(a, 1, 5)


def test_signed_area_antisymmetric(rng):
    a = random_path(rng, n_channels=2)
    assert signed_area(a, 1, 2) == pytest.approx(-signed_area(a, 2, 1))


def test_circle_area_is_pi():
    assert signed_area(circle(1000), 1, 2) == pytest.approx(np.pi, abs=1e-3)
    assert signed_area(circle(1000, reverse=True), 1, 2) == pytest.approx(
        -np.pi, abs=1e-3
    )


def test_circle_area_scales_with_radius_squared():
    assert signed_area(circle(2000, radius=2.0), 1, 2) == pytest.approx(
        4.0 * np.pi, abs=4e-3
    )


def test_translation_does_not_change_area(rng):
    a = random_path(rng, n_channels=2)
    b = Path(a.times, a.values + np.array([100.0, -40.0]))
    assert signed_area(b, 1, 2) == pytest.approx(
        signed_area(a, 1, 2), abs=1e-9
    )


# ---------------------------------------------------------------------------
# closing and winding numbers


def test_close_path_appends_start_value(rng):
    a = random_path(rng, n_samples=6)
    c = close_path(a)
    assert c.n_samples == 7
    assert np.array_equal(c.values[-1], a.values[0])
    assert c.times[-1] > a.times[-1]


def test_close_path_on_closed_input_is_noop_shape(rng):
    c = circle(50)
    again = close_path(c)
    # the appended vertex duplicates the existing closure point
    assert np.array_equal(again.values[-1], again.values[0])


def test_winding_number_unit_circle():
    c = circle(200)
    assert winding_number(c, 1, 2, np.array([0.0, 0.0])) == 1
    assert winding_number(c, 1, 2, np.array([2.0, 0.0])) == 0
    assert winding_number(circle(200, reverse=True), 1, 2, np.zeros(2)) == -1


def test_winding_number_double_loop():
    c = circle(400, turns=2.0)
    assert winding_number(c, 1, 2, np.array([0.0, 0.0])) == 2


def test_winding_number_rejects_boundary_point():
    c = circle(100)
    with pytest.raises(ValueError):
        winding_number(c, 1, 2, c.values[3, :2])


def test_winding_number_requires_closed_path(rng):
    a = random_path(rng, n_samples=6)
    with pytest.raises(ValueError):
        winding_number(a, 1, 2, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# grid quadrature of the winding number


def random_closed_polygon(rng, n=12):
    a = random_path(rng, n_samples=n, n_channels=2)
    return close_path(a)


def test_grid_area_matches_shoelace_on_random_polygons(rng):
    for _ in range(5):
        poly = random_closed_polygon(rng, n=10)
        exact = signed_area(poly, 1, 2)
        approx = signed_area_via_winding(poly, 1, 2, cells=150)
        xy = poly.values[:, :2]
        perimeter = np.sum(np.hypot(*np.diff(xy, axis=0).T))
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        margin = 0.05 * np.hypot(*(hi - lo))
        cell_diag = np.hypot(*((hi - lo + 2 * margin) / 150))
        assert abs(approx - exact) <= perimeter * cell_diag


def test_grid_area_of_a_path_without_extent_is_zero():
    a = Path(np.arange(3.0), np.full((3, 2), 1.5))
    assert signed_area_via_winding(a, 1, 2) == 0.0


def test_grid_area_jitters_centres_on_the_curve_within_the_c06_bound():
    """On a 2 x 2 grid with no margin the centres (0.5, 1.5) and (1.5, 0.5)
    lie on the hypotenuse and are moved half a cell before counting."""
    tri = Path(np.arange(3.0), [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    approx = signed_area_via_winding(tri, 1, 2, cells=2, margin=0.0)
    perimeter = float(np.sum(np.hypot(*np.diff(close_path(tri).values, axis=0).T)))
    cell_diag = float(np.hypot(1.0, 1.0))
    assert abs(approx - signed_area(tri, 1, 2)) <= perimeter * cell_diag


def test_grid_area_of_unit_circle():
    c = circle(1000)
    assert signed_area_via_winding(c, 1, 2, cells=150) == pytest.approx(
        np.pi, abs=2e-2
    )


# ---------------------------------------------------------------------------
# lead matrix


def test_lead_matrix_skew_symmetric(rng):
    a = random_path(rng, n_samples=30, n_channels=5)
    m = lead_matrix(a)
    assert np.array_equal(m.values, -m.values.T)
    assert np.all(np.diag(m.values) == 0.0)


def test_lead_matrix_circle_pair():
    m = lead_matrix(circle(1000))
    assert m.values[0, 1] == pytest.approx(np.pi, abs=1e-3)
    assert m.values[1, 0] == pytest.approx(-np.pi, abs=1e-3)


def test_lead_matrix_negates_under_time_reversal(rng):
    a = random_path(rng, n_samples=20, n_channels=3)
    m = lead_matrix(a)
    m_rev = lead_matrix(inverse(a))
    assert np.allclose(m_rev.values, -m.values, atol=1e-12)


def test_lead_matrix_serialization(rng):
    a = random_path(rng, n_channels=3)
    d = lead_matrix(a).to_dict()
    assert set(d) == {"channels", "A"}
    assert len(d["A"]) == 3 and len(d["A"][0]) == 3
    back = LeadMatrix(tuple(d["channels"]), np.array(d["A"]))
    assert np.array_equal(back.values, lead_matrix(a).values)


def test_lead_matrix_entries_are_the_pair_signed_areas(rng):
    a = random_path(rng, n_samples=200, n_channels=4)
    m = lead_matrix(a).values
    for i in range(1, 5):
        for j in range(1, 5):
            assert m[i - 1, j - 1] == signed_area(a, i, j)


def test_lead_matrix_bytes_do_not_depend_on_thread_count(tmp_path):
    rng = np.random.default_rng(11)
    values = np.cumsum(rng.normal(size=(10_000, 20)), axis=0)
    big = tmp_path / "big.csv"
    big.write_text("".join(path_csv_blocks(Path(np.arange(10_000) * 0.01, values))))
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run(
            [sys.executable, "-m", "pathsig.cli", "leadmatrix", str(big),
             "--format", "csv"],
            capture_output=True, env=env, check=True,
        ).stdout)
    assert outs[0] == outs[1]
    rows = [ln for ln in outs[0].decode().splitlines()
            if not ln.startswith("#")][1:]
    m = np.loadtxt(rows, delimiter=",", usecols=range(1, 21))
    assert np.array_equal(m, -m.T)


# ---------------------------------------------------------------------------
# two-parameter family area


def grid_alpha(ns, nt, f):
    s = np.linspace(0.0, 1.0, ns)
    t = np.linspace(0.0, 1.0, nt)
    S, T = np.meshgrid(s, t, indexing="ij")
    return np.stack(f(S, T), axis=-1)


def test_family_area_identity_map_is_one():
    alpha = grid_alpha(40, 40, lambda s, t: (s, t))
    assert family_area(alpha, 1, 2) == pytest.approx(1.0, abs=1e-12)


def test_family_area_quadratic_map():
    alpha = grid_alpha(100, 100, lambda s, t: (s ** 2, t))
    assert family_area(alpha, 1, 2) == pytest.approx(1.0, abs=1e-3)


def test_family_area_orientation_flip():
    alpha = grid_alpha(30, 30, lambda s, t: (t, s))
    assert family_area(alpha, 1, 2) == pytest.approx(-1.0, abs=1e-12)


def test_family_area_third_channel_projection():
    alpha = grid_alpha(50, 50, lambda s, t: (s, t, s + t))
    # (1,3) projection: d(s) x d(s+t) has Jacobian 1 as well
    assert family_area(alpha, 1, 3) == pytest.approx(1.0, abs=1e-10)


def test_family_area_validates_input():
    with pytest.raises(ValueError):
        family_area(np.zeros((1, 5, 2)), 1, 2)
    with pytest.raises(ValueError):
        family_area(np.zeros((5, 5, 2)), 1, 3)
