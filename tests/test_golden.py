"""Golden artifacts and trajectory hashes made by earlier engines.

The JSON files under tests/golden/ were written by ``pathsig sig`` and
``pathsig logsig --lyndon`` when signatures were still a per-segment Chen
product, and the hashes below by the numpy-array RK4. Never regenerate them:
a mismatch means the current engine changed a result.

Float fields must agree within 1e-12 relative to the largest magnitude of
their grade (a grade array of the signature, or the Lyndon coefficients of
one word length). Every other field, and every shape, must agree exactly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from pathsig import __version__
from pathsig.cli import main
from pathsig.dynamics import IntegrationError, LorenzParams, lorenz

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-12

CASES = {
    "sig_n3_l3": ["sig", "path_n3.csv", "--level", "3"],
    "logsig_n3_l3": ["logsig", "path_n3.csv", "--level", "3", "--lyndon"],
    "sig_n2_l6": [
        "sig", "path_n2.csv", "--level", "6",
        "--center", "--normalize", "per", "--prepend-zero",
    ],
    "logsig_n2_l6": [
        "logsig", "path_n2.csv", "--level", "6", "--lyndon",
        "--center", "--normalize", "per", "--prepend-zero",
    ],
}


def _skeleton(doc):
    """The document with every float replaced by a marker."""
    if isinstance(doc, dict):
        return {k: _skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_skeleton(v) for v in doc]
    return "<float>" if isinstance(doc, float) else doc


def _grades(doc) -> dict:
    """Float fields by grade: levels by index, Lyndon by word length."""
    groups = {
        ("levels", k): [float(v) for v in grade]
        for k, grade in enumerate(doc["result"]["levels"])
    }
    for entry in doc.get("lyndon", []):
        groups.setdefault(("lyndon", len(entry["word"])), []).append(
            entry["coefficient"]
        )
    return groups


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifact_matches_golden(name, tmp_path):
    argv = [str(GOLDEN / a) if a.endswith(".csv") else a for a in CASES[name]]
    out = tmp_path / "out.json"
    assert main(argv + ["-o", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got.pop("version") == __version__
    want.pop("version")
    assert _skeleton(got) == _skeleton(want)
    got_grades, want_grades = _grades(got), _grades(want)
    assert got_grades.keys() == want_grades.keys()
    for key, expected in want_grades.items():
        e = np.asarray(expected)
        g = np.asarray(got_grades[key])
        scale = float(np.max(np.abs(e))) if e.size else 0.0
        assert np.all(np.abs(g - e) <= RTOL * scale), key


@pytest.mark.parametrize(
    "params, digest",
    [
        (
            LorenzParams(),
            "9c4ac5de90230063bd4cdda48bb37a0f3b2a4f35fabb05b6b6094e54596b3839",
        ),
        (
            LorenzParams(dt=0.002, steps=30000),
            "f54a56006ffcd0405fe6ea155a83f1e563d4e622b628eaac5f8d9c2d33919f8e",
        ),
    ],
    ids=["default", "c10"],
)
def test_lorenz_trajectory_is_bit_identical(params, digest):
    values = lorenz(params).values
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_lorenz_blowup_step_is_unchanged():
    with pytest.raises(IntegrationError, match=r"non-finite state at step 3$"):
        lorenz(LorenzParams(dt=10.0, steps=50))
