"""Golden artifacts and trajectory hashes made by earlier engines.

The ``sig``/``logsig`` JSON files under tests/golden/ were written when
signatures were still a per-segment Chen product, and the hashes below by
the numpy-array RK4. The ``gen_*`` datasets and the leadmatrix, slidearea,
influence, xcorr and granger artifacts were written by the hand-branched CLI
that predates the table-driven one; the datasets double as uniform-grid
inputs. Never regenerate them: a mismatch means the current code changed a
result.

Float fields must agree within 1e-12 relative to the largest magnitude of
their array: a grade of the signature, the Lyndon coefficients of one word
length, one row of a matrix, one field of one curve or report, or one CSV
column of one (statistic, i, j) group. Every other field, the config, the
significant runs and masks, and every shape must agree exactly; ``version``
must equal the running ``pathsig.__version__``.
"""

from __future__ import annotations

import csv
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
    "gen_lorenz": ["gen", "lorenz", "--steps", "200", "--thin", "2"],
    "gen_cyclic": ["gen", "cyclic", "--samples", "128", "--noise", "0.05",
                   "--seed", "9"],
    "gen_events": ["gen", "events", "--samples", "256", "--noise", "0.02",
                   "--seed", "4"],
    "leadmatrix_events": ["leadmatrix", "gen_events.csv"],
    "leadmatrix_events_csv": [
        "leadmatrix", "gen_events.csv", "--format", "csv",
    ],
    "slidearea_events": [
        "slidearea", "gen_events.csv", "--pairs", "1,2", "2,3",
        "--window", "0.2", "--stride", "0.05", "--smooth-sigma", "0.01",
        "--replicates", "20", "--seed", "5",
    ],
    "slidearea_events_csv": [
        "slidearea", "gen_events.csv", "--pairs", "1,2", "2,3",
        "--window", "0.2", "--stride", "0.05", "--smooth-sigma", "0.01",
        "--replicates", "20", "--seed", "5", "--format", "csv",
    ],
    "influence_lorenz": [
        "influence", "gen_lorenz.csv", "--pairs", "1,2", "3,1",
        "--center", "--normalize", "per",
    ],
    "influence_events_null": [
        "influence", "gen_events.csv", "--pairs", "1,2", "--window", "0.2",
        "--stride", "0.05", "--replicates", "20", "--seed", "5",
    ],
    "xcorr_cyclic": [
        "xcorr", "gen_cyclic.csv", "--pairs", "1,2", "--lags", "0.1",
    ],
    "xcorr_cyclic_csv": [
        "xcorr", "gen_cyclic.csv", "--pairs", "1,2", "2,1", "--lags", "0.1",
        "--format", "csv",
    ],
    "granger_lorenz": [
        "granger", "gen_lorenz.csv", "--caused", "2", "--order", "2",
    ],
    "slidearea_n3": [
        "slidearea", "path_n3.csv", "--pairs", "1,2", "1,3", "--window", "5",
        "--stride", "2", "--smooth-sigma", "0", "--replicates", "20",
        "--seed", "5",
    ],
    "influence_n3_csv": [
        "influence", "path_n3.csv", "--pairs", "2,3", "--window", "5",
        "--stride", "2", "--format", "csv",
    ],
}

#: compared as they are, floats included
EXACT = ("config", "runs")
#: CSV columns compared as text; the first three also group the float columns
KEY_COLUMNS = ("statistic", "i", "j")
TEXT_COLUMNS = KEY_COLUMNS + ("significant", "")


def _suffix(name: str) -> str:
    """Datasets and the `_csv` cases are CSV artifacts, the rest JSON."""
    csv_out = name.startswith("gen_") or name.endswith("_csv")
    return ".csv" if csv_out else ".json"


def _skeleton(doc):
    """The document with every float outside EXACT replaced by a marker."""
    if isinstance(doc, dict):
        return {k: v if k in EXACT else _skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_skeleton(v) for v in doc]
    return "<float>" if isinstance(doc, float) else doc


def _csv_doc(text: str) -> dict:
    """A CSV artifact as a document: `# key=value` lines and column arrays."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = json.loads(value) if key == "config" else value
        else:
            body.append(line)
    header, *rows = csv.reader(body)
    table: dict = {}
    for row in rows:
        assert len(row) == len(header)
        keys = " ".join(c for h, c in zip(header, row) if h in KEY_COLUMNS)
        for h, c in zip(header, row):
            if h in TEXT_COLUMNS:
                table.setdefault(h, []).append(c)
            else:
                table.setdefault(f"{h} [{keys}]", []).append(float(c))
    doc = {"header": header, "table": table}
    doc.update(meta)
    return doc


def _arrays(doc) -> dict:
    """Float fields by array: floats in one list of scalars share a key."""
    groups: dict = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                if k not in EXACT:
                    walk(v, path + (k,))
        elif isinstance(node, list):
            for k, v in enumerate(node):
                walk(v, path + (k,) if isinstance(v, (dict, list)) else path)
        elif isinstance(node, float):
            groups.setdefault(path, []).append(node)

    walk(doc, ())
    return groups


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
    suffix = _suffix(name)
    load = _csv_doc if suffix == ".csv" else json.loads
    out = tmp_path / f"out{suffix}"
    assert main(argv + ["-o", str(out)]) == 0
    got = load(out.read_text())
    want = load((GOLDEN / f"{name}{suffix}").read_text())
    assert got.pop("version") == __version__
    want.pop("version")
    assert _skeleton(got) == _skeleton(want)
    groups = _grades if "levels" in want.get("result", {}) else _arrays
    got_grades, want_grades = groups(got), groups(want)
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
