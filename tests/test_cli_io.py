from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathsig import LeadMatrix, Path, SignificanceReport, signature
from pathsig.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_USAGE,
    build_parser,
    main,
)
from pathsig.dynamics import cyclic_pair
from pathsig.io import (
    CsvFormatError,
    _floats,
    canonical_json,
    curves_csv_blocks,
    lead_matrix_csv_blocks,
    load_path_csv,
    path_csv_blocks,
    reports_csv_blocks,
)
from conftest import leaf_commands, random_path

GOLDEN = pathlib.Path(__file__).parent / "golden"
UNIFORM = str(GOLDEN / "gen_events.csv")  # 3 channels, dt = 1/255
NON_UNIFORM = str(GOLDEN / "path_n3.csv")


# ---------------------------------------------------------------------------
# CSV parsing


def test_minimal_csv():
    a = load_path_csv(io.StringIO("t,a\n0,1\n1,2\n"))
    assert a.n_samples == 2
    assert a.n_channels == 1
    assert a.channel_names == ("a",)
    assert np.array_equal(a.values[:, 0], [1.0, 2.0])


def test_non_monotone_time_is_rejected_with_context():
    with pytest.raises(CsvFormatError, match="increas"):
        load_path_csv(io.StringIO("t,a\n0,1\n0,2\n"))


def test_non_numeric_cell_reports_row_and_column():
    with pytest.raises(CsvFormatError, match=r"row 3.*column 2"):
        load_path_csv(io.StringIO("t,a\n0,1\n1,oops\n"))


def test_empty_and_headerless_inputs():
    with pytest.raises(CsvFormatError, match="empty"):
        load_path_csv(io.StringIO(""))
    with pytest.raises(CsvFormatError):
        load_path_csv(io.StringIO("t\n0\n"))
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_path_csv(io.StringIO("t,a\n"))


def test_ragged_row_is_rejected():
    with pytest.raises(CsvFormatError, match="columns"):
        load_path_csv(io.StringIO("t,a\n0,1\n1\n"))


def test_comment_lines_are_skipped():
    text = "# kind=dataset\n# config={}\nt,a\n0,1\n1,2\n"
    a = load_path_csv(io.StringIO(text))
    assert a.n_samples == 2


def _numbered_csv(n_rows, **replaced):
    """t,a rows k,k for k < n_rows; replaced maps "r<k>" to row k's text."""
    rows = [f"{k},{k}\n" for k in range(n_rows)]
    for key, row in replaced.items():
        rows[int(key[1:])] = row
    return io.StringIO("t,a\n" + "".join(rows))


@pytest.mark.parametrize("k", [0, 511, 512, 513, 1999])
def test_a_bad_cell_in_any_block_reports_its_row_and_column(k):
    """Row k is on line k + 2, wherever the reader's blocks split."""
    text = _numbered_csv(2000, **{f"r{k}": f"{k},1e\n"})
    with pytest.raises(CsvFormatError) as exc:
        load_path_csv(text)
    assert str(exc.value) == f"row {k + 2}, column 2: '1e' is not a number"


def test_a_bad_cell_after_a_quoted_multiline_field_keeps_its_line():
    """A quoted time spanning two lines moves the rows below it down one
    line; float() accepts the time, which ends in its newline."""
    text = _numbered_csv(1200, r600='"600\n",600\n', r900="900,9x9\n")
    with pytest.raises(CsvFormatError) as exc:
        load_path_csv(text)
    assert str(exc.value) == "row 903, column 2: '9x9' is not a number"


@pytest.mark.parametrize(
    "replaced, message",
    [
        ({"r700": "700,x\n", "r900": "900\n"},
         "row 702, column 2: 'x' is not a number"),
        ({"r700": "700\n", "r900": "900,x\n"},
         "row 702: expected 2 columns, got 1"),
        ({"r100": "100,x\n", "r400": '400,"' + "9" * 200_000 + '"\n'},
         "row 102, column 2: 'x' is not a number"),
    ],
    ids=["cell-then-ragged", "ragged-then-cell", "cell-then-over-the-limit"],
)
def test_the_first_fault_in_reading_order_is_reported(replaced, message):
    """A bad cell, a ragged row and a field over csv.field_size_limit() are
    reported in the order of the file, within a block as across blocks."""
    with pytest.raises(CsvFormatError) as exc:
        load_path_csv(_numbered_csv(1200, **replaced))
    assert str(exc.value) == message


def _float_or_none(cell):
    try:
        return float(cell)
    except ValueError:
        return None


# text near float()'s syntax (signs, exponents, "_", blanks, NUL, non-ASCII
# digits, nan and inf), exact float reprs and arbitrary text
_CELLS = st.one_of(
    st.floats().map(repr),
    st.text(st.sampled_from("0123456789+-.eE_ \t\n\0\u0661\u2003infatyINF"),
            max_size=8),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_CELLS, min_size=n, max_size=n), min_size=1,
                       max_size=4)))
def test_block_conversion_accepts_exactly_what_float_accepts(rows):
    """A block is converted bit for bit as float() converts each cell; a
    cell float() refuses is reported at its row and column."""
    lines = [3 * r + 2 for r in range(len(rows))]
    parsed = [[_float_or_none(cell) for cell in row] for row in rows]
    bad = [
        (line, c, cell)
        for line, row, values in zip(lines, rows, parsed)
        for c, (cell, value) in enumerate(zip(row, values), start=1)
        if value is None
    ]
    if not bad:
        assert _floats(rows, lines).tobytes() == np.array(parsed).tobytes()
        return
    with pytest.raises(CsvFormatError) as exc:
        _floats(rows, lines)
    line, c, cell = bad[0]
    assert str(exc.value) == (
        f"row {line}, column {c}: {cell!r} is not a number"
    )


def test_round_trip_is_bit_exact(rng):
    a = random_path(rng, n_samples=20, n_channels=3, uniform=False)
    back = load_path_csv(io.StringIO("".join(path_csv_blocks(a))))
    assert np.array_equal(back.times, a.times)
    assert np.array_equal(back.values, a.values)
    assert back.channel_names == a.channel_names


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
)
_FLOATS = st.one_of(
    _EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)
)
# the loader strips blanks around a header cell, so names carry none; NUL is
# left out because Python 3.10's csv reader refuses it
_NAMES = st.text(
    st.one_of(
        st.sampled_from(',"\n\r# '),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    ),
    max_size=6,
).map(str.strip)


@st.composite
def _csv_paths(draw):
    n = draw(st.integers(1, 3))
    times = sorted(draw(st.lists(_FLOATS, min_size=1, max_size=6, unique=True)))
    row = st.lists(_FLOATS, min_size=n, max_size=n)
    values = draw(st.lists(row, min_size=len(times), max_size=len(times)))
    names = draw(st.lists(_NAMES, min_size=n, max_size=n))
    return Path(np.array(times), np.array(values), tuple(names))


@settings(max_examples=200, deadline=None)
@given(_csv_paths())
# a time gap past the float64 range
@example(Path(np.array([-1e308, 1e308]), np.zeros((2, 1)), ("a",)))
def test_csv_round_trip_is_bit_exact_on_any_path(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        text = "".join(path_csv_blocks(a))
        back = load_path_csv(io.BytesIO(text.encode("utf-8")))
    assert back.times.tobytes() == a.times.tobytes()
    assert back.values.tobytes() == a.values.tobytes()
    assert back.channel_names == a.channel_names


# ---------------------------------------------------------------------------
# CSV writers against the cell-by-cell csv.writer loops they replaced


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell_path_to_csv(a: Path) -> str:
    buf = io.StringIO()
    header = ("time",) + tuple(a.channel_names)
    # csv quotes a name holding its line terminator "\n", not a lone "\r"
    lone_cr = any("\r" in h for h in header)
    quoting = csv.QUOTE_ALL if lone_cr else csv.QUOTE_MINIMAL
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerow(header)
    writer = csv.writer(buf, lineterminator="\n")
    for k in range(a.n_samples):
        writer.writerow(
            [_fmt(a.times[k])] + [_fmt(v) for v in a.values[k]]
        )
    return buf.getvalue()


def _cell_lead_matrix_csv(matrix: LeadMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("",) + tuple(matrix.channel_names))
    for name, row in zip(matrix.channel_names, matrix.values):
        writer.writerow([name] + [_fmt(v) for v in row])
    return buf.getvalue()


_REPORT_COLUMNS = (
    "statistic",
    "i",
    "j",
    "time",
    "observed",
    "null_mean",
    "null_std",
    "band_lo",
    "band_hi",
    "significant",
)


def _cell_reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    for r in reports:
        i, j = r.pair if r.pair is not None else (0, 0)
        for k in range(len(r.times)):
            writer.writerow(
                [
                    r.statistic_name,
                    i,
                    j,
                    _fmt(r.times[k]),
                    _fmt(r.observed[k]),
                    _fmt(r.null_mean[k]),
                    _fmt(r.null_std[k]),
                    _fmt(r.band_lo[k]),
                    _fmt(r.band_hi[k]),
                    int(r.significant_mask[k]),
                ]
            )
    return buf.getvalue()


def _cell_curves_csv(curves) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("statistic", "i", "j", "time", "value"))
    for name, (i, j), times, vals in curves:
        for t, v in zip(times, vals):
            writer.writerow([name, i, j, _fmt(t), _fmt(v)])
    return buf.getvalue()


# a "\r" in a lead cell is left out: the writers now quote it (see below)
_LEADS = st.text(
    st.one_of(
        st.sampled_from(',"%\n #'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    ),
    max_size=5,
)
_ANY_FLOATS = st.one_of(_FLOATS, st.sampled_from([np.inf, -np.inf, np.nan]))


def _arrays(n, elements=_ANY_FLOATS):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@settings(max_examples=100, deadline=None)
@given(_csv_paths())
def test_path_csv_matches_cell_writer(a):
    assert "".join(path_csv_blocks(a)) == _cell_path_to_csv(a)


def test_path_csv_matches_cell_writer_across_blocks(rng):
    a = random_path(rng, n_samples=10_000, n_channels=3, uniform=False)
    assert "".join(path_csv_blocks(a)) == _cell_path_to_csv(a)


@st.composite
def _lead_matrices(draw):
    n = draw(st.integers(0, 4))
    names = draw(st.lists(_LEADS, min_size=n, max_size=n))
    values = draw(st.lists(_arrays(n), min_size=n, max_size=n))
    return LeadMatrix(tuple(names), np.array(values).reshape(n, n))


@settings(max_examples=100, deadline=None)
@given(_lead_matrices())
def test_lead_matrix_csv_matches_cell_writer(matrix):
    text = "".join(lead_matrix_csv_blocks(matrix))
    assert text == _cell_lead_matrix_csv(matrix)


@st.composite
def _reports(draw):
    n = draw(st.integers(0, 5))
    arrays = {
        name: draw(_arrays(n))
        for name in ("times", "observed", "null_mean", "null_std", "band_lo",
                     "band_hi")
    }
    return SignificanceReport(
        statistic_name=draw(_LEADS),
        pair=draw(st.one_of(st.none(), st.tuples(st.integers(0, 99),
                                                 st.integers(0, 99)))),
        significant_mask=draw(_arrays(n, st.booleans())).astype(bool),
        runs=(),
        replicates=2,
        seed=0,
        band_sigmas=3.0,
        band_mode="gaussian",
        min_run_length=1,
        **arrays,
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(_reports(), max_size=3))
def test_reports_csv_matches_cell_writer(reports):
    assert "".join(reports_csv_blocks(reports)) == _cell_reports_csv(reports)


_curves = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        _LEADS,
        st.tuples(st.integers(-9, 99), st.integers(-9, 99)),
        _arrays(n),
        _arrays(n),
    )
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_curves, max_size=3))
def test_curves_csv_matches_cell_writer(curves):
    assert "".join(curves_csv_blocks(curves)) == _cell_curves_csv(curves)


def test_a_lone_cr_in_a_name_or_statistic_reads_back_as_one_cell():
    matrix = LeadMatrix(("a\rb", "c"), np.array([[0.0, 1.5], [-1.5, 0.0]]))
    text = "".join(lead_matrix_csv_blocks(matrix))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["", "a\rb", "c"], ["a\rb", "0", "1.5"], ["c", "-1.5", "0"]]
    times = np.array([0.0, 1.0])
    rows = list(csv.reader(io.StringIO(
        "".join(curves_csv_blocks([("x\ry", (1, 2), times, times)]))
    )))
    assert [r[0] for r in rows] == ["statistic", "x\ry", "x\ry"]


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_is_sorted_and_newline_terminated():
    out = canonical_json({"b": 1, "a": [1.5, 2]})
    assert out == b'{"a":[1.5,2],"b":1}\n'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


# ---------------------------------------------------------------------------
# CLI exit codes


def write_csv(tmp_path, name="in.csv", body="t,a,b\n0,0,0\n1,1,2\n2,3,1\n"):
    f = tmp_path / name
    f.write_text(body)
    return str(f)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["sig", str(tmp_path / "absent.csv")]) == EXIT_IO
    assert "i/o" in capsys.readouterr().err


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = write_csv(tmp_path, body="t,a\n0,1\nnope,2\n")
    assert main(["sig", bad]) == EXIT_DATA
    capsys.readouterr()


def test_replicates_without_seed_is_config_error(tmp_path, capsys):
    f = write_csv(tmp_path)
    code = main(
        [
            "slidearea", f, "--pairs", "1,2", "--window", "0.5",
            "--stride", "0.25", "--smooth-sigma", "0", "--replicates", "10",
        ]
    )
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_slidearea_requires_explicit_smooth_sigma(tmp_path, capsys):
    f = write_csv(tmp_path)
    code = main(
        ["slidearea", f, "--pairs", "1,2", "--window", "0.5", "--stride", "0.25"]
    )
    assert code == EXIT_CONFIG
    assert "smooth-sigma" in capsys.readouterr().err


def test_xcorr_requires_lags(tmp_path, capsys):
    f = write_csv(tmp_path)
    assert main(["xcorr", f, "--pairs", "1,2"]) == EXIT_CONFIG
    capsys.readouterr()


def test_level_above_cap_is_config_error(tmp_path, capsys):
    f = write_csv(tmp_path)
    assert main(["sig", f, "--level", "9"]) == EXIT_CONFIG
    capsys.readouterr()


def test_signature_over_size_cap_is_config_error(tmp_path, capsys):
    header = "t," + ",".join(f"c{k}" for k in range(20))
    rows = [f"{t}," + ",".join(["0"] * 20) for t in range(3)]
    f = write_csv(tmp_path, body="\n".join([header] + rows) + "\n")
    tracemalloc.start()
    try:
        code = main(["sig", f, "--level", "6"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert peak < 2**20
    err = capsys.readouterr().err
    assert "over the cap" in err and err.count("\n") == 1


def _peak_of_main(argv):
    """Exit code of main(argv) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["influence", NON_UNIFORM, "--pairs", "1,2", "--window", "5",
             "--stride", "1e-7"],
            "windows, over the cap",
        ),
        (
            ["slidearea", UNIFORM, "--pairs", "1,2", "--window", "0.1",
             "--stride", "0.05", "--smooth-sigma", "1e9"],
            "smoothing kernel of 1.53e+12 samples is over the cap",
        ),
    ],
    ids=["time-windows", "smoothing-kernel"],
)
def test_oversized_allocation_is_config_error(argv, message, capsys):
    code, peak = _peak_of_main(argv)
    assert code == EXIT_CONFIG
    assert peak < 2**20
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_replicates_times_windows_over_the_cap_is_config_error(capsys):
    """Refused before the (replicates, windows) curve matrix is allocated;
    the peak is the input and the observed curve, computed first."""
    code, peak = _peak_of_main(
        ["slidearea", UNIFORM, "--pairs", "1,2", "--window", "0.1",
         "--stride", "0.05", "--smooth-sigma", "0", "--replicates",
         "1000000000", "--seed", "1"]
    )
    assert code == EXIT_CONFIG
    assert peak < 2**22
    assert capsys.readouterr().err == (
        "pathsig: config error: 1000000000 replicates x 18 windows is over "
        "the cap of 2097152\n"
    )


def test_stride_far_below_dt_starts_a_window_at_every_sample(capsys):
    common = ["slidearea", UNIFORM, "--pairs", "1,2", "--window", "0.1",
              "--smooth-sigma", "0"]
    code, peak = _peak_of_main(common + ["--stride", "1e-9"])
    assert code == 0 and peak < 2**20
    tiny = json.loads(capsys.readouterr().out)
    assert main(common + ["--stride", "0.003"]) == 0  # ~0.77 dt
    grid = json.loads(capsys.readouterr().out)
    assert tiny["curves"] == grid["curves"]
    assert len(tiny["curves"][0]["times"]) == 256 - 26  # one per start


@pytest.mark.parametrize("where", ["cell", "header"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_is_data_error(source, where, tmp_path, capsys,
                                      monkeypatch):
    body = b"t,a,b\n0,0,0\n1,1,2\n2,3,1\n"
    body = body.replace(b"2,3,1", b"2,\xff,1") if where == "cell" else (
        body.replace(b"t,a,b", b"t,\xff,b"))
    f = tmp_path / "in.csv"
    f.write_bytes(body)
    for argv in (["sig"], ["leadmatrix", "--format", "csv"]):
        if source == "file":
            argv = argv + [str(f)]
        else:
            stdin = io.TextIOWrapper(io.BytesIO(body))
            monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "pathsig: bad input: not valid UTF-8: byte 0xff " \
            "(invalid start byte)\n"


def test_non_utf8_events_file_is_data_error(tmp_path, capsys):
    ev = tmp_path / "ev.json"
    ev.write_bytes(b'[{"time": 0.4, "leader": 2, "follower": 1, "x": "\xff"}]')
    assert main(["gen", "events", "--events", str(ev)]) == EXIT_DATA
    assert "not valid UTF-8" in capsys.readouterr().err


def test_window_longer_than_series_is_config_error(tmp_path, capsys):
    f = write_csv(tmp_path)
    code = main(
        [
            "slidearea", f, "--pairs", "1,2", "--window", "50",
            "--stride", "1", "--smooth-sigma", "0",
        ]
    )
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_diverging_lorenz_is_config_error(capsys):
    assert main(["gen", "lorenz", "--dt", "10", "--steps", "50"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pathsig: config error: non-finite state at step 3\n"


def test_influence_null_warns_once_about_nonzero_start():
    # every replicate repeats the warning; Python shows a repeated one once
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pathsig.cli", "influence", UNIFORM,
         "--pairs", "1,2", "--window", "0.2", "--stride", "0.05",
         "--replicates", "20", "--seed", "5"],
        capture_output=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().count("UserWarning") == 1


def test_bad_pair_token_is_config_error(tmp_path, capsys):
    f = write_csv(tmp_path)
    assert main(["xcorr", f, "--pairs", "12", "--lags", "1"]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("command", ["slidearea", "influence"])
@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
@pytest.mark.parametrize("value", ["1e308", "inf", "nan"])
@pytest.mark.parametrize("flag", ["--window", "--stride"])
def test_huge_or_non_finite_window_values(flag, value, grid, command, capsys):
    source, window, stride = (
        (UNIFORM, "0.1", "0.05") if grid == "uniform" else (NON_UNIFORM, "5", "2")
    )
    argv = [command, source, "--pairs", "1,2", "--window", window,
            "--stride", stride, "--smooth-sigma", "0"]
    argv[argv.index(flag) + 1] = value
    code = main(argv)
    out, err = capsys.readouterr()
    if (flag, value) == ("--stride", "1e308"):
        assert code == 0
        assert len(json.loads(out)["curves"][0]["times"]) == 1
        return
    assert code == EXIT_CONFIG and out == ""
    assert err.count("\n") == 1
    if value == "1e308":
        assert err == "pathsig: config error: window is longer than the series\n"
    else:
        name = "length" if flag == "--window" else "stride"
        assert err == f"pathsig: config error: window {name} must be finite, " \
            f"got {value}\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["leadmatrix", UNIFORM, "--smooth-sigma", "nan"], "smooth_sigma"),
        (["influence", UNIFORM, "--pairs", "1,2", "--window", "0.2",
          "--stride", "0.05", "--replicates", "4", "--seed", "1",
          "--sigmas", "nan"], "band_sigmas"),
    ],
    ids=["smooth-sigma", "sigmas"],
)
def test_nan_smoothing_or_band_is_config_error(argv, field, capsys):
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"pathsig: config error: {field} must be finite, got nan\n"


# finite samples whose increments and products overflow float64
HUGE = "t,a,b\n0,0,0\n1,1e308,-1e308\n2,-1e308,1e308\n3,1e308,-1e308\n"
# channel a sums past the float64 range, so its mean is not finite
CENT = "t,a,b\n0,1e308,0\n1,1e308,1\n2,1e308,0\n3,-1e308,1\n"
# channel a has a finite mean, but a centered value past the float64 range
CENT2 = ("t,a,b\n0,1.7e308,0\n1,-1.7e308,1\n2,-1.7e308,0\n3,1.7e308,1\n"
         "4,-1.7e308,0\n")
# a finite signature whose level-6 log overflows
BIGLOG = "t,a,b,c\n0,0,0,0\n1,1,5e51,1\n"
_HUGE_AREA = ["--pairs", "1,2", "--window", "1", "--stride", "1",
              "--smooth-sigma", "0"]
_NULL = ["--replicates", "4", "--seed", "1"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, result",
    [
        (["leadmatrix", HUGE], "the lead matrix is not finite"),
        (["slidearea", HUGE] + _HUGE_AREA,
         "the signed_area curve of pair 1,2 is not finite"),
        (["slidearea", HUGE] + _HUGE_AREA + _NULL,
         "the signed_area curve of pair 1,2 is not finite"),
        (["influence", HUGE, "--pairs", "1,2"],
         "the signature_derivative curve of pair 1,2 is not finite"),
        (["influence", HUGE, "--pairs", "1,2"] + _NULL,
         "the signature_derivative curve of pair 1,2 is not finite"),
        (["xcorr", HUGE, "--pairs", "1,2", "--lags", "1"],
         "the xcorr curve of pair 1,2 is not finite"),
        (["influence", UNIFORM, "--pairs", "1,2", "--window", "0.1",
          "--stride", "0.05", "--sigmas", "1e308"] + _NULL,
         "the null bands are not finite at band_sigmas=1e+308"),
    ],
    ids=["leadmatrix", "slidearea", "slidearea-null", "influence",
         "influence-null", "xcorr", "bands"],
)
def test_non_finite_result_is_a_named_config_error(argv, result, fmt,
                                                   tmp_path, capsys):
    """In either format: one line naming the result, no artifact and no
    numpy overflow warning."""
    huge = write_csv(tmp_path, body=HUGE)
    argv = [huge if a == HUGE else a for a in argv] + ["--format", fmt]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"pathsig: config error: {result}")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sig", HUGE], "non-finite coefficient at grade 1"),
        (["logsig", HUGE, "--level", "3"], "non-finite coefficient at grade 1"),
        (["logsig", BIGLOG, "--level", "6"], "non-finite coefficient at grade 6"),
        (["leadmatrix", HUGE, "--normalize", "per"],
         "cannot normalize: the range of channel a is not finite"),
        (["leadmatrix", HUGE, "--normalize", "global"],
         "cannot normalize: the global range is not finite"),
        (["sig", HUGE, "--normalize", "per"],
         "cannot normalize: the range of channel a is not finite"),
        (["slidearea", HUGE, "--normalize", "global"] + _HUGE_AREA + _NULL,
         "cannot normalize: the global range is not finite"),
        (["leadmatrix", CENT, "--center"],
         "cannot center: the mean of channel a is not finite"),
        (["slidearea", CENT, "--center", "--normalize", "per"]
         + _HUGE_AREA + _NULL,
         "cannot center: the mean of channel a is not finite"),
        (["leadmatrix", CENT2, "--center"],
         "cannot center: channel a overflows"),
        (["leadmatrix", CENT2, "--center", "--normalize", "per"],
         "cannot center: channel a overflows"),
    ],
    ids=["sig", "logsig", "logsig-level6", "leadmatrix-per",
         "leadmatrix-global", "sig-per", "slidearea-null-global", "leadmatrix-center",
         "slidearea-null-center-per", "leadmatrix-center-values",
         "leadmatrix-center-values-per"],
)
def test_overflow_in_a_signature_or_a_range_is_one_line(argv, message,
                                                        tmp_path, capsys):
    """A signature or its log, or a channel range met by normalization, or
    a channel mean or centered value met by centering, that overflows
    float64 ends in one named line and no numpy warning."""
    files = {HUGE: write_csv(tmp_path, body=HUGE),
             BIGLOG: write_csv(tmp_path, "biglog.csv", body=BIGLOG),
             CENT: write_csv(tmp_path, "cent.csv", body=CENT),
             CENT2: write_csv(tmp_path, "cent2.csv", body=CENT2)}
    argv = [files.get(a, a) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"pathsig: config error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# channel a alternates +-0.85e308: its mean in time order is finite, but a
# shuffled order can sum past the float64 range
ALT = "t,a,b\n" + "".join(
    f"{i},{0.85e308 if i % 2 == 0 else -0.85e308},{(7 * i) % 5}\n"
    for i in range(40))
_ALT_AREA = ["slidearea", ALT, "--pairs", "1,2", "--window", "10", "--stride",
             "5", "--smooth-sigma", "0", "--center", "--normalize", "per"]


def test_a_replicate_that_cannot_be_centered_is_named(tmp_path, capsys):
    """The observed series centers, so the run without a null exits 0; a
    shuffled replicate whose mean overflows ends the null run with exit 5
    and one line that says a replicate failed."""
    argv = [write_csv(tmp_path, "alt.csv", body=ALT) if a == ALT else a
            for a in _ALT_AREA]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
        assert main(argv + ["--replicates", "20", "--seed", "1"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert json.loads(out)["curves"][0]["pair"] == [1, 2]
    assert err == ("pathsig: config error: a shuffled replicate failed: "
                   "cannot center: the mean of channel a is not finite\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("pairs", ["1,5", "5,1"])
def test_a_null_pair_outside_the_channels_is_one_line(pairs, tmp_path, capsys):
    """A pair that names a channel past the CSV's exits 5 with the
    statistic's own line, not an IndexError from the channel selection."""
    body = "t,a,b,c\n" + "".join(f"{i},{i % 3},{i % 5},{i % 7}\n" for i in range(40))
    argv = ["slidearea", write_csv(tmp_path, body=body), "--pairs", pairs,
            "--window", "10", "--stride", "5", "--smooth-sigma", "2",
            "--replicates", "10", "--seed", "1"]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pathsig: config error: channel 5 outside [1, 3]\n"


# channels rising smoothly to 1.3e154: the observed window areas are
# finite, but a shuffled copy's jumps of ~1e154 overflow a replicate's curve
RISE = "t,a,b\n" + "".join(
    f"{k},{1.3e154 * k / 199!r},{1.3e154 * (k / 199) ** 2!r}\n"
    for k in range(200))
_RISE_WINDOW = ["--pairs", "1,2", "--window", "20", "--stride", "5"]


@pytest.mark.filterwarnings("ignore:channel 1 does not start at 0")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, name",
    [(["slidearea", RISE, "--smooth-sigma", "0"] + _RISE_WINDOW, "signed_area"),
     (["influence", RISE] + _RISE_WINDOW, "signature_derivative")],
    ids=["slidearea", "influence"],
)
def test_a_replicate_whose_curve_overflows_is_named(argv, name, fmt,
                                                    tmp_path, capsys):
    """The observed curve is finite, so the run without a null exits 0; a
    shuffled replicate whose curve overflows ends the null run with one
    line naming the statistic and the pair, not the bands."""
    out_file = tmp_path / "out"
    argv = [write_csv(tmp_path, "rise.csv", body=RISE) if a == RISE else a
            for a in argv] + ["--format", fmt, "-o", str(out_file)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(argv) == 0
        out_file.unlink()
        assert main(argv + ["--replicates", "20", "--seed", "1"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pathsig: config error: a shuffled replicate failed: "
                   f"the {name} curve of pair 1,2 is not finite\n")
    assert caught == []
    assert not out_file.exists()


@pytest.mark.filterwarnings("ignore:channel 1 does not start at 0")
@pytest.mark.parametrize("band_mode", ["gaussian", "quantile"])
def test_a_null_mean_that_overflows_is_named(band_mode, tmp_path, capsys):
    """Pointwise, every replicate's stream is finite but their mean is not:
    the run names the mean, not band_sigmas, which quantile bands do not
    use."""
    argv = ["influence", write_csv(tmp_path, "rise.csv", body=RISE), "--pairs",
            "1,2", "--replicates", "20", "--seed", "1", "--band-mode", band_mode]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pathsig: config error: the null mean is not finite\n"


def test_a_time_gap_past_float64_is_not_a_warning(tmp_path, capsys):
    """Times whose gaps overflow float64 are still increasing: the run
    succeeds with no numpy warning, and the grid is not uniform."""
    gap = write_csv(tmp_path, "gap.csv",
                    body="t,a,b\n-1e308,0,0\n1e308,1,5\n1.5e308,1,1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["leadmatrix", gap]) == 0
        assert not load_path_csv(gap).is_uniform()
    out, err = capsys.readouterr()
    assert json.loads(out)["result"]["A"] == [[0.0, -2.0], [2.0, 0.0]]
    assert err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# the midpoint of the first gap overflows, so an influence time is inf
GAP = "time,a,b\n-1e308,0,1\n1e308,1,0\n1.5e308,2,3\n"
# windows of 8e307 from 0 reach 1.6e308, whose window center overflows
BIG = "time,a,b\n0,0,1\n8e307,1,0\n1.6e308,2,3\n"


@pytest.mark.parametrize("null", [[], _NULL], ids=["curve", "null"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["influence", GAP, "--pairs", "1,2"], "signature_derivative"),
        (["slidearea", BIG, "--pairs", "1,2", "--window", "8e307", "--stride",
          "8e307", "--smooth-sigma", "0"], "signed_area"),
    ],
    ids=["influence", "slidearea"],
)
def test_a_curve_time_that_overflows_is_a_named_config_error(
    argv, name, fmt, null, tmp_path, capsys
):
    """Window or midpoint times past float64 end the run, with or without a
    null: one line naming the pair, no warning and no artifact."""
    files = {GAP: write_csv(tmp_path, "gap.csv", body=GAP),
             BIG: write_csv(tmp_path, "big.csv", body=BIG)}
    out_file = tmp_path / "out"
    argv = [files.get(a, a) for a in argv] + null + [
        "--format", fmt, "-o", str(out_file)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"pathsig: config error: the {name} curve of pair 1,2 "
                   "is not finite\n")
    assert caught == []
    assert not out_file.exists()


def test_prepending_the_origin_past_float64_is_one_line(tmp_path, capsys):
    gap = write_csv(tmp_path, "gap.csv", body=GAP)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["leadmatrix", gap, "--prepend-zero"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pathsig: config error: cannot prepend the origin sample: "
                   "the time step overflows float64\n")
    assert caught == []


def test_a_refused_influence_window_does_not_warn_first(tmp_path, capsys):
    """The windows are chosen before the stream integral, which warns when
    channel 1 does not start at 0, so a refused window is the one line."""
    t = np.cumsum(1.0 + 0.5 * np.sin(np.arange(200.0)))
    body = "t,a,b\n" + "".join(
        f"{x!r},{2.0 + math.sin(x)!r},{math.cos(x)!r}\n" for x in t.tolist())
    f = write_csv(tmp_path, "nu.csv", body=body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["influence", f, "--pairs", "1,2", "--window", "5",
                     "--stride", "1e-12"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pathsig: config error: stride 1e-12 gives ")
    assert err.endswith(" windows, over the cap of 2097152\n")
    assert err.count("\n") == 1
    assert caught == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cyclic", "--samples", "100", "--n-events", "1000000000"],
         "n_events 1000000000 is more than samples 100"),
        (["cyclic", "--samples", "1000000000"],
         "1000000000 samples is over the cap of 2097152"),
        (["events", "--samples", "1000000000"],
         "1000000000 samples is over the cap of 2097152"),
        (["lorenz", "--steps", "1000000000"],
         "1000000000 steps give 1000000001 samples, over the cap of 2097152"),
        (["lorenz", "--steps", "2097152"],
         "2097152 steps give 2097153 samples, over the cap of 2097152"),
    ],
    ids=["n-events", "cyclic-samples", "events-samples", "lorenz-steps",
         "lorenz-first-over-cap"],
)
def test_gen_over_the_row_cap_is_config_error(argv, message, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, peak = _peak_of_main(["gen"] + argv + ["-o", str(out_file)])
    assert code == EXIT_CONFIG
    assert peak < 2**20
    assert not out_file.exists()
    assert capsys.readouterr().err == f"pathsig: config error: {message}\n"


# ---------------------------------------------------------------------------
# artifacts


def test_sig_command_matches_closed_form(tmp_path, capsys):
    f = write_csv(tmp_path, body="t,a,b\n0,0,0\n1,1,2\n")
    assert main(["sig", f, "--level", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "signature"
    assert doc["config"]["level"] == 2
    levels = doc["result"]["levels"]
    assert levels[0] == [1.0]
    assert levels[1] == [1.0, 2.0]
    assert levels[2] == [0.5, 1.0, 1.0, 2.0]


def test_logsig_lyndon_coefficient_is_signed_area(tmp_path, capsys):
    body = "t,a,b\n" + "".join(
        f"{t},{x},{y}\n"
        for t, x, y in zip(
            range(5), [0, 1, 2, 1, 0.5], [0, 2, 1, -1, 0.25]
        )
    )
    f = write_csv(tmp_path, body=body)
    assert main(["logsig", f, "--level", "2", "--lyndon"]) == 0
    doc = json.loads(capsys.readouterr().out)
    a = load_path_csv(io.StringIO(body))
    s = signature(a, 2)
    area = 0.5 * (s.coefficient((1, 2)) - s.coefficient((2, 1)))
    by_word = {tuple(e["word"]): e["coefficient"] for e in doc["lyndon"]}
    assert by_word[(1, 2)] == pytest.approx(area, abs=1e-12)
    assert by_word[(1,)] == pytest.approx(0.5)


def test_leadmatrix_json_schema(tmp_path, capsys):
    f = write_csv(tmp_path)
    assert main(["leadmatrix", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc["result"]
    assert result["channels"] == ["a", "b"]
    m = np.array(result["A"])
    assert m.shape == (2, 2)
    assert np.array_equal(m, -m.T)


def test_slidearea_csv_report_is_tidy(tmp_path, capsys):
    t = np.linspace(0.0, 1.0, 60)
    body = "t,a,b\n" + "".join(
        f"{tt},{np.sin(6 * tt)},{np.cos(6 * tt)}\n" for tt in t
    )
    f = write_csv(tmp_path, body=body)
    code = main(
        [
            "slidearea", f, "--pairs", "1,2", "--window", "0.3",
            "--stride", "0.1", "--smooth-sigma", "0", "--replicates", "8",
            "--seed", "3", "--format", "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[:4] == ["statistic", "i", "j", "time"]
    assert "significant" in header
    assert len(lines) > 2
    assert "# seed=3" in out


def test_influence_without_window_is_pointwise(tmp_path, capsys):
    f = write_csv(tmp_path, body="t,a,b\n0,0,0\n1,1,1\n2,2,0\n3,3,2\n")
    code = main(["influence", f, "--pairs", "1,2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "influence"
    curve = doc["curves"][0]
    assert curve["pair"] == [1, 2]
    assert len(curve["times"]) == 3  # T - 1 midpoints


def test_granger_artifact(tmp_path, capsys):
    rng = np.random.default_rng(0)
    t = np.arange(300.0)
    x = rng.normal(size=300)
    y = np.concatenate([[0.0], 0.9 * x[:-1]]) + rng.normal(0, 0.1, 300)
    body = "t,a,b\n" + "".join(
        f"{tt},{xx},{yy}\n" for tt, xx, yy in zip(t, x, y)
    )
    f = write_csv(tmp_path, body=body)
    assert main(["granger", f, "--caused", "2", "--order", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["C"] > 0.5
    assert doc["config"]["caused"] == 2


def test_a_granger_design_over_the_cap_is_one_line(tmp_path, capsys):
    """On 4,000 rows of 2 channels, --order 1000 asks for a 3,000 x 2,001
    design matrix: refused before it is built, where it used to take
    seconds and ~170 MB."""
    f = str(tmp_path / "cyclic.csv")
    assert main(["gen", "cyclic", "--samples", "4000", "--noise", "0.1",
                 "--seed", "1", "-o", f]) == 0
    assert main(["granger", f, "--caused", "2", "--order", "1000"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pathsig: config error: order 1000 needs a design matrix "
                   "of 6003000 cells, over the cap of 2097152\n")


def test_gen_lorenz_round_trips_through_loader(tmp_path):
    out = tmp_path / "lor.csv"
    assert main(["gen", "lorenz", "--steps", "50", "-o", str(out)]) == 0
    a = load_path_csv(str(out))
    assert a.n_samples == 51
    assert a.channel_names == ("x", "y", "z")


def test_gen_events_uses_custom_events_file(tmp_path, capsys):
    ev = tmp_path / "ev.json"
    ev.write_text('[{"time": 0.4, "leader": 2, "follower": 1, "lag": 0.05}]')
    out = tmp_path / "ev.csv"
    code = main(
        ["gen", "events", "--events", str(ev), "--samples", "400", "-o", str(out)]
    )
    assert code == 0
    a = load_path_csv(str(out))
    assert a.times[np.argmax(a.values[:, 1])] == pytest.approx(0.4, abs=0.01)


def test_gen_events_rejects_bad_file(tmp_path, capsys):
    ev = tmp_path / "ev.json"
    ev.write_text("{}")
    assert main(["gen", "events", "--events", str(ev)]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize(
    "event",
    [
        '{"time": "a", "leader": 1, "follower": 2}',
        '{"time": 0.5, "leader": 1, "follower": 2, "lag": null}',
        '{"time": 0.5, "leader": 1.0, "follower": 2}',
        '{"time": 0.5, "leader": 1, "follower": true}',
        '{"time": 0.5, "leader": 1, "follower": 2, "width": [0.1]}',
    ],
)
def test_gen_events_rejects_non_numeric_field(tmp_path, capsys, event):
    ev = tmp_path / "ev.json"
    ev.write_text(f"[{event}]")
    assert main(["gen", "events", "--events", str(ev)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("pathsig: bad input: event 0:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field", ['"width": 0', '"width": -0.1', '"lag": NaN', '"amplitude": -Infinity']
)
def test_gen_events_rejects_bad_field_value(field, tmp_path, capsys):
    ev = tmp_path / "ev.json"
    ev.write_text(f'[{{"time": 0.4, "leader": 1, "follower": 2, {field}}}]')
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["gen", "events", "--events", str(ev), "-o", str(out)])
    assert code == EXIT_DATA
    assert not caught
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("pathsig: bad input: event 0: ") and err.count("\n") == 1


@pytest.mark.parametrize("noise", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("generator", ["cyclic", "events"])
def test_gen_rejects_non_finite_or_negative_noise(generator, noise, tmp_path,
                                                  capsys):
    out = tmp_path / "out.csv"
    argv = ["gen", generator, "--samples", "32", f"--noise={noise}", "-o", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"pathsig: config error: noise_sigma must be finite and >= 0: "
        f"{float(noise)}\n"
    )


# ---------------------------------------------------------------------------
# environment overrides


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_env_provides_default(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    monkeypatch.setenv("PATHSIG_LEVEL", "3")
    assert main(["sig", f]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["level"] == 3
    assert len(doc["result"]["levels"]) == 4
    monkeypatch.setenv("PATHSIG_SAMPLES", "40")
    monkeypatch.setenv("PATHSIG_N_EVENTS", "2")
    assert main(["gen", "cyclic"]) == 0
    out = capsys.readouterr().out
    assert '"n_events":2' in out and '"samples":40' in out
    assert load_path_csv(io.StringIO(out)).n_samples == 40
    monkeypatch.setenv("PATHSIG_LYNDON", "yes")
    assert main(["logsig", f]) == 0
    assert "lyndon" in _json_out(capsys)


def test_cli_flag_beats_env(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    monkeypatch.setenv("PATHSIG_LEVEL", "3")
    assert main(["sig", f, "--level", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["level"] == 2
    monkeypatch.setenv("PATHSIG_CENTER", "true")
    monkeypatch.setenv("PATHSIG_PAIRS", "2,1")
    argv = ["xcorr", f, "--no-center", "--pairs", "1,2", "--lags", "1"]
    assert main(argv) == 0
    config = _json_out(capsys)["config"]
    assert config["pairs"] == [[1, 2]]
    assert config["preprocess"]["center"] is False


def test_bad_env_value_is_config_error(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    cases = [
        ("PATHSIG_LEVEL", "many", ["sig", f]),
        ("PATHSIG_CAUSED", "b", ["granger", f]),
        ("PATHSIG_COVARIATES", "1;x", ["granger", f, "--caused", "2"]),
        ("PATHSIG_LYNDON", "maybe", ["logsig", f]),
        ("PATHSIG_N_EVENTS", "four", ["gen", "cyclic"]),
    ]
    for name, value, argv in cases:
        monkeypatch.setenv(name, value)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"pathsig: config error: bad value for {name}:")
        monkeypatch.delenv(name)


def test_env_can_satisfy_required_seed(tmp_path, capsys, monkeypatch):
    f = write_csv(
        tmp_path,
        body="t,a,b\n" + "".join(f"{k},{k%5},{(k*2)%7}\n" for k in range(30)),
    )
    monkeypatch.setenv("PATHSIG_SEED", "11")
    code = main(
        [
            "slidearea", f, "--pairs", "1,2", "--window", "10",
            "--stride", "5", "--smooth-sigma", "0", "--replicates", "4",
        ]
    )
    assert code == 0
    doc = _json_out(capsys)
    assert doc["seed"] == 11
    monkeypatch.setenv("PATHSIG_CAUSED", "2")
    assert main(["granger", f]) == 0
    assert _json_out(capsys)["result"]["caused"] == 2


def _options(parser):
    return [
        a for a in parser._actions
        if a.option_strings and a.default is not argparse.SUPPRESS
    ]


COMMANDS = dict(leaf_commands(build_parser()))

# a value for every option dest; each differs from the built-in default
ENV_VALUES = {
    "format": "csv", "smooth_sigma": "0.01", "center": "yes",
    "normalize": "per", "prepend_zero": "on", "level": "3", "lyndon": "true",
    "window": "0.2", "stride": "0.1", "replicates": "4", "seed": "3",
    "sigmas": "2", "min_run": "2", "band_mode": "quantile",
    "pairs": "1,2;2,3", "lags": "0.05", "caused": "2", "covariates": "2;3",
    "order": "2", "sigma": "9", "rho": "20", "beta": "2", "x0": "0.5,1,2",
    "dt": "0.01", "steps": "30", "thin": "2", "n_events": "3",
    "phase_lag": "0.1", "warp_power": "2", "samples": "40", "noise": "0.1",
}


def _env_values(tmp_path) -> dict:
    events = tmp_path / "ev.json"
    events.write_text('[{"time": 0.4, "leader": 2, "follower": 1}]')
    return dict(ENV_VALUES, output=str(tmp_path / "out"), events=str(events))


def _flag(action, value: str) -> list:
    if action.nargs == 0:
        return [action.option_strings[0]]
    if action.nargs in ("+", "*"):
        return [action.option_strings[-1]] + value.replace(";", " ").split()
    return [action.option_strings[-1], value]


def _run(argv, env, out_file, monkeypatch, capsysbinary):
    """(exit code, stdout, output file) of one in-process run; the input
    CSV, where the command reads one, comes from stdin."""
    for name in [n for n in os.environ if n.startswith("PATHSIG_")]:
        monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    stdin = io.TextIOWrapper(io.BytesIO(pathlib.Path(UNIFORM).read_bytes()))
    monkeypatch.setattr(sys, "stdin", stdin)
    out_file.unlink(missing_ok=True)
    code = main(argv)
    written = out_file.read_bytes() if out_file.exists() else None
    return code, capsysbinary.readouterr().out, written


@pytest.mark.parametrize("command", [" ".join(c) for c in COMMANDS])
def test_env_reaches_every_option(command, tmp_path, monkeypatch,
                                  capsysbinary):
    """PATHSIG_<DEST> acts like the flag, for each option of each command."""
    parser = COMMANDS[tuple(command.split())]
    values = _env_values(tmp_path)
    base = command.split()
    actions = _options(parser)
    assert {a.dest for a in actions} <= values.keys()
    out_file = pathlib.Path(values["output"])

    def run(skip, env):
        flags = [_flag(a, values[a.dest]) for a in actions if a is not skip]
        argv = base + [f for flag in flags for f in flag]
        return _run(argv, env, out_file, monkeypatch, capsysbinary)

    by_flag = run(None, {})
    assert by_flag[0] == 0
    for action in actions:
        name = "PATHSIG_" + action.dest.upper()
        assert run(action, {name: values[action.dest]}) == by_flag, name
        assert run(action, {}) != by_flag, f"{name} does not show"


@pytest.mark.parametrize("command", [" ".join(c) for c in COMMANDS])
def test_env_for_options_a_command_lacks_is_ignored(
    command, tmp_path, monkeypatch, capsysbinary
):
    parser = COMMANDS[tuple(command.split())]
    values = _env_values(tmp_path)
    base = command.split()
    own = {a.dest for a in _options(parser)}
    every = {a.dest for p in COMMANDS.values() for a in p._actions}
    foreign = {
        "PATHSIG_" + d.upper(): "bogus"
        for d in every | {"command", "generator", "version"} if d not in own
    }
    assert "PATHSIG_LEVEL" in foreign or "level" in own
    flags = [_flag(a, values[a.dest]) for a in _options(parser)]
    argv = base + [f for flag in flags for f in flag]
    out_file = pathlib.Path(values["output"])
    plain = _run(argv, {}, out_file, monkeypatch, capsysbinary)
    assert plain[0] == 0
    assert _run(argv, foreign, out_file, monkeypatch, capsysbinary) == plain


CHOICES = [
    (" ".join(command), action.dest)
    for command, parser in COMMANDS.items()
    for action in _options(parser)
    if action.choices is not None
]


def test_every_option_with_fixed_values_declares_its_choices():
    fixed = {"format", "normalize", "band_mode"}
    declared = {
        (" ".join(command), action.dest)
        for command, parser in COMMANDS.items()
        for action in _options(parser)
        if action.dest in fixed
    }
    assert set(CHOICES) == declared


@pytest.mark.parametrize("command, dest", CHOICES)
def test_a_value_outside_the_choices_is_refused(command, dest, monkeypatch,
                                                capsys):
    """As a flag, argparse refuses it (exit 2); from PATHSIG_<DEST>, the
    same table refuses it as a bad value (exit 5)."""
    parser = COMMANDS[tuple(command.split())]
    action = next(a for a in _options(parser) if a.dest == dest)
    argv = command.split() + [UNIFORM]
    assert main(argv + [action.option_strings[-1], "bogus"]) == EXIT_USAGE
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    name = "PATHSIG_" + dest.upper()
    monkeypatch.setenv(name, "bogus")
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"pathsig: config error: bad value for {name}: 'bogus'"
    )


# options that some commands require, checked after resolution
REQUIRED = {
    "slidearea": ("pairs", "window", "stride", "smooth_sigma"),
    "influence": ("pairs",),
    "xcorr": ("pairs", "lags"),
    "granger": ("caused",),
}
PRE_SET = {"center": True, "normalize": "per", "prepend_zero": True,
           "smooth_sigma": 0.01}
PRE_OFF = {"center": False, "normalize": "none", "prepend_zero": False,
           "smooth_sigma": 0.0}
PAIRS = [[1, 2], [2, 3]]
WINDOWED_SET = {
    "format": "csv", "pairs": PAIRS, "window": 0.2, "stride": 0.1,
    "replicates": 4, "seed": 3, "sigmas": 2.0, "min_run": 2,
    "band_mode": "quantile", "preprocess": PRE_SET,
}
GEN_SET = {"command": "gen", "format": "csv", "seed": 3}
GEN_OFF = {"command": "gen", "format": "csv", "seed": 0}

# command -> (config with every option of ENV_VALUES set, config with only
# the required options), recorded from the hand-written echo it replaced
ECHO = {
    "sig": (
        {"command": "sig", "format": "json", "level": 3,
         "preprocess": PRE_SET},
        {"command": "sig", "format": "json", "preprocess": PRE_OFF},
    ),
    "logsig": (
        {"command": "logsig", "format": "json", "level": 3, "lyndon": True,
         "preprocess": PRE_SET},
        {"command": "logsig", "format": "json", "preprocess": PRE_OFF},
    ),
    "leadmatrix": (
        {"command": "leadmatrix", "format": "csv", "preprocess": PRE_SET},
        {"command": "leadmatrix", "format": "json", "preprocess": PRE_OFF},
    ),
    "slidearea": (
        dict(WINDOWED_SET, command="slidearea"),
        {"command": "slidearea", "format": "json", "pairs": PAIRS,
         "window": 0.2, "stride": 0.1,
         "preprocess": dict(PRE_OFF, smooth_sigma=0.01)},
    ),
    "influence": (
        dict(WINDOWED_SET, command="influence"),
        {"command": "influence", "format": "json", "pairs": PAIRS,
         "preprocess": PRE_OFF},
    ),
    "xcorr": (
        {"command": "xcorr", "format": "csv", "lags": 0.05, "pairs": PAIRS,
         "preprocess": PRE_SET},
        {"command": "xcorr", "format": "json", "lags": 0.05, "pairs": PAIRS,
         "preprocess": PRE_OFF},
    ),
    "granger": (
        {"command": "granger", "format": "json", "caused": 2,
         "covariates": [2, 3], "order": 2, "preprocess": PRE_SET},
        {"command": "granger", "format": "json", "caused": 2,
         "covariates": [], "order": 1, "preprocess": PRE_OFF},
    ),
    "gen lorenz": (
        {"command": "gen", "format": "csv", "generator": {
            "name": "lorenz", "sigma": 9.0, "rho": 20.0, "beta": 2.0,
            "x0": [0.5, 1.0, 2.0], "dt": 0.01, "steps": 30, "thin": 2}},
        {"command": "gen", "format": "csv", "generator": {
            "name": "lorenz", "sigma": 10.0, "rho": 28.0,
            "beta": 2.6666666666666665, "x0": [1.0, 1.0, 1.0], "dt": 0.005,
            "steps": 10000, "thin": 1}},
    ),
    "gen cyclic": (
        dict(GEN_SET, generator={
            "name": "cyclic", "n_events": 3, "phase_lag": 0.1,
            "warp_power": 2.0, "samples": 40, "noise": 0.1, "seed": 3}),
        dict(GEN_OFF, generator={
            "name": "cyclic", "n_events": 4, "phase_lag": 0.25,
            "warp_power": 1.0, "samples": 2000, "noise": 0.0, "seed": 0}),
    ),
    "gen events": (
        dict(GEN_SET, generator={
            "name": "events", "events": "ev.json", "samples": 40,
            "noise": 0.1, "seed": 3}),
        dict(GEN_OFF, generator={
            "name": "events", "events": None, "samples": 2000,
            "noise": 0.0, "seed": 0}),
    ),
}


def _config_block(data: bytes) -> dict:
    """The JSON artifact's config, or a CSV artifact's `# config=` line."""
    if data.startswith(b"{"):
        return json.loads(data)["config"]
    prefix = "# config="
    lines = data.decode("utf-8").splitlines()
    line = next(x for x in lines if x.startswith(prefix))
    return json.loads(line[len(prefix):])


@pytest.mark.parametrize("command", [" ".join(c) for c in COMMANDS])
def test_config_echo_is_pinned(command, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)  # the events path is echoed as given
    values = dict(_env_values(tmp_path), output="out", events="ev.json")
    base = command.split()
    actions = _options(COMMANDS[tuple(base)])
    required = REQUIRED.get(base[0], ())
    echoes = []
    for chosen in (actions, [a for a in actions if a.dest in required]):
        argv = base + [f for a in chosen for f in _flag(a, values[a.dest])]
        code, out, written = _run(
            argv, {}, tmp_path / "out", monkeypatch, capsysbinary
        )
        assert code == 0
        echoes.append(_config_block(written or out))
    assert tuple(echoes) == ECHO[command]


@pytest.mark.parametrize(
    "command, dest",
    [(command, dest) for command, dests in REQUIRED.items() for dest in dests],
)
def test_a_missing_required_option_is_one_line(command, dest, tmp_path,
                                               monkeypatch, capsysbinary):
    """Without one of its required options a command exits 5 with one line
    naming the command and the flag; PATHSIG_<DEST> supplies it as well."""
    values = _env_values(tmp_path)
    actions = {a.dest: a for a in _options(COMMANDS[(command,)])}
    flags = [f for d in REQUIRED[command] if d != dest
             for f in _flag(actions[d], values[d])]
    out_file = tmp_path / "out"
    for name in [n for n in os.environ if n.startswith("PATHSIG_")]:
        monkeypatch.delenv(name)
    assert main([command, UNIFORM] + flags) == EXIT_CONFIG
    out, err = capsysbinary.readouterr()
    assert out == b""
    flag = actions[dest].option_strings[-1]
    assert err.decode() == f"pathsig: config error: {command} needs {flag}\n"
    by_env = _run([command] + flags, {"PATHSIG_" + dest.upper(): values[dest]},
                  out_file, monkeypatch, capsysbinary)
    flags += _flag(actions[dest], values[dest])
    by_flag = _run([command] + flags, {}, out_file, monkeypatch, capsysbinary)
    assert by_env[0] == 0
    assert by_env == by_flag


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["gen", "lorenz", "--x0", "1,2"], {},
         "--x0 needs exactly three components"),
        (["gen", "lorenz", "--x0", "a,b,c"], {}, "--x0 'a,b,c' is not x,y,z"),
        (["gen", "lorenz", "--thin", "0"], {}, "--thin must be >= 1"),
        (["gen", "cyclic", "--warp-power", "0"], {},
         "--warp-power must be positive"),
        (["gen", "cyclic", "--warp-power", "nan"], {},
         "--warp-power must be finite, got nan"),
        (["gen", "cyclic", "--warp-power", "inf"], {},
         "--warp-power must be finite, got inf"),
        (["slidearea", UNIFORM, "--window", "0.2", "--stride", "0.1",
          "--smooth-sigma", "0"], {"PATHSIG_PAIRS": ""}, "no pairs given"),
        (["slidearea", UNIFORM, "--window", "0.2", "--stride", "0.1",
          "--smooth-sigma", "0", "--pairs", "1.5,2"], {},
         "pair '1.5,2' is not of the form i,j"),
        (["slidearea", UNIFORM, "--window", "0.2", "--stride", "0.1",
          "--smooth-sigma", "0"], {"PATHSIG_PAIRS": "1,2;1.5,2"},
         "pair '1.5,2' is not of the form i,j"),
    ],
    ids=["x0-two", "x0-letters", "thin", "warp-power", "warp-power-nan",
         "warp-power-inf", "empty-env-pairs", "float-pair", "float-env-pair"],
)
def test_a_bad_option_is_refused_before_any_handler_runs(argv, env, message,
                                                         monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"pathsig: config error: {message}\n"


@pytest.mark.parametrize("generator, seed", [("events", "-1"), ("cyclic", "-5")])
def test_a_negative_seed_with_noise_is_one_line(generator, seed, capsys):
    """A noisy generator names the seed numpy's generator would refuse; a
    noiseless one never draws, so any seed runs."""
    argv = ["gen", generator, "--samples", "32", "--seed", seed]
    assert main(argv + ["--noise", "0.1"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pathsig: config error: seed must be >= 0 when "
                   f"noise_sigma > 0, got {seed}\n")
    assert main(argv) == 0


def test_gen_streams_its_csv_a_block_at_a_time(tmp_path):
    """Writing 200,000 generated rows peaks below the size of the file they
    make: the text is never held whole, in one string or in its bytes."""
    out = tmp_path / "gen.csv"
    assert main(["gen", "cyclic", "--samples", "64", "-o", str(out)]) == 0
    code, peak = _peak_of_main(["gen", "cyclic", "--samples", "200000",
                                "--noise", "0.05", "--seed", "1",
                                "-o", str(out)])
    assert code == 0
    assert peak < out.stat().st_size


def test_reading_a_csv_peaks_below_three_times_its_array(tmp_path, rng):
    """The reader converts a block of rows per numpy call, so no list of
    every row's cells or floats is built next to the parsed array."""
    a = random_path(rng, n_samples=10_000, n_channels=20, uniform=False)
    f = write_csv(tmp_path, body="".join(path_csv_blocks(a)))
    load_path_csv(f)
    tracemalloc.start()
    try:
        back = load_path_csv(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (back.times.nbytes + back.values.nbytes)


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_are_byte_identical(tmp_path, capfdbinary):
    f = write_csv(
        tmp_path,
        body="t,a,b\n" + "".join(f"{k},{k%5},{(k*3)%11}\n" for k in range(40)),
    )
    args = [
        "slidearea", f, "--pairs", "1,2", "2,1", "--window", "12",
        "--stride", "4", "--smooth-sigma", "0", "--replicates", "16",
        "--seed", "42",
    ]
    assert main(args) == 0
    first = capfdbinary.readouterr().out
    assert main(args) == 0
    second = capfdbinary.readouterr().out
    assert first == second
    assert first.endswith(b"\n")


def test_gen_is_byte_identical(capfdbinary):
    args = ["gen", "cyclic", "--samples", "64", "--noise", "0.1", "--seed", "6"]
    assert main(args) == 0
    first = capfdbinary.readouterr().out
    assert main(args) == 0
    assert first == capfdbinary.readouterr().out


def test_a_multi_block_gen_is_the_same_through_a_file_and_stdout(
    tmp_path, capfdbinary
):
    """10,000 rows are written as three blocks; both outputs carry the
    meta lines and then exactly path_csv_blocks' text."""
    argv = ["gen", "cyclic", "--samples", "10000", "--noise", "0.05",
            "--seed", "3"]
    out = tmp_path / "gen.csv"
    assert main(argv + ["-o", str(out)]) == 0
    assert main(argv) == 0
    streamed = capfdbinary.readouterr().out
    assert out.read_bytes() == streamed
    *meta, body = streamed.split(b"\n", 4)
    assert [line.split(b"=")[0] for line in meta] == [
        b"# kind", b"# version", b"# seed", b"# config"
    ]
    a = cyclic_pair(samples=10000, noise_sigma=0.05, seed=3)
    assert body == "".join(path_csv_blocks(a)).encode("utf-8")


def test_output_file_matches_stdout(tmp_path, capfdbinary):
    f = write_csv(tmp_path)
    out = tmp_path / "sig.json"
    assert main(["sig", f, "-o", str(out)]) == 0
    capfdbinary.readouterr()
    assert main(["sig", f]) == 0
    streamed = capfdbinary.readouterr().out
    assert out.read_bytes() == streamed
