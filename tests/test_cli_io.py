from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest

from pathsig import Path, signature
from pathsig.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_USAGE,
    main,
)
from pathsig.io import (
    CsvFormatError,
    canonical_json,
    load_path_csv,
    path_to_csv,
)
from conftest import random_path


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


def test_round_trip_is_bit_exact(rng):
    a = random_path(rng, n_samples=20, n_channels=3, uniform=False)
    back = load_path_csv(io.StringIO(path_to_csv(a)))
    assert np.array_equal(back.times, a.times)
    assert np.array_equal(back.values, a.values)
    assert back.channel_names == a.channel_names


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


def test_bad_pair_token_is_config_error(tmp_path, capsys):
    f = write_csv(tmp_path)
    assert main(["xcorr", f, "--pairs", "12", "--lags", "1"]) == EXIT_CONFIG
    capsys.readouterr()


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


# ---------------------------------------------------------------------------
# environment overrides


def test_env_provides_default(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    monkeypatch.setenv("PATHSIG_LEVEL", "3")
    assert main(["sig", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["level"] == 3
    assert len(doc["result"]["levels"]) == 4


def test_cli_flag_beats_env(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    monkeypatch.setenv("PATHSIG_LEVEL", "3")
    assert main(["sig", f, "--level", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["level"] == 2


def test_bad_env_value_is_config_error(tmp_path, capsys, monkeypatch):
    f = write_csv(tmp_path)
    monkeypatch.setenv("PATHSIG_LEVEL", "many")
    assert main(["sig", f]) == EXIT_CONFIG
    assert "PATHSIG_LEVEL" in capsys.readouterr().err


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
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 11


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


def test_output_file_matches_stdout(tmp_path, capfdbinary):
    f = write_csv(tmp_path)
    out = tmp_path / "sig.json"
    assert main(["sig", f, "-o", str(out)]) == 0
    capfdbinary.readouterr()
    assert main(["sig", f]) == 0
    streamed = capfdbinary.readouterr().out
    assert out.read_bytes() == streamed
