"""The error taxonomy: every check raises DataError (the input cannot serve
the request) or ConfigError (the request is at fault), and main maps the
class to its exit code and message prefix through one table."""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import math
import pathlib

import pytest

import pathsig.cli
from pathsig import ConfigError, DataError, LorenzParams
from pathsig.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pathsig"
GOLDEN = ROOT / "tests" / "golden"
UNIFORM = str(GOLDEN / "gen_events.csv")  # 3 channels, 256 rows on [0, 1]
NON_UNIFORM = str(GOLDEN / "path_n3.csv")

# (module file, class) raised outside the taxonomy on purpose
OUTSIDE = {
    ("dynamics.py", TypeError),  # Event's argument types
    ("__init__.py", AttributeError),  # the package's __getattr__
}


def _resolve(node, namespace):
    """What a Name or Attribute chain names in the module namespace, or
    None for a local name."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_every_raise_names_a_class_of_the_taxonomy():
    """Each raise in src/ constructs DataError, ConfigError or a subclass,
    so a new check cannot pick its exit code by accident. A bare raise
    passes, as does raising a local, an exception object made earlier (as
    io._raising raises a caught decoding error later): neither makes one."""
    wrong, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        name = "pathsig" if path.stem == "__init__" else f"pathsig.{path.stem}"
        namespace = vars(importlib.import_module(name))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            cls = _resolve(exc.func if isinstance(exc, ast.Call) else exc,
                           namespace)
            if cls is None and isinstance(exc, ast.Name):
                continue
            if isinstance(cls, type) and (
                    issubclass(cls, (DataError, ConfigError))
                    or (path.name, cls) in OUTSIDE):
                seen.add(cls)
                continue
            wrong.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert wrong == []
    assert {DataError, ConfigError, TypeError, AttributeError} <= seen


def test_both_classes_are_value_errors_and_exported():
    assert issubclass(DataError, ValueError)
    assert issubclass(ConfigError, ValueError)
    assert pathsig.cli.ConfigError is ConfigError
    assert {"DataError", "ConfigError"} <= set(pathsig.__all__)


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (DataError("d"), EXIT_DATA, "bad input"),
        (OSError("o"), EXIT_IO, "i/o error"),
        (ConfigError("c"), EXIT_CONFIG, "config error"),
        (ValueError("numpy's"), EXIT_CONFIG, "config error"),
    ],
    ids=["data", "os", "config", "plain-value-error"],
)
def test_main_maps_each_class_to_its_code_and_prefix(exc, code, prefix,
                                                     monkeypatch, capsys):
    def failing(cfg):
        raise exc

    monkeypatch.setattr(pathsig.cli, "run", failing)
    assert main(["sig", UNIFORM]) == code
    assert capsys.readouterr().err == f"pathsig: {prefix}: {exc}\n"


def _csv(tmp_path, name, rows):
    f = tmp_path / name
    f.write_text("".join(rows))
    return str(f)


def _inputs(tmp_path):
    """Files the moved cases read, by the name their argv uses."""
    rows200 = ["t,a,b,c\n"] + [f"{k},{k % 3},{k % 5},{k % 7}\n" for k in range(200)]
    twins = ["t,a,b\n"] + [f"{k},{k * k % 11},{k * k % 11}\n" for k in range(50)]
    events = {"time": 0.4, "leader": 1, "follower": 2}
    return {
        "ROWS200": _csv(tmp_path, "rows200.csv", rows200),
        "ONE_ROW": _csv(tmp_path, "one.csv", ["t,a,b\n", "0,1,2\n"]),
        "TWINS": _csv(tmp_path, "twins.csv", twins),
        "EV_TIME": _csv(tmp_path, "time.json",
                        [json.dumps([dict(events, time=1.5)])]),
        "EV_CHANNEL": _csv(tmp_path, "channel.json",
                           [json.dumps([dict(events, leader=4)])]),
    }


_WINDOWED = ["--pairs", "1,2", "--smooth-sigma", "0", "--stride", "0.1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["xcorr", NON_UNIFORM, "--pairs", "1,2", "--lags", "0.1"],
         "cross_correlation requires a uniform time grid"),
        (["granger", NON_UNIFORM, "--caused", "1"],
         "granger_var requires a uniform time grid"),
        (["leadmatrix", NON_UNIFORM, "--smooth-sigma", "0.1"],
         "gaussian_smooth requires a uniform time grid"),
        (["slidearea", UNIFORM, "--window", "2"] + _WINDOWED,
         "window is longer than the series"),
        (["slidearea", NON_UNIFORM, "--window", "1e3"] + _WINDOWED,
         "window is longer than the series"),
        (["slidearea", UNIFORM, "--window", "0.0001"] + _WINDOWED,
         "window is shorter than the sample spacing"),
        (["influence", NON_UNIFORM, "--pairs", "1,2", "--window", "0.0001",
          "--stride", "0.1"], "no window contains a full segment"),
        (["xcorr", UNIFORM, "--pairs", "1,2", "--lags", "5"],
         "max_lag 5 is not under the series duration 1"),
        (["granger", "ROWS200", "--caused", "2", "--order", "300"],
         "need more than 905 samples for order 300, got 200"),
        (["influence", "ONE_ROW", "--pairs", "1,2"],
         "signature_derivative needs at least 2 samples"),
        (["slidearea", UNIFORM, "--pairs", "1,5", "--window", "0.1",
          "--stride", "0.05", "--smooth-sigma", "0"], "channel 5 outside [1, 3]"),
        (["granger", UNIFORM, "--caused", "4"], "channel 4 outside [1, 3]"),
        (["granger", UNIFORM, "--caused", "1", "--covariates", "2", "3"],
         "covariates span all channels; no candidate cause left"),
        (["granger", "TWINS", "--caused", "1"], "singular design matrix in VAR fit"),
        (["gen", "events", "--events", "EV_TIME"], "event time 1.5 outside [0, 1]"),
        (["gen", "events", "--events", "EV_CHANNEL"],
         "event channel 4 outside [1, 3]"),
    ],
    ids=["xcorr-grid", "granger-grid", "smoothing-grid", "window-uniform",
         "window-non-uniform", "window-under-dt", "window-no-segment",
         "lag-past-the-series", "granger-too-few", "influence-one-row",
         "pair-channel", "granger-channel", "covariates-span-all",
         "granger-singular", "event-time", "event-channel"],
)
def test_what_the_input_cannot_serve_is_bad_input(argv, message, tmp_path,
                                                  capsys):
    """These exited 5 as config errors; the input's grid, length, channel
    count or values are at fault, so they exit 3."""
    files = _inputs(tmp_path)
    out_file = tmp_path / "out"
    argv = [files.get(a, a) for a in argv] + ["-o", str(out_file)]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"pathsig: bad input: {message}\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["slidearea", UNIFORM, "--pairs", "1,2", "--window", "0.1", "--stride",
          "0.05", "--smooth-sigma", "0", "--replicates", "4", "--seed", "1",
          "--min-run", "0"], "min_run_length must be >= 1, got 0"),
        (["sig", UNIFORM, "--level", "0"], "level must be in [1, 6], got 0"),
        (["xcorr", UNIFORM, "--pairs", "1,2", "--lags", "-1"],
         "max_lag must be > 0, got -1.0"),
        (["granger", UNIFORM, "--caused", "1", "--order", "0"],
         "order must be >= 1, got 0"),
    ],
    ids=["min-run", "level", "lags", "order"],
)
def test_a_bad_option_stays_a_config_error(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"pathsig: config error: {message}\n"


@pytest.mark.parametrize(
    "flag, message",
    [(["--min-run", "0"], "min_run_length must be >= 1, got 0"),
     (["--sigmas", "-1"], "band_sigmas must be > 0, got -1.0")],
    ids=["min-run", "sigmas"],
)
def test_the_null_options_are_checked_before_the_input_is_read(flag, message,
                                                               tmp_path, capsys):
    """A missing input would exit 4; the null's options fail first."""
    argv = ["influence", str(tmp_path / "missing.csv"), "--pairs", "1,2",
            "--replicates", "3", "--seed", "1"] + flag
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"pathsig: config error: {message}\n"


@pytest.mark.parametrize(
    "field, flag, value",
    [("dt", "--dt", math.nan), ("x0", "--x0", math.nan),
     ("sigma", "--sigma", math.inf), ("rho", "--rho", math.nan),
     ("beta", "--beta", -math.inf)],
    ids=["dt", "x0", "sigma", "rho", "beta"],
)
def test_lorenz_refuses_a_non_finite_parameter(field, flag, value, capsys):
    """Before, each ran and failed as `non-finite state at step 1`, which
    for x0 named the wrong step: the start itself is not finite."""
    given = f"1,1,{value}" if field == "x0" else str(value)
    assert main(["gen", "lorenz", "--steps", "10", f"{flag}={given}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"pathsig: config error: {field} must be finite, got {value}\n")
    kwargs = {field: (1.0, 1.0, value) if field == "x0" else value}
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        LorenzParams(**kwargs)


def test_lorenz_refuses_a_last_time_past_float64(capsys):
    """A field that is zero everywhere never diverges, so the overflow
    would first show in the times, as a bad input."""
    argv = ["gen", "lorenz", "--sigma", "0", "--rho", "0", "--beta", "0",
            "--x0", "0,0,0", "--dt", "1e305", "--steps", "2000"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "pathsig: config error: steps x dt must be finite, got inf\n")


def test_noise_past_float64_is_a_config_error(capsys):
    """The generator makes the values, so their overflow is the option's."""
    assert main(["gen", "cyclic", "--samples", "32", "--noise", "1e308"]) == (
        EXIT_CONFIG)
    assert capsys.readouterr().err == (
        "pathsig: config error: the noise is not finite at noise_sigma=1e+308\n")
