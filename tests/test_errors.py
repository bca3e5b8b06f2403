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
import warnings

import numpy as np
import pytest

import pathsig.cli
from pathsig import (ConfigError, DataError, LeadMatrix, LorenzParams, Path,
                     PreprocessConfig, SignificanceReport, TruncatedTensor,
                     close_path, concat, family_area, gaussian_smooth, inverse,
                     lead_matrix, one_variation, preprocess, reduce_path,
                     reparametrize, signature_oracle, signed_area,
                     signed_area_via_winding, winding_number)
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


def _no_runtime_warning(caught):
    return not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("noise", ["0", "0.1"])
def test_events_whose_bumps_sum_past_float64_are_bad_input(noise, tmp_path,
                                                           capsys):
    """Before: numpy's overflow warning, then `times and values must be
    finite` (exit 3) without noise, or `the noise is not finite` (exit 5)
    with it. The sum is checked before any noise is drawn."""
    events = tmp_path / "events.json"
    events.write_text(json.dumps(
        [{"time": 0.5, "leader": 1, "follower": 2, "width": 0.3,
          "amplitude": 1.5e308}] * 3))
    argv = ["gen", "events", "--events", str(events), "--samples", "33",
            "--noise", noise, "--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pathsig: bad input: the events' bumps sum past float64\n"
    assert _no_runtime_warning(caught)


# rows whose increments and areas overflow float64: 1e308 - (-1e308)
_HUGE = Path(np.arange(4.0), [[0.0, 0.0], [1e308, -1e308], [-1e308, 1e308],
                              [1e308, -1e308]])


@pytest.mark.parametrize("times", [[0.0, 1.7e308], [-1.7e308, 0.0, 1.7e308]],
                         ids=["closing-sum", "median-step"])
def test_close_path_past_float64_names_the_time_step(times):
    """Before: numpy's overflow warning, then the Path's DataError."""
    a = Path(times, np.arange(float(len(times)))[:, None])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="^cannot close the path: the "
                           "time step overflows float64$"):
            close_path(a)
        with pytest.raises(ConfigError, match="^cannot prepend the origin "
                           "sample: the time step overflows float64$"):
            preprocess(inverse(a), PreprocessConfig(prepend_zero=True))
    assert _no_runtime_warning(caught)


_ONE = Path([0.0], [[1.0, 2.0]])
_REPORT = dict(statistic_name="s", pair=None, times=np.zeros(2),
               observed=np.zeros(2), null_mean=np.zeros(2), null_std=np.zeros(2),
               band_lo=np.zeros(2), band_hi=np.zeros(2),
               significant_mask=np.zeros(2, bool), runs=(), replicates=2, seed=0,
               band_sigmas=3.0, band_mode="gaussian", min_run_length=1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Path(np.zeros(0), np.zeros((0, 1))), DataError,
         "times must be a 1-d array with at least one sample"),
        (lambda: concat(_ONE, Path([0.0], [[1.0]])), DataError,
         "channel-count mismatch: 2 vs 1"),
        (lambda: reparametrize(_HUGE, lambda t: t[1:]), ConfigError,
         "warp must map the time grid to a grid of equal length"),
        (lambda: close_path(_ONE), DataError, "close_path needs at least 2 samples"),
        (lambda: LeadMatrix(("a", "b"), np.zeros((2, 3))), ConfigError,
         r"expected \(2, 2\) matrix, got \(2, 3\)"),
        (lambda: family_area(np.zeros((4, 4)), 1, 2), DataError,
         r"alpha must have shape \(ns, nt, N\)"),
        (lambda: TruncatedTensor(2, 1, (np.ones(1),)), ConfigError,
         "expected 2 grade arrays, got 1"),
        (lambda: TruncatedTensor(2, 1, (np.ones(1), np.ones(3))), ConfigError,
         r"grade 1 must have 2 entries, got shape \(3,\)"),
        (lambda: TruncatedTensor.unit(2, 1).coefficient((1, 2)), ConfigError,
         r"word \(1, 2\) longer than truncation level 1"),
        (lambda: SignificanceReport(**dict(_REPORT, observed=np.zeros(3))),
         ConfigError, r"observed must have shape \(2,\)"),
    ],
    ids=["path-no-samples", "concat-channels", "warp-length", "close-one-sample",
         "lead-matrix-shape", "family-ndim", "tensor-grades", "tensor-grade-size",
         "word-past-level", "report-shape"],
)
def test_each_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_edge_cases_without_a_refusal():
    """One sample has no 1-variation to sum; the empty word's coefficient
    is the constant term."""
    assert one_variation(_ONE) == 0.0
    assert signature_oracle(_HUGE, ()) == 1.0
    assert SignificanceReport(**_REPORT).observed.shape == (2,)


@pytest.mark.parametrize("value", ["0", "false", "No", " off "])
def test_a_false_boolean_variable_is_the_flag_left_off(value, monkeypatch,
                                                       capsys):
    assert main(["logsig", UNIFORM, "--level", "2"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("PATHSIG_LYNDON", value)
    assert main(["logsig", UNIFORM, "--level", "2"]) == 0
    assert capsys.readouterr().out == plain
    monkeypatch.setenv("PATHSIG_LYNDON", "1")
    assert main(["logsig", UNIFORM, "--level", "2"]) == 0
    assert capsys.readouterr().out != plain


_PUBLIC = {
    "concat": (lambda a: concat(a, a), DataError, "times and values must be finite"),
    "inverse": (inverse, None, None),
    "reduce_path": (reduce_path, None, None),
    "one_variation": (one_variation, ConfigError,
                      "the 1-variation must be finite, got inf"),
    "reparametrize": (lambda a: reparametrize(a, lambda t: t + 1.0), None, None),
    # its first gap, 3.4e308, passes float64
    "reparametrize_wide": (lambda a: reparametrize(
        a, lambda t: np.array([-1.7e308, 1.7e308, 1.75e308, 1.79e308])), None, None),
    "preprocess": (lambda a: preprocess(a, PreprocessConfig(
        center=True, normalize="per", prepend_zero=True)), ConfigError,
        "cannot normalize: the range of channel c1 is not finite"),
    "prepend_zero": (lambda a: preprocess(a, PreprocessConfig(prepend_zero=True)),
                     None, None),
    "gaussian_smooth": (lambda a: gaussian_smooth(a, 1.0), None, None),
    "signed_area": (lambda a: signed_area(a, 1, 2), ConfigError,
                    r"the signed area A\^\(1,2\) is not finite: an area overflows"),
    "close_path": (close_path, None, None),
    "lead_matrix": (lead_matrix, ConfigError,
                    "the lead matrix is not finite: an area overflows"),
    "winding_number": (lambda a: winding_number(close_path(a), 1, 2, (0.5, 0.5)),
                       ConfigError,
                       r"the angle sum of channels \(1, 2\) must be finite, got nan"),
    "signed_area_via_winding": (
        lambda a: signed_area_via_winding(a, 1, 2, cells=4), ConfigError,
        r"the winding area A\^\(1,2\) must be finite, got nan"),
    "family_area": (lambda a: family_area(a.values.reshape(2, 2, 2), 1, 2),
                    ConfigError, r"the family area A\^\(1,2\) must be finite, got nan"),
}


@pytest.mark.parametrize("name", sorted(_PUBLIC))
def test_near_float64_max_a_result_is_finite_or_one_named_error(name):
    """The path-level functions of path_core and leadlag: none lets numpy's
    overflow warning escape or returns inf or nan.
    Before, one_variation returned inf, signed_area nan (where lead_matrix
    raised the message it keeps), and concat and reduce_path warned."""
    call, error, message = _PUBLIC[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:
            assert np.isfinite(call(_HUGE).values).all()
        else:
            with pytest.raises(error, match=f"^{message}$"):
                call(_HUGE)
    assert _no_runtime_warning(caught)
