"""Malformed-input and flag fuzzing of the CLI.

Random and mutated CSV bytes go through `sig`, `leadmatrix` and `slidearea`,
and random events files through `gen events --events`, all by calling main()
in process. Whatever the bytes, main must return 0 (the input was usable),
3 (bad input) or 5 (a config or size error), never raise, never print a
traceback, and on failure end stderr with a one-line `pathsig: bad input: `
or `pathsig: config error: ` message that agrees with the code.
Every int and float option of every (sub)command gets the same check over
a fixed set of extreme values, within a memory and a time budget.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import signal
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsig.cli import build_parser, main
from conftest import leaf_commands

CSV_COMMANDS = (
    ["sig", "--level", "2"],
    ["leadmatrix"],
    ["slidearea", "--pairs", "1,2", "--window", "0.5", "--stride", "0.25",
     "--smooth-sigma", "0"],
)
VALID_CSV = b"t,a,b\n0,0,0\n0.25,1,2\n0.5,3,1\n0.75,2,2\n1,0,1\n"
VALID_EVENTS = b'[{"time": 0.4, "leader": 2, "follower": 1, "lag": 0.05}]'

CSV_TOKENS = [
    b"t", b"a", b"b", b",", b",", b"\n", b"\n", b"\r\n", b"\r", b'"', b"#",
    b" ", b"0", b"1", b"-1", b"0.25", b"0.5", b"-0", b"5e-324", b"1e308",
    b"-1e308", b"1e999", b"nan", b"inf", b"1_0", b"0x1", b"x", b"\x00",
    b"\xff", b"\xc3\xa9", b"\xef\xbb\xbf",
]


def _run(argv):
    """main(argv) with stdout and stderr captured: (exit code, stderr)."""
    out = io.TextIOWrapper(io.BytesIO())
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 3, 5), err
    assert "Traceback" not in err
    if code:
        # the prefix names the class main's table mapped to the code
        prefix = {3: "pathsig: bad input: ", 5: "pathsig: config error: "}[code]
        assert err.splitlines()[-1].startswith(prefix), err


def _mutated(valid: bytes):
    """valid bytes after a few random insertions, deletions or overwrites;
    one insertion in a few is a run longer than csv's field size limit."""
    insert = st.one_of(st.binary(max_size=4), st.binary(max_size=4),
                       st.binary(max_size=4), st.just(b"9" * 140_000))
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 4), insert)

    def apply(edits):
        data = valid
        for at, cut, insert in edits:
            data = data[:at] + insert + data[at + cut:]
        return data

    return st.lists(edit, min_size=1, max_size=4).map(apply)


csv_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(CSV_TOKENS), max_size=40).map(b"".join),
    _mutated(VALID_CSV),
)

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 1e308, 5e-324]),
    st.floats(),
    st.text(max_size=3),
)
_fields = st.dictionaries(
    st.sampled_from(["time", "leader", "follower", "lag", "width",
                     "amplitude", "x"]),
    _json_scalars,
    max_size=3,
)
_event_items = st.one_of(
    # a valid event with a few fields replaced, added or dropped
    _fields.map(lambda f: {"time": 0.4, "leader": 2, "follower": 1, **f}),
    _fields.map(lambda f: {k: v for k, v in f.items() if k != "x"}),
    _json_scalars,
    st.lists(_json_scalars, max_size=2),
)
events_bytes = st.one_of(
    st.lists(_event_items, max_size=3).map(
        lambda items: json.dumps(items).encode("utf-8")
    ),
    _json_scalars.map(lambda v: json.dumps(v).encode("utf-8")),
    _mutated(VALID_EVENTS),
    st.binary(max_size=60),
    st.integers(1, 100_000).map(lambda n: b"[" * n + b"]" * n),
)


def _with_file(data: bytes, run):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        run(path)


@settings(max_examples=300, deadline=None)
@given(csv_bytes)
def test_malformed_csv_ends_in_a_clean_exit(data):
    def run(path):
        for command in CSV_COMMANDS:
            _assert_clean_exit(*_run(command[:1] + [path] + command[1:]))

    _with_file(data, run)


@settings(max_examples=300, deadline=None)
@given(events_bytes)
def test_malformed_events_file_ends_in_a_clean_exit(data):
    _with_file(
        data,
        lambda path: _assert_clean_exit(
            *_run(["gen", "events", "--events", path, "--samples", "32"])
        ),
    )


@pytest.mark.parametrize(
    "argv, data",
    [
        (["sig", "INPUT"], b"t,a\n0,1\n1," + b"9" * 200_000 + b"\n"),
        (["gen", "events", "--events", "INPUT"],
         b"[" * 100_000 + b"]" * 100_000),
        (["gen", "events", "--events", "INPUT"],
         b'[{"time": 0.4, "leader": 1, "follower": 2, "lag": 1'
         + b"0" * 400 + b"}]"),
    ],
    ids=["csv-field-over-limit", "deeply-nested-json", "int-past-float-range"],
)
def test_escapes_the_fuzzer_found_are_data_errors(argv, data, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(data)
    code, err = _run([str(path) if a == "INPUT" else a for a in argv])
    assert code == 3
    _assert_clean_exit(code, err)


# ---------------------------------------------------------------------------
# numeric flags

GOLDEN_EVENTS = str(pathlib.Path(__file__).parent / "golden" / "gen_events.csv")
_WINDOWED = ["--pairs", "1,2", "--window", "0.1", "--stride", "0.05",
             "--replicates", "4", "--seed", "1"]
# a small run of each (sub)command that exits 0; the fuzzed flag comes last
FLAG_BASE = {
    "sig": ["--level", "2"],
    "logsig": ["--level", "2"],
    "leadmatrix": [],
    "slidearea": _WINDOWED + ["--smooth-sigma", "0"],
    "influence": _WINDOWED,
    "xcorr": ["--pairs", "1,2", "--lags", "0.05"],
    "granger": ["--caused", "2", "--covariates", "1"],
    "gen lorenz": ["--steps", "100"],
    "gen cyclic": ["--samples", "64"],
    "gen events": ["--samples", "64"],
}
FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", str(10**9),
               str(10**21)]
FLAG_PEAK = 32 * 2**20  # bytes, per run
FLAG_SECONDS = 2.0  # per run


def _numeric_options(parser):
    return [a for a in parser._actions if a.type in (int, float)]


class _OverBudget(Exception):
    """Not an OSError, which main would report as an i/o failure."""


def _over_budget(signum, frame):
    raise _OverBudget(f"over {FLAG_SECONDS} s")


def test_flag_table_is_covered():
    commands = {" ".join(c): p for c, p in leaf_commands(build_parser())}
    assert commands.keys() == FLAG_BASE.keys()
    assert sum(len(_numeric_options(p)) for p in commands.values()) >= 40


@pytest.mark.parametrize("command", list(FLAG_BASE))
def test_numeric_flags_end_in_a_clean_exit(command):
    """Each int/float option at each extreme value: exit 0, 3 or 5 (or 2
    when the option's type refuses the token), within the budgets."""
    words = command.split()
    parser = dict(leaf_commands(build_parser()))[tuple(words)]
    argv = words + ([] if words[0] == "gen" else [GOLDEN_EVENTS])
    previous = signal.signal(signal.SIGALRM, _over_budget)
    tracemalloc.start()
    try:
        for action in _numeric_options(parser):
            for value in FLAG_VALUES:
                flag = f"{action.option_strings[-1]}={value}"
                tracemalloc.reset_peak()
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, FLAG_SECONDS)
                try:
                    code, err = _run(argv + FLAG_BASE[command] + [flag])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - start
                try:
                    action.type(value)
                    refused = False
                except ValueError:
                    refused = True
                case = f"{command} {flag}: exit {code}, {err!r}"
                if refused:
                    assert code == 2, case
                    assert "error: argument" in err.splitlines()[-1], case
                else:
                    _assert_clean_exit(code, err)
                assert "Traceback" not in err, case
                assert tracemalloc.get_traced_memory()[1] < FLAG_PEAK, case
                assert elapsed < FLAG_SECONDS, case
    finally:
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, previous)
