"""CSV and JSON serialization for paths and analysis artifacts.

All numeric output is written with 17 significant digits so that a save
followed by a load reproduces every float bit for bit. JSON artifacts are
rendered with sorted keys and fixed separators, which makes repeated runs
byte-identical and diffs meaningful.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
from dataclasses import fields
from typing import (
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import __version__
from .causality import SignificanceReport
from .dynamics import Event
from .leadlag import LeadMatrix
from .path_core import Path

__all__ = [
    "CsvFormatError",
    "utf8_text",
    "load_path_csv",
    "load_events",
    "path_to_csv",
    "canonical_json",
    "artifact",
    "lead_matrix_csv",
    "reports_artifact",
    "reports_csv",
    "curves_csv",
]

Source = Union[str, IO[str], IO[bytes]]


class CsvFormatError(ValueError):
    """Input CSV does not match the expected path layout."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def utf8_text(source: Source) -> Iterator[IO[str]]:
    """A filename or binary stream as strictly decoded UTF-8 text.

    Anything else (a text stream) is passed through as it is. Decoding is
    incremental, so the input is never held whole; bytes that are not UTF-8
    raise CsvFormatError wherever in the input they occur.
    """
    if isinstance(source, str):
        text = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, (_io.BufferedIOBase, _io.RawIOBase)):
        text = _io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        text = source
    try:
        yield text
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise CsvFormatError(
            f"not valid UTF-8: byte 0x{bad:02x} ({exc.reason})"
        ) from None
    finally:
        if isinstance(source, str):
            text.close()
        elif text is not source:
            text.detach()  # leave the caller's stream open


def load_path_csv(source: Source) -> Path:
    """Read a path from CSV: header row, time in column 1, channels after.

    Accepts a filename, an open text stream or a binary stream; bytes are
    decoded as strict UTF-8 (see utf8_text). Errors carry 1-based row and
    column positions so a bad cell in a large file can be found directly.
    """
    with utf8_text(source) as text:
        try:
            return _parse_path_csv(text)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise CsvFormatError(str(exc)) from None


def _parse_path_csv(source: IO[str]) -> Path:
    reader = csv.reader(source)
    header = None
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        header = row
        break
    if header is None:
        raise CsvFormatError("empty CSV: expected a header row")
    if len(header) < 2:
        raise CsvFormatError(
            "header must have a time column and at least one channel, "
            f"got {len(header)} column(s)"
        )
    n_cols = len(header)
    names = tuple(name.strip() for name in header[1:])
    times: List[float] = []
    rows: List[List[float]] = []
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        r = reader.line_num
        if len(row) != n_cols:
            raise CsvFormatError(
                f"row {r}: expected {n_cols} columns, got {len(row)}"
            )
        parsed: List[float] = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"row {r}, column {c}: {cell!r} is not a number"
                ) from None
        times.append(parsed[0])
        rows.append(parsed[1:])
    if not rows:
        raise CsvFormatError("no data rows after the header")
    try:
        return Path(np.array(times), np.array(rows), names)
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None


def load_events(source: Source) -> List[Event]:
    """Read a JSON list of events, checking each field's type.

    Each item holds the keyword arguments of one Event; leader and follower
    must be integers and the other fields numbers (bools are neither).
    """
    with utf8_text(source) as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CsvFormatError(f"events file: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise CsvFormatError("events file must hold a non-empty JSON list")
    events = []
    for k, item in enumerate(raw):
        try:
            event = Event(**item)
        except TypeError as exc:
            raise CsvFormatError(f"event {k}: {exc}") from None
        for f in fields(Event):
            value = getattr(event, f.name)
            integer = f.name in ("leader", "follower")
            if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)
            ):
                kind = "an integer" if integer else "a number"
                raise CsvFormatError(
                    f"event {k}: {f.name} must be {kind}, got {value!r}"
                )
            try:
                float(value)
            except OverflowError:  # an int past the float range
                raise CsvFormatError(f"event {k}: {f.name} is too large") from None
        events.append(event)
    return events


def path_to_csv(a: Path) -> str:
    buf = _io.StringIO()
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


def canonical_json(obj: object) -> bytes:
    """Deterministic UTF-8 JSON: sorted keys, no whitespace churn."""
    text = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return text.encode("utf-8") + b"\n"


def artifact(
    kind: str, config: dict, payload: dict, seed: Optional[int] = None
) -> dict:
    """Wrap a result with the metadata every report must carry."""
    out = {"kind": kind, "version": __version__, "config": config}
    if seed is not None:
        out["seed"] = int(seed)
    out.update(payload)
    return out


def lead_matrix_csv(matrix: LeadMatrix) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("",) + tuple(matrix.channel_names))
    for name, row in zip(matrix.channel_names, matrix.values):
        writer.writerow([name] + [_fmt(v) for v in row])
    return buf.getvalue()


def reports_artifact(
    kind: str, reports: Sequence[SignificanceReport], config: dict
) -> dict:
    seed = reports[0].seed if reports else None
    return artifact(
        kind, config, {"reports": [r.to_dict() for r in reports]}, seed=seed
    )


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


def reports_csv(reports: Sequence[SignificanceReport]) -> str:
    """Tidy layout, one row per (pair, time): ready for pandas or gnuplot."""
    buf = _io.StringIO()
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


Curve = Tuple[str, Tuple[int, int], np.ndarray, np.ndarray]


def curves_csv(curves: Iterable[Curve]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("statistic", "i", "j", "time", "value"))
    for name, (i, j), times, vals in curves:
        for t, v in zip(times, vals):
            writer.writerow([name, i, j, _fmt(t), _fmt(v)])
    return buf.getvalue()
