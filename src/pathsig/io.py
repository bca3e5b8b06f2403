"""CSV and JSON serialization for paths and analysis artifacts.

All numeric output is written with 17 significant digits so that a save
followed by a load reproduces every float bit for bit. JSON artifacts are
rendered with sorted keys and fixed separators, which makes repeated runs
byte-identical and diffs meaningful. Each CSV artifact has one writer, a
block iterator (path_csv_blocks, ...), so its whole text is never held; a
caller that wants one str joins the blocks. The CSV reader likewise
converts a bounded block of lines per numpy call, by np.loadtxt until it
refuses one and by the csv module from there; see load_path_csv.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import itertools
import json
import warnings
from typing import (
    IO,
    TYPE_CHECKING,
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
from .path_core import DataError, Path, one_path

if TYPE_CHECKING:
    from .causality import SignificanceReport
    from .dynamics import Event
    from .leadlag import LeadMatrix

__all__ = [
    "CsvFormatError",
    "utf8_text",
    "load_path_csv",
    "load_events",
    "path_csv_blocks",
    "canonical_json",
    "artifact",
    "lead_matrix_csv_blocks",
    "reports_artifact",
    "reports_csv_blocks",
    "curves_csv_blocks",
]

Source = Union[str, IO[str], IO[bytes]]


class CsvFormatError(DataError):
    """Input CSV or events file is malformed, or not UTF-8."""


#: rows formatted by one % operation; bounds the tuple of a block's cells
_BLOCK_ROWS = 4096
#: rows parsed by one numpy call; bounds the lists of a block's cells
_READ_ROWS = 512


def _csv_line(cells: Sequence[str]) -> str:
    """One csv row of text cells, quoted as csv.writer quotes them. csv
    quotes a cell holding its line terminator "\n" but not a lone "\r",
    which a reader takes for a line break, so a "\r" in any cell quotes
    them all."""
    buf = _io.StringIO()
    lone_cr = any("\r" in c for c in cells)
    quoting = csv.QUOTE_ALL if lone_cr else csv.QUOTE_MINIMAL
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerow(cells)
    return buf.getvalue()


def _rows(lead: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[str]:
    """csv text of one row per entry of the columns, a block at a time.

    A row is the lead's cells, quoted by _csv_line, then the row's entries
    of each 1-D or 2-D column to 17 significant digits (a bool as 0 or 1).
    Columns are stacked per block, never whole.
    """
    cells = []
    if lead:
        # csv writes a row of one empty cell as "", in a longer row as nothing
        text = "" if list(lead) == [""] else _csv_line(lead)[:-1]
        cells.append(text.replace("%", "%%"))
    cells += ["%.17g"] * sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    row = ",".join(cells) + "\n"
    for k in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[k:k + _BLOCK_ROWS] for c in columns])
        yield row * len(block) % tuple(block.ravel().tolist())


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
    np.loadtxt converts each block of lines that it reads cleanly. The
    first block it refuses (for quotes, comments, ragged or whitespace-only
    rows, or cells like "1_0" that float() reads and it does not) and all
    after it go through the csv module: values and messages are the csv
    path's.
    """
    with utf8_text(source) as text:
        try:
            return _parse_path_csv(text)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise CsvFormatError(str(exc)) from None


def _parse_path_csv(source: IO[str]) -> Path:
    lines = iter(source)
    reader = csv.reader(lines)
    rows = (row for row in reader if row and not row[0].startswith("#"))
    header = next(rows, None)
    if header is None:
        raise CsvFormatError("empty CSV: expected a header row")
    if len(header) < 2:
        raise CsvFormatError(
            "header must have a time column and at least one channel, "
            f"got {len(header)} column(s)"
        )
    names = tuple(name.strip() for name in header[1:])
    blocks = list(_text_blocks(lines, len(header), reader.line_num))
    if not blocks:
        raise CsvFormatError("no data rows after the header")
    times = np.concatenate([b[:, 0] for b in blocks])
    values = np.concatenate([b[:, 1:] for b in blocks])
    return Path(times, values, names)


def _text_blocks(lines, n_cols: int, line_num: int) -> Iterator[np.ndarray]:
    """The data rows, after line_num lines, as float arrays of up to
    _READ_ROWS lines each. np.loadtxt converts a block with no line over
    csv.field_size_limit() if it reads n_cols columns from it without
    raising or warning; csv would split it alike, and loadtxt reads a cell
    as float() does or refuses it (any '"' in it too). The first block it
    refuses and the rest of the input go through the csv path, _data_blocks."""
    try:
        while True:
            block: List[str] = []
            # extend keeps the lines read before a decoding error
            block.extend(itertools.islice(lines, _READ_ROWS))
            if not block:
                return
            if max(map(len, block)) > csv.field_size_limit():
                break
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    data = np.loadtxt(block, delimiter=",", comments=None,
                                      dtype=float, ndmin=2)
                except (ValueError, Warning):
                    break
            if data.shape[1] != n_cols:
                break
            line_num += len(block)
            yield data
    except UnicodeDecodeError as exc:
        lines = _raising(exc)
    reader = csv.reader(itertools.chain(block, lines))
    yield from _data_blocks(reader, n_cols, line_num)


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator that raises exc when its first item is asked for."""
    raise exc
    yield  # makes this a generator, so the raise waits for next()


def _data_blocks(reader, n_cols: int, line_num: int) -> Iterator[np.ndarray]:
    """The data rows, after line_num lines, as float arrays of up to
    _READ_ROWS rows each.

    The first fault in reading order is the one raised: a bad cell in a row
    above a ragged or unreadable one is reported before it.
    """
    block: List[List[str]] = []
    lines: List[int] = []
    try:
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != n_cols:
                raise CsvFormatError(
                    f"row {line_num + reader.line_num}: expected {n_cols} "
                    f"columns, got {len(row)}"
                )
            block.append(row)
            lines.append(line_num + reader.line_num)
            if len(block) == _READ_ROWS:
                yield _floats(block, lines)
                block, lines = [], []
    except (CsvFormatError, csv.Error, UnicodeDecodeError):
        _floats(block, lines)
        raise
    if block:
        yield _floats(block, lines)


def _floats(rows: List[List[str]], lines: List[int]) -> np.ndarray:
    """Rows of equally many cells as one float array. numpy parses a cell
    as float() does; when it refuses one, the first cell float() refuses
    is reported with its line and 1-based column."""
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for r, row in zip(lines, rows):
            for c, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"row {r}, column {c}: {cell!r} is not a number"
                    ) from None
        raise


def load_events(source: Source) -> List[Event]:
    """Read a JSON list of events, each item the keyword arguments of one
    Event; a field Event rejects is reported as bad input."""
    from .dynamics import Event
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
            events.append(Event(**item))
        except (TypeError, ValueError) as exc:
            raise CsvFormatError(f"event {k}: {exc}") from None
    return events


@one_path
def path_csv_blocks(a: Path) -> Iterator[str]:
    """The path as CSV, a block of rows at a time."""
    yield _csv_line(("time",) + tuple(a.channel_names))
    yield from _rows((), [a.times, a.values])


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


def lead_matrix_csv_blocks(matrix: LeadMatrix) -> Iterator[str]:
    """The lead matrix as CSV, a row at a time."""
    yield _csv_line(("",) + tuple(matrix.channel_names))
    for name, row in zip(matrix.channel_names, matrix.values):
        yield from _rows((name,), [row[None]])


def reports_artifact(
    kind: str, reports: Sequence[SignificanceReport], config: dict
) -> dict:
    seed = reports[0].seed if reports else None
    return artifact(
        kind, config, {"reports": [r.to_dict() for r in reports]}, seed=seed
    )


def reports_csv_blocks(reports: Sequence[SignificanceReport]) -> Iterator[str]:
    """Significance reports as CSV, a block of rows at a time. Tidy layout,
    one row per (pair, time): ready for pandas or gnuplot."""
    yield ("statistic,i,j,time,observed,null_mean,null_std,band_lo,band_hi,"
           "significant\n")
    for r in reports:
        i, j = r.pair if r.pair is not None else (0, 0)
        columns = [r.times, r.observed, r.null_mean, r.null_std, r.band_lo,
                   r.band_hi, r.significant_mask]
        yield from _rows((r.statistic_name, str(i), str(j)), columns)


Curve = Tuple[str, Tuple[int, int], np.ndarray, np.ndarray]


def curves_csv_blocks(curves: Iterable[Curve]) -> Iterator[str]:
    """(statistic, pair, times, values) curves as CSV, a block of rows at a
    time, in the tidy layout of reports_csv_blocks."""
    yield "statistic,i,j,time,value\n"
    for name, (i, j), times, vals in curves:
        yield from _rows((name, str(i), str(j)), [times, vals])
