"""In-memory span tracer that wraps pathsig's public functions from outside.

Nothing under src/ knows about this module. install() replaces each traced
function at every place a caller looks it up (the defining module and each
module that imported the name), so a call made from inside the library is
seen as well as a call made by the benchmark. A name that a later version of
the library no longer has is skipped; its layer then reports zero calls.

A span is [name, start, end, parent index, job id, amount, outermost]. Times
come from time.perf_counter, which on Linux reads CLOCK_MONOTONIC, so spans
recorded in a CLI child process line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module under pathsig, attribute, amount function or None)
# The amount function maps (args, kwargs, result) to a number or key that
# is kept on the span: sizes, step counts, shuffle keys.
Amount = Optional[Callable[[tuple, dict, object], object]]


def _samples_minus_one(args, kwargs, out):
    return out.n_samples - 1


def _curve_points(args, kwargs, out):
    return len(out[0])


def _replicates(args, kwargs, out):
    return out.replicates


def _shuffle_key(args, kwargs, out):
    seed = args[1] if len(args) > 1 else kwargs["derived_seed"]
    return (int(seed), int(out.n_samples))


def _text_bytes(args, kwargs, out):
    return len(out)


def _source_bytes(args, kwargs, out):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, str):
        return os.path.getsize(source)
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


_CSV_WRITERS = ("path_to_csv", "lead_matrix_csv", "reports_csv", "curves_csv")

SITES: Tuple[Tuple[str, str, str, Amount], ...] = (
    ("tensor_algebra.product", "tensor_algebra", "tensor_product", None),
    ("tensor_algebra.product", "signature", "tensor_product", None),
    ("tensor_algebra.log", "tensor_algebra", "tensor_log", None),
    ("tensor_algebra.log", "cli", "tensor_log", None),
    ("signature.signature", "signature", "signature", _samples_minus_one),
    ("signature.signature", "cli", "signature", _samples_minus_one),
    ("signature.derivative", "signature", "signature_derivative", None),
    ("signature.derivative", "causality", "signature_derivative", None),
    ("dynamics.lorenz", "dynamics", "lorenz", _samples_minus_one),
    ("dynamics.lorenz", "cli", "lorenz", _samples_minus_one),
    ("dynamics.generate", "dynamics", "cyclic_pair", None),
    ("dynamics.generate", "dynamics", "three_channel_event_series", None),
    ("dynamics.generate", "cli", "cyclic_pair", None),
    ("dynamics.generate", "cli", "three_channel_event_series", None),
    ("path_core.preprocess", "path_core", "preprocess", None),
    ("path_core.preprocess", "causality", "preprocess", None),
    ("path_core.preprocess", "cli", "preprocess", None),
    ("path_core.smooth", "path_core", "gaussian_smooth", None),
    ("path_core.path_new", "path_core", "Path.__post_init__", None),
    ("causality.null", "causality", "shuffle_null", _replicates),
    ("causality.null", "cli", "shuffle_null", _replicates),
    ("causality.shuffle", "causality", "shuffle_channels", _shuffle_key),
    ("causality.statistic", "causality", "sliding_signed_area", _curve_points),
    ("causality.statistic", "causality", "sliding_signature_derivative",
     _curve_points),
    ("causality.statistic", "cli", "sliding_signed_area", _curve_points),
    ("causality.statistic", "cli", "sliding_signature_derivative", _curve_points),
    ("leadlag.lead_matrix", "leadlag", "lead_matrix", None),
    ("leadlag.lead_matrix", "cli", "lead_matrix", None),
    ("leadlag.signed_area", "leadlag", "signed_area", None),
    ("io.csv_read", "io", "load_path_csv", _source_bytes),
    ("io.csv_read", "cli", "load_path_csv", _source_bytes),
    *(("io.csv_write", mod, name, _text_bytes)
      for mod in ("io", "cli") for name in _CSV_WRITERS),
    ("io.json", "io", "canonical_json", _text_bytes),
    ("io.json", "cli", "canonical_json", _text_bytes),
    ("cli.run", "cli", "run", None),
)


class Tracer:
    """Collects spans for one process; job is set by the caller per job."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.job: int = -1
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             amount: Amount = None):
        outermost = self._open.get(name, 0) == 0
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.job, None, outermost]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open[name] = self._open.get(name, 0) + 1
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
        if amount is not None and outermost:
            rec[5] = amount(args, kwargs, out)
        return out

    def wrap(self, name: str, fn: Callable, amount: Amount = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, amount)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def record(self, name: str, start: float, end: float,
               amount: object = None) -> int:
        """Add a span timed by the caller, under the current open span."""
        self.spans.append([name, start, end,
                           self._stack[-1] if self._stack else -1,
                           self.job, amount, True])
        return len(self.spans) - 1

    def adopt(self, child_spans: Sequence[list], parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _job, amount, outermost in child_spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par,
                               self.job, amount, outermost])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it exec'd, in KiB.

    Read from VmHWM in /proc/self/status rather than ru_maxrss: the kernel
    carries the parent's RSS at fork over into a child's ru_maxrss.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def install(tracer: Tracer) -> List[str]:
    """Wrap every site in SITES that exists; return the sites wrapped."""
    wrapped = []
    for name, mod_name, attr, amount in SITES:
        try:
            owner = importlib.import_module(f"pathsig.{mod_name}")
        except ImportError:
            continue
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None or getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, leaf, tracer.wrap(name, fn, amount))
        wrapped.append(f"{mod_name}.{attr}")
    return wrapped


def per_job(spans: Sequence[list], jobs: Sequence[int]) -> Dict[str, Dict[str, list]]:
    """Per-job totals by span name: calls, inclusive s, self_s, amounts.

    Inclusive time, calls and amounts count only the outermost span of a
    name, so a function that calls itself is not counted twice; self time
    is summed over every span, since self times never overlap.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    index = {job: k for k, job in enumerate(jobs)}
    out: Dict[str, Dict[str, list]] = {}
    for k, (name, start, end, _par, job, amount, outermost) in enumerate(spans):
        slot = index.get(job)
        if slot is None:
            continue
        stats = out.setdefault(name, {
            "calls": [0] * len(jobs), "s": [0.0] * len(jobs),
            "self_s": [0.0] * len(jobs), "amounts": [[] for _ in jobs],
        })
        stats["self_s"][slot] += (end - start) - child_time[k]
        if outermost:
            stats["calls"][slot] += 1
            stats["s"][slot] += end - start
            if amount is not None:
                stats["amounts"][slot].append(amount)
    return out
