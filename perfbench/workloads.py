"""The three benchmark workloads: inputs, one job, and its output check.

Each workload builds its inputs from the benchmark seed in setup(), runs one
job per call to job(), and judges the job's output in check(), which returns
a list of problems (empty when the output is correct). The checks use
tolerances that a faster engine which is not bit-identical still meets.
corruptions() yields damaged copies of a real output; the benchmark feeds
each one to check() and stops if any is accepted.

pathsig modules are reached through importlib, never as package attributes:
`pathsig.signature` on the package is the re-exported function. Functions
are looked up on the module at call time, so wrappers installed by
spans.install() see the benchmark's own calls too.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import spans


def _mod(name: str):
    return importlib.import_module(f"pathsig.{name}")


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


class Workload:
    name = ""
    #: largest peak RSS of a CLI child the jobs started, in KiB
    peak_child_kb = 0

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root = root
        self.work = work
        self.rng_seed = [int(seed), sum(map(ord, self.name))]

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, tracer: Optional[spans.Tracer]):
        raise NotImplementedError

    def check(self, out) -> List[str]:
        raise NotImplementedError

    def corruptions(self, out) -> Iterator[Tuple[str, object]]:
        raise NotImplementedError

    def facts(self, out) -> Dict[str, float]:
        """Per-job figures read from the output rather than from spans."""
        return {}


# -- events-null ---------------------------------------------------------------

EVENT_PAIRS = ((1, 2), (2, 3), (1, 3))
# (leader, follower, leader bump centre); the follower trails by LAG
EVENTS = ((1, 2, 0.25), (3, 2, 0.70))
LAG = 0.02
WIDTH = 0.03
# a planted run must cover the event midpoint, give or take this much
NEAR = 0.05


def _bump(t: np.ndarray, centre: float) -> np.ndarray:
    rel = (t - centre) / WIDTH
    return np.where(np.abs(rel) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * rel)), 0.0)


class EventsNull(Workload):
    """Acceptance c09 pipeline: 3 pairs x 1000 shuffled replicates."""

    name = "events-null"

    def setup(self) -> None:
        rng = np.random.default_rng(self.rng_seed)
        t = np.linspace(0.0, 1.0, 1500)
        values = np.zeros((t.size, 3))
        for leader, follower, centre in EVENTS:
            values[:, leader - 1] += _bump(t, centre)
            values[:, follower - 1] += _bump(t, centre + LAG)
        values += rng.normal(0.0, 0.05, values.shape)
        P, C = _mod("path_core"), _mod("causality")
        self.data = P.Path(t, values, ("y1", "y2", "y3"))
        self.pre = P.PreprocessConfig(smooth_sigma=0.004)
        self.window = C.WindowSpec(0.1, 0.005)
        self.spec = C.NullModelSpec(
            replicates=1000, seed=int(rng.integers(2**31)),
            band_sigmas=3.0, min_run_length=5,
        )
        self.config = {"command": "slidearea", "window": 0.1, "stride": 0.005,
                       "smooth_sigma": 0.004, "replicates": 1000,
                       "seed": self.spec.seed}
        self.report_path = os.path.join(self.work, "report.json")

    def job(self, tracer):
        C, IO = _mod("causality"), _mod("io")
        reports = [
            C.shuffle_null(
                self.data,
                lambda p, w, pair=pair: C.sliding_signed_area(p, pair, w),
                self.spec, w=self.window, preprocess_cfg=self.pre,
                statistic_name="signed_area", pair=pair,
            )
            for pair in EVENT_PAIRS
        ]
        payload = IO.canonical_json(
            IO.reports_artifact("slidearea", reports, self.config))
        with open(self.report_path, "wb") as fh:
            fh.write(payload)
        return payload

    @staticmethod
    def _reports(out) -> Dict[Tuple[int, int], dict]:
        return {tuple(r["pair"]): r for r in json.loads(out)["reports"]}

    def check(self, out) -> List[str]:
        try:
            reports = self._reports(out)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"report does not parse: {exc!r}"]
        problems = []
        if sorted(reports) != sorted(EVENT_PAIRS):
            return [f"report pairs {sorted(reports)}"]
        for pair, r in reports.items():
            n = len(r["times"])
            if n < 2 or any(len(r[k]) != n for k in (
                    "observed", "null_mean", "band_lo", "band_hi", "significant")):
                problems.append(f"{pair}: curve lengths disagree")
            if r["replicates"] != 1000:
                problems.append(f"{pair}: {r['replicates']} replicates")
        for (leader, follower, centre) in EVENTS:
            pair, sign = ((leader, follower), 1) if leader < follower \
                else ((follower, leader), -1)
            mid = centre + 0.5 * LAG
            if not any(run["sign"] == sign
                       and run["start"] - NEAR <= mid <= run["end"] + NEAR
                       for run in reports[pair]["runs"]):
                problems.append(f"{pair}: no {sign:+d} run near t={mid}")
        return problems

    def corruptions(self, out):
        doc = json.loads(out)
        for label, pair_index, fn in (
            ("planted run flipped", 0, lambda r: r.update(sign=-r["sign"])),
            ("planted run moved", 1, lambda r: r.update(start=0.0, end=0.05)),
        ):
            bad = copy.deepcopy(doc)
            for run in bad["reports"][pair_index]["runs"]:
                fn(run)
            yield label, json.dumps(bad)
        bad = copy.deepcopy(doc)
        bad["reports"][2]["observed"].pop()
        yield "curve truncated", json.dumps(bad)

    def facts(self, out):
        try:
            return {"causality.false_runs": len(self._reports(out)[(1, 3)]["runs"])}
        except (ValueError, KeyError, TypeError):
            return {}


# -- lorenz-sig ----------------------------------------------------------------

# thinning step -> signature level for the deeper signatures
DEEP = ((30, 4), (150, 6))


class LorenzSig(Workload):
    """Acceptance c10 pipeline plus level-4 and level-6 signatures + logs."""

    name = "lorenz-sig"

    def setup(self) -> None:
        rng = np.random.default_rng(self.rng_seed)
        D, P, C = _mod("dynamics"), _mod("path_core"), _mod("causality")
        x0 = tuple(float(v) for v in 1.0 + rng.uniform(-0.1, 0.1, 3))
        self.params = D.LorenzParams(x0=x0, dt=0.002, steps=30000)
        self.pre = P.PreprocessConfig(center=True, normalize="per",
                                      prepend_zero=True)
        self.spec = C.NullModelSpec(replicates=200, seed=int(rng.integers(2**31)),
                                    band_sigmas=3.0, min_run_length=5)

    def job(self, tracer):
        D, P, S, C, T = (_mod(m) for m in
                         ("dynamics", "path_core", "signature", "causality",
                          "tensor_algebra"))
        traj = D.lorenz(self.params)

        def thinned(step):
            return P.Path(traj.times[::step], traj.values[::step],
                          traj.channel_names)

        thin = thinned(50)
        b = P.preprocess(thin, self.pre)
        sig2 = S.signature(b, 2).to_dict()["levels"]
        integrals = [[S.signature_derivative_integral(b, i, j)[1][-1]
                      for j in (1, 2, 3)] for i in (1, 2, 3)]
        report = C.shuffle_null(
            thin, lambda p, w: C.sliding_signature_derivative(p, (1, 2), w),
            self.spec, w=None, preprocess_cfg=self.pre,
            statistic_name="signature_derivative", pair=(1, 2),
        )
        out = {
            "increment": (b.values[-1] - b.values[0]).tolist(),
            "excursion": float(np.max(np.abs(b.values - b.values[0]))),
            "levels": sig2,
            "integrals": integrals,
            "mask": [bool(m) for m in report.significant_mask],
            "deep": [],
        }
        for step, level in DEEP:
            p = P.preprocess(thinned(step), self.pre)
            sig = S.signature(p, level)
            out["deep"].append({
                "increment": (p.values[-1] - p.values[0]).tolist(),
                "excursion": float(np.max(np.abs(p.values - p.values[0]))),
                "levels": sig.to_dict()["levels"],
                "log": T.tensor_log(sig.tensor).to_dict()["levels"],
            })
        return out

    @staticmethod
    def _signature_problems(tag: str, sig: dict) -> List[str]:
        """Identities every signature (and its log, if given) must obey.

        Rounding grows with the path's largest excursion from its start, not
        with its increment, so tolerances are relative to that excursion.
        """
        problems = []
        inc = np.asarray(sig["increment"], float)
        levels = sig["levels"]
        n, top = inc.size, len(levels) - 1
        scale1 = max(sig["excursion"], 1e-300)
        lv = [np.asarray(x, float) for x in levels]
        if not _close(lv[0], [1.0], 0.0):
            problems.append(f"{tag}: constant term {lv[0]}")
        if not _close(lv[1], inc, 1e-10 * scale1):
            problems.append(f"{tag}: level 1 is not the increment")
        s2 = lv[2].reshape(n, n)
        if not _close(s2 + s2.T, np.outer(inc, inc), 1e-10 * scale1**2):
            problems.append(f"{tag}: S(ij)+S(ji) != di*dj")
        # a single repeated letter integrates to d^k / k!
        diag = lv[top].reshape((n,) * top)[tuple(np.arange(n) for _ in range(top))]
        if not _close(diag, inc**top / math.factorial(top),
                      1e-9 * scale1**top / math.factorial(top)):
            problems.append(f"{tag}: level {top} repeated-letter terms")
        if "log" in sig:
            lg = [np.asarray(x, float) for x in sig["log"]]
            l2 = lg[2].reshape(n, n)
            if not _close(lg[1], inc, 1e-10 * scale1):
                problems.append(f"{tag}: log level 1 is not the increment")
            if not _close(l2, 0.5 * (s2 - s2.T), 1e-10 * scale1**2):
                problems.append(f"{tag}: log level 2 is not the signed area")
            for k in range(2, top + 1):
                idx = tuple(np.arange(n) for _ in range(k))
                if not _close(lg[k].reshape((n,) * k)[idx], 0.0,
                              1e-9 * scale1**k):
                    problems.append(f"{tag}: log level {k} repeated letters")
        return problems

    def check(self, out) -> List[str]:
        problems = self._signature_problems("L=2", out)
        s2 = np.asarray(out["levels"][2], float).reshape(3, 3)
        if not _close(out["integrals"], s2, 1e-8):
            problems.append("stream integrals differ from S^(i,j) by > 1e-8")
        if not any(out["mask"]):
            problems.append("influence null mask is empty")
        for (step, level), deep in zip(DEEP, out["deep"]):
            problems += self._signature_problems(
                f"thin {step} L={level}", deep)
        if len(out["deep"]) != len(DEEP):
            problems.append("missing deep signatures")
        return problems

    def corruptions(self, out):
        def damaged(label, fn):
            bad = copy.deepcopy(out)
            fn(bad)
            return label, bad

        def bump_integral(o):
            o["integrals"][0][1] += 1e-6

        def bump_level1(o):
            o["levels"][1][2] += 1e-6 * o["excursion"]

        def bump_top(o):
            top = o["deep"][1]["levels"][6]
            top[0] += 1e-6 * max(map(abs, top))

        def symmetric_log(o):
            o["deep"][0]["log"][2][1] += 1e-6 * o["deep"][0]["excursion"] ** 2

        def empty_mask(o):
            o["mask"] = [False] * len(o["mask"])

        yield damaged("stream integral off", bump_integral)
        yield damaged("level 1 off", bump_level1)
        yield damaged("level 6 off", bump_top)
        yield damaged("log level 2 not antisymmetric", symmetric_log)
        yield damaged("mask empty", empty_mask)


# -- cli-csv -------------------------------------------------------------------

BIG_ROWS, BIG_CHANNELS = 10_000, 20
GEN_ROWS = 100_000


def _parse_csv(text: str) -> Tuple[List[str], List[List[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class CliCsv(Workload):
    """Two pathsig CLI subprocesses per job: leadmatrix read, gen write."""

    name = "cli-csv"

    def setup(self) -> None:
        rng = np.random.default_rng(self.rng_seed)
        times = np.arange(BIG_ROWS) * 0.01
        values = np.cumsum(rng.normal(size=(BIG_ROWS, BIG_CHANNELS)), axis=0)
        self.big_path = os.path.join(self.work, "big.csv")
        with open(self.big_path, "w") as fh:
            fh.write(",".join(["time"] + [f"c{k + 1}" for k in
                                          range(BIG_CHANNELS)]) + "\n")
            for t, row in zip(times, values):
                fh.write("%.17g," % t + ",".join("%.17g" % v for v in row) + "\n")
        # signed areas about the start point, computed independently
        rel = values - values[0]
        steps = np.diff(values, axis=0)
        self.expected = 0.5 * (rel[:-1].T @ steps - steps.T @ rel[:-1])
        self.gen_seed = int(rng.integers(2**31))
        self.matrix_path = os.path.join(self.work, "lead.csv")
        self.gen_path = os.path.join(self.work, "gen.csv")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.launcher = os.path.join(os.path.dirname(__file__), "launcher.py")
        self.spans_path = os.path.join(self.work, "child-spans.jsonl")
        self.peak_path = os.path.join(self.work, "child-peak")

    def _cli(self, args: List[str], stdout_path: Optional[str],
             tracer: Optional[spans.Tracer]) -> int:
        """Run one CLI child to completion; record its peak RSS and spans."""
        cmd = [sys.executable, self.launcher, "--peak", self.peak_path]
        if tracer is not None:
            cmd += ["--spans", self.spans_path]
        cmd += ["--"] + args
        with open(stdout_path or os.devnull, "wb") as stdout:
            start = time.perf_counter()
            code = subprocess.run(cmd, stdout=stdout, env=self.env,
                                  cwd=self.work).returncode
            end = time.perf_counter()
        with open(self.peak_path) as fh:
            self.peak_child_kb = max(self.peak_child_kb, int(fh.read()))
        if tracer is not None:
            parent = tracer.record("cli.process", start, end)
            if os.path.exists(self.spans_path):
                with open(self.spans_path) as fh:
                    tracer.adopt([json.loads(ln) for ln in fh], parent)
                os.remove(self.spans_path)
        return code

    def job(self, tracer):
        codes = [
            self._cli(["leadmatrix", self.big_path, "--format", "csv"],
                      self.matrix_path, tracer),
            self._cli(["gen", "cyclic", "--samples", str(GEN_ROWS),
                       "--noise", "0.05", "--seed", str(self.gen_seed),
                       "-o", self.gen_path], None, tracer),
        ]
        with open(self.matrix_path) as fh:
            matrix = fh.read()
        with open(self.gen_path) as fh:
            generated = fh.read()
        return {"codes": codes, "matrix": matrix, "generated": generated}

    def check(self, out) -> List[str]:
        if out["codes"] != [0, 0]:
            return [f"exit codes {out['codes']}"]
        problems = []
        try:
            header, rows = _parse_csv(out["matrix"])
            m = np.array([row[1:] for row in rows], dtype=float)
        except (ValueError, IndexError) as exc:
            return [f"lead matrix does not parse: {exc!r}"]
        if m.shape != (BIG_CHANNELS, BIG_CHANNELS) or len(header) != BIG_CHANNELS + 1:
            return [f"lead matrix shape {m.shape}"]
        if not np.array_equal(m, -m.T):
            problems.append("lead matrix is not exactly skew")
        if not _close(m, self.expected, 1e-9 * float(np.max(np.abs(self.expected)))):
            problems.append("lead matrix differs from the signed areas")
        try:
            header, rows = _parse_csv(out["generated"])
            g = np.array(rows, dtype=float)
        except (ValueError, IndexError) as exc:
            return problems + [f"gen output does not parse: {exc!r}"]
        if g.shape != (GEN_ROWS, 3) or header != ["time", "y1", "y2"]:
            return problems + [f"gen output shape {g.shape}, header {header}"]
        t = g[:, 0]
        if not (np.all(np.isfinite(g)) and np.all(np.diff(t) > 0)
                and t[0] == 0.0 and t[-1] == 1.0):
            problems.append("gen output times are not a grid on [0, 1]")
        return problems

    def corruptions(self, out):
        yield "gen failed", dict(out, codes=[0, 3])
        lines = out["matrix"].splitlines(keepends=True)
        cells = lines[-1].rstrip("\n").split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        yield "matrix not skew", dict(out, matrix="".join(
            lines[:-1] + [",".join(cells) + "\n"]))
        names = [f"c{k + 1}" for k in range(BIG_CHANNELS)]
        scaled = "," + ",".join(names) + "\n" + "".join(
            name + "," + ",".join(map(repr, row)) + "\n"
            for name, row in zip(names, self.expected * (1.0 + 1e-6)))
        yield "matrix scaled", dict(out, matrix=scaled)
        yield "gen row dropped", dict(
            out, generated=out["generated"].rsplit("\n", 2)[0] + "\n")


WORKLOADS = {w.name: w for w in (EventsNull, LorenzSig, CliCsv)}
