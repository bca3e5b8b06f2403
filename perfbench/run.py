"""pathsig benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload events-null --seed 1 --seconds 30 --trace 0

Run from any directory of a source checkout; the library is imported from
its src/ directory, nothing needs installing. Each job starts only after
the previous one has finished and been checked. BLAS and OpenMP thread pools
are pinned to one thread, and CLI children run one at a time.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
half of --seconds untraced, then installs the span wrappers of spans.py and
runs the other half traced; it reports the per-layer metrics as medians per
job, plus the tracing overhead (traced minus untraced median job time).
perfbench/layers.json says which end-to-end metric each layer metric should
move on which workload, and which layer metrics each workload should leave
at zero; a traced run lists any such zero that is not.

Job and set-up times, trace.job_s and trace.overhead_s are rescaled by
machine speed, see SpeedProbe; span times are raw wall time. The last line of
standard output is the result object; the line before it carries run
information: commit, versions, thread settings, src/ line count, raw job
wall times and, for a traced run, where its spans were written.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: set-ups measured per run; setup_s is their median
SETUP_REPEATS = 7

#: time of one reference loop on an idle 2-core VM (Python 3.11, numpy 2.4);
#: job and set-up times are rescaled from the machine speed the loop
#: measures to that one
REFERENCE_S = 0.055
REFERENCE_ITERATIONS = 4000

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import pathsig.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

# span name -> the per-job figures reported for it
LAYER_SPANS = {
    "tensor_algebra.product": ("calls", "self_s"),
    "tensor_algebra.log": ("s",),
    "signature.signature": ("calls", "self_s"),
    "signature.derivative": ("s",),
    "dynamics.lorenz": ("s",),
    "dynamics.generate": ("s",),
    "path_core.preprocess": ("calls", "self_s"),
    "path_core.smooth": ("calls", "s"),
    "path_core.path_new": ("calls",),
    "causality.null": ("s", "self_s"),
    "causality.shuffle": ("calls", "s"),
    "causality.statistic": ("calls", "s"),
    "leadlag.lead_matrix": ("s",),
    "leadlag.signed_area": ("calls",),
    "io.csv_read": ("s",),
    "io.csv_write": ("s",),
    "io.json": ("s",),
    "cli.process": ("s",),
    "cli.import": ("s",),
    "cli.main": ("s",),
    "cli.run": ("s",),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run or its checks are broken."""


class SpeedProbe:
    """Machine-speed reference taken between jobs, independent of pathsig.

    A shared host slows every process by up to a third, for seconds or
    minutes at a time. A fixed loop of interpreter and small-array numpy
    work, like the workloads' own mix, is timed before and after each
    measured step, and the step's wall time is rescaled by REFERENCE_S over
    the mean of those two loop times. On a busy 2-core VM this cut the
    spread of median job times between runs from 18-36% to 3-6% on the
    in-process workloads. On cli-csv, whose time is spent in child
    processes, single jobs barely track the probe and the spread stays at
    10-19%, but the median across runs drifted by 4% rescaled against 30%
    raw. Raw wall times go out with the run information.
    """

    def __init__(self) -> None:
        self._x = np.random.default_rng(0).random(2000)
        self.times: list = []
        self.measure()

    def measure(self) -> None:
        x, acc = self._x, 0.0
        start = time.perf_counter()
        for _ in range(REFERENCE_ITERATIONS):
            y = np.convolve(x[:400], x[:31], mode="valid")
            acc += float(np.cumsum(y)[-1]) + sum(i * 0.5 for i in range(30))
        self.times.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Scale for a step that ended now and began after the last probe."""
        before = self.times[-1]
        self.measure()
        return REFERENCE_S / (0.5 * (before + self.times[-1]))


def _import_seconds() -> float:
    """Import time of pathsig.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing pathsig failed:\n{done.stderr}")
    return float(done.stdout.strip())


def _setup(workload, probe: SpeedProbe) -> float:
    """Set the workload up SETUP_REPEATS times; median of import + inputs."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        start = time.perf_counter()
        workload.setup()
        totals.append((imported + time.perf_counter() - start) * probe.factor())
    return statistics.median(totals)


def _attempt(workload, tracer=None):
    """Run one job and check it: (job seconds, output, problems)."""
    start = time.perf_counter()
    try:
        out = workload.job(tracer)
    except Exception:  # a failing job is counted, the benchmark goes on
        traceback.print_exc()
        return time.perf_counter() - start, None, ["job raised"]
    elapsed = time.perf_counter() - start
    problems = workload.check(out)
    if problems:
        print(f"{workload.name} job failed: {problems}", file=sys.stderr)
    return elapsed, out, problems


def _loop(workload, seconds: float, probe: SpeedProbe, tracer=None) -> dict:
    """Closed loop: run and check jobs until `seconds` have passed.

    times are the rescaled job times, raw their wall times.
    """
    times, raw, facts, failed = [], [], [], 0
    start = time.perf_counter()
    probe.measure()
    while True:
        if tracer is not None:
            tracer.job = len(times)
        elapsed, out, problems = _attempt(workload, tracer)
        times.append(elapsed * probe.factor())
        raw.append(elapsed)
        failed += bool(problems)
        if out is not None:
            facts.append(workload.facts(out))
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.job = -1
    return {"times": times, "raw": raw, "failed": failed, "facts": facts}


def _self_test(workload, out) -> None:
    """Every corrupted copy of a correct output must fail its check."""
    for label, bad in workload.corruptions(out):
        if not workload.check(bad):
            raise BenchError(f"{workload.name} check accepted: {label}")


def _end_to_end(args, workload, probe: SpeedProbe, setup_s: float):
    loop = _loop(workload, args.seconds, probe)
    values = {
        "job_s": statistics.median(loop["times"]),
        # the loop's time less its checks and probes, so a stall shows
        "jobs_per_s": len(loop["times"]) / sum(loop["times"]),
        "setup_s": setup_s,
        # the program's memory: the largest CLI child, or this process
        "peak_rss_mb": (workload.peak_child_kb or spans.peak_rss_kb()) / 1024.0,
    }
    return values, [loop], {}


def _layer_metrics(loop: dict, tracer: spans.Tracer) -> dict:
    """Per-job medians of the traced loop, by layer metric name."""
    jobs = list(range(len(loop["times"])))
    stats = spans.per_job(tracer.spans, jobs)
    med = statistics.median

    def per_job(name: str, key: str) -> list:
        return stats[name][key] if name in stats else [0] * len(jobs)

    def amounts(name: str, fn) -> float:
        return med([fn(a) for a in per_job(name, "amounts")]) if name in stats else 0

    def unique_share(keys: list) -> float:
        return len({tuple(k) for k in keys}) / len(keys) if keys else 0.0

    out = {f"{name}.{kind}": med(per_job(name, kind))
           for name, kinds in LAYER_SPANS.items() for kind in kinds}
    out["signature.segments"] = amounts("signature.signature", sum)
    out["dynamics.lorenz.steps"] = amounts("dynamics.lorenz", sum)
    out["causality.replicates"] = amounts("causality.null", sum)
    out["causality.windows"] = amounts("causality.statistic", sum)
    out["causality.shuffle_reuse"] = amounts("causality.shuffle", unique_share)
    out["causality.false_runs"] = med(
        [f.get("causality.false_runs", 0) for f in loop["facts"]] or [0])
    for name in ("io.csv_read", "io.csv_write", "io.json"):
        out[f"{name}.bytes"] = amounts(name, sum)
    return out


def _per_layer(args, workload, probe: SpeedProbe):
    plain = _loop(workload, args.seconds / 2, probe)
    tracer = spans.Tracer()
    wrapped = spans.install(tracer)
    traced = _loop(workload, args.seconds / 2, probe, tracer)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans_path)
    values = _layer_metrics(traced, tracer)
    values["trace.job_s"] = statistics.median(traced["times"])
    values["trace.overhead_s"] = (values["trace.job_s"]
                                  - statistics.median(plain["times"]))
    layers = _load_json(os.path.join(HERE, "layers.json"))["metrics"]
    info = {
        "wrapped_sites": wrapped, "spans": spans_path,
        # layer metrics that layers.json predicts to be 0 here and are not
        "bypass_violations": [
            name for name, entry in layers.items()
            if args.workload in entry["zero_on"] and values.get(name)],
    }
    return values, [plain, traced], info


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "pathsig", "__init__.py")):
        raise BenchError(f"no pathsig sources under {SRC}")
    sys.path.insert(0, SRC)
    import pathsig.cli  # noqa: F401  (every module the workloads reach)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in _load_json(os.path.join(ROOT, "BENCHMARK.json"))[section]}
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        probe = SpeedProbe()
        setup_s = _setup(workload, probe)
        _, warm, warm_problems = _attempt(workload)
        if warm is not None and not warm_problems:
            _self_test(workload, warm)
        if args.trace:
            values, loops, extra = _per_layer(args, workload, probe)
        else:
            values, loops, extra = _end_to_end(args, workload, probe, setup_s)
        # the warm-up job is checked and counted like every other
        attempted = 1 + sum(len(loop["times"]) for loop in loops)
        failed = bool(warm_problems) + sum(loop["failed"] for loop in loops)
        if not args.trace:
            values["pass_ratio"] = 1.0 - failed / attempted
        if sorted(values) != sorted(units):
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                             f"disagree with BENCHMARK.json {section}")
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "src_lines": _src_lines(),
            "job_wall_s": [t for loop in loops for t in loop["raw"]],
            "reference_s": probe.times,
            **extra,
        }
        print(json.dumps({"info": info}))
        return {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
