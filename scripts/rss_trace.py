#!/usr/bin/env python3
"""Print a benchmark workload's resident memory over many jobs in one process.

    python scripts/rss_trace.py --workload events-null --jobs 40
    python scripts/rss_trace.py --workload events-null --jobs 70 --root ../other-checkout

Runs setup() and then --jobs job()s of one workload of
perfbench/workloads.py, at seed 1, in this process, in a temporary
directory, loaded as scripts/job_hashes.py loads them. After every 10th
job, and after the last, it prints
`job K VmHWM <MB> VmRSS <MB>` from /proc/self/status (`n/a` where there
is none). Then it runs one more job under tracemalloc and prints that
job's peak of live Python-allocated memory. perfbench's peak_rss_mb is
VmHWM: a step in VmRSS that one checkout shows and another lacks, with
the tracemalloc peaks level, is heap layout rather than live memory.
Exits 1 when a job's check() reports a problem with its output.

The library and the workloads are read from --root (default: the
checkout this script is in); nothing under perfbench/ is modified.
"""

from __future__ import annotations

import os

# as perfbench/run.py: one BLAS/OpenMP thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402


def status_mb(field: str) -> str:
    """A /proc/self/status memory field (kB there) in MB, or n/a."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return f"{int(line.split()[1]) / 1024:.2f}"
    except OSError:
        pass
    return "n/a"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="source checkout whose src/ and perfbench/ run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    failed = False
    with tempfile.TemporaryDirectory() as work:
        w = workloads.WORKLOADS[args.workload](root, work, 1)
        w.setup()
        for job in range(1, args.jobs + 1):
            problems = w.check(w.job(None))
            for problem in problems:
                print(f"job {job}: {problem}", file=sys.stderr)
            failed = failed or bool(problems)
            if job % 10 == 0 or job == args.jobs:
                print(f"job {job} VmHWM {status_mb('VmHWM')} MB "
                      f"VmRSS {status_mb('VmRSS')} MB", flush=True)
        tracemalloc.start()
        w.job(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    print(f"tracemalloc peak of one job: {peak / 2**20:.3f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
