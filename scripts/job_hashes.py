#!/usr/bin/env python3
"""Hash the output of one job of each benchmark workload.

    python scripts/job_hashes.py --seeds 1 5
    python scripts/job_hashes.py --seeds 1 5 --root ../other-checkout

For each seed, runs setup() and one job() of the events-null, lorenz-sig
and cli-csv workloads of perfbench/workloads.py, in a temporary directory,
and prints one line per job: `workload seed sha256`. events-null is hashed
over the report bytes its job returns; lorenz-sig over its output dict as
canonical JSON (sorted keys, no spaces, floats as repr); cli-csv over the
lead-matrix CSV and then the generated CSV that its two CLI children
write. Then it runs every case of CASES in tests/test_golden.py through
pathsig.cli.main with -o, its inputs under tests/golden/, and prints one
line per artifact: `golden case sha256`, over the file's bytes (the
golden tests compare to 1e-12; these lines compare bytes). It runs the
slidearea_events case once more with --band-mode quantile, which no golden
case uses, and prints `quantile slidearea_events sha256`. Last it runs each
argv of cli_cases() through pathsig.cli.main, with COLUMNS=80 and no
PATHSIG_* variable set, and prints one line per argv: `cli ["arg",...]
sha256`, over its exit code, stdout and stderr. These are help, --version
and usage errors, which exit before reading any input, so the lines compare
the parser's text. Two checkouts whose lines match produced the same
outputs byte for byte, so a change meant to keep every output can be
compared against its parent. Exits 1 when a workload's check() reports a
problem with an output, or a golden or quantile case does not exit 0 (its
line is then left out).

The library, the workloads and the cases are read from --root (default:
the checkout this script is in); nothing under perfbench/ is modified.
"""

from __future__ import annotations

import os

# as perfbench/run.py: one BLAS/OpenMP thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

#: the workloads hashed, in the order of the lines printed
HASHED = ("events-null", "lorenz-sig", "cli-csv")


def job_bytes(name: str, out) -> bytes:
    if name == "cli-csv":
        return (out["matrix"] + out["generated"]).encode("utf-8")
    if isinstance(out, bytes):
        return out
    return json.dumps(out, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def golden_cases(root: str) -> dict:
    """CASES of tests/test_golden.py, read as the literal it is."""
    with open(os.path.join(root, "tests", "test_golden.py")) as fh:
        for node in ast.parse(fh.read()).body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["CASES"]):
                return ast.literal_eval(node.value)
    raise SystemExit("tests/test_golden.py defines no CASES")


def cli_cases(cli) -> list:
    """The argv of each `cli` line: the top level, gen, every command and
    generator of the cli module's tables with -h, and some usage errors."""
    return ([[], ["-h"], ["--version"], ["bogus"], ["gen"], ["gen", "nope"],
             ["gen", "-h"]]
            + [[name, "-h"] for name in cli._COMMANDS]
            + [["gen", name, "-h"] for name in cli._GENERATORS]
            + [["sig", "--bogus"], ["slidearea", "--window", "x"],
               ["slidearea", "-", "--normalize", "both"],
               ["influence", "--pairs"]])


def cli_outcome(cli, argv) -> bytes:
    """The exit code, stdout and stderr of an in-process cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps([code, out.getvalue(), err.getvalue()]).encode("utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="source checkout whose src/, perfbench/ and golden cases run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    failed = False
    for name in HASHED:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                w = workloads.WORKLOADS[name](root, work, seed)
                w.setup()
                out = w.job(None)
                problems = w.check(out)
            print(name, seed, hashlib.sha256(job_bytes(name, out)).hexdigest(),
                  flush=True)
            for problem in problems:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
            failed = failed or bool(problems)
    import pathsig.cli as cli

    golden = os.path.join(root, "tests", "golden")
    cases = golden_cases(root)
    runs = [("golden", case, cases[case]) for case in sorted(cases)]
    # no golden case uses quantile bands; this line pins their bytes
    runs.append(("quantile", "slidearea_events",
                 cases["slidearea_events"] + ["--band-mode", "quantile"]))
    for kind, case, case_argv in runs:
        case_argv = [os.path.join(golden, a) if a.endswith(".csv") else a
                     for a in case_argv]
        with tempfile.TemporaryDirectory() as work:
            out = os.path.join(work, "artifact")
            code = cli.main(case_argv + ["-o", out])
            if code != 0:
                print(f"{kind} {case}: exit {code}", file=sys.stderr)
                failed = True
                continue
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        print(kind, case, digest, flush=True)
    # help wraps at COLUMNS; a PATHSIG_* variable could fail a parse
    os.environ["COLUMNS"] = "80"
    for var in [v for v in os.environ if v.startswith("PATHSIG_")]:
        del os.environ[var]
    for case_argv in cli_cases(cli):
        digest = hashlib.sha256(cli_outcome(cli, case_argv)).hexdigest()
        print("cli", json.dumps(case_argv, separators=(",", ":")), digest,
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
