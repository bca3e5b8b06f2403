"""Run `pathsig.cli.main(argv)` in a child process, as the benchmark does.

Usage: python3 launcher.py --peak FILE [--spans FILE] -- <pathsig arguments>

Without --spans this is what the installed `pathsig` console script does,
and on exit it writes this process's peak RSS in KiB to the --peak file.
With --spans the child also times the import of pathsig.cli, installs the
same wrappers as the benchmark process, runs main inside a `cli.main` span
and writes its spans to that file as JSON lines.
"""

from __future__ import annotations

import argparse
import sys
import time

import spans


def _launch(argv: list) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--peak", required=True)
    parser.add_argument("--spans")
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    tracer = spans.Tracer() if opts.spans else None
    try:
        start = time.perf_counter()
        import pathsig.cli

        if tracer is None:
            return pathsig.cli.main(cli_args)
        tracer.record("cli.import", start, time.perf_counter())
        spans.install(tracer)
        return tracer.span("cli.main", pathsig.cli.main, (cli_args,), {})
    finally:
        if tracer is not None:
            tracer.dump(opts.spans)
        with open(opts.peak, "w") as fh:
            fh.write(str(spans.peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))
