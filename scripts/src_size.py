#!/usr/bin/env python3
"""Print the size of each src/pathsig module at a base revision and now.

    python scripts/src_size.py --base HEAD^

Prints, for the modules under src/pathsig/ in the working tree and at
--base (a git revision): the line count of each module now, as `wc -l`
lists it; the total lines at the base and now, with the delta; each
module's lines at the base -> now; and each module's compile() peak
(tracemalloc, MB) and tokens of code at the base -> now. Tokens of code
are tokenize's tokens less COMMENT and NL, so comments and blank lines do
not count. perfbench runs without a bytecode cache, so the compile() peak
of a module reaches peak_rss_mb; it steps up when a module passes 2,048
and 4,096 tokens of code. A token line ends with `(crosses 2,048)` or
`(now under 2,048)` for each such step that lies between the module's
counts at the base and now. A module missing on one side reads `-`. Run
it from the root of the checkout.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tokenize
import tracemalloc

SRC = "src/pathsig"

#: tokens of code at which a module's compile() peak steps up
STEPS = (2048, 4096)


def _at(base, path):
    """The file's text at revision base, or None where it does not exist."""
    shown = subprocess.run(["git", "show", f"{base}:{path}"],
                           capture_output=True, text=True)
    return shown.stdout if shown.returncode == 0 else None


def _now(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read()


def _lines(source):
    return 0 if source is None else source.count("\n")


def _peak(source, path):
    tracemalloc.start()
    compile(source, path, "exec")
    mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return f"{mb:.2f}"


def _tokens(source):
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(source).readline)
               if t.type not in (tokenize.COMMENT, tokenize.NL))


def _crossings(before, after):
    """' (crosses 2,048)', ' (now under 2,048)', ... for each step between
    the two token counts; '' when there is none or a count is missing."""
    if before is None or after is None:
        return ""
    marks = [f"{'crosses' if after >= s else 'now under'} {s:,}"
             for s in STEPS if (before < s) != (after < s)]
    return f" ({', '.join(marks)})" if marks else ""


def main(argv) -> None:
    # no argparse: the names it interns would lower cli.py's compile() peak
    if len(argv) != 2 or argv[0] != "--base":
        sys.exit("usage: python scripts/src_size.py --base <git revision>")
    base = argv[1]
    listed = subprocess.run(["git", "ls-tree", "--name-only", base, f"{SRC}/"],
                            capture_output=True, text=True, check=True).stdout
    current = sorted(f"{SRC}/{f}" for f in os.listdir(SRC) if f.endswith(".py"))
    paths = sorted({p for p in listed.split() if p.endswith(".py")} | set(current))
    before = {p: _at(base, p) for p in paths}
    after = {p: _now(p) for p in paths}

    # as `wc -l` on regular files: counts as wide as the total bytes' digits
    width = len(str(sum(os.path.getsize(p) for p in current)))
    for p in current:
        print(f"{_lines(after[p]):{width}d} {p}")
    now = sum(_lines(after[p]) for p in current)
    print(f"{now:{width}d} total")
    parent = sum(_lines(s) for s in before.values())
    print(f"parent commit ({base}): {parent} lines; this commit: {now} lines; "
          f"delta: {now - parent}")
    print()
    print(f"per module: parent ({base}) -> this commit (delta)")
    for p in paths:
        b, a = _lines(before[p]), _lines(after[p])
        print(f"{p}: {b} -> {a} ({a - b})")
    print()
    print(f"compile() peak per module (tracemalloc MB) and tokens of code: "
          f"parent ({base}) -> this commit")
    for p in paths:
        b, a = before[p], after[p]
        tb = None if b is None else _tokens(b)
        ta = None if a is None else _tokens(a)
        print(f"{p}: {'-' if b is None else _peak(b, p)} -> "
              f"{'-' if a is None else _peak(a, p)} MB, "
              f"{'-' if tb is None else tb} -> {'-' if ta is None else ta} tokens"
              f"{_crossings(tb, ta)}")


if __name__ == "__main__":
    main(sys.argv[1:])
