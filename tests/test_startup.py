"""What a pathsig process loads: the CLI starts with numpy, path_core, io,
its float formatter _g17 and cli, a command adds the library modules it
calls, and the package binds its exports on first use. Each case runs in
a fresh interpreter."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
UNIFORM = str(ROOT / "tests" / "golden" / "gen_events.csv")
START_UP = ["pathsig", "pathsig._g17", "pathsig.cli", "pathsig.io",
            "pathsig.path_core"]
# the modules whose __all__ lists the package exports, in order
LIBRARY = ("tensor_algebra", "path_core", "signature", "leadlag", "causality",
           "dynamics")
LOADED = "sorted(m for m in sys.modules if m.startswith('pathsig'))"


def _fresh(code: str):
    """The JSON value that code prints last, run in a fresh interpreter on
    this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_the_start_up_modules():
    loaded, numpy = _fresh(
        f"import json, sys\nimport pathsig.cli\n"
        f"print(json.dumps([{LOADED}, 'numpy' in sys.modules]))"
    )
    assert loaded == START_UP
    assert numpy


OUT = ["-o", "OUT"]  # the test's output file


@pytest.mark.parametrize(
    "argv, exit_code, added",
    [
        (["--version"], 0, []),
        (["-h"], 0, []),
        (["slidearea", UNIFORM, "--pairs", "1,2"] + OUT, 5, []),  # no --window
        (["leadmatrix", UNIFORM] + OUT, 0, ["pathsig.leadlag"]),
        (["gen", "cyclic", "--samples", "64"] + OUT, 0, ["pathsig.dynamics"]),
        (["sig", UNIFORM] + OUT, 0,
         ["pathsig.signature", "pathsig.tensor_algebra"]),
        (["xcorr", UNIFORM, "--pairs", "1,2", "--lags", "0.1"] + OUT, 0,
         ["pathsig._null", "pathsig._pcg64", "pathsig.causality",
          "pathsig.signature", "pathsig.tensor_algebra"]),
    ],
    ids=["version", "help", "config-error", "leadmatrix", "gen-cyclic", "sig",
         "xcorr"],
)
def test_a_command_loads_only_the_modules_it_calls(argv, exit_code, added,
                                                   tmp_path):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    seen = _fresh(
        f"import json, sys\nimport pathsig.cli\n"
        f"code = pathsig.cli.main({argv!r})\n"
        f"print()\nprint(json.dumps([code, {LOADED}]))"
    )
    assert seen == [exit_code, sorted(START_UP + added)]


@pytest.mark.parametrize(
    "first, loaded",
    [
        ("import pathsig.signature",
         ["pathsig", "pathsig.path_core", "pathsig.signature",
          "pathsig.tensor_algebra"]),
        (f"import pathsig.cli\npathsig.cli.main(['sig', {UNIFORM!r}, '-o', OUT])",
         sorted(START_UP + ["pathsig.signature", "pathsig.tensor_algebra"])),
        ("import pathsig", ["pathsig"]),
    ],
    ids=["signature-module", "cli-sig", "package"],
)
def test_pathsig_signature_is_the_function_in_every_import_order(first, loaded,
                                                                 tmp_path):
    """Until an exported name is used, only what was imported is loaded;
    then pathsig.signature is the function, never the submodule, and
    __all__ is the list the package always exported."""
    seen = _fresh(
        f"import importlib, json, sys\nOUT = {str(tmp_path / 'out')!r}\n"
        f"{first}\nloaded = {LOADED}\nimport pathsig\n"
        "function = pathsig.signature\n"
        "is_function = function is sys.modules['pathsig.signature'].signature\n"
        "star = {}\nexec('from pathsig import *', star)\n"
        f"eager = ['__version__'] + [n for m in {LIBRARY!r} for n in "
        "importlib.import_module('pathsig.' + m).__all__]\n"
        "print(json.dumps([loaded, is_function, pathsig.__all__ == eager,\n"
        "                  star['signature'] is pathsig.signature]))"
    )
    assert seen == [loaded, True, True, True]


def test_dir_lists_the_exports_before_their_first_use():
    listed, loaded = _fresh(
        f"import json, sys\nimport pathsig\nnames = dir(pathsig)\n"
        f"print(json.dumps([[n for n in ('lead_matrix', 'signature', "
        f"'__version__') if n in names], {LOADED}]))"
    )
    assert listed == ["lead_matrix", "signature", "__version__"]
    assert loaded == sorted(["pathsig", "pathsig._null", "pathsig._pcg64"]
                            + [f"pathsig.{m}" for m in LIBRARY])


def test_the_null_module_loads_without_the_window_statistics():
    """pathsig._null does not import pathsig.causality, which re-exports
    its public names."""
    loaded = _fresh(
        f"import json, sys\nimport pathsig._null\nprint(json.dumps({LOADED}))")
    assert loaded == ["pathsig", "pathsig._null", "pathsig._pcg64", "pathsig.path_core"]


def test_naming_a_submodule_through_the_package_loads_it_alone():
    """`from pathsig import leadlag` asks the package for the name first;
    the package leaves it to the import system, which loads leadlag alone,
    as `import pathsig.leadlag` does. signature stays the function."""
    named, plain = (
        _fresh(f"import json, sys\n{first}\nprint(json.dumps({LOADED}))")
        for first in ("from pathsig import leadlag", "import pathsig.leadlag"))
    assert named == plain == ["pathsig", "pathsig.leadlag", "pathsig.path_core"]
    assert _fresh(
        "import json, sys\nfrom pathsig import signature\nprint(json.dumps("
        "signature is sys.modules['pathsig.signature'].signature))")
