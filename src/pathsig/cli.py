"""Deterministic command-line front end.

Output is a pure function of (input bytes, flags, environment): JSON
artifacts use sorted keys and fixed separators, CSV artifacts are written
block by block in a fixed row order, so re-running a command reproduces
the bytes exactly.

Two tables declare every option and its allowed values once, _COMMANDS
and _GENERATORS, and build_parser() turns them into the argparse tree; a
_COMMANDS row also names its handler and the options it cannot go without.
Each option of the chosen (sub)command, -h and --version aside, falls back
to PATHSIG_<DEST> (PATHSIG_LEVEL, PATHSIG_SMOOTH_SIGMA, PATHSIG_N_EVENTS,
...): an explicit flag wins over the variable, the variable over the
built-in default, and a variable for an option the command lacks is
ignored. Booleans accept 1/0/true/false/yes/no/on/off; lists split on
spaces or ';'.

The resolved argparse namespace is the run's config: _config_from_args
checks all of it in place before any handler runs (a missing needed option
reads `<command> needs --<flag>`), the handler reads it, and _echo writes
the config block each artifact carries. A handler returns (kind, JSON
payload thunk, CSV body thunk) and one emitter renders the requested format,
wrapping JSON with io.artifact and CSV with `# key=value` provenance lines.
The pairwise commands, slidearea, influence and xcorr, share one handler.
Start-up loads numpy, path_core, io and cli; each handler imports the
library modules it calls, so leadmatrix adds leadlag alone and --version none.

The config block is one rule over the command's options, less the output
path: an artifact must not depend on where it was written. A generator
echoes them whole under "generator", and its seed on top; an analysis its
preprocessing as the resolved "preprocess" block, the null-model options
only with --replicates, and the rest unless None or False.

Exit codes: 0 success, 2 usage (argparse; a flag outside its choices
included), 3 bad input data (non-UTF-8 bytes and bad event fields
included), 4 I/O failure, 5 configuration conflict (non-finite window,
smoothing, band, noise or warp-power values and bad PATHSIG_* values
included), a size cap (a generated dataset's rows and replicates x windows
included), a result, curve times, a prepended origin time or a null band
that overflows float64, or a diverging integration.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import asdict, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .io import (
    CsvFormatError,
    artifact,
    canonical_json,
    curves_csv_blocks,
    lead_matrix_csv_blocks,
    load_events,
    load_path_csv,
    path_csv_blocks,
    reports_csv_blocks,
)
from .path_core import Path, PreprocessConfig, preprocess

__all__ = ["ConfigError", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_CONFIG = 5

ENV_PREFIX = "PATHSIG_"


class ConfigError(ValueError):
    """Flags, environment overrides, or their combination are invalid."""


# ---------------------------------------------------------------------------
# execution: each handler returns (kind, JSON payload thunk, CSV body thunk),
# a thunk being None for a format the command does not write, and _emit
# renders the one the config asks for. The CSV thunk returns the artifact's
# text as blocks of rows, which _emit encodes and writes one at a time, so
# no CSV artifact is ever held whole. The command table below names the
# handlers. Each handler imports the library names it calls from their
# defining modules when it runs, never storing them in a table: a run
# loads only the modules its command calls, and rebinding a function on
# its defining module (as a tracer does) reaches every command.

Config = argparse.Namespace  # the parsed options of one run are its config
Output = Tuple[
    str, Optional[Callable[[], dict]], Optional[Callable[[], Iterable[str]]]
]


def _load_input(cfg: Config) -> Path:
    source = sys.stdin.buffer if cfg.input in (None, "-") else cfg.input
    return load_path_csv(source)


def _prepared(cfg: Config) -> Path:
    return preprocess(_load_input(cfg), cfg.preprocess)


def _cmd_signature(cfg: Config) -> Output:
    from .signature import signature
    from .tensor_algebra import lyndon_words, tensor_log
    a = _prepared(cfg)
    result = signature(a, cfg.level if cfg.level is not None else 2)
    if cfg.command == "sig":
        return "signature", lambda: {"result": result.to_dict()}, None
    log_tensor = tensor_log(result.tensor)
    payload: Dict[str, object] = {
        "result": dict(
            log_tensor.to_dict(), channel_names=list(a.channel_names)
        )
    }
    if cfg.lyndon:
        payload["lyndon"] = [
            {"word": list(w), "coefficient": float(log_tensor.coefficient(w))}
            for w in lyndon_words(log_tensor.alphabet_size, log_tensor.level)
        ]
    return "logsig", lambda: payload, None


def _cmd_leadmatrix(cfg: Config) -> Output:
    from .leadlag import lead_matrix
    matrix = lead_matrix(_prepared(cfg))
    return (
        "leadmatrix",
        lambda: {"result": matrix.to_dict()},
        lambda: lead_matrix_csv_blocks(matrix),
    )


def _cmd_pairwise(cfg: Config) -> Output:
    """slidearea, influence and xcorr: the command's statistic of each pair
    as a curve, or with --replicates as a shuffle_null report."""
    from .causality import (NullModelSpec, WindowSpec, cross_correlation,
                            shuffle_null, sliding_signature_derivative,
                            sliding_signed_area)
    if cfg.command == "xcorr":
        name, measure, arg = "xcorr", cross_correlation, cfg.lags
    else:
        if cfg.command == "slidearea":
            name, measure = "signed_area", sliding_signed_area
        else:
            name, measure = "signature_derivative", sliding_signature_derivative
        arg = WindowSpec(cfg.window, cfg.stride) if cfg.window is not None else None

    if not cfg.replicates:
        a = _prepared(cfg)
        curves = [(name, pair, *measure(a, pair, arg)) for pair in cfg.pairs]

        def payload() -> dict:
            return {
                "curves": [
                    {
                        "statistic": name,
                        "pair": list(pair),
                        "times": [float(t) for t in times],
                        "values": [float(v) for v in vals],
                    }
                    for _, pair, times, vals in curves
                ]
            }

        return cfg.command, payload, lambda: curves_csv_blocks(curves)
    raw = _load_input(cfg)
    spec = NullModelSpec(
        replicates=cfg.replicates,
        seed=cfg.seed,
        band_sigmas=cfg.sigmas,
        min_run_length=cfg.min_run,
        band_mode=cfg.band_mode,
    )
    reports = [
        shuffle_null(
            raw,
            lambda p, win, pair=pair: measure(p, pair, win),
            spec,
            w=arg,
            preprocess_cfg=cfg.preprocess,
            statistic_name=name,
            pair=pair,
        )
        for pair in cfg.pairs
    ]
    return (
        cfg.command,
        lambda: {"reports": [r.to_dict() for r in reports]},
        lambda: reports_csv_blocks(reports),
    )


def _cmd_granger(cfg: Config) -> Output:
    from .causality import granger_var
    c = granger_var(_prepared(cfg), cfg.caused, cfg.covariates, cfg.order)
    result = {
        "C": float(c),
        "caused": cfg.caused,
        "covariates": list(cfg.covariates),
        "order": cfg.order,
    }
    return "granger", lambda: {"result": result}, None


def _cmd_gen(cfg: Config) -> Output:
    from .dynamics import (LorenzParams, cyclic_pair, default_three_channel_events,
                           lorenz, three_channel_event_series)
    if cfg.generator == "lorenz":
        a = lorenz(
            LorenzParams(cfg.sigma, cfg.rho, cfg.beta, cfg.x0, cfg.dt, cfg.steps)
        )
        if cfg.thin > 1:
            a = Path(a.times[:: cfg.thin], a.values[:: cfg.thin], a.channel_names)
    elif cfg.generator == "cyclic":
        a = cyclic_pair(
            n_events=cfg.n_events,
            phase_lag=cfg.phase_lag,
            warp=None if cfg.warp_power == 1.0 else (lambda u: u ** cfg.warp_power),
            samples=cfg.samples,
            noise_sigma=cfg.noise,
            seed=cfg.seed,
        )
    else:
        events = default_three_channel_events()
        if cfg.events is not None:
            events = load_events(cfg.events)
        a = three_channel_event_series(
            events, samples=cfg.samples, noise_sigma=cfg.noise, seed=cfg.seed
        )
    return f"dataset:{cfg.generator}", None, lambda: path_csv_blocks(a)


# ---------------------------------------------------------------------------
# parser tables and flag/environment resolution

Option = Tuple[List[str], dict]


def _opt(flags: str, type=None, default=None, **kwargs) -> Option:
    """One add_argument call: `default` is the built-in default, which
    PATHSIG_<DEST> overrides for the chosen command."""
    if type is not None:
        kwargs["type"] = type
    return flags.split(), dict(kwargs, default=default)


_SWITCH = dict(action=argparse.BooleanOptionalAction, default=False)
_OUTPUT = _opt("-o --output", help="output file (default stdout)")
_SOURCE = [
    _opt("input", nargs="?", default="-", help="input CSV file, - for stdin"),
    _OUTPUT,
    _opt("--smooth-sigma", float, help="Gaussian kernel width (0 disables)"),
    _opt("--center", **_SWITCH),
    _opt("--normalize", choices=("per", "global", "none"), default="none"),
    _opt("--prepend-zero", **_SWITCH),
]
_FORMAT = _opt("--format", choices=("json", "csv"), default="json")
_PAIRS = _opt(
    "--pairs",
    nargs="+",
    metavar="I,J",
    help="channel pairs, e.g. --pairs 1,2 2,3",
)
_WINDOWED = _SOURCE + [
    _FORMAT,
    _opt("--window", float),
    _opt("--stride", float),
    _opt("--replicates", int, 0),
    _opt("--seed", int),
    _opt("--sigmas", float, 3.0),
    _opt("--min-run", int, 5),
    _opt("--band-mode", choices=("gaussian", "quantile"), default="gaussian"),
    _PAIRS,
]
_LEVEL = _opt("--level", int)
_SAMPLING = [
    _opt("--samples", int, 2000),
    _opt("--noise", float, 0.0),
    _opt("--seed", int, 0),
]

# command -> (help, options, handler, needs): `needs` are the dests the
# command cannot run without, checked after the PATHSIG_* fallbacks
_COMMANDS = {
    "sig": ("truncated signature", _SOURCE + [_LEVEL], _cmd_signature, ()),
    "logsig": (
        "log-signature coefficients",
        _SOURCE
        + [
            _LEVEL,
            _opt(
                "--lyndon",
                default=False,
                action="store_true",
                help="also list coefficients on the Lyndon words",
            ),
        ],
        _cmd_signature,
        (),
    ),
    "leadmatrix": (
        "pairwise signed-area matrix", _SOURCE + [_FORMAT], _cmd_leadmatrix, ()
    ),
    "slidearea": (
        "sliding-window signed area, optionally against a shuffled null",
        _WINDOWED,
        _cmd_pairwise,
        ("pairs", "window", "stride", "smooth_sigma"),
    ),
    "influence": (
        "signature-derivative influence stream",
        _WINDOWED,
        _cmd_pairwise,
        ("pairs",),
    ),
    "xcorr": (
        "lagged cross-correlation",
        _SOURCE + [_FORMAT, _PAIRS, _opt("--lags", float, help="maximum lag")],
        _cmd_pairwise,
        ("pairs", "lags"),
    ),
    "granger": (
        "Granger VAR log variance ratio",
        _SOURCE
        + [
            _opt("--caused", int),
            _opt("--covariates", int, (), nargs="*"),
            _opt("--order", int, 1),
        ],
        _cmd_granger,
        ("caused",),
    ),
}

# generator -> options, the subcommands of `pathsig gen`, all run by _cmd_gen
_GENERATORS = {
    "lorenz": [
        _OUTPUT,
        _opt("--sigma", float, 10.0),
        _opt("--rho", float, 28.0),
        _opt("--beta", float, 8.0 / 3.0),
        _opt("--x0", default="1,1,1", help="initial state x,y,z"),
        _opt("--dt", float, 0.005),
        _opt("--steps", int, 10000),
        _opt("--thin", int, 1, help="keep every k-th sample"),
    ],
    "cyclic": [
        _OUTPUT,
        _opt("--n-events", int, 4),
        _opt("--phase-lag", float, 0.25),
        _opt(
            "--warp-power",
            float,
            1.0,
            help="reparametrize by t**p (1 = no warp)",
        ),
    ]
    + _SAMPLING,
    "events": [
        _OUTPUT,
        _opt(
            "--events",
            help="JSON file with a list of events "
            '[{"time":..,"leader":..,"follower":..,...}]',
        ),
    ]
    + _SAMPLING,
}

# the options that build PreprocessConfig, named as its fields
_PREPROCESS = tuple(f.name for f in fields(PreprocessConfig))
# the options of a null model, echoed only when --replicates draws one
_NULL_MODEL = ("replicates", "sigmas", "min_run", "band_mode")


def _add_command(sub, name: str, options: List[Option], help_=None,
                 **defaults) -> None:
    p = sub.add_parser(name, help=help_)
    for flags, kwargs in options:
        p.add_argument(*flags, **kwargs)
    p.set_defaults(parser=p, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsig",
        description="Path-signature lead-lag and influence analysis.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pathsig {__version__}"
    )
    # what a run holds when its command has no such option or table row
    parser.set_defaults(format="json", seed=None, replicates=0, needs=())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, options, handler, needs) in _COMMANDS.items():
        _add_command(sub, name, options, help_, handler=handler, needs=needs)
    gen = sub.add_parser("gen", help="write synthetic datasets as CSV")
    gsub = gen.add_subparsers(dest="generator", required=True)
    for name, options in _GENERATORS.items():
        _add_command(gsub, name, options, handler=_cmd_gen, format="csv")
    return parser


def _options(parser: argparse.ArgumentParser) -> List[argparse.Action]:
    """The options of one (sub)command, -h aside: what PATHSIG_* can set."""
    return [
        a
        for a in parser._actions
        if a.option_strings and a.default is not argparse.SUPPRESS
    ]


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_pairs(raw: str) -> Tuple[Tuple[int, int], ...]:
    pairs: List[Tuple[int, int]] = []
    for tok in raw.replace(";", " ").split():
        try:
            i, j = map(int, tok.split(","))
        except ValueError:
            raise ValueError(f"pair {tok!r} is not of the form i,j") from None
        pairs.append((i, j))
    if not pairs:
        raise ValueError("no pairs given")
    return tuple(pairs)


def _from_env(action: argparse.Action, name: str):
    """PATHSIG_<DEST> cast like the flag; lists split on spaces or ';'."""
    raw = os.environ[name]
    try:
        if action.nargs == 0:
            return _parse_bool(raw)
        cast = action.type or str
        if action.nargs in ("+", "*"):
            return [cast(tok) for tok in raw.replace(";", " ").split()]
        value = cast(raw)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{value!r} is not one of {action.choices}")
        return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None


def _parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse twice: the first parse finds the command, whose PATHSIG_<DEST>
    values then become its defaults for the second."""
    parser = build_parser()
    args = parser.parse_args(argv)
    env = {
        a.dest: _from_env(a, ENV_PREFIX + a.dest.upper())
        for a in _options(args.parser)
        if ENV_PREFIX + a.dest.upper() in os.environ
    }
    if env:
        args.parser.set_defaults(**env)
        args = parser.parse_args(argv)
    return args


def _config_from_args(args: Config) -> Config:
    """Check the parsed options in place and return them as the config."""
    given = vars(args)
    if "x0" in given:
        try:
            x0 = tuple(float(v) for v in args.x0.split(","))
        except ValueError:
            raise ConfigError(f"--x0 {args.x0!r} is not x,y,z") from None
        if len(x0) != 3:
            raise ConfigError("--x0 needs exactly three components")
        args.x0 = x0
    if given.get("thin", 1) < 1:
        raise ConfigError("--thin must be >= 1")
    warp_power = given.get("warp_power", 1.0)
    if not np.isfinite(warp_power):
        raise ConfigError(f"--warp-power must be finite, got {warp_power}")
    if warp_power <= 0:
        raise ConfigError("--warp-power must be positive")
    if given.get("pairs") is not None:
        args.pairs = _parse_pairs(" ".join(args.pairs))
    if given.keys() >= set(_PREPROCESS):
        steps = {dest: given[dest] for dest in _PREPROCESS}
        steps["smooth_sigma"] = args.smooth_sigma or 0.0
        args.preprocess = PreprocessConfig(**steps)
    if args.replicates < 0 or args.replicates == 1:
        raise ConfigError("--replicates must be 0 or at least 2")
    if args.replicates and args.seed is None:
        raise ConfigError("--seed is required when --replicates is set")
    for dest in args.needs:
        if given[dest] is None:
            raise ConfigError(f"{args.command} needs --{dest.replace('_', '-')}")
    if (given.get("window") is None) != (given.get("stride") is None):
        raise ConfigError("--window and --stride go together")
    return args


def _echo(cfg: Config) -> dict:
    """The config block of an artifact, by the rule in the module docstring."""
    hidden = {"output", *_PREPROCESS}
    if not cfg.replicates:
        hidden.update(_NULL_MODEL)
    dests = [a.dest for a in _options(cfg.parser) if a.dest not in hidden]
    echo = {dest: getattr(cfg, dest) for dest in dests}
    out = {"command": cfg.command, "format": cfg.format, "seed": cfg.seed}
    if cfg.command == "gen":
        out["generator"] = dict(echo, name=cfg.generator)
    else:
        out.update(echo, preprocess=asdict(cfg.preprocess))
    return {k: v for k, v in out.items() if v is not None and v is not False}


def _emit(cfg: Config, kind: str, payload, body) -> None:
    """Write the artifact to -o or stdout: CSV as its `# key=value` lines,
    then a block of rows at a time. The handlers have checked their results
    and the blocks only format them, so a run that fails has opened no
    output file."""
    # an artifact that drew randomness carries its seed
    seed = cfg.seed if cfg.replicates or cfg.command == "gen" else None
    config = _echo(cfg)
    if cfg.format == "csv":
        meta = [f"kind={kind}", f"version={__version__}"]
        if seed is not None:
            meta.append(f"seed={seed}")
        meta.append("config=" + canonical_json(config).decode("utf-8").strip())
        head = "".join(f"# {m}\n" for m in meta).encode("utf-8")
        data = itertools.chain(
            [head], (block.encode("utf-8") for block in body())
        )
    else:
        data = [canonical_json(artifact(kind, config, payload(), seed))]
    if cfg.output is None or cfg.output == "-":
        sys.stdout.buffer.writelines(data)
        sys.stdout.buffer.flush()
    else:
        with open(cfg.output, "wb") as fh:
            fh.writelines(data)


def run(cfg: Config) -> int:
    """Execute one command; raises on failure, returns 0 on success."""
    _emit(cfg, *cfg.handler(cfg))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(_config_from_args(_parse_args(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except CsvFormatError as exc:
        print(f"pathsig: bad input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"pathsig: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"pathsig: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
