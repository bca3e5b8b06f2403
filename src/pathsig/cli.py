"""Deterministic command-line front end.

Output is a pure function of (input bytes, flags, seed): JSON artifacts use
sorted keys and fixed separators, CSV artifacts are written row by row in a
fixed order, so re-running a command reproduces the bytes exactly.

Exit codes: 0 success, 2 usage (argparse), 3 bad input data, 4 I/O failure,
5 configuration conflict. Value flags can also be set via environment
variables with the PATHSIG_ prefix (PATHSIG_LEVEL, PATHSIG_SEED, ...);
explicit flags win over the environment, the environment wins over built-in
defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .causality import (
    NullModelSpec,
    WindowSpec,
    cross_correlation,
    granger_var,
    shuffle_null,
    sliding_signature_derivative,
    sliding_signed_area,
)
from .dynamics import (
    Event,
    LorenzParams,
    cyclic_pair,
    default_three_channel_events,
    lorenz,
    three_channel_event_series,
)
from .io import (
    CsvFormatError,
    canonical_json,
    curves_artifact,
    curves_csv,
    lead_matrix_artifact,
    lead_matrix_csv,
    load_path_csv,
    path_to_csv,
    reports_artifact,
    reports_csv,
    scalar_artifact,
    signature_artifact,
)
from .leadlag import lead_matrix
from .path_core import Path, PreprocessConfig, preprocess
from .signature import signature
from .tensor_algebra import lyndon_words, tensor_log

__all__ = ["ConfigError", "RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_CONFIG = 5

ENV_PREFIX = "PATHSIG_"


class ConfigError(ValueError):
    """Flags, environment overrides, or their combination are invalid."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on; echoed into every artifact."""

    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    fmt: str = "json"
    level: Optional[int] = None
    pairs: Tuple[Tuple[int, int], ...] = ()
    window: Optional[float] = None
    stride: Optional[float] = None
    replicates: int = 0
    seed: Optional[int] = None
    sigmas: float = 3.0
    min_run: int = 5
    band_mode: str = "gaussian"
    smooth_sigma: Optional[float] = None
    center: bool = False
    normalize: str = "none"
    prepend_zero: bool = False
    lags: Optional[float] = None
    order: int = 1
    caused: Optional[int] = None
    covariates: Tuple[int, ...] = ()
    lyndon: bool = False
    generator: Optional[Dict[str, object]] = None

    def to_dict(self) -> dict:
        # input/output paths are deliberately omitted: the artifact must not
        # depend on where it was read from or written to
        out: Dict[str, object] = {"command": self.command, "format": self.fmt}
        if self.level is not None:
            out["level"] = self.level
        if self.pairs:
            out["pairs"] = [list(p) for p in self.pairs]
        if self.window is not None:
            out["window"] = self.window
            out["stride"] = self.stride
        if self.replicates:
            out["replicates"] = self.replicates
            out["sigmas"] = self.sigmas
            out["min_run"] = self.min_run
            out["band_mode"] = self.band_mode
        if self.seed is not None:
            out["seed"] = self.seed
        if self.generator is None:
            out["preprocess"] = {
                "smooth_sigma": self.smooth_sigma or 0.0,
                "center": self.center,
                "normalize": self.normalize,
                "prepend_zero": self.prepend_zero,
            }
        if self.lags is not None:
            out["lags"] = self.lags
        if self.caused is not None:
            out["caused"] = self.caused
            out["covariates"] = list(self.covariates)
            out["order"] = self.order
        if self.lyndon:
            out["lyndon"] = True
        if self.generator is not None:
            out["generator"] = self.generator
        return out


# ---------------------------------------------------------------------------
# flag/environment resolution


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_pairs(raw: str) -> Tuple[Tuple[int, int], ...]:
    tokens = raw.replace(";", " ").split()
    pairs: List[Tuple[int, int]] = []
    for tok in tokens:
        parts = tok.split(",")
        if len(parts) != 2:
            raise ValueError(f"pair {tok!r} is not of the form i,j")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("no pairs given")
    return tuple(pairs)


def _resolve(cli_value, env_name: str, cast: Callable[[str], object], default):
    """CLI flag > PATHSIG_<env_name> > built-in default."""
    if cli_value is not None:
        return cli_value
    raw = os.environ.get(ENV_PREFIX + env_name)
    if raw is not None:
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad value for {ENV_PREFIX}{env_name}: {exc}"
            ) from None
    return default


def _choice(value: str, name: str, allowed: Tuple[str, ...]) -> str:
    if value not in allowed:
        raise ConfigError(
            f"{name} must be one of {', '.join(allowed)}; got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsig",
        description="Path-signature lead-lag and influence analysis.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pathsig {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input CSV file, or - for stdin (default)",
    )
    io_p.add_argument("-o", "--output", help="output file (default stdout)")

    fmt_p = argparse.ArgumentParser(add_help=False)
    fmt_p.add_argument("--format", choices=("json", "csv"), default=None)

    pre_p = argparse.ArgumentParser(add_help=False)
    pre_p.add_argument("--smooth-sigma", type=float, default=None)
    pre_p.add_argument(
        "--center", action=argparse.BooleanOptionalAction, default=None
    )
    pre_p.add_argument("--normalize", default=None)
    pre_p.add_argument(
        "--prepend-zero", action=argparse.BooleanOptionalAction, default=None
    )

    win_p = argparse.ArgumentParser(add_help=False)
    win_p.add_argument("--window", type=float, default=None)
    win_p.add_argument("--stride", type=float, default=None)

    null_p = argparse.ArgumentParser(add_help=False)
    null_p.add_argument("--replicates", type=int, default=None)
    null_p.add_argument("--seed", type=int, default=None)
    null_p.add_argument("--sigmas", type=float, default=None)
    null_p.add_argument("--min-run", type=int, default=None)
    null_p.add_argument("--band-mode", default=None)

    pairs_p = argparse.ArgumentParser(add_help=False)
    pairs_p.add_argument(
        "--pairs",
        nargs="+",
        default=None,
        metavar="I,J",
        help="channel pairs, e.g. --pairs 1,2 2,3",
    )

    p = sub.add_parser("sig", parents=[io_p, pre_p], help="truncated signature")
    p.add_argument("--level", type=int, default=None)

    p = sub.add_parser(
        "logsig", parents=[io_p, pre_p], help="log-signature coefficients"
    )
    p.add_argument("--level", type=int, default=None)
    p.add_argument(
        "--lyndon",
        action="store_true",
        help="also list coefficients on the Lyndon words",
    )

    sub.add_parser(
        "leadmatrix",
        parents=[io_p, pre_p, fmt_p],
        help="pairwise signed-area matrix",
    )

    sub.add_parser(
        "slidearea",
        parents=[io_p, pre_p, fmt_p, win_p, null_p, pairs_p],
        help="sliding-window signed area, optionally against a shuffled null",
    )

    sub.add_parser(
        "influence",
        parents=[io_p, pre_p, fmt_p, win_p, null_p, pairs_p],
        help="signature-derivative influence stream",
    )

    p = sub.add_parser(
        "xcorr",
        parents=[io_p, pre_p, fmt_p, pairs_p],
        help="lagged cross-correlation",
    )
    p.add_argument("--lags", type=float, default=None, help="maximum lag")

    p = sub.add_parser(
        "granger", parents=[io_p, pre_p], help="Granger VAR log variance ratio"
    )
    p.add_argument("--caused", type=int, default=None)
    p.add_argument("--covariates", type=int, nargs="*", default=None)
    p.add_argument("--order", type=int, default=None)

    gen = sub.add_parser("gen", help="write synthetic datasets as CSV")
    gsub = gen.add_subparsers(dest="generator", required=True)

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("-o", "--output", help="output file (default stdout)")

    g = gsub.add_parser("lorenz", parents=[out_p])
    g.add_argument("--sigma", type=float, default=10.0)
    g.add_argument("--rho", type=float, default=28.0)
    g.add_argument("--beta", type=float, default=8.0 / 3.0)
    g.add_argument("--x0", default="1,1,1", help="initial state x,y,z")
    g.add_argument("--dt", type=float, default=0.005)
    g.add_argument("--steps", type=int, default=10000)
    g.add_argument("--thin", type=int, default=1, help="keep every k-th sample")

    g = gsub.add_parser("cyclic", parents=[out_p])
    g.add_argument("--n-events", type=int, default=4)
    g.add_argument("--phase-lag", type=float, default=0.25)
    g.add_argument(
        "--warp-power",
        type=float,
        default=1.0,
        help="reparametrize by t**p (1 = no warp)",
    )
    g.add_argument("--samples", type=int, default=2000)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)

    g = gsub.add_parser("events", parents=[out_p])
    g.add_argument(
        "--events",
        default=None,
        help="JSON file with a list of events "
        '[{"time":..,"leader":..,"follower":..,...}]',
    )
    g.add_argument("--samples", type=int, default=2000)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "gen":
        return _gen_config(args)

    def has(name: str) -> bool:
        return hasattr(args, name)

    fmt = "json"
    if has("format"):
        fmt = _choice(
            _resolve(args.format, "FORMAT", str, "json"),
            "--format",
            ("json", "csv"),
        )
    pairs: Tuple[Tuple[int, int], ...] = ()
    if has("pairs"):
        raw = args.pairs if args.pairs is None else " ".join(args.pairs)
        try:
            resolved = _resolve(raw, "PAIRS", str, None)
            pairs = _parse_pairs(resolved) if resolved is not None else ()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    cfg = RunConfig(
        command=command,
        input=args.input,
        output=args.output,
        fmt=fmt,
        level=_resolve(getattr(args, "level", None), "LEVEL", int, None),
        pairs=pairs,
        window=_resolve(getattr(args, "window", None), "WINDOW", float, None),
        stride=_resolve(getattr(args, "stride", None), "STRIDE", float, None),
        replicates=_resolve(
            getattr(args, "replicates", None), "REPLICATES", int, 0
        ),
        seed=_resolve(getattr(args, "seed", None), "SEED", int, None),
        sigmas=_resolve(getattr(args, "sigmas", None), "SIGMAS", float, 3.0),
        min_run=_resolve(getattr(args, "min_run", None), "MIN_RUN", int, 5),
        band_mode=_choice(
            _resolve(
                getattr(args, "band_mode", None), "BAND_MODE", str, "gaussian"
            ),
            "--band-mode",
            ("gaussian", "quantile"),
        ),
        smooth_sigma=_resolve(
            args.smooth_sigma, "SMOOTH_SIGMA", float, None
        ),
        center=_resolve(args.center, "CENTER", _parse_bool, False),
        normalize=_choice(
            _resolve(args.normalize, "NORMALIZE", str, "none"),
            "--normalize",
            ("per", "global", "none"),
        ),
        prepend_zero=_resolve(
            args.prepend_zero, "PREPEND_ZERO", _parse_bool, False
        ),
        lags=_resolve(getattr(args, "lags", None), "LAGS", float, None),
        order=_resolve(getattr(args, "order", None), "ORDER", int, 1),
        caused=getattr(args, "caused", None),
        covariates=tuple(getattr(args, "covariates", None) or ()),
        lyndon=bool(getattr(args, "lyndon", False)),
    )
    _validate_config(cfg)
    return cfg


def _gen_config(args: argparse.Namespace) -> RunConfig:
    gen: Dict[str, object] = {"name": args.generator}
    if args.generator == "lorenz":
        try:
            x0 = tuple(float(v) for v in args.x0.split(","))
        except ValueError:
            raise ConfigError(f"--x0 {args.x0!r} is not x,y,z") from None
        if len(x0) != 3:
            raise ConfigError("--x0 needs exactly three components")
        if args.thin < 1:
            raise ConfigError("--thin must be >= 1")
        gen.update(
            sigma=args.sigma,
            rho=args.rho,
            beta=args.beta,
            x0=list(x0),
            dt=args.dt,
            steps=args.steps,
            thin=args.thin,
        )
    elif args.generator == "cyclic":
        gen.update(
            n_events=args.n_events,
            phase_lag=args.phase_lag,
            warp_power=args.warp_power,
            samples=args.samples,
            noise=args.noise,
            seed=args.seed,
        )
    else:
        gen.update(
            events=args.events, samples=args.samples,
            noise=args.noise, seed=args.seed,
        )
    return RunConfig(
        command="gen",
        output=args.output,
        fmt="csv",
        seed=gen.get("seed"),
        generator=gen,
    )


def _validate_config(cfg: RunConfig) -> None:
    if cfg.replicates < 0 or cfg.replicates == 1:
        raise ConfigError("--replicates must be 0 or at least 2")
    if cfg.replicates and cfg.seed is None:
        raise ConfigError("--seed is required when --replicates is set")
    if cfg.command in ("sig", "logsig", "granger") and cfg.fmt != "json":
        raise ConfigError(f"{cfg.command} writes JSON only")
    if cfg.command in ("slidearea", "influence", "xcorr") and not cfg.pairs:
        raise ConfigError("--pairs is required")
    if cfg.command == "slidearea":
        if cfg.window is None or cfg.stride is None:
            raise ConfigError("slidearea needs --window and --stride")
        if cfg.smooth_sigma is None:
            raise ConfigError(
                "slidearea needs an explicit --smooth-sigma (0 disables)"
            )
    if cfg.command == "influence":
        if (cfg.window is None) != (cfg.stride is None):
            raise ConfigError("--window and --stride go together")
    if cfg.command == "xcorr" and cfg.lags is None:
        raise ConfigError("xcorr needs --lags")
    if cfg.command == "granger" and cfg.caused is None:
        raise ConfigError("granger needs --caused")


# ---------------------------------------------------------------------------
# execution


def _load_input(cfg: RunConfig) -> Path:
    if cfg.input is None or cfg.input == "-":
        return load_path_csv(sys.stdin)
    with open(cfg.input, "r", newline="") as fh:
        return load_path_csv(fh)


def _preprocess_cfg(cfg: RunConfig) -> PreprocessConfig:
    return PreprocessConfig(
        smooth_sigma=cfg.smooth_sigma or 0.0,
        center=cfg.center,
        normalize=cfg.normalize,
        prepend_zero=cfg.prepend_zero,
    )


def _emit_bytes(data: bytes, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(output, "wb") as fh:
            fh.write(data)


def _csv_with_meta(
    kind: str, cfg: RunConfig, body: str, seed: Optional[int] = None
) -> bytes:
    lines = [f"# kind={kind}", f"# version={__version__}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append(
        "# config=" + canonical_json(cfg.to_dict()).decode("utf-8").strip()
    )
    return ("\n".join(lines) + "\n" + body).encode("utf-8")


def _cmd_sig(cfg: RunConfig) -> None:
    a = preprocess(_load_input(cfg), _preprocess_cfg(cfg))
    result = signature(a, cfg.level if cfg.level is not None else 2)
    _emit_bytes(
        canonical_json(signature_artifact("signature", result, cfg.to_dict())),
        cfg.output,
    )


def _cmd_logsig(cfg: RunConfig) -> None:
    a = preprocess(_load_input(cfg), _preprocess_cfg(cfg))
    result = signature(a, cfg.level if cfg.level is not None else 2)
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
    out = {"kind": "logsig", "version": __version__, "config": cfg.to_dict()}
    out.update(payload)
    _emit_bytes(canonical_json(out), cfg.output)


def _cmd_leadmatrix(cfg: RunConfig) -> None:
    a = preprocess(_load_input(cfg), _preprocess_cfg(cfg))
    matrix = lead_matrix(a)
    if cfg.fmt == "json":
        _emit_bytes(
            canonical_json(lead_matrix_artifact(matrix, cfg.to_dict())),
            cfg.output,
        )
    else:
        _emit_bytes(
            _csv_with_meta("leadmatrix", cfg, lead_matrix_csv(matrix)),
            cfg.output,
        )


def _windowed_command(cfg: RunConfig, statistic_name: str) -> None:
    raw = _load_input(cfg)
    pre = _preprocess_cfg(cfg)
    w = (
        WindowSpec(length=cfg.window, stride=cfg.stride)
        if cfg.window is not None
        else None
    )
    if statistic_name == "signed_area" and w is None:
        raise ConfigError("slidearea needs --window and --stride")

    def stat_for(pair: Tuple[int, int]):
        if statistic_name == "signed_area":
            return lambda p, win: sliding_signed_area(p, pair, win)
        return lambda p, win: sliding_signature_derivative(p, pair, win)

    kind = "slidearea" if statistic_name == "signed_area" else "influence"
    if cfg.replicates:
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
                stat_for(pair),
                spec,
                w=w,
                preprocess_cfg=pre,
                statistic_name=statistic_name,
                pair=pair,
            )
            for pair in cfg.pairs
        ]
        if cfg.fmt == "json":
            _emit_bytes(
                canonical_json(reports_artifact(kind, reports, cfg.to_dict())),
                cfg.output,
            )
        else:
            _emit_bytes(
                _csv_with_meta(kind, cfg, reports_csv(reports), seed=cfg.seed),
                cfg.output,
            )
        return
    a = preprocess(raw, pre)
    curves = []
    for pair in cfg.pairs:
        times, values = stat_for(pair)(a, w)
        curves.append((statistic_name, pair, times, values))
    if cfg.fmt == "json":
        _emit_bytes(
            canonical_json(curves_artifact(kind, curves, cfg.to_dict())),
            cfg.output,
        )
    else:
        _emit_bytes(_csv_with_meta(kind, cfg, curves_csv(curves)), cfg.output)


def _cmd_xcorr(cfg: RunConfig) -> None:
    a = preprocess(_load_input(cfg), _preprocess_cfg(cfg))
    curves = []
    for pair in cfg.pairs:
        lags, values = cross_correlation(a, pair, cfg.lags)
        curves.append(("xcorr", pair, lags, values))
    if cfg.fmt == "json":
        _emit_bytes(
            canonical_json(curves_artifact("xcorr", curves, cfg.to_dict())),
            cfg.output,
        )
    else:
        _emit_bytes(
            _csv_with_meta("xcorr", cfg, curves_csv(curves)), cfg.output
        )


def _cmd_granger(cfg: RunConfig) -> None:
    a = preprocess(_load_input(cfg), _preprocess_cfg(cfg))
    c = granger_var(a, cfg.caused, cfg.covariates, cfg.order)
    result = {
        "C": float(c),
        "caused": cfg.caused,
        "covariates": list(cfg.covariates),
        "order": cfg.order,
    }
    _emit_bytes(
        canonical_json(scalar_artifact("granger", result, cfg.to_dict())),
        cfg.output,
    )


def _load_events(source: Optional[str]) -> Sequence[Event]:
    if source is None:
        return default_three_channel_events()
    with open(source, "r") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CsvFormatError(f"events file: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise CsvFormatError("events file must hold a non-empty JSON list")
    events = []
    for k, item in enumerate(raw):
        try:
            event = Event(**item)
        except TypeError as exc:
            raise CsvFormatError(f"event {k}: {exc}") from None
        for f in fields(Event):
            value = getattr(event, f.name)
            integer = f.name in ("leader", "follower")
            if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)
            ):
                kind = "an integer" if integer else "a number"
                raise CsvFormatError(
                    f"event {k}: {f.name} must be {kind}, got {value!r}"
                )
        events.append(event)
    return events


def _cmd_gen(cfg: RunConfig) -> None:
    gen = dict(cfg.generator or {})
    name = gen.pop("name")
    if name == "lorenz":
        thin = int(gen.pop("thin"))
        params = LorenzParams(
            sigma=gen["sigma"],
            rho=gen["rho"],
            beta=gen["beta"],
            x0=tuple(gen["x0"]),
            dt=gen["dt"],
            steps=gen["steps"],
        )
        a = lorenz(params)
        if thin > 1:
            a = Path(a.times[::thin], a.values[::thin], a.channel_names)
    elif name == "cyclic":
        power = float(gen["warp_power"])
        if power <= 0:
            raise ConfigError("--warp-power must be positive")
        warp = None if power == 1.0 else (lambda u: u ** power)
        a = cyclic_pair(
            n_events=gen["n_events"],
            phase_lag=gen["phase_lag"],
            warp=warp,
            samples=gen["samples"],
            noise_sigma=gen["noise"],
            seed=gen["seed"],
        )
    else:
        a = three_channel_event_series(
            _load_events(gen["events"]),
            samples=gen["samples"],
            noise_sigma=gen["noise"],
            seed=gen["seed"],
        )
    body = path_to_csv(a)
    _emit_bytes(
        _csv_with_meta(f"dataset:{name}", cfg, body, seed=cfg.seed), cfg.output
    )


_HANDLERS: Dict[str, Callable[[RunConfig], None]] = {
    "sig": _cmd_sig,
    "logsig": _cmd_logsig,
    "leadmatrix": _cmd_leadmatrix,
    "slidearea": lambda c: _windowed_command(c, "signed_area"),
    "influence": lambda c: _windowed_command(c, "signature_derivative"),
    "xcorr": _cmd_xcorr,
    "granger": _cmd_granger,
    "gen": _cmd_gen,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; raises on failure, returns 0 on success."""
    _HANDLERS[cfg.command](cfg)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"pathsig: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
