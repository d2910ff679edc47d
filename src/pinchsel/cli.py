"""Command-line front end: ``sweep``, ``convergence`` and ``verify``.

Data files are plain two-column text (one ``#``-prefixed header echoing the
effective configuration, then ``x y`` rows with 6 significant digits) so they
drop straight into gnuplot/pgfplots/matplotlib. A CSV sidecar carries full
diagnostics at full float precision.

Every run setting has one row in ``_OPTIONS``, and ``_resolve`` is the one
place where a setting's text becomes its value: a flag's text and a
config-file value go through the same converter, and a bad one is a single
``error:`` line that names the flag or the key. So is a flag without its value,
an unknown flag or a config key set twice.

Exit codes: 0 success, 1 usage/configuration error, 2 verification failure
or a solver invariant violated during a run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn, Sequence

from .config import SystemConfig, dbm_to_watts, watts_to_dbm
from .harness import SOLVERS, ExperimentSpec, run_convergence, run_sweep
from .metric import InvariantError
from .verify import run_checks
from .vss import MAX_BLOCK_ENTRIES


def parse_n_values(text: str) -> tuple[int, ...]:
    """Parse ``--n``: a single value, a comma list, or ``a..b:step`` ranges.

    Repeated counts are dropped, keeping the order of first appearance."""
    ranges: list[range] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty antenna-count token in {text!r}")
        try:
            if ".." in token:
                span, _, step_s = token.partition(":")
                lo_s, _, hi_s = span.partition("..")
                lo, hi = int(lo_s), int(hi_s)
                step = int(step_s) if step_s else 1
            else:
                lo = hi = int(token)
                step = 1
        except ValueError:
            raise ValueError(f"bad antenna-count token {token!r} in {text!r}") from None
        if step < 1 or hi < lo:
            raise ValueError(f"bad antenna-count range {token!r}")
        if lo < 1:
            raise ValueError(f"antenna counts must be positive integers, got {text!r}")
        if hi > MAX_BLOCK_ENTRIES:  # checked before the list is built
            raise ValueError(
                f"antenna-count token {token!r} exceeds the limit of {MAX_BLOCK_ENTRIES} antennas"
            )
        ranges.append(range(lo, hi + 1, step))
    if sum(map(len, ranges)) > MAX_BLOCK_ENTRIES:  # so is the count, repeats included
        raise ValueError(f"antenna-count list {text!r} has more than {MAX_BLOCK_ENTRIES} values")
    return tuple(dict.fromkeys(n for values in ranges for n in values))


def parse_solvers(text: str) -> tuple[str, ...]:
    """Parse ``--solvers``: each row's ``cli_name`` or its canonical name."""
    by_cli_name = {row.cli_name: name for name, row in SOLVERS.items()}
    names = []
    for token in text.split(","):
        token = token.strip().lower()
        canonical = by_cli_name.get(token, token)
        if canonical not in SOLVERS:
            choices = sorted({*SOLVERS, *by_cli_name})
            raise ValueError(f"unknown solver {token!r}; choose from {choices}")
        if canonical not in names:
            names.append(canonical)
    return tuple(names)


def _feed_x(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"feed_x takes a number (m) or auto, got {text!r}") from None


def _format(text: str) -> str:
    if text not in ("dat", "csv", "both"):
        raise ValueError(f"--format must be dat, csv or both, got {text!r}")
    return text


def _same(value):
    return value


class _Option(NamedTuple):
    """One run setting. ``convert`` turns flag and config-file text into its
    value, and ``default`` is a value already; ``field`` names the
    ``SystemConfig`` field the value sets, after ``to_field`` converts it to
    that field's units."""

    convert: Callable[[str], object]
    default: object
    help: str
    field: str | None = None
    to_field: Callable[[object], object] = _same
    in_header: bool = True
    metavar: str | None = None


# Declared field defaults, not ``SystemConfig()``'s: an instance resolves
# feed_x None to -room/2, and the CLI keeps None so the header reads "auto".
_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SystemConfig)}
_DBM = (watts_to_dbm, dbm_to_watts)
_GHZ = (lambda hz: hz / 1e9, lambda ghz: ghz * 1e9)


def _physical(
    convert: Callable[[str], object], field: str, help_text: str,
    to_cli=_same, to_field=_same,
) -> _Option:
    """A setting backed by a ``SystemConfig`` field, defaulting to that
    field's default in CLI units."""
    return _Option(convert, to_cli(_FIELD_DEFAULTS[field]), help_text, field, to_field)


# Every run setting, in header order. Flags (``--q-bins`` for ``q_bins``),
# config-file keys, their conversion, the defaults and the ``#`` header of
# every output file all come from this table.
_OPTIONS: dict[str, _Option] = {
    "n": _Option(parse_n_values, None, "antenna counts: 10, 5,10,20 or 5..50:5"),
    "users": _physical(int, "n_users", "number of ground users"),
    "trials": _Option(int, 150, "Monte Carlo trials per point"),
    "seed": _Option(int, 7, "master seed"),
    "solvers": _Option(
        parse_solvers, ("vss",),
        "comma list: " + ", ".join(row.cli_name for row in SOLVERS.values()),
    ),
    "q_bins": _physical(int, "phase_bins", "phase bins per user"),
    "power_dbm": _physical(float, "tx_power", "transmit power", *_DBM),
    "noise_dbm": _physical(float, "noise_power", "noise power", *_DBM),
    "room": _physical(float, "room_side", "room side length (m)"),
    "height": _physical(float, "height", "waveguide height (m)"),
    "freq_ghz": _physical(float, "carrier_freq", "carrier (GHz)", *_GHZ),
    "neff": _physical(float, "refractive_index", "waveguide refractive index"),
    "feed_x": _physical(_feed_x, "feed_x", "feed x (m) or auto"),
    "out_dir": _Option(Path, Path("."), "output directory", in_header=False),
    "format": _Option(_format, "both", "outputs", in_header=False, metavar="{dat,csv,both}"),
}


def _header_text(value: object) -> str:
    """A setting as the header writes it; a float in full unless ``:g`` reads back."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        text = f"{value:g}"
        return text if float(text) == value else repr(value)
    return str(value)


def system_config(settings: dict[str, object], n_antennas: int) -> SystemConfig:
    fields = {}
    for key, opt in _OPTIONS.items():
        if opt.field:
            try:
                fields[opt.field] = opt.to_field(settings[key])
            except ValueError as exc:  # a dBm power beyond the float range
                raise ValueError(f"{key}: {exc}") from None
    return SystemConfig(n_antennas=n_antennas, **fields)


def header_line(settings: dict[str, object]) -> str:
    return " ".join(
        f"{key}={_header_text(value)}"
        for key, value in settings.items()
        if _OPTIONS[key].in_header
    )


def read_config_file(path: Path) -> dict[str, str]:
    """Key-value file: one ``key = value`` per line, ``#`` comments; a key
    set twice is refused with both line numbers."""
    entries: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key in set_on:
            raise ValueError(
                f"{path}:{lineno}: config key {key} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        entries[key] = value.strip()
    return entries


_KINDS = {int: "an integer", float: "a number"}


def _setting(key: str, args: argparse.Namespace, file_vals: dict[str, str]) -> object:
    """One setting's value: its flag, else its config-file key, else its
    default. A bad number names the flag or key it came from."""
    if hasattr(args, key):  # flags left unset are absent, not None
        text, source = getattr(args, key), "--" + key.replace("_", "-")
    elif key in file_vals:
        text, source = file_vals[key], f"config key {key}"
    else:
        return _OPTIONS[key].default
    convert = _OPTIONS[key].convert
    try:
        return convert(text)
    except ValueError:
        if convert not in _KINDS:
            raise
        raise ValueError(f"{source}: expected {_KINDS[convert]}, got {text!r}") from None


def _resolve(args: argparse.Namespace, need_solvers: bool) -> dict[str, object]:
    """Every setting (flags > config file > defaults), in table order."""
    file_vals: dict[str, str] = {}
    if hasattr(args, "config"):
        file_vals = read_config_file(Path(args.config))
        unknown = set(file_vals) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config-file keys: {sorted(unknown)}")
    settings = {key: _setting(key, args, file_vals) for key in _OPTIONS}
    if settings["n"] is None:
        raise ValueError("--n is required (flag or config file)")
    if not need_solvers:  # a file's solvers key is checked; convergence runs vss
        settings["solvers"] = ("vss",)
    return settings


def _add_run_flags(sub: argparse.ArgumentParser, with_solvers: bool) -> None:
    for key, opt in _OPTIONS.items():
        if with_solvers or key != "solvers":
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, help=opt.help, metavar=opt.metavar)
    sub.add_argument("--config", help="key=value config file")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (a flag without its value, an unknown
    flag) raise ``ValueError``, so ``main`` prints them as one ``error:``
    line instead of argparse's usage block. Subcommand parsers share it."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pinchsel",
        description="Antenna-subset activation experiments for a "
        "waveguide-fed pinching-antenna array",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep",
        help="mean worst-user rate vs antenna count",
        argument_default=argparse.SUPPRESS,
    )
    _add_run_flags(p_sweep, with_solvers=True)

    p_conv = sub.add_parser(
        "convergence",
        help="mean running-best rate vs trellis stage",
        argument_default=argparse.SUPPRESS,
    )
    _add_run_flags(p_conv, with_solvers=False)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--quick", action="store_true", help="reduced trial counts")
    p_verify.add_argument("--seed", default=argparse.SUPPRESS)
    return parser


def _write_rows(path: Path, header: str, rows: list[tuple[int, float]]) -> None:
    lines = [f"# {header}\n"]
    lines.extend(f"{x} {y:.6g}\n" for x, y in rows)
    path.write_text("".join(lines), encoding="ascii")


def write_sweep_outputs(
    settings: dict[str, object], dat: dict[str, list[tuple[int, float]]], csv_name: str,
    columns: Sequence[str], csv_rows: list[list],
) -> None:
    """Write a run's files as ``--format`` asks: one ``.dat`` per ``dat``
    entry (file name to ``(x, y)`` rows), then the CSV summary, each under
    the ``#`` header, printing a ``wrote`` line per file."""
    out_dir, header = settings["out_dir"], header_line(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    if settings["format"] in ("dat", "both"):
        for name, rows in dat.items():
            _write_rows(out_dir / name, header, rows)
            print(f"wrote {out_dir / name}")
    if settings["format"] in ("csv", "both"):
        path = out_dir / csv_name
        with path.open("w", newline="", encoding="ascii") as fh:
            fh.write(f"# {header}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(csv_rows)
        print(f"wrote {path}")


def _spec(settings: dict[str, object]) -> ExperimentSpec:
    """The run over every N; building it refuses a bad run before any trial
    or file."""
    return ExperimentSpec(
        base_config=system_config(settings, settings["n"][0]),
        n_values=settings["n"],
        solvers=settings["solvers"],
        n_trials=settings["trials"],
        seed=settings["seed"],
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _resolve(args, need_solvers=True)
    agg = run_sweep(_spec(settings))
    n_values, solvers = settings["n"], settings["solvers"]
    entries = [(n, s, agg[n, s]) for n in n_values for s in solvers]
    write_sweep_outputs(
        settings,
        {f"{s}_rate_vs_N.dat": [(n, agg[n, s].mean_min_rate) for n in n_values] for s in solvers},
        "sweep_summary.csv",
        ["N", "solver", "mean_rate", "mean_evals", "mean_active_count"],
        [[n, s, e.mean_min_rate, e.mean_evaluations, e.mean_active_count] for n, s, e in entries],
    )
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    settings = _resolve(args, need_solvers=False)
    curves = run_convergence(_spec(settings))  # a bad run is refused before any file
    stages = {n: list(enumerate(curve, start=1)) for n, curve in curves.items()}
    write_sweep_outputs(
        settings,
        {f"conv_N{n}_M{settings['users']}.dat": rows for n, rows in stages.items()},
        "convergence_summary.csv",
        ["N", "stage", "mean_rate"],
        [[n, stage, rate] for n, rows in stages.items() for stage, rate in rows],
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(quick=args.quick, seed=_setting("seed", args, {}))
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    handlers = {
        "sweep": cmd_sweep,
        "convergence": cmd_convergence,
        "verify": cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # --help has printed its text
        return 0 if exc.code == 0 else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
