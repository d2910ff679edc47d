"""Command-line front end: ``sweep``, ``convergence`` and ``verify``.

Data files are plain two-column text (one ``#``-prefixed header echoing the
effective configuration, then ``x y`` rows with 6 significant digits) so they
drop straight into gnuplot/pgfplots/matplotlib. A CSV sidecar carries full
diagnostics at full float precision.

Exit codes: 0 success, 1 usage/configuration error, 2 verification failure
or a solver invariant violated during a run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .config import SystemConfig, dbm_to_watts, watts_to_dbm
from .harness import SOLVERS, ExperimentSpec, run_convergence, run_sweep
from .metric import InvariantError
from .verify import run_checks

# Short CLI names for solvers; canonical ``SOLVERS`` names are accepted too.
_SHORT_NAMES = {"brute": "brute_force", "singleton": "best_singleton"}


def parse_n_values(text: str) -> tuple[int, ...]:
    """Parse ``--n``: a single value, a comma list, or ``a..b:step`` ranges.

    Repeated counts are dropped, keeping the order of first appearance."""
    values: list[int] = []
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
        values.extend(range(lo, hi + 1, step))
    if not values or any(v < 1 for v in values):
        raise ValueError(f"antenna counts must be positive integers, got {text!r}")
    return tuple(dict.fromkeys(values))


def parse_solvers(text: str) -> tuple[str, ...]:
    names = []
    for token in text.split(","):
        token = token.strip().lower()
        canonical = _SHORT_NAMES.get(token, token)
        if canonical not in SOLVERS:
            choices = sorted({*SOLVERS, *_SHORT_NAMES})
            raise ValueError(f"unknown solver {token!r}; choose from {choices}")
        if canonical not in names:
            names.append(canonical)
    return tuple(names)


class _FeedXError(ValueError, argparse.ArgumentTypeError):
    """A bad feed_x: argparse prints the message for ``--feed-x``, and
    ``main`` reports it as a usage error when it comes from a config file."""


def _feed_x(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise _FeedXError(f"feed_x takes a number (m) or auto, got {text!r}") from None


def _same(value):
    return value


class _Option(NamedTuple):
    """One run setting. ``convert`` turns flag and config-file text into its
    value; ``field`` names the ``SystemConfig`` field the value sets, after
    ``to_field`` converts it to that field's units."""

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
    "n": _Option(str, None, "antenna counts: 10, 5,10,20 or 5..50:5"),
    "users": _physical(int, "n_users", "number of ground users"),
    "trials": _Option(int, 150, "Monte Carlo trials per point"),
    "seed": _Option(int, 7, "master seed"),
    "solvers": _Option(str, "vss", "comma list: vss, brute, pgga, singleton"),
    "q_bins": _physical(int, "phase_bins", "phase bins per user"),
    "power_dbm": _physical(float, "tx_power", "transmit power", *_DBM),
    "noise_dbm": _physical(float, "noise_power", "noise power", *_DBM),
    "room": _physical(float, "room_side", "room side length (m)"),
    "height": _physical(float, "height", "waveguide height (m)"),
    "freq_ghz": _physical(float, "carrier_freq", "carrier (GHz)", *_GHZ),
    "neff": _physical(float, "refractive_index", "waveguide refractive index"),
    "feed_x": _physical(_feed_x, "feed_x", "feed x (m) or auto"),
    "out_dir": _Option(Path, Path("."), "output directory", in_header=False),
    "format": _Option(str, "both", "outputs", in_header=False, metavar="{dat,csv,both}"),
}


def _header_text(value: object) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class CliConfig:
    """Fully resolved configuration (flags > config file > defaults): one
    value per ``_OPTIONS`` key, in table order, with ``n`` and ``solvers``
    parsed into tuples."""

    values: dict[str, object]

    def __getitem__(self, key: str):
        return self.values[key]

    def system_config(self, n_antennas: int) -> SystemConfig:
        fields = {}
        for key, opt in _OPTIONS.items():
            if opt.field:
                try:
                    fields[opt.field] = opt.to_field(self.values[key])
                except ValueError as exc:  # a dBm power beyond the float range
                    raise ValueError(f"{key}: {exc}") from None
        return SystemConfig(n_antennas=n_antennas, **fields)

    def header_line(self) -> str:
        return " ".join(
            f"{key}={_header_text(value)}"
            for key, value in self.values.items()
            if _OPTIONS[key].in_header
        )


def read_config_file(path: Path) -> dict[str, str]:
    """Key-value file: one ``key = value`` per line, ``#`` comments."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip().lower().replace("-", "_")] = value.strip()
    return entries


def _convert_file_value(key: str, text: str):
    """Convert one config-file value; a bad number names its key."""
    convert = _OPTIONS[key].convert
    try:
        return convert(text)
    except _FeedXError:
        raise
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"config key {key}: expected {kind}, got {text!r}") from None


def _resolve(args: argparse.Namespace, need_solvers: bool) -> CliConfig:
    file_vals: dict[str, str] = {}
    if hasattr(args, "config"):
        file_vals = read_config_file(Path(args.config))
        unknown = set(file_vals) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config-file keys: {sorted(unknown)}")
    values: dict[str, object] = {}
    for key, opt in _OPTIONS.items():
        if hasattr(args, key):  # flags left unset are absent, not None
            values[key] = getattr(args, key)
        elif key in file_vals:
            values[key] = _convert_file_value(key, file_vals[key])
        else:
            values[key] = opt.default
    if values["n"] is None:
        raise ValueError("--n is required (flag or config file)")
    # the one format check, for flag and file values alike
    if values["format"] not in ("dat", "csv", "both"):
        raise ValueError(f"--format must be dat, csv or both, got {values['format']!r}")
    values["n"] = parse_n_values(values["n"])
    # a file's solvers key is checked for every command; convergence runs vss
    solvers = parse_solvers(values["solvers"])
    values["solvers"] = solvers if need_solvers else ("vss",)
    return CliConfig(values)


def _add_run_flags(sub: argparse.ArgumentParser, with_solvers: bool) -> None:
    for key, opt in _OPTIONS.items():
        if with_solvers or key != "solvers":
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, type=opt.convert, help=opt.help, metavar=opt.metavar)
    sub.add_argument("--config", help="key=value config file")


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_verify.add_argument("--seed", type=int, default=7)
    return parser


def _write_rows(path: Path, header: str, rows: list[tuple[int, float]]) -> None:
    lines = [f"# {header}\n"]
    lines.extend(f"{x} {y:.6g}\n" for x, y in rows)
    path.write_text("".join(lines), encoding="ascii")


def write_sweep_outputs(
    cli: CliConfig, dat: dict[str, list[tuple[int, float]]], csv_name: str,
    columns: Sequence[str], csv_rows: list[list],
) -> None:
    """Write a run's files as ``--format`` asks: one ``.dat`` per ``dat``
    entry (file name to ``(x, y)`` rows), then the CSV summary, each under
    the ``#`` header, printing a ``wrote`` line per file."""
    out_dir, header = cli["out_dir"], cli.header_line()
    out_dir.mkdir(parents=True, exist_ok=True)
    if cli["format"] in ("dat", "both"):
        for name, rows in dat.items():
            _write_rows(out_dir / name, header, rows)
            print(f"wrote {out_dir / name}")
    if cli["format"] in ("csv", "both"):
        path = out_dir / csv_name
        with path.open("w", newline="", encoding="ascii") as fh:
            fh.write(f"# {header}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(csv_rows)
        print(f"wrote {path}")


def _spec(cli: CliConfig) -> ExperimentSpec:
    """The run over every N; building it refuses a bad run before any trial
    or file."""
    return ExperimentSpec(
        base_config=cli.system_config(cli["n"][0]),
        n_values=cli["n"],
        solvers=cli["solvers"],
        n_trials=cli["trials"],
        seed=cli["seed"],
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    cli = _resolve(args, need_solvers=True)
    agg = run_sweep(_spec(cli))
    n_values, solvers = cli["n"], cli["solvers"]
    entries = [(n, s, agg[n, s]) for n in n_values for s in solvers]
    write_sweep_outputs(
        cli,
        {f"{s}_rate_vs_N.dat": [(n, agg[n, s].mean_min_rate) for n in n_values] for s in solvers},
        "sweep_summary.csv",
        ["N", "solver", "mean_rate", "mean_evals", "mean_active_count"],
        [[n, s, e.mean_min_rate, e.mean_evaluations, e.mean_active_count] for n, s, e in entries],
    )
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    cli = _resolve(args, need_solvers=False)
    curves = run_convergence(_spec(cli))  # a bad run is refused before any file
    stages = {n: list(enumerate(curve, start=1)) for n, curve in curves.items()}
    write_sweep_outputs(
        cli,
        {f"conv_N{n}_M{cli['users']}.dat": rows for n, rows in stages.items()},
        "convergence_summary.csv",
        ["N", "stage", "mean_rate"],
        [[n, stage, rate] for n, rows in stages.items() for stage, rate in rows],
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(quick=args.quick, seed=args.seed)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code == 0 else 1
    handlers = {
        "sweep": cmd_sweep,
        "convergence": cmd_convergence,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
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
