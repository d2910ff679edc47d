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
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import SystemConfig, dbm_to_watts
from .harness import SOLVERS, ExperimentSpec, run_convergence, run_sweep
from .metric import InvariantError
from .verify import run_checks
from .vss import check_block_size

# Short CLI names for solvers; canonical ``SOLVERS`` names are accepted too.
_SHORT_NAMES = {"brute": "brute_force", "singleton": "best_singleton"}

_DEFAULTS = {
    "users": 1,
    "trials": 150,
    "seed": 7,
    "solvers": "vss",
    "q_bins": 4,
    "power_dbm": 10.0,
    "noise_dbm": -90.0,
    "room": 50.0,
    "height": 3.0,
    "freq_ghz": 28.0,
    "neff": 1.4,
    "feed_x": None,
    "out_dir": ".",
    "format": "both",
}


def parse_n_values(text: str) -> tuple[int, ...]:
    """Parse ``--n``: a single value, a comma list, or ``a..b:step`` ranges."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty antenna-count token in {text!r}")
        if ".." in token:
            span, _, step_s = token.partition(":")
            lo_s, _, hi_s = span.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
            if step < 1 or hi < lo:
                raise ValueError(f"bad antenna-count range {token!r}")
            values.extend(range(lo, hi + 1, step))
        else:
            values.append(int(token))
    if not values or any(v < 1 for v in values):
        raise ValueError(f"antenna counts must be positive integers, got {text!r}")
    return tuple(values)


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
    if not names:
        raise ValueError("at least one solver is required")
    return tuple(names)


@dataclass(frozen=True)
class CliConfig:
    """Fully resolved configuration (flags > config file > defaults)."""

    n_values: tuple[int, ...]
    users: int
    trials: int
    seed: int
    solvers: tuple[str, ...]
    q_bins: int
    power_dbm: float
    noise_dbm: float
    room: float
    height: float
    freq_ghz: float
    neff: float
    feed_x: float | None
    out_dir: Path
    format: str

    def system_config(self, n_antennas: int) -> SystemConfig:
        return SystemConfig(
            n_antennas=n_antennas,
            n_users=self.users,
            room_side=self.room,
            height=self.height,
            carrier_freq=self.freq_ghz * 1e9,
            refractive_index=self.neff,
            tx_power=dbm_to_watts(self.power_dbm),
            noise_power=dbm_to_watts(self.noise_dbm),
            phase_bins=self.q_bins,
            feed_x=self.feed_x,
        )

    def header_line(self) -> str:
        feed = "auto" if self.feed_x is None else f"{self.feed_x:g}"
        return (
            f"n={','.join(str(v) for v in self.n_values)} users={self.users} "
            f"trials={self.trials} seed={self.seed} "
            f"solvers={','.join(self.solvers)} q_bins={self.q_bins} "
            f"power_dbm={self.power_dbm:g} noise_dbm={self.noise_dbm:g} "
            f"room={self.room:g} height={self.height:g} "
            f"freq_ghz={self.freq_ghz:g} neff={self.neff:g} feed_x={feed}"
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


_CONVERTERS = {
    "n": str,
    "users": int,
    "trials": int,
    "seed": int,
    "solvers": str,
    "q_bins": int,
    "power_dbm": float,
    "noise_dbm": float,
    "room": float,
    "height": float,
    "freq_ghz": float,
    "neff": float,
    "feed_x": _feed_x,
    "out_dir": str,
    "format": str,
}


def _convert_file_value(key: str, text: str):
    """Convert one config-file value; a bad number names its key."""
    convert = _CONVERTERS[key]
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
        unknown = set(file_vals) - set(_CONVERTERS)
        if unknown:
            raise ValueError(f"unknown config-file keys: {sorted(unknown)}")

    def pick(key: str):
        if hasattr(args, key):  # flags left unset are absent, not None
            return getattr(args, key)
        if key in file_vals:
            return _convert_file_value(key, file_vals[key])
        return _DEFAULTS.get(key)

    n_text = pick("n")
    if n_text is None:
        raise ValueError("--n is required (flag or config file)")
    fmt = pick("format")
    if fmt not in ("dat", "csv", "both"):
        raise ValueError(f"--format must be dat, csv or both, got {fmt!r}")
    return CliConfig(
        n_values=parse_n_values(str(n_text)),
        users=pick("users"),
        trials=pick("trials"),
        seed=pick("seed"),
        solvers=parse_solvers(pick("solvers")) if need_solvers else ("vss",),
        q_bins=pick("q_bins"),
        power_dbm=pick("power_dbm"),
        noise_dbm=pick("noise_dbm"),
        room=pick("room"),
        height=pick("height"),
        freq_ghz=pick("freq_ghz"),
        neff=pick("neff"),
        feed_x=pick("feed_x"),
        out_dir=Path(pick("out_dir")),
        format=fmt,
    )


def _add_common_flags(sub: argparse.ArgumentParser, with_solvers: bool) -> None:
    sub.add_argument("--n", help="antenna counts: 10, 5,10,20 or 5..50:5")
    sub.add_argument("--users", type=int, help="number of ground users")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    sub.add_argument("--seed", type=int, help="master seed")
    if with_solvers:
        sub.add_argument(
            "--solvers", help="comma list: vss, brute, pgga, singleton"
        )
    sub.add_argument("--q-bins", dest="q_bins", type=int, help="phase bins per user")
    sub.add_argument("--power-dbm", dest="power_dbm", type=float, help="transmit power")
    sub.add_argument("--noise-dbm", dest="noise_dbm", type=float, help="noise power")
    sub.add_argument("--room", type=float, help="room side length (m)")
    sub.add_argument("--height", type=float, help="waveguide height (m)")
    sub.add_argument("--freq-ghz", dest="freq_ghz", type=float, help="carrier (GHz)")
    sub.add_argument("--neff", type=float, help="waveguide refractive index")
    sub.add_argument("--feed-x", dest="feed_x", type=_feed_x, help="feed x (m) or auto")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.add_argument("--format", choices=("dat", "csv", "both"), help="outputs")
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
    _add_common_flags(p_sweep, with_solvers=True)

    p_conv = sub.add_parser(
        "convergence",
        help="mean running-best rate vs trellis stage",
        argument_default=argparse.SUPPRESS,
    )
    _add_common_flags(p_conv, with_solvers=False)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--quick", action="store_true", help="reduced trial counts")
    p_verify.add_argument("--seed", type=int, default=7)
    return parser


def _write_rows(
    path: Path, header: str, rows: list[tuple[float, float]], x_as_int: bool
) -> None:
    lines = [f"# {header}\n"]
    for x, y in rows:
        x_text = str(int(x)) if x_as_int else f"{x:.6g}"
        lines.append(f"{x_text} {y:.6g}\n")
    path.write_text("".join(lines), encoding="ascii")


def write_sweep_outputs(cli: CliConfig, agg) -> list[Path]:
    cli.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if cli.format in ("dat", "both"):
        for solver in cli.solvers:
            rows = [
                (float(n), agg.get(n, solver).mean_min_rate) for n in cli.n_values
            ]
            path = cli.out_dir / f"{solver}_rate_vs_N.dat"
            _write_rows(path, cli.header_line(), rows, x_as_int=True)
            written.append(path)
    if cli.format in ("csv", "both"):
        path = cli.out_dir / "sweep_summary.csv"
        with path.open("w", newline="", encoding="ascii") as fh:
            fh.write(f"# {cli.header_line()}\n")
            writer = csv.writer(fh)
            writer.writerow(["N", "solver", "mean_rate", "mean_evals", "mean_active_count"])
            for n in cli.n_values:
                for solver in cli.solvers:
                    e = agg.get(n, solver)
                    writer.writerow(
                        [n, solver, e.mean_min_rate, e.mean_evaluations, e.mean_active_count]
                    )
        written.append(path)
    return written


def cmd_sweep(args: argparse.Namespace) -> int:
    cli = _resolve(args, need_solvers=True)
    spec = ExperimentSpec(
        base_config=cli.system_config(cli.n_values[0]),
        n_values=cli.n_values,
        solvers=cli.solvers,
        n_trials=cli.trials,
        seed=cli.seed,
    )
    agg = run_sweep(spec)
    for path in write_sweep_outputs(cli, agg):
        print(f"wrote {path}")
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    cli = _resolve(args, need_solvers=False)
    check_block_size(max(cli.n_values), cli.q_bins, cli.users)
    cli.out_dir.mkdir(parents=True, exist_ok=True)
    curves = {}
    for n in cli.n_values:
        curve = run_convergence(cli.system_config(n), cli.trials, cli.seed)
        curves[n] = curve
        if cli.format in ("dat", "both"):
            rows = [(float(stage), rate) for stage, rate in enumerate(curve, start=1)]
            path = cli.out_dir / f"conv_N{n}_M{cli.users}.dat"
            _write_rows(path, cli.header_line(), rows, x_as_int=True)
            print(f"wrote {path}")
    if cli.format in ("csv", "both"):
        path = cli.out_dir / "convergence_summary.csv"
        with path.open("w", newline="", encoding="ascii") as fh:
            fh.write(f"# {cli.header_line()}\n")
            writer = csv.writer(fh)
            writer.writerow(["N", "stage", "mean_rate"])
            for n in cli.n_values:
                for stage, rate in enumerate(curves[n], start=1):
                    writer.writerow([n, stage, rate])
        print(f"wrote {path}")
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
