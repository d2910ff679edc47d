"""Run one workload's ``pinchsel`` command line in this process, repeatedly.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
Each invocation calls ``pinchsel.cli.main`` with the workload's arguments and
a fresh output directory, is timed from just before the call to just after
it, and is then checked: exit code, escaped exceptions, the sha256 of every
``.dat``/``.csv`` it wrote and, when traced, the exact work counts and the
share of wall time the spans explain. Invocations repeat until the next one
would end after ``--seconds``. With ``--trace 1`` untraced and traced
invocations alternate, so the tracing overhead is measured in the same run.
Untraced invocations run under the calibration sampler (calibrate.py), and
their wall time is reported at reference machine speed.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import Sampler
from spans import Tracer, counts_by_n, layer_metrics, trial_percentiles
from workloads import WORKLOADS, Workload

# A traced invocation fails when its top-level spans cover less than this
# share of its wall time: the trace would no longer explain where time goes.
MIN_TRACE_COVERAGE = 0.95

REFERENCE = Path(__file__).with_name("reference.json")


def _summary_rows(out_dir: Path, name: str) -> list[dict[str, str]]:
    path = out_dir / name
    if not path.is_file():
        return []
    with path.open(newline="", encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _count_problems(workload: Workload, counts: dict, out_dir: Path) -> list[str]:
    """Check the traced work counts against the run's own output files."""
    problems = []
    for row in _summary_rows(out_dir, "sweep_summary.csv"):
        n, solver = int(row["N"]), row["solver"]
        layer = {"vss": "vss", "pgga": "pgga", "brute_force": "brute"}.get(solver)
        if layer is None:
            continue
        traced = counts.get(layer, {}).get(n)
        reported = round(float(row["mean_evals"]) * workload.trials)
        if traced != reported:
            problems.append(f"{layer} N={n}: traced {traced} != csv {reported}")
        if layer == "brute" and traced != workload.trials * ((1 << n) - 1):
            problems.append(f"brute N={n}: {traced} subsets, expected trials*(2^N-1)")
    stages: dict[int, int] = {}
    for row in _summary_rows(out_dir, "convergence_summary.csv"):
        stages[int(row["N"])] = stages.get(int(row["N"]), 0) + 1
    for n, depth in stages.items():
        traced = counts.get("vss.max_stage", {}).get(n)
        if traced != depth:
            problems.append(f"vss N={n}: deepest stage {traced} != csv rows {depth}")
    return problems


def _oracle_gap(out_dir: Path) -> float | None:
    """Mean exhaustive-optimum rate minus mean trellis rate, in bit/s/Hz."""
    rates: dict[str, list[float]] = {}
    for row in _summary_rows(out_dir, "sweep_summary.csv"):
        rates.setdefault(row["solver"], []).append(float(row["mean_rate"]))
    if "brute_force" not in rates or "vss" not in rates:
        return None
    return statistics.fmean(rates["brute_force"]) - statistics.fmean(rates["vss"])


class Run:
    """The invocations of one workload at one seed, and what they found."""

    def __init__(self, cli, workload: Workload, seed: int, work_dir: Path,
                 expected: dict[str, str] | None) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.expected = expected
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.sampler = Sampler()
        self.scaled_walls: list[float] = []
        # wall time less calibration samples, untraced (False) and traced (True)
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.kernel_s: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.traced_ok: list[int] = []
        self.first_counts: dict | None = None
        self.bytes_written = 0
        self.oracle_gap: float | None = None

    def invoke(self, traced: bool) -> float:
        index = self.attempted
        self.attempted += 1
        out_dir = self.work_dir / f"inv{index}"
        argv = self.workload.cli_args(self.seed, str(out_dir))
        err = io.StringIO()
        error = None
        tracing = self.tracer.installed(index) if traced else contextlib.nullcontext()
        sampling = contextlib.nullcontext() if traced else self.sampler.running()
        with tracing, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            with sampling:
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # record and go on: a failure is a result
                    code = None
                    error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        own = wall if traced else wall - sum(self.sampler.samples)
        if code not in (0, None):
            error = f"exit {code}: {err.getvalue().strip()}"
        problems = [error] if error else []
        if not error:
            problems += self._check_outputs(out_dir)
            if traced:
                problems += self._check_trace(index, wall, out_dir)
        if problems:
            self.failures.append(f"invocation {index}: " + "; ".join(problems))
        else:
            self.walls[traced].append(own)
            if not traced:
                self.scaled_walls.append(self.sampler.scaled(wall))
                self.kernel_s.append(statistics.fmean(self.sampler.samples))
            if self.oracle_gap is None:
                self.oracle_gap = _oracle_gap(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall

    def _check_outputs(self, out_dir: Path) -> list[str]:
        files = sorted(p for p in out_dir.iterdir() if p.suffix in (".dat", ".csv"))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        self.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
        if self.expected is None:
            self.expected = digests
        if digests != self.expected:
            bad = sorted(k for k in digests.keys() | self.expected.keys()
                         if digests.get(k) != self.expected.get(k))
            return [f"output digests differ: {', '.join(bad)}"]
        return []

    def _check_trace(self, index: int, wall: float, out_dir: Path) -> list[str]:
        spans = self.tracer.of(index)
        layers = layer_metrics(spans, wall)
        counts = counts_by_n(spans)
        problems = _count_problems(self.workload, counts, out_dir)
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            problems.append("work counts differ from the first traced invocation")
        if layers["trace.coverage"] < MIN_TRACE_COVERAGE:
            problems.append(f"spans cover only {layers['trace.coverage']:.3f} of wall")
        if not problems:
            self.layers.append(layers)
            self.traced_ok.append(index)
        return problems

    def end_to_end(self) -> dict[str, float]:
        wall = statistics.median(self.scaled_walls) if self.scaled_walls else 0.0
        return {
            "wall_s": wall,
            "trials_per_s": self.workload.trial_count / wall if wall else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        if not self.layers:
            return {}
        out = {k: statistics.median(m[k] for m in self.layers) for k in self.layers[0]}
        spans = [s for i in self.traced_ok for s in self.tracer.of(i)]
        out.update(trial_percentiles(spans))
        out["cli.bytes_written"] = self.bytes_written
        untraced = statistics.median(self.walls[False]) if self.walls[False] else 0.0
        traced = statistics.median(self.walls[True])
        out["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
        out["quality.oracle_gap_bps"] = self.oracle_gap or 0.0
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    from pinchsel import cli

    reference = json.loads(REFERENCE.read_text())["digests"]
    workload = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(cli, workload, args.seed, args.work_dir,
              reference.get(str(args.seed), {}).get(workload.name))

    # Untraced first; with tracing, alternate so both kinds see the same load.
    # At least two of each kind, so every count and digest is seen to repeat.
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and run.attempted % 2 == 1
        wall = run.invoke(traced)
        if run.attempted >= (4 if args.trace else 2) and \
                time.perf_counter() + wall > deadline:
            break

    if args.trace:
        run.tracer.dump(args.work_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
    print(json.dumps({
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "end_to_end": run.end_to_end(),
        "per_layer": run.per_layer(),
        "oracle_gap_bps": run.oracle_gap,
        "digests": run.expected,
        "raw_walls_s": run.walls[False],
        "kernel_s": run.kernel_s,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
