"""In-memory span recorder for traced benchmark runs.

The tracer wraps pinchsel's public functions where one module calls into
another: the ``cli`` module's references to the harness entry points and its
file writers, and the ``harness`` module's references to the channel
functions and the solvers. Each call becomes a span (name, parent span,
invocation, start and end in ns) plus the work counts its result carries.
Spans stay in memory until the run ends. Nothing inside a solver is traced.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "invocation", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None", invocation: int) -> None:
        self.name = name
        self.parent = parent
        self.invocation = invocation
        self.start = 0
        self.end = 0
        self.counts: dict[str, int] | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _vss_counts(args, result) -> dict[str, int]:
    channel = args[0]  # harness passes the ChannelMatrix first
    n_users, n = channel.gains.shape
    trace = result.trace
    return {
        "n": n,
        "evaluations": trace.metric_evaluations,
        "survivors": sum(trace.survivors_per_stage),
        "stages": trace.termination_stage,
        "bound": channel.config_snapshot.phase_bins**n_users * n * n,
    }


def _solver_counts(args, result) -> dict[str, int]:
    return {"n": len(result.activation.mask), "evaluations": result.evaluations}


def _targets():
    from pinchsel import cli, harness

    return (
        (cli, "run_sweep", "harness.aggregate", None),
        (cli, "run_convergence", "harness.aggregate", None),
        (cli, "write_sweep_outputs", "cli.write", None),
        (cli, "_write_rows", "cli.write", None),
        (harness, "run_trial", "harness.trial", None),
        (harness, "sample_users", "channel.sample_users", None),
        (harness, "build_channel_matrix", "channel.build", None),
        (harness, "vss_select", "vss", _vss_counts),
        (harness, "brute_force_select", "brute", _solver_counts),
        (harness, "greedy_pgga_select", "pgga", _solver_counts),
        (harness, "best_singleton", "singleton", _solver_counts),
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._invocation = -1

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, self._invocation)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, invocation: int):
        """Wrap every boundary function for one invocation, then restore it."""
        self._invocation = invocation
        saved = []
        try:
            for module, attr, name, count in _targets():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, count))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def of(self, invocation: int) -> list[Span]:
        return [s for s in self.spans if s.invocation == invocation]

    def dump(self, path: Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "invocation": s.invocation,
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "counts": s.counts,
                }
                fh.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced invocation.

    A layer's self time is its spans' time minus the time of their child
    spans. ``cli.other_s`` is the invocation's wall time that no top-level
    span covers: argument parsing, directory creation and any output written
    outside the traced writers.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[id(s.parent)] += s.seconds

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s.seconds - child_s[id(s)] for s in by_name[name])

    def count(name: str, key: str) -> int:
        return sum(s.counts[key] for s in by_name[name])

    top = [s for s in spans if s.parent is None]
    covered = sum(s.seconds for s in top)
    write_s = sum(s.seconds for s in top if s.name == "cli.write")
    vss_s, vss_evals = total("vss"), count("vss", "evaluations")
    vss_survivors = count("vss", "survivors")
    brute_s, subsets = total("brute"), count("brute", "evaluations")
    pgga_s, pgga_evals = total("pgga"), count("pgga", "evaluations")
    return {
        "vss.time_s": vss_s,
        "vss.calls": len(by_name["vss"]),
        "vss.evaluations": vss_evals,
        "vss.evals_per_s": _ratio(vss_evals, vss_s),
        "vss.survivors": vss_survivors,
        "vss.stages": count("vss", "stages"),
        "vss.accept_ratio": _ratio(vss_survivors, vss_evals),
        "vss.bound_fill": max(
            (s.counts["evaluations"] / s.counts["bound"] for s in by_name["vss"]),
            default=0.0,
        ),
        "brute.time_s": brute_s,
        "brute.calls": len(by_name["brute"]),
        "brute.subsets": subsets,
        "brute.subsets_per_s": _ratio(subsets, brute_s),
        "pgga.time_s": pgga_s,
        "pgga.calls": len(by_name["pgga"]),
        "pgga.evaluations": pgga_evals,
        "pgga.evals_per_s": _ratio(pgga_evals, pgga_s),
        "singleton.time_s": total("singleton"),
        "channel.sample_users_s": total("channel.sample_users"),
        "channel.build_s": total("channel.build"),
        "harness.trial_overhead_s": self_time("harness.trial"),
        "harness.aggregate_s": self_time("harness.aggregate"),
        "cli.write_s": write_s,
        "cli.other_s": wall_s - covered,
        "trace.coverage": _ratio(covered, wall_s),
    }


def trial_percentiles(spans: list[Span]) -> dict[str, float]:
    """p50 and p90 of ``run_trial`` wall time in ms, with the sample count."""
    ms = [s.seconds * 1e3 for s in spans if s.name == "harness.trial"]
    if len(ms) < 2:
        p50 = p90 = ms[0] if ms else 0.0
    else:
        p50 = statistics.median(ms)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "harness.trial_ms_p50": p50,
        "harness.trial_ms_p90": p90,
        "harness.trial_samples": len(ms),
    }


def counts_by_n(spans: list[Span]) -> dict[str, dict[int, int]]:
    """Exact work counts per solver and antenna count, plus the deepest
    trellis stage reached at each antenna count."""
    out: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s.counts is None:
            continue
        n = s.counts["n"]
        out[s.name][n] += s.counts["evaluations"]
        if s.name == "vss":
            out["vss.survivors"][n] += s.counts["survivors"]
            out["vss.max_stage"][n] = max(out["vss.max_stage"][n], s.counts["stages"])
    return {k: dict(v) for k, v in out.items()}
