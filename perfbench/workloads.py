"""The benchmark's workloads: fixed ``pinchsel`` command lines.

The benchmark appends only ``--trials``, ``--seed`` and ``--out-dir`` to each
workload's arguments; nothing else reaches the program. Trial counts are
sized so that one invocation takes a few seconds on a 2-core machine and, for
``conv-large``, so that the trellis work (which depends on the sampled
channels) varies by only a few percent from seed to seed. Why each workload
was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    n_values: tuple[int, ...]
    trials: int

    @property
    def trial_count(self) -> int:
        """Channel instances one invocation solves (N values x trials)."""
        return len(self.n_values) * self.trials

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        return [*self.argv, "--trials", str(self.trials), "--seed", str(seed),
                "--out-dir", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conv-large",
            ("convergence", "--n", "50,80,100", "--users", "2", "--q-bins", "4"),
            (50, 80, 100),
            30,
        ),
        Workload(
            "rate-sweep",
            ("sweep", "--n", "5..50:5", "--solvers", "vss,pgga", "--users", "1"),
            tuple(range(5, 51, 5)),
            30,
        ),
        Workload(
            "oracle",
            ("sweep", "--n", "18,20", "--solvers", "vss,brute,singleton", "--users", "2"),
            (18, 20),
            2,
        ),
    )
}
