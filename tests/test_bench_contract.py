"""The benchmark's contract with the package.

``perfbench/`` drives ``pinchsel.cli`` by name: its set-up probe calls
``build_parser`` and ``_resolve``, and its tracer rebinds module globals of
``cli`` and ``harness``. These tests run each workload's command line once,
at one trial, the way the benchmark does, so a renamed global or a changed
signature fails here rather than only in a benchmark run. ``perfbench/`` is
only read.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pinchsel import cli  # noqa: E402


def _one_trial(name):
    return dataclasses.replace(WORKLOADS[name], trials=1)


def test_every_traced_name_is_a_callable_global():
    for module, attr, _, _ in spans._targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_resolves_and_traces_every_layer(name, tmp_path, capsys):
    workload = _one_trial(name)
    argv = workload.cli_args(7, str(tmp_path))
    args = cli.build_parser().parse_args(argv)  # as setup_probe.py does
    cli._resolve(args, need_solvers=args.command == "sweep")

    tracer = spans.Tracer()
    with tracer.installed(0):
        assert cli.main(argv) == 0
    capsys.readouterr()
    traced = tracer.of(0)

    # the CLI's short solver names are the span names of the solver layers
    solvers = argv[argv.index("--solvers") + 1].split(",") if "--solvers" in argv else ["vss"]
    layers = {"harness.aggregate", "harness.trial", "channel.sample_users", "channel.build",
              "cli.write", *solvers}
    assert {s.name for s in traced} == layers
    assert worker._count_problems(workload, spans.counts_by_n(traced), tmp_path) == []
