"""Benchmark of the ``pinchsel`` CLI on fixed workloads.

Run from the repository root (Python and numpy are the only requirements):

    python3 perfbench/run.py --workload conv-large --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 10        # every workload, one after another

Steps:

1. Pre-flight: ``pinchsel verify --quick`` must exit 0, or no numbers are
   reported and the exit code is nonzero. It is not timed.
2. ``setup_s`` (untraced runs only): the median over fresh interpreters of
   importing ``pinchsel.cli`` and resolving the workload's arguments.
3. ``worker.py`` runs the workload's command line through ``cli.main`` in
   its own fresh interpreter for ``--seconds`` and checks every invocation.

End-to-end times (``wall_s``, ``trials_per_s``, ``setup_s``) are scaled to a
reference machine speed measured next to each of them by calibrate.py, so
that drift in the speed of a shared machine does not read as a change of the
program; the raw times are printed and recorded as well.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported,
with ``--trace 1`` its per-layer metrics. Each is printed with its unit, then
the run's provenance; the last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. An operation
is one CLI invocation; it fails on a nonzero exit, an exception escaping
``cli.main``, an output digest that differs from ``reference.json`` (or, for a
seed without reference digests, from the run's first invocation) and, when
traced, work counts that do not repeat or disagree with the output files.
The full record, with failures and digests, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Extra time a worker gets beyond --seconds: start-up plus one invocation.
WORKER_GRACE_S = 100


def _child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # One thread per process: the benchmark measures single-process work, and
    # a fixed hash seed removes one source of run-to-run variation.
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def preflight() -> None:
    proc = _python(["-m", "pinchsel.cli", "verify", "--quick"], timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: pre-flight `pinchsel verify --quick` exited "
                 f"{proc.returncode}; not reporting numbers\n{proc.stdout}{proc.stderr}")


def setup_seconds(argv: list[str]) -> tuple[float, float]:
    """Median set-up time at reference speed, and the median raw time."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = _python([str(HERE / "setup_probe.py"), *argv], timeout=60)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited {proc.returncode}\n{proc.stderr}")
        elapsed, kernel = map(float, proc.stdout.split())
        scaled.append(elapsed * REFERENCE_S / kernel)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    version = re.search(r'^version\s*=\s*"([^"]+)"',
                        (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "pinchsel_version": version.group(1) if version else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    workload = WORKLOADS[name]
    work_dir = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{trace}"
    proc = _python(
        [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work_dir)],
        timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"error: worker for {name} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])

    if trace:
        values, wanted = result["per_layer"], spec["per_layer"]
    else:
        setup_s, raw_setup_s = setup_seconds(workload.cli_args(seed, str(work_dir / "setup")))
        values = dict(result["end_to_end"], setup_s=setup_s)
        wanted = spec["end_to_end"]
    # A metric is missing only when every invocation that measures it failed;
    # `failed` then says so and `correct` is false.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    failed_frac = result["failed"] / result["attempted"]
    print(f"# {name}: seed {seed}, {result['attempted']} invocations, "
          f"{result['failed']} failed, trace {trace}")
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")
    for metric, m in metrics.items():
        print(f"{name:<11} {metric:<26} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"{name:<11} {'failed_frac':<26} {failed_frac:>14.6g} 1")
        raw = {"raw_wall_s": result["raw_walls_s"], "calibration_kernel_s": result["kernel_s"]}
        for label, samples in raw.items():
            value = statistics.median(samples) if samples else 0.0
            print(f"{name:<11} {label:<26} {value:>14.6g} s")
        print(f"{name:<11} {'raw_setup_s':<26} {raw_setup_s:>14.6g} s")
        if result["oracle_gap_bps"] is not None:
            print(f"{name:<11} {'oracle_gap_bps':<26} "
                  f"{result['oracle_gap_bps']:>14.6g} bit/s/Hz")

    record = dict(
        provenance(seed), numpy=result["numpy"], workload=name,
        cli_args=workload.cli_args(seed, "<out-dir>"), trace=trace,
        seconds=seconds, attempted=result["attempted"], failed=result["failed"],
        failed_frac=failed_frac, failures=result["failures"],
        oracle_gap_bps=result["oracle_gap_bps"], digests=result["digests"],
        raw_walls_s=result["raw_walls_s"], kernel_s=result["kernel_s"],
        raw_setup_s=None if trace else raw_setup_s,
        metrics=metrics,
    )
    (work_dir.parent / f"{work_dir.name}.json").write_text(json.dumps(record, indent=1))
    print("# provenance " + json.dumps({k: record[k] for k in (
        "git_revision", "src_sha256", "pinchsel_version", "python", "numpy",
        "nproc", "seed", "cli_args")}))
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the pinchsel CLI.")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pinchsel" / "cli.py").is_file():
        sys.exit(f"error: no pinchsel sources under {ROOT / 'src'}; "
                 "run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    preflight()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
