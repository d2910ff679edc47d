"""Smoke tests: each experiment script runs end to end at one trial."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the .dat files each script writes under its output root
EXPECTED = {
    "rate_vs_antennas": [
        f"M{m}/{sub}{solver}_rate_vs_N.dat"
        for m in (1, 2)
        for sub, solver in (("", "vss"), ("", "pgga"), ("oracle/", "brute_force"))
    ],
    "stage_convergence": [f"M{m}/conv_N{n}_M{m}.dat" for m in (1, 2) for n in (50, 80, 100)],
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_script_runs(name, tmp_path):
    assert _load(name).run(trials=1, seed=7, out_root=tmp_path) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.dat"))
    assert written == sorted(EXPECTED[name])
