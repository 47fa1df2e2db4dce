"""The BLAS thread policy of the command-line and serve processes.

Each case starts a fresh interpreter, since a policy applied after
numpy has loaded its BLAS would have no effect.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.blas import BLAS_THREAD_VARS
from repro.thermal import FastThermalModel

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import os, sys
import repro
assert "numpy" not in sys.modules, "the package root loaded numpy"
import {module}
print(",".join(os.environ.get(name, "") for name in {names!r}))
"""


def run_probe(module: str, **preset) -> list:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module, names=BLAS_THREAD_VARS)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().split(",")


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_entry_points_default_to_one_thread(module):
    assert run_probe(module) == ["1"] * len(BLAS_THREAD_VARS)


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_an_explicit_setting_wins(module):
    got = run_probe(module, OPENBLAS_NUM_THREADS="2")
    want = [
        "2" if name == "OPENBLAS_NUM_THREADS" else "1" for name in BLAS_THREAD_VARS
    ]
    assert got == want


def test_the_lazy_package_root_resolves_every_export():
    assert repro.FastThermalModel is FastThermalModel
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_export
