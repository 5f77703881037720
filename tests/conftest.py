"""Shared fixtures: preset-backed code specs, cached per session, and a
fresh-process runner for the reach tests."""

import itertools
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import qfcodes
from qfcodes.cli import preset_config, spec_from_config

# appended to a fresh-process script: the child's own peak resident set in kB
_PEAK = """
with open("/proc/self/status") as _status:
    print(next(line.split()[1] for line in _status if line.startswith("VmHWM:")))
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh Python process with ``src`` on PYTHONPATH and
    return the JSON object it prints, with ``peak_mb`` the child's peak RSS
    (``VmHWM``; its ``ru_maxrss`` would start at the parent's peak, which
    Linux carries into the child at exec)."""
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script + _PEAK, *args], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report, peak_kb = proc.stdout.splitlines()
    return {**json.loads(report), "peak_mb": int(peak_kb) / 1024}


@lru_cache(maxsize=None)
def spec_for(name: str):
    return spec_from_config(preset_config(name)[0])


def batched(count, bases, batch=256):
    """Yield (basis, count) for every basis, in order, calling the batched
    point count ``count`` on ``batch`` bases at a time."""
    bases = iter(bases)
    while chunk := list(itertools.islice(bases, batch)):
        yield from zip(chunk, count(np.array(chunk)).tolist())


def reference_scan(count, bases):
    """(max, first maximiser) of the point count over ``bases``, in order."""
    best, witness = -1, None
    for rows, n in batched(count, bases):
        if n > best:
            best, witness = n, rows
    return best, witness


EXAMPLE_NAMES = [
    "example-3.1",
    "example-3.2",
    "example-3.3",
    "example-3.4",
    "example-3.5",
    "example-3.6",
]

HOMOGENEOUS_NAMES = ["example-3.1", "example-3.2", "example-3.3", "example-3.4"]


@pytest.fixture(scope="session")
def ex31():
    return spec_for("example-3.1")


@pytest.fixture(scope="session")
def ex32():
    return spec_for("example-3.2")


@pytest.fixture(scope="session")
def ex33():
    return spec_for("example-3.3")


@pytest.fixture(scope="session")
def ex34():
    return spec_for("example-3.4")


@pytest.fixture(scope="session")
def ex35():
    return spec_for("example-3.5")


@pytest.fixture(scope="session")
def ex36():
    return spec_for("example-3.6")


@pytest.fixture(scope="session", params=EXAMPLE_NAMES)
def example_spec(request):
    return spec_for(request.param)


@pytest.fixture(scope="session", params=HOMOGENEOUS_NAMES)
def homogeneous_spec(request):
    return spec_for(request.param)
