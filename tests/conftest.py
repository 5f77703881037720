"""Shared fixtures: preset-backed code specs, cached per session."""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from qfcodes import build_spec, get_preset


@lru_cache(maxsize=None)
def spec_for(name: str):
    return build_spec(get_preset(name))


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
