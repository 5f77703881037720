"""The names the traced benchmark (``perfbench/tracing.py``) wraps must exist,
and the hierarchies must still reach the scans through those names."""

import dataclasses
import importlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench/ sits next to src/

from perfbench import api, tracing, workloads  # noqa: E402
from qfcodes import cli, descent, fields, ghw  # noqa: E402

from conftest import spec_for  # noqa: E402


@pytest.mark.parametrize("module_name,attr,span", tracing.PATCHES)
def test_every_traced_name_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_preset_reaches_the_tower_and_the_run_by_name(monkeypatch):
    """``preset NAME`` builds its tower through ``cli.build_tower`` and runs
    through ``cli.run_config``, as every other command does: the traced
    ``fields.build`` and ``cli.self`` spans wrap those names."""
    towers = _counting(monkeypatch, cli, "build_tower")
    runs = _counting(monkeypatch, cli, "run_config")
    assert api.run_cli(["preset", "example-3.1"])[0] == 0
    assert len(towers) == len(runs) == 1


def test_hierarchy_reaches_ghw_brute_by_name(monkeypatch):
    spec = spec_for("example-3.1")
    calls = _counting(monkeypatch, ghw, "ghw_brute")
    ghw.hierarchy(spec)
    assert len(calls) == spec.dimension


def test_hierarchy_reaches_ghw_closed_by_name(monkeypatch):
    spec = spec_for("example-3.1")
    calls = _counting(monkeypatch, ghw, "ghw_closed")
    ghw.hierarchy(spec)
    assert len(calls) == spec.dimension


def test_descended_hierarchy_reaches_descended_ghw_closed_by_name(monkeypatch):
    spec = spec_for("descent-7-2-1-1-3")
    params = descent.make_descent(spec.tower, 3)
    calls = _counting(monkeypatch, descent, "descended_ghw_closed")
    descent.descended_hierarchy(spec, params)
    assert len(calls) == spec.dimension * spec.tower.m


def test_descended_hierarchy_reaches_descended_ghw_brute_by_name(monkeypatch):
    spec = spec_for("descent-7-2-1-1-3")
    params = descent.make_descent(spec.tower, 3)
    calls = _counting(monkeypatch, descent, "descended_ghw_brute")
    descent.descended_hierarchy(spec, params)
    assert len(calls) == spec.dimension * spec.tower.m


@pytest.mark.parametrize("shape,variant", workloads.TOWERS)
def test_towers_pass_builds_no_f_q_m1_table(shape, variant, monkeypatch):
    """A ``towers`` job (the form drawn by ``_draw_form``, then the analysis,
    the value histogram, exhaustive and predicted CWE and WD) sees F_{q^m1}
    only through its F_p algebra: none of its tables is built."""
    built, Fq1 = _swap_field(monkeypatch, shape, "Fq1")
    assert workloads._tower_job(random.Random(7), shape, variant) == []
    assert all(field is not Fq1 for field in built)


@pytest.mark.parametrize("shape,variant", workloads.WD_SHAPES)
def test_wd_pass_builds_no_f_q_m2_table(shape, variant, monkeypatch):
    """An ``exhaustive-wd`` job (exhaustive and predicted CWE, then sampled
    counts, closed against the value profile) sees F_{q^m2} only through its
    trace matrix: none of its tables is built."""
    built, Fq2 = _swap_field(monkeypatch, shape, "Fq2")
    assert workloads._wd_job(random.Random(7), shape, variant) == []
    assert all(field is not Fq2 for field in built)


def _swap_field(monkeypatch, shape, name):
    """Hand the workloads the tower of ``shape`` with its field ``name``
    replaced by a fresh copy (same modulus, no tables yet), and record every
    field whose tables get built; returns the record and the copy."""
    cached = fields.build_tower(*shape)
    old = getattr(cached, name)
    fresh = fields.ExtField(old.base, old.degree, modulus=old.modulus)
    built, finish = [], fields.FiniteField._finish_init

    def recorded(field):
        built.append(field)
        finish(field)

    monkeypatch.setattr(fields.FiniteField, "_finish_init", recorded)
    monkeypatch.setattr(api, "build_tower", lambda *_: dataclasses.replace(cached, **{name: fresh}))
    return built, fresh
