"""The benchmark's workloads: their jobs, the inputs drawn from the seed, and
the check of every job's outcome.

A job returns the reasons its outcome is wrong (an empty list when it is
right).  The worker records an unexpected exception as one more reason.

* ``presets`` runs the eight presets and ``verify all`` on the seven
  admissible ones, checking parsed numbers against ``pins.json``.  The
  subspace scans of ``ghw`` and ``descent`` dominate; the seed is unused.
* ``towers`` draws a form on each of four large towers with m2 = 1 and checks
  exhaustive weight data against the closed forms.  Building the field and
  the form's value table dominate; ``ghw`` does nothing.
* ``exhaustive-wd`` draws forms on four fixed shapes and variants (55,240
  messages in all) and checks the CWE over every message and seeded solution
  counts.  Per-message enumeration in ``codes`` dominates, on field tables
  that are already built.

Shapes, variants and the number of form terms are fixed, so the amount of
work does not depend on the seed; only the coefficients do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import api

PINS = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))

# "verify all" runs on every preset except the inadmissible descent fixture
VERIFY_PRESETS = tuple(name for name in sorted(PINS) if name != "descent-5-2-1-1-2")

# (p, m, m1, m2), variant
TOWERS = (
    ((3, 1, 7, 1), "affine"),
    ((5, 1, 5, 1), "homogeneous"),
    ((7, 1, 4, 1), "affine"),
    ((3, 1, 8, 1), "homogeneous"),
)
WD_SHAPES = (
    ((3, 1, 3, 7), "affine"),
    ((5, 2, 1, 2), "homogeneous"),
    ((7, 1, 2, 3), "affine"),
    ((5, 1, 2, 4), "homogeneous"),
)
COUNT_SAMPLES = 10


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], list[str]]


def jobs(workload: str, seed: int) -> list[Job]:
    if workload == "presets":
        return [
            Job(f"preset:{name}", lambda name=name: _preset_job(name)) for name in sorted(PINS)
        ] + [Job(f"verify:{name}", lambda name=name: _verify_job(name)) for name in VERIFY_PRESETS]
    if workload == "towers":
        return [
            Job(_shape_id("towers", shape, variant), _seeded(_tower_job, seed, i, shape, variant))
            for i, (shape, variant) in enumerate(TOWERS)
        ]
    if workload == "exhaustive-wd":
        return [
            Job(_shape_id("wd", shape, variant), _seeded(_wd_job, seed, i, shape, variant))
            for i, (shape, variant) in enumerate(WD_SHAPES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _shape_id(prefix, shape, variant) -> str:
    return f"{prefix}:{'-'.join(map(str, shape))}-{variant}"


def _seeded(job, seed, index, shape, variant):
    return lambda: job(random.Random(seed * 1000 + index), shape, variant)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _preset_job(name: str) -> list[str]:
    code, out = api.run_cli(["preset", name, "--format", "json"])
    return check_preset(name, code, json.loads(out))


def _verify_job(name: str) -> list[str]:
    code, out = api.run_cli(["verify", "all", "--preset", name, "--format", "json"])
    return check_verify(code, json.loads(out))


def _resolved(rows) -> list[int]:
    return [row["brute"] if row["brute"] is not None else row["closed"] for row in rows]


def _cwe_key(entries) -> dict:
    return {tuple(comp): mult for comp, mult in entries}


def check_preset(name: str, code: int, report: dict, pins: dict = PINS) -> list[str]:
    """Compare a preset's exit code and parsed numbers with the pinned ones."""
    pin = pins[name]
    fails = []
    if code != pin["exit"]:
        fails.append(f"exit code {code}, expected {pin['exit']}")
    if report["wd"]["brute"] != pin["wd"]:
        fails.append(f"brute WD {report['wd']['brute']} != pinned {pin['wd']}")
    if _cwe_key(report["cwe"]["brute"]) != _cwe_key(pin["cwe"]):
        fails.append("brute CWE != pinned")
    if report["ghw"]["resolved"] != pin["hierarchy"]:
        fails.append(f"hierarchy {report['ghw']['resolved']} != pinned {pin['hierarchy']}")
    if "descend" in pin:
        got, want = report["descend"], pin["descend"]
        if want is None:
            if "error" not in got:
                fails.append("inadmissible descent was not refused")
        elif "error" in got:
            fails.append(f"descent refused: {got['error']}")
        else:
            if got["descended_params"] != want["descended_params"]:
                fails.append(
                    f"descended params {got['descended_params']} != pinned "
                    f"{want['descended_params']}"
                )
            if got["wd_brute"] != want["wd"]:
                fails.append("descended brute WD != pinned")
            if _resolved(got["hierarchy"]) != want["hierarchy"]:
                fails.append(
                    f"descended hierarchy {_resolved(got['hierarchy'])} != pinned "
                    f"{want['hierarchy']}"
                )
    return fails


def check_verify(code: int, report: dict) -> list[str]:
    fails = [] if code == 0 else [f"exit code {code}, expected 0"]
    for suite, ok in sorted(report["verify"].items()):
        if ok is not True:
            fails.append(f"verify {suite}: brute != closed")
    if len(report["verify"]) != 3:
        fails.append(f"verify ran {sorted(report['verify'])}, expected three suites")
    return fails


# ---------------------------------------------------------------------------
# seeded forms on fixed shapes
# ---------------------------------------------------------------------------


def _draw_form(tower, rng: random.Random):
    """Two Frobenius terms and one squared trace; redrawn on ZeroFormError."""
    Fq, Fq1 = tower.Fq, tower.Fq1
    while True:
        frobs = [
            api.FrobeniusTerm(api.Elem(Fq1, rng.randrange(Fq1.order)), rng.randrange(tower.m1))
            for _ in range(2)
        ]
        trsq = [
            api.TraceSquareTerm(
                api.Elem(Fq, rng.randrange(Fq.order)), api.Elem(Fq1, rng.randrange(Fq1.order))
            )
        ]
        try:
            return api.make_form(tower, frobs, trsq)
        except api.ZeroFormError:
            continue


def _spec(rng, shape, variant):
    tower = api.build_tower(*shape)
    form = _draw_form(tower, rng)
    return api.CodeSpec(analysis=form.analysis, variant=api.Variant(variant))


def check_cwe(spec, cwe_brute, cwe_closed) -> list[str]:
    fails = []
    if cwe_brute.total() != spec.num_messages:
        fails.append(f"CWE multiplicities sum to {cwe_brute.total()}, not q^k = {spec.num_messages}")
    if cwe_brute != cwe_closed:
        fails.append("brute CWE != closed form")
    return fails


def _tower_job(rng, shape, variant) -> list[str]:
    spec = _spec(rng, shape, variant)
    fails = check_cwe(spec, api.exhaustive_cwe(spec), api.cwe_predicted(spec))
    wd_b, wd_p = api.exhaustive_wd(spec), api.weight_distribution_predicted(spec)
    if wd_b != wd_p:
        fails.append(f"brute WD {wd_b} != closed {wd_p}")
    n, k, q = spec.params()
    gries_b = api.griesmer_check(n, k, wd_b.min_nonzero(), q)
    if gries_b != api.griesmer_check(n, k, wd_p.min_nonzero(), q):
        fails.append(f"Griesmer verdict {gries_b.verdict} differs from the closed form's")
    ab_b = api.ab_minimality(wd_b, q)
    if ab_b != api.ab_minimality(wd_p, q):
        fails.append(f"AB verdict {ab_b.verdict} differs from the closed form's")
    return fails


def _wd_job(rng, shape, variant) -> list[str]:
    spec = _spec(rng, shape, variant)
    fails = check_cwe(spec, api.exhaustive_cwe(spec), api.cwe_predicted(spec))
    tower, an = spec.tower, spec.analysis
    Fq, Fq2 = tower.Fq, tower.Fq2
    for _ in range(COUNT_SAMPLES):
        a = api.Elem(Fq, rng.randrange(Fq.order))
        b = api.Elem(Fq2, rng.randrange(Fq2.order))
        beta = api.Elem(Fq, rng.randrange(Fq.order))
        c = api.Elem(Fq, rng.randrange(Fq.order))
        for cc in (None, c):
            closed = api.count_solutions(an, a, b, beta, c=cc)
            brute = api.count_solutions_brute(an.form, a, b, beta, c=cc)
            if closed != brute:
                fails.append(f"N({a}, {b}, {cc}; {beta}): brute {brute} != closed {closed}")
    return fails
