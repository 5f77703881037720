"""Randomized cross-checks: brute force and closed forms must agree exactly
on randomly drawn admissible towers and forms (fixed seed, 10 towers)."""

import random

import pytest

from qfcodes import (
    CodeSpec,
    Elem,
    FrobeniusTerm,
    QuadraticForm,
    TraceSquareTerm,
    Variant,
    ZeroFormError,
    build_tower,
    count_solutions,
    count_solutions_brute,
    cwe_brute,
    cwe_predicted,
    gaussian_binomial,
    ghw_brute,
    ghw_closed,
    weight_distribution_brute,
    weight_distribution_predicted,
)

Q_M_CAP = 3**9
MSG_CAP = 20000
SUBSPACE_CAP = 1500


def _draw_tower(rng):
    while True:
        p = rng.choice([3, 3, 3, 5, 5, 7])
        m = rng.choice([1, 1, 1, 2])
        q = p**m
        m1 = rng.randint(1, 5)
        m2 = rng.randint(1, 5)
        if q ** (m1 + m2) > Q_M_CAP:
            continue
        if q ** (m2 + 2) > MSG_CAP:
            continue
        if q**m1 > 3**7:
            continue
        return (p, m, m1, m2)


def _draw_form(tw, rng):
    while True:
        frobs = []
        for _ in range(rng.randint(1, 2)):
            coeff = rng.randrange(tw.Fq1.order)
            frobs.append(FrobeniusTerm(Elem(tw.Fq1, coeff), rng.randrange(tw.m1)))
        trsqs = []
        if rng.random() < 0.5:
            trsqs.append(
                TraceSquareTerm(
                    Elem(tw.Fq, rng.randrange(tw.Fq.order)),
                    Elem(tw.Fq1, rng.randrange(tw.Fq1.order)),
                )
            )
        try:
            form = QuadraticForm(
                tw, frobenius_terms=tuple(frobs), trace_square_terms=tuple(trsqs)
            )
            form.analysis  # may raise on the zero function
            return form
        except ZeroFormError:
            continue


def _sweep_cases():
    rng = random.Random(20250809)
    cases = []
    while len(cases) < 10:
        cases.append(_draw_tower(rng))
    return cases


@pytest.mark.parametrize("pm", _sweep_cases())
def test_sweep_tower(pm):
    rng = random.Random(sum(pm) * 7919)
    tw = build_tower(*pm)
    form = _draw_form(tw, rng)
    variant = rng.choice([Variant.HOMOGENEOUS, Variant.AFFINE])
    spec = CodeSpec(analysis=form.analysis, variant=variant)

    # weight data: every message enumerated, against the closed forms
    wd, cwe = weight_distribution_brute(spec), cwe_brute(spec)
    assert wd == weight_distribution_predicted(spec) == cwe.weight_marginal()
    assert cwe == cwe_predicted(spec)

    # solution counts
    for _ in range(25):
        a = Elem(tw.Fq, rng.randrange(tw.Fq.order))
        b = Elem(tw.Fq2, rng.randrange(tw.Fq2.order))
        beta = Elem(tw.Fq, rng.randrange(tw.Fq.order))
        c = Elem(tw.Fq, rng.randrange(tw.Fq.order))
        assert count_solutions(spec.analysis, a, b, beta) == count_solutions_brute(
            form, a, b, beta
        )
        assert count_solutions(
            spec.analysis, a, b, beta, c=c
        ) == count_solutions_brute(form, a, b, beta, c=c)

    # hierarchy entries where enumeration stays small
    k, q = spec.dimension, tw.q
    for r in range(1, k + 1):
        if gaussian_binomial(k, r, q) > SUBSPACE_CAP:
            continue
        d_brute, _ = ghw_brute(spec, r)
        assert d_brute == ghw_closed(spec, r), (pm, variant, r)
