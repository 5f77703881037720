import random

import pytest

from qfcodes import (
    BudgetError,
    CycInt,
    Elem,
    additive_char_sum,
    budget,
    build_tower,
    count_solutions,
    count_solutions_brute,
    eta_twisted_sum_brute,
    eta_twisted_sum_closed,
    gauss_sum,
    prime_field,
    pstar,
    qf_exp_sum_brute,
    qf_exp_sum_closed,
)
from qfcodes.cyclotomic import cyc_from_trace_counts
from qfcodes.presets import preset_names

from conftest import spec_for


# fields of every size that appears in the fixtures
FIXTURE_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (3, 5)]


def test_ring_relations():
    p = 7
    s = CycInt.from_int(p, 1)
    for k in range(1, p):
        s = s + CycInt.zeta(p, k)
    assert not bool(s)  # 1 + z + ... + z^(p-1) = 0
    assert CycInt.zeta(p, 1) * CycInt.zeta(p, p - 1) == 1


def test_ring_laws_random():
    rng = random.Random(31)
    p = 5
    for _ in range(50):
        a, b, c = (
            CycInt(p, [rng.randrange(-9, 10) for _ in range(p - 1)]) for _ in range(3)
        )
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == CycInt.from_int(p, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_square_is_pstar(p):
    g = gauss_sum(p)
    assert g * g == CycInt.from_int(p, pstar(p))
    assert abs(pstar(p)) == p
    assert (pstar(p) > 0) == (p % 4 == 1)


def test_additive_char_sum_basics():
    F9 = build_tower(3, 2, 1, 1).Fq
    assert additive_char_sum(F9, lambda x: F9.zero).as_int() == 9
    b = Elem(F9, 3)
    assert not bool(additive_char_sum(F9, lambda x: b * x))


def test_additive_char_sum_matches_qf_closed(example_spec):
    an = example_spec.analysis
    Fq = an.tower.Fq
    z = Elem(Fq, 1)
    via_generic = additive_char_sum(
        an.tower.Fq1, lambda x: Elem(Fq, Fq.mul(z.idx, int(an.form.value_table[x.idx])))
    )
    assert via_generic == qf_exp_sum_closed(an, z)


@pytest.mark.parametrize("p,m", FIXTURE_FIELDS)
def test_eta_twisted_sum_all_b_both_parities(p, m):
    Fq = build_tower(p, m, 1, 1).Fq
    for k in (0, 1):
        for b in range(Fq.order):
            be = Elem(Fq, b)
            assert eta_twisted_sum_brute(Fq, k, be) == eta_twisted_sum_closed(
                Fq, k, be
            )


@pytest.mark.parametrize("name", preset_names())
def test_eta_twisted_sum_brute_is_the_scalar_sum(name):
    """The gathered sum is the scalar sum over every z in F_q* of
    eta(z)**k * zeta**Tr(z*b), for every b and both parities, on each field
    of the preset's tower with at most 243 elements."""
    tw = spec_for(name).tower
    for F in {tw.Fp, tw.Fq, tw.Fq1, tw.Fq2}:
        if F.order > 243:
            continue
        tr = F.trace_table(tw.Fp)
        for b in range(F.order):
            for k in (0, 1):
                counts = [0] * tw.p
                for z in range(1, F.order):
                    counts[tr[F.mul(z, b)]] += F.eta(z) ** k
                expected = cyc_from_trace_counts(tw.p, counts)
                assert eta_twisted_sum_brute(F, k, Elem(F, b)) == expected


def test_eta_twisted_pinned_values():
    F3 = prime_field(3)
    assert eta_twisted_sum_brute(F3, 0, F3.zero).as_int() == 2  # upsilon(0)
    assert eta_twisted_sum_brute(F3, 0, F3.one).as_int() == -1
    # k = 1, q = p = 3, b = 1: expanding in the cyclotomic basis gives 1 + 2z
    assert eta_twisted_sum_brute(F3, 1, F3.one) == CycInt(3, (1, 2))


def test_qf_exp_sum_fixture_forms(example_spec):
    an = example_spec.analysis
    Fq = an.tower.Fq
    for z in range(1, Fq.order):
        ze = Elem(Fq, z)
        assert qf_exp_sum_brute(an.form, ze) == qf_exp_sum_closed(an, ze)


def test_qf_exp_sum_example_31_value(ex31):
    an = ex31.analysis
    for z in (1, 2):
        assert qf_exp_sum_closed(an, Elem(an.tower.Fq, z)).as_int() == -9


def test_qf_exp_sum_sign_structure(ex33):
    # odd rank: values for z, z' with opposite characters are negatives
    an = ex33.analysis
    Fq = an.tower.Fq
    zs = Elem(Fq, 1)  # square
    g = Elem(Fq, Fq.gen)  # non-square
    assert qf_exp_sum_closed(an, zs) == -qf_exp_sum_closed(an, g)


def test_qf_exp_sum_even_rank_z_independent(ex31):
    an = ex31.analysis
    Fq = an.tower.Fq
    vals = {qf_exp_sum_closed(an, Elem(Fq, z)) for z in range(1, Fq.order)}
    assert len(vals) == 1


def test_count_solutions_pinned(ex31, ex33):
    tw = ex33.tower
    assert (
        count_solutions(ex33.analysis, tw.Fq.zero, tw.Fq2.zero, tw.Fq.zero) == 9**5
    )
    assert count_solutions(ex33.analysis, tw.Fq.zero, tw.Fq2.zero, Elem(tw.Fq, 1)) == 0
    tw = ex31.tower
    assert (
        count_solutions(ex31.analysis, tw.Fq.one, tw.Fq2.zero, tw.Fq.zero) == 567
    )


def test_count_solutions_exhaustive_small_tower():
    from qfcodes import FrobeniusTerm, QuadraticForm

    tw = build_tower(3, 1, 2, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    an = form.analysis
    for a in range(3):
        for b in range(tw.Fq2.order):
            for beta in range(3):
                args = (Elem(tw.Fq, a), Elem(tw.Fq2, b), Elem(tw.Fq, beta))
                assert count_solutions(an, *args) == count_solutions_brute(form, *args)
                for c in range(3):
                    ce = Elem(tw.Fq, c)
                    assert count_solutions(an, *args, c=ce) == count_solutions_brute(
                        form, *args, c=ce
                    )


def test_count_solutions_brute_partition_and_zero_cases():
    from qfcodes import FrobeniusTerm, QuadraticForm

    tw = build_tower(3, 1, 2, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    a, b = Elem(tw.Fq, 2), Elem(tw.Fq2, 1)
    total = sum(
        count_solutions_brute(form, a, b, Elem(tw.Fq, beta)) for beta in range(3)
    )
    assert total == 3**3
    # a = b = 0 and beta != 0 has no solutions
    assert count_solutions_brute(form, tw.Fq.zero, tw.Fq2.zero, Elem(tw.Fq, 1)) == 0


def test_count_solutions_brute_matches_nested_loop():
    """The histogram convolution equals a literal point-by-point count."""
    from qfcodes import FrobeniusTerm, QuadraticForm, rel_trace

    tw = build_tower(3, 1, 2, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    rng = random.Random(71)
    for _ in range(10):
        a = Elem(tw.Fq, rng.randrange(3))
        b = Elem(tw.Fq2, rng.randrange(3))
        beta = Elem(tw.Fq, rng.randrange(3))
        literal = 0
        for x in tw.Fq1.elements():
            for y in tw.Fq2.elements():
                v = a * form(x) + rel_trace(b * y, tw.Fq)
                literal += v == beta
        assert literal == count_solutions_brute(form, a, b, beta)


def _scalar_histograms(form):
    """By scalar field ops: the histogram of a*Q(x) over x for every a, and
    of Tr(b*y) over y (the Frobenius sum) for every b."""
    tw = form.tower
    Fq, Fq2, q = tw.Fq, tw.Fq2, tw.Fq.order
    by_a = []
    for a in range(q):
        hist = [0] * q
        for v, cnt in enumerate(form.value_histogram.tolist()):
            hist[Fq.mul(a, v)] += cnt
        by_a.append(hist)
    by_b = []
    for b in range(Fq2.order):
        hist = [0] * q
        for y in range(Fq2.order):
            z, tr = Fq2.mul(b, y), 0
            for j in range(Fq2.degree_over(Fq)):
                tr = Fq2.add(tr, Fq2.pow(z, q**j))
            hist[Fq2.demote_to(tr, Fq)] += 1
        by_b.append(hist)
    return by_a, by_b


@pytest.mark.parametrize("name", ["example-3.2", "example-3.4", "m2=1"])
def test_count_solutions_brute_is_the_scalar_convolution(name):
    """Every (a, b, beta) and every c (or none): the vectorised count equals
    the scalar histogram convolution and the closed form."""
    from qfcodes import FrobeniusTerm, QuadraticForm

    if name == "m2=1":
        tw = build_tower(5, 1, 2, 1)
        form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    else:
        form = spec_for(name).analysis.form
        tw = form.tower
    Fq, q = tw.Fq, tw.Fq.order
    by_a, by_b = _scalar_histograms(form)
    for a in range(q):
        for b in range(tw.Fq2.order):
            for beta in range(q):
                for c in (None, *range(q)):
                    target = beta if c is None else Fq.sub(beta, c)
                    expect = sum(by_a[a][v] * by_b[b][Fq.sub(target, v)] for v in range(q))
                    args = (Elem(Fq, a), Elem(tw.Fq2, b), Elem(Fq, beta))
                    ce = None if c is None else Elem(Fq, c)
                    assert count_solutions_brute(form, *args, c=ce) == expect
                    assert count_solutions(form.analysis, *args, c=ce) == expect


def test_count_solutions_random_samples(example_spec):
    """Every cell (a, class of b, beta) of each example spec: b = 0 and b = 1
    stand for the two classes, as every b != 0 counts like b = 1."""
    an = example_spec.analysis
    tw = an.tower
    for a in range(tw.Fq.order):
        for b in (0, 1):
            for beta in range(tw.Fq.order):
                args = (Elem(tw.Fq, a), Elem(tw.Fq2, b), Elem(tw.Fq, beta))
                assert count_solutions(an, *args) == count_solutions_brute(an.form, *args)


def test_budget_guard():
    from qfcodes import FrobeniusTerm, QuadraticForm

    tw = build_tower(3, 1, 2, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    with budget(5), pytest.raises(BudgetError):
        count_solutions_brute(form, tw.Fq.one, tw.Fq2.zero, tw.Fq.zero)
