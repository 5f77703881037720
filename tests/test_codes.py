import random

import pytest

from qfcodes import (
    Elem,
    ParameterError,
    Variant,
    ab_minimality,
    codeword,
    cwe_brute,
    cwe_predicted,
    get_preset,
    griesmer_check,
    weight_distribution_brute,
    weight_distribution_predicted,
)
from qfcodes.codes import apply_symbol_permutation, eta_matching_permutation
from qfcodes.errors import BudgetError

from conftest import spec_for, EXAMPLE_NAMES


def _reference(name):
    return get_preset(name).reference


def test_parameters(example_spec):
    tw = example_spec.tower
    n_expected = tw.q**tw.M
    if example_spec.variant is Variant.HOMOGENEOUS:
        assert example_spec.length == n_expected - 1
        assert example_spec.dimension == tw.m2 + 1
    else:
        assert example_spec.length == n_expected
        assert example_spec.dimension == tw.m2 + 2


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_reference_params_and_wd(name):
    spec = spec_for(name)
    ref = _reference(name)
    n, k, d = ref["params"]
    assert (spec.length, spec.dimension) == (n, k)
    wd = weight_distribution_brute(spec)
    assert wd.min_nonzero() == d
    assert wd.as_dict() == {0: 1, **ref["wd"]}
    assert wd == weight_distribution_predicted(spec)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_cwe_brute_equals_predicted_exactly(name):
    spec = spec_for(name)
    assert cwe_brute(spec) == cwe_predicted(spec)


@pytest.mark.parametrize("name", ["example-3.1", "example-3.2", "example-3.5", "example-3.6"])
def test_cwe_matches_printed_reference_directly(name):
    spec = spec_for(name)
    ref = _reference(name)["cwe"]
    assert cwe_brute(spec).as_dict() == {tuple(c): m for c, m in ref.items()}


@pytest.mark.parametrize("name", ["example-3.3", "example-3.4"])
def test_cwe_matches_reference_after_relabeling(name):
    """The printed enumerators fix a character pattern on the nonzero
    symbols; matching needs the induced permutation of symbol labels."""
    spec = spec_for(name)
    ref = _reference(name)
    Fq = spec.tower.Fq
    ours = [Fq.eta(Fq.neg(Fq.omega[i])) for i in range(1, Fq.order)]
    perm = eta_matching_permutation(ours, list(ref["cwe_eta_pattern"]))
    relabeled = apply_symbol_permutation(cwe_brute(spec), perm)
    assert relabeled.as_dict() == {tuple(c): m for c, m in ref["cwe"].items()}


def test_cwe_totals_and_marginal(example_spec):
    cw = cwe_brute(example_spec)
    assert cw.total() == example_spec.num_messages
    wd = cw.weight_marginal()
    assert wd == weight_distribution_brute(example_spec)
    assert wd.total() == example_spec.num_messages
    assert wd[0] == 1
    for comp, _ in cw.items():
        assert sum(comp) == example_spec.length


def test_codeword_basics(ex31):
    tw = ex31.tower
    zero = codeword(ex31, tw.Fq.zero, tw.Fq2.zero)
    assert len(zero) == ex31.length
    assert all(v == 0 for v in zero)
    # linearity on random message pairs
    rng = random.Random(3)
    for _ in range(5):
        a1, a2 = (Elem(tw.Fq, rng.randrange(tw.q)) for _ in range(2))
        b1, b2 = (Elem(tw.Fq2, rng.randrange(tw.Fq2.order)) for _ in range(2))
        w1 = codeword(ex31, a1, b1)
        w2 = codeword(ex31, a2, b2)
        w12 = codeword(ex31, a1 + a2, b1 + b2)
        assert w12 == [tw.Fq.add(u, v) for u, v in zip(w1, w2)]


def test_codeword_constant_for_affine(ex35):
    tw = ex35.tower
    c0 = Elem(tw.Fq, 2)
    w = codeword(ex35, tw.Fq.zero, tw.Fq2.zero, c0)
    assert len(w) == tw.q**tw.M
    assert all(v == c0.idx for v in w)


def test_codeword_variant_arity(ex31, ex35):
    tw = ex31.tower
    with pytest.raises(ParameterError):
        codeword(ex31, tw.Fq.zero, tw.Fq2.zero, tw.Fq.one)
    tw = ex35.tower
    with pytest.raises(ParameterError):
        codeword(ex35, tw.Fq.zero, tw.Fq2.zero)


def test_codeword_composition_consistency(ex31, ex35):
    """Counting symbols of every materialized codeword reproduces the
    kernel's per-message composition."""
    from qfcodes.codes import _compositions

    for spec in (ex31, ex35):
        tw = spec.tower
        seen = 0
        for c, comp in _compositions(spec):
            const = Elem(tw.Fq, c) if spec.variant is Variant.AFFINE else None
            for a in range(tw.q):
                for b in range(tw.Fq2.order):
                    vec = codeword(spec, Elem(tw.Fq, a), Elem(tw.Fq2, b), const)
                    counts = [0] * tw.q
                    for v in vec:
                        counts[tw.Fq.omega_pos(v)] += 1
                    assert counts == comp[a, b].tolist()
                    seen += 1
        assert seen == spec.num_messages


def test_exhaustive_cwe_affine_390625_messages():
    """Every message of an affine (5,2,1,2) code, against the closed form."""
    from qfcodes import CodeSpec, FrobeniusTerm, QuadraticForm, build_tower

    tw = build_tower(5, 2, 1, 2)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)
    assert spec.num_messages == 390625
    cw = cwe_brute(spec)
    assert cw.total() == spec.num_messages
    assert cw == cwe_predicted(spec)


def test_weight_data_budget_refusal(ex31):
    with pytest.raises(BudgetError, match="message-space enumeration"):
        cwe_brute(ex31, budget=10)


def test_zero_weight_message_is_refused(ex31, monkeypatch):
    """Injectivity: a nonzero message with the zero codeword is an error."""
    from qfcodes import codes

    real = codes._compositions

    def forged(spec, budget):
        for c, comp in real(spec, budget):
            comp[1, 1] = [spec.length] + [0] * (spec.tower.q - 1)
            yield c, comp

    monkeypatch.setattr(codes, "_compositions", forged)
    with pytest.raises(ArithmeticError, match="1 nonzero messages"):
        cwe_brute(ex31)


def test_stratum_mode_is_refused(ex31):
    with pytest.raises(ParameterError, match="always exhaustive"):
        cwe_brute(ex31, audit=False)
    with pytest.raises(ParameterError, match="always exhaustive"):
        weight_distribution_brute(ex31, audit=False)


def test_weight_equals_length_minus_zero_count(example_spec):
    from qfcodes import count_solutions

    tw = example_spec.tower
    an = example_spec.analysis
    rng = random.Random(12)
    for _ in range(20):
        a = Elem(tw.Fq, rng.randrange(tw.q))
        b = Elem(tw.Fq2, rng.randrange(tw.Fq2.order))
        n_zero = count_solutions(an, a, b, tw.Fq.zero)
        vec = None
        if example_spec.variant is Variant.HOMOGENEOUS:
            vec = codeword(example_spec, a, b)
            assert sum(1 for v in vec if v != 0) == tw.q**tw.M - n_zero


def test_griesmer():
    res = griesmer_check(2186, 4, 1458, 3)
    assert res.bound_sum == 1458 + 486 + 162 + 54 == 2160
    assert not res.meets and res.exceeds_by == 26
    # a one-dimensional full-weight code meets the bound
    assert griesmer_check(4, 1, 4, 5).meets
    # the rank-1, m1 = 1 family meets the bound
    from qfcodes import FrobeniusTerm, QuadraticForm, build_tower, CodeSpec

    tw = build_tower(5, 1, 1, 2)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.HOMOGENEOUS)
    wd = weight_distribution_brute(spec)
    n, k, q = spec.params()
    assert griesmer_check(n, k, wd.min_nonzero(), q).meets


def test_ab_minimality(ex31):
    wd = weight_distribution_brute(ex31)
    res = ab_minimality(wd, 3)
    assert res.verdict == "minimal-by-AB"
    assert res.w_min * 3 == 4374 and res.w_max * 2 == 3240
    # one-weight codes are trivially minimal by the criterion
    from qfcodes import WeightDistribution

    assert ab_minimality(WeightDistribution({0: 1, 10: 5}), 3).minimal
    # rank 2 with positive sign is exactly the excluded boundary case
    assert not ab_minimality(WeightDistribution({0: 1, 6: 1, 9: 1}), 3).minimal


def test_ab_inconclusive_boundary_family():
    """Even rank 2 with positive sign sits exactly on the ratio boundary."""
    from qfcodes import CodeSpec, FrobeniusTerm, QuadraticForm, build_tower
    from qfcodes import elem_from_data

    tw = build_tower(5, 1, 2, 1)
    form = QuadraticForm(
        tw, frobenius_terms=(FrobeniusTerm(elem_from_data(tw.Fq1, "g"), 0),)
    )
    spec = CodeSpec(analysis=form.analysis, variant=Variant.HOMOGENEOUS)
    assert (form.analysis.r_q, form.analysis.eps) == (2, 1)
    res = ab_minimality(weight_distribution_brute(spec), 5)
    assert res.verdict == "inconclusive"
    assert res.w_min * 5 == res.w_max * 4


def test_minimality_corollary_on_fixtures(example_spec):
    an = example_spec.analysis
    if example_spec.variant is not Variant.HOMOGENEOUS:
        pytest.skip("the minimality corollary addresses the homogeneous family")
    wd = weight_distribution_brute(example_spec)
    res = ab_minimality(wd, example_spec.tower.q)
    if an.r_q % 2 == 1:
        assert res.minimal
    elif an.eps == -1 or an.r_q > 2:
        assert res.minimal


def test_dimension_injectivity_audit(example_spec):
    # enumeration certifies injectivity: every nonzero message has weight > 0
    wd = weight_distribution_brute(example_spec)
    assert wd.total() == example_spec.num_messages
    assert wd[0] == 1


def test_odd_rank_homogeneous_min_distance(ex33, ex34):
    for spec in (ex33, ex34):
        tw = spec.tower
        wd = weight_distribution_brute(spec)
        assert wd.min_nonzero() == tw.q ** (tw.M - 1) * (tw.q - 1)
