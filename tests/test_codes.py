import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qfcodes

from qfcodes import (
    CWE,
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
from qfcodes.presets import preset_names

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


@pytest.mark.parametrize("name", ["example-3.1", "example-3.3", "example-3.5"])
def test_codeword_is_the_scalar_evaluation(name):
    """codeword equals a*Q(x) + Tr(b*y) + c point by point, computed with
    QuadraticForm.__call__ and rel_trace, on the unit messages and on
    (g, g, g) with g the primitive element of each field."""
    from qfcodes import primitive_element, rel_trace

    spec = spec_for(name)
    tw = spec.tower
    Fq, Fq1, Fq2 = tw.Fq, tw.Fq1, tw.Fq2
    affine = spec.variant is Variant.AFFINE
    values = [spec.analysis.form(x) for x in Fq1.elements()]
    ys = list(Fq2.elements())
    units = [(Fq.one, Fq2.zero, Fq.zero)]
    for s in range(tw.m2):
        coeffs = [0] * tw.m2
        coeffs[s] = 1
        b = Elem(Fq2, Fq2.from_coeffs(coeffs)) if tw.m2 > 1 else Fq2.one
        units.append((Fq.zero, b, Fq.zero))
    if affine:
        units.append((Fq.zero, Fq2.zero, Fq.one))
    g = (primitive_element(Fq), primitive_element(Fq2), primitive_element(Fq) if affine else Fq.zero)
    for a, b, c in units + [g]:
        traces = [rel_trace(b * y, Fq) for y in ys]
        want = [
            (a * v + t + c).idx
            for i, v in enumerate(values)
            for j, t in enumerate(traces)
            if affine or i or j  # the homogeneous code skips the origin
        ]
        assert codeword(spec, a, b, c if affine else None) == want


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


def _symbol_counts(spec, vec):
    """The composition of a codeword, counted symbol by symbol."""
    counts = [0] * spec.tower.q
    for v in vec:
        counts[spec.tower.Fq.omega_pos(v)] += 1
    return counts


def _messages(spec):
    """Every message (a, b, c) of the code, c = None for the homogeneous one."""
    tw = spec.tower
    consts = tw.Fq.elements() if spec.variant is Variant.AFFINE else [None]
    return itertools.product(tw.Fq.elements(), tw.Fq2.elements(), consts)


def test_codeword_composition_consistency(ex31, ex35):
    """Counting symbols of every materialized codeword reproduces the
    kernel's composition of the message's class of b (b = 0 or b != 0)."""
    from qfcodes.codes import _compositions

    for spec in (ex31, ex35):
        comps = dict(_compositions(spec))
        seen = 0
        for a, b, c in _messages(spec):
            comp = comps[c.idx if c is not None else 0]
            want = comp[a.idx, int(b.idx != 0)].tolist()
            assert _symbol_counts(spec, codeword(spec, a, b, c)) == want
            seen += 1
        assert seen == spec.num_messages


# (p, m, m1, m2) with q in {3, 5, 7, 9} and at most 729 messages
SMALL_TOWERS = [
    (3, 1, 1, 1), (3, 1, 2, 1), (3, 1, 1, 2), (3, 1, 2, 2), (5, 1, 1, 1),
    (5, 1, 2, 1), (5, 1, 1, 2), (7, 1, 1, 1), (7, 1, 2, 1), (3, 2, 1, 1),
]


@pytest.mark.parametrize("shape", SMALL_TOWERS)
@settings(max_examples=4, deadline=None, database=None)
@given(data=st.data())
def test_class_kernel_is_the_cwe_of_every_codeword(shape, data):
    """The orbit-reduced kernel against the CWE counted symbol by symbol from
    the codeword of every message, on random forms and variants."""
    from qfcodes import (
        CodeSpec, FrobeniusTerm, QuadraticForm, TraceSquareTerm, ZeroFormError, build_tower,
    )

    tw = build_tower(*shape)
    Fq, Fq1 = tw.Fq, tw.Fq1
    q1 = st.integers(0, Fq1.order - 1)
    frobs = data.draw(
        st.lists(
            st.tuples(st.integers(1, Fq1.order - 1), st.integers(0, tw.m1 - 1)),
            min_size=1,
            max_size=2,
        ),
        label="frobenius",
    )
    trsq = data.draw(
        st.lists(st.tuples(st.integers(0, Fq.order - 1), q1), max_size=1), label="trace squares"
    )
    variant = data.draw(st.sampled_from(Variant), label="variant")
    try:
        form = QuadraticForm(
            tw,
            tuple(FrobeniusTerm(Elem(Fq1, a), i) for a, i in frobs),
            tuple(TraceSquareTerm(Elem(Fq, c), Elem(Fq1, b)) for c, b in trsq),
        )
        spec = CodeSpec(analysis=form.analysis, variant=variant)
    except ZeroFormError:
        return
    oracle = Counter(tuple(_symbol_counts(spec, codeword(spec, *m))) for m in _messages(spec))
    assert cwe_brute(spec) == CWE(dict(oracle))


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


def test_exhaustive_cwe_cost_grows_with_f_q_m2_not_its_square():
    """The affine F_3 x F_{3^9} code (3**11 messages) is enumerated within the
    default budget: the kernel charges about 2e4 steps, where |F_{q^m2}|**2
    alone is about 3.9e8."""
    from qfcodes import CodeSpec, FrobeniusTerm, QuadraticForm, build_tower

    tw = build_tower(3, 1, 1, 9)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)
    assert cwe_brute(spec) == cwe_predicted(spec)


def test_weight_data_budget_refusal(ex31):
    with pytest.raises(BudgetError, match="message-space enumeration"):
        cwe_brute(ex31, budget=10)


def test_weight_data_budget_is_the_kernel_cost(ex31):
    """m * m2 digits of y times p * q cells of the trace DP, then q**3
    histogram cells and n_c * q**2 composition cells for each of the two
    classes of b."""
    tw = ex31.tower
    q = tw.q
    cost = tw.m * tw.m2 * tw.p * q + 2 * q**3 + 2 * 1 * q**2  # homogeneous: n_c = 1
    with pytest.raises(BudgetError, match="message-space enumeration"):
        cwe_brute(ex31, budget=cost - 1)
    assert cwe_brute(ex31, budget=cost) == cwe_predicted(ex31)


def test_oversized_codeword_is_refused_before_the_value_table():
    """The codeword oracle over F_{3^16} reads the omega order first, whose
    tables are refused, so Q's 3^16 values are never made."""
    from qfcodes import CodeSpec, FrobeniusTerm, QuadraticForm, build_tower

    tw = build_tower(3, 1, 16, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.HOMOGENEOUS)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"building GF\(43046721\)"):
            codeword(spec, tw.Fq.one, tw.Fq2.one)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_zero_weight_message_is_refused(ex31, monkeypatch):
    """Injectivity: a nonzero message with the zero codeword is an error, on
    the CWE route and on the weight-distribution route alike."""
    from qfcodes import codes

    real = codes._compositions

    def forged(spec, budget):
        for c, comp in real(spec, budget):
            comp[1, 0] = [spec.length] + [0] * (spec.tower.q - 1)  # (a, b) = (1, 0)
            yield c, comp

    monkeypatch.setattr(codes, "_compositions", forged)
    for route in (cwe_brute, weight_distribution_brute):
        with pytest.raises(ArithmeticError, match="1 nonzero messages"):
            route(ex31)


@pytest.mark.parametrize("name", preset_names())
def test_weight_distribution_is_the_cwe_marginal(name):
    """The weights counted off the compositions are the CWE's marginal."""
    spec = spec_for(name)
    assert weight_distribution_brute(spec) == cwe_brute(spec).weight_marginal()


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


# -- reach -----------------------------------------------------------------------

_REACH_SCRIPT = textwrap.dedent(
    """
    import json, resource, time
    from qfcodes import (CodeSpec, Elem, FrobeniusTerm, QuadraticForm, TraceSquareTerm,
                         Variant, build_tower, cwe_brute, cwe_predicted)
    start = time.perf_counter()
    tw = build_tower(3, 1, 12, 3)
    Fq, Fq1 = tw.Fq, tw.Fq1
    form = QuadraticForm(
        tw,
        (FrobeniusTerm(Elem(Fq1, Fq1.gen), 1), FrobeniusTerm(Fq1.one, 0)),
        (TraceSquareTerm(Elem(Fq, 2), Elem(Fq1, 5)),),
    )
    spec = CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)
    equal = cwe_brute(spec) == cwe_predicted(spec)
    print(json.dumps({
        "equal": equal,
        "seconds": time.perf_counter() - start,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    """
)


@pytest.mark.reach
def test_exhaustive_cwe_at_f_3_12():
    """The affine F_{3^12} x F_{3^3} code (531,441-element F_{q^m1}): the
    exhaustive CWE equals the closed form, in a fresh process, in under 2 s
    and 300 MB."""
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["equal"]
    assert run["seconds"] < 2, run
    assert run["peak_mb"] < 300, run


_TRACE_DP_REACH = textwrap.dedent(
    """
    import contextlib, io, json, resource, sys, time
    from qfcodes.cli import main
    start, bundles = time.perf_counter(), {}
    for argv in (["code"], ["cwe"], ["ghw"], ["verify", "all"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--config", sys.argv[1], "--format", "json"])
        bundles[argv[0]] = [code, json.loads(out.getvalue())]
    print(json.dumps({
        "bundles": bundles,
        "seconds": time.perf_counter() - start,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    """
)


@pytest.mark.reach
def test_weight_data_and_hierarchy_at_f_3_30(tmp_path):
    """The affine Tr(x**2) code over F_9 x F_{3^30} (k = 32, n = 3**32): WD,
    CWE, all 32 d_r and every verify suite agree with the closed forms, in a
    fresh process, in under 10 s and 200 MB."""
    cfg = {"tower": {"p": 3, "m": 1, "m1": 2, "m2": 30},
           "form": {"frobenius": [{"coeff": 1, "i": 0}]}, "variant": "affine"}
    path = tmp_path / "f_3_30.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_DP_REACH, str(path)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    for code, bundle in run["bundles"].values():
        assert code == 0 and bundle["disagreements"] == [], bundle
    rows = run["bundles"]["ghw"][1]["ghw"]["rows"]
    assert [row["r"] for row in rows] == list(range(1, 33))
    assert all(row["brute"] == row["closed"] for row in rows), rows
    assert all(run["bundles"]["verify"][1]["verify"].values())
    assert run["seconds"] < 10, run
    assert run["peak_mb"] < 200, run
