"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
timings.  Every comparison is exact; the stated wall-clock bounds are upper
limits checked on each run.

Criterion 10 checks what is true at its pinned parameters (p, m, m1, m2, N)
= (5, 2, 1, 1, 2).  They violate the descent admissibility condition
gcd(N, (q-1)/(p-1)) = 1 (the gcd is 2), so the criterion asserts that
construction refuses N = 2, and then runs every clause of the descent suite
by enumeration on the forced parameters, asserting the counterexample it
gives: column weights {8, 12} rather than constant 10, a stabilizer of size
4 rather than 2, a failing character identity, and brute-force weights and
hierarchy below the closed forms.
test_descent.py::test_coprimality_is_load_bearing covers the same
counterexample in brief, and the suite passes verbatim on admissible
parameters in test_criterion_10_admissible_counterpart.
"""

import time
from contextlib import contextmanager

import pytest

from qfcodes import (
    CodeSpec,
    DescentParams,
    Elem,
    FrobeniusTerm,
    QuadraticForm,
    Variant,
    build_tower,
    char_identity_check,
    count_solutions,
    count_solutions_brute,
    cwe_brute,
    cwe_predicted,
    descend,
    descended_ghw_brute,
    descended_ghw_closed,
    descended_wd,
    eta_twisted_sum_brute,
    eta_twisted_sum_closed,
    gauss_sum,
    gaussian_binomial,
    get_preset,
    ghw_brute,
    hierarchy,
    make_descent,
    orbit_check,
    ParameterError,
    psi_weight_table,
    pstar,
    qf_exp_sum_brute,
    qf_exp_sum_closed,
    quad_char,
    rel_trace,
    subspace_bases,
    support_defect,
    support_defect_closed,
    weight_distribution_brute,
    weight_distribution_predicted,
)
from qfcodes.codes import apply_symbol_permutation, eta_matching_permutation
from qfcodes.cyclotomic import CycInt

from conftest import spec_for, EXAMPLE_NAMES, HOMOGENEOUS_NAMES


@contextmanager
def _criterion(num: str, limit: float | None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        print(f"criterion {num}: FAIL ({type(e).__name__}: {e})")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_example_31():
    with _criterion("1", 10.0):
        spec = spec_for("example-3.1")
        ref = get_preset("example-3.1").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (2186, 4, 1458)
        assert wd.as_dict() == {0: 1, 1458: 78, 1620: 2}
        assert cwe_brute(spec).as_dict() == {
            tuple(c): m for c, m in ref["cwe"].items()
        }
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        assert rep.all_agree
        assert rep.resolved_hierarchy() == [1458, 1944, 2106, 2166]


def test_criterion_2_example_32():
    with _criterion("2", 30.0):
        spec = spec_for("example-3.2")
        ref = get_preset("example-3.2").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (3124, 3, 2500)
        cw = cwe_brute(spec)
        assert cw[(124, 750, 750, 750, 750)] == 4
        assert cw.as_dict() == {tuple(c): m for c, m in ref["cwe"].items()}
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        assert rep.all_agree
        assert rep.resolved_hierarchy() == [2500, 3000, 3120]


def test_criterion_3_example_34():
    with _criterion("3", 60.0):
        spec = spec_for("example-3.4")
        ref = get_preset("example-3.4").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (3124, 4, 2500)
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        assert rep.all_agree
        assert rep.resolved_hierarchy() == [2500, 3000, 3100, 3120]
        Fq = spec.tower.Fq
        ours = [Fq.eta(Fq.neg(Fq.omega[i])) for i in range(1, Fq.order)]
        perm = eta_matching_permutation(ours, list(ref["cwe_eta_pattern"]))
        relabeled = apply_symbol_permutation(cwe_brute(spec), perm)
        assert relabeled.as_dict() == {tuple(c): m for c, m in ref["cwe"].items()}


def test_criterion_4_example_35():
    with _criterion("4", 60.0):
        spec = spec_for("example-3.5")
        ref = get_preset("example-3.5").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (6561, 5, 4131)
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        rows = {row.r: row for row in rep.rows}
        for r, expect in ((1, 4131), (3, 6291), (4, 6471), (5, 6561)):
            assert rows[r].agree and rows[r].resolved == expect
        # three-way discrepancy report at r = 2: print 5741 vs closed 5751
        assert (rows[2].reference, rows[2].d_closed) == (5741, 5751)
        assert rows[2].d_brute == 5751  # brute force arbitrates
        assert not rows[2].agree


def test_criterion_5_example_36():
    with _criterion("5", 120.0):
        spec = spec_for("example-3.6")
        ref = get_preset("example-3.6").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (2187, 6, 1215)
        assert cwe_brute(spec).as_dict() == {
            tuple(c): m for c, m in ref["cwe"].items()
        }
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        assert rep.all_agree
        assert rep.resolved_hierarchy() == [1215, 1863, 2079, 2151, 2175, 2187]


def test_criterion_6_example_33():
    with _criterion("6", 120.0):
        spec = spec_for("example-3.3")
        ref = get_preset("example-3.3").reference
        wd = weight_distribution_brute(spec)
        assert (spec.length, spec.dimension, wd.min_nonzero()) == (59048, 3, 52488)
        assert wd.as_dict() == {0: 1, 52488: 728}
        rep = hierarchy(spec, reference_values=ref["hierarchy"])
        rows = {row.r: row for row in rep.rows}
        assert rows[1].agree and rows[1].resolved == 52488
        assert rows[3].agree and rows[3].resolved == 58968
        assert (rows[2].reference, rows[2].d_closed) == (52830, 58320)
        assert rows[2].d_brute == 58320  # brute force arbitrates
        assert not rows[2].agree


FIXTURE_FIELD_SHAPES = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (3, 5)]


def _all_fixture_specs():
    specs = [spec_for(name) for name in EXAMPLE_NAMES]
    specs.append(spec_for("descent-7-2-1-1-3"))
    specs.append(spec_for("descent-5-2-1-1-2"))
    return specs


def test_criterion_7_character_sum_suite():
    with _criterion("7", 60.0):
        for p in (3, 5, 7, 11, 13):
            assert gauss_sum(p) * gauss_sum(p) == CycInt.from_int(p, pstar(p))
        for p, m in FIXTURE_FIELD_SHAPES:
            Fq = build_tower(p, m, 1, 1).Fq
            for k in (0, 1):
                for b in range(Fq.order):
                    be = Elem(Fq, b)
                    assert eta_twisted_sum_brute(Fq, k, be) == eta_twisted_sum_closed(
                        Fq, k, be
                    )
        for spec in _all_fixture_specs():
            an = spec.analysis
            Fq = an.tower.Fq
            for z in range(1, Fq.order):
                ze = Elem(Fq, z)
                assert qf_exp_sum_brute(an.form, ze) == qf_exp_sum_closed(an, ze)


def test_criterion_8_count_oracle_suite():
    with _criterion("8", None):
        import random

        tw = build_tower(3, 1, 2, 1)
        form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
        an = form.analysis
        for a in range(3):
            for b in range(tw.Fq2.order):
                for beta in range(3):
                    args = (Elem(tw.Fq, a), Elem(tw.Fq2, b), Elem(tw.Fq, beta))
                    assert count_solutions(an, *args) == count_solutions_brute(
                        form, *args
                    )
        for name in EXAMPLE_NAMES:
            spec = spec_for(name)
            t = spec.tower
            rng = random.Random(t.q * 31 + t.M)
            for _ in range(200):
                a = Elem(t.Fq, rng.randrange(t.Fq.order))
                b = Elem(t.Fq2, rng.randrange(t.Fq2.order))
                beta = Elem(t.Fq, rng.randrange(t.Fq.order))
                assert count_solutions(spec.analysis, a, b, beta) == (
                    count_solutions_brute(spec.analysis.form, a, b, beta)
                )


def test_criterion_9_subspace_lemma_suite():
    with _criterion("9", None):
        hom_specs = [spec_for(n) for n in HOMOGENEOUS_NAMES]
        hom_specs.append(spec_for("descent-7-2-1-1-3"))
        hom_specs.append(spec_for("descent-5-2-1-1-2"))
        for spec in hom_specs:
            k, q = spec.dimension, spec.tower.q
            odd = spec.analysis.r_q % 2 == 1
            for r in range(1, k + 1):
                if gaussian_binomial(k, r, q) > 10**5:
                    continue
                expect_const = spec.tower.q ** (spec.tower.M - r) - 1
                for rows in subspace_bases(k, r, spec.tower.Fq):
                    n_brute = support_defect(spec, rows)
                    assert n_brute == support_defect_closed(spec, rows)
                    if odd:
                        assert n_brute == expect_const


def test_criterion_10_descent_suite():
    """The descent suite at (p, m, m1, m2, N) = (5, 2, 1, 1, 2): construction
    refuses N = 2, and on the forced parameters theta = g**2 every clause
    gives the enumerated counterexample; see the module docstring."""
    with _criterion("10", 120.0):
        tower = build_tower(5, 2, 1, 1)
        form = QuadraticForm(tower, frobenius_terms=(FrobeniusTerm(tower.Fq1.one, 0),))
        spec = CodeSpec(analysis=form.analysis, variant=Variant.HOMOGENEOUS)
        with pytest.raises(
            ParameterError,
            match=r"N = 2 is not coprime to \(q-1\)/\(p-1\) = 6 \(gcd = 2\)",
        ):
            make_descent(tower, 2)
        Fq = tower.Fq
        params = DescentParams(tower=tower, N=2, theta=Elem(Fq, Fq.pow(Fq.gen, 2)))
        wts = psi_weight_table(params)
        assert params.column_weight == 10
        assert set(wts[1:]) == {8, 12}
        code = descend(spec, params)
        assert (code.length, code.dimension) == (7488, 4)
        brute = descended_wd(spec, params, "brute")
        predicted = descended_wd(spec, params, "predicted")
        assert predicted.as_dict() == {0: 1, 6000: 624}
        assert brute.as_dict() == {0: 1, 4800: 12, 6000: 600, 7200: 12}
        for c in range(1, Fq.order):
            for a in range(1, Fq.order):
                assert not char_identity_check(params, Elem(Fq, c), Elem(Fq, a)).ok
        assert orbit_check(params).stabilizer_size == 4
        d_brute = [descended_ghw_brute(spec, params, r)[0] for r in (1, 2, 3, 4)]
        d_closed = [descended_ghw_closed(spec, params, r) for r in (1, 2, 3, 4)]
        assert d_brute == [4800, 6960, 7392, 7488]
        assert d_closed == [6000, 7200, 7440, 7488]


def test_criterion_10_admissible_counterpart():
    """The same suite, verbatim, on admissible parameters
    (p, m, m1, m2, N) = (7, 2, 1, 1, 3)."""
    with _criterion("10-admissible", 120.0):
        tower = build_tower(7, 2, 1, 1)
        form = QuadraticForm(tower, frobenius_terms=(FrobeniusTerm(tower.Fq1.one, 0),))
        spec = CodeSpec(analysis=form.analysis, variant=Variant.HOMOGENEOUS)
        params = make_descent(tower, 3)
        wts = psi_weight_table(params)
        assert set(wts[1:]) == {params.column_weight} == {14}
        code = descend(spec, params)
        assert (code.length, code.dimension) == (38400, 4)
        assert descended_wd(spec, params, "brute") == descended_wd(
            spec, params, "predicted"
        )
        Fq = tower.Fq
        for c in range(1, Fq.order, 7):
            for a in range(1, Fq.order, 5):
                assert char_identity_check(params, Elem(Fq, c), Elem(Fq, a)).ok
        assert orbit_check(params).stabilizer_size == (7 - 1) // 3 == 2
        for r in (1, 2, 3, 4):
            d_brute, _ = descended_ghw_brute(spec, params, r)
            assert d_brute == descended_ghw_closed(spec, params, r)


def test_criterion_11_property_suites():
    with _criterion("11", None):
        import random

        failures = 0
        for name in EXAMPLE_NAMES:
            spec = spec_for(name)
            tw = spec.tower
            rng = random.Random(tw.q * 101 + tw.m1)
            Fq1 = tw.Fq1
            # field axioms on a random sample
            for _ in range(50):
                x, y, z = (Elem(Fq1, rng.randrange(Fq1.order)) for _ in range(3))
                failures += (x + y) * z != x * z + y * z
                failures += x * y != y * x
            # trace transitivity
            for _ in range(50):
                x = Elem(Fq1, rng.randrange(Fq1.order))
                failures += rel_trace(x, tw.Fp) != rel_trace(
                    rel_trace(x, tw.Fq), tw.Fp
                )
            # quadratic character multiplicativity
            for _ in range(100):
                x = Elem(tw.Fq, rng.randrange(1, tw.q))
                y = Elem(tw.Fq, rng.randrange(1, tw.q))
                failures += quad_char(x * y) != quad_char(x) * quad_char(y)
            # weight-data totals
            cw = cwe_brute(spec)
            failures += cw.total() != spec.num_messages
            failures += any(sum(comp) != spec.length for comp, _ in cw.items())
            failures += cw != cwe_predicted(spec)
            failures += cw.weight_marginal() != weight_distribution_predicted(spec)
            # hierarchy strictly increasing
            failures += not hierarchy(spec).strictly_increasing()
            # basis independence of (rank, sign) under a random congruence
            an = spec.analysis
            failures += an.eps_q != quad_char(an.delta_q)
            failures += _congruence_changes_invariants(spec, rng)
        assert failures == 0


def _congruence_changes_invariants(spec, rng) -> bool:
    tw = spec.tower
    Fq, m1 = tw.Fq, tw.m1
    if m1 == 1:
        return False
    G = spec.analysis.form.gram
    while True:
        M = [[rng.randrange(Fq.order) for _ in range(m1)] for _ in range(m1)]
        A = [row[:] for row in M]
        rank = 0
        for c in range(m1):
            piv = next((i for i in range(rank, m1) if A[i][c]), None)
            if piv is None:
                continue
            A[rank], A[piv] = A[piv], A[rank]
            inv = Fq.inv(A[rank][c])
            A[rank] = [Fq.mul(inv, v) for v in A[rank]]
            for i in range(m1):
                if i != rank and A[i][c]:
                    f = A[i][c]
                    A[i] = [Fq.sub(A[i][k], Fq.mul(f, A[rank][k])) for k in range(m1)]
            rank += 1
        if rank == m1:
            break
    G2 = [[0] * m1 for _ in range(m1)]
    for i in range(m1):
        for j in range(m1):
            acc = 0
            for r in range(m1):
                for s in range(m1):
                    acc = Fq.add(acc, Fq.mul(Fq.mul(M[i][r], M[j][s]), G[r][s]))
            G2[i][j] = acc
    other = QuadraticForm(tw, gram=tuple(tuple(r) for r in G2)).analysis
    return (other.r_q, other.eps_q) != (spec.analysis.r_q, spec.analysis.eps_q)
