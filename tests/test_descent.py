import random

import pytest

from qfcodes import (
    CodeSpec,
    DescentParams,
    Elem,
    FrobeniusTerm,
    ParameterError,
    QuadraticForm,
    Variant,
    build_tower,
    char_identity_check,
    descend,
    descended_ghw_brute,
    descended_hierarchy,
    descended_wd,
    ghw_brute,
    make_descent,
    orbit_check,
    psi,
    psi_weight_table,
    primitive_element,
    support_defect,
)
from qfcodes.descent import (
    descended_support_defect,
    descended_support_defect_closed,
)
from qfcodes.ghw import subspace_bases

from conftest import spec_for


def _spec(p, m, m1, m2, variant=Variant.HOMOGENEOUS, coeff_token=1):
    tw = build_tower(p, m, m1, m2)
    from qfcodes import elem_from_data

    form = QuadraticForm(
        tw, frobenius_terms=(FrobeniusTerm(elem_from_data(tw.Fq1, coeff_token), 0),)
    )
    return CodeSpec(analysis=form.analysis, variant=variant)


@pytest.fixture(scope="module")
def fix7():
    """Admissible two-step descent: q = 49, N = 3."""
    spec = _spec(7, 2, 1, 1)
    params = make_descent(spec.tower, 3)
    return spec, params


def test_make_descent_trivial():
    tw = build_tower(5, 1, 1, 1)
    params = make_descent(tw, 1)
    assert params.theta.idx == tw.Fq.gen
    assert params.L == 4


def test_make_descent_validations():
    # N must divide p - 1
    with pytest.raises(ParameterError, match="divide"):
        make_descent(build_tower(5, 1, 1, 1), 3)
    # coprimality with (q-1)/(p-1); gcd(2, 4) = 2 for q = 9
    with pytest.raises(ParameterError, match="coprime"):
        make_descent(build_tower(3, 2, 1, 1), 2)
    # gcd(2, 6) = 2 for q = 25: the same condition rejects N = 2
    with pytest.raises(ParameterError, match="coprime"):
        make_descent(build_tower(5, 2, 1, 1), 2)


def test_coprimality_is_load_bearing():
    """Forcing the rejected q = 25, N = 2 parameters shows why they must be
    rejected: the trace kernel sits in one square class, so the column code
    is not constant-weight and the stabilizer doubles."""
    tw = build_tower(5, 2, 1, 1)
    theta = Elem(tw.Fq, tw.Fq.pow(tw.Fq.gen, 2))
    forced = DescentParams(tower=tw, N=2, theta=theta)
    wts = psi_weight_table(forced)
    assert sorted(set(wts[1:])) == [8, 12]  # not the nominal 10
    orb = orbit_check(forced)
    assert orb.stabilizer_size == 4  # not (p-1)/N = 2
    res = char_identity_check(forced, tw.Fq.one, tw.Fq.one)
    assert not res.plain_ok
    # the length/dimension arithmetic itself is independent of admissibility
    spec = _spec(5, 2, 1, 1)
    code = descend(spec, forced)
    assert (code.length, code.dimension) == (7488, 4)


def test_theta_override(fix7):
    spec, params = fix7
    tw = spec.tower
    # any element of the right order works and gives the same weights
    other = Elem(tw.Fq, tw.Fq.pow(params.theta.idx, 5))  # 5 coprime to 16
    alt = make_descent(tw, 3, theta=other)
    assert psi_weight_table(alt) == psi_weight_table(params)
    with pytest.raises(ParameterError, match="order"):
        make_descent(tw, 3, theta=tw.Fq.one)


def test_psi_linear_injective_constant(fix7):
    spec, params = fix7
    tw = spec.tower
    Fq = tw.Fq
    assert psi(params, Fq.zero) == (0,) * params.L
    rng = random.Random(8)
    for _ in range(50):
        x = Elem(Fq, rng.randrange(Fq.order))
        y = Elem(Fq, rng.randrange(Fq.order))
        px = psi(params, x)
        py = psi(params, y)
        pxy = psi(params, x + y)
        assert pxy == tuple(tw.Fp.add(u, v) for u, v in zip(px, py))
    cols = {psi(params, Elem(Fq, i)) for i in range(Fq.order)}
    assert len(cols) == Fq.order  # injective
    wts = psi_weight_table(params)
    assert set(wts[1:]) == {params.column_weight} and wts[0] == 0
    assert params.column_weight == (7 - 1) * 7 // 3


def test_descend_lengths_and_dimension(fix7):
    spec, params = fix7
    code = descend(spec, params)
    assert code.length == (49**2 - 1) * 16
    assert code.dimension == code.expected_dimension == 4
    # zero message maps to the zero matrix
    tw = spec.tower
    assert all(v == 0 for v in code.codeword(tw.Fq.zero, tw.Fq2.zero))


def test_descend_small_prime_tower():
    spec = _spec(5, 1, 1, 2)
    params = make_descent(spec.tower, 2)
    code = descend(spec, params)
    assert code.length == spec.length * 2
    assert code.dimension == spec.dimension


def test_descended_wd_agrees(fix7):
    spec, params = fix7
    wb = descended_wd(spec, params, "brute")
    wp = descended_wd(spec, params, "predicted")
    assert wb == wp
    # single-weight source stays single-weight
    assert len(wb.nonzero_weights()) == 1
    assert wb.min_nonzero() == 2352 * params.column_weight


def test_descended_wd_affine():
    spec = _spec(5, 1, 2, 1, variant=Variant.AFFINE)
    params = make_descent(spec.tower, 2)
    assert descended_wd(spec, params, "brute") == descended_wd(
        spec, params, "predicted"
    )


def test_descended_wd_even_rank_table_row():
    """Even-rank descended distribution: the large-weight row is
    (p-1)(q-1)q^M / (pN) with frequency q(q^m2 - 1)."""
    spec = _spec(7, 2, 2, 1)
    assert spec.analysis.r_q == 2
    params = make_descent(spec.tower, 3)
    wd = descended_wd(spec, params, "predicted")
    p, q, M, N = 7, 49, 3, 3
    big = (p - 1) * (q - 1) * q**M // (p * N)
    assert wd[big] == q * (q - 1)
    assert wd == descended_wd(spec, params, "brute")  # enumeration cross-check


def test_orbit_checks():
    # full-group descent: stabilizer 1
    tw = build_tower(5, 1, 1, 1)
    orb = orbit_check(make_descent(tw, 4))
    assert orb.ok and orb.stabilizer_size == 1
    # trivial case p = 3, N = 1
    orb = orbit_check(make_descent(build_tower(3, 1, 1, 1), 1))
    assert orb.ok and orb.orbit_count == 1
    # two-step tower
    orb = orbit_check(make_descent(build_tower(7, 2, 1, 1), 3))
    assert orb.ok and orb.stabilizer_size == 2


def test_char_identities_exhaustive_small():
    tw = build_tower(5, 1, 1, 1)
    params = make_descent(tw, 2)
    for c in range(1, 5):
        for a in range(1, 5):
            res = char_identity_check(params, Elem(tw.Fq, c), Elem(tw.Fq, a))
            assert res.ok
            assert res.plain_rhs.as_int() == -2


def test_char_identities_two_step(fix7):
    spec, params = fix7
    Fq = spec.tower.Fq
    rng = random.Random(15)
    vals = set()
    for _ in range(25):
        c = Elem(Fq, rng.randrange(1, Fq.order))
        a = Elem(Fq, rng.randrange(1, Fq.order))
        res = char_identity_check(params, c, a)
        assert res.ok
        vals.add(res.plain_lhs)
    assert len(vals) == 1  # independent of c


def test_identity_sign_flips_with_character(fix7):
    spec, params = fix7
    Fq = spec.tower.Fq
    g = primitive_element(Fq)
    one = Fq.one
    r1 = char_identity_check(params, one, one)  # eta(ac) = +1
    r2 = char_identity_check(params, one, g)  # eta(ac) = -1
    assert r1.twisted_rhs == -r2.twisted_rhs


def test_descended_hierarchy_brute_equals_closed(fix7):
    spec, params = fix7
    rep = descended_hierarchy(spec, params)
    assert [row.r for row in rep.rows] == [1, 2, 3, 4]
    for row in rep.rows:
        assert row.d_brute == row.d_closed, row
    assert rep.strictly_increasing()
    # odd rank: closed form is F * (p^r - 1)
    tw = spec.tower
    for row in rep.rows:
        expect = (49**2 * 48 // (7**row.r * 3)) * (7**row.r - 1)
        assert row.d_closed == expect


def test_descended_d1_matches_descended_wd(fix7):
    spec, params = fix7
    d1, _ = descended_ghw_brute(spec, params, 1)
    assert d1 == descended_wd(spec, params, "brute").min_nonzero()


@pytest.mark.parametrize("coeff_token,variant", [
    (1, Variant.HOMOGENEOUS),
    (1, Variant.AFFINE),
    ("g", Variant.AFFINE),
])
def test_descended_affine_small_all_r(coeff_token, variant):
    """Full brute/closed agreement on the q = 25 -> F_5 descent, N = 2,
    both signs of the even-rank constant."""
    spec = _spec(5, 1, 2, 1, variant=variant, coeff_token=coeff_token)
    params = make_descent(spec.tower, 2)
    rep = descended_hierarchy(spec, params)
    for row in rep.rows:
        assert row.d_brute == row.d_closed, row
    assert rep.strictly_increasing()


def test_descended_affine_odd_rank_case3_brute_confirms():
    spec = _spec(5, 1, 1, 1, variant=Variant.AFFINE)
    params = make_descent(spec.tower, 2)
    rep = descended_hierarchy(spec, params)
    top = spec.tower.m * (spec.tower.m2 + 1)
    for row in rep.rows:
        assert row.d_brute == row.d_closed
        if row.r > top:
            assert "brute confirmation" in row.note


def test_descended_per_subspace_closed(fix7):
    spec, params = fix7
    tw = spec.tower
    for r in (1, 2):
        for rows in subspace_bases(4, r, tw.Fp):
            assert descended_support_defect(
                spec, params, rows
            ) == descended_support_defect_closed(spec, params, rows)


def test_descended_budget():
    from qfcodes import BudgetError

    spec = _spec(7, 2, 1, 1)
    params = make_descent(spec.tower, 3)
    with pytest.raises(BudgetError):
        descended_ghw_brute(spec, params, 2, budget=10)


@pytest.mark.parametrize("name", ["example-3.1", "example-3.2"])
def test_prime_field_descent_is_the_source_scan(name):
    """m = 1 and N = p - 1: psi is the identity (L = 1, theta = 1), so the
    descended scan is the F_q scan, witnesses included."""
    spec = spec_for(name)
    tw = spec.tower
    params = make_descent(tw, tw.p - 1)
    assert tw.m == 1 and params.L == 1
    assert [psi(params, Elem(tw.Fq, g)) for g in range(tw.q)] == [
        (g,) for g in range(tw.q)
    ]
    for r in (1, 2, 3):
        assert descended_ghw_brute(spec, params, r) == ghw_brute(spec, r)
    # rows given as lists still work: the message memo keys on tuples
    d2, witness = ghw_brute(spec, 2)
    as_lists = [list(row) for row in witness]
    assert support_defect(spec, as_lists) == spec.length - d2
    assert descended_support_defect(spec, params, as_lists) == spec.length - d2
