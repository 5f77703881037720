import contextlib
import itertools
import json
import random
import textwrap
import tracemalloc
from functools import lru_cache, partial

import numpy as np
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
    descended_ghw_closed,
    descended_hierarchy,
    descended_wd,
    ghw_brute,
    ghw_closed,
    make_descent,
    orbit_check,
    psi,
    psi_weight_table,
    primitive_element,
    support_defect,
    support_defect_closed,
)
from qfcodes.descent import (
    descended_support_defect,
    descended_support_defect_closed,
)
from qfcodes import ghw, linalg
from qfcodes.ghw import _Multiset, generator_matrix, subspace_bases
from qfcodes.errors import BudgetError, budget

from conftest import batched, fresh_python, reference_scan, spec_for


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


def test_descend_rank_is_the_rank_of_the_generator_matrix(fix7):
    spec, params = fix7
    assert descend(spec, params).dimension == linalg.rank(
        spec.tower.Fp, generator_matrix(spec, params)
    )


def test_descend_refuses_a_multiset_on_a_hyperplane(fix7, monkeypatch):
    """A quotient multiset on the line v_1 = 0 of F_7^2 has rank 1, so the
    columns have rank 1 + dim W = 3 < 4: the descent would not be
    injective."""
    spec, params = fix7
    f = np.zeros(7**2, dtype=np.int64)
    f[:7] = 1
    monkeypatch.setattr("qfcodes.descent._quotient", lambda spec, params: _Multiset(spec.tower.Fp, 2, f))
    with pytest.raises(ArithmeticError, match="descended rank 3 != m \\* k = 4"):
        descend(spec, params)


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


def _orbit_check_reference(params):
    """(stabilizer, orbits) of F_p* on the cosets of <theta> in F_q*, one
    scalar op at a time: the cosets labelled exhaustively, then a search
    over F_p* multiples from each unvisited coset."""
    tower = params.tower
    Fq, Fp = tower.Fq, tower.Fp
    H, v = set(), 1
    for _ in range(params.L):
        H.add(v)
        v = Fq.mul(v, params.theta.idx)
    lambdas = [Fq.embed_from(Fp, i) for i in range(1, tower.p)]
    stab = sum(1 for lam in lambdas if lam in H)
    coset_of, labels = {}, 0
    for x in range(1, Fq.order):
        if x not in coset_of:
            for h in H:
                coset_of[Fq.mul(x, h)] = labels
            labels += 1
    seen, orbits = set(), 0
    for x in range(1, Fq.order):
        if coset_of[x] in seen:
            continue
        orbits += 1
        stack = [x]
        while stack:
            y = stack.pop()
            if coset_of[y] in seen:
                continue
            seen.add(coset_of[y])
            stack += [z for z in (Fq.mul(lam, y) for lam in lambdas) if coset_of[z] not in seen]
    return stab, orbits


def _orbit_traces_reference(params):
    """``orbit_traces`` by a double loop over lam in F_p* and i < L."""
    Fq, Fp = params.tower.Fq, params.tower.Fp
    trace = Fq.trace_table(Fp)
    K, rows = np.zeros((Fq.order, 2, Fp.order), dtype=np.int64), np.arange(Fq.order)
    for lam in range(1, Fp.order):
        for i in range(params.L):
            o = Fq.mul(Fq.embed_from(Fp, lam), Fq.pow(params.theta.idx, i))
            oc = [Fq.mul(o, c) for c in range(Fq.order)]
            K[rows, int(Fq.eta(o) == -1), trace[oc]] += 1  # one cell per row
    return K


def test_orbit_enumeration_matches_the_scalar_references():
    """``orbit_check`` and ``orbit_traces`` equal their scalar references on
    every admissible N of q in {9, 25, 49, 121, 27, 5, 7}, and on the forced
    q = 25, N = 2, where F_p* is not transitive."""
    cases = []
    for p, m in [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 1), (7, 1)]:
        tw = build_tower(p, m, 1, 1)
        for N in range(1, p):
            with contextlib.suppress(ParameterError):
                cases.append(make_descent(tw, N))
    tw = build_tower(5, 2, 1, 1)
    cases.append(DescentParams(tower=tw, N=2, theta=Elem(tw.Fq, tw.Fq.pow(tw.Fq.gen, 2))))
    for params in cases:
        orb = orbit_check(params)
        assert (orb.stabilizer_size, orb.orbit_count) == _orbit_check_reference(params), params
        assert np.array_equal(params.orbit_traces, _orbit_traces_reference(params)), params
    assert orb.orbit_count == 2 and len(cases) == 16


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
    """The odd-rank note sits on exactly the rows top < r < k: at r = k the
    one subspace is the whole space and d_k = n needs no confirmation (m = 1
    leaves no row between, m = 2 leaves one)."""
    for shape, N in [((5, 1, 1, 1), 2), ((3, 2, 1, 1), 1), ((3, 2, 1, 2), 1)]:
        spec = _spec(*shape, variant=Variant.AFFINE)
        params = make_descent(spec.tower, N)
        rep = descended_hierarchy(spec, params)
        top, k = spec.tower.m * (spec.tower.m2 + 1), len(rep.rows)
        assert rep.rows[-1].d_closed == spec.length * params.L
        for row in rep.rows:
            assert row.d_brute == row.d_closed
            assert ("brute confirmation" in row.note) == (top < row.r < k), (shape, row)


def test_descended_per_subspace_closed(fix7):
    """The per-subspace closed form is the point count on every basis of
    every r: descent-7; the q = 25 -> F_5 descents, N = 2, both variants and
    both signs of the even-rank constant; the odd-rank affine (5,1,1,1),
    whose r = k has |F|**r = q**(M+1); and the first 500 bases per r of the
    affine (3,2,1,1) and (3,2,2,1) descents, N = 1 (56 632 subspaces each)."""
    def case(spec, N, cap=None):
        return spec, make_descent(spec.tower, N), cap

    cases = [(*fix7, None), case(_spec(5, 1, 1, 1, Variant.AFFINE), 2)]
    for variant, coeff_token in itertools.product(Variant, (1, "g")):
        cases.append(case(_spec(5, 1, 2, 1, variant, coeff_token), 2))
    for m1 in (1, 2):
        cases.append(case(_spec(3, 2, m1, 1, Variant.AFFINE), 1, 500))
    for spec, params, cap in cases:
        k = spec.dimension * spec.tower.m
        count = partial(descended_support_defect, spec, params)
        for r in range(1, k + 1):
            bases = itertools.islice(subspace_bases(k, r, spec.tower.Fp), cap)
            for rows, n in batched(count, bases):
                assert descended_support_defect_closed(spec, params, rows) == n, (spec, r, rows)


def test_descended_budget():
    """r = 2 of the (7,2,1,1) descent scans [2, 0] + [2, 1] + [2, 2] = 10
    subspaces of the quotient F_7^2 and its 49 cells; below either charge
    the scan refuses, at both it runs.  A first scan at the default budget
    builds the cached work that costs more (the form's 49 values, F_49's
    trace table, F_7's tables), so no pin depends on the order of tests."""
    spec = _spec(7, 2, 1, 1)
    params = make_descent(spec.tower, 3)
    want = descended_ghw_brute(spec, params, 2)
    assert want[0] == descended_ghw_closed(spec, params, 2)
    with budget(9), pytest.raises(BudgetError, match="subspace enumeration .* needs 10 steps"):
        descended_ghw_brute(spec, params, 2)
    with budget(48), pytest.raises(BudgetError, match="column multiset over F_7\\^2 needs 49 steps"):
        descended_ghw_brute(spec, params, 2)
    with budget(49):
        assert descended_ghw_brute(spec, params, 2) == want


@pytest.mark.parametrize("name", ["example-3.1", "example-3.2", "example-3.6"])
def test_prime_field_descent_is_the_source_scan(name):
    """m = 1 and N = p - 1: psi is the identity (L = 1, theta = 1), so the
    descended scan is the F_q scan, witnesses included, and the frame
    (F_p, m, N) is the F_q code's (F_q, 1, q - 1): the closed d_r agree at
    every r and the per-subspace closed forms on every basis with r <= 2."""
    spec = spec_for(name)
    tw = spec.tower
    params = make_descent(tw, tw.p - 1)
    assert tw.m == 1 and params.L == 1
    assert [psi(params, Elem(tw.Fq, g)) for g in range(tw.q)] == [
        (g,) for g in range(tw.q)
    ]
    for r in (1, 2, 3):
        assert descended_ghw_brute(spec, params, r) == ghw_brute(spec, r)
    rs = range(1, spec.dimension + 1)
    assert [descended_ghw_closed(spec, params, r) for r in rs] == [ghw_closed(spec, r) for r in rs]
    for r in (1, 2):
        for rows in subspace_bases(spec.dimension, r, tw.Fq):
            assert descended_support_defect_closed(spec, params, rows) == support_defect_closed(
                spec, rows
            ), rows
    # rows given as lists still work: the point counts take any array-like
    d2, witness = ghw_brute(spec, 2)
    as_lists = [list(row) for row in witness]
    assert support_defect(spec, as_lists) == spec.length - d2
    assert descended_support_defect(spec, params, as_lists) == spec.length - d2


@pytest.mark.parametrize("fixture", ["descent-7", "affine-5-1-1-1"])
def test_descended_scan_is_the_first_maximiser_of_the_point_count(fixture, fix7, monkeypatch):
    """The value of descended_ghw_brute is the length minus the maximum of
    the descended point count over subspace_bases, for every r; the
    witness, the lift of the quotient's first maximiser, is a canonical
    RREF basis of dim r that attains it, and the same with one subspace per
    batch and the quotient's cache empty."""
    if fixture == "descent-7":
        spec, params = fix7
    else:
        spec = _spec(5, 1, 1, 1, variant=Variant.AFFINE)
        params = make_descent(spec.tower, 2)
    tw = spec.tower
    k = spec.dimension * tw.m
    length = spec.length * params.L
    for r in range(1, k + 1):
        count = partial(descended_support_defect, spec, params)
        best, _ = reference_scan(count, subspace_bases(k, r, tw.Fp))
        d_r, witness = descended_ghw_brute(spec, params, r)
        assert d_r == length - best, r
        R, pivots = linalg.rref(tw.Fp, witness)
        assert len(pivots) == r and tuple(map(tuple, R.tolist())) == witness
        assert count(witness) == best, r
    found = [descended_ghw_brute(spec, params, r) for r in range(1, k + 1)]
    monkeypatch.setattr(ghw, "_CHUNK", 1)
    monkeypatch.setattr(ghw, "_quotient", lru_cache(ghw._quotient.__wrapped__))
    assert [descended_ghw_brute(spec, params, r) for r in range(1, k + 1)] == found


def test_descended_scan_memory_stays_flat(fix7):
    spec, params = fix7
    tracemalloc.start()
    try:
        descended_hierarchy(spec, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# -- reach ---------------------------------------------------------------------


def test_descend_m3_under_3_gb(tmp_path):
    """The affine Tr(x**2) descent on (3,3,2,4), N = 1, has k = 18 over F_3:
    ``descend --config`` exits 0 under a 3 GB address-space limit with all
    18 rows brute == closed.  The optimizer note spans only the b-part-zero
    rows (at most 3**6 elements), not the 3**r elements of the span."""
    cfg = {"tower": {"p": 3, "m": 3, "m1": 2, "m2": 4},
           "form": {"frobenius": [{"coeff": 1, "i": 0}]}, "variant": "affine",
           "descent": {"N": 1}}
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = fresh_python(["-m", "qfcodes.cli", "descend", "--config", str(path), "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["descend"]["hierarchy"]
    assert [row["r"] for row in rows] == list(range(1, 19))
    assert all(row["brute"] == row["closed"] for row in rows), rows


_DESCENT_REACH = textwrap.dedent(
    """
    import json, time
    from qfcodes import (CodeSpec, FrobeniusTerm, QuadraticForm, Variant, build_tower,
                         descended_hierarchy, make_descent)
    start = time.perf_counter()
    tw = build_tower(7, 2, 1, 1)
    form = QuadraticForm(tw, (FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)
    rows = descended_hierarchy(spec, make_descent(tw, 3)).rows
    print(json.dumps({
        "rows": [[row.r, row.d_brute, row.d_closed] for row in rows],
        "seconds": time.perf_counter() - start,
    }))
    """
)


@pytest.mark.reach
def test_descended_hierarchy_7_2_1_1_3():
    """The affine descended hierarchy of (7,2,1,1), N = 3 (k = 6 over F_7,
    61.9 M subspaces over the message space): every d_r from the quotient
    F_7^4, equal to the closed form, in under 1 s in a fresh process."""
    proc = fresh_python(["-c", _DESCENT_REACH])
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert [r for r, _, _ in run["rows"]] == [1, 2, 3, 4, 5, 6]
    assert all(brute == closed for _, brute, closed in run["rows"]), run
    assert run["seconds"] < 1, run


_ODD_RANK_SWEEP = textwrap.dedent(
    """
    import json, time
    from qfcodes import (CodeSpec, Elem, FrobeniusTerm, ParameterError, QuadraticForm,
                         TraceSquareTerm, Variant, build_tower, descended_hierarchy, make_descent)
    start = time.perf_counter()
    towers = [(p, m, m1, m2) for p, m in [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3)]
              for m1 in range(1, 4) for m2 in range(1, 5) if (p**m) ** (m1 + m2) <= 3**16]
    rows, bad, refused, notes = 0, 0, 0, 0
    for p, m, m1, m2 in towers:
        tw = build_tower(p, m, m1, m2)
        Fq, Fq1 = tw.Fq, tw.Fq1
        forms = [  # Tr(x^2), Tr(g x^2), Tr(x)^2 and g Tr(x)^2
            ((FrobeniusTerm(Fq1.one, 0),), ()),
            ((FrobeniusTerm(Elem(Fq1, Fq1.gen), 0),), ()),
            ((), (TraceSquareTerm(Fq.one, Fq1.one),)),
            ((), (TraceSquareTerm(Elem(Fq, Fq.gen), Fq1.one),)),
        ]
        for frob, trsq in forms:
            an = QuadraticForm(tw, frob, trsq).analysis
            if an.r_q % 2 == 0:
                continue
            spec = CodeSpec(analysis=an, variant=Variant.AFFINE)
            for N in range(1, p):
                try:
                    params = make_descent(tw, N)
                except ParameterError:
                    continue
                for row in descended_hierarchy(spec, params).rows:
                    rows += 1
                    bad += row.d_brute != row.d_closed
                    refused += row.d_brute is None
                    notes += "needs brute confirmation" in row.note
    print(json.dumps({"towers": len(towers), "rows": rows, "bad": bad, "refused": refused,
                      "notes": notes, "seconds": time.perf_counter() - start}))
    """
)


@pytest.mark.reach
def test_odd_rank_descent_sweep():
    """The odd-rank affine descended hierarchies, whose rows r > m(m2+1)
    carry the note "closed form needs brute confirmation": p in
    {3, 5, 7, 11} with m = 2 and p = 3 with m = 3, m1 <= 3, m2 <= 4 and
    q**(m1+m2) <= 3**16, the forms Tr(x**2), Tr(g x**2), Tr(x)**2 and
    g Tr(x)**2 of odd rank, every admissible N: 39 towers, 1784 rows, every
    one brute == closed, none refused."""
    proc = fresh_python(["-c", _ODD_RANK_SWEEP])
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert (run["towers"], run["rows"], run["bad"], run["refused"]) == (39, 1784, 0, 0), run
    assert run["notes"] > 0, run
    assert run["seconds"] < 30, run
