import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfcodes import fields, quadform
from qfcodes import (
    Elem,
    FrobeniusTerm,
    QuadraticForm,
    TraceSquareTerm,
    BudgetError,
    ZeroFormError,
    budget,
    build_tower,
    epsilon_sign,
    quad_char,
    rel_trace,
)
from qfcodes.presets import preset_names

from conftest import spec_for, EXAMPLE_NAMES


def _tr_square_form(p, m, m1, m2, scale_int):
    tw = build_tower(p, m, m1, m2)
    return QuadraticForm(
        tw,
        frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),),
        trace_square_terms=(
            TraceSquareTerm(Elem(tw.Fq, scale_int % p), tw.Fq1.one),
        ),
    )


# pinned invariants from the worked examples


@pytest.mark.parametrize(
    "name,rank,eps_q",
    [
        ("example-3.1", 4, -1),
        ("example-3.2", 2, -1),
        ("example-3.3", 3, -1),
        ("example-3.4", 1, 1),
        ("example-3.5", 4, -1),
        ("example-3.6", 3, -1),
    ],
)
def test_analysis_matches_reference(name, rank, eps_q):
    an = spec_for(name).analysis
    assert (an.r_q, an.eps_q) == (rank, eps_q)
    assert an.eps in (-1, 1)
    assert an.eps == epsilon_sign(an.tower.p, an.tower.m, an.r_q, an.eps_q)
    assert an.eps_q == an.tower.Fq.eta(an.delta_q.idx)


def test_eval_basics():
    form = spec_for("example-3.1").analysis.form
    tw = form.tower
    assert form(tw.Fq1.zero) == tw.Fq.zero
    # Tr of 1 over a degree-4 extension of F_3 is 4 mod 3 = 1
    assert form(tw.Fq1.one) == Elem(tw.Fq, 1)


def test_homogeneity_degree_two(example_spec):
    form = example_spec.analysis.form
    tw = form.tower
    Fq, Fq1 = tw.Fq, tw.Fq1
    rng = random.Random(41)
    for _ in range(100):
        a = Elem(Fq, rng.randrange(Fq.order))
        x = Elem(Fq1, rng.randrange(Fq1.order))
        ax = Elem(Fq1, Fq1.embed_from(Fq, a.idx)) * x
        assert form(ax) == a * a * form(x)


def test_bilinear_properties(example_spec):
    form = example_spec.analysis.form
    Fq1 = form.tower.Fq1
    rng = random.Random(17)
    zero = Fq1.zero
    for _ in range(100):
        x = Elem(Fq1, rng.randrange(Fq1.order))
        y = Elem(Fq1, rng.randrange(Fq1.order))
        assert form.bilinear(x, zero) == form.tower.Fq.zero
        assert form.bilinear(x, x) == form(x)
        assert form.bilinear(x, y) == form.bilinear(y, x)


def test_gram_reconstruction_exhaustive():
    # m1 <= 6 for every fixture, so reconstruction is checked on all of F_{q^m1}
    for name in EXAMPLE_NAMES:
        form = spec_for(name).analysis.form
        tw = form.tower
        Fq, Fq1, m1 = tw.Fq, tw.Fq1, tw.m1
        G = form.gram
        for i in range(Fq1.order):
            xb = (i,) if m1 == 1 else Fq1.coeffs(i)
            acc = 0
            for r in range(m1):
                for s in range(m1):
                    acc = Fq.add(acc, Fq.mul(Fq.mul(xb[r], xb[s]), G[r][s]))
            assert acc == form(Elem(Fq1, i)).idx


def test_gram_symmetric(example_spec):
    G = example_spec.analysis.form.gram
    m1 = len(G)
    for i in range(m1):
        for j in range(m1):
            assert G[i][j] == G[j][i]


def _polarization_table(form):
    basis = [Elem(form.tower.Fq1, form.tower.q**i) for i in range(form.tower.m1)]
    return tuple(tuple(form.bilinear(x, y).idx for y in basis) for x in basis)


@pytest.mark.parametrize("name", preset_names())
def test_gram_is_the_polarization_table(name):
    form = spec_for(name).analysis.form
    assert form.gram == _polarization_table(form)


# p in {3, 5, 7}, m in {1, 2, 3}, m1 <= 4, with at most 2 * 10**4 elements in F_{q^m1}
GRAM_TOWERS = [
    (p, m, m1, 1)
    for p in (3, 5, 7) for m in (1, 2, 3) for m1 in range(1, 5) if p ** (m * m1) <= 2 * 10**4
]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_gram_is_the_polarization_on_random_towers(data):
    """The Gram matrix read off the digit tensor S is the polarization of
    the scalar oracle, for random terms and for random raw Gram inputs."""
    tw = build_tower(*data.draw(st.sampled_from(GRAM_TOWERS), label="tower"))
    Fq, Fq1 = tw.Fq, tw.Fq1
    if data.draw(st.booleans(), label="raw gram"):
        upper = data.draw(st.lists(
            st.integers(0, Fq.order - 1), min_size=tw.m1 ** 2, max_size=tw.m1 ** 2
        ), label="entries")
        gram = tuple(
            tuple(upper[min(i, j) * tw.m1 + max(i, j)] for j in range(tw.m1))
            for i in range(tw.m1)
        )
        form = QuadraticForm(tw, gram=gram)
        assert form.gram == gram
        assert form.gram == _polarization_table(form)
        return
    q1 = st.one_of(st.just(0), st.integers(0, Fq1.order - 1))
    frobs = data.draw(
        st.lists(st.tuples(q1, st.integers(0, tw.m1 - 1)), max_size=3), label="frobenius"
    )
    scales = st.one_of(st.just(0), st.integers(0, Fq.order - 1))
    trsq = data.draw(st.lists(st.tuples(scales, q1), max_size=2), label="trace squares")
    try:
        form = QuadraticForm(
            tw,
            tuple(FrobeniusTerm(Elem(Fq1, a), i) for a, i in frobs),
            tuple(TraceSquareTerm(Elem(Fq, c), Elem(Fq1, b)) for c, b in trsq),
        )
    except ZeroFormError:
        return
    assert form.gram == _polarization_table(form)


@pytest.mark.parametrize("shape", [(3, 1, 1, 1), (3, 1, 4, 1), (5, 2, 2, 1), (3, 1, 7, 1)])
def test_gram_reads_the_digit_tensor(shape, monkeypatch):
    """The Gram matrix evaluates Q at no point: it is read off S, and it is
    still the polarization table."""
    tw = build_tower(*shape)
    form = _random_form(tw, random.Random(1))
    points, evaluate = [], quadform._q_digits

    def counted(S, P, p):
        points.extend(P.tolist())  # one row of monomials per point
        return evaluate(S, P, p)

    monkeypatch.setattr(quadform, "_q_digits", counted)
    gram = form.gram
    assert points == []
    monkeypatch.undo()
    assert gram == _polarization_table(form)


def test_tr_x_squared_on_f9_has_full_rank():
    tw = build_tower(3, 1, 2, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    assert form.analysis.r_q == 2
    assert form.radical_basis() == []


def test_radical_dimension_vs_rank(example_spec):
    form = example_spec.analysis.form
    rad = form.radical_basis()
    assert len(rad) == form.tower.m1 - example_spec.analysis.r_q
    # every radical vector pairs to zero with the whole power basis
    Fq1 = form.tower.Fq1
    basis = (
        [Fq1.one]
        if form.tower.m1 == 1
        else [Elem(Fq1, Fq1.t) ** k for k in range(form.tower.m1)]
    )
    for v in rad:
        for b in basis:
            assert form.bilinear(v, b) == form.tower.Fq.zero


def test_zero_form_rejected():
    tw = build_tower(3, 1, 2, 1)
    with pytest.raises(ZeroFormError):
        QuadraticForm(tw)
    # nonzero terms that cancel to the zero function are caught by analysis
    two = Elem(tw.Fq1, 2)
    form = QuadraticForm(
        tw,
        frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0), FrobeniusTerm(two, 0)),
        trace_square_terms=(),
    )
    # Tr(x^2) + Tr(2 x^2) = Tr(3 x^2) = 0 in characteristic 3
    with pytest.raises(ZeroFormError):
        _ = form.analysis


def test_rank_one_when_m1_is_one():
    rng = random.Random(5)
    for p in (3, 5, 7):
        tw = build_tower(p, 1, 1, 1)
        for _ in range(10):
            c = rng.randrange(1, p)
            form = QuadraticForm(
                tw, frobenius_terms=(FrobeniusTerm(Elem(tw.Fq1, c), 0),)
            )
            assert form.analysis.r_q == 1


def _random_invertible(Fq, n, rng):
    while True:
        M = [[rng.randrange(Fq.order) for _ in range(n)] for _ in range(n)]
        A = [row[:] for row in M]
        rank = 0
        for c in range(n):
            piv = next((i for i in range(rank, n) if A[i][c]), None)
            if piv is None:
                continue
            A[rank], A[piv] = A[piv], A[rank]
            inv = Fq.inv(A[rank][c])
            A[rank] = [Fq.mul(inv, v) for v in A[rank]]
            for i in range(n):
                if i != rank and A[i][c]:
                    f = A[i][c]
                    A[i] = [Fq.sub(A[i][k], Fq.mul(f, A[rank][k])) for k in range(n)]
            rank += 1
        if rank == n:
            return M


def test_basis_independence_of_invariants(example_spec):
    """A congruent Gram matrix yields the same (rank, sign)."""
    form = example_spec.analysis.form
    tw = form.tower
    Fq, m1 = tw.Fq, tw.m1
    if m1 == 1:
        pytest.skip("no nontrivial change of basis")
    G = form.gram
    rng = random.Random(97)
    for _ in range(4):
        M = _random_invertible(Fq, m1, rng)
        G2 = [[0] * m1 for _ in range(m1)]
        for i in range(m1):
            for j in range(m1):
                acc = 0
                for r in range(m1):
                    for s in range(m1):
                        acc = Fq.add(acc, Fq.mul(Fq.mul(M[i][r], M[j][s]), G[r][s]))
                G2[i][j] = acc
        other = QuadraticForm(tw, gram=tuple(tuple(r) for r in G2))
        an = other.analysis
        assert (an.r_q, an.eps_q) == (
            example_spec.analysis.r_q,
            example_spec.analysis.eps_q,
        )


def test_row_reduction_rank_matches_diagonalization(example_spec):
    form = example_spec.analysis.form
    Fq = form.tower.Fq
    rows = [list(r) for r in form.gram]
    n = len(rows)
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fq.inv(rows[rank][c])
        rows[rank] = [Fq.mul(inv, v) for v in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [Fq.sub(rows[i][k], Fq.mul(f, rows[rank][k])) for k in range(n)]
        rank += 1
    assert rank == example_spec.analysis.r_q


def test_fractional_scale_parsing():
    # the 1/3 and 1/2 scales are field inverses, pinned by the rank results
    assert _tr_square_form(5, 1, 3, 2, -pow(3, -1, 5)).analysis.r_q == 2
    assert _tr_square_form(5, 1, 2, 3, -pow(2, -1, 5)).analysis.r_q == 1


def test_trace_square_term_evaluation():
    tw = build_tower(5, 1, 2, 1)
    b = Elem(tw.Fq1, tw.Fq1.t)
    c = Elem(tw.Fq, 3)
    form = QuadraticForm(tw, trace_square_terms=(TraceSquareTerm(c, b),))
    rng = random.Random(2)
    for _ in range(40):
        x = Elem(tw.Fq1, rng.randrange(tw.Fq1.order))
        tr = rel_trace(b * x, tw.Fq)
        assert form(x) == c * tr * tr


# -- the value table against the scalar evaluation -----------------------------


def _scalar_values(form):
    Fq1 = form.tower.Fq1
    return [form(Elem(Fq1, i)).idx for i in range(Fq1.order)]


def _assert_table_is_scalar(form):
    table = form.value_table
    assert table.dtype == np.int32 and not table.flags.writeable
    assert table.tolist() == _scalar_values(form)


def _random_form(tw, rng, n_trsq=1):
    Fq, Fq1 = tw.Fq, tw.Fq1
    while True:
        frobs = tuple(
            FrobeniusTerm(Elem(Fq1, rng.randrange(Fq1.order)), rng.randrange(tw.m1))
            for _ in range(2)
        )
        trsq = tuple(
            TraceSquareTerm(Elem(Fq, rng.randrange(Fq.order)), Elem(Fq1, rng.randrange(Fq1.order)))
            for _ in range(n_trsq)
        )
        try:
            return QuadraticForm(tw, frobs, trsq)
        except ZeroFormError:
            continue


@pytest.mark.parametrize(
    "shape", [(3, 1, 4, 1), (3, 2, 3, 1), (5, 1, 6, 1)], ids=["F81", "F9^3", "F5^6"]
)
def test_value_table_is_the_scalar_evaluation(shape):
    tw = build_tower(*shape)
    rng = random.Random(sum(shape))
    _assert_table_is_scalar(_random_form(tw, rng))
    # one term of each kind per Frobenius power, so every exponent q**i + 1 occurs
    Fq, Fq1 = tw.Fq, tw.Fq1
    frobs = tuple(FrobeniusTerm(Elem(Fq1, rng.randrange(1, Fq1.order)), i) for i in range(tw.m1))
    trsq = (TraceSquareTerm(Elem(Fq, 1), Elem(Fq1, rng.randrange(1, Fq1.order))),)
    _assert_table_is_scalar(QuadraticForm(tw, frobs, trsq))


@pytest.mark.parametrize("shape", [(3, 2, 3, 1), (5, 1, 3, 2), (7, 1, 1, 1)])
def test_value_table_of_a_gram_input(shape):
    tw = build_tower(*shape)
    rng = random.Random(7)
    m1, q = tw.m1, tw.q
    upper = [[rng.randrange(q) for _ in range(m1)] for _ in range(m1)]
    gram = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(m1)) for i in range(m1))
    _assert_table_is_scalar(QuadraticForm(tw, gram=gram))


@pytest.mark.parametrize("shape", [(3, 2, 1, 1), (7, 1, 1, 2)])
def test_value_table_when_m1_is_one(shape):
    """F_{q^m1} = F_q: the only Frobenius power is 0 and every trace is the
    identity."""
    tw = build_tower(*shape)
    _assert_table_is_scalar(_random_form(tw, random.Random(3), n_trsq=2))


def test_value_table_skips_zero_coefficients_and_scales():
    tw = build_tower(3, 2, 3, 1)
    Fq, Fq1 = tw.Fq, tw.Fq1
    b = Elem(Fq1, Fq1.t)
    form = QuadraticForm(
        tw,
        frobenius_terms=(FrobeniusTerm(Fq1.zero, 1), FrobeniusTerm(Elem(Fq1, 5), 2)),
        trace_square_terms=(
            TraceSquareTerm(Fq.zero, b),
            TraceSquareTerm(Elem(Fq, 2), Fq1.zero),
            TraceSquareTerm(Elem(Fq, 4), b),
        ),
    )
    _assert_table_is_scalar(form)


ADMISSIBLE_TOWERS = [
    (3, 1, 2, 1), (3, 1, 3, 1), (3, 2, 2, 1), (5, 1, 2, 1), (5, 2, 1, 1), (7, 1, 2, 1),
]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_value_table_property_over_random_forms(data):
    tw = build_tower(*data.draw(st.sampled_from(ADMISSIBLE_TOWERS), label="tower"))
    Fq, Fq1 = tw.Fq, tw.Fq1
    q1 = st.integers(0, Fq1.order - 1)
    frobs = data.draw(
        st.lists(st.tuples(q1, st.integers(0, tw.m1 - 1)), max_size=3), label="frobenius"
    )
    trsq = data.draw(
        st.lists(st.tuples(st.integers(0, Fq.order - 1), q1), max_size=2), label="trace squares"
    )
    try:
        form = QuadraticForm(
            tw,
            tuple(FrobeniusTerm(Elem(Fq1, a), i) for a, i in frobs),
            tuple(TraceSquareTerm(Elem(Fq, c), Elem(Fq1, b)) for c, b in trsq),
        )
    except ZeroFormError:
        return
    _assert_table_is_scalar(form)


@settings(max_examples=40, deadline=None, database=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    m=st.sampled_from([1, 2]),
    m1=st.integers(1, 3),
    gram_input=st.booleans(),
    block=st.sampled_from([1, 10, quadform._BLOCK]),
    data=st.data(),
)
def test_value_stream_is_the_scalar_oracle_on_random_towers(p, m, m1, gram_input, block, data):
    """The streamed histogram and the materialised value table equal the
    scalar evaluation at every x, for both term kinds and for Gram inputs,
    whatever the block size."""
    assume(p ** (m * m1) <= 2401)
    tw = build_tower(p, m, m1, 1)
    Fq, Fq1, q = tw.Fq, tw.Fq1, tw.q
    if gram_input:
        upper = data.draw(st.lists(st.integers(0, q - 1), min_size=m1 * m1, max_size=m1 * m1))
        gram = tuple(tuple(upper[min(i, j) * m1 + max(i, j)] for j in range(m1)) for i in range(m1))
        form = QuadraticForm(tw, gram=gram)
    else:
        q1 = st.integers(0, Fq1.order - 1)
        frobs = data.draw(st.lists(st.tuples(q1, st.integers(0, m1 - 1)), max_size=3))
        trsq = data.draw(st.lists(st.tuples(st.integers(0, q - 1), q1), max_size=2))
        try:
            form = QuadraticForm(
                tw,
                tuple(FrobeniusTerm(Elem(Fq1, a), i) for a, i in frobs),
                tuple(TraceSquareTerm(Elem(Fq, c), Elem(Fq1, b)) for c, b in trsq),
            )
        except ZeroFormError:
            return
    values = _scalar_values(form)
    saved, quadform._BLOCK = quadform._BLOCK, block
    try:
        assert form.value_histogram.tolist() == np.bincount(values, minlength=q).tolist()
        assert form.value_table.tolist() == values
    finally:
        quadform._BLOCK = saved


def test_digit_form_is_exact_for_a_large_prime():
    """p = 3000017, so p**3 > 2**63: the evaluator and the Gram matrix stay
    exact because every product is reduced mod p before it is summed."""
    p = 3000017
    tw = build_tower(p, 1, 1, 1)
    F = tw.Fq
    form = QuadraticForm(
        tw, (FrobeniusTerm(Elem(F, p - 2), 0),), (TraceSquareTerm(Elem(F, p - 3), Elem(F, p - 5)),)
    )
    assert form.gram == ((form(F.one).idx,),)
    xs = [1, 2, p - 1, 123457, 2999999]
    got = quadform._q_digits(form._digit_form, quadform._monomials(np.array(xs)[:, None], p), p)
    assert got[:, 0].tolist() == [form(Elem(F, x)).idx for x in xs]


def test_trace_form_has_full_rank_at_f_3_39():
    """Tr(x**2) over F_{3^39}, the largest F_{3^m1} whose indices fit in
    int64: the digit form is exact there, so the trace form is nondegenerate."""
    tw = build_tower(3, 1, 39, 1)
    frob = quadform._linear_maps(tw)[0]
    assert (fields._mat_pow(frob[1:2], 39, 3)[0] == np.eye(39)).all()  # x**(3**39) = x
    assert QuadraticForm(tw, (FrobeniusTerm(tw.Fq1.one, 0),)).analysis.r_q == 39


CONGRUENCE_TOWERS = [
    (3, 1, 3, 1), (3, 1, 4, 1), (5, 1, 3, 1), (7, 1, 2, 1), (3, 2, 3, 1), (5, 2, 2, 1),
]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_analysis_is_invariant_under_congruence(data):
    """A Gram input G and P^T G P, P = Perm L D U invertible over F_q (every
    invertible matrix has this form), have the same rank, sign and
    discriminant class; at full rank delta(P^T G P) = det(P)**2 delta(G)
    exactly, with det(P) = +-prod(D)."""
    tw = build_tower(*data.draw(st.sampled_from(CONGRUENCE_TOWERS), label="tower"))
    Fq, m1 = tw.Fq, tw.m1
    elem, unit = st.integers(0, Fq.order - 1), st.integers(1, Fq.order - 1)
    row = st.lists(elem, min_size=m1, max_size=m1)
    upper = data.draw(st.lists(row, min_size=m1, max_size=m1), label="G")
    G = [[upper[min(i, j)][max(i, j)] for j in range(m1)] for i in range(m1)]
    assume(any(any(row) for row in G))
    perm = data.draw(st.permutations(range(m1)), label="perm")
    D = data.draw(st.lists(unit, min_size=m1, max_size=m1), label="D")
    L, U = ([[data.draw(elem) if i > j else int(i == j) for j in range(m1)] for i in range(m1)]
            for _ in "LU")
    U = [list(col) for col in zip(*U)]  # the transpose of a unit lower triangle

    def matmul(A, B):
        out = [[0] * m1 for _ in range(m1)]
        for i in range(m1):
            for j in range(m1):
                for k in range(m1):
                    out[i][j] = Fq.add(out[i][j], Fq.mul(A[i][k], B[k][j]))
        return out

    P = [L[perm[i]] for i in range(m1)]  # rows of L permuted
    P = matmul(matmul(P, [[D[i] if i == j else 0 for j in range(m1)] for i in range(m1)]), U)
    PT = [list(col) for col in zip(*P)]
    G2 = matmul(matmul(PT, G), P)
    before = QuadraticForm(tw, gram=tuple(map(tuple, G))).analysis
    after = QuadraticForm(tw, gram=tuple(map(tuple, G2))).analysis
    assert (after.r_q, after.eps_q, after.eps) == (before.r_q, before.eps_q, before.eps)
    assert quad_char(after.delta_q) == quad_char(before.delta_q)
    if before.r_q == m1:
        det = 1
        for d in D:
            det = Fq.mul(det, d)
        assert after.delta_q.idx == Fq.mul(Fq.mul(det, det), before.delta_q.idx)


# (tower, Gram input, (r_q, delta_q.idx, eps_q, eps)): the pivot rule fixes
# delta_q exactly, not only its class, and every report prints it.  "later"
# inputs are P^T (d + B) P with P = [[1, r], [0, I]], whose first Schur
# complement is the zero-diagonal B.
ANALYSIS_PINS = {
    "F3-repaired-first": ((3, 1, 2, 1), ((0, 1), (1, 0)), (2, 2, -1, 1)),
    "F3-repaired-later": ((3, 1, 3, 1), ((1, 1, 1), (1, 1, 2), (1, 2, 1)), (3, 2, -1, -1)),
    "F3-zero-row": ((3, 1, 3, 1), ((2, 0, 1), (0, 0, 0), (1, 0, 1)), (2, 1, 1, -1)),
    "F5-rank-1": ((5, 1, 3, 1), ((3, 1, 4), (1, 2, 3), (4, 3, 2)), (1, 3, -1, -1)),
    "F5-full-rank": (
        (5, 1, 4, 1), ((0, 1, 2, 3), (1, 0, 4, 1), (2, 4, 3, 0), (3, 1, 0, 2)), (4, 4, 1, 1)
    ),
    "F9-repaired-first": ((3, 2, 3, 1), ((0, 5, 7), (5, 0, 2), (7, 2, 0)), (3, 6, 1, 1)),
    "F9-repaired-later": (
        (3, 2, 4, 1), ((5, 7, 4, 1), (7, 5, 3, 2), (4, 3, 7, 6), (1, 2, 6, 7)), (4, 5, -1, -1)
    ),
    "F9-rank-1": ((3, 2, 3, 1), ((4, 0, 7), (0, 0, 0), (7, 0, 8)), (1, 4, -1, -1)),
    "F9-zero-row": ((3, 2, 3, 1), ((0, 0, 0), (0, 5, 7), (0, 7, 3)), (2, 5, -1, -1)),
    "F25-full-rank": ((5, 2, 3, 1), ((7, 13, 0), (13, 0, 21), (0, 21, 18)), (3, 7, 1, 1)),
    "F25-repaired-first": ((5, 2, 2, 1), ((0, 17), (17, 0)), (2, 19, 1, 1)),
    "F25-rank-1": ((5, 2, 3, 1), ((0, 0, 0), (0, 1, 11), (0, 11, 23)), (1, 1, 1, 1)),
    "F25-repaired-later-then-zero": (
        (5, 2, 4, 1), ((2, 1, 23, 19), (1, 3, 18, 22), (23, 18, 11, 4), (19, 22, 4, 14)),
        (3, 22, 1, 1),
    ),
}


@pytest.mark.parametrize("name", ANALYSIS_PINS)
def test_analysis_is_pinned_exactly(name):
    """r_q, delta_q, eps_q and eps of Gram inputs covering both repairs of a
    zero diagonal, a zero row and column, rank 1 and full rank."""
    tower, gram, pinned = ANALYSIS_PINS[name]
    a = QuadraticForm(build_tower(*tower), gram=gram).analysis
    assert (a.r_q, a.delta_q.idx, a.eps_q, a.eps) == pinned


@pytest.mark.parametrize("m1", [5, 12])
def test_value_stream_is_charged_to_the_run_budget(m1):
    """A fresh form's value histogram streams |F_{q^m1}| values, charged to
    the budget of the enclosing block when the stream starts: refused one
    step short, computed at the charge (one evaluation for F_{3^5}, blocks
    for F_{3^12}), and not charged again once cached."""
    tw = build_tower(3, 1, m1, 1)
    form = QuadraticForm(tw, frobenius_terms=(FrobeniusTerm(tw.Fq1.one, 0),))
    n = tw.Fq1.order
    with budget(n - 1), pytest.raises(BudgetError, match=f"the value stream of Q needs {n} steps"):
        form.value_histogram
    with budget(n):
        assert form.value_histogram.sum() == n
    with budget(1):
        assert form.value_histogram.sum() == n
