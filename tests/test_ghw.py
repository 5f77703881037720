import textwrap
import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import (
    BudgetError,
    CodeSpec,
    Elem,
    FrobeniusTerm,
    ParameterError,
    QuadraticForm,
    TraceSquareTerm,
    Variant,
    ZeroFormError,
    build_tower,
    codeword,
    descend,
    gaussian_binomial,
    get_preset,
    ghw,
    ghw_brute,
    extension_field,
    ghw_closed,
    hierarchy,
    make_descent,
    preset_names,
    prime_field,
    subspace_bases,
    support_defect,
    support_defect_char,
    support_defect_closed,
    weight_distribution_brute,
)

from qfcodes import linalg
from qfcodes.errors import DEFAULT_BUDGET, budget
from qfcodes.fields import _min_dtype

from conftest import batched, run_fresh, spec_for, reference_scan, EXAMPLE_NAMES


def test_subspace_counts():
    F3 = prime_field(3)
    assert gaussian_binomial(4, 2, 3) == 130
    assert len(list(subspace_bases(4, 2, F3))) == 130
    assert len(list(subspace_bases(2, 1, F3))) == 4
    assert len(list(subspace_bases(3, 3, F3))) == 1
    # no duplicates, rows in reduced echelon form
    seen = set(subspace_bases(4, 2, F3))
    assert len(seen) == 130
    for rows in seen:
        pivots = [next(i for i, x in enumerate(row) if x) for row in rows]
        assert pivots == sorted(pivots)
        for i, row in enumerate(rows):
            assert row[pivots[i]] == 1
            for j, other in enumerate(rows):
                if i != j:
                    assert other[pivots[i]] == 0


def test_subspace_counts_larger_field():
    F5 = prime_field(5)
    assert len(list(subspace_bases(3, 1, F5))) == gaussian_binomial(3, 1, 5) == 31
    with pytest.raises(ParameterError):
        list(subspace_bases(2, 3, F5))


def test_support_defect_examples(ex31):
    tw = ex31.tower
    h_one_zero = ((1, 0, 0, 0),)
    assert support_defect(ex31, h_one_zero) == 566
    assert support_defect_closed(ex31, h_one_zero) == 566
    assert support_defect_char(ex31, h_one_zero) == 566
    h_zero_b = ((0, 1, 0, 0),)
    assert support_defect(ex31, h_zero_b) == 3**6 - 1


def test_support_defect_full_space_affine(ex35, ex36):
    for spec in (ex35, ex36):
        k = spec.dimension
        full = next(subspace_bases(k, k, spec.tower.Fq))
        assert support_defect(spec, full) == 0
        assert support_defect_closed(spec, full) == 0


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_support_defect_closed_everywhere(name):
    """Closed form equals the exhaustive count on every canonical subspace."""
    spec = spec_for(name)
    k, q = spec.dimension, spec.tower.q
    for r in range(1, k + 1):
        if gaussian_binomial(k, r, q) > 10**5:
            continue
        for rows, n in batched(partial(support_defect, spec), subspace_bases(k, r, spec.tower.Fq)):
            assert n == support_defect_closed(spec, rows)


@pytest.mark.parametrize("name", ["example-3.3", "example-3.4"])
def test_odd_rank_defect_constancy(name):
    spec = spec_for(name)
    tw = spec.tower
    if spec.analysis.r_q % 2 == 0 or spec.variant is not Variant.HOMOGENEOUS:
        pytest.skip("constancy is an odd-rank homogeneous statement")
    for r in range(1, spec.dimension + 1):
        expect = tw.q ** (tw.M - r) - 1
        for rows in subspace_bases(spec.dimension, r, tw.Fq):
            assert support_defect(spec, rows) == expect


def test_ghw_closed_pinned_values(ex32, ex34, ex35):
    assert ghw_closed(ex32, 3) == 3120
    assert [ghw_closed(ex34, r) for r in (1, 2, 3, 4)] == [2500, 3000, 3100, 3120]
    assert ghw_closed(ex35, 5) == 6561


@pytest.mark.parametrize(
    "name",
    ["example-3.1", "example-3.2", "example-3.4", "example-3.6"],
)
def test_hierarchies_match_reference(name):
    spec = spec_for(name)
    ref = get_preset(name).reference["hierarchy"]
    rep = hierarchy(spec, reference_values=ref)
    assert rep.all_agree
    assert rep.resolved_hierarchy() == [ref[r] for r in sorted(ref)]
    assert rep.strictly_increasing()


def test_hierarchy_example_33_three_way(ex33):
    ref = get_preset("example-3.3").reference["hierarchy"]
    rep = hierarchy(ex33, reference_values=ref)
    rows = {row.r: row for row in rep.rows}
    assert rows[1].agree and rows[3].agree
    assert rows[2].reference == 52830
    assert rows[2].d_closed == 58320
    assert rows[2].d_brute == 58320  # brute force arbitrates against the print
    assert not rows[2].agree
    assert rep.resolved_hierarchy() == [52488, 58320, 58968]


def test_hierarchy_example_35_three_way(ex35):
    ref = get_preset("example-3.5").reference["hierarchy"]
    rep = hierarchy(ex35, reference_values=ref)
    rows = {row.r: row for row in rep.rows}
    for r in (1, 3, 4, 5):
        assert rows[r].agree
    assert (rows[2].reference, rows[2].d_closed, rows[2].d_brute) == (5741, 5751, 5751)
    assert not rows[2].agree


def test_d1_is_minimum_distance(example_spec):
    d1, _ = ghw_brute(example_spec, 1)
    assert d1 == weight_distribution_brute(example_spec).min_nonzero()


def test_dk_counts_always_zero_coordinates(example_spec):
    """d_k = n minus the number of coordinates that vanish on every message;
    the affine family has none, the homogeneous one loses the x with Q = 0."""
    spec = example_spec
    k = spec.dimension
    full = next(subspace_bases(k, k, spec.tower.Fq))
    always_zero = support_defect(spec, full)
    d_k, _ = ghw_brute(spec, k)
    assert d_k == spec.length - always_zero
    if spec.variant is Variant.AFFINE:
        assert always_zero == 0 and d_k == spec.length
    else:
        n_qzero = sum(
            1 for v in spec.analysis.form.value_table if v == 0
        )
        assert always_zero == n_qzero - 1


def test_monotonicity(example_spec):
    rep = hierarchy(example_spec)
    assert rep.strictly_increasing()


def test_budget_error_keeps_closed_values(ex36):
    """At budget 5 every row refuses with its note and keeps its closed
    value: on example-3.6 (k = 6, d = 2, dim W = 4 over F_3) the rows
    r = 2, 3, 4 need [2, 0] + [2, 1] + [2, 2] = 6 quotient subspaces, the
    others at most 5 subspaces but the 9 cells of the quotient multiset.
    The form's 27 values are streamed before the block."""
    ex36.analysis.form.value_histogram
    with budget(5):
        rep = hierarchy(ex36)
    for row in rep.rows:
        assert row.d_closed > 0 and row.d_brute is None
        if row.r in (2, 3, 4):
            assert "subspace enumeration [2 choose j]_3, j = 0..2 needs 6 steps" in row.note
        else:
            assert "column multiset over F_3^2 needs 9 steps" in row.note
    with budget(5), pytest.raises(BudgetError):
        ghw_brute(ex36, 3)


def test_witness_attains_maximum(ex31):
    d2, witness = ghw_brute(ex31, 2)
    assert support_defect(ex31, witness) == ex31.length - d2


def test_point_count_of_r_0_bases_is_one_count_per_basis(ex31):
    """A (B, 0, k) batch spans the zero subspace B times: every coordinate
    vanishes in each, as a single (0, k) basis gives one int."""
    assert ghw.point_count(ex31, None, np.zeros((3, 0, 4), dtype=int)).tolist() == [2186] * 3
    assert ghw.point_count(ex31, None, np.zeros((0, 4), dtype=int)) == 2186


def _assert_canonical_maximiser(F, r, witness, defect, d_r, n):
    """The witness is a canonical RREF basis of dim r whose point count
    ``defect`` attains n - d_r."""
    R, pivots = linalg.rref(F, witness)
    assert len(pivots) == r and tuple(map(tuple, R.tolist())) == witness
    assert defect(witness) == n - d_r


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_scan_is_the_first_maximiser_of_the_point_count(name, monkeypatch):
    """The value of ghw_brute is n minus the maximum of the point count over
    subspace_bases, for every r with at most 10**5 subspaces (q = 9 on
    example-3.3).  The witness is the lift of the quotient's first
    maximiser, not the first maximiser over subspace_bases: a canonical
    RREF basis of dim r that attains the maximum, and the same with one
    subspace per batch and the quotient's cache empty."""
    spec = spec_for(name)
    k, Fq = spec.dimension, spec.tower.Fq
    found = [ghw_brute(spec, r) for r in range(1, k + 1)]
    for r, (d_r, witness) in enumerate(found, 1):
        _assert_canonical_maximiser(Fq, r, witness, partial(support_defect, spec), d_r, spec.length)
        if gaussian_binomial(k, r, Fq.order) <= 10**5:
            best, _ = reference_scan(partial(support_defect, spec), subspace_bases(k, r, Fq))
            assert d_r == spec.length - best, r
    monkeypatch.setattr(ghw, "_CHUNK", 1)
    monkeypatch.setattr(ghw, "_quotient", lru_cache(ghw._quotient.__wrapped__))
    assert [ghw_brute(spec, r) for r in range(1, k + 1)] == found


@pytest.mark.parametrize(
    "name,chunk",
    [
        ("example-3.3", 1),
        ("example-3.5", 1),
        ("example-3.3", 1000),
        ("example-3.6", 1000),
        ("descent-7-2-1-1-3", 1),
    ],
)
def test_chunk_boundaries_do_not_move_the_scan(name, chunk, monkeypatch):
    """One subspace per batch, and batches (1000 // q**s subspaces) that do
    not divide the q**f bases of a pivot set, give the same values and
    witnesses; on descent-7, for the descended scan over F_7.  The quotient
    cache is cleared first, so the patched pass really scans."""
    spec = spec_for(name)
    params = make_descent(spec.tower, 3) if name.startswith("descent") else None
    brute = partial(ghw.scan, spec, params)
    rs = range(1, ghw.message_dim(spec, params) + 1)
    with budget(DEFAULT_BUDGET):
        want = [brute(r) for r in rs]
    ghw._quotient.cache_clear()
    calls, real = [], ghw._span_sums

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ghw, "_CHUNK", chunk)
    monkeypatch.setattr(ghw, "_span_sums", spy)
    with budget(DEFAULT_BUDGET):
        assert [brute(r) for r in rs] == want
    assert calls


def test_scan_memory_stays_flat(ex36):
    tracemalloc.start()
    try:
        hierarchy(ex36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_column_multiset_is_charged_to_the_budget(ex36):
    """r = k has one quotient subspace, but the quotient multiset f and f*
    have q**d = 9 cells.  The form's 27 values are streamed before the
    blocks."""
    ex36.analysis.form.value_histogram
    with budget(8), pytest.raises(BudgetError, match="column multiset over F_3\\^2 needs 9 steps"):
        ghw_brute(ex36, ex36.dimension)
    with budget(9):
        assert ghw_brute(ex36, ex36.dimension)[0] == ex36.length


# -- the engine alone ------------------------------------------------------------

ENGINE_FIELDS = {p: prime_field(p) for p in (3, 5, 7)} | {9: extension_field(prime_field(3), 2)}


def _reference_max_defect(F, k, mu, r):
    """(n - max N(D), first maximiser) over ``subspace_bases`` order, N(D)
    the sum of mu over the annihilator of D, by scalar field ops."""
    q = F.order
    support = [
        ([v // q**t % q for t in range(k)], m) for v, m in enumerate(mu.tolist()) if m and v
    ]
    best, witness = -1, None
    for rows in subspace_bases(k, r, F):
        N = int(mu[0])
        for vec, m in support:
            dots = []
            for row in rows:
                acc = 0
                for x, y in zip(row, vec):
                    acc = F.add(acc, F.mul(x, y))
                dots.append(acc)
            if not any(dots):
                N += m
        if N > best:
            best, witness = N, rows
    return int(mu.sum()) - best, witness


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_engine_is_the_annihilator_sum(data):
    """For a random field, k <= 4 and a random column multiset mu (mu(0)
    included), ``_max_defect`` gives the value and witness of the scalar
    annihilator sum at every r, both sides of the scan included."""
    q = data.draw(st.sampled_from(sorted(ENGINE_FIELDS)), label="q")
    k = data.draw(st.integers(1, 4), label="k")
    F = ENGINE_FIELDS[q]
    mu = np.zeros(q**k, dtype=np.int64)
    cells = st.dictionaries(st.integers(0, q**k - 1), st.integers(1, 4), max_size=6)
    for v, m in data.draw(cells, label="mu").items():
        mu[v] = m
    mu[0] += data.draw(st.integers(0, 3), label="mu(0)")
    ms = ghw._Multiset(F, k, mu)
    for r in range(1, k + 1):
        assert ghw._max_defect(ms, r) == _reference_max_defect(F, k, mu, r), r


def test_dot_tables_are_cached_read_only_scalar_dot_products():
    F = ENGINE_FIELDS[9]
    q = F.order
    for s, lines in ((2, True), (2, False), (1, True), (0, True)):
        table = ghw._dot_table(F, s, lines)
        assert ghw._dot_table(F, s, lines) is table
        assert not table.flags.writeable
        cols = ghw._line_reps(q, s).tolist() if lines else range(q**s)
        for v in range(q**s):
            for j, w in enumerate(cols):
                acc = 0
                for t in range(s):
                    acc = F.add(acc, F.mul(v // q**t % q, w // q**t % q))
                assert table[v, j] == acc
    # blocks of one coordinate, summed with the array add, give the same dots
    V = np.arange(q**3).reshape(-1, 9)
    assert (ghw._dots(F, V, 3, 1) == ghw._dots(F, V, 3, 3)).all()


def test_multiset_tables_are_cached_and_read_only(ex36):
    ms = ghw._quotient(ex36, None)
    assert ghw._quotient(ex36, None) is ms
    for name in ("mu", "star"):
        table = getattr(ms, name)
        assert getattr(ms, name) is table and not table.flags.writeable
    assert ms.best(1) is ms.best(1)


@pytest.mark.parametrize("p,degree,k", [(3, 1, 4), (5, 1, 3), (3, 2, 2), (5, 2, 1), (3, 3, 2)])
def test_star_is_the_sum_over_nonzero_multiples(p, degree, k):
    """mu*(v) = sum over a in F* of mu(a v), by scalar ops on every v, for a
    random integer mu over F**k."""
    F = extension_field(prime_field(p), degree)
    q = F.order
    mu = np.random.default_rng(q * k).integers(0, 1000, q**k)
    expected = []
    for v in range(q**k):
        coords = [v // q**t % q for t in range(k)]
        multiples = [sum(F.mul(a, x) * q**t for t, x in enumerate(coords)) for a in range(1, q)]
        expected.append(sum(int(mu[w]) for w in multiples))
    assert ghw._Multiset(F, k, mu).star.tolist() == expected


@pytest.mark.parametrize(
    "name,descended",
    [(name, False) for name in preset_names()] + [("descent-7-2-1-1-3", True)],
)
def test_generator_matrix_is_the_stacked_codeword_lists(name, descended):
    """G is stacked from codeword arrays, byte for byte the ``codeword`` lists
    of the unit messages (psi-expanded for the descended code)."""
    spec = spec_for(name)
    tw = spec.tower
    params = make_descent(tw, get_preset(name).config["descent"]["N"]) if descended else None
    encode = descend(spec, params).codeword if descended else partial(codeword, spec)
    affine = spec.variant is Variant.AFFINE
    rows = []
    for unit in np.eye(ghw.message_dim(spec, params), dtype=np.int64):
        a, b, c = ghw.row_to_message(spec, unit, tw.Fp if descended else tw.Fq)
        rows.append(encode(Elem(tw.Fq, a), Elem(tw.Fq2, b), Elem(tw.Fq, c) if affine else None))
    expected = np.array(rows, dtype=params.columns.dtype if descended else _min_dtype(tw.q))
    G = ghw.generator_matrix(spec, params)
    assert G.dtype == expected.dtype and G.tobytes() == expected.tobytes()


# -- the quotient multiset against the generator matrix -------------------------


def _bincount(F, G):
    """The column multiset of G by brute force: each column's encoding
    sum_t G[t] |F|**t, counted."""
    enc = np.zeros(G.shape[1], dtype=np.int64)
    for t, row in enumerate(G):
        enc += row.astype(np.int64) * F.order**t
    return np.bincount(enc, minlength=F.order ** len(G))


def _admissible(tw):
    """None (the F_q code) and the descent of every admissible N."""
    out = [None]
    for N in range(1, tw.p):
        try:
            out.append(make_descent(tw, N))
        except ParameterError:
            pass
    return out


def _assert_multisets_are_bincounts(spec):
    """For the F_q code and for every admissible descent, the full column
    multiset mu, the bincount of G, is f o pi - z delta_0 with f the
    quotient multiset and z = 0 (affine), 1 (homogeneous) or L
    (homogeneous, descended); so the bincount of pi(columns of G) is
    q**dim(W) f - z delta_0."""
    tw = spec.tower
    for params in _admissible(tw):
        F, G = (tw.Fq, ghw.generator_matrix(spec)) if params is None else (
            tw.Fp, ghw.generator_matrix(spec, params))
        a, W, c = spec.blocks(len(G) // spec.dimension)
        kept, W = [*a, *c], list(W)
        f = ghw._quotient(spec, params)
        q, k = F.order, len(G)
        z = 0 if spec.variant is Variant.AFFINE else 1 if params is None else params.L
        assert f.k == len(kept) and q ** len(W) * f.n - z == G.shape[1], params
        projected = q ** len(W) * f.mu
        projected[0] -= z
        assert (projected == _bincount(F, G[kept])).all(), params
        pi = (np.arange(q**k)[:, None] // q ** np.array(kept) % q) @ q ** np.arange(len(kept))
        mu = f.mu[pi]
        mu[0] -= z
        assert (mu == _bincount(F, G)).all(), params


@pytest.mark.parametrize("name", preset_names())
def test_column_multiset_of_every_preset_is_the_bincount_of_g(name):
    _assert_multisets_are_bincounts(spec_for(name))


MULTISET_TOWERS = [
    (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 1, 3), (3, 2, 1, 1), (3, 2, 1, 2),
    (5, 1, 2, 1), (5, 1, 1, 2), (5, 2, 1, 1), (7, 1, 1, 2), (7, 2, 1, 1),
]


def _random_spec(data, towers):
    """A code on a drawn tower with 1-2 Frobenius terms and at most one trace
    square, or None for the zero form."""
    tw = build_tower(*data.draw(st.sampled_from(towers), label="tower"))
    Fq, Fq1 = tw.Fq, tw.Fq1
    q1 = st.integers(0, Fq1.order - 1)
    frobs = data.draw(
        st.lists(st.tuples(q1, st.integers(0, tw.m1 - 1)), min_size=1, max_size=2), label="frob"
    )
    trsq = data.draw(st.lists(st.tuples(st.integers(0, Fq.order - 1), q1), max_size=1), label="trsq")
    variant = data.draw(st.sampled_from(list(Variant)), label="variant")
    try:
        form = QuadraticForm(
            tw,
            tuple(FrobeniusTerm(Elem(Fq1, a), i) for a, i in frobs),
            tuple(TraceSquareTerm(Elem(Fq, c), Elem(Fq1, b)) for c, b in trsq),
        )
        return CodeSpec(analysis=form.analysis, variant=variant)
    except ZeroFormError:
        return None


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_column_multiset_is_the_bincount_of_the_generator_matrix(data):
    """Random towers and forms, both variants."""
    spec = _random_spec(data, MULTISET_TOWERS)
    if spec is not None:
        _assert_multisets_are_bincounts(spec)


@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_descended_multiset_where_the_trace_basis_order_shows(data):
    """The affine descended multisets over F_25 change when the digits b_j of
    D_i are taken in the wrong order; those over F_9 and F_49 can be
    invariant under that swap, so they do not guard it."""
    spec = _random_spec(data, [(5, 2, 1, 1)])
    if spec is not None:
        _assert_multisets_are_bincounts(spec)


SCAN_TOWERS = [(3, 1, 1, 1), (3, 1, 2, 1), (3, 1, 1, 2), (5, 1, 1, 1), (3, 2, 1, 1), (7, 2, 1, 1)]


@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_quotient_scan_is_the_full_space_scan(data):
    """Random small towers, both variants, with and without descent: at
    every r the scan over the quotient gives the value of the engine over
    the full column multiset mu (the bincount of G, q**k cells), and a
    witness that is a canonical basis of dim r attaining it.  Message spaces
    with more than 6 * 10**4 subspaces are left to the closed forms."""
    spec = _random_spec(data, SCAN_TOWERS)
    if spec is None:
        return
    params = data.draw(st.sampled_from(_admissible(spec.tower)), label="descent")
    F = spec.tower.Fq if params is None else spec.tower.Fp
    G = ghw.generator_matrix(spec, params)
    k = len(G)
    if sum(gaussian_binomial(k, r, F.order) for r in range(k + 1)) > 6 * 10**4:
        return
    full = ghw._Multiset(F, k, _bincount(F, G))
    for r in range(1, k + 1):
        with budget(DEFAULT_BUDGET):
            d_r, witness = ghw.scan(spec, params, r)
        assert d_r == ghw._max_defect(full, r)[0], r
        count = partial(ghw.point_count, spec, params)
        _assert_canonical_maximiser(F, r, witness, count, d_r, G.shape[1])


_HIERARCHY_REACH = textwrap.dedent(
    """
    import json, time
    from qfcodes import (CodeSpec, FrobeniusTerm, QuadraticForm, Variant, build_tower,
                         hierarchy)
    start = time.perf_counter()
    tw = build_tower(3, 1, 13, 3)
    form = QuadraticForm(tw, (FrobeniusTerm(tw.Fq1.one, 0),))
    rows = hierarchy(CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)).rows
    print(json.dumps({
        "rows": [[row.r, row.d_brute, row.d_closed] for row in rows],
        "seconds": time.perf_counter() - start,
    }))
    """
)


@pytest.mark.reach
def test_hierarchy_at_f_3_13():
    """The affine Tr(x**2) code over F_{3^13} x F_{3^3} (n = 43,046,721): the
    scan gives every d_r, equal to the closed form, in a fresh process, under
    200 MB; the multiset comes from the value histogram, not from a 5 x n G."""
    run = run_fresh(_HIERARCHY_REACH)
    assert [r for r, _, _ in run["rows"]] == [1, 2, 3, 4, 5]
    assert all(brute == closed for _, brute, closed in run["rows"]), run
    assert run["seconds"] < 4, run
    assert run["peak_mb"] < 200, run


_STREAM_REACH = textwrap.dedent(
    """
    import json, time
    from qfcodes import (CodeSpec, Elem, FrobeniusTerm, QuadraticForm, Variant, build_tower,
                         count_solutions, count_solutions_brute, cwe_brute, cwe_predicted,
                         hierarchy)
    start = time.perf_counter()
    tw = build_tower(3, 1, 16, 3)
    form = QuadraticForm(tw, (FrobeniusTerm(tw.Fq1.one, 0),))
    spec = CodeSpec(analysis=form.analysis, variant=Variant.AFFINE)
    rows = hierarchy(spec).rows
    cells = [(Elem(tw.Fq, a), Elem(tw.Fq2, b), Elem(tw.Fq, beta))
             for a in range(3) for b in (0, 1) for beta in range(3)]
    print(json.dumps({
        "cwe_equal": cwe_brute(spec) == cwe_predicted(spec),
        "counts_equal": [count_solutions_brute(form, *cell) == count_solutions(form.analysis, *cell)
                         for cell in cells],
        "rows": [[row.r, row.d_brute, row.d_closed] for row in rows],
        "zeros": int(form.value_histogram[0]),
        "seconds": time.perf_counter() - start,
    }))
    """
)


@pytest.mark.reach
def test_cwe_and_hierarchy_at_f_3_16():
    """The affine Tr(x**2) code over F_{3^16} x F_{3^3}: the value histogram
    is streamed without any F_{3^16} table (N(0) = 3^15 - 2 * 3^7), the CWE,
    every d_r and the solution count at all 18 cells (a, class of b, beta)
    equal the closed forms, in a fresh process, in under 10 s and 200 MB."""
    run = run_fresh(_STREAM_REACH)
    assert run["cwe_equal"] and run["zeros"] == 3**15 - 2 * 3**7
    assert run["counts_equal"] == [True] * 18, run
    assert [r for r, _, _ in run["rows"]] == [1, 2, 3, 4, 5]
    assert all(brute == closed for _, brute, closed in run["rows"]), run
    assert run["seconds"] < 10, run
    assert run["peak_mb"] < 200, run
