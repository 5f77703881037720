"""The F_q elimination module against sympy and against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from qfcodes import extension_field, linalg, prime_field

FIELDS = {
    3: prime_field(3),
    5: prime_field(5),
    7: prime_field(7),
    9: extension_field(prime_field(3), 2),
    25: extension_field(prime_field(5), 2),
}


def _sympy_rref(p, rows, n):
    K = GF(p)
    if not rows:
        return []
    M = DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), n), K)
    R, pivots = M.rref()
    return [[int(x) % p for x in row] for row in R.to_list()[: len(pivots)]]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_and_nullspace_match_sympy(p):
    F, K = FIELDS[p], GF(p)
    rng = random.Random(p)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:  # a dependent row
            c = rng.randrange(p)
            A.append([(x + c * y) % p for x, y in zip(A[0], A[-1])])
        M = DomainMatrix([[K(x) for x in row] for row in A], (len(A), n), K)
        assert linalg.rank(F, A) == M.rank()
        ours = [list(v) for v in linalg.nullspace(F, A)]
        theirs = [[int(x) % p for x in row] for row in M.nullspace().to_list()]
        assert _sympy_rref(p, ours, n) == _sympy_rref(p, theirs, n)


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _brute_span(F, rows):
    q, n = F.order, len(rows[0])
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, row)]
        out.add(sum(x * q**t for t, x in enumerate(vec)))
    return out


@pytest.mark.parametrize("q", sorted(FIELDS))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_rank_nullity_and_span_properties(q, data):
    F = FIELDS[q]
    max_rows = max(r for r in (1, 2, 3) if q**r <= 729)
    m = data.draw(st.integers(1, max_rows))
    n = data.draw(st.integers(1, 4))
    entry = st.integers(0, q - 1)
    A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rank = linalg.rank(F, A)
    kernel = linalg.nullspace(F, A)
    assert rank + len(kernel) == n
    assert all(_dot(F, row, v) == 0 for row in A for v in kernel)
    span = linalg.span(F, A).tolist()
    assert len(set(span)) == q**rank
    assert set(span) == _brute_span(F, A)
