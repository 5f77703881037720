"""Linear algebra over F_q on dense element indices.

An index of F_q is a base-p number whose digits are the element's
coordinates over F_p: the fields nest, so w**l has index p**l and addition
is digit-wise mod p.  An F_q-linear map is therefore F_p-linear on digits,
and ``expand`` writes an F_q matrix as the F_p matrix of the same map.
Products and spans are then integer matmul mod p, one code path for prime
and non-prime q.  Elimination (``rref``, ``nullspace``, ``rank``) works on
whole rows through the q x q operation tables of the field.

Vectors of F_q**k are also numbered by their encoding sum_t x_t q**t, which
is the base-p number of their k*e digits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import FiniteField

__all__ = ["digits", "expand", "span", "annihilator", "rref", "nullspace", "rank"]


@lru_cache(maxsize=None)
def _degree(F: FiniteField) -> int:
    """e = [F : F_p]."""
    return F.degree_over(F.subfield_chain()[-1])


def digits(F: FiniteField, X) -> np.ndarray:
    """The F_p digits of every entry, lowest first: (..., b) -> (..., b*e)."""
    X = np.asarray(X, dtype=np.int64)
    d = X[..., None] // F.p ** np.arange(_degree(F)) % F.p
    return d.reshape(*X.shape[:-1], X.shape[-1] * d.shape[-1])


def expand(F: FiniteField, X) -> np.ndarray:
    """The F_p matrix of x -> x X on digits: (..., a, b) -> (..., a*e, b*e).

    Entry [(i, l), (t, j)] is digit j of w**l * X[i, t], so
    ``digits(x) @ expand(X) % p`` are the digits of the product x X.
    """
    X = np.asarray(X, dtype=np.int64)
    e, p = _degree(F), F.p
    basis = p ** np.arange(e)  # w**l has index p**l
    d = F.op_table("mul")[X[..., None], basis][..., None] // basis % p  # (..., i, t, l, j)
    return d.swapaxes(-3, -2).reshape(*X.shape[:-2], X.shape[-2] * e, X.shape[-1] * e)


def span(F: FiniteField, rows) -> np.ndarray:
    """Encodings of every element of the span of ``rows``: (..., s, k) ->
    (..., q**s); position c holds the combination whose coefficient vector
    has encoding c, so dependent rows repeat elements."""
    rows = np.asarray(rows, dtype=np.int64)
    d = _coefficients(F.p, rows.shape[-2] * _degree(F)) @ expand(F, rows)
    np.remainder(d, F.p, out=d)
    return d @ F.p ** np.arange(d.shape[-1])


@lru_cache(maxsize=None)
def _coefficients(p: int, d: int) -> np.ndarray:
    """Every vector of F_p**d, row c holding the base-p digits of c."""
    table = np.arange(p**d)[:, None] // p ** np.arange(d) % p
    table.setflags(write=False)
    return table


def annihilator(F: FiniteField, R, pivots) -> np.ndarray:
    """Basis of {v : R v = 0} for reduced echelon rows R (..., r, k) with the
    given pivot columns: one vector per free column c, ascending, with 1 at c
    and -R[i, c] at pivot i."""
    R = np.asarray(R, dtype=np.int64)
    k, p = R.shape[-1], F.p
    pivots = list(pivots)
    free = [c for c in range(k) if c not in pivots]
    e = _degree(F)
    neg = (-digits(F, R[..., free])) % p  # (..., r, f*e)
    neg = neg.reshape(*neg.shape[:-1], len(free), e) @ p ** np.arange(e)
    out = np.zeros(R.shape[:-2] + (len(free), k), dtype=np.int64)
    out[..., np.arange(len(free)), free] = 1
    out[..., pivots] = np.swapaxes(neg, -1, -2)
    return out


def rref(F: FiniteField, A) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a 2-d index matrix and its pivot columns.

    The pivot of each column is the first remaining row that is nonzero
    there; the result does not depend on it, as the RREF is unique.
    """
    A = np.array(A, dtype=np.int64)
    mul, sub = F.op_table("mul"), F.op_table("sub")
    pivots: list[int] = []
    for c in range(A.shape[1]):
        r = len(pivots)
        if r == A.shape[0]:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r] = mul[F.inv(int(A[r, c])), A[r]]
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        A[others] = sub[A[others], mul[A[others, c][:, None], A[r]]]
        pivots.append(c)
    return A, pivots


def nullspace(F: FiniteField, A) -> list[tuple[int, ...]]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    R, pivots = rref(F, A)
    return [tuple(v) for v in annihilator(F, R[: len(pivots)], pivots).tolist()]


def rank(F: FiniteField, A) -> int:
    return len(rref(F, A)[1])
