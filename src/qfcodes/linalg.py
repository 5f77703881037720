"""Linear algebra over F_q on dense element indices.

The base-p digits of an index are the element's F_p coordinates (the index
format of ``fields``), so an F_q-linear map is F_p-linear on digits, and
``expand`` writes an F_q matrix as the F_p matrix of the same map.  Products
and spans are then integer matmul mod p, one code path for prime and
non-prime q.  Elimination (``rref``, ``nullspace``, ``rank``) works on whole
rows through the q x q operation tables of the field.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fields
from .fields import FiniteField

__all__ = ["digits", "expand", "span", "annihilator", "rref", "nullspace", "rank"]


def digits(F: FiniteField, X) -> np.ndarray:
    """The F_p digits of every entry, lowest first: (..., b) -> (..., b*e)."""
    X = np.asarray(X, dtype=np.int64)
    return fields.digits(X, F.p, F.dim).reshape(*X.shape[:-1], X.shape[-1] * F.dim)


def expand(F: FiniteField, X) -> np.ndarray:
    """The F_p matrix of x -> x X on digits: (..., a, b) -> (..., a*e, b*e).

    Entry [(i, l), (t, j)] is digit j of p**l * X[i, t], that is M_c[j, l]
    for c = X[i, t] (``FiniteField.mul_matrices``), so
    ``digits(x) @ expand(X) % p`` are the digits of the product x X.
    """
    X = np.asarray(X, dtype=np.int64)
    e = F.dim
    M = F.mul_matrices(X.reshape(-1)).reshape(*X.shape, e, e)  # (..., i, t, j, l)
    d = M.swapaxes(-1, -2).swapaxes(-3, -2)  # (..., i, l, t, j)
    return d.reshape(*X.shape[:-2], X.shape[-2] * e, X.shape[-1] * e)


def span(F: FiniteField, rows) -> np.ndarray:
    """Encodings of every element of the span of ``rows``: (..., s, k) ->
    (..., q**s); position c holds the combination whose coefficient vector
    has encoding c, so dependent rows repeat elements."""
    rows = np.asarray(rows, dtype=np.int64)
    d = _coefficients(F.p, rows.shape[-2] * F.dim) @ expand(F, rows)
    np.remainder(d, F.p, out=d)
    return d @ F.p ** np.arange(d.shape[-1])


@lru_cache(maxsize=None)
def _coefficients(p: int, d: int) -> np.ndarray:
    """Every vector of F_p**d, row c holding the base-p digits of c."""
    table = fields.digits(np.arange(p**d), p, d)
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
    e = F.dim
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
