"""Quadratic forms on an extension F_{q^m1}/F_q and their invariants.

A form is a sum of two kinds of terms:

* Frobenius terms  Tr(a * x**(q**i + 1))  with a in F_{q^m1}, 0 <= i < m1;
* scaled squared traces  c * Tr(b * x)**2  with c in F_q, b in F_{q^m1}.

This grammar covers the usual constructions; a raw Gram matrix over F_q can
also be supplied directly.  The analysis diagonalizes the Gram matrix of the
polarization by symmetric congruence and reports the rank, the discriminant
(product of the nonzero diagonal entries), its quadratic character, and the
derived sign constant that drives all downstream character-sum formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MixedFieldError, ZeroFormError
from .fields import Elem, FieldTower
from .linalg import nullspace

__all__ = [
    "FrobeniusTerm",
    "TraceSquareTerm",
    "QuadraticForm",
    "QuadFormAnalysis",
    "epsilon_sign",
]


@dataclass(frozen=True)
class FrobeniusTerm:
    """Tr_{q^m1/q}(coeff * x**(q**power + 1))."""

    coeff: Elem
    power: int


@dataclass(frozen=True)
class TraceSquareTerm:
    """scale * Tr_{q^m1/q}(coeff * x)**2."""

    scale: Elem
    coeff: Elem


def epsilon_sign(p: int, m: int, r_q: int, eps_q: int) -> int:
    """Sign constant combining eps_q with the parity of (p, m, rank)."""
    k = r_q if r_q % 2 == 0 else r_q + 1
    expo = (p - 1) * m * k // 4
    return eps_q * (-1 if expo % 2 else 1)


class QuadraticForm:
    """A nonzero quadratic form F_{q^m1} -> F_q over a fixed tower."""

    def __init__(
        self,
        tower: FieldTower,
        frobenius_terms: tuple[FrobeniusTerm, ...] = (),
        trace_square_terms: tuple[TraceSquareTerm, ...] = (),
        gram: tuple[tuple[int, ...], ...] | None = None,
    ):
        self.tower = tower
        self.frobenius_terms = tuple(frobenius_terms)
        self.trace_square_terms = tuple(trace_square_terms)
        self._gram_input = gram
        Fq, Fq1 = tower.Fq, tower.Fq1
        if gram is not None:
            if frobenius_terms or trace_square_terms:
                raise MixedFieldError("supply either terms or a Gram matrix, not both")
            m1 = tower.m1
            if len(gram) != m1 or any(len(row) != m1 for row in gram):
                raise MixedFieldError(f"Gram matrix must be {m1}x{m1}")
            for i in range(m1):
                for j in range(m1):
                    if gram[i][j] != gram[j][i]:
                        raise MixedFieldError("Gram matrix must be symmetric")
        else:
            has_nonzero = False
            for t in self.frobenius_terms:
                if t.coeff.field is not Fq1:
                    raise MixedFieldError("Frobenius coefficient must lie in F_{q^m1}")
                if not 0 <= t.power < tower.m1:
                    raise MixedFieldError(
                        f"Frobenius power {t.power} out of range [0, {tower.m1})"
                    )
                has_nonzero |= bool(t.coeff)
            for t in self.trace_square_terms:
                if t.scale.field is not Fq:
                    raise MixedFieldError("trace-square scale must lie in F_q")
                if t.coeff.field is not Fq1:
                    raise MixedFieldError("trace-square coefficient must lie in F_{q^m1}")
                has_nonzero |= bool(t.scale) and bool(t.coeff)
            if not has_nonzero:
                raise ZeroFormError("quadratic form has no nonzero term")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: Elem) -> Elem:
        tower = self.tower
        Fq, Fq1 = tower.Fq, tower.Fq1
        if x.field is not Fq1:
            raise MixedFieldError("argument must lie in F_{q^m1}")
        if self._gram_input is not None:
            xb = self._coords(x.idx)
            acc = 0
            for i, xi in enumerate(xb):
                if xi == 0:
                    continue
                for j, xj in enumerate(xb):
                    if xj:
                        acc = Fq.add(acc, Fq.mul(Fq.mul(xi, xj), self._gram_input[i][j]))
            return Elem(Fq, acc)
        q, tr = Fq.order, Fq1.trace_table(Fq)
        acc = 0
        for t in self.frobenius_terms:
            y = Fq1.mul(t.coeff.idx, Fq1.pow(x.idx, q**t.power + 1))
            acc = Fq.add(acc, tr.item(y))
        for t in self.trace_square_terms:
            v = tr.item(Fq1.mul(t.coeff.idx, x.idx))
            acc = Fq.add(acc, Fq.mul(t.scale.idx, Fq.mul(v, v)))
        return Elem(Fq, acc)

    @cached_property
    def value_table(self) -> np.ndarray:
        """Q over every element of F_{q^m1}, as F_q indices (dense order).

        Each term is a whole-field gather: a * x**e from the log/exp tables
        (``monomial_table``), its trace from ``trace_table``, and the F_q
        arithmetic from the q x q op tables.  A Gram input is x^T G x on the
        base-q digits of the index.
        """
        tower = self.tower
        Fq, Fq1, q = tower.Fq, tower.Fq1, tower.q
        add, mul = Fq.op_table("add"), Fq.op_table("mul")
        acc = np.zeros(Fq1.order, dtype=np.int64)
        if self._gram_input is not None:
            idx = np.arange(Fq1.order)
            x = [(idx // q**k % q).astype(np.int32) for k in range(tower.m1)]
            for i, row in enumerate(self._gram_input):
                gx = np.zeros(Fq1.order, dtype=np.int64)  # (G x)_i
                for j, g in enumerate(row):
                    if g:
                        gx = add[gx, mul[g, x[j]]]
                acc = add[acc, mul[x[i], gx]]
        else:
            tr = Fq1.trace_table(Fq)
            for t in self.frobenius_terms:
                if t.coeff:
                    acc = add[acc, tr[Fq1.monomial_table(t.coeff.idx, q**t.power + 1)]]
            squares = mul[np.arange(q), np.arange(q)]
            for t in self.trace_square_terms:
                if t.scale and t.coeff:
                    scaled = mul[t.scale.idx, squares]  # c * v**2 for each v in F_q
                    acc = add[acc, scaled[tr[Fq1.monomial_table(t.coeff.idx, 1)]]]
        out = acc.astype(np.int32)
        out.setflags(write=False)
        return out

    @cached_property
    def value_histogram(self) -> np.ndarray:
        """Number of x with Q(x) = v, indexed by the dense F_q index v."""
        hist = np.bincount(self.value_table, minlength=self.tower.Fq.order)
        hist.setflags(write=False)
        return hist

    def bilinear(self, x: Elem, y: Elem) -> Elem:
        """Polarization (Q(x+y) - Q(x) - Q(y)) / 2."""
        two_inv = self.tower.Fq.one / 2
        return (self(x + y) - self(x) - self(y)) * two_inv

    # -- Gram matrix in the power basis 1, t, ..., t^(m1-1) -------------------

    def _coords(self, idx: int) -> tuple[int, ...]:
        Fq1 = self.tower.Fq1
        if self.tower.m1 == 1:
            return (idx,)
        return Fq1.coeffs(idx)

    def _basis(self) -> list[Elem]:
        Fq1, m1 = self.tower.Fq1, self.tower.m1
        if m1 == 1:
            return [Fq1.one]
        t = Elem(Fq1, Fq1.t)
        return [t**k for k in range(m1)]

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G[i][j] = B(b_i, b_j), the polarization on the power basis.

        Q is evaluated once at each b_i and once at each b_i + b_j, i <= j,
        so m1(m1+3)/2 scalar evaluations fill both triangles.
        """
        if self._gram_input is not None:
            return self._gram_input
        basis = self._basis()
        at, two_inv = [self(b) for b in basis], self.tower.Fq.one / 2
        rows = [[0] * len(basis) for _ in basis]
        for i, b in enumerate(basis):
            for j in range(i, len(basis)):
                g = (self(b + basis[j]) - at[i] - at[j]) * two_inv
                rows[i][j] = rows[j][i] = g.idx
        return tuple(map(tuple, rows))

    @cached_property
    def analysis(self) -> "QuadFormAnalysis":
        return analyze(self)

    def radical_basis(self) -> list[Elem]:
        """Basis of the radical (Gram kernel) as elements of F_{q^m1}."""
        Fq, Fq1, m1 = self.tower.Fq, self.tower.Fq1, self.tower.m1
        vecs = nullspace(Fq, self.gram)
        basis = self._basis()
        out = []
        for v in vecs:
            acc = Fq1.zero
            for c, b in zip(v, basis):
                acc = acc + Elem(Fq1, Fq1.embed_from(Fq, c)) * b
            out.append(acc)
        return out

    def describe(self) -> dict:
        from .fields import elem_to_data

        return {
            "frobenius_terms": [
                {"coeff": elem_to_data(t.coeff), "i": t.power}
                for t in self.frobenius_terms
            ],
            "trace_square_terms": [
                {"c": elem_to_data(t.scale), "b": elem_to_data(t.coeff)}
                for t in self.trace_square_terms
            ],
            "gram": self._gram_input,
        }


@dataclass(frozen=True)
class QuadFormAnalysis:
    """Rank / discriminant / sign data of a quadratic form."""

    form: QuadraticForm
    r_q: int
    delta_q: Elem
    eps_q: int
    eps: int

    @property
    def tower(self) -> FieldTower:
        return self.form.tower


def analyze(form: QuadraticForm) -> QuadFormAnalysis:
    """Diagonalize the Gram matrix by symmetric congruence.

    Pivot rule (deterministic): first nonzero diagonal entry; if the whole
    remaining diagonal vanishes, the first nonzero off-diagonal (i, j) is
    repaired by adding row/column j to i, which lands 2*A[i][j] != 0 on the
    diagonal (odd characteristic).
    """
    tower = form.tower
    Fq, m1 = tower.Fq, tower.m1
    A = [list(row) for row in form.gram]

    for k in range(m1):
        piv = next((i for i in range(k, m1) if A[i][i] != 0), None)
        if piv is None:
            off = next(
                (
                    (i, j)
                    for i in range(k, m1)
                    for j in range(i + 1, m1)
                    if A[i][j] != 0
                ),
                None,
            )
            if off is None:
                break
            i, j = off
            for c in range(m1):
                A[i][c] = Fq.add(A[i][c], A[j][c])
            for r in range(m1):
                A[r][i] = Fq.add(A[r][i], A[r][j])
            piv = i
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            for r in range(m1):
                A[r][k], A[r][piv] = A[r][piv], A[r][k]
        akk = A[k][k]
        for r in range(k + 1, m1):
            if A[r][k] == 0:
                continue
            f = Fq.div(A[r][k], akk)
            for c in range(m1):
                A[r][c] = Fq.sub(A[r][c], Fq.mul(f, A[k][c]))
            for r2 in range(m1):
                A[r2][r] = Fq.sub(A[r2][r], Fq.mul(f, A[r2][k]))

    diag = [A[i][i] for i in range(m1)]
    nonzero = [d for d in diag if d != 0]
    r_q = len(nonzero)
    if r_q == 0:
        raise ZeroFormError("form has rank 0 (identically zero)")
    delta = 1
    for d in nonzero:
        delta = Fq.mul(delta, d)
    eps_q = Fq.eta(delta)
    eps = epsilon_sign(tower.p, tower.m, r_q, eps_q)
    return QuadFormAnalysis(
        form=form, r_q=r_q, delta_q=Elem(Fq, delta), eps_q=eps_q, eps=eps
    )
