"""Quadratic forms on an extension F_{q^m1}/F_q and their invariants.

A form is a sum of two kinds of terms:

* Frobenius terms  Tr(a * x**(q**i + 1))  with a in F_{q^m1}, 0 <= i < m1;
* scaled squared traces  c * Tr(b * x)**2  with c in F_q, b in F_{q^m1}.

This grammar covers the usual constructions; a raw Gram matrix over F_q can
also be supplied directly.  The analysis diagonalizes the Gram matrix of the
polarization by Schur complements and reports the rank, the discriminant
(product of the pivots), its quadratic character, and the derived sign
constant that drives all downstream character-sum formulas.

Q is F_p-quadratic on base-p digits, digit k of Q(x) being x^T S[k] x mod p
(``_digit_form``, from the fields' F_p algebra, reading no table of
F_{q^m1}); the scalar ``__call__`` is the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import MixedFieldError, ZeroFormError, charge
from .fields import Elem, FieldTower, digits
from .linalg import _coefficients, nullspace

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


_BLOCK = 1 << 18  # values per block of the value stream
_WHOLE = 1 << 8  # up to this many points one evaluation is cheaper than a split


def _monomials(X: np.ndarray, p: int) -> np.ndarray:
    """Row n: x_c * x_d mod p for every digit pair (c, d) of row n of X."""
    return (X[:, :, None] * X[:, None, :] % p).reshape(len(X), -1)


def _q_digits(S: np.ndarray, P: np.ndarray, p: int) -> np.ndarray:
    """The evaluator: digit k of Q at each row of monomials P, at [row, k]."""
    return P @ S.reshape(len(S), -1).T % p


@lru_cache(maxsize=16)
def _digit_rows(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    X = _coefficients(p, d)
    return X, _monomials(X, p)


@lru_cache(maxsize=None)
def _weights(p: int, m: int) -> np.ndarray:
    return p ** np.arange(m)  # F_q index of a digit row


@lru_cache(maxsize=None)
def _linear_maps(tower: FieldTower) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frob[i]: x -> x**(q**i); Y[t, k, c, d]: digit k of Tr(p**t p**c p**d);
    K[t, k, l, s]: digit k of p**t p**l p**s in F_q."""
    Fq1, p = tower.Fq1, tower.p
    E, Eq = Fq1._mul_basis, tower.Fq._mul_basis
    frob = Fq1.frobenius_powers(tower.Fq)
    W = np.einsum("kd,ldj->klj", Fq1.trace_matrix(tower.Fq), E) % p  # Tr(p**l p**j)
    Y = np.einsum("tac,kad->tkcd", E, W) % p
    return frob, Y, np.einsum("tal,ska->tkls", Eq, Eq) % p


@lru_cache(maxsize=None)
def _frobenius_form(tower: FieldTower, i: int) -> np.ndarray:
    """Row t: S of Tr(p**t x**(q**i) x), that is Frob_i^T Y[t, k]."""
    frob, Y, _ = _linear_maps(tower)
    return (frob[i].T @ Y % tower.p).reshape(len(Y), -1)


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
                    if not 0 <= gram[i][j] < Fq.order:
                        raise MixedFieldError("Gram entries must be F_q indices")
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
            xb = digits(x.idx, Fq.order, tower.m1).tolist()  # F_q coordinates
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
    def _digit_form(self) -> np.ndarray:
        """S: Tr(a x**(q**i) x) is digits(a) @ ``_frobenius_form``; c Tr(bx)**2
        and a Gram input's G_ij x_i x_j are K_c and K_(G_ij) on F_q digits."""
        tower = self.tower
        p, m, m1 = tower.p, tower.m, tower.m1
        dim, (_, Y, K) = m * m1, _linear_maps(tower)
        K = K.reshape(m, -1)
        if self._gram_input is not None:
            S = digits(np.ravel(self._gram_input), p, m) @ K % p
            return S.reshape(m1, m1, m, m, m).transpose(2, 0, 3, 1, 4).reshape(m, dim, dim)
        S = np.zeros(m * dim * dim, dtype=np.int64)
        for t in self.frobenius_terms:
            if t.coeff:
                S = (S + digits(t.coeff.idx, p, dim) @ _frobenius_form(tower, t.power)) % p
        S = S.reshape(m, dim, dim)
        for t in self.trace_square_terms:
            if t.scale and t.coeff:
                U = Y[0] @ digits(t.coeff.idx, p, dim) % p  # Tr(b p**c) at [k, c]
                Kc = (digits(t.scale.idx, p, m) @ K).reshape(m, m, m) % p
                S = (S + U.T @ Kc % p @ U) % p
        return S

    @cached_property
    def value_table(self) -> np.ndarray:
        """Q at every element of F_{q^m1}, as F_q indices (dense order)."""
        out = np.concatenate(list(self._value_blocks())).astype(np.int32)
        out.setflags(write=False)
        return out

    @cached_property
    def value_histogram(self) -> np.ndarray:
        """Number of x with Q(x) = v, indexed by the dense F_q index v."""
        q = self.tower.q
        if self.tower.Fq1.order <= _BLOCK:
            hist = np.bincount(self.value_table, minlength=q)
        else:
            hist = sum(np.bincount(block, minlength=q) for block in self._value_blocks())
        hist.setflags(write=False)
        return hist

    def _value_blocks(self):
        """Q in dense order, as F_q indices, in blocks of at most ``_BLOCK``
        values (or p**ceil(dim/2), if more), charged |F_{q^m1}| steps to the
        run's budget when the stream starts: x is lo + hi on its low dl and
        high digits, and a block runs over every lo at p**db values of hi that
        differ in their low db digits."""
        S, p, m = self._digit_form, self.tower.p, self.tower.m
        charge(self.tower.Fq1.order, "the value stream of Q")
        dim, w = S.shape[-1], _weights(p, m)
        dl = dim if p**dim <= min(_WHOLE, _BLOCK) else (dim + 1) // 2
        lo, lo_mono = _digit_rows(p, dl)
        low = _q_digits(S[:, :dl, :dl], lo_mono, p)
        if dl == dim:
            yield low @ w
            return
        dh, db = dim - dl, 0
        while db < dh and p ** (db + 1 + dl) <= _BLOCK:
            db += 1
        (hi, hi_mono), nb = _digit_rows(p, dh), p**db
        high = _q_digits(S[:, dl:, dl:], hi_mono, p).T[..., None]
        on_lo = (S + S.transpose(0, 2, 1))[:, dl:, :dl] @ lo.T % p  # beta(e_j, lo), j >= dl
        table = hi[:nb, :db] @ on_lo[:, :db] + low.T[:, None]
        for top in range(0, p**dh, nb):
            block = table + hi[top, db:] @ on_lo[:, None, db:] + high[:, top : top + nb]
            yield w @ (block % p).reshape(m, -1)

    def bilinear(self, x: Elem, y: Elem) -> Elem:
        """Polarization (Q(x+y) - Q(x) - Q(y)) / 2."""
        two_inv = self.tower.Fq.one / 2
        return (self(x + y) - self(x) - self(y)) * two_inv

    # -- Gram matrix in the power basis 1, t, ..., t^(m1-1) -------------------

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G[i][j] = B(b_i, b_j), the polarization on the power basis, read
        off S: digit k of B(x, y) is x^T (S[k] + S[k]^T) y / 2 (1/2 lies in
        F_p), and b_i = q**i is the digit vector e_(i m); a Gram input gives
        itself back through S."""
        S, p, m = self._digit_form, self.tower.p, self.tower.m
        B = (S + S.transpose(0, 2, 1))[:, ::m, ::m] * ((p + 1) // 2) % p
        return tuple(map(tuple, np.tensordot(_weights(p, m), B, 1).tolist()))

    @cached_property
    def analysis(self) -> "QuadFormAnalysis":
        return analyze(self)

    def radical_basis(self) -> list[Elem]:
        """Basis of the radical (Gram kernel) as elements of F_{q^m1}."""
        q, vecs = self.tower.q, nullspace(self.tower.Fq, self.gram)
        return [Elem(self.tower.Fq1, sum(c * q**i for i, c in enumerate(v))) for v in vecs]


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
    """Diagonalize the Gram matrix by symmetric congruence, one Schur
    complement per pivot: with the pivot d moved to the front of the
    remaining block A, the block becomes A[1:, 1:] - A[1:, 0] d**-1 A[0, 1:].

    Pivot rule (deterministic): first nonzero diagonal entry of the block;
    if the whole diagonal vanishes, the first nonzero off-diagonal (i, j) is
    repaired by adding row/column j to i, which lands 2*A[i][j] != 0 on the
    diagonal (odd characteristic).  delta_q is the product of the pivots.
    """
    tower = form.tower
    Fq = tower.Fq
    A, r_q, delta = [list(row) for row in form.gram], 0, 1
    while A:
        piv = next((i for i, row in enumerate(A) if row[i]), None)
        if piv is None:
            off = next(((i, j) for i, row in enumerate(A) for j in range(i + 1, len(row)) if row[j]),
                       None)
            if off is None:
                break
            piv, j = off
            A[piv] = [Fq.add(x, y) for x, y in zip(A[piv], A[j])]
            for row in A:
                row[piv] = Fq.add(row[piv], row[j])
        A[0], A[piv] = A[piv], A[0]
        for row in A:
            row[0], row[piv] = row[piv], row[0]
        (d, *top), block = A[0], []
        for row in A[1:]:
            f = Fq.div(row[0], d)
            block.append([Fq.sub(x, Fq.mul(f, y)) for x, y in zip(row[1:], top)] if f else row[1:])
        A, r_q, delta = block, r_q + 1, Fq.mul(delta, d)

    if r_q == 0:
        raise ZeroFormError("form has rank 0 (identically zero)")
    eps_q = Fq.eta(delta)
    eps = epsilon_sign(tower.p, tower.m, r_q, eps_q)
    return QuadFormAnalysis(
        form=form, r_q=r_q, delta_q=Elem(Fq, delta), eps_q=eps_q, eps=eps
    )
