"""Exact arithmetic in Z[zeta_p] and the character-sum identities.

A cyclotomic integer is stored on the basis 1, zeta, ..., zeta**(p-2) with
arbitrary-precision integer coordinates; zeta**(p-1) is rewritten through the
minimal polynomial as -(1 + zeta + ... + zeta**(p-2)), which makes equality a
coordinate comparison.

Half-integer powers of p* = (-1)**((p-1)/2) * p are expressed through the
prime-field quadratic Gauss sum g_p = sum(zeta**(x*x)), whose square is p*.
Every closed form used here then clears its p-power denominator exactly, so
no floating point appears anywhere; solution counts are sums of powers of q
with exponents asserted >= 0 (``q ** e``, e < 0, would be a float).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import value_profile
from .errors import DEFAULT_BUDGET, MixedFieldError
from .fields import Elem, FiniteField, rel_trace
from .quadform import QuadFormAnalysis, QuadraticForm

__all__ = [
    "CycInt",
    "pstar",
    "gauss_sum",
    "upsilon",
    "cyc_from_trace_counts",
    "additive_char_sum",
    "eta_twisted_sum_brute",
    "eta_twisted_sum_closed",
    "qf_exp_sum_brute",
    "qf_exp_sum_closed",
    "closed_profile",
    "count_solutions",
    "count_solutions_brute",
]


class CycInt:
    """Element of Z[zeta_p] in canonical reduced coordinates."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        coords = tuple(coords)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p = {p}")
        self.p = p
        self.coords = coords

    # construction helpers

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "CycInt":
        k %= p
        if k == p - 1:
            return cls(p, (-1,) * (p - 1))
        c = [0] * (p - 1)
        c[k] = 1
        return cls(p, c)

    # ring operations

    def _chk(self, other: "CycInt"):
        if not isinstance(other, CycInt):
            raise TypeError(f"expected CycInt, got {type(other).__name__}")
        if other.p != self.p:
            raise MixedFieldError(f"mixed cyclotomic orders {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        self._chk(other)
        return CycInt(self.p, (a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, (-a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        self._chk(other)
        return CycInt(self.p, (a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, (a * other for a in self.coords))
        self._chk(other)
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return CycInt(p, (acc[k] - top for k in range(p - 1)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        return (
            isinstance(other, CycInt)
            and other.p == self.p
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __bool__(self):
        return any(self.coords)

    def as_int(self) -> int:
        if any(self.coords[1:]):
            raise ArithmeticError(f"{self} is not a rational integer")
        return self.coords[0]

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                terms.append(f"{c}*{z}" if c != 1 else z)
        return "CycInt(" + (" + ".join(terms) if terms else "0") + f"; p={self.p})"


def pstar(p: int) -> int:
    """(-1)**((p-1)/2) * p."""
    return p if (p - 1) // 2 % 2 == 0 else -p


def gauss_sum(p: int) -> CycInt:
    """Prime-field quadratic Gauss sum; its square is p*."""
    acc = [0] * p
    for x in range(p):
        acc[x * x % p] += 1
    top = acc[p - 1]
    return CycInt(p, (acc[k] - top for k in range(p - 1)))


def upsilon(q: int, idx: int) -> int:
    """q - 1 at zero, -1 elsewhere."""
    return q - 1 if idx == 0 else -1


def _q_pow_pstar_neg_half(p: int, top_exp: int, j: int) -> CycInt:
    """p**top_exp * (p*)**(-j/2) as an exact cyclotomic integer.

    Needs 2*top_exp >= j + (j odd), which holds for every use here.
    """
    if j % 2 == 0:
        half = j // 2
        sign = -1 if (pstar(p) < 0 and half % 2) else 1
        val = sign * p ** (top_exp - half)
        if top_exp < half:
            raise ArithmeticError("negative p-power after clearing denominators")
        return CycInt.from_int(p, val)
    # (p*)**(-j/2) = g_p * (p*)**(-(j+1)/2)
    half = (j + 1) // 2
    if top_exp < half:
        raise ArithmeticError("negative p-power after clearing denominators")
    sign = -1 if (pstar(p) < 0 and half % 2) else 1
    return gauss_sum(p) * (sign * p ** (top_exp - half))


# ---------------------------------------------------------------------------
# brute-force character sums
# ---------------------------------------------------------------------------


def cyc_from_trace_counts(p: int, counts) -> CycInt:
    """sum(counts[t] * zeta**t) for F_p indices t."""
    acc = [0] * p
    for t, c in enumerate(counts):
        acc[t % p] += c
    top = acc[p - 1]
    return CycInt(p, (acc[k] - top for k in range(p - 1)))


def additive_char_sum(field: FiniteField, func) -> CycInt:
    """sum over x in ``field`` of zeta_p**(Tr(func(x))), exactly.

    ``func`` maps an :class:`Elem` of ``field`` to an element of any field
    with a trace path down to F_p.
    """
    p = field.p
    counts = [0] * p
    prime = field.subfield_chain()[-1]
    for x in field.elements():
        v = func(x)
        t = rel_trace(v, prime).idx if v.field is not prime else v.idx
        counts[t] += 1
    return cyc_from_trace_counts(p, counts)


def eta_twisted_sum_brute(Fq: FiniteField, k: int, b: Elem) -> CycInt:
    """sum over z in F_q* of eta(z)**k * zeta**(Tr(z*b)) by enumeration."""
    if b.field is not Fq:
        raise MixedFieldError("b must lie in F_q")
    p = Fq.p
    # z runs over F_q* in omega order, z = g**j: eta(z) = (-1)**j
    traces = Fq.trace_table(Fq.subfield_chain()[-1])[Fq.op_table("mul")[b.idx, Fq.omega[1:]]]
    pos = np.bincount(traces[0::2], minlength=p)
    neg = np.bincount(traces[1::2], minlength=p)
    return cyc_from_trace_counts(p, (pos + neg if k % 2 == 0 else pos - neg).tolist())


def eta_twisted_sum_closed(Fq: FiniteField, k: int, b: Elem) -> CycInt:
    """Closed form: upsilon(b) for even k; the Gauss-sum expression for odd."""
    if b.field is not Fq:
        raise MixedFieldError("b must lie in F_q")
    p = Fq.p
    m, sz = 0, 1
    while sz < Fq.order:
        sz *= p
        m += 1
    if k % 2 == 0:
        return CycInt.from_int(p, upsilon(Fq.order, b.idx))
    eta_nb = Fq.eta(Fq.neg(b.idx))
    if eta_nb == 0:
        return CycInt.from_int(p, 0)
    sign = (-1) ** (m - 1) * eta_nb
    return _q_pow_pstar_neg_half(p, m, m) * sign


def qf_exp_sum_brute(form: QuadraticForm, z: Elem) -> CycInt:
    """sum over x in F_{q^m1} of zeta**(Tr_{q/p}(z*Q(x))), by enumeration."""
    tower = form.tower
    Fq = tower.Fq
    if z.field is not Fq:
        raise MixedFieldError("z must lie in F_q")
    counts = np.zeros(tower.p, dtype=np.int64)
    np.add.at(counts, Fq.trace_table(tower.Fp)[Fq.op_table("mul")[z.idx]], form.value_histogram)
    return cyc_from_trace_counts(tower.p, counts.tolist())


def qf_exp_sum_closed(analysis: QuadFormAnalysis, z: Elem) -> CycInt:
    """The two-case closed form of the quadratic exponential sum."""
    tower = analysis.tower
    Fq = tower.Fq
    if z.field is not Fq or z.idx == 0:
        raise MixedFieldError("z must lie in F_q*")
    p, m, m1 = tower.p, tower.m, tower.m1
    if analysis.r_q % 2 == 0:
        return CycInt.from_int(
            p, analysis.eps * Fq.order ** (m1 - analysis.r_q // 2)
        )
    sign = (-1) ** (m - 1) * Fq.eta(Fq.neg(z.idx)) * analysis.eps_q
    return _q_pow_pstar_neg_half(p, m * m1, m * analysis.r_q) * sign


# ---------------------------------------------------------------------------
# solution counts N(a, b; beta) and N(a, b, c; beta)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def closed_profile(analysis: QuadFormAnalysis) -> np.ndarray:
    """``codes.value_profile`` in closed form, as exact Python ints (object
    dtype, read-only, cached): q**(M-1) (1 + eps t q**-h) at a != 0, b = 0,
    with t = upsilon(v) for rank 2h and eta(-a v) for rank 2h + 1; q**(M-1)
    at b != 0; q**M at a = b = v = 0."""
    tower, r_q = analysis.tower, analysis.r_q
    Fq, q, M, h = tower.Fq, tower.q, tower.M, r_q // 2
    assert M - 1 - h >= 0, (M, r_q)  # r_q <= m1 <= M - 1
    if r_q % 2 == 0:
        t = np.array([upsilon(q, v) for v in range(q)], dtype=object)
    else:
        eta = np.array([Fq.eta(v) for v in range(q)], dtype=object)
        t = eta[Fq.op_table("mul")[Fq.op_table("sub")[0]]]  # eta(-a v) at [a, v]
    C = np.empty((q, 2, q), dtype=object)
    C[:, 0] = q ** (M - 1) + analysis.eps * q ** (M - 1 - h) * t
    C[:, 1] = q ** (M - 1)
    C[0, 0] = 0
    C[0, 0, 0] = q**M
    assert (C >= 0).all()
    C.setflags(write=False)
    return C


def count_solutions(analysis: QuadFormAnalysis, a: Elem, b: Elem, beta: Elem,
                    c: Elem | None = None) -> int:
    """Closed-form number of (x, y) with a*Q(x) + Tr(b*y) (+ c) = beta:
    ``closed_profile`` at (a, b != 0, beta - c)."""
    target = beta.idx if c is None else analysis.tower.Fq.sub(beta.idx, c.idx)
    return closed_profile(analysis)[a.idx, int(b.idx != 0), target]


def count_solutions_brute(form: QuadraticForm, a: Elem, b: Elem, beta: Elem,
                          c: Elem | None = None, budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustive count: ``codes.value_profile`` at (a, b != 0, beta - c)."""
    Fq = form.tower.Fq
    target = beta.idx if c is None else Fq.sub(beta.idx, c.idx)
    return int(value_profile(form, budget)[a.idx, int(b.idx != 0), target])
