"""Exact arithmetic in Z[zeta_p] and the character-sum identities.

A cyclotomic integer is stored on the basis 1, zeta, ..., zeta**(p-2) with
arbitrary-precision integer coordinates; zeta**(p-1) is rewritten through the
minimal polynomial as -(1 + zeta + ... + zeta**(p-2)), in one place
(``cyc_from_trace_counts``), which makes equality a coordinate comparison.

Half-integer powers of p* = (-1)**((p-1)/2) * p are expressed through the
prime-field quadratic Gauss sum g_p = sum(zeta**(x*x)), whose square is p*.
Every closed form used here then clears its p-power denominator exactly, so
no floating point appears anywhere; solution counts are sums of powers of q
with exponents asserted >= 0 (``q ** e``, e < 0, would be a float).

The lemma checks run over index arrays: a brute ``*_sums_brute`` gives the
trace counts [i, t] of each sum, a closed ``*_sums_closed`` its coordinates,
and ``sums_agree`` compares them at once; each scalar function is a one-row
call of its array form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import value_profile
from .errors import MixedFieldError, charge
from .fields import Elem, FiniteField, rel_trace
from .quadform import QuadFormAnalysis, QuadraticForm

__all__ = [
    "CycInt",
    "pstar",
    "gauss_sum",
    "upsilon",
    "cyc_from_trace_counts",
    "additive_char_sum",
    "sums_agree",
    "eta_twisted_sums_brute",
    "eta_twisted_sums_closed",
    "eta_twisted_sum_brute",
    "eta_twisted_sum_closed",
    "qf_exp_sums_brute",
    "qf_exp_sums_closed",
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
        counts = [0] * p
        counts[k % p] = 1
        return cyc_from_trace_counts(p, counts)

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
        return cyc_from_trace_counts(p, acc)

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
    counts = [0] * p
    for x in range(p):
        counts[x * x % p] += 1
    return cyc_from_trace_counts(p, counts)


def upsilon(q: int, idx: int) -> int:
    """q - 1 at zero, -1 elsewhere."""
    return q - 1 if idx == 0 else -1


def _q_pow_pstar_neg_half(p: int, top_exp: int, j: int) -> CycInt:
    """p**top_exp * (p*)**(-j/2) as an exact cyclotomic integer, through
    (p*)**(-j/2) = g_p * (p*)**(-(j+1)/2) for odd j.

    Needs 2*top_exp >= j + (j odd), which holds for every use here.
    """
    half = (j + 1) // 2
    if top_exp < half:
        raise ArithmeticError("negative p-power after clearing denominators")
    val = (-1 if pstar(p) < 0 and half % 2 else 1) * p ** (top_exp - half)
    return gauss_sum(p) * val if j % 2 else CycInt.from_int(p, val)


# ---------------------------------------------------------------------------
# brute-force character sums
# ---------------------------------------------------------------------------


def cyc_from_trace_counts(p: int, counts) -> CycInt:
    """sum(counts[t] * zeta**t) for F_p indices t, zeta**(p-1) folded."""
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


def sums_agree(counts, coords) -> bool:
    """Brute trace counts [..., t] (the sums sum_t counts[t] zeta**t) equal
    closed Z[zeta_p] coordinates [..., :] cell for cell."""
    counts = np.asarray(counts)
    return np.array_equal(counts[..., :-1] - counts[..., -1:], coords)


def _counts(rows: int, p: int, traces: np.ndarray, values) -> np.ndarray:
    """[i, t]: the sum of ``values`` (broadcast to the shape of ``traces``)
    over the cells of row i of ``traces`` that hold t."""
    out = np.zeros((rows, p), dtype=np.int64)
    index = (np.arange(rows)[:, None], traces)
    np.add.at(out, index, np.broadcast_to(values, traces.shape))
    return out


def eta_twisted_sums_brute(Fq: FiniteField, k, b) -> np.ndarray:
    """Trace counts [i, t] of sum over z in F_q* of eta(z)**k_i zeta**Tr(z b_i)
    by enumeration, for the index arrays k and b: z runs over F_q* in omega
    order, z = g**j, so eta(z) = (-1)**j.  Charged one step per (i, z)."""
    k, b = np.broadcast_arrays(np.atleast_1d(k), np.atleast_1d(b))
    charge(len(b) * (Fq.order - 1), "the eta-twisted sums by enumeration")
    traces = Fq.trace_table(Fq.subfield_chain()[-1])[Fq.mul(b[:, None], Fq.omega[1:])]
    return _counts(len(b), Fq.p, traces, (-1) ** (k[:, None] % 2 * np.arange(Fq.order - 1)))


def eta_twisted_sums_closed(Fq: FiniteField, k, b) -> np.ndarray:
    """Z[zeta_p] coordinates [i, :] of the closed form at (k_i, b_i):
    upsilon(b) for even k; the Gauss-sum expression, g_p once, for odd k."""
    k, b = np.broadcast_arrays(np.atleast_1d(k), np.atleast_1d(b))
    p, m = Fq.p, Fq.degree_over(Fq.subfield_chain()[-1])
    odd = (-1) ** (m - 1) * Fq.etas[Fq.neg(b)] * (k % 2)
    out = odd[:, None] * np.array(_q_pow_pstar_neg_half(p, m, m).coords, dtype=object)
    out[:, 0] += np.where(k % 2, 0, np.where(b == 0, Fq.order - 1, -1))
    return out


def eta_twisted_sum_brute(Fq: FiniteField, k: int, b: Elem) -> CycInt:
    """sum over z in F_q* of eta(z)**k * zeta**(Tr(z*b)) by enumeration."""
    if b.field is not Fq:
        raise MixedFieldError("b must lie in F_q")
    return cyc_from_trace_counts(Fq.p, eta_twisted_sums_brute(Fq, k, b.idx)[0].tolist())


def eta_twisted_sum_closed(Fq: FiniteField, k: int, b: Elem) -> CycInt:
    """Closed form: upsilon(b) for even k; the Gauss-sum expression for odd."""
    if b.field is not Fq:
        raise MixedFieldError("b must lie in F_q")
    return CycInt(Fq.p, eta_twisted_sums_closed(Fq, k, b.idx)[0].tolist())


def qf_exp_sums_brute(form: QuadraticForm, z) -> np.ndarray:
    """Trace counts [i, t] of sum over x in F_{q^m1} of zeta**(Tr_{q/p}(z_i
    Q(x))), by enumeration: the value histogram at Tr(z_i v), v in F_q,
    charged one step per (i, v)."""
    tower, z = form.tower, np.atleast_1d(z)
    charge(len(z) * tower.q, "the quadratic exponential sums by enumeration")
    traces = tower.Fq.trace_table(tower.Fp)[tower.Fq.mul(z[:, None], np.arange(tower.q))]
    return _counts(len(z), tower.p, traces, form.value_histogram)


def qf_exp_sums_closed(analysis: QuadFormAnalysis, z) -> np.ndarray:
    """Z[zeta_p] coordinates [i, :] of the two-case closed form at z_i != 0."""
    tower, z = analysis.tower, np.atleast_1d(z)
    if not z.all():
        raise MixedFieldError("z must lie in F_q*")
    Fq, p, m, m1 = tower.Fq, tower.p, tower.m, tower.m1
    out = np.zeros((len(z), p - 1), dtype=object)
    if analysis.r_q % 2 == 0:
        out[:, 0] = analysis.eps * Fq.order ** (m1 - analysis.r_q // 2)
        return out
    sign = (-1) ** (m - 1) * Fq.etas[Fq.neg(z)] * analysis.eps_q
    base = _q_pow_pstar_neg_half(p, m * m1, m * analysis.r_q)
    return sign[:, None] * np.array(base.coords, dtype=object)


def qf_exp_sum_brute(form: QuadraticForm, z: Elem) -> CycInt:
    """sum over x in F_{q^m1} of zeta**(Tr_{q/p}(z*Q(x))), by enumeration."""
    if z.field is not form.tower.Fq:
        raise MixedFieldError("z must lie in F_q")
    return cyc_from_trace_counts(form.tower.p, qf_exp_sums_brute(form, z.idx)[0].tolist())


def qf_exp_sum_closed(analysis: QuadFormAnalysis, z: Elem) -> CycInt:
    """The two-case closed form of the quadratic exponential sum."""
    if z.field is not analysis.tower.Fq:
        raise MixedFieldError("z must lie in F_q*")
    return CycInt(analysis.tower.p, qf_exp_sums_closed(analysis, z.idx)[0].tolist())


# ---------------------------------------------------------------------------
# solution counts N(a, b; beta) and N(a, b, c; beta)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def closed_profile(analysis: QuadFormAnalysis) -> np.ndarray:
    """``codes.value_profile`` in closed form, as exact Python ints (object
    dtype, read-only, cached): q**(M-1) (1 + eps t q**-h) at a != 0, b = 0,
    with t = upsilon(v) for rank 2h and eta(-a v) for rank 2h + 1; q**(M-1)
    at b != 0; q**M at a = b = v = 0.  Charged one step per cell."""
    tower, r_q = analysis.tower, analysis.r_q
    Fq, q, M, h = tower.Fq, tower.q, tower.M, r_q // 2
    charge(2 * q * q, "the closed value profile")
    assert M - 1 - h >= 0, (M, r_q)  # r_q <= m1 <= M - 1
    if r_q % 2 == 0:
        t = np.array([upsilon(q, v) for v in range(q)], dtype=object)
    else:
        v = np.arange(q)
        t = Fq.etas.astype(object)[Fq.mul(Fq.neg(v)[:, None], v)]  # eta(-a v)
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
                          c: Elem | None = None) -> int:
    """Exhaustive count: ``codes.value_profile`` at (a, b != 0, beta - c)."""
    Fq = form.tower.Fq
    target = beta.idx if c is None else Fq.sub(beta.idx, c.idx)
    return int(value_profile(form)[a.idx, int(b.idx != 0), target])
