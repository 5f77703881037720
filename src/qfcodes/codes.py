"""The two code families and their weight data.

A homogeneous code evaluates a*Q(x) + Tr(b*y) over all points (x, y) except
the origin; the affine variant appends a constant c and keeps the origin.

The message format: a message row holds a, then the m2 F_q coefficients of
b, then (affine only) c; its encoding sum_t x_t q**t is an index in the format
of ``fields``, and over F_p each coordinate is its e = m base-p digits, with
the same encoding.  Only ``CodeSpec.blocks`` and ``CodeSpec.split`` know where
the blocks sit.

Weight distributions and complete weight enumerators are computed two ways:

* ``brute``: exhaustive enumeration.  One numpy kernel computes the
  composition of every message (a, b, c) from the histograms of a*Q(x) and
  Tr(b*y) (every point is counted exactly once; no codeword vector is
  materialized), checks that no nonzero message has weight 0, and counts the
  compositions.  Permuting the y coordinates by y -> y/beta carries the
  codeword of (a, b, c) onto that of (a, beta*b, c), so the kernel takes one
  composition for b = 0 and one for all b != 0, and counts each with the
  size of its class.  The y side is a digit DP through the trace matrix of
  F_{q^m2}, which builds no table of that field.  The kernel is charged and
  refuses past int64 counts before building any table.  The weight
  distribution counts the weights n - comp[..., 0] of the same compositions.
* ``predicted``: direct instantiation of the closed-form tables in Python
  integers: the character term q**(M-1) eps q**(-r/2) is eps q**(M-1-h).

Disagreement between the two routes is surfaced, never reconciled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, charge
from .fields import Elem, digits
from .quadform import QuadFormAnalysis, QuadraticForm

__all__ = [
    "Variant",
    "CodeSpec",
    "WeightDistribution",
    "CWE",
    "codeword",
    "weight_distribution_brute",
    "weight_distribution_predicted",
    "value_profile",
    "cwe_brute",
    "cwe_predicted",
    "griesmer_check",
    "GriesmerResult",
    "ab_minimality",
    "ABResult",
    "apply_symbol_permutation",
    "eta_matching_permutation",
]


class Variant(enum.Enum):
    HOMOGENEOUS = "homogeneous"
    AFFINE = "affine"


@dataclass(frozen=True)
class CodeSpec:
    """A code family instance: tower + analyzed form + variant."""

    analysis: QuadFormAnalysis
    variant: Variant

    @property
    def tower(self):
        return self.analysis.tower

    @property
    def length(self) -> int:
        n = self.tower.q ** self.tower.M
        return n if self.variant is Variant.AFFINE else n - 1

    @property
    def dimension(self) -> int:
        k = self.tower.m2 + 1
        return k + 1 if self.variant is Variant.AFFINE else k

    @property
    def num_messages(self) -> int:
        return self.tower.q**self.dimension

    def params(self) -> tuple[int, int, int]:
        """(n, k, q); the distance comes from a weight distribution."""
        return (self.length, self.dimension, self.tower.q)

    def blocks(self, e: int = 1) -> tuple[range, range, range]:
        """The coordinates of a, b and c in a message row of e digits per
        F_q coordinate; c's is empty for the homogeneous code."""
        top = e * (1 + self.tower.m2)
        return range(e), range(e, top), range(top, e * self.dimension)

    @cached_property
    def _block_weights(self) -> np.ndarray:
        """Column s: q**(offset in block s) on block s of ``blocks()``."""
        W = np.zeros((self.dimension, 3), dtype=np.int64)
        for s, blk in enumerate(self.blocks()):
            W[blk, s] = self.tower.q ** np.arange(len(blk))
        return W

    def split(self, enc):
        """(a, b, c) indices of the message with F_q encoding ``enc`` (an int
        or a 1-D array); c = 0 for the homogeneous code."""
        abc = digits(enc, self.tower.q, self.dimension) @ self._block_weights
        return tuple(abc.tolist()) if abc.ndim == 1 else tuple(abc.T)


# ---------------------------------------------------------------------------
# weight data containers
# ---------------------------------------------------------------------------


class _Counts:
    """Map key -> count with arbitrary-precision counts; zero counts are
    dropped, and a container equals only one of its own type."""

    def __init__(self, counts: dict):
        self._counts = {key: f for key, f in counts.items() if f}

    @classmethod
    def summed(cls, pairs):
        """The container of the (key, count) ``pairs``, equal keys added."""
        counts: dict = {}
        for key, f in pairs:
            counts[key] = counts.get(key, 0) + f
        return cls(counts)

    def __getitem__(self, key) -> int:
        return self._counts.get(key, 0)

    def items(self):
        return sorted(self._counts.items())

    def as_dict(self) -> dict:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other):
        return type(other) is type(self) and self._counts == other._counts


class WeightDistribution(_Counts):
    """Map weight -> frequency."""

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w in self._counts if w > 0)

    def min_nonzero(self) -> int:
        return min(w for w in self._counts if w > 0)

    def max_nonzero(self) -> int:
        return max(w for w in self._counts if w > 0)

    def __repr__(self):
        inner = ", ".join(f"{w}: {f}" for w, f in self.items())
        return f"WeightDistribution({{{inner}}})"


class CWE(_Counts):
    """Multiset of per-codeword composition vectors (counts of each symbol)."""

    def __getitem__(self, comp) -> int:
        return super().__getitem__(tuple(comp))

    def weight_marginal(self) -> WeightDistribution:
        return WeightDistribution.summed((sum(comp[1:]), f) for comp, f in self._counts.items())

    def __repr__(self):
        return f"CWE({len(self._counts)} distinct compositions, total {self.total()})"


def apply_symbol_permutation(cwe: CWE, perm: dict[int, int]) -> CWE:
    """Relabel nonzero symbol positions; perm maps source pos -> target pos."""

    def relabel(comp):
        new = [comp[0]] + [0] * (len(comp) - 1)
        for rho in range(1, len(comp)):
            new[perm.get(rho, rho)] = comp[rho]
        return tuple(new)

    return CWE.summed((relabel(comp), mult) for comp, mult in cwe.items())


def eta_matching_permutation(our_pattern, target_pattern) -> dict[int, int]:
    """Bijection of nonzero symbol positions sending our eta pattern onto the
    target's, preserving relative order inside each sign class."""
    if sorted(our_pattern) != sorted(target_pattern):
        raise ParameterError("eta patterns are not rearrangements of each other")
    perm: dict[int, int] = {}
    by_sign: dict[int, list[int]] = {}
    for pos, s in enumerate(target_pattern, start=1):
        by_sign.setdefault(s, []).append(pos)
    for pos, s in enumerate(our_pattern, start=1):
        perm[pos] = by_sign[s].pop(0)
    return perm


# ---------------------------------------------------------------------------
# codeword construction
# ---------------------------------------------------------------------------


def codeword(spec: CodeSpec, a: Elem, b: Elem, c: Elem | None = None) -> list[int]:
    """The evaluation vector, as F_q indices in canonical (x, y) order."""
    return _codeword_array(spec, a, b, c).tolist()


def _codeword_array(spec: CodeSpec, a: Elem, b: Elem, c: Elem | None) -> np.ndarray:
    """``codeword`` as an int64 array."""
    tower = spec.tower
    Fq, Fq1, Fq2 = tower.Fq, tower.Fq1, tower.Fq2
    if a.field is not Fq or b.field is not Fq2:
        raise ParameterError("message must lie in F_q x F_{q^m2}")
    if (c is not None) != (spec.variant is Variant.AFFINE):
        raise ParameterError(
            f"variant {spec.variant.value} expects "
            f"{'a constant c' if spec.variant is Variant.AFFINE else 'no constant'}"
        )
    if c is not None and c.field is not Fq:
        raise ParameterError("c must lie in F_q")
    omega = Fq1.omega  # tables before Q's
    qvals = spec.analysis.form.value_table[omega].astype(np.int64)
    ax = Fq.add(Fq.mul(a.idx, qvals), c.idx if c is not None else 0)  # a Q(x) + c
    word = Fq.add(ax[:, None], Fq2.trace_row(b.idx, Fq)).reshape(-1)
    if spec.variant is Variant.HOMOGENEOUS:
        word = word[1:]  # the origin (x, y) = (0, 0) comes first in omega order
    return word


# ---------------------------------------------------------------------------
# exhaustive enumeration kernel
# ---------------------------------------------------------------------------


def value_profile(form: QuadraticForm, n_c: int = 0) -> np.ndarray:
    """``P[a, j, v] = #{(x, y) : a Q(x) + Tr(b_j y) = v}``, b_0 = 0, b_1 = 1:
    sum_u Ha[a, u] Hb[j, v - u] for Ha[a, u] = #{x : a Q(x) = u} and
    Hb[j, w] = #{y : Tr(b_j y) = w} over every y.  y -> y/b carries each
    b != 0 onto b_1, and a constant c shifts v.  Read-only, cached per form.

    P[0, 0, 0] = q**M, so q**M >= 2**63 is refused.  The charge is m m2 p q
    steps of the trace DP and, per class of b, q**3 cells and q**2 for each
    of the ``n_c`` compositions the caller reads."""
    tower = form.tower
    q, M = tower.q, tower.M
    if q**M >= 2**63:
        raise ParameterError(f"q**M = {q}**{M} >= 2**63: int64 counts would wrap")
    cost = tower.m * tower.m2 * tower.p * q + 2 * q**3 + 2 * n_c * q**2
    charge(cost, "message-space enumeration")
    return _value_profile(form)


@lru_cache(maxsize=None)
def _value_profile(form: QuadraticForm) -> np.ndarray:
    """Hb[1] enumerates y digit by digit: y's digit l adds c * T[:, l] to
    Tr(y) for each c in F_p, T the trace matrix of F_{q^m2} over F_q."""
    tower = form.tower
    Fq, p, q = tower.Fq, tower.p, tower.q
    v = np.arange(q)
    ha = np.zeros((q, q), dtype=np.int64)
    np.add.at(ha, (v[:, None], Fq.mul(v[:, None], v)), form.value_histogram)
    hb = np.zeros((2, q), dtype=np.int64)
    hb[:, 0] = tower.Fq2.order, 1
    T = tower.Fq2.trace_matrix(Fq)
    for shift in np.arange(p)[:, None] * T.T[:, None, :] % p @ p ** np.arange(len(T)):
        hb[1] = hb[1][Fq.sub(v[:, None], shift)].sum(axis=1)  # Hb'[w] = sum_c Hb[w - c T[:, l]]
    profile = np.einsum("au,juv->ajv", ha, hb[:, Fq.sub(v, v[:, None])])
    profile.setflags(write=False)
    return profile


def _compositions(spec: CodeSpec):
    """Yield ``(c, comp)`` for each constant c of the variant (only c = 0 for
    the homogeneous code); ``comp[a, j]``, the composition of message
    (a, b, c) in omega order for b = 0 (j = 0) and every b != 0 (j = 1), is
    the value profile at omega - c."""
    Fq = spec.tower.Fq
    affine = spec.variant is Variant.AFFINE
    profile = value_profile(spec.analysis.form, Fq.order if affine else 1)
    for c in range(Fq.order) if affine else (0,):
        comp = profile[:, :, Fq.sub(Fq.omega, c)]
        if not affine:
            comp[:, :, 0] -= 1  # the excluded origin always evaluates to zero
        yield c, comp


def _exhaustive(audit: bool):
    """``audit`` remains only for its one caller, ``perfbench/api.py``, which
    passes ``audit=True``; ``audit=False`` is refused."""
    if not audit:
        raise ParameterError(
            "stratum mode was removed; weight data is always exhaustive"
        )


def _refuse_zero_weight(zero_weight: int):
    """The zero message is allowed its zero codeword; no other message is."""
    if zero_weight != 1:
        raise ArithmeticError(
            f"{zero_weight - 1} nonzero messages map to the zero codeword"
        )


def cwe_brute(spec: CodeSpec, *, audit: bool = True) -> CWE:
    """Complete weight enumerator over every message; ``audit`` as in
    :func:`_exhaustive`."""
    _exhaustive(audit)
    sizes = (1, spec.tower.Fq2.order - 1)  # messages per (a, c) in each class
    cwe = CWE.summed((tuple(row), size) for _, comp in _compositions(spec)
                     for by_class in comp.tolist() for row, size in zip(by_class, sizes))
    _refuse_zero_weight(cwe[(spec.length,) + (0,) * (spec.tower.q - 1)])
    return cwe


def weight_distribution_brute(spec: CodeSpec, *, audit: bool = True) -> WeightDistribution:
    """Weight distribution over every message: the weights n - comp[..., 0]
    of the compositions, counted per class of b; ``audit`` as in
    :func:`_exhaustive`."""
    _exhaustive(audit)
    zeros = np.stack([comp[..., 0] for _, comp in _compositions(spec)])
    weights, cells = np.unique(spec.length - zeros, return_inverse=True)
    cells = cells.reshape(zeros.shape)
    per_class = [np.bincount(cells[..., j].ravel(), minlength=len(weights)) for j in (0, 1)]
    size = spec.tower.Fq2.order - 1  # messages per (a, c) with b != 0
    n0, n1 = (n.tolist() for n in per_class)
    counts = {w: c0 + c1 * size for w, c0, c1 in zip(weights.tolist(), n0, n1)}
    _refuse_zero_weight(counts.get(0, 0))
    return WeightDistribution(counts)


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def _closed_terms(spec: CodeSpec) -> tuple[int, int]:
    """(q**(M-1), e) with e = eps q**(M-1-h), h = floor(r_Q / 2): q**(M-1)
    times the character term eps q**(-r_Q/2) (even rank) or eps q**((1-r_Q)/2)
    (odd rank), an integer since r_Q <= m1 <= M - 1."""
    tower, an = spec.tower, spec.analysis
    q, M, h = tower.q, tower.M, an.r_q // 2
    assert M - 1 - h >= 0, (M, an.r_q)
    return q ** (M - 1), an.eps * q ** (M - 1 - h)


def weight_distribution_predicted(spec: CodeSpec) -> WeightDistribution:
    """Instantiate the four weight tables; duplicate rows merge."""
    tower = spec.tower
    q, M, m2 = tower.q, tower.M, tower.m2
    qM1, e = _closed_terms(spec)
    rows = [(0, 1)]
    if spec.variant is Variant.HOMOGENEOUS:
        if spec.analysis.r_q % 2 == 0:
            rows.append(((q - 1) * qM1, q * (q**m2 - 1)))
            rows.append(((q - 1) * (qM1 - e), q - 1))
        else:
            rows.append(((q - 1) * qM1, q ** (m2 + 1) - 1))
    else:
        rows.append((q**M, q - 1))
        if spec.analysis.r_q % 2 == 0:
            rows.append(((q - 1) * qM1, q * q * (q**m2 - 1)))
            rows.append(((q - 1) * (qM1 - e), q - 1))
            rows.append(((q - 1) * qM1 + e, (q - 1) ** 2))
        else:
            rows.append(((q - 1) * qM1, q * q * (q**m2 - 1) + q - 1))
            rows.append(((q - 1) * qM1 - e, (q - 1) ** 2 // 2))
            rows.append(((q - 1) * qM1 + e, (q - 1) ** 2 // 2))
    assert min(w for w, _ in rows) >= 0, rows
    return WeightDistribution.summed(rows)


def cwe_predicted(spec: CodeSpec) -> CWE:
    """Instantiate the closed-form composition formulas under the canonical
    symbol ordering (character values evaluated, not assumed)."""
    tower = spec.tower
    Fq, q, M = tower.Fq, tower.q, tower.M
    qM1, e = _closed_terms(spec)
    omega = Fq.omega
    rows: list[tuple[tuple[int, ...], int]] = []

    def put(comp, mult):
        assert min(comp) >= 0, comp
        rows.append((tuple(comp), mult))

    if spec.variant is Variant.HOMOGENEOUS:
        put([spec.length] + [0] * (q - 1), 1)
        put([qM1 - 1] + [qM1] * (q - 1), q * (q**tower.m2 - 1))
        if spec.analysis.r_q % 2 == 0:
            put([qM1 + e * (q - 1) - 1] + [qM1 - e] * (q - 1), q - 1)
        else:
            etas = [Fq.eta(Fq.neg(omega[rho])) for rho in range(1, q)]
            for sign in (1, -1):
                put([qM1 - 1] + [qM1 + sign * e * t for t in etas], (q - 1) // 2)
    else:
        for i in range(q):
            comp = [0] * q
            comp[i] = q**M
            put(comp, 1)
        put([qM1] * q, q * q * (q**tower.m2 - 1))
        if spec.analysis.r_q % 2 == 0:
            for i in range(q):
                comp = [qM1 - e] * q
                comp[i] = qM1 + e * (q - 1)
                put(comp, q - 1)
        else:
            for i in range(q):  # eta(0) = 0 leaves q**(M-1) at rho = i
                etas = [Fq.eta(Fq.sub(omega[i], omega[rho])) for rho in range(q)]
                for sign in (1, -1):
                    put([qM1 + sign * e * t for t in etas], (q - 1) // 2)
    return CWE.summed(rows)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GriesmerResult:
    bound_sum: int
    length: int

    @property
    def meets(self) -> bool:
        return self.bound_sum == self.length

    @property
    def exceeds_by(self) -> int:
        return self.length - self.bound_sum

    @property
    def verdict(self) -> str:
        return "meets" if self.meets else f"exceeds-by {self.exceeds_by}"


def griesmer_check(n: int, k: int, d: int, q: int) -> GriesmerResult:
    """Compare n against sum of ceil(d / q**i) for i < k."""
    if k < 1 or d < 1:
        raise ParameterError("need k >= 1 and d >= 1")
    s = sum(-(-d // q**i) for i in range(k))
    return GriesmerResult(bound_sum=s, length=n)


@dataclass(frozen=True)
class ABResult:
    w_min: int
    w_max: int
    q: int

    @property
    def minimal(self) -> bool:
        return self.w_min * self.q > self.w_max * (self.q - 1)

    @property
    def verdict(self) -> str:
        return "minimal-by-AB" if self.minimal else "inconclusive"


def ab_minimality(wd: WeightDistribution, q: int) -> ABResult:
    """Sufficient minimality condition w_min/w_max > (q-1)/q, exact integers."""
    return ABResult(w_min=wd.min_nonzero(), w_max=wd.max_nonzero(), q=q)
