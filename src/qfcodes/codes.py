"""The two code families and their weight data.

A homogeneous code evaluates a*Q(x) + Tr(b*y) over all points (x, y) except
the origin; the affine variant appends a constant c and keeps the origin.
Weight distributions and complete weight enumerators are computed two ways:

* ``brute``: exhaustive enumeration.  One numpy kernel computes the
  composition of every message (a, b, c) from the histograms of a*Q(x) and
  Tr(b*y) (every point is counted exactly once; no codeword vector is
  materialized), checks that no nonzero message has weight 0, and counts the
  compositions.  It refuses beyond the budget before building any table.
* ``predicted``: direct instantiation of the closed-form tables, exact
  rational arithmetic with an integrality assertion.

Disagreement between the two routes is surfaced, never reconciled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DEFAULT_BUDGET, ParameterError
from .fields import Elem
from .quadform import QuadFormAnalysis

__all__ = [
    "Variant",
    "CodeSpec",
    "WeightDistribution",
    "CWE",
    "codeword",
    "weight_distribution_brute",
    "weight_distribution_predicted",
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


# ---------------------------------------------------------------------------
# weight data containers
# ---------------------------------------------------------------------------


class WeightDistribution:
    """Map weight -> frequency with arbitrary-precision frequencies."""

    def __init__(self, counts: dict[int, int]):
        self._counts = {w: f for w, f in counts.items() if f}

    def __getitem__(self, w: int) -> int:
        return self._counts.get(w, 0)

    def items(self):
        return sorted(self._counts.items())

    def as_dict(self) -> dict[int, int]:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w in self._counts if w > 0)

    def min_nonzero(self) -> int:
        return min(w for w in self._counts if w > 0)

    def max_nonzero(self) -> int:
        return max(w for w in self._counts if w > 0)

    def __eq__(self, other):
        return isinstance(other, WeightDistribution) and self._counts == other._counts

    def __repr__(self):
        inner = ", ".join(f"{w}: {f}" for w, f in self.items())
        return f"WeightDistribution({{{inner}}})"


class CWE:
    """Multiset of per-codeword composition vectors (counts of each symbol)."""

    def __init__(self, counts: dict[tuple[int, ...], int]):
        self._counts = {c: m for c, m in counts.items() if m}

    def __getitem__(self, comp: tuple[int, ...]) -> int:
        return self._counts.get(tuple(comp), 0)

    def items(self):
        return sorted(self._counts.items())

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def weight_marginal(self) -> WeightDistribution:
        out: dict[int, int] = {}
        for comp, mult in self._counts.items():
            w = sum(comp[1:])
            out[w] = out.get(w, 0) + mult
        return WeightDistribution(out)

    def __eq__(self, other):
        return isinstance(other, CWE) and self._counts == other._counts

    def __repr__(self):
        return f"CWE({len(self._counts)} distinct compositions, total {self.total()})"


def apply_symbol_permutation(cwe: CWE, perm: dict[int, int]) -> CWE:
    """Relabel nonzero symbol positions; perm maps source pos -> target pos."""
    out: dict[tuple[int, ...], int] = {}
    for comp, mult in cwe.items():
        new = [0] * len(comp)
        new[0] = comp[0]
        for rho in range(1, len(comp)):
            new[perm.get(rho, rho)] = comp[rho]
        key = tuple(new)
        out[key] = out.get(key, 0) + mult
    return CWE(out)


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
    qtab = spec.analysis.form.value_table
    tr = Fq2.trace_table(Fq) if Fq2 is not Fq else None
    c_idx = c.idx if c is not None else 0
    out = []
    skip_origin = spec.variant is Variant.HOMOGENEOUS
    for x in Fq1.omega:
        aq = Fq.add(Fq.mul(a.idx, int(qtab[x])), c_idx)
        for y in Fq2.omega:
            if skip_origin and x == 0 and y == 0:
                continue
            by = Fq2.mul(b.idx, y)
            w = int(tr[by]) if tr is not None else by
            out.append(Fq.add(aq, w))
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration kernel
# ---------------------------------------------------------------------------


def _check_budget(spec: CodeSpec, budget: int):
    """Refuse before any table is built.  The kernel gathers |F_{q^m2}|
    traces per b, multiplies q**3 histogram cells per b and writes q**2
    composition cells per (b, c); each step writes at most one int64 cell,
    so the same count bounds its memory."""
    q, q2 = spec.tower.q, spec.tower.Fq2.order
    n_c = q if spec.variant is Variant.AFFINE else 1
    cost = q2 * (q2 + q**3 + n_c * q * q)
    if cost > budget:
        raise BudgetError(cost, budget, "message-space enumeration")


def _compositions(spec: CodeSpec, budget: int = DEFAULT_BUDGET):
    """Yield ``(c, comp)`` for each constant c of the variant (only c = 0 for
    the homogeneous code); ``comp[a, b]`` is the composition of message
    (a, b, c): the count of each symbol, in omega order, over the points.

    Each message's composition comes from its own histograms,
    ``Ha[a, u] = #{x : a Q(x) = u}`` and ``Hb[b, w] = #{y : Tr(b y) = w}``,
    through the value profile ``P[a, b, v] = sum_u Ha[a, u] Hb[b, v - u]``.
    Adding c permutes the columns of P.
    """
    _check_budget(spec, budget)
    tower = spec.tower
    Fq, Fq2 = tower.Fq, tower.Fq2
    q, q2 = Fq.order, Fq2.order
    ha = np.zeros((q, q), dtype=np.int64)
    hist = spec.analysis.form.value_histogram.astype(np.int64)
    np.add.at(ha, (np.arange(q)[:, None], Fq.mul_np), hist)
    # Tr(b y) for y = g**k is tr_log[(log b + k) mod (q2 - 1)]; y = 0 adds Tr(0)
    tr_log = Fq2.trace_table(Fq)[np.asarray(Fq2.omega[1:])]
    hb = np.zeros((q2, q), dtype=np.int64)
    hb[0, 0] = q2
    for b in range(1, q2):
        hb[b] = np.bincount(np.roll(tr_log, -Fq2.log(b)), minlength=q)
        hb[b, 0] += 1
    neg = np.array([Fq.neg(u) for u in range(q)])
    sub = Fq.add_np[:, neg].astype(np.intp)  # sub[v, u] = v - u
    profile = np.einsum("au,buv->abv", ha, hb[:, sub.T])
    omega = np.asarray(Fq.omega)
    for c in range(q) if spec.variant is Variant.AFFINE else (0,):
        comp = profile[:, :, sub[omega, c]]
        if spec.variant is Variant.HOMOGENEOUS:
            comp[:, :, 0] -= 1  # the excluded origin always evaluates to zero
        yield c, comp


def _count_rows(rows: np.ndarray):
    """The distinct rows of a 2-d array and how often each occurs."""
    rows = rows[np.lexsort(rows.T)]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return rows[starts], np.diff(starts, append=len(rows))


def _accumulate(spec: CodeSpec, budget: int) -> dict[tuple[int, ...], int]:
    counts: dict[tuple[int, ...], int] = {}
    zero_weight_msgs = -1  # the zero message is allowed its zero codeword
    for _, comp in _compositions(spec, budget):
        zero_weight_msgs += int(np.count_nonzero(comp[:, :, 0] == spec.length))
        rows, mults = _count_rows(comp.reshape(-1, spec.tower.q))
        for row, mult in zip(rows.tolist(), mults.tolist()):
            key = tuple(row)
            counts[key] = counts.get(key, 0) + mult
    if zero_weight_msgs:
        raise ArithmeticError(
            f"{zero_weight_msgs} nonzero messages map to the zero codeword"
        )
    return counts


def cwe_brute(
    spec: CodeSpec, *, audit: bool = True, budget: int = DEFAULT_BUDGET
) -> CWE:
    """Complete weight enumerator over every message.

    ``audit`` remains only for its one caller, ``perfbench/api.py``, which
    passes ``audit=True``; ``audit=False`` is refused.
    """
    if not audit:
        raise ParameterError(
            "stratum mode was removed; weight data is always exhaustive"
        )
    return CWE(_accumulate(spec, budget))


def weight_distribution_brute(
    spec: CodeSpec, *, audit: bool = True, budget: int = DEFAULT_BUDGET
) -> WeightDistribution:
    """Weight distribution over every message; ``audit`` as in :func:`cwe_brute`."""
    return cwe_brute(spec, audit=audit, budget=budget).weight_marginal()


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1 and x >= 0, x
    return int(x)


def weight_distribution_predicted(spec: CodeSpec) -> WeightDistribution:
    """Instantiate the four weight tables; duplicate rows merge."""
    tower = spec.tower
    q, M = tower.q, tower.M
    an = spec.analysis
    r, eps = an.r_q, an.eps
    qM1 = Fraction(q) ** (M - 1)
    rows: list[tuple[Fraction, int]] = [(Fraction(0), 1)]
    if spec.variant is Variant.HOMOGENEOUS:
        if r % 2 == 0:
            rows.append((qM1 * (q - 1), q * (q**tower.m2 - 1)))
            rows.append((qM1 * (q - 1) * (1 - Fraction(eps, q ** (r // 2))), q - 1))
        else:
            rows.append((qM1 * (q - 1), q ** (tower.m2 + 1) - 1))
    else:
        half_pow = (
            Fraction(eps, q ** (r // 2))
            if r % 2 == 0
            else eps * Fraction(q) ** ((1 - r) // 2)
        )
        rows.append((Fraction(q**M), q - 1))
        if r % 2 == 0:
            rows.append((qM1 * (q - 1), q * q * (q**tower.m2 - 1)))
            rows.append((qM1 * (q - 1) * (1 - half_pow), q - 1))
            rows.append((qM1 * (q - 1 + half_pow), (q - 1) ** 2))
        else:
            rows.append((qM1 * (q - 1), q * q * (q**tower.m2 - 1) + q - 1))
            rows.append((qM1 * (q - 1 - half_pow), (q - 1) ** 2 // 2))
            rows.append((qM1 * (q - 1 + half_pow), (q - 1) ** 2 // 2))
    out: dict[int, int] = {}
    for w, f in rows:
        wi = _as_int(w)
        out[wi] = out.get(wi, 0) + f
    return WeightDistribution(out)


def cwe_predicted(spec: CodeSpec) -> CWE:
    """Instantiate the closed-form composition formulas under the canonical
    symbol ordering (character values evaluated, not assumed)."""
    tower = spec.tower
    Fq = tower.Fq
    q, M = tower.q, tower.M
    an = spec.analysis
    r, eps = an.r_q, an.eps
    n = spec.length
    qM1 = Fraction(q) ** (M - 1)
    omega = Fq.omega
    counts: dict[tuple[int, ...], int] = {}

    def put(comp, mult):
        comp = tuple(_as_int(k) for k in comp)
        counts[comp] = counts.get(comp, 0) + mult

    if spec.variant is Variant.HOMOGENEOUS:
        put([Fraction(n)] + [Fraction(0)] * (q - 1), 1)
        put([qM1 - 1] + [qM1] * (q - 1), q * (q**tower.m2 - 1))
        if r % 2 == 0:
            t = Fraction(eps, q ** (r // 2))
            put(
                [qM1 * (1 + t * (q - 1)) - 1] + [qM1 * (1 - t)] * (q - 1),
                q - 1,
            )
        else:
            t = eps * Fraction(q) ** ((1 - r) // 2)
            for sign in (1, -1):
                comp = [qM1 - 1]
                for rho in range(1, q):
                    e = Fq.eta(Fq.neg(omega[rho]))
                    comp.append(qM1 * (1 + sign * t * e))
                put(comp, (q - 1) // 2)
    else:
        for i in range(q):
            comp = [Fraction(0)] * q
            comp[i] = Fraction(q**M)
            put(comp, 1)
        put([qM1] * q, q * q * (q**tower.m2 - 1))
        if r % 2 == 0:
            t = Fraction(eps, q ** (r // 2))
            t1 = qM1 * (1 + t * (q - 1))
            t2 = qM1 * (1 - t)
            for i in range(q):
                comp = [t2] * q
                comp[i] = t1
                put(comp, q - 1)
        else:
            t = eps * Fraction(q) ** ((1 - r) // 2)
            for i in range(q):
                for sign in (1, -1):
                    comp = []
                    for rho in range(q):
                        if rho == i:
                            comp.append(qM1)
                        else:
                            e = Fq.eta(Fq.sub(omega[i], omega[rho]))
                            comp.append(qM1 * (1 + sign * t * e))
                    put(comp, (q - 1) // 2)
    return CWE(counts)


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
