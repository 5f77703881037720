"""Weight hierarchies: exhaustive subspace search and closed forms.

Subspaces of the message space are enumerated as reduced row-echelon bases
(pivot columns ascending, unit pivots, zeros above and below), one canonical
matrix per subspace, ordered lexicographically by pivot-column set and then
by the free entries.  The support defect N(H) of a subspace counts the
evaluation points annihilated by every basis functional; the r-th
generalized Hamming weight is the code length minus the maximum defect.
One scan engine serves the F_q code and its F_p descent (``descent``),
whose subspaces have rows of F_p digits and whose symbols are trace columns.

Three routes coexist and are cross-checked:
* a histogram/vectorized point count (``support_defect``),
* the per-subspace closed form from the character-sum analysis
  (``support_defect_closed``),
* a cyclotomic-sum recomputation (``support_defect_char``) as a cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .codes import CodeSpec, Variant
from .cyclotomic import cyc_from_trace_counts
from .errors import BudgetError, DEFAULT_BUDGET, ParameterError
from .fields import FiniteField
from .quadform import _nullspace

__all__ = [
    "gaussian_binomial",
    "subspace_bases",
    "support_defect",
    "support_defect_closed",
    "support_defect_char",
    "ghw_brute",
    "ghw_closed",
    "hierarchy",
    "GhwRow",
    "GhwReport",
]


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-space over F_q."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (r - i) - 1
    assert num % den == 0
    return num // den


def subspace_bases(n: int, r: int, field: FiniteField):
    """Yield every canonical RREF basis (tuple of row tuples), no duplicates.

    Free entries range over the dense element order, so the stream is
    deterministic and restartable.
    """
    if not 0 <= r <= n:
        raise ParameterError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        yield ()
        return
    order = field.order
    for pivots in itertools.combinations(range(n), r):
        free_cells = [
            (i, c)
            for i in range(r)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(order), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_cells, values):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


def row_to_message(spec: CodeSpec, row, width: int = 1) -> tuple[int, int, int]:
    """Digit row -> message (a, b, c) indices over (F_q, F_{q^m2}, F_q).

    Each F_q symbol takes ``width`` digits: one F_q index (width 1), or m
    F_p digits for the descended code.
    """
    tower = spec.tower
    Fq, Fq2, m2 = tower.Fq, tower.Fq2, tower.m2
    if width == 1:
        syms = row
    else:
        syms = [Fq.from_coeffs(row[i : i + width]) for i in range(0, len(row), width)]
    b = syms[1] if Fq2 is Fq else Fq2.from_coeffs(syms[1 : 1 + m2])
    c = syms[1 + m2] if spec.variant is Variant.AFFINE else 0
    return syms[0], b, c


# ---------------------------------------------------------------------------
# evaluation engine
# ---------------------------------------------------------------------------


class _ScanEngine:
    """Counts annihilated points of message subspaces and scans them.

    Rows are digit vectors over F_q (width 1) or over F_p (width m, the
    descended code).  ``zmask[w, i]`` is True when coordinate i of the
    symbol w is zero: the symbol itself for the F_q code (one coordinate),
    its trace column for the descent.  Tables are built on first use, so a
    refused scan builds none.
    """

    def __init__(self, spec: CodeSpec, width: int, zmask: np.ndarray):
        self.spec = spec
        self.width = width
        self.zmask = zmask
        self.L = zmask.shape[1]
        tower = spec.tower
        self.field = tower.Fq if width == 1 else tower.Fp
        self.n = spec.dimension * width
        self._messages: dict[tuple, tuple[int, int, int]] = {}

    @cached_property
    def hq(self) -> np.ndarray:
        return np.asarray(self.spec.analysis.form.value_histogram, dtype=np.int64)

    @cached_property
    def addq(self) -> np.ndarray:
        return np.asarray(self.spec.tower.Fq.add_np, dtype=np.int64)

    @cached_property
    def mulq(self) -> np.ndarray:
        return np.asarray(self.spec.tower.Fq.mul_np, dtype=np.int64)

    @cached_property
    def trmat(self) -> np.ndarray:
        """trmat[b, y] = Tr(b*y) as an F_q index."""
        tower = self.spec.tower
        Fq, Fq2 = tower.Fq, tower.Fq2
        if Fq2 is Fq:
            return self.mulq
        tr = np.asarray(Fq2.trace_table(Fq), dtype=np.int64)
        return tr[np.asarray(Fq2.mul_np, dtype=np.int64)]

    def message(self, row) -> tuple[int, int, int]:
        """Memoised ``row_to_message``: rows recur across many subspaces."""
        row = tuple(row)
        msg = self._messages.get(row)
        if msg is None:
            msg = self._messages[row] = row_to_message(self.spec, row, self.width)
        return msg

    def defect(self, rows) -> int:
        """Points (x, y, i) where every basis functional vanishes."""
        # ndarray.take is several times faster than fancy indexing here
        mask = None
        for row in rows:
            a, b, c = self.message(row)
            bv = self.addq[self.trmat[b], c]
            grid = self.addq.take(self.mulq[a], axis=0).take(bv, axis=1)
            m = self.zmask.take(grid, axis=0)  # (value of Q, y, column index)
            mask = m if mask is None else (mask & m)
        if mask is None:  # r = 0: every point vanishes trivially
            total = int(self.hq.sum()) * self.trmat.shape[0] * self.L
        else:
            total = int(self.hq @ mask.reshape(len(self.hq), -1).sum(axis=1))
        if self.spec.variant is Variant.HOMOGENEOUS:
            total -= self.L
        return total

    def b_part_zero_span(self, rows) -> list[tuple[int, int]]:
        """Elements (a, c) of the span of ``rows`` whose b-part vanishes."""
        if not rows:
            return [(0, 0)]
        F, w = self.field, self.width
        bcols = [[row[k] for row in rows] for k in range(w, w + self.spec.tower.m2 * w)]
        lam_basis = _nullspace(F, bcols)
        out = []
        for coeffs in itertools.product(range(F.order), repeat=len(lam_basis)):
            digits = [0] * len(rows[0])
            for cc, vec in zip(coeffs, lam_basis):
                for li, row in zip(vec, rows):
                    s = F.mul(cc, li)
                    if s:
                        for k in range(len(digits)):
                            digits[k] = F.add(digits[k], F.mul(s, row[k]))
            a, _, c = self.message(digits)
            out.append((a, c))
        return out

    def scan(self, r: int, budget: int) -> tuple[int, tuple]:
        """(d_r, witness): exhaustive maximum of the defect over r-dim
        subspaces; the first maximiser in enumeration order is the witness."""
        n, order = self.n, self.field.order
        if not 1 <= r <= n:
            raise ParameterError(f"need 1 <= r <= {n}")
        count = gaussian_binomial(n, r, order)
        if count > budget:
            raise BudgetError(
                count, budget, f"subspace enumeration [{n} choose {r}]_{order}"
            )
        best, witness = -1, None
        for rows in subspace_bases(n, r, self.field):
            d = self.defect(rows)
            if d > best:
                best, witness = d, rows
        return self.spec.length * self.L - best, witness


@lru_cache(maxsize=None)
def _engine_cache(spec: CodeSpec) -> _ScanEngine:
    return _ScanEngine(spec, 1, (np.arange(spec.tower.q) == 0)[:, None])


def support_defect(spec: CodeSpec, rows) -> int:
    """N(H): evaluation points annihilated by every functional of the basis."""
    return _engine_cache(spec).defect(rows)


def support_defect_char(spec: CodeSpec, rows) -> int:
    """Audit route: recompute N(H) from the additive-character identity
    q**r * (N + [homogeneous]) = sum over H and all points of zeta**Tr(...)."""
    eng = _engine_cache(spec)
    tower = spec.tower
    Fq, Fq2 = tower.Fq, tower.Fq2
    p = tower.p
    prime = Fq.subfield_chain()[-1]
    trp = Fq.trace_table(prime)
    r = len(rows)
    counts = [0] * p
    for coeffs in itertools.product(range(Fq.order), repeat=r):
        a = b = c = 0
        for li, row in zip(coeffs, rows):
            if li:
                ai, bi, ci = eng.message(row)
                a = Fq.add(a, Fq.mul(li, ai))
                b = Fq2.add(b, Fq2.mul(Fq2.embed_from(Fq, li), bi))
                c = Fq.add(c, Fq.mul(li, ci))
        av = eng.mulq[a]
        bv = eng.addq[eng.trmat[b], c]
        grid = eng.addq[av[:, None], bv[None, :]]
        vals = np.asarray(trp, dtype=np.int64)[grid]
        for t in range(p):
            counts[t] += int((eng.hq[:, None] * (vals == t)).sum())
    total = cyc_from_trace_counts(p, counts)
    n = total.as_int()
    assert n % Fq.order**r == 0
    n //= Fq.order**r
    return n - 1 if spec.variant is Variant.HOMOGENEOUS else n


def support_defect_closed(spec: CodeSpec, rows) -> int:
    """Per-subspace closed form.

    Homogeneous: q**(M-r) * (eps*t*q**(-r_Q/2) + 1) - 1 for even rank with
    t = (q-1) exactly when (1, 0) lies in the subspace, else t = 0; constant
    q**(M-r) - 1 for odd rank.

    Affine: the stratified sum over the b-part-zero elements, with
    t1 = #(a,0,0), t2 = #(a,0,c): ac != 0, t3 = #(0,0,c): c != 0, and the
    character-weighted sum over the t2 stratum for odd rank.
    """
    tower = spec.tower
    Fq = tower.Fq
    q, M = tower.q, tower.M
    an = spec.analysis
    r_q, eps = an.r_q, an.eps
    r = len(rows)
    qMr = Fraction(q) ** (M - r)
    if spec.variant is Variant.HOMOGENEOUS and r_q % 2 != 0:
        return int(qMr) - 1
    W = _engine_cache(spec).b_part_zero_span(rows)
    if spec.variant is Variant.HOMOGENEOUS:
        # W holds the elements (a, 0) of H: all q of them when (1, 0) is in H
        t = sum(1 for a, _ in W if a != 0)
        val = qMr * (1 + Fraction(eps * t, q ** (r_q // 2)))
        assert val.denominator == 1
        return int(val) - 1
    t1 = sum(1 for a, c in W if a != 0 and c == 0)
    t2 = sum(1 for a, c in W if a != 0 and c != 0)
    t3 = sum(1 for a, c in W if a == 0 and c != 0)
    if r_q % 2 == 0:
        val = qMr * (1 - Fraction(t3, q - 1)) + eps * qMr * Fraction(
            1, q ** (r_q // 2)
        ) * (t1 - Fraction(t2, q - 1))
    else:
        s = sum(Fq.eta(Fq.mul(a, c)) for a, c in W if a != 0 and c != 0)
        val = qMr * (1 - Fraction(t3, q - 1)) + eps * qMr * Fraction(q) ** (
            (1 - r_q) // 2
        ) * Fraction(s, q - 1)
    assert val.denominator == 1 and val >= 0, val
    return int(val)


# ---------------------------------------------------------------------------
# hierarchy computation
# ---------------------------------------------------------------------------


def ghw_brute(
    spec: CodeSpec,
    r: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple]:
    """(d_r, witness): exhaustive maximum of N(H) over canonical subspaces."""
    return _engine_cache(spec).scan(r, budget)


def ghw_closed(spec: CodeSpec, r: int) -> int:
    """Closed-form case evaluation of d_r; asserts integrality."""
    tower = spec.tower
    q, M = tower.q, tower.M
    an = spec.analysis
    r_q, eps = an.r_q, an.eps
    k = spec.dimension
    if not 1 <= r <= k:
        raise ParameterError(f"need 1 <= r <= {k}")
    qMr = Fraction(q) ** (M - r)
    if spec.variant is Variant.HOMOGENEOUS:
        if r_q % 2 == 0 and eps == 1:
            val = qMr * (q**r - 1 - Fraction(q - 1, q ** (r_q // 2)))
        elif r_q % 2 == 0:
            if r < k:
                val = qMr * (q**r - 1)
            else:
                val = qMr * (q**r - 1 + Fraction(q - 1, q ** (r_q // 2)))
        else:
            val = qMr * (q**r - 1)
    else:
        if r == k:
            val = Fraction(q**M)
        elif r_q % 2 == 0 and eps == 1:
            val = qMr * (q**r - 1 - Fraction(q - 1, q ** (r_q // 2)))
        elif r_q % 2 == 0:
            val = qMr * (q**r - 1 - Fraction(1, q ** (r_q // 2)))
        else:
            val = qMr * (q**r - 1 - Fraction(q) ** ((1 - r_q) // 2))
    assert val.denominator == 1 and val > 0, val
    return int(val)


@dataclass(frozen=True)
class GhwRow:
    r: int
    d_closed: int
    d_brute: int | None
    reference: int | None
    witness: tuple | None
    note: str = ""

    @property
    def agree(self) -> bool:
        vals = {self.d_closed}
        if self.d_brute is not None:
            vals.add(self.d_brute)
        if self.reference is not None:
            vals.add(self.reference)
        return len(vals) == 1

    @property
    def resolved(self) -> int:
        """Brute force arbitrates when present."""
        return self.d_brute if self.d_brute is not None else self.d_closed


@dataclass(frozen=True)
class GhwReport:
    spec: CodeSpec
    rows: tuple[GhwRow, ...] = field(default_factory=tuple)

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    @property
    def disagreements(self) -> list[GhwRow]:
        return [row for row in self.rows if not row.agree]

    def resolved_hierarchy(self) -> list[int]:
        return [row.resolved for row in self.rows]

    def strictly_increasing(self) -> bool:
        vals = self.resolved_hierarchy()
        return all(a < b for a, b in zip(vals, vals[1:]))


def hierarchy(
    spec: CodeSpec,
    r_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    reference_values: dict[int, int] | None = None,
) -> GhwReport:
    """Full table r = 1..k of closed vs brute values; never reconciles."""
    k = spec.dimension
    r_max = k if r_max is None else min(r_max, k)
    reference_values = reference_values or {}
    rows = []
    for r in range(1, r_max + 1):
        d_closed = ghw_closed(spec, r)
        note = ""
        try:
            d_brute, witness = ghw_brute(spec, r, budget=budget)
        except BudgetError as e:
            d_brute, witness = None, None
            note = str(e)
        rows.append(
            GhwRow(
                r=r,
                d_closed=d_closed,
                d_brute=d_brute,
                reference=reference_values.get(r),
                witness=witness,
                note=note,
            )
        )
    return GhwReport(spec=spec, rows=tuple(rows))
