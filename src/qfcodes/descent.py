"""Descent of the F_q code families to F_p via trace columns.

For an admissible N (dividing p - 1 and coprime to (q-1)/(p-1)), fix theta
of multiplicative order (q-1)/N; each F_q symbol gamma becomes the column of
prime traces of gamma * theta**i.  A source codeword of length n turns into
an F_p matrix codeword, flattened coordinate-major (the column index i
varies fastest within a source coordinate).

Both admissibility conditions are enforced at construction: dropping the
coprimality requirement breaks the constant-weight property of the column
code (the trace kernel then sits inside a single square class), and with it
every downstream weight and hierarchy formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .codes import CodeSpec, Variant, WeightDistribution, cwe_brute, codeword, \
    weight_distribution_predicted
from .cyclotomic import CycInt, cyc_from_trace_counts, eta_twisted_sum_brute
from .errors import BudgetError, DEFAULT_BUDGET, ParameterError
from .fields import Elem, FieldTower
from .ghw import GhwReport, GhwRow, _ScanEngine, row_to_message

__all__ = [
    "DescentParams",
    "make_descent",
    "psi",
    "psi_weight_table",
    "DescendedCode",
    "descend",
    "descended_wd",
    "orbit_check",
    "OrbitCheckResult",
    "char_identity_check",
    "IdentityCheckResult",
    "descended_ghw_closed",
    "descended_ghw_brute",
    "descended_support_defect_closed",
    "descended_hierarchy",
]


@dataclass(frozen=True)
class DescentParams:
    tower: FieldTower
    N: int
    theta: Elem

    @property
    def L(self) -> int:
        """Column length (q - 1) / N."""
        return (self.tower.q - 1) // self.N

    @property
    def column_weight(self) -> int:
        """(p - 1) * p**(m-1) / N, the weight of every nonzero column."""
        p, m = self.tower.p, self.tower.m
        return (p - 1) * p ** (m - 1) // self.N


def _mult_order(field, idx: int) -> int:
    k, v = 1, idx
    while v != 1:
        v = field.mul(v, idx)
        k += 1
        if k > field.order:
            raise ArithmeticError("order computation ran away")
    return k


def make_descent(tower: FieldTower, N: int, theta: Elem | None = None) -> DescentParams:
    """Validate N, pin theta = g**N (or a certified override)."""
    p, q = tower.p, tower.q
    if N < 1 or (p - 1) % N != 0:
        raise ParameterError(f"N = {N} does not divide p - 1 = {p - 1}")
    ratio = (q - 1) // (p - 1)
    if gcd(N, ratio) != 1:
        raise ParameterError(
            f"N = {N} is not coprime to (q-1)/(p-1) = {ratio} "
            f"(gcd = {gcd(N, ratio)})"
        )
    Fq = tower.Fq
    L = (q - 1) // N
    if theta is None:
        theta = Elem(Fq, Fq.pow(Fq.gen, N))
    else:
        if theta.field is not Fq:
            raise ParameterError("theta override must lie in F_q")
    if theta.idx == 0 or _mult_order(Fq, theta.idx) != L:
        raise ParameterError(
            f"theta must have multiplicative order (q-1)/N = {L}"
        )
    return DescentParams(tower=tower, N=N, theta=theta)


# ---------------------------------------------------------------------------
# the column map psi
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_tables(params: DescentParams):
    """(psi columns as an array of F_p indices, per-symbol column weights,
    zero-trace mask Z[w, i])."""
    tower = params.tower
    Fq, Fp = tower.Fq, tower.Fp
    L = params.L
    trp = Fq.trace_table(Fp) if Fq is not Fp else None
    cols = np.zeros((Fq.order, L), dtype=np.int16)
    th = params.theta.idx
    for g in range(Fq.order):
        w = g
        for i in range(L):
            cols[g, i] = int(trp[w]) if trp is not None else w
            w = Fq.mul(w, th)
    cols.setflags(write=False)
    wts = (cols != 0).sum(axis=1).astype(np.int64)
    wts.setflags(write=False)
    zmask = cols == 0
    zmask.setflags(write=False)
    return cols, wts, zmask


def psi(params: DescentParams, gamma: Elem) -> tuple[int, ...]:
    """The trace column of gamma, as F_p indices of length (q-1)/N."""
    if gamma.field is not params.tower.Fq:
        raise ParameterError("psi argument must lie in F_q")
    cols, _, _ = _psi_tables(params)
    return tuple(int(v) for v in cols[gamma.idx])


def psi_weight_table(params: DescentParams) -> list[int]:
    """Hamming weight of psi per source symbol, by enumeration."""
    _, wts, _ = _psi_tables(params)
    return [int(w) for w in wts]


# ---------------------------------------------------------------------------
# the descended codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescendedCode:
    source: CodeSpec
    params: DescentParams
    dimension: int  # over F_p, verified by rank at construction

    @property
    def length(self) -> int:
        return self.source.length * self.params.L

    @property
    def expected_dimension(self) -> int:
        return self.source.dimension * self.params.tower.m

    def codeword(self, a: Elem, b: Elem, c: Elem | None = None) -> list[int]:
        """Flattened matrix codeword (column index fastest)."""
        cols, _, _ = _psi_tables(self.params)
        src = codeword(self.source, a, b, c)
        out = []
        for s in src:
            out.extend(int(v) for v in cols[s])
        return out


def _rank_mod_p(p: int, mat: np.ndarray) -> int:
    A = mat.astype(np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if A[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
    return r


def _message_space_dim(spec: CodeSpec) -> int:
    return spec.dimension * spec.tower.m


def descend(spec: CodeSpec, params: DescentParams) -> DescendedCode:
    """Map the source code through psi; the F_p dimension is certified by the
    rank of the images of an F_p-basis of the message space."""
    if params.tower is not spec.tower:
        raise ParameterError("descent parameters built for a different tower")
    tower = spec.tower
    n_p = _message_space_dim(spec)
    cols, _, _ = _psi_tables(params)
    rows = []
    for k in range(n_p):
        digits = [0] * n_p
        digits[k] = 1
        a, b, c = row_to_message(spec, digits, tower.m)
        src = codeword(
            spec,
            Elem(tower.Fq, a),
            Elem(tower.Fq2, b),
            Elem(tower.Fq, c) if spec.variant is Variant.AFFINE else None,
        )
        rows.append(cols[np.asarray(src)].reshape(-1))
    rank = _rank_mod_p(tower.p, np.vstack(rows))
    if rank != n_p:
        raise ArithmeticError(
            f"descended rank {rank} != m * k = {n_p}; descent is not injective"
        )
    return DescendedCode(source=spec, params=params, dimension=rank)


def descended_wd(
    spec: CodeSpec,
    params: DescentParams,
    mode: str = "brute",
    budget: int = DEFAULT_BUDGET,
) -> WeightDistribution:
    """Weight distribution of the descended code.

    ``predicted`` scales every source weight by the constant column weight;
    ``brute`` sums actual per-symbol column weights over each codeword's
    composition, so the two routes genuinely differ.
    """
    if mode == "predicted":
        w = params.column_weight
        src = weight_distribution_predicted(spec)
        return WeightDistribution({wt * w: f for wt, f in src.items()})
    if mode != "brute":
        raise ParameterError(f"unknown mode {mode!r}")
    wts = psi_weight_table(params)
    omega = spec.tower.Fq.omega
    out: dict[int, int] = {}
    for comp, mult in cwe_brute(spec, budget=budget).items():
        w = sum(comp[j] * wts[omega[j]] for j in range(len(comp)))
        out[w] = out.get(w, 0) + mult
    return WeightDistribution(out)


# ---------------------------------------------------------------------------
# group action and character identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCheckResult:
    stabilizer_size: int
    expected_stabilizer: int
    orbit_count: int

    @property
    def transitive(self) -> bool:
        return self.orbit_count == 1

    @property
    def ok(self) -> bool:
        return self.transitive and self.stabilizer_size == self.expected_stabilizer


def orbit_check(params: DescentParams) -> OrbitCheckResult:
    """Enumerate F_p* acting on the cosets of <theta> in F_q*."""
    tower = params.tower
    Fq, Fp = tower.Fq, tower.Fp
    H = set()
    v = 1
    for _ in range(params.L):
        H.add(v)
        v = Fq.mul(v, params.theta.idx)
    lambdas = [Fq.embed_from(Fp, i) for i in range(1, tower.p)]
    stab = sum(1 for lam in lambdas if lam in H)
    # cosets by exhaustive labelling
    coset_of: dict[int, int] = {}
    labels = 0
    for x in range(1, Fq.order):
        if x in coset_of:
            continue
        for h in H:
            coset_of[Fq.mul(x, h)] = labels
        labels += 1
    seen = set()
    orbits = 0
    for x in range(1, Fq.order):
        cl = coset_of[x]
        if cl in seen:
            continue
        orbits += 1
        stack = [x]
        while stack:
            y = stack.pop()
            if coset_of[y] in seen:
                continue
            seen.add(coset_of[y])
            for lam in lambdas:
                z = Fq.mul(lam, y)
                if coset_of[z] not in seen:
                    stack.append(z)
    return OrbitCheckResult(
        stabilizer_size=stab,
        expected_stabilizer=(tower.p - 1) // params.N,
        orbit_count=orbits,
    )


@dataclass(frozen=True)
class IdentityCheckResult:
    plain_lhs: CycInt
    plain_rhs: CycInt
    twisted_lhs: CycInt
    twisted_rhs: CycInt

    @property
    def plain_ok(self) -> bool:
        return self.plain_lhs == self.plain_rhs

    @property
    def twisted_ok(self) -> bool:
        return self.twisted_lhs == self.twisted_rhs

    @property
    def ok(self) -> bool:
        return self.plain_ok and self.twisted_ok


def char_identity_check(params: DescentParams, c: Elem, a: Elem) -> IdentityCheckResult:
    """Both coset character identities, compared exactly in Z[zeta_p]."""
    tower = params.tower
    Fq, Fp = tower.Fq, tower.Fp
    if c.field is not Fq or a.field is not Fq or c.idx == 0 or a.idx == 0:
        raise ParameterError("need c, a in F_q*")
    p = tower.p
    trp = Fq.trace_table(Fp) if Fq is not Fp else None
    th = params.theta.idx
    plain = [0] * p
    twisted_pos = [0] * p
    twisted_neg = [0] * p
    for lam_p in range(1, p):
        lam = Fq.embed_from(Fp, lam_p)
        v = Fq.mul(lam, c.idx)
        u = Fq.mul(lam, a.idx)
        for _ in range(params.L):
            t = int(trp[v]) if trp is not None else v
            plain[t] += 1
            if Fq.eta(u) == 1:
                twisted_pos[t] += 1
            else:
                twisted_neg[t] += 1
            v = Fq.mul(v, th)
            u = Fq.mul(u, th)
    plain_lhs = cyc_from_trace_counts(p, plain)
    plain_rhs = CycInt.from_int(p, -(p - 1) // params.N)
    twisted_lhs = cyc_from_trace_counts(p, twisted_pos) - cyc_from_trace_counts(
        p, twisted_neg
    )
    g1 = eta_twisted_sum_brute(Fq, 1, Fq.one)
    eta_ac = Fq.eta(Fq.mul(a.idx, c.idx))
    twisted_rhs = g1 * (eta_ac * (p - 1) // params.N)
    return IdentityCheckResult(plain_lhs, plain_rhs, twisted_lhs, twisted_rhs)


# ---------------------------------------------------------------------------
# descended weight hierarchies
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _descent_engine(spec: CodeSpec, params: DescentParams) -> _ScanEngine:
    """The subspace scan over F_p digit rows, with the trace-column axis."""
    return _ScanEngine(spec, spec.tower.m, _psi_tables(params)[2])


def descended_support_defect(spec: CodeSpec, params: DescentParams, rows) -> int:
    return _descent_engine(spec, params).defect(rows)


def descended_support_defect_closed(
    spec: CodeSpec, params: DescentParams, rows
) -> int:
    """Per-subspace closed form for N(V), from the stratified proof sums."""
    tower = spec.tower
    Fq = tower.Fq
    q, M, p, N = tower.q, tower.M, tower.p, params.N
    an = spec.analysis
    r_q, eps = an.r_q, an.eps
    r = len(rows)
    W = _descent_engine(spec, params).b_part_zero_span(rows)
    if spec.variant is Variant.HOMOGENEOUS:
        L = Fraction(q - 1, N)
        base = L * Fraction(q**M, p**r)
        if r_q % 2 == 0:
            t = sum(1 for a, _ in W if a != 0)
            val = base * (1 + Fraction(eps * t, q ** (r_q // 2))) - L
        else:
            val = base - L
    else:
        t1 = sum(1 for a, c in W if a != 0 and c == 0)
        t2 = sum(1 for a, c in W if a != 0 and c != 0)
        t3 = sum(1 for a, c in W if a == 0 and c != 0)
        G = Fraction(q**M, p**r * N)
        if r_q % 2 == 0:
            val = G * (
                Fraction(eps * ((q - 1) * t1 - t2), q ** (r_q // 2)) + q - 1 - t3
            )
        else:
            s = sum(Fq.eta(Fq.mul(a, c)) for a, c in W if a != 0 and c != 0)
            val = G * (
                eps * s * Fraction(q) ** ((1 - r_q) // 2) + q - 1 - t3
            )
    assert val.denominator == 1 and val >= 0, val
    return int(val)


def descended_ghw_brute(
    spec: CodeSpec,
    params: DescentParams,
    r: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple]:
    """(d_r, witness) over all F_p-subspaces of the message space."""
    return _descent_engine(spec, params).scan(r, budget)


def descended_ghw_closed(spec: CodeSpec, params: DescentParams, r: int) -> int:
    """Closed-form case d_r for the descended code; asserts integrality."""
    tower = spec.tower
    q, M, p, N = tower.q, tower.M, tower.p, params.N
    m, m2 = tower.m, tower.m2
    an = spec.analysis
    r_q, eps = an.r_q, an.eps
    n_p = _message_space_dim(spec)
    if not 1 <= r <= n_p:
        raise ParameterError(f"need 1 <= r <= {n_p}")
    rq2 = Fraction(1, q ** (r_q // 2)) if r_q % 2 == 0 else None
    odd_pow = Fraction(q) ** ((1 - r_q) // 2) if r_q % 2 == 1 else None
    if spec.variant is Variant.HOMOGENEOUS:
        F = Fraction(q**M * (q - 1), p**r * N)
        if r_q % 2 == 0 and eps == 1:
            val = F * (p**r - 1) * (1 - rq2) if r <= m else F * (
                p**r - 1 - rq2 * (q - 1)
            )
        elif r_q % 2 == 0:
            if r <= m * m2:
                val = F * (p**r - 1)
            else:
                val = F * (p**r - 1 + rq2 * (p ** (r - m * m2) - 1))
        else:
            val = F * (p**r - 1)
    else:
        G = Fraction(q**M, p**r * N)
        top = m * (m2 + 1)
        if r_q % 2 == 0 and eps == 1:
            if r <= m:
                val = G * (q - 1) * (p**r - 1) * (1 - rq2)
            elif r <= top:
                val = G * (q - 1) * (p**r - 1 - rq2 * (q - 1))
            else:
                val = G * (
                    p**r * (q - 1)
                    - (q - p ** (r - top)) * (1 + rq2 * (q - 1))
                )
        elif r_q % 2 == 0:
            if r <= m:
                val = G * (p**r - 1) * (q - 1 - rq2)
            elif r <= top:
                val = G * (q - 1) * (p**r - 1 - rq2)
            else:
                val = G * (p**r * (q - 1) - (q - p ** (r - top)) * (1 + rq2))
        else:
            if r <= m:
                val = G * (p**r - 1) * (q - 1 - odd_pow)
            elif r <= top:
                val = G * (q - 1) * (p**r - 1 - odd_pow)
            else:
                val = G * (p**r * (q - 1) - (q - p ** (r - top)) * (1 + odd_pow))
    assert val.denominator == 1 and val > 0, val
    return int(val)


def _optimizer_attains(spec: CodeSpec, params: DescentParams, r: int, d_closed: int) -> bool:
    """For the affine case r > m(m2+1), even rank, build the optimizing
    subspace named in the proof and confirm its defect reaches
    length - d_closed."""
    tower = spec.tower
    m, m2 = tower.m, tower.m2
    top = m * (m2 + 1)
    if spec.variant is not Variant.AFFINE or r <= top:
        return True
    n_p = _message_space_dim(spec)
    extra = r - top
    c_off = m + m2 * m

    def unit(k):
        digits = [0] * n_p
        digits[k] = 1
        return digits

    rows = []
    if spec.analysis.eps == 1:
        # the whole (a, b) block plus extra c digits
        for k in range(top):
            rows.append(tuple(unit(k)))
        for k in range(extra):
            rows.append(tuple(unit(c_off + k)))
    else:
        # b block, the diagonal rows (a_i, 0, c_i), and extra c digits
        for k in range(m2 * m):
            rows.append(tuple(unit(m + k)))
        for k in range(m):
            digits = unit(k)
            digits[c_off + k] = 1
            rows.append(tuple(digits))
        for k in range(extra):
            rows.append(tuple(unit(c_off + k)))
    n_v = descended_support_defect_closed(spec, params, tuple(rows))
    return spec.length * params.L - n_v == d_closed


def descended_hierarchy(
    spec: CodeSpec,
    params: DescentParams,
    r_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GhwReport:
    """Closed vs brute table for the descended code."""
    an = spec.analysis
    n_p = _message_space_dim(spec)
    r_max = n_p if r_max is None else min(r_max, n_p)
    top = spec.tower.m * (spec.tower.m2 + 1)
    rows = []
    for r in range(1, r_max + 1):
        d_closed = descended_ghw_closed(spec, params, r)
        note = ""
        if spec.variant is Variant.AFFINE and r > top:
            if an.r_q % 2 == 1:
                note = "case r > m(m2+1), odd rank: closed form needs brute confirmation"
            elif not _optimizer_attains(spec, params, r, d_closed):
                note = "optimizing subspace does not attain the closed value"
        try:
            d_brute, witness = descended_ghw_brute(spec, params, r, budget=budget)
        except BudgetError as e:
            d_brute, witness = None, None
            note = (note + "; " if note else "") + str(e)
        rows.append(
            GhwRow(
                r=r,
                d_closed=d_closed,
                d_brute=d_brute,
                reference=None,
                witness=witness,
                note=note,
            )
        )
    return GhwReport(spec=spec, rows=tuple(rows))
