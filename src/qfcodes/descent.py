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

The scan and ``descend``'s rank check read the descended code only through
its quotient multiset (``ghw._quotient``): the value histogram pushed
forward through the trace columns, at most q**2 cells, never its generator
matrix or a multiset over F_p**k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd

import numpy as np

from . import linalg
from .codes import CodeSpec, Variant, WeightDistribution, cwe_brute, codeword, \
    weight_distribution_predicted
from .cyclotomic import CycInt, _etas, cyc_from_trace_counts, eta_twisted_sum_brute
from .errors import DEFAULT_BUDGET, ParameterError
from .fields import Elem, FieldTower
from .ghw import GhwReport, _exact, _quotient, b_part_zero_span, message_dim, point_count
from .ghw import scan, strata, tabulate

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
    "char_identity_checks",
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

    @cached_property
    def columns(self) -> np.ndarray:
        """psi of every F_q symbol g: row g holds the prime traces of
        g * theta**i, i < L, as F_p indices."""
        Fq, th = self.tower.Fq, self.theta.idx
        traces = [Fq.trace_row(Fq.pow(th, i), self.tower.Fp) for i in range(self.L)]
        cols = np.zeros((Fq.order, self.L), dtype=np.int16)
        cols[Fq.omega] = np.stack(traces, axis=1)  # rows in omega order
        cols.setflags(write=False)
        return cols

    @cached_property
    def orbit_traces(self) -> np.ndarray:
        """``K[c, s, t]``: how many o = lam * theta**i (lam in F_p*, i < L) have
        Tr_{q/p}(o c) = t and eta(o) = 1 (s = 0) or -1 (s = 1), every c in F_q."""
        Fq, Fp = self.tower.Fq, self.tower.Fp
        mul, trace = Fq.op_table("mul"), Fq.trace_table(Fp)
        K, rows = np.zeros((Fq.order, 2, Fp.order), dtype=np.int64), np.arange(Fq.order)
        for lam in range(1, Fp.order):
            for i in range(self.L):
                o = Fq.mul(Fq.embed_from(Fp, lam), Fq.pow(self.theta.idx, i))
                K[rows, int(Fq.eta(o) == -1), trace[mul[o]]] += 1  # one cell per row
        K.setflags(write=False)
        return K


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
    if theta.idx == 0 or (q - 1) // gcd(Fq.log(theta.idx), q - 1) != L:
        raise ParameterError(
            f"theta must have multiplicative order (q-1)/N = {L}"
        )
    return DescentParams(tower=tower, N=N, theta=theta)


# ---------------------------------------------------------------------------
# the column map psi
# ---------------------------------------------------------------------------


def psi(params: DescentParams, gamma: Elem) -> tuple[int, ...]:
    """The trace column of gamma, as F_p indices of length (q-1)/N."""
    if gamma.field is not params.tower.Fq:
        raise ParameterError("psi argument must lie in F_q")
    return tuple(int(v) for v in params.columns[gamma.idx])


def psi_weight_table(params: DescentParams) -> list[int]:
    """Hamming weight of psi per source symbol, by enumeration."""
    return (params.columns != 0).sum(axis=1).tolist()


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
        src = codeword(self.source, a, b, c)
        return self.params.columns[src].reshape(-1).tolist()


def descend(spec: CodeSpec, params: DescentParams) -> DescendedCode:
    """Map the source code through psi; the F_p dimension is certified by the
    rank of the distinct columns: every w of the y block W occurs with every
    value of the quotient multiset f, so it is rank(supp f) + dim W."""
    if params.tower is not spec.tower:
        raise ParameterError("descent parameters built for a different tower")
    n_p, Fp = message_dim(spec, params), spec.tower.Fp
    f = _quotient(Fp, spec, params)
    support = np.flatnonzero(f.mu)[:, None] // Fp.order ** np.arange(f.k) % Fp.order
    rank = linalg.rank(Fp, support) + n_p - f.k
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


def char_identity_checks(params: DescentParams, c, a) -> tuple[np.ndarray, np.ndarray]:
    """Both coset character identities at each pair (c_i, a_i) of F_q*
    indices, for ``sums_agree``: the trace counts [i, (plain, twisted), t] of
    the left sides, read from the rows c of ``params.orbit_traces``
    (eta(o a) = eta(o) eta(a)), and the Z[zeta_p] coordinates of the right
    sides, with the brute g1 computed once."""
    Fq, p, N = params.tower.Fq, params.tower.p, params.N
    c, a = np.broadcast_arrays(np.atleast_1d(c), np.atleast_1d(a))
    if not (c.all() and a.all()):
        raise ParameterError("need c, a in F_q*")
    K, eta = params.orbit_traces[c], _etas(Fq)
    lhs = np.stack([K[:, 0] + K[:, 1], eta[a][:, None] * (K[:, 0] - K[:, 1])], axis=1)
    rhs = np.zeros((len(c), 2, p - 1), dtype=object)
    rhs[:, 0, 0] = -(p - 1) // N
    g1 = np.array(eta_twisted_sum_brute(Fq, 1, Fq.one).coords, dtype=object)
    rhs[:, 1] = (eta[Fq.op_table("mul")[a, c]] * (p - 1) // N).astype(object)[:, None] * g1
    return lhs, rhs


def char_identity_check(params: DescentParams, c: Elem, a: Elem) -> IdentityCheckResult:
    """Both coset character identities at one (c, a), compared exactly in
    Z[zeta_p]: the one-row ``char_identity_checks``."""
    Fq, p = params.tower.Fq, params.tower.p
    if c.field is not Fq or a.field is not Fq:
        raise ParameterError("need c, a in F_q*")
    (lhs,), (rhs,) = char_identity_checks(params, c.idx, a.idx)
    plain, twisted = (cyc_from_trace_counts(p, row.tolist()) for row in lhs)
    return IdentityCheckResult(plain, CycInt(p, rhs[0]), twisted, CycInt(p, rhs[1]))


# ---------------------------------------------------------------------------
# descended weight hierarchies
# ---------------------------------------------------------------------------


def descended_support_defect(spec: CodeSpec, params: DescentParams, rows) -> int:
    """Point count of N(V) over the descended generator matrix."""
    return point_count(spec, params, rows)


def descended_support_defect_closed(
    spec: CodeSpec, params: DescentParams, rows
) -> int:
    """Per-subspace closed form for N(V), from the stratified proof sums."""
    tower = spec.tower
    q, M, p, N = tower.q, tower.M, tower.p, params.N
    an = spec.analysis
    r_q, eps, h = an.r_q, an.eps, an.r_q // 2
    r = len(rows)
    W = b_part_zero_span(spec, rows, tower.Fp)
    if spec.variant is Variant.HOMOGENEOUS:
        t = sum(1 for a, _ in W if a != 0) if r_q % 2 == 0 else 0
        return (q - 1) // N * (_exact(q**M * (q**h + eps * t), p**r * q**h) - 1)
    t1, t2, t3, s = strata(tower.Fq, W)
    char = (q - 1) * t1 - t2 if r_q % 2 == 0 else s  # odd rank: q**((1-r_Q)/2) = q**-h
    return _exact(q**M * (eps * char + (q - 1 - t3) * q**h), p**r * N * q**h)


def descended_ghw_brute(
    spec: CodeSpec, params: DescentParams, r: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple]:
    """(d_r, witness) over all F_p-subspaces of the message space."""
    return scan(spec, params, r, budget)


def descended_ghw_closed(spec: CodeSpec, params: DescentParams, r: int) -> int:
    """Closed-form case d_r for the descended code; asserts integrality."""
    tower = spec.tower
    q, M, p, N = tower.q, tower.M, tower.p, params.N
    m, m2 = tower.m, tower.m2
    an = spec.analysis
    r_q, eps = an.r_q, an.eps
    n_p = message_dim(spec, params)
    if not 1 <= r <= n_p:
        raise ParameterError(f"need 1 <= r <= {n_p}")
    # every case is F times a value whose q**(-r_Q/2) or q**((1-r_Q)/2) term
    # clears over q**h, h = floor(r_Q / 2): F = q**M (q - 1) / (p**r N) for
    # the homogeneous code, q**M / (p**r N) for the affine one
    h, pr = r_q // 2, p**r
    if spec.variant is Variant.HOMOGENEOUS:
        base = (pr - 1) * q**h
        if r_q % 2 == 0 and eps == 1:
            base = (pr - 1) * (q**h - 1) if r <= m else base - (q - 1)
        elif r_q % 2 == 0 and r > m * m2:
            base += p ** (r - m * m2) - 1
        val = _exact(q**M * (q - 1) * base, pr * N * q**h)
    else:
        top = m * (m2 + 1)
        u = q - 1 if r_q % 2 == 0 and eps == 1 else 1  # numerator of the q**-h term
        if r <= m:
            base = (pr - 1) * ((q - 1) * q**h - u)
        elif r <= top:
            base = (q - 1) * ((pr - 1) * q**h - u)
        else:
            base = pr * (q - 1) * q**h - (q - p ** (r - top)) * (q**h + u)
        val = _exact(q**M * base, pr * N * q**h)
    assert val > 0, val
    return val


def _optimizer_attains(spec: CodeSpec, params: DescentParams, r: int, d_closed: int) -> bool:
    """For the affine case r > m(m2+1), even rank, build the optimizing
    subspace named in the proof and confirm its defect reaches
    length - d_closed."""
    tower = spec.tower
    m, m2 = tower.m, tower.m2
    top = m * (m2 + 1)
    if spec.variant is not Variant.AFFINE or r <= top:
        return True
    eye = np.eye(message_dim(spec, params), dtype=np.int64)
    extra = eye[top:r]  # r - top digits of c, whose block starts at top
    if spec.analysis.eps == 1:
        rows = np.vstack([eye[:top], extra])  # the whole (a, b) block
    else:
        # the b block, the diagonal rows (a_i, 0, c_i), and the extra digits
        rows = np.vstack([eye[m:top], eye[:m] + eye[top : top + m], extra])
    n_v = descended_support_defect_closed(spec, params, rows)
    return spec.length * params.L - n_v == d_closed


def descended_hierarchy(
    spec: CodeSpec,
    params: DescentParams,
    r_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GhwReport:
    """Closed vs brute table for the descended code."""
    n_p = message_dim(spec, params)
    top = spec.tower.m * (spec.tower.m2 + 1)

    def note(r: int, d_closed: int) -> str:
        if spec.variant is Variant.AFFINE and r > top and spec.analysis.r_q % 2 == 1:
            return "case r > m(m2+1), odd rank: closed form needs brute confirmation"
        if not _optimizer_attains(spec, params, r, d_closed):
            return "optimizing subspace does not attain the closed value"
        return ""

    brute = partial(descended_ghw_brute, spec, params, budget=budget)
    closed = partial(descended_ghw_closed, spec, params)
    return tabulate(spec, n_p if r_max is None else min(r_max, n_p), brute, closed, note)
