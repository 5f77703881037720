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

The descent's closed forms are ``ghw``'s (``closed_ghw``, ``closed_defect``)
read in the frame (F_p, m, N); the F_q code is the frame (F_q, 1, q - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd

import numpy as np

from . import linalg
from .codes import CodeSpec, Variant, WeightDistribution, cwe_brute, codeword, \
    weight_distribution_predicted
from .cyclotomic import CycInt, cyc_from_trace_counts, eta_twisted_sum_brute
from .errors import ParameterError, charge
from .fields import Elem, FieldTower, digits
from .ghw import GhwReport, _quotient, closed_defect, closed_ghw, message_dim, point_count
from .ghw import scan, tabulate

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
        g * theta**i, i < L, as F_p indices; charged one step per cell."""
        Fq, th = self.tower.Fq, self.theta.idx
        charge(Fq.order * self.L, "the trace columns psi")
        traces = [Fq.trace_row(Fq.pow(th, i), self.tower.Fp) for i in range(self.L)]
        cols = np.zeros((Fq.order, self.L), dtype=np.int16)
        cols[Fq.omega] = np.stack(traces, axis=1)  # rows in omega order
        cols.setflags(write=False)
        return cols

    @cached_property
    def orbit(self) -> np.ndarray:
        """The (p - 1) L products o = lam * theta**i (lam in F_p*, i < L), as
        F_q indices (read-only): F_p* and <theta> acting on F_q* at once."""
        Fq, n1 = self.tower.Fq, self.tower.q - 1
        thetas = Fq.omega[1 + np.arange(self.L) * Fq.log(self.theta.idx) % n1]  # theta**i
        out = Fq.mul(np.arange(1, self.tower.p)[:, None], thetas).reshape(-1)
        out.setflags(write=False)
        return out

    @cached_property
    def orbit_traces(self) -> np.ndarray:
        """``K[c, s, t]``: how many o in ``orbit`` have Tr_{q/p}(o c) = t and
        eta(o) = 1 (s = 0) or -1 (s = 1), every c in F_q: one count over the
        flat cell index of (c, s, t), charged one step per product o c."""
        Fq, p, o = self.tower.Fq, self.tower.p, self.orbit
        charge(Fq.order * len(o), "the orbit traces")
        t = Fq.trace_table(self.tower.Fp)[Fq.mul(np.arange(Fq.order)[:, None], o)]
        cells = (np.arange(Fq.order)[:, None] * 2 + (Fq.etas[o] < 0)) * p + t
        K = np.bincount(cells.reshape(-1), minlength=Fq.order * 2 * p).reshape(Fq.order, 2, p)
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
    f = _quotient(spec, params)
    support = digits(np.flatnonzero(f.mu), Fp.order, f.k)
    rank = linalg.rank(Fp, support) + n_p - f.k
    if rank != n_p:
        raise ArithmeticError(
            f"descended rank {rank} != m * k = {n_p}; descent is not injective"
        )
    return DescendedCode(source=spec, params=params, dimension=rank)


def descended_wd(
    spec: CodeSpec, params: DescentParams, mode: str = "brute"
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
    return WeightDistribution.summed(
        (sum(n * wts[omega[j]] for j, n in enumerate(comp)), mult)
        for comp, mult in cwe_brute(spec).items()
    )


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
    """Enumerate F_p* acting on the cosets of <theta> in F_q*: lam fixes them
    iff lam * theta**i = 1 for some i, and the orbits are the classes x G of
    the group G = ``params.orbit``, each labelled by its least index (one
    step charged per product x o)."""
    Fq, o = params.tower.Fq, params.orbit
    charge(Fq.order * len(o), "the orbit labels")
    labels = Fq.mul(np.arange(1, Fq.order)[:, None], o).min(axis=1)
    return OrbitCheckResult(
        stabilizer_size=int(np.count_nonzero(o == 1)),
        expected_stabilizer=(params.tower.p - 1) // params.N,
        orbit_count=int(np.count_nonzero(np.bincount(labels))),
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
    K, eta = params.orbit_traces[c], Fq.etas
    lhs = np.stack([K[:, 0] + K[:, 1], eta[a][:, None] * (K[:, 0] - K[:, 1])], axis=1)
    rhs = np.zeros((len(c), 2, p - 1), dtype=object)
    rhs[:, 0, 0] = -(p - 1) // N
    g1 = np.array(eta_twisted_sum_brute(Fq, 1, Fq.one).coords, dtype=object)
    rhs[:, 1] = (eta[Fq.mul(a, c)] * (p - 1) // N).astype(object)[:, None] * g1
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


def descended_support_defect_closed(spec: CodeSpec, params: DescentParams, rows) -> int:
    """Per-subspace closed form for N(V): ``closed_defect`` at (F_p, m, N)."""
    return closed_defect(spec, params, rows)


def descended_ghw_brute(spec: CodeSpec, params: DescentParams, r: int) -> tuple[int, tuple]:
    """(d_r, witness) over all F_p-subspaces of the message space."""
    return scan(spec, params, r)


def descended_ghw_closed(spec: CodeSpec, params: DescentParams, r: int) -> int:
    """Closed-form d_r of the descended code: ``closed_ghw`` at (F_p, m, N)."""
    return closed_ghw(spec, params, r)


def _optimizer_attains(spec: CodeSpec, params: DescentParams, r: int, d_closed: int) -> bool:
    """For the affine case r > m(m2+1), even rank, build the optimizing
    subspace named in the proof and confirm its defect reaches
    length - d_closed."""
    a, b, c = spec.blocks(spec.tower.m)
    if spec.variant is not Variant.AFFINE or r <= c.start:
        return True
    eye = np.eye(message_dim(spec, params), dtype=np.int64)
    extra = eye[c.start : r]  # the first r - m(m2+1) digits of c
    if spec.analysis.eps == 1:
        rows = np.vstack([eye[a], eye[b], extra])  # the whole (a, b) block
    else:
        # the b block, the diagonal rows (a_i, 0, c_i), and the extra digits
        rows = np.vstack([eye[b], eye[a] + eye[c], extra])
    n_v = descended_support_defect_closed(spec, params, rows)
    return spec.length * params.L - n_v == d_closed


def descended_hierarchy(
    spec: CodeSpec, params: DescentParams, r_max: int | None = None
) -> GhwReport:
    """Closed vs brute table for the descended code."""
    n_p = message_dim(spec, params)
    top = spec.blocks(spec.tower.m)[1].stop  # the end of the b block

    def note(r: int, d_closed: int) -> str:
        if spec.variant is Variant.AFFINE and top < r < n_p and spec.analysis.r_q % 2 == 1:
            return "case r > m(m2+1), odd rank: closed form needs brute confirmation"
        if not _optimizer_attains(spec, params, r, d_closed):
            return "optimizing subspace does not attain the closed value"
        return ""

    brute = partial(descended_ghw_brute, spec, params)
    closed = partial(descended_ghw_closed, spec, params)
    return tabulate(spec, n_p if r_max is None else min(r_max, n_p), brute, closed, note)
