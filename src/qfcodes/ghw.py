"""Weight hierarchies: exhaustive subspace search and closed forms.

Subspaces of the message space are enumerated as reduced row-echelon bases
(pivot columns ascending, unit pivots, zeros above and below), one canonical
matrix per subspace, ordered lexicographically by pivot-column set and then
by the free entries; a row is a message in the format of ``codes``
(``CodeSpec.blocks``, ``CodeSpec.split``).  The support defect N(D) of a
subspace D counts the coordinates where every codeword of D vanishes; the
r-th generalized Hamming weight is the code length minus the maximum defect.

Four routes compute N(D):
* the scan (``ghw_brute``; production) sees only the field and the column
  multiset f of the quotient by the y block (``_quotient``, ``scan``), d <= 2
  blocks: one annihilator scan of F**d per dimension, (q**s - 1)/(q - 1)
  gathers from a table of F_q dot products per subspace, s = dim annihilator,
  charged as sum_j [d, j]_q subspaces and q**d cells; the witness is the
  quotient's first maximiser lifted to F**k, not a scan of F**k;
* the point count (``support_defect``; the tests' oracle): the basis rows
  times the generator matrix G, stacked from codewords, all-zero columns
  counted.  Only this oracle builds G;
* the closed forms (``closed_defect`` per subspace, ``closed_ghw`` for d_r;
  production), one formula per job for both code families, read in the
  frame (F, e, N) of ``_frame``: the F_q code is its own descent at
  (F_q, 1, q - 1), and its descent under ``params`` is at (F_p, m, N);
* the character sum (``support_defect_char``), an audit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import linalg
from .codes import CodeSpec, Variant, _codeword_array
from .cyclotomic import cyc_from_trace_counts
from .errors import BudgetError, ParameterError, charge
from .fields import Elem, FiniteField, _min_dtype, digits

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
    for pivots in itertools.combinations(range(n), r):
        for values in itertools.product(range(field.order), repeat=len(_free_cells(n, pivots))):
            yield _basis(n, pivots, values)


def row_to_message(spec: CodeSpec, row, field: FiniteField | None = None) -> tuple[int, int, int]:
    """Row of F_q indices (or of F_p digits, ``field`` = F_p) -> message
    (a, b, c) indices: ``CodeSpec.split`` of sum_t row_t |field|**t."""
    base = (field or spec.tower.Fq).order
    return spec.split(sum(int(d) * base**t for t, d in enumerate(row)))


def generator_matrix(spec: CodeSpec, params=None) -> np.ndarray:
    """Rows: the codewords of the k unit messages, as F_q indices.

    With descent ``params`` (``descent.DescentParams``) the rows are the
    psi-expanded codewords of the k*m unit digit messages, as F_p indices,
    flattened coordinate-major (the column index fastest).  The tests'
    independent oracle: no production path builds G.
    """
    Fq, Fq2 = spec.tower.Fq, spec.tower.Fq2
    field = _frame(spec, params)[0]
    affine = spec.variant is Variant.AFFINE
    words = []
    for unit in np.eye(message_dim(spec, params), dtype=np.int64):
        a, b, c = row_to_message(spec, unit, field)
        word = _codeword_array(
            spec, Elem(Fq, a), Elem(Fq2, b), Elem(Fq, c) if affine else None
        )
        words.append(word.astype(_min_dtype(Fq.order)))  # one int64 word alive at a time
    G = np.stack(words)
    if params is not None:
        G = params.columns[G].reshape(len(G), -1)
    return G


def _frame(spec: CodeSpec, params=None) -> tuple[FiniteField, int, int]:
    """(F, e, N): the field the code is read over, its digits per message
    coordinate and N, with (q - 1)/N trace columns per symbol.  The F_q code
    is its own descent at (F_q, 1, q - 1), one column per symbol; the descent
    under ``params`` (``descent.DescentParams``) is at (F_p, m, N)."""
    if params is None:
        return spec.tower.Fq, 1, spec.tower.q - 1
    return spec.tower.Fp, spec.tower.m, params.N


def message_dim(spec: CodeSpec, params=None) -> int:
    """Dimension of the message space over F_q, or over F_p for the descent."""
    return spec.dimension * _frame(spec, params)[1]


# ---------------------------------------------------------------------------
# the quotient scan
# ---------------------------------------------------------------------------

_CHUNK = 1 << 13  # span elements per numpy batch: bounds every temporary


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)  # cached: shared by every caller
    return table


@lru_cache(maxsize=None)
def _line_reps(q: int, s: int) -> np.ndarray:
    """Encodings of the (q**s - 1)/(q - 1) vectors of F_q**s whose last
    nonzero coordinate is 1, ascending: one vector per line."""
    lines = [q**t + np.arange(q**t) for t in range(s)]  # last nonzero at t
    return _frozen(np.concatenate([np.zeros(0, np.int64), *lines]))


@lru_cache(maxsize=None)
def _dot_table(F: FiniteField, s: int, lines: bool) -> np.ndarray:
    """table[v, j] = the index of v . w_j for v in F**s (an encoding), w_j
    the j-th of ``_line_reps`` (``lines``) or of all of F**s, summed from the
    field's op tables; read-only, in the smallest index dtype."""
    q = F.order
    add, mul = F.op_table("add"), F.op_table("mul")
    v = digits(np.arange(q**s), q, s)
    w = v[_line_reps(q, s)] if lines else v
    table = np.zeros((len(v), len(w)), dtype=np.int64)
    for i in range(s):
        table = add[table, mul[v[:, i, None], w[None, :, i]]]
    return _frozen(table.astype(_min_dtype(q)))


def _dots(F: FiniteField, V: np.ndarray, s: int, width: int) -> np.ndarray:
    """(..., L): the index of v . lam for each vector v in F**s of V (an
    encoding) and each lam of ``_line_reps``.  Past ``width`` coordinates the
    dot product is summed through the add table over blocks of at most
    ``width`` coordinates, so no table has more than q**(2 width) cells."""
    if s <= width:
        return _dot_table(F, s, True).take(V, axis=0)
    n, base = -(-s // width), F.order**width
    Vs, reps = digits(V, base, n), digits(_line_reps(F.order, s), base, n)
    out = 0
    for i in range(n):
        part = _dot_table(F, min(width, s - i * width), False).take(Vs[..., i], axis=0)
        out = F.op_table("add")[out, part[..., reps[:, i]]]
    return out


def _free_cells(k: int, pivots) -> list[tuple[int, int]]:
    """The free entries (row, column) of an RREF basis with these pivots, in
    ``subspace_bases`` order: the last one varies fastest."""
    return [(i, c) for i in range(len(pivots)) for c in range(pivots[i] + 1, k) if c not in pivots]


def _basis(k: int, pivots, values) -> tuple:
    """The RREF basis (tuple of row tuples) with these pivots and the free
    entries ``values``, in ``_free_cells`` order."""
    rows = [[0] * k for _ in pivots]
    for i, c in enumerate(pivots):
        rows[i][c] = 1
    for (i, c), v in zip(_free_cells(k, pivots), values):
        rows[i][c] = v
    return tuple(map(tuple, rows))


def _span_sums(F: FiniteField, k: int, r: int, table: np.ndarray):
    """Yield ``(pivots, t, S)`` chunk by chunk, in ``subspace_bases`` order:
    the free entries numbered t (its base-q digits, the last entry fastest)
    give RREF bases of r-dim subspaces D of F**k, and S the sums of
    ``table`` over one nonzero vector per line of the annihilator of D.

    The vector with coefficients lam (a line representative) is lam on the
    free columns and v_c . lam on each pivot column c, with v_c the row of R
    on the free columns, negated: a gather from the dot tables, no span is
    formed."""
    q = F.order
    s = k - r
    step = max(1, _CHUNK // q**s)
    lam = digits(_line_reps(q, s), q, s)  # (L, s)
    neg = F.op_table("sub")[0]
    for pivots in itertools.combinations(range(k), r):
        free = _free_cells(k, pivots)
        rest = [c for c in range(k) if c not in pivots]
        base = lam @ q ** np.array(rest, dtype=np.int64)  # lam on the free columns
        columns = q ** np.array(pivots, dtype=np.int64)
        to_v = np.zeros((len(free), r), dtype=np.int64)  # free digits -> v_c
        for n, (i, c) in enumerate(free):
            to_v[n, i] = q ** rest.index(c)
        for lo in range(0, q ** len(free), step):
            t = np.arange(lo, min(lo + step, q ** len(free)))
            V = neg[digits(t, q, len(free))[:, ::-1]] @ to_v
            enc = base + columns @ _dots(F, V, s, max(1, k // 2))
            yield pivots, t, table[enc].sum(axis=1)


class _Multiset:
    """A column multiset mu over F**k and what the scan derives from it,
    each built on first use and kept: mu* (read-only) and the maximum defect
    per r."""

    def __init__(self, F: FiniteField, k: int, mu):
        self.F, self.k = F, k
        self.mu = _frozen(np.array(mu, dtype=np.int64))
        self.n = int(self.mu.sum())
        self._best: dict[int, tuple[int, tuple]] = {}

    @cached_property
    def star(self) -> np.ndarray:
        """mu*(v) = sum over a in F* of mu(a v): v -> g v permutes F**k
        (g the field's generator), so mu* sums q - 1 gathers of mu."""
        q, k = self.F.order, self.k
        times_g = self.F.op_table("mul")[self.F.gen]
        perm = times_g[digits(np.arange(q**k), q, k)] @ q ** np.arange(k)
        star, cur = self.mu.copy(), self.mu
        for _ in range(q - 2):
            cur = cur[perm]  # cur(v) = mu(g**j v)
            star += cur
        return _frozen(star)

    def best(self, r: int) -> tuple[int, tuple]:
        """``_max_defect(self, r)``, computed once per r."""
        if r not in self._best:
            self._best[r] = _max_defect(self, r)
        return self._best[r]


def _max_defect(ms: _Multiset, r: int) -> tuple[int, tuple]:
    """(n - max N(D), first maximiser in enumeration order) over the r-dim
    subspaces D of F**k, from the field, k and the column multiset mu only.
    N(D) is the sum of mu over the annihilator of D (Tsfasman-Vladut): mu(0)
    plus mu* over its lines, (q**(k-r) - 1)/(q - 1) gathers from a dot
    table per subspace."""
    best, witness, k = -1, None, ms.k
    for pivots, t, S in _span_sums(ms.F, k, r, ms.star):
        i = int(S.argmax())
        if S[i] > best:
            values = digits(t[i], ms.F.order, len(_free_cells(k, pivots)))[::-1]
            best, witness = int(S[i]), _basis(k, pivots, values.tolist())
    return ms.n - int(ms.mu[0]) - best, witness


def scan(spec: CodeSpec, params, r: int) -> tuple[int, tuple]:
    """(d_r, witness) of the F_q code, or of its descent under ``params``.

    The column multiset is mu = f o pi - z delta_0 (``_quotient``), so an
    annihilator U of dim u = k - r has mu(U) = q**(u - j) f(pi U) - z with
    j = dim pi U (Tsfasman-Vladut), and d_r = q**(k-d) n_f - max over j of
    q**(u-j) F_j, F_j the maximum of f over the j-dim subspaces of F**d, for
    j from max(0, u - dim W) to min(d, u).  The witness is the quotient's
    first maximiser (reduced echelon) on pi's coordinates and the first
    r - d + j unit vectors of W: its annihilator is the best j-dim subspace
    lifted, plus the rest of W.  The two parts have disjoint supports, so
    the rows sorted by their pivots are the RREF."""
    F, e, _ = _frame(spec, params)
    k, q = spec.dimension * e, F.order
    if not 1 <= r <= k:
        raise ParameterError(f"need 1 <= r <= {k}")
    a, W, c = spec.blocks(e)
    kept, W = [*a, *c], list(W)  # pi keeps a and c; W is the y block b
    d, u = len(kept), k - r
    js = range(max(0, u - len(W)), min(d, u) + 1)
    count = sum(gaussian_binomial(d, j, q) for j in js)
    charge(count, f"subspace enumeration [{d} choose j]_{q}, j = {js[0]}..{js[-1]}")
    charge(q**d, f"column multiset over F_{q}^{d}")  # f, f* and each dot table
    ms = _quotient(spec, params)
    defect = {j: q ** (u - j) * (ms.n - ms.best(d - j)[0]) for j in js}
    j = max(js, key=defect.get)  # the first maximiser
    rows = np.zeros((r, k), dtype=np.int64)
    rows[: d - j, kept] = np.reshape(ms.best(d - j)[1], (d - j, d))
    rows[np.arange(d - j, r), W[: r - d + j]] = 1
    rows = rows[np.argsort((rows != 0).argmax(axis=1), kind="stable")]
    return q ** len(W) * ms.n - defect[j], tuple(map(tuple, rows.tolist()))


@lru_cache(maxsize=None)
def _quotient(spec: CodeSpec, params) -> _Multiset:
    """f over F**d, the column multiset of the quotient by the y block W.

    The column at (x, y) is (Q(x), Tr(e_t y) for the basis e_t of index
    q**(t-1), 1 for the affine code), and y -> (Tr(e_t y))_t is a bijection
    onto W: mu = f o pi - z delta_0 with f(v0, 1) = H[v0] (affine) or
    f = H (homogeneous), H the value histogram, and z = 1 for the
    homogeneous code, which drops the origin.  Under descent ``params`` the
    column (v, i) is sum_s q**s D_i[v_s], D_i[g] = sum_j Tr(theta**i b_j g)
    p**j, b_j of index p**j, a bijection on each block: f is pushed forward
    through every D_i (and z = L)."""
    F, e, _ = _frame(spec, params)
    Fq, q, d = spec.tower.Fq, spec.tower.q, 2 if spec.variant is Variant.AFFINE else 1
    f = np.zeros(q**d, dtype=np.int64)
    f.reshape(-1, q)[d - 1] = spec.analysis.form.value_histogram  # [c, v0]
    if params is not None:  # push f forward through every D_i
        beta = spec.tower.p ** np.arange(spec.tower.m)
        D = params.columns[Fq.op_table("mul")[beta]].astype(np.int64)  # (j, g, i)
        D = np.tensordot(beta, D, axes=1)  # D[g, i] = D_i[g]
        H, f = f, np.zeros(q**d, dtype=np.int64)
        np.add.at(f, q ** np.arange(d) @ D[digits(np.arange(q**d), q, d)], H[:, None])
    return _Multiset(F, d * e, f)


# ---------------------------------------------------------------------------
# per-subspace routes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _distinct_columns(F: FiniteField, spec: CodeSpec, params) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of the generator matrix as one F_p matrix
    (``linalg.expand``) and how often each occurs."""
    cols, counts = np.unique(generator_matrix(spec, params), axis=1, return_counts=True)
    return _frozen(linalg.expand(F, cols)), _frozen(counts)


def point_count(spec: CodeSpec, params, rows):
    """Coordinates where every codeword of the basis ``rows`` (r, k) vanishes,
    or one count per basis of a batch (B, r, k): the rows times the generator
    matrix, each distinct column counted as often as it occurs."""
    F = _frame(spec, params)[0]
    cols, counts = _distinct_columns(F, spec, params)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:  # r = 0: every coordinate vanishes, in each basis of a batch
        return np.full(rows.shape[:-2], counts.sum()) if rows.ndim == 3 else int(counts.sum())
    words = linalg.digits(F, rows) @ cols % F.p  # the digits of rows times G
    nonzero = words.reshape(*words.shape[:-1], len(counts), -1).any(axis=(-3, -1))
    out = (~nonzero) @ counts
    return out if out.ndim else int(out)


def support_defect(spec: CodeSpec, rows) -> int:
    """N(H): evaluation points annihilated by every functional of the basis
    (one count per basis of a batch, as in ``point_count``)."""
    return point_count(spec, None, rows)


def b_part_zero_span(spec: CodeSpec, rows, F: FiniteField) -> list[tuple[int, int]]:
    """Elements (a, c) of the span of ``rows`` whose b-part vanishes.

    In the RREF of the rows with the b columns moved first, the rows with a
    pivot in the b block have independent b-parts and the others none, so
    only the others are spanned: at most q**2 elements."""
    if len(rows) == 0:
        return [(0, 0)]
    a, b, c = spec.blocks(len(rows[0]) // spec.dimension)  # e digits
    order = [*b, *a, *c]
    R, pivots = linalg.rref(F, np.asarray(rows, dtype=np.int64)[:, order])
    R = R[[i for i, col in enumerate(pivots) if col >= len(b)]][:, np.argsort(order)]
    a, _, c = spec.split(linalg.span(F, R) if len(R) else np.zeros(1, dtype=np.int64))
    return list(zip(a.tolist(), c.tolist()))


def support_defect_char(spec: CodeSpec, rows) -> int:
    """Audit route: recompute N(H) from the additive-character identity
    q**r * (N + [homogeneous]) = sum over H and all points of zeta**Tr(...).

    Rows are combined with scalar field arithmetic and ``CodeSpec.split``;
    the values come from the form's value histogram and trace rows."""
    tower = spec.tower
    Fq, Fq2, p = tower.Fq, tower.Fq2, tower.p
    trp = Fq.trace_table(Fq.subfield_chain()[-1])
    hq = spec.analysis.form.value_histogram
    add, mul = Fq.op_table("add"), Fq.op_table("mul")
    counts = np.zeros(p, dtype=np.int64)
    r = len(rows)
    for coeffs in itertools.product(range(Fq.order), repeat=r):
        row = [0] * spec.dimension
        for li, ri in zip(coeffs, rows):
            row = [Fq.add(x, Fq.mul(li, y)) for x, y in zip(row, ri)]
        a, b, c = spec.split(sum(x * Fq.order**t for t, x in enumerate(row)))
        hb = np.bincount(add[Fq2.trace_row(b, Fq), c], minlength=Fq.order)  # Tr(b y) + c
        values = add[mul[a][:, None], np.arange(Fq.order)]  # a Q(x) + Tr(b y) + c
        np.add.at(counts, trp[values], np.outer(hq, hb))
    n, rest = divmod(cyc_from_trace_counts(p, counts.tolist()).as_int(), Fq.order**r)
    assert rest == 0
    return n - 1 if spec.variant is Variant.HOMOGENEOUS else n


def strata(Fq: FiniteField, W) -> tuple[int, int, int, int]:
    """(t1, t2, t3, s) over the b-part-zero elements (a, c): t1 = #(a, 0),
    t2 = #(a, c) with ac != 0, t3 = #(0, c) with c != 0, and s the sum of
    eta(ac) over the t2 stratum."""
    t1 = sum(1 for a, c in W if a and not c)
    etas = [Fq.eta(Fq.mul(a, c)) for a, c in W if a and c]
    t3 = sum(1 for a, c in W if c and not a)
    return t1, len(etas), t3, sum(etas)


def _exact(num: int, den: int) -> int:
    """num / den, asserted a nonnegative integer."""
    val, rest = divmod(num, den)
    assert rest == 0 and val >= 0, (num, den)
    return val


def closed_defect(spec: CodeSpec, params, rows) -> int:
    """Per-subspace closed form of N(D) in the frame (F, e, N) (``_frame``),
    in integers over the denominator |F|**r q**h N, h = floor(r_Q / 2);
    |F|**r is q**(M+1) for the affine code at r = k when m1 = 1.

    Homogeneous: (q - 1)/N * (q**M (q**h + eps*t) / (|F|**r q**h) - 1), with
    t = q - 1 exactly when (1, 0) lies in D for even rank, else t = 0 (odd
    rank forms no span).

    Affine: the stratified sum over the b-part-zero elements, with
    t1 = #(a,0,0), t2 = #(a,0,c): ac != 0, t3 = #(0,0,c): c != 0, and the
    character-weighted sum over the t2 stratum for odd rank (its factor
    q**((1-r_Q)/2) is q**-h).
    """
    F, _, N = _frame(spec, params)
    q, M, an = spec.tower.q, spec.tower.M, spec.analysis
    r_q, eps, h = an.r_q, an.eps, an.r_q // 2
    den = F.order ** len(rows) * q**h
    if spec.variant is Variant.HOMOGENEOUS:
        W = b_part_zero_span(spec, rows, F) if r_q % 2 == 0 else []  # odd rank: no span
        t = sum(1 for a, _ in W if a != 0)  # the elements (a, 0) of D, a != 0
        return (q - 1) // N * (_exact(q**M * (q**h + eps * t), den) - 1)
    t1, t2, t3, s = strata(spec.tower.Fq, b_part_zero_span(spec, rows, F))
    char = (q - 1) * t1 - t2 if r_q % 2 == 0 else s
    return _exact(q**M * ((q - 1 - t3) * q**h + eps * char), den * N)


def closed_ghw(spec: CodeSpec, params, r: int) -> int:
    """Closed-form case evaluation of d_r in the frame (F, e, N)
    (``_frame``), in integers; asserts integrality.  Every case is
    q**M / (|F|**r N) (times q - 1 for the homogeneous code) times a value
    whose q**(-r_Q/2) or q**((1-r_Q)/2) term clears over q**h,
    h = floor(r_Q / 2)."""
    F, e, N = _frame(spec, params)
    if not 1 <= r <= spec.dimension * e:
        raise ParameterError(f"need 1 <= r <= {spec.dimension * e}")
    q, M, p = spec.tower.q, spec.tower.M, F.order
    an, W = spec.analysis, spec.blocks(e)[1]
    r_q, eps, h, pr = an.r_q, an.eps, an.r_q // 2, p**r
    if spec.variant is Variant.HOMOGENEOUS:
        base = (pr - 1) * q**h
        if r_q % 2 == 0 and eps == 1:
            base = (pr - 1) * (q**h - 1) if r <= e else base - (q - 1)
        elif r_q % 2 == 0 and r > len(W):
            base += p ** (r - len(W)) - 1
        base *= q - 1
    else:
        top = W.stop  # the end of the b block
        u = q - 1 if r_q % 2 == 0 and eps == 1 else 1  # numerator of the q**-h term
        if r <= e:
            base = (pr - 1) * ((q - 1) * q**h - u)
        elif r <= top:
            base = (q - 1) * ((pr - 1) * q**h - u)
        else:
            base = pr * (q - 1) * q**h - (q - p ** (r - top)) * (q**h + u)
    val = _exact(q**M * base, pr * N * q**h)
    assert val > 0, val
    return val


def support_defect_closed(spec: CodeSpec, rows) -> int:
    """Per-subspace closed form of N(H): ``closed_defect`` of the F_q code."""
    return closed_defect(spec, None, rows)


# ---------------------------------------------------------------------------
# hierarchy computation
# ---------------------------------------------------------------------------


def ghw_brute(spec: CodeSpec, r: int) -> tuple[int, tuple]:
    """(d_r, witness): exhaustive maximum of N(H) over canonical subspaces."""
    return scan(spec, None, r)


def ghw_closed(spec: CodeSpec, r: int) -> int:
    """Closed-form d_r: ``closed_ghw`` of the F_q code."""
    return closed_ghw(spec, None, r)


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

    def resolved_hierarchy(self) -> list[int]:
        return [row.resolved for row in self.rows]

    def strictly_increasing(self) -> bool:
        vals = self.resolved_hierarchy()
        return all(a < b for a, b in zip(vals, vals[1:]))


def tabulate(spec: CodeSpec, r_max: int, brute, closed, note=None, reference=None) -> GhwReport:
    """Rows r = 1..r_max of ``closed(r)`` against ``brute(r)``, which the
    budget may refuse; ``note(r, d_closed)`` adds a remark.  Never reconciles."""
    rows = []
    for r in range(1, r_max + 1):
        d_closed = closed(r)
        notes = [note(r, d_closed)] if note else []
        try:
            d_brute, witness = brute(r)
        except BudgetError as e:
            d_brute, witness = None, None
            notes.append(str(e))
        remark = "; ".join(n for n in notes if n)
        rows.append(GhwRow(r, d_closed, d_brute, (reference or {}).get(r), witness, remark))
    return GhwReport(spec=spec, rows=tuple(rows))


def hierarchy(
    spec: CodeSpec, r_max: int | None = None, reference_values: dict[int, int] | None = None
) -> GhwReport:
    """Full table r = 1..k of closed vs brute values; never reconciles."""
    k = spec.dimension
    # read from the module when called, so a wrapper installed by name is used
    brute, closed = partial(ghw_brute, spec), partial(ghw_closed, spec)
    return tabulate(spec, k if r_max is None else min(r_max, k), brute, closed, None, reference_values)
