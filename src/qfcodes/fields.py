"""Finite-field towers F_p < F_q < F_{q^s} with exact arithmetic.

Every field stores its elements as dense integer indices 0 .. order-1.  A
prime field indexes an element by its least nonnegative residue.  An
extension of degree d over a base of order B indexes the coefficient vector
(c_0, ..., c_{d-1}) (lowest degree first) as sum(idx(c_i) * B**i), so index 0
is always zero and index 1 is always one, in every field of the tower.

Because the digits nest, the base-p digits of any index are the element's
F_p coordinates, and addition is digitwise mod p in every field of the tower.

Multiplication, inversion and powering run through discrete log/exp tables
for the canonical generator.  Every field keeps Zech logarithms,
1 + g**k = g**Z(k): one more table of |F| entries beside log/exp (K. Huber,
"Some comments on Zech's logarithms", IEEE Trans. IT 36(4), 1990), and no
|F| x |F| addition table.  An extension field adds through them; a prime
field adds, negates and multiplies residues.

Construction is the modulus search (``_is_irreducible``) and F_p linear
algebra on base-p digits: E[l] is the matrix of x -> p**l * x
(``mul_matrices``), and no scalar polynomial product is taken once the
modulus is known.  A relative trace is one F_p matrix on digits
(``trace_matrix``), so no trace needs the log/exp tables.  The tables
(log/exp/Zech, omega, the q x q op tables of the F_q kernels) are built on
the first read of any of them, each held once as a read-only numpy array
that scalar ops read with ``ndarray.item`` (so they return Python ints); two
threads that build them build the same bytes.  Tables of more than
``DEFAULT_BUDGET`` cells are refused before they are built, and a field of
2**63 elements or more at construction.

Two element orders coexist:

* the dense coefficient-vector order above, which still drives the
  deterministic scans (irreducible-modulus search over polynomials,
  generator search over candidates in batches);
* the canonical display order omega_0 = 0, omega_i = g**(i-1) for the
  canonical generator g, used wherever a "fixed listing of the field"
  is part of a contract (symbol indexing, element streams).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetError, MixedFieldError, ParameterError

__all__ = [
    "FiniteField",
    "PrimeField",
    "ExtField",
    "Elem",
    "FieldTower",
    "build_tower",
    "prime_field",
    "extension_field",
    "smallest_irreducible",
    "rel_trace",
    "quad_char",
    "primitive_element",
    "enumerate_field",
    "elem_to_data",
    "elem_from_data",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _min_dtype(order: int):
    return np.int16 if order < 2**15 else np.int32


def _digit_count(order: int, base: int) -> int:
    """d with base**d == order."""
    d, size = 0, 1
    while size < order:
        d, size = d + 1, size * base
    return d


def _p_digits(indices, p: int, d: int) -> np.ndarray:
    """The d base-p digits of each index, lowest first."""
    return np.asarray(indices, dtype=np.int64)[:, None] // p ** np.arange(d) % p


# Tables of |F| entries a field holds: omega (exp is a view of it), log, Zech,
# a trace table for each of up to two subfields, and a trace row's temporaries.
_TABLES_KEPT = 7
_LAZY_TABLES = {"_gen", "_omega", "_exp", "_log", "_zech", "_op_tables"}
# Indices per block when a table is computed on base-p digits.
_DIGIT_BLOCK = 1 << 16


def _charge_tables(order: int, dim: int):
    """Refuse a field of ``dim`` base-p digits before building it when its
    digit temporaries and kept tables come to more than ``DEFAULT_BUDGET``
    cells."""
    cells = order * (dim + _TABLES_KEPT)
    if cells > DEFAULT_BUDGET:
        raise BudgetError(cells, DEFAULT_BUDGET, f"building GF({order})")


class FiniteField:
    """Common interface of :class:`PrimeField` and :class:`ExtField`.

    Index-level operations (``add``, ``mul``, ...) take and return dense
    indices; :class:`Elem` wraps them with operator syntax.
    """

    # populated by subclasses
    p: int
    order: int
    degree: int
    base: "FiniteField | None"
    modulus: tuple[int, ...] | None

    def __getattr__(self, name):
        """The first read of a table or table cache builds them all; threads
        that race here build the same tables and share one set of caches."""
        if name not in _LAZY_TABLES:
            raise AttributeError(name)
        self._finish_init()
        return self.__dict__[name]

    # -- scalar index arithmetic ---------------------------------------

    def add(self, i: int, j: int) -> int:
        """g**a + g**b = g**(a + Z(b - a)) by the Zech table."""
        if i == 0:
            return j
        if j == 0:
            return i
        n1 = self.order - 1
        li = self._log.item(i)
        z = self._zech.item((self._log.item(j) - li) % n1)
        return 0 if z < 0 else self._exp.item((li + z) % n1)

    def neg(self, i: int) -> int:
        """-1 = g**((|F| - 1) / 2) in odd characteristic."""
        if i == 0:
            return 0
        n1 = self.order - 1
        return self._exp.item((self._log.item(i) + n1 // 2) % n1)

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        n1 = self.order - 1
        return self._exp.item((self._log.item(i) + self._log.item(j)) % n1)

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"inversion of zero in {self}")
        n1 = self.order - 1
        return self._exp.item(-self._log.item(i) % n1)

    def div(self, i: int, j: int) -> int:
        return self.mul(i, self.inv(j))

    def pow(self, i: int, e: int) -> int:
        """i**e with arbitrary-precision e; 0**0 == 1, 0**(e<0) is an error."""
        if i == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError(f"0**{e} in {self}")
            return 0
        return self._exp.item(self._log.item(i) * e % (self.order - 1))

    # -- structure -------------------------------------------------------

    @property
    def gen(self) -> int:
        """Canonical generator of the multiplicative group (dense index)."""
        return self._gen

    def log(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"discrete log of zero in {self}")
        return self._log.item(i)

    def coeffs(self, i: int) -> tuple[int, ...]:
        """Coefficient vector over the immediate base, lowest degree first."""
        raise NotImplementedError

    def from_coeffs(self, digits) -> int:
        raise NotImplementedError

    def from_int(self, k: int) -> int:
        """Image of the rational integer k (a prime-subfield constant)."""
        raise NotImplementedError

    def eta(self, i: int) -> int:
        """Quadratic character: 0 at zero, +1 on squares, -1 otherwise."""
        if i == 0:
            return 0
        return 1 if self._log.item(i) % 2 == 0 else -1

    # canonical omega ordering -------------------------------------------

    @property
    def omega(self) -> np.ndarray:
        """Indices listed as omega_0 = 0, omega_i = g**(i-1) (read-only)."""
        return self._omega

    def omega_pos(self, i: int) -> int:
        return self._log.item(i) + 1 if i else 0

    def elements(self):
        """Stream every element once, in canonical omega order."""
        for i in self._omega.tolist():
            yield Elem(self, i)

    @property
    def zero(self) -> "Elem":
        return Elem(self, 0)

    @property
    def one(self) -> "Elem":
        return Elem(self, 1)

    # -- tower helpers -----------------------------------------------------

    def subfield_chain(self) -> list["FiniteField"]:
        """self, base, base of base, ... down to the prime field."""
        out, f = [], self
        while f is not None:
            out.append(f)
            f = f.base
        return out

    def contains_field(self, other: "FiniteField") -> bool:
        return any(f is other for f in self.subfield_chain())

    def embed_from(self, sub: "FiniteField", i: int) -> int:
        """Index of the element of ``sub`` with index i, viewed in self."""
        if sub is self:
            return i
        if self.base is None or not self.base.contains_field(sub):
            raise MixedFieldError(f"{sub} is not below {self}")
        return self.base.embed_from(sub, i)  # low digit only

    def demote_to(self, i: int, sub: "FiniteField") -> int:
        """Inverse of embed_from; raises if the element is not in ``sub``."""
        if sub is self:
            return i
        if self.base is None:
            raise MixedFieldError(f"{sub} is not below {self}")
        digits = self.coeffs(i)
        if any(d != 0 for d in digits[1:]):
            raise MixedFieldError(
                f"element {i} of {self} does not lie in {sub}"
            )
        return self.base.demote_to(digits[0], sub)

    def degree_over(self, sub: "FiniteField") -> int:
        """[self : sub]; raises unless ``sub`` is a field of the chain below."""
        if not self.contains_field(sub):
            raise MixedFieldError(f"{sub} is not a subfield of {self}")
        return _digit_count(self.order, sub.order)

    def frobenius_powers(self, target: "FiniteField") -> np.ndarray:
        """The (s, d, d) stack of x -> x**(|target|**j), j < s = [self :
        target], on digit columns: powers of the ``frobenius_matrix``
        (read-only, kept per target)."""
        cache = self.__dict__.setdefault("_frobenius_powers", {})
        if target not in cache:
            s, p = self.degree_over(target), self.p
            out = [np.eye(len(self._mul_basis), dtype=np.int64)]
            if s > 1:
                step = _mat_pow(self.frobenius_matrix[None], _digit_count(target.order, p), p)[0]
                while len(out) < s:
                    out.append(out[-1] @ step % p)
            cache[target] = np.stack(out)
            cache[target].setflags(write=False)
        return cache[target]

    def trace_matrix(self, target: "FiniteField") -> np.ndarray:
        """Tr_{self/target} on base-p digits (read-only, kept per target):
        the sum of ``frobenius_powers``, cut to the t digits of ``target``, in
        which the trace lies.  Column l is the digit row of Tr(p**l)."""
        cache = self.__dict__.setdefault("_trace_matrices", {})
        if target not in cache:
            t = _digit_count(target.order, self.p)
            total = self.frobenius_powers(target).sum(axis=0) % self.p
            assert not total[t:].any()  # Tr(x) lies in target
            cache[target] = total[:t]
            cache[target].setflags(write=False)
        return cache[target]

    def traces(self, indices, target: "FiniteField") -> np.ndarray:
        """Tr_{self/target} of each index, as indices of ``target``: the
        ``trace_matrix`` on their base-p digits."""
        T = self.trace_matrix(target)
        return _p_digits(indices, self.p, T.shape[1]) @ T.T % self.p @ self.p ** np.arange(len(T))

    def trace_table(self, target: "FiniteField") -> np.ndarray:
        """``traces`` of every element (read-only, kept per target), in blocks
        of indices so the digit temporaries stay bounded, charged as the
        field's tables are."""
        tables = self.__dict__.setdefault("_trace_tables", {})
        if target not in tables:
            _charge_tables(self.order, len(self._mul_basis))
            tab = np.empty(self.order, dtype=_min_dtype(target.order))
            for start in range(0, self.order, _DIGIT_BLOCK):
                block = np.arange(start, min(start + _DIGIT_BLOCK, self.order))
                tab[block] = self.traces(block, target)
            tab.setflags(write=False)
            tables[target] = tab
        return tables[target]

    def trace_row(self, b: int, target: "FiniteField") -> np.ndarray:
        """Tr_{self/target}(b*y) for every y in omega order: the trace table
        gathered at b * 0 = 0 and b * g**k = g**(log b + k)."""
        n1 = self.order - 1
        ys = self._exp[(np.arange(n1) + self.log(b)) % n1] if b else np.zeros(n1, dtype=np.int64)
        return self.trace_table(target)[np.concatenate([[0], ys])]

    def op_table(self, op: str) -> np.ndarray:
        """``table[i, j] = op(i, j)`` (int64, read-only) for the scalar op
        named ``op``: "add", "sub" or "mul".

        |F|**2 cells, gathered from the log/exp/Zech tables as the scalar ops
        read them, on the first call, and kept by the field: only the q x q
        kernels over F_q call it, on their own budgets.
        """
        if op not in ("add", "sub", "mul"):
            raise ParameterError(f"no op table for {op!r}")
        tab = self._op_tables.get(op)
        if tab is None:
            n1, log, exp = self.order - 1, self._log, self._exp
            i, j = np.ogrid[: self.order, : self.order]
            if op == "mul":
                tab = np.where((i == 0) | (j == 0), 0, exp[(log[i] + log[j]) % n1])
            else:
                if op == "sub":  # i - j = i + g**(n1/2) * j
                    j = np.where(j == 0, 0, exp[(log[j] + n1 // 2) % n1])
                z = self._zech[(log[j] - log[i]) % n1]
                tab = np.where(z < 0, 0, exp[(log[i] + z) % n1])
                tab = np.where(i == 0, j, np.where(j == 0, i, tab))
            tab.setflags(write=False)
            self._op_tables[op] = tab
        return tab

    # -- F_p matrix algebra ---------------------------------------------------

    def mul_matrices(self, cs) -> np.ndarray:
        """The (len(cs), dim, dim) stack of M_c, the matrix of y -> c*y on
        base-p digit columns: M_c @ digits(y) = digits(c*y) mod p.

        M_c = sum over l of digit_l(c) * E[l] mod p, with E the field's F_p
        multiplication basis (E[l] multiplies by the index p**l), so a whole
        batch of elements is one matrix product.
        """
        E, dim = self._mul_basis, len(self._mul_basis)
        return (_p_digits(cs, self.p, dim) @ E.reshape(dim, -1)).reshape(-1, dim, dim) % self.p

    @cached_property
    def frobenius_matrix(self) -> np.ndarray:
        """The matrix of x -> x**p on digit columns: column l is column 0 of
        E[l]**p."""
        return _mat_pow(self._mul_basis, self.p, self.p)[:, :, 0].T

    # -- shared construction pieces ----------------------------------------

    def _finish_init(self):
        """Generator search, log/exp tables, omega ordering."""
        n1, p, dim = self.order - 1, self.p, len(self._mul_basis)
        _charge_tables(self.order, dim)
        assert dim * (p - 1) ** 2 < 2**63  # int64 matrix products are exact
        # g is the first c in dense order with c**(n1/ell) != 1 for every
        # prime ell | n1, tested in growing chunks: column 0 of M_c**e is the
        # digit row of c**e * 1, so c**e = 1 iff it is the digit row of 1.
        factors, one = _prime_factors(n1), np.eye(1, dim, dtype=np.int64)
        start, size = 1, 8
        while True:
            cands = np.arange(start, min(start + size, self.order))
            live = np.ones(len(cands), dtype=bool)
            mats = self.mul_matrices(cands)
            for ell in factors:
                col = _mat_pow(mats[live], n1 // ell, p)[:, :, 0]
                live[live] = (col != one).any(axis=1)
            if live.any():
                break
            start, size = start + size, 2 * size
        gen = int(cands[live.argmax()])
        # exp[k] = g**k.  The digit rows of g**0 .. g**s come from doubling
        # (rows times M_g**(2**j) give the next 2**j powers); after them each
        # block of s powers is the block before it times M_(g**s) mod p.  Each
        # block is turned into indices as it is made, so one block of digits
        # is alive.
        s, weights = math.isqrt(n1) + 1, p ** np.arange(dim)
        rows = one  # g**0
        power = self.mul_matrices([gen])[0]
        while len(rows) <= s:
            rows = np.concatenate([rows, rows @ power.T % p])
            power = power @ power % p
        block, gen_s = rows[:s], int(rows[s] @ weights)
        step = np.ascontiguousarray(self.mul_matrices([gen_s])[0].T)  # C order: faster matmul
        # One buffer holds [0, exp]: omega is its head, exp the view after 0.
        omega = np.zeros(1 + (n1 // s + 1) * s, dtype=np.int64)
        for start in range(1, len(omega), s):
            omega[start : start + s] = block @ weights
            block = block @ step % p
        assert omega[1 + n1] == 1  # g**(|F| - 1) = 1
        omega.setflags(write=False)
        log = np.zeros(self.order, dtype=np.int64)
        log[omega[1 : 1 + n1]] = np.arange(n1)
        log.setflags(write=False)
        exp = omega[1 : 1 + n1]
        # Zech table Z(k) = log(1 + g**k), -1 where 1 + g**k = 0: adding one
        # adds 1 mod p to base-p digit 0 and changes no other digit.
        plus_one = exp - exp % p + (exp + 1) % p
        zech = np.where(plus_one == 0, -1, log[plus_one])
        zech.setflags(write=False)
        # published at once; a racing build keeps the caches already there
        self.__dict__.update(_gen=gen, _omega=omega[: 1 + n1], _exp=exp, _log=log, _zech=zech)
        self.__dict__.setdefault("_op_tables", {})


def _mat_pow(mats: np.ndarray, e: int, p: int) -> np.ndarray:
    """mats**e mod p for a (C, dim, dim) stack, by square-and-multiply."""
    out = np.broadcast_to(np.eye(mats.shape[-1], dtype=np.int64), mats.shape)
    while e:
        if e & 1:
            out = out @ mats % p
        e >>= 1
        if e:
            mats = mats @ mats % p
    return out


def _extension_mul_basis(base: FiniteField, modulus: tuple[int, ...]) -> np.ndarray:
    """E[k*m + i] = T**k @ kron(I_d, E_base[i]) mod p for the degree-d
    extension of ``base`` (m base-p digits per coefficient) by ``modulus``.

    The index p**(k*m + i) is t**k times the base element p**i; the base
    element acts on each coefficient's digits alone, and T, multiplication
    by t, shifts coefficient k to k + 1 and folds t**d back through the
    monic modulus: t**d = -(f_0 + f_1 t + ... + f_(d-1) t**(d-1)).
    """
    p, base_E, d = base.p, base._mul_basis, len(modulus) - 1
    m = len(base_E)
    dim = d * m
    assert dim * (p - 1) ** 2 < 2**63  # int64 matrix products are exact
    T = np.zeros((dim, dim), dtype=np.int64)
    T[m:, :-m] = np.eye(dim - m, dtype=np.int64)
    T[:, -m:] = -base.mul_matrices(modulus[:-1]).reshape(dim, m) % p
    blocks = np.stack([np.kron(np.eye(d, dtype=np.int64), Ei) for Ei in base_E])
    E = np.empty((d, m, dim, dim), dtype=np.int64)
    t_power = np.eye(dim, dtype=np.int64)
    for k in range(d):
        E[k] = t_power @ blocks % p
        t_power = T @ t_power % p
    E = E.reshape(dim, dim, dim)
    E.setflags(write=False)
    return E


class PrimeField(FiniteField):
    """F_p for an odd prime p; indices are residues 0..p-1."""

    def __init__(self, p: int):
        _charge_tables(p, 1)
        if not _is_prime(p) or p % 2 == 0:
            raise ParameterError(f"p = {p} must be an odd prime")
        self.p = p
        self.order = p
        self.degree = 1
        self.base = None
        self.modulus = None
        self._mul_basis = np.ones((1, 1, 1), dtype=np.int64)
        self._mul_basis.setflags(write=False)

    def add(self, i, j):
        return (i + j) % self.p

    def neg(self, i):
        return (-i) % self.p

    def sub(self, i, j):
        return (i - j) % self.p

    def mul(self, i, j):
        return (i * j) % self.p

    def coeffs(self, i):
        return (i,)

    def from_coeffs(self, digits):
        (d,) = digits
        return d % self.p

    def from_int(self, k):
        return k % self.p

    def __repr__(self):
        return f"GF({self.p})"


class ExtField(FiniteField):
    """Degree-d extension of ``base`` modulo a pinned irreducible polynomial.

    The modulus is the first monic irreducible found by scanning coefficient
    vectors (c_{d-1}, ..., c_0) lexicographically in dense index order, so
    construction is reproducible without external polynomial tables.
    """

    def __init__(self, base: FiniteField, degree: int, var: str = "t",
                 modulus: tuple[int, ...] | None = None):
        if degree < 2:
            raise ParameterError("extension degree must be >= 2")
        if base.order**degree >= 2**63:  # indices and their digits are int64
            raise ParameterError(f"GF({base.order}**{degree}) is too large: indices exceed 63 bits")
        self.p = base.p
        self.base = base
        self.degree = degree
        self.order = base.order**degree
        self.var = var
        if modulus is None:
            modulus = smallest_irreducible(base, degree)
        self.modulus = modulus
        B = base.order
        self._powers = tuple(B**k for k in range(degree))
        self._mul_basis = _extension_mul_basis(base, modulus)

    def coeffs(self, i):
        B = self.base.order
        return tuple(int(i) // w % B for w in self._powers)

    def from_coeffs(self, digits):
        digits = tuple(digits)
        if len(digits) != self.degree:
            raise MixedFieldError(
                f"{self} expects {self.degree} coefficients, got {len(digits)}"
            )
        return sum((d % self.base.order) * self._powers[k] for k, d in enumerate(digits))

    def from_int(self, k):
        return self.base.from_int(k)  # low digit; index is unchanged

    @property
    def t(self) -> int:
        """Index of the extension generator (the class of the variable)."""
        return self._powers[1]

    def __repr__(self):
        return f"GF({self.order})"


# ---------------------------------------------------------------------------
# irreducible modulus search
# ---------------------------------------------------------------------------


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(base, a, b, f):
    """a * b mod the monic f, over base."""
    add, mul, sub = base.add, base.mul, base.sub
    d = len(f) - 1
    conv = [0] * (len(a) + len(b) - 1) if a and b else []
    for x, ax in enumerate(a):
        if ax:
            for y, by in enumerate(b):
                if by:
                    conv[x + y] = add(conv[x + y], mul(ax, by))
    for k in range(len(conv) - 1, d - 1, -1):  # x**k = x**(k-d) * (x**d - f)
        c = conv.pop()
        if c:
            for t in range(d):
                if f[t]:
                    conv[k - d + t] = sub(conv[k - d + t], mul(c, f[t]))
    return _poly_trim(conv)


def _poly_powmod(base, a, e, f):
    r = [1]
    while True:
        if e & 1:
            r = _poly_mulmod(base, r, a, f)
        e >>= 1
        if not e:
            return r
        a = _poly_mulmod(base, a, a, f)


def _poly_gcd(base, a, b):
    add, mul, neg = base.add, base.mul, base.neg
    a, b = list(a), list(b)
    while b:
        inv_lead, nb = base.inv(b[-1]), len(b)
        while len(a) >= nb:  # cancel the lead of a by a multiple of b
            c = neg(mul(a.pop(), inv_lead))
            shift = len(a) - nb + 1
            for t in range(nb - 1):
                if b[t]:
                    a[shift + t] = add(a[shift + t], mul(c, b[t]))
            _poly_trim(a)
        a, b = b, a
    return a


def _is_irreducible(base: FiniteField, poly: tuple[int, ...]) -> bool:
    """Monic poly of degree n irreducible over base (of order B), by Rabin's
    test: x**(B**n) = x mod poly, and gcd(x**(B**d) - x, poly) = 1 for each
    d = n/ell, ell a prime dividing n (M. O. Rabin, "Probabilistic algorithms
    in finite fields", SIAM J. Comput. 9(2), 1980).

    d = 1 is checked first, by Horner evaluation at every element of base
    (poly has a root there iff gcd(x**B - x, poly) != 1), which rejects most
    reducible candidates before any power of x is taken.  The powers
    h_d = x**(B**d) mod poly are one Frobenius chain: c**B = c on base, so
    h**B = sum of h_j * (x**B)**j, and with the powers (x**B)**j, j < n,
    computed once, each link is one matrix-vector product over base.
    """
    n = len(poly) - 1
    if n == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    add, mul = base.add, base.mul
    for a in range(1, base.order):
        v = 1
        for c in poly[-2::-1]:
            v = add(mul(v, a), c)
        if v == 0:  # a is a root
            return False

    def coprime(h):  # gcd(h - x, poly) == 1
        g = h + [0] * (2 - len(h))
        g[1] = base.sub(g[1], 1)
        return len(_poly_gcd(base, poly, _poly_trim(g))) == 1

    x_B = _poly_powmod(base, [0, 1], base.order, poly)
    cols = [[1], x_B]
    while len(cols) < n:
        cols.append(_poly_mulmod(base, cols[-1], x_B, poly))
    checks, h = {n // ell for ell in _prime_factors(n)}, x_B
    for d in range(2, n + 1):
        nxt = [0] * n
        for hj, col in zip(h, cols):
            if hj:
                for k, c in enumerate(col):
                    if c:
                        nxt[k] = add(nxt[k], mul(hj, c))
        h = _poly_trim(nxt)
        if d in checks and not coprime(h):
            return False
    return h == [0, 1]


@lru_cache(maxsize=None)
def smallest_irreducible(base: FiniteField, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree in the deterministic scan.

    Returned as a coefficient vector (c_0, ..., c_{degree-1}, 1), lowest
    degree first.  Degree 1 yields the polynomial x.  Cached per (base,
    degree); fields hash by identity.
    """
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    if degree == 1:
        return (0, 1)  # the polynomial x
    for high in itertools.product(range(base.order), repeat=degree):
        # high = (c_{d-1}, ..., c_0): minimize high-degree coefficients first
        coeffs = tuple(reversed(high)) + (1,)
        if _is_irreducible(base, coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class Elem:
    """A field element: a handle plus a dense index, with operator sugar.

    Integers mix in as prime-subfield constants, so ``x + 1`` and ``2 * x``
    mean what they say in any field of the tower.
    """

    __slots__ = ("field", "idx")

    def __init__(self, field: FiniteField, idx: int):
        self.field = field
        self.idx = idx

    def _coerce(self, other) -> "Elem":
        if isinstance(other, Elem):
            if other.field is not self.field:
                raise MixedFieldError(
                    f"mixed operands from {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int):
            return Elem(self.field, self.field.from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.add(self.idx, o.idx))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.sub(self.idx, o.idx))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.sub(o.idx, self.idx))

    def __neg__(self):
        return Elem(self.field, self.field.neg(self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.mul(self.idx, o.idx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.div(self.idx, o.idx))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Elem(self.field, self.field.div(o.idx, self.idx))

    def __pow__(self, e: int):
        return Elem(self.field, self.field.pow(self.idx, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.idx == self.field.from_int(other)
        return (
            isinstance(other, Elem)
            and other.field is self.field
            and other.idx == self.idx
        )

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __bool__(self):
        return self.idx != 0

    @property
    def coeffs(self) -> tuple["Elem", ...]:
        base = self.field.base or self.field
        return tuple(Elem(base, d) for d in self.field.coeffs(self.idx))

    def __repr__(self):
        return f"{_elem_str(self.field, self.idx)} in {self.field}"


def _elem_str(field: FiniteField, idx: int) -> str:
    if field.base is None:
        return str(idx)
    var = getattr(field, "var", "t")
    parts = []
    for k, d in enumerate(field.coeffs(idx)):
        if d == 0:
            continue
        c = _elem_str(field.base, d)
        is_one = c == "1"
        if field.base.base is not None and not is_one and k > 0:
            c = f"({c})"
        if k == 0:
            parts.append(c)
        else:
            head = "" if is_one else f"{c}*"
            parts.append(f"{head}{var}" + (f"^{k}" if k > 1 else ""))
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# tower construction and free functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldTower:
    """The chain F_p <= F_q <= F_{q^m1}, F_q <= F_{q^m2}."""

    p: int
    m: int
    m1: int
    m2: int
    Fp: FiniteField
    Fq: FiniteField
    Fq1: FiniteField
    Fq2: FiniteField

    @property
    def q(self) -> int:
        return self.Fq.order

    @property
    def M(self) -> int:
        return self.m1 + self.m2

    def describe(self) -> dict:
        """Serializable record pinning the exact representation."""

        def mod_of(field):
            if field.modulus is None:
                return None
            return [coeff_to_data(field.base, c) for c in field.modulus]

        def coeff_to_data(base, c):
            if base.base is None:
                return c
            return [coeff_to_data(base.base, d) for d in base.coeffs(c)]

        return {
            "p": self.p,
            "m": self.m,
            "m1": self.m1,
            "m2": self.m2,
            "modulus_Fq": mod_of(self.Fq),
            "modulus_Fq1": mod_of(self.Fq1),
            "modulus_Fq2": mod_of(self.Fq2),
        }


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def extension_field(base: FiniteField, degree: int, var: str = "t") -> FiniteField:
    """Degree-d extension with the pinned modulus; degree 1 returns ``base``.

    Cached on (base, degree, var), however the call spells them, so repeated
    construction hands back the same immutable field object.
    """
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    if degree == 1:
        return base
    return _extension_field(base, degree, var)


@lru_cache(maxsize=None)
def _extension_field(base: FiniteField, degree: int, var: str) -> ExtField:
    return ExtField(base, degree, var=var)  # fields hash by identity


@lru_cache(maxsize=None)
def build_tower(p: int, m: int, m1: int, m2: int) -> FieldTower:
    """Deterministically construct the tower; same inputs, same moduli.

    Degree-1 steps reuse the field below them, so e.g. m = 1 makes F_q
    literally F_p.
    """
    if m < 1 or m1 < 1 or m2 < 1:
        raise ParameterError("m, m1, m2 must all be >= 1")
    Fp = prime_field(p)
    Fq = extension_field(Fp, m, var="w")
    Fq1 = extension_field(Fq, m1, var="t")
    Fq2 = extension_field(Fq, m2, var="u")
    return FieldTower(p=p, m=m, m1=m1, m2=m2, Fp=Fp, Fq=Fq, Fq1=Fq1, Fq2=Fq2)


def rel_trace(x: Elem, target: FiniteField) -> Elem:
    """Tr_{F/target}(x) = sum of x**(|target|**j); lands in ``target``."""
    return Elem(target, int(x.field.traces([x.idx], target)[0]))


def quad_char(x: Elem) -> int:
    return x.field.eta(x.idx)


def primitive_element(field: FiniteField) -> Elem:
    """First element of the deterministic scan with full multiplicative order."""
    return Elem(field, field.gen)


def enumerate_field(field: FiniteField):
    """Stream of all elements in canonical omega order (zero first)."""
    return field.elements()


# serialization of elements as nested coefficient lists (ints at the F_p level)


def elem_to_data(x: Elem):
    field = x.field
    if field.base is None:
        return x.idx
    return [elem_to_data(Elem(field.base, d)) for d in field.coeffs(x.idx)]


def elem_from_data(field: FiniteField, data) -> Elem:
    """Parse an element token: int constant, nested coefficient list,
    or a power of the canonical generator written as "g" / "g^k"."""
    if isinstance(data, bool):
        raise MixedFieldError("boolean is not a field element")
    if isinstance(data, int):
        return Elem(field, field.from_int(data))
    if isinstance(data, str):
        s = data.strip()
        if s == "g":
            return Elem(field, field.gen)
        if s.startswith("g^"):
            return Elem(field, field.pow(field.gen, int(s[2:])))
        raise MixedFieldError(f"unrecognized element token {data!r}")
    if isinstance(data, (list, tuple)):
        if field.base is None:
            raise MixedFieldError("prime-field elements are plain integers")
        if len(data) != field.degree:
            raise MixedFieldError(
                f"{field} expects {field.degree} coefficients, got {len(data)}"
            )
        digits = [elem_from_data(field.base, d).idx for d in data]
        return Elem(field, field.from_coeffs(digits))
    raise MixedFieldError(f"cannot parse element from {type(data).__name__}")
