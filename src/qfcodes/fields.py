"""Finite-field towers F_p < F_q < F_{q^s} with exact arithmetic.

The index format, which other modules decode only through ``digits``:

* every field stores its elements as dense integer indices 0 .. order-1, a
  prime field's by their least nonnegative residue;
* an extension of degree d over a base of order B indexes the coefficient
  vector (c_0, ..., c_{d-1}) (lowest degree first) as sum(c_k * B**k), so
  its coefficients are the d base-B digits of the index (``coeffs``,
  ``from_coeffs``), index 0 is zero and index 1 is one in every field;
* the digits nest, so an element of a subfield S keeps its index in every
  field above S (``embed_from`` returns it unchanged), an index i lies in S
  iff i < |S| (``demote_to``), the rational integer k is k % p everywhere
  (``from_int``), and the ``dim`` base-p digits of an index are the
  element's F_p coordinates;
* ``digits(x, base, count)`` is the one decoder of indices, and of vectors
  over a field numbered by their encoding sum_t x_t |F|**t, into digits.

A field is its (base, degree): ``extension_field`` keeps one object per
pair, whatever role a tower gives it (F_25 is F_q of (5,2,1,1) and F_{q^m1}
of (5,1,2,3) alike, and m1 == m2 makes F_{q^m1} and F_{q^m2} one field).
It shows as ``GF(order)``, and an element as its config token
(``elem_to_data``), e.g. ``[1, 2] in GF(25)``.

Addition is digitwise mod p in every field of the tower.

Multiplication, inversion and powering run through discrete log/exp tables
for the canonical generator; addition reads no table.  A prime field adds,
negates and multiplies residues.  ``add``, ``sub``, ``neg`` and ``mul``
take index arrays (broadcast) as well as ints, so the array kernels run the
scalar arithmetic and no field keeps an |F|**2 table.

Construction is the modulus search (``_is_irreducible``) and F_p linear
algebra on base-p digits: E[l] is the matrix of x -> p**l * x
(``mul_matrices``), and no scalar polynomial product is taken once the
modulus is known.  A relative trace is one F_p matrix on digits
(``trace_matrix``), so no trace needs the log/exp tables.  The tables
(log/exp and omega) are built on the first read of any of them, each held
once as a read-only numpy array that scalar ops read with ``ndarray.item``
(so ints give Python ints); two threads that build them build the same
bytes.  Their cells are charged to the run's budget (``errors.charge``)
before they are built, and a field of 2**63 elements or more is refused at
construction.  The generator search alone builds no table.

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

from .errors import MixedFieldError, ParameterError, charge

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
    "digits",
]


# Trial divisors tried before Miller-Rabin and Pollard-Brent take over.
_TRIAL = 1 << 10
# Miller-Rabin with these bases is exact below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2**s * odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n: Brent's cycle search for
    x -> x**2 + c, the differences multiplied in batches of 128 per gcd."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g, k = math.gcd(prod, n), k + 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n, ascending: trial division below _TRIAL,
    then Miller-Rabin and Pollard-Brent on the cofactor, which has no
    factor below _TRIAL, so a cofactor below _TRIAL**2 is prime."""
    out, d = set(), 2
    while d < _TRIAL and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < _TRIAL**2 or _is_prime(m):
            out.add(m)
        else:
            f = _pollard_brent(m)
            todo += [f, m // f]
    return sorted(out)


def _factor_steps(n: int) -> int:
    """The charge of ``_prime_factors(n)``: its trial divisors, then past
    them about n**(1/4) iterations of Pollard-Brent."""
    root = math.isqrt(n)
    return min(root, _TRIAL) + (math.isqrt(root) if n >= _TRIAL**2 else 0)


def _min_dtype(order: int):
    return np.int16 if order < 2**15 else np.int32


def digits(x, base: int, count: int) -> np.ndarray:
    """The ``count`` base-``base`` digits of every entry of ``x`` (any
    shape), lowest first: shape (*shape, count), int64."""
    return np.asarray(x, dtype=np.int64)[..., None] // base ** np.arange(count) % base


# Tables of |F| entries a field holds: omega (exp is a view of it), log, a
# trace table for each of up to two subfields, and a trace row's temporaries.
_TABLES_KEPT = 6
_LAZY_TABLES = {"_omega", "_exp", "_log"}
# Indices per block when a table is computed on base-p digits.
_DIGIT_BLOCK = 1 << 16


def _charge_tables(order: int, dim: int):
    """Charge a field of ``dim`` base-p digits, before building them, one
    step per cell of its digit temporaries and kept tables."""
    charge(order * (dim + _TABLES_KEPT), f"building GF({order})")


class FiniteField:
    """Common interface of :class:`PrimeField` and :class:`ExtField`.

    Index-level operations (``add``, ``mul``, ...) take and return dense
    indices; :class:`Elem` wraps them with operator syntax.
    """

    # populated by subclasses
    p: int
    order: int
    degree: int
    dim: int  # base-p digits per index: [self : F_p]
    _weights: tuple[int, ...]  # p**l for l < dim, as Python ints: int operands give ints
    base: "FiniteField | None"
    modulus: tuple[int, ...] | None

    def __getattr__(self, name):
        """The first read of omega, log or exp builds all three; threads that
        race here build the same tables."""
        if name not in _LAZY_TABLES:
            raise AttributeError(name)
        self._finish_init()
        return self.__dict__[name]

    def __repr__(self):
        return f"GF({self.order})"

    # -- index arithmetic -------------------------------------------------

    def add(self, i, j):
        """i + j on indices or index arrays (broadcast): digit-wise mod p, as
        the base-p digits of an index are its F_p coordinates."""
        p = self.p
        return sum((i // w + j // w) % p * w for w in self._weights)

    def neg(self, i):
        p = self.p
        return sum(-(i // w) % p * w for w in self._weights)

    def sub(self, i, j):
        p = self.p
        return sum((i // w - j // w) % p * w for w in self._weights)

    def mul(self, i, j):
        """i * j on indices, or on index arrays (broadcast) as one gather
        from the exp table with the zero products masked."""
        n1, log, exp = self.order - 1, self._log, self._exp
        if isinstance(i, np.ndarray) or isinstance(j, np.ndarray):
            return np.where((i == 0) | (j == 0), 0, exp[(log[i] + log[j]) % n1])
        if i == 0 or j == 0:
            return 0
        return exp.item((log.item(i) + log.item(j)) % n1)

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

    @cached_property
    def gen(self) -> int:
        """Canonical generator of the multiplicative group (dense index): the
        first c in dense order with c**(n1/ell) != 1 for every prime ell | n1,
        tested in growing chunks.  Column 0 of M_c**e is the digit row of
        c**e * 1, so c**e = 1 iff it is the digit row of 1; no table is read.
        Factoring n1 is charged ``_factor_steps(n1)``."""
        n1, p, dim = self.order - 1, self.p, self.dim
        charge(_factor_steps(n1), f"the generator search of GF({self.order})")
        assert dim * (p - 1) ** 2 < 2**63  # int64 matrix products are exact
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
                return int(cands[live.argmax()])
            start, size = start + size, 2 * size

    def log(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"discrete log of zero in {self}")
        return self._log.item(i)

    def coeffs(self, i: int) -> tuple[int, ...]:
        """Coefficient vector over the immediate base, lowest degree first:
        the ``degree`` base-|base| digits of i (a prime field's one
        coefficient is its residue)."""
        return tuple(digits(i, (self.base or self).order, self.degree).tolist())

    def from_coeffs(self, cs) -> int:
        """Index of the coefficient vector ``cs``, each reduced mod |base|."""
        cs, B = tuple(cs), (self.base or self).order
        if len(cs) != self.degree:
            raise MixedFieldError(f"{self} expects {self.degree} coefficients, got {len(cs)}")
        return sum(c % B * B**k for k, c in enumerate(cs))

    def from_int(self, k: int) -> int:
        """Image of the rational integer k (a prime-subfield constant)."""
        return k % self.p

    def eta(self, i: int) -> int:
        """Quadratic character: 0 at zero, +1 on squares, -1 otherwise."""
        if i == 0:
            return 0
        return 1 if self._log.item(i) % 2 == 0 else -1

    @cached_property
    def etas(self) -> np.ndarray:
        """``eta`` at every index (read-only): 1 - 2 (log % 2), 0 at zero."""
        out = 1 - 2 * (self._log % 2)
        out[0] = 0
        out.setflags(write=False)
        return out

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
        """Index of the element of ``sub`` with index i, viewed in self: i."""
        if not self.contains_field(sub):
            raise MixedFieldError(f"{sub} is not below {self}")
        return i

    def demote_to(self, i: int, sub: "FiniteField") -> int:
        """Inverse of embed_from; raises if the element is not in ``sub``."""
        if not self.contains_field(sub):
            raise MixedFieldError(f"{sub} is not below {self}")
        if i >= sub.order:
            raise MixedFieldError(f"element {i} of {self} does not lie in {sub}")
        return i

    def degree_over(self, sub: "FiniteField") -> int:
        """[self : sub]; raises unless ``sub`` is a field of the chain below."""
        if not self.contains_field(sub):
            raise MixedFieldError(f"{sub} is not a subfield of {self}")
        return self.dim // sub.dim

    def frobenius_powers(self, target: "FiniteField") -> np.ndarray:
        """The (s, d, d) stack of x -> x**(|target|**j), j < s = [self :
        target], on digit columns: powers of the ``frobenius_matrix``
        (read-only, kept per target)."""
        cache = self.__dict__.setdefault("_frobenius_powers", {})
        if target not in cache:
            s, p = self.degree_over(target), self.p
            out = [np.eye(self.dim, dtype=np.int64)]
            if s > 1:
                step = _mat_pow(self.frobenius_matrix[None], target.dim, p)[0]
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
            t = target.dim
            total = self.frobenius_powers(target).sum(axis=0) % self.p
            assert not total[t:].any()  # Tr(x) lies in target
            cache[target] = total[:t]
            cache[target].setflags(write=False)
        return cache[target]

    def traces(self, indices, target: "FiniteField") -> np.ndarray:
        """Tr_{self/target} of each index, as indices of ``target``: the
        ``trace_matrix`` on their base-p digits."""
        T = self.trace_matrix(target)
        return digits(indices, self.p, T.shape[1]) @ T.T % self.p @ self.p ** np.arange(len(T))

    def trace_table(self, target: "FiniteField") -> np.ndarray:
        """``traces`` of every element (read-only, kept per target), in blocks
        of indices so the digit temporaries stay bounded, charged as the
        field's tables are."""
        tables = self.__dict__.setdefault("_trace_tables", {})
        if target not in tables:
            _charge_tables(self.order, self.dim)
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

    # -- F_p matrix algebra ---------------------------------------------------

    def mul_matrices(self, cs) -> np.ndarray:
        """The (len(cs), dim, dim) stack of M_c, the matrix of y -> c*y on
        base-p digit columns: M_c @ digits(y) = digits(c*y) mod p.

        M_c = sum over l of digit_l(c) * E[l] mod p, with E the field's F_p
        multiplication basis (E[l] multiplies by the index p**l), so a whole
        batch of elements is one matrix product.
        """
        E, dim = self._mul_basis, self.dim
        return (digits(cs, self.p, dim) @ E.reshape(dim, -1)).reshape(-1, dim, dim) % self.p

    @cached_property
    def frobenius_matrix(self) -> np.ndarray:
        """The matrix of x -> x**p on digit columns: column l is column 0 of
        E[l]**p."""
        return _mat_pow(self._mul_basis, self.p, self.p)[:, :, 0].T

    # -- shared construction pieces ----------------------------------------

    def _finish_init(self):
        """Log/exp tables and omega ordering from the generator ``gen``."""
        n1, p, dim = self.order - 1, self.p, self.dim
        _charge_tables(self.order, dim)
        gen, one = self.gen, np.eye(1, dim, dtype=np.int64)
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
        # published at once
        self.__dict__.update(_omega=omega[: 1 + n1], _exp=omega[1 : 1 + n1], _log=log)


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
    p, base_E, d, m = base.p, base._mul_basis, len(modulus) - 1, base.dim
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
        if p < 3 or p % 2 == 0:
            raise ParameterError(f"p = {p} must be an odd prime")
        _charge_tables(p, 1)
        if not _is_prime(p):
            raise ParameterError(f"p = {p} must be an odd prime")
        self.p = p
        self.order = p
        self.degree = self.dim = 1
        self._weights = (1,)
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


class ExtField(FiniteField):
    """Degree-d extension of ``base`` modulo a pinned irreducible polynomial.

    The modulus is the first monic irreducible found by scanning coefficient
    vectors (c_{d-1}, ..., c_0) lexicographically in dense index order, so
    construction is reproducible without external polynomial tables.
    """

    def __init__(self, base: FiniteField, degree: int, modulus: tuple[int, ...] | None = None):
        if degree < 2:
            raise ParameterError("extension degree must be >= 2")
        if base.order**degree >= 2**63:  # indices and their digits are int64
            raise ParameterError(f"GF({base.order}**{degree}) is too large: indices exceed 63 bits")
        self.p = base.p
        self.base = base
        self.degree = degree
        self.order = base.order**degree
        self.dim = base.dim * degree
        self._weights = tuple(self.p**l for l in range(self.dim))
        if modulus is None:
            modulus = smallest_irreducible(base, degree)
        self.modulus = modulus
        self._mul_basis = _extension_mul_basis(base, modulus)

    @property
    def t(self) -> int:
        """Index of the extension generator (the class of the variable)."""
        return self.base.order


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
    """Monic poly of degree n irreducible over base (of order B), by Ben-Or's
    test: poly has no factor of degree i <= n/2, that is gcd(x**(B**i) - x,
    poly) = 1 for each such i (M. Ben-Or, "Probabilistic algorithms in finite
    fields", FOCS 1981).

    Round i = 1 is Horner evaluation at every element of base (poly has a
    root there iff gcd(x**B - x, poly) != 1), which rejects most reducible
    candidates before any power of x is taken; round i raises the previous
    round's x**(B**(i-1)) to the power B modulo poly.
    """
    n = len(poly) - 1
    if n == 1:
        return True
    add, mul = base.add, base.mul
    for a in range(base.order):
        v = 1
        for c in poly[-2::-1]:
            v = add(mul(v, a), c)
        if v == 0:  # a is a root
            return False
    h = [0, 1]
    for i in range(1, n // 2 + 1):
        h = _poly_powmod(base, h, base.order, poly)  # x**(B**i) mod poly
        # h - x: h is not a constant c, as x**(B**i) = c mod poly would make c a root
        h_x = _poly_trim([h[0], base.sub(h[1], 1), *h[2:]])
        if i > 1 and len(_poly_gcd(base, poly, h_x)) != 1:
            return False
    return True


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
        """The element's config token (``elem_to_data``) and its field."""
        return f"{elem_to_data(self)} in {self.field}"


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
            return [elem_to_data(Elem(field.base, c)) for c in field.modulus]

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


def extension_field(base: FiniteField, degree: int) -> FiniteField:
    """Degree-d extension with the pinned modulus; degree 1 returns ``base``.

    Cached on (base, degree), however the call spells them: a field is its
    base and degree, so every tower and role that asks for the pair gets the
    same immutable field object.
    """
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    if degree == 1:
        return base
    return _extension_field(base, degree)


@lru_cache(maxsize=None)
def _extension_field(base: FiniteField, degree: int) -> ExtField:
    return ExtField(base, degree)  # fields hash by identity


@lru_cache(maxsize=None)
def build_tower(p: int, m: int, m1: int, m2: int) -> FieldTower:
    """Deterministically construct the tower; same inputs, same moduli.

    Degree-1 steps reuse the field below them, so e.g. m = 1 makes F_q
    literally F_p.
    """
    if m < 1 or m1 < 1 or m2 < 1:
        raise ParameterError("m, m1, m2 must all be >= 1")
    Fp = prime_field(p)
    Fq = extension_field(Fp, m)
    Fq1 = extension_field(Fq, m1)
    Fq2 = extension_field(Fq, m2)
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
        if s == "g" or s.startswith("g^"):  # column 0 of M_g**k: no table is built
            try:
                k = (int(s[2:]) if s[1:] else 1) % (field.order - 1)
            except ValueError:
                raise MixedFieldError(f"unrecognized element token {data!r}") from None
            col = _mat_pow(field.mul_matrices([field.gen]), k, field.p)[0, :, 0]
            return Elem(field, int(col @ field.p ** np.arange(len(col))))
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
