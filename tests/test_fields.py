import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy import primefactors
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem, gf_strip

from qfcodes import (
    BudgetError,
    Elem,
    ExtField,
    MixedFieldError,
    ParameterError,
    budget,
    build_tower,
    elem_from_data,
    elem_to_data,
    enumerate_field,
    extension_field,
    prime_field,
    primitive_element,
    quad_char,
    rel_trace,
    smallest_irreducible,
)
from qfcodes import FrobeniusTerm, QuadraticForm, fields, quadform
from qfcodes.cli import main

from conftest import run_fresh


def _trial_division_irreducible(base, coeffs):
    """Oracle: no monic divisor of degree 1..deg/2 (exhaustive trial division)."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(base.order), repeat=d):
            div = list(low) + [1]
            # polynomial long division of coeffs by div over base
            rem = list(coeffs)
            while len(rem) >= len(div) and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) < len(div):
                    break
                c = rem[-1]
                shift = len(rem) - len(div)
                for i, dv in enumerate(div):
                    rem[shift + i] = base.sub(rem[shift + i], base.mul(c, dv))
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                return False
    return True


def test_build_tower_parameters():
    t = build_tower(3, 1, 4, 3)
    assert (t.Fq.order, t.Fq1.order, t.Fq2.order) == (3, 81, 27)
    t = build_tower(5, 1, 1, 1)
    assert t.Fq is t.Fp and t.Fq1 is t.Fp and t.Fq2 is t.Fp
    t = build_tower(3, 2, 2, 1)
    assert (t.Fq.order, t.Fq1.order) == (9, 81)


def test_build_tower_rejects_bad_p():
    with pytest.raises(ParameterError):
        build_tower(4, 1, 1, 1)
    with pytest.raises(ParameterError):
        build_tower(9, 1, 1, 1)
    with pytest.raises(ParameterError):
        build_tower(2, 1, 1, 1)


def test_prime_field_refuses_what_is_not_an_odd_prime_before_charging():
    """F_p exists for exactly the odd primes p, and an even p is refused as
    one before its tables are charged: at a budget of 1 step, GF(10^8) is a
    ParameterError, not a BudgetError; a large odd p still pays its charge."""
    make = fields.prime_field.__wrapped__
    odd_primes = set(primefactors(math.prod(range(2, 60)))) - {2}
    for p in range(-3, 60):
        try:
            make(p)
        except ParameterError as e:
            assert str(e) == f"p = {p} must be an odd prime" and p not in odd_primes, p
        else:
            assert p in odd_primes, p
    with budget(1):
        with pytest.raises(ParameterError, match="p = 100000000 must be an odd prime"):
            make(10**8)
        with pytest.raises(BudgetError, match=r"building GF\(100000001\)"):
            make(10**8 + 1)


def test_smallest_irreducible_pinned():
    F3, F5 = prime_field(3), prime_field(5)
    assert smallest_irreducible(F3, 1) == (0, 1)  # x
    assert smallest_irreducible(F3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(F5, 2) == (2, 0, 1)  # x^2 + 2
    assert smallest_irreducible(F3, 7) == (2, 0, 1, 0, 0, 0, 0, 1)
    assert smallest_irreducible(F3, 8) == (2, 0, 1, 0, 0, 0, 0, 0, 1)
    assert smallest_irreducible(F5, 5) == (1, 4, 0, 0, 0, 1)
    # every other modulus the benchmark builds
    F7 = prime_field(7)
    assert smallest_irreducible(F7, 4) == (1, 1, 0, 0, 1)
    assert smallest_irreducible(F7, 3) == (2, 0, 0, 1)
    assert smallest_irreducible(F5, 4) == (2, 0, 0, 0, 1)
    assert smallest_irreducible(F3, 3) == (1, 2, 0, 1)
    assert smallest_irreducible(build_tower(5, 2, 1, 1).Fq, 2) == (5, 0, 1)  # over F_25 ("w")
    assert smallest_irreducible(F3, 7) is smallest_irreducible(F3, 7)  # cached


@pytest.mark.parametrize("p,deg", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_moduli_certified_by_trial_division(p, deg):
    base = prime_field(p)
    coeffs = smallest_irreducible(base, deg)
    assert coeffs[-1] == 1 and len(coeffs) == deg + 1
    assert _trial_division_irreducible(base, coeffs)


def test_modulus_over_extension_field():
    t = build_tower(3, 2, 3, 2)
    assert _trial_division_irreducible(t.Fq, t.Fq1.modulus)


def _modulus_scan(base, degree):
    """The monic candidates of the modulus search, in scan order:
    (c_{d-1}, ..., c_0) lexicographic in dense index order."""
    for high in itertools.product(range(base.order), repeat=degree):
        yield tuple(reversed(high)) + (1,)


@pytest.mark.parametrize(
    "p,m,max_degree", [(3, 1, 4), (5, 1, 4), (7, 1, 4), (3, 2, 3), (5, 2, 3)],
    ids=["F3", "F5", "F7", "F9", "F25"],
)
def test_modulus_is_the_first_irreducible(p, m, max_degree):
    """Every candidate before the modulus is reducible and the modulus is
    irreducible, by exhaustive trial division."""
    base = build_tower(p, m, 1, 1).Fq
    for degree in range(1, max_degree + 1):
        modulus = smallest_irreducible(base, degree)
        for cand in _modulus_scan(base, degree):
            if cand == modulus:
                break
            assert not _trial_division_irreducible(base, cand), cand
        assert _trial_division_irreducible(base, modulus)


@pytest.mark.parametrize(
    "p,m,degree",
    [(3, 1, 2), (3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 4), (7, 1, 3), (7, 1, 4), (3, 2, 2),
     (3, 2, 3)],
)
def test_irreducibility_test_agrees_with_trial_division(p, m, degree):
    """Ben-Or's test, on every monic candidate of the degree; degrees 4 to 6
    hold root-free products of quadratics and cubics, which only its rounds
    i = 2 and i = 3 reject."""
    base = build_tower(p, m, 1, 1).Fq
    for cand in _modulus_scan(base, degree):
        assert fields._is_irreducible(base, cand) == _trial_division_irreducible(base, cand), cand


def test_construction_deterministic():
    a = build_tower(3, 2, 3, 2)
    b = build_tower(3, 2, 3, 2)
    assert a is b  # cached
    assert a.describe() == b.describe()
    assert a.describe()["modulus_Fq1"] == [[0, 1], [1, 0], [0, 0], [1, 0]]
    assert a.describe()["modulus_Fq2"] == [[1, 1], [0, 0], [1, 0]]
    # fields hash by identity, so the caches key on the field object itself
    assert extension_field(a.Fq, 3, var="t") is a.Fq1
    F81 = extension_field(a.Fp, 4)
    assert extension_field(a.Fp, 4, "t") is F81 and extension_field(a.Fp, 4, var="t") is F81
    assert extension_field(a.Fp, 1) is a.Fp
    for sub in (a.Fq, a.Fp):
        assert a.Fq1.trace_table(sub) is a.Fq1.trace_table(sub)


def test_arith_basic_identities():
    t = build_tower(3, 2, 3, 2)
    F9 = t.Fq
    u = Elem(F9, F9.t)
    assert u * u == 2  # modulus u^2 + 1
    rng = random.Random(5)
    for _ in range(50):
        x = Elem(F9, rng.randrange(1, 9))
        assert x * (1 / x) == 1
    g = primitive_element(F9)
    assert g ** (9 - 1) == 1
    assert g**0 == 1
    # pow with huge exponents and negatives
    assert g ** (9**20) == g ** ((9**20) % 8)
    assert g**-1 == 1 / g


def test_zero_division_and_mixed_fields():
    t = build_tower(3, 1, 2, 1)
    with pytest.raises(ZeroDivisionError):
        _ = 1 / t.Fq1.zero
    with pytest.raises(MixedFieldError):
        _ = Elem(t.Fq, 1) + Elem(t.Fq1, 4)


def test_field_axioms_random_sample():
    t = build_tower(5, 1, 2, 1)
    F = t.Fq1
    rng = random.Random(11)
    for _ in range(50):
        x, y, z = (Elem(F, rng.randrange(F.order)) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_frobenius_additive():
    t = build_tower(3, 2, 3, 2)
    q = t.Fq.order
    rng = random.Random(23)
    for F in (t.Fq1, t.Fq2):
        for _ in range(100):
            x = Elem(F, rng.randrange(F.order))
            y = Elem(F, rng.randrange(F.order))
            assert (x + y) ** q == x**q + y**q


def test_rel_trace_examples():
    t = build_tower(3, 1, 2, 1)
    # degree-1 trace is the identity
    for i in range(3):
        assert rel_trace(Elem(t.Fq, i), t.Fq) == Elem(t.Fq, i)
    # on the subfield, Tr_{9/3}(x) = 2x
    F9 = t.Fq1
    for i in range(3):
        x9 = Elem(F9, F9.embed_from(t.Fq, i))
        assert rel_trace(x9, t.Fq) == Elem(t.Fq, t.Fq.mul(2, i))


def test_rel_trace_transitivity_and_membership():
    t = build_tower(3, 2, 3, 2)
    rng = random.Random(7)
    q = t.Fq.order
    for _ in range(100):
        x = Elem(t.Fq1, rng.randrange(t.Fq1.order))
        via = rel_trace(rel_trace(x, t.Fq), t.Fp)
        direct = rel_trace(x, t.Fp)
        assert via == direct
        y = rel_trace(x, t.Fq)
        assert y**q == y  # lands in F_q


def test_rel_trace_alien_field_rejected():
    t = build_tower(3, 2, 3, 2)
    other = build_tower(5, 1, 1, 1)
    with pytest.raises(MixedFieldError):
        rel_trace(Elem(t.Fq1, 5), other.Fq)


def test_quad_char():
    t = build_tower(3, 2, 1, 1)
    F9 = t.Fq
    assert quad_char(F9.zero) == 0
    assert quad_char(F9.one) == 1
    g = primitive_element(F9)
    assert quad_char(g) == -1
    # multiplicative on 100 random nonzero pairs
    rng = random.Random(13)
    for _ in range(100):
        x = Elem(F9, rng.randrange(1, 9))
        y = Elem(F9, rng.randrange(1, 9))
        assert quad_char(x * y) == quad_char(x) * quad_char(y)
    # exactly (q-1)/2 squares, and eta matches the power criterion
    squares = [i for i in range(1, 9) if F9.eta(i) == 1]
    assert len(squares) == 4
    for i in range(1, 9):
        crit = Elem(F9, i) ** ((9 - 1) // 2)
        assert (crit == 1) == (F9.eta(i) == 1)


def test_primitive_element_pinned():
    assert primitive_element(prime_field(3)).idx == 2
    assert primitive_element(prime_field(5)).idx == 2
    F9 = build_tower(3, 2, 1, 1).Fq
    g = primitive_element(F9)
    # oracle: order by repeated multiplication
    k, v = 1, g
    while v != F9.one:
        v = v * g
        k += 1
    assert k == 8
    # the scan order makes 1 + w the first full-order element
    assert F9.coeffs(g.idx) == (1, 1)


def test_enumerate_field():
    t = build_tower(3, 2, 1, 1)
    els = list(enumerate_field(t.Fq))
    assert len(els) == 9
    assert els[0].idx == 0
    assert els[1] == t.Fq.one
    assert els[2] == primitive_element(t.Fq)
    assert len({e.idx for e in els}) == 9
    # omega_i = g^(i-1) pattern
    g = primitive_element(t.Fq)
    for i in range(1, 9):
        assert els[i] == g ** (i - 1)


def test_serialization_roundtrip():
    t = build_tower(3, 2, 3, 2)
    rng = random.Random(3)
    for _ in range(20):
        x = Elem(t.Fq1, rng.randrange(t.Fq1.order))
        assert elem_from_data(t.Fq1, elem_to_data(x)) == x
    d = t.describe()
    assert d["p"] == 3 and d["m"] == 2
    assert d["modulus_Fq"] == [1, 0, 1]
    assert len(d["modulus_Fq1"]) == 4  # cubic, coefficients are F_9 records


def test_elem_tokens():
    F9 = build_tower(3, 2, 1, 1).Fq
    assert elem_from_data(F9, "g").idx == F9.gen
    assert elem_from_data(F9, "g^3") == primitive_element(F9) ** 3
    for F in (prime_field(7), F9, build_tower(3, 2, 3, 1).Fq1, build_tower(5, 1, 3, 1).Fq1):
        for k in (-F.order, -1, 0, 1, 2, F.order - 2, F.order - 1, F.order, 3 * F.order + 5):
            assert elem_from_data(F, f"g^{k}").idx == F.pow(F.gen, k), (F, k)
    assert elem_from_data(F9, 2) == F9.one + F9.one
    with pytest.raises(MixedFieldError):
        elem_from_data(F9, "h")
    with pytest.raises(MixedFieldError):
        elem_from_data(F9, [1, 2, 3])


# -- arithmetic against oracles that do not go through log/exp ---------------

# (p, degree) of the extensions of prime fields; "F9^3" is F_q1 of (3,2,3,2)
PRIME_BASE = {"F9": (3, 2), "F25": (5, 2), "F27": (3, 3), "F49": (7, 2), "F81": (3, 4)}


def _oracle_field(name):
    if name == "F9^3":
        return build_tower(3, 2, 3, 2).Fq1
    p, degree = PRIME_BASE[name]
    return extension_field(prime_field(p), degree)


def _coefficientwise(F, op):
    """``op`` of the base on every pair (i, j), coefficient by coefficient."""
    B = F.base.order
    table = np.array([[op(u, v) for v in range(B)] for u in range(B)])
    digits = np.array([F.coeffs(i) for i in range(F.order)])
    out = table[digits[:, None, :], digits[None, :, :]]
    return out @ B ** np.arange(F.degree)  # from_coeffs on every pair


@pytest.mark.parametrize("name", [*PRIME_BASE, "F9^3"])
def test_addition_against_coefficientwise_oracle(name):
    F = _oracle_field(name)
    base = F.base
    assert all(F.from_coeffs(F.coeffs(i)) == i for i in range(F.order))
    assert (F.op_table("add") == _coefficientwise(F, base.add)).all()
    assert (F.op_table("sub") == _coefficientwise(F, base.sub)).all()
    for i in range(F.order):
        assert F.neg(i) == F.from_coeffs([base.neg(c) for c in F.coeffs(i)])


def _gf_poly(F, i):
    """Element i of an extension of F_p as a galoistools polynomial (leading
    coefficient first)."""
    return gf_strip([int(c) for c in reversed(F.coeffs(i))])


def _gf_index(F, poly):
    digits = [0] * (F.degree - len(poly)) + [int(c) for c in poly]
    return F.from_coeffs(reversed(digits))


@pytest.mark.parametrize("name", list(PRIME_BASE))
def test_multiplication_against_galoistools(name):
    """Products are polynomial products reduced by the pinned modulus."""
    F = _oracle_field(name)
    p = F.p
    modulus = list(reversed(F.modulus))  # galoistools: leading coefficient first
    assert gf_irreducible_p(modulus, p, ZZ)
    polys = [_gf_poly(F, i) for i in range(F.order)]
    mul = F.op_table("mul")
    for i in range(F.order):
        for j in range(F.order):
            product = gf_rem(gf_mul(polys[i], polys[j], p, ZZ), modulus, p, ZZ)
            assert mul[i, j] == _gf_index(F, product)


@pytest.mark.parametrize("name", [*PRIME_BASE, "F3^7"])
def test_generator_is_the_first_full_order_element(name):
    """g is the first c in dense order with c**((|F| - 1)/ell) != 1 for every
    prime ell | |F| - 1, by galoistools powering modulo the pinned modulus."""
    F = extension_field(prime_field(3), 7) if name == "F3^7" else _oracle_field(name)
    modulus, n1 = list(reversed(F.modulus)), F.order - 1

    def full_order(c):
        return all(
            gf_pow_mod(_gf_poly(F, c), n1 // ell, modulus, F.p, ZZ) != [1]
            for ell in primefactors(n1)
        )

    assert full_order(F.gen)
    assert not any(full_order(c) for c in range(1, F.gen))


# (p, degree, degree, ...) up the chain: F_3, F_5, F_9, F_25, F_27, F_49,
# F_81, F_{9^3} and F_{25^2}
MATRIX_FIELDS = [(3,), (5,), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (3, 2, 3), (5, 2, 2)]


@pytest.mark.parametrize("chain", MATRIX_FIELDS, ids=lambda c: "-".join(map(str, c)))
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_mul_matrices_multiply_base_p_digits(chain, data):
    """M_c @ digits(b) = digits(c*b) and M_c M_b = M_(cb) mod p, with c*b
    from the scalar op and, up to order 81, the mul op table."""
    F = prime_field(chain[0])
    for degree in chain[1:]:
        F = extension_field(F, degree)
    p, dim = F.p, len(np.base_repr(F.order - 1, F.p))  # |F| = p**dim
    c, b = (data.draw(st.integers(0, F.order - 1), label=name) for name in "cb")
    cb = F.mul(c, b)
    if F.order <= 81:
        assert F.op_table("mul")[c, b] == cb

    def digits(i):
        return np.array([i // p**l % p for l in range(dim)])

    Mc, Mb, Mcb = F.mul_matrices([c, b, cb])
    assert Mc.shape == (dim, dim) and ((0 <= Mc) & (Mc < p)).all()
    assert (Mc @ digits(b) % p == digits(cb)).all()
    assert (Mc @ Mb % p == Mcb).all()


@pytest.mark.parametrize("shape", [(3, 2, 3, 2), (5, 1, 3, 2), (7, 2, 1, 1)])
def test_kernel_tables_agree_with_scalar_ops(shape):
    """The q x q op tables and the trace rows the kernels read."""
    tw = build_tower(*shape)
    Fq, Fq2 = tw.Fq, tw.Fq2
    for op in ("add", "sub", "mul"):
        f, n = getattr(Fq, op), Fq.order
        expected = [[f(i, j) for j in range(n)] for i in range(n)]
        assert Fq.op_table(op).tolist() == expected
    tr = Fq2.trace_table(Fq)
    for b in range(Fq2.order):
        assert Fq2.trace_row(b, Fq).tolist() == [tr[Fq2.mul(b, y)] for y in Fq2.omega]


@pytest.mark.parametrize("shape", [(3, 2, 3, 2), (5, 1, 3, 2)])
def test_trace_table_is_the_frobenius_sum(shape):
    tw = build_tower(*shape)
    for F, sub in ((tw.Fq1, tw.Fq), (tw.Fq1, tw.Fp), (tw.Fq2, tw.Fq), (tw.Fq, tw.Fp)):
        table = F.trace_table(sub)
        for i in range(F.order):
            x, acc = Elem(F, i), F.zero
            for j in range(F.degree_over(sub)):
                acc = acc + x ** (sub.order**j)
            assert table[i] == F.demote_to(acc.idx, sub)


@pytest.mark.parametrize("shape", [(3, 2, 3, 2), (5, 1, 3, 2), (7, 1, 1, 1)])
def test_frobenius_term_is_the_scalar_power(shape):
    """The evaluator's Frobenius term against scalar pow, at every x: Frob_i
    is x -> x**(q**i) on digits, and Tr(a * x**(q**i + 1)) from the form's
    digit tensor is the trace of the scalar power."""
    tw = build_tower(*shape)
    F, p, q = tw.Fq1, tw.p, tw.q
    frob = quadform._linear_maps(tw)[0]
    dim = len(frob[0])
    X = fields.digits(np.arange(F.order), p, dim)
    monomials, tr = quadform._monomials(X, p), F.trace_table(tw.Fq)
    for i in range(tw.m1):
        powers = fields.digits([F.pow(x, q**i) for x in range(F.order)], p, dim)
        assert (X @ frob[i].T % p).tolist() == powers.tolist()
        for a in (1, F.gen, F.order - 1):
            form = QuadraticForm(tw, (FrobeniusTerm(Elem(F, a), i),))
            got = quadform._q_digits(form._digit_form, monomials, p) @ p ** np.arange(tw.m)
            assert got.tolist() == [tr[F.mul(a, F.pow(x, q**i + 1))] for x in range(F.order)]


def test_op_tables_are_built_once_and_read_only():
    Fq = build_tower(5, 2, 1, 1).Fq
    for op in ("add", "sub", "mul"):
        table = Fq.op_table(op)
        assert Fq.op_table(op) is table
        assert not table.flags.writeable


def test_addition_builds_no_table(monkeypatch):
    """Addition is digit-wise on indices: on fresh F_9, F_{3^7} and F_625
    over F_25, scalar add/sub/neg and the add/sub op tables build no table,
    and multiplication builds the log/exp tables once.  F_{3^7} has no op
    table, as in production: its three 2187 x 2187 tables would lift this
    process's peak RSS, which the fresh processes of the reach tests inherit,
    by about 150 MB."""
    fresh = [ExtField(prime_field(3), 2), ExtField(prime_field(3), 7),
             ExtField(ExtField(prime_field(5), 2), 2)]
    built, real = [], fields.FiniteField._finish_init

    def spy(self):
        built.append(self.order)
        real(self)

    monkeypatch.setattr(fields.FiniteField, "_finish_init", spy)
    for F in fresh:
        x, y, tables = F.order - 2, F.order // 3, F.order < 1000
        assert F.sub(F.add(x, y), y) == x and F.add(x, F.neg(x)) == 0
        if tables:
            assert F.op_table("add")[x, y] == F.add(x, y)
            assert F.op_table("sub")[x, y] == F.sub(x, y)
        assert built == []
        assert (F.op_table("mul")[x, 1] if tables else F.mul(x, 1)) == x
        assert built == [F.order]
        built.clear()


def test_trace_table_blocks_do_not_move_the_table(monkeypatch):
    cached = build_tower(3, 2, 3, 2).Fq1
    monkeypatch.setattr(fields, "_DIGIT_BLOCK", 7)
    fresh = ExtField(cached.base, 3, modulus=cached.modulus)
    for sub in cached.subfield_chain()[1:]:
        assert fresh.trace_table(sub).tobytes() == cached.trace_table(sub).tobytes()


def test_a_racing_table_build_keeps_the_caches():
    """Two threads may both build a field's tables: the later build publishes
    the same tables and keeps the caches the first one has filled."""
    F = ExtField(prime_field(3), 3)
    trace, log = F.trace_table(F.base), F._log
    F._finish_init()
    assert F.trace_table(F.base) is trace
    assert F._log.tobytes() == log.tobytes()


def test_oversized_field_tables_are_refused_before_allocation():
    """An extension keeps its modulus and E; the first read of a table charges
    the tables, and a field whose indices would not fit in int64 is refused
    at construction."""
    F16 = extension_field(prime_field(3), 16)
    for _ in range(2):
        with pytest.raises(BudgetError, match=r"building GF\(43046721\) needs 947027862 "):
            F16.omega
    with pytest.raises(BudgetError, match=r"building GF\(14348907\) needs 301327047 "):
        extension_field(prime_field(3), 15).omega
    with pytest.raises(BudgetError, match=r"building GF\(1000000007\)"):
        prime_field(1000000007)
    assert ExtField(prime_field(3), 39).order < 2**63  # 3**40 >= 2**63: indices are int64
    with pytest.raises(ParameterError, match=r"GF\(3\*\*40\) is too large"):
        ExtField(prime_field(3), 40)


def test_generator_search_builds_no_table():
    """``gen`` is the batched search alone: over F_{3^16} it builds no table,
    and a "g^k" token is column 0 of M_g**k.  Factoring |F| - 1 is charged
    its trial divisors plus (|F| - 1)**(1/4) steps of Pollard-Brent, so the
    generator of F_{11^17} is found at the default budget (a generator:
    g**((|F| - 1)/l) != 1 for every prime l | |F| - 1, read through M_g) and
    refused one step below that charge."""
    F16 = extension_field(prime_field(3), 16)
    g = F16.gen
    assert elem_from_data(F16, "g").idx == g and elem_from_data(F16, "g^0").idx == 1
    g2 = elem_from_data(F16, "g^2").idx
    assert F16.mul_matrices([g])[0] @ F16.mul_matrices([g])[0][:, 0] % 3 @ 3 ** np.arange(16) == g2
    assert elem_from_data(F16, f"g^{F16.order + 1}").idx == g2  # exponents mod |F| - 1
    assert not {"_log", "_exp", "_omega"} & set(F16.__dict__)
    F = extension_field(prime_field(11), 17)
    with budget(27686), pytest.raises(
        BudgetError, match=r"the generator search of GF\(505447028499293771\) needs 27687 "
    ):
        F.gen
    n1, M_g = F.order - 1, F.mul_matrices([F.gen])[0]
    assert primefactors(n1) == [2, 5, 50544702849929377]
    for ell in primefactors(n1):
        col = np.eye(F.dim, 1, dtype=np.int64)[:, 0]
        power, e = M_g, n1 // ell
        while e:  # col = M_g**(n1 / ell) applied to the digit row of 1
            if e & 1:
                col = power @ col % 11
            power, e = power @ power % 11, e >> 1
        assert col.tolist() != [1] + [0] * (F.dim - 1), ell


@pytest.mark.parametrize("degree", [2, 4, 7])
def test_first_table_read_is_charged_to_the_run_budget(degree):
    """A fresh extension's first table read is charged |F| * (dim + 6) steps
    to the budget of the enclosing block: refused one step short, built at
    the charge, and not charged again once built."""
    F = ExtField(prime_field(3), degree)
    cost = F.order * (degree + 6)
    with budget(cost - 1), pytest.raises(BudgetError, match=rf"building GF\({F.order}\) needs {cost} "):
        F.omega
    with budget(cost):
        omega = F.omega
    assert omega.tobytes() == extension_field(prime_field(3), degree).omega.tobytes()
    with budget(1):
        assert F.log(F.gen) == 1


# -- scalar ops on the one copy of each table ---------------------------------

PROPERTY_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (3, 7)]


@pytest.mark.parametrize("p,degree", PROPERTY_FIELDS)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_scalar_ops_are_field_arithmetic_on_read_only_tables(p, degree, data):
    """Scalar ops return Python ints, agree with the op tables and the
    Frobenius matrix and satisfy the field axioms; eta is multiplicative; the tables they read
    are read-only arrays."""
    F = extension_field(prime_field(p), degree)
    x, y, z = (data.draw(st.integers(0, F.order - 1), label=name) for name in "xyz")
    e = data.draw(st.integers(1, F.order**2), label="e")
    u = x or 1  # a unit
    got = {
        "add": F.add(x, y), "neg": F.neg(x), "sub": F.sub(x, y), "mul": F.mul(x, y),
        "inv": F.inv(u), "div": F.div(x, u), "pow": F.pow(x, e), "log": F.log(u),
        "eta": F.eta(x), "omega_pos": F.omega_pos(x),
    }
    assert all(type(v) is int for v in got.values()), got
    if F.order <= 81:  # the q x q tables of the F_q kernels
        for op in ("add", "sub", "mul"):
            assert F.op_table(op)[x, y] == got[op]
    j, dim = e % degree, len(F.frobenius_matrix)  # x -> x**(p**j) on digits
    frob = fields._mat_pow(F.frobenius_matrix[None], j, p)[0]
    digits = fields.digits([x, F.pow(x, p**j)], p, dim)
    assert (frob @ digits[0] % p == digits[1]).all()
    assert F.add(got["add"], z) == F.add(x, F.add(y, z))
    assert F.mul(got["mul"], z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(got["mul"], F.mul(x, z))
    assert F.mul(u, got["inv"]) == 1 and F.mul(got["div"], u) == x
    assert F.eta(got["mul"]) == F.eta(x) * F.eta(y)
    assert F.omega[got["omega_pos"]] == x
    assert not any(table.flags.writeable for table in (F._exp, F._log, F.omega))


# -- reach ---------------------------------------------------------------------


def test_f_3_8_builds_in_linear_memory():
    """No |F| x |F| table: F_{3^8} peaks far below the 86 MB that one dense
    int16 addition table would take."""
    tracemalloc.start()
    try:
        ExtField(prime_field(3), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@pytest.mark.parametrize("p,degree", [(3, 7), (5, 3), (7, 2), (3, 2)])
def test_exp_tables_and_addition_are_polynomial_arithmetic(p, degree):
    """exp[k] = g**k by repeated polynomial multiplication (galoistools,
    reduced by the pinned modulus), log inverts it, and 1 + g**k by scalar
    addition is galoistools' sum of the two polynomials."""
    F = ExtField(prime_field(p), degree)
    modulus, g = list(reversed(F.modulus)), _gf_poly(F, F.gen)
    power, powers = [1], [1]
    for _ in range(F.order - 2):
        power = gf_rem(gf_mul(power, g, p, ZZ), modulus, p, ZZ)
        powers.append(_gf_index(F, power))
    assert F._exp.tolist() == powers
    assert [F._log[x] for x in powers] == list(range(F.order - 1))
    one = _gf_poly(F, 1)
    assert [F.add(1, x) for x in powers] == [
        _gf_index(F, gf_add(one, _gf_poly(F, x), p, ZZ)) for x in powers
    ]


_EXP_BUILD_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, tracemalloc
    from qfcodes import ExtField, prime_field
    F3 = prime_field(3)
    tracemalloc.start()
    F = ExtField(F3, 12)
    held, peak = tracemalloc.get_traced_memory()
    print(json.dumps({
        "held_mb": held / 2**20,
        "peak_mb": peak / 2**20,
        "exp": hashlib.sha1(F._exp.tobytes()).hexdigest(),
        "log": hashlib.sha1(F._log.tobytes()).hexdigest(),
    }))
    """
)


def test_exp_build_of_f_3_12_stays_near_what_the_field_holds():
    """The exp table is turned into indices block by block: building
    F_{3^12} peaks within 10 MB of what the field holds afterwards (the
    digit blocks held all at once took it 33 MB over), with the same
    exp and log bytes.  Each table is held once, as an array: the field
    holds under 24 MB (73 MB with Python-list copies of exp, log and Zech)."""
    src = str(Path(fields.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _EXP_BUILD_SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["exp"].startswith("42c19c1768cb") and run["log"].startswith("3176c14a22a1"), run
    assert run["peak_mb"] - run["held_mb"] < 10, run
    assert run["held_mb"] < 24, run


_F_3_14_SCRIPT = textwrap.dedent(
    """
    import json, time
    from qfcodes import extension_field, prime_field
    start = time.perf_counter()
    omega = extension_field(prime_field(3), 14).omega
    print(json.dumps({
        "size": len(omega),
        "seconds": time.perf_counter() - start,
    }))
    """
)


@pytest.mark.reach
def test_f_3_14_tables_fit_the_default_budget():
    """F_{3^14}'s tables cost 3^14 * (14 + 6) = 95 659 380 steps, inside the
    default budget: omega is built in a fresh process in seconds, under
    200 MB (about 1.9 s and 141 MB on a 2-vCPU host)."""
    run = run_fresh(_F_3_14_SCRIPT)
    assert run["size"] == 3**14, run
    assert run["seconds"] < 8 and run["peak_mb"] < 200, run


# Every field of the towers and exhaustive-wd benchmark shapes, of every preset
# tower and of (3, 2, 3, 2), keyed by the orders of its subfield chain: sha1 of
# (modulus, gen) and the omega bytes.  The first pins, which also hashed the
# Zech table, were recorded before field construction moved to F_p matrix
# algebra; these were recomputed without it by code that still reproduced them.
REPRESENTATION_SHAPES = [
    (3, 1, 7, 1), (5, 1, 5, 1), (7, 1, 4, 1), (3, 1, 8, 1),
    (3, 1, 3, 7), (5, 2, 1, 2), (7, 1, 2, 3), (5, 1, 2, 4),
    (3, 1, 4, 3), (5, 1, 3, 2), (3, 2, 3, 2), (5, 1, 2, 3),
    (3, 1, 5, 3), (3, 1, 3, 4), (5, 2, 1, 1), (7, 2, 1, 1),
]
REPRESENTATION_PINS = {
    "3": "45622fa43d415ea2", "5": "5e34e85d44522b2d", "7": "d2b0a09766ac5bcf",
    "9/3": "8653d3ad6ac69b93", "25/5": "31c9cf6aeaa53720", "27/3": "d1ddc87e3e3b7550",
    "49/7": "84cb055960f9175b", "81/3": "a318b804601ef367", "125/5": "982d80dc975d1e8f",
    "243/3": "410895dc49ade12f", "343/7": "47fb530f78f212d6", "625/5": "e499fa4e2908d848",
    "2187/3": "9b7afedbf0a470df", "2401/7": "6f6e91ad7771b599",
    "3125/5": "109b0da1d29c0d2e", "6561/3": "09fbdfd58ece593e",
    "81/9/3": "110aa07c80699ba6", "625/25/5": "eec19bf711ca34c3",
    "729/9/3": "806bb78d0686140f",
}


def _representation(F):
    h = hashlib.sha1(repr((F.modulus, F.gen)).encode())
    h.update(F.omega.tobytes())
    return "/".join(str(f.order) for f in F.subfield_chain()), h.hexdigest()[:16]


def test_field_representations_are_pinned():
    """Moduli, generators and omega tables of every benchmark and preset
    field are the pinned bytes."""
    got = {}
    for shape in REPRESENTATION_SHAPES:
        tw = build_tower(*shape)
        got.update(_representation(F) for F in (tw.Fp, tw.Fq, tw.Fq1, tw.Fq2))
    assert got == REPRESENTATION_PINS


def test_field_construction_makes_no_scalar_polynomial_product(monkeypatch):
    """With its modulus given, a field is built by F_p matrix algebra alone."""
    F3 = prime_field(3)

    def refuse(*args):
        raise AssertionError("scalar polynomial product during construction")

    monkeypatch.setattr(fields, "_poly_mulmod", refuse)
    F = ExtField(F3, 8, modulus=(2, 0, 1, 0, 0, 0, 0, 0, 1))
    label, sha = _representation(F)
    assert REPRESENTATION_PINS[label] == sha


def test_scalar_polynomial_powering_is_gone():
    src = Path(fields.__file__).parent
    hits = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "_mul_raw" in line or "_pow_raw" in line
    ]
    assert hits == []


@settings(max_examples=25, deadline=None, database=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    m=st.sampled_from([1, 2]),
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    data=st.data(),
)
def test_trace_is_transitive_on_random_towers(p, m, m1, m2, data):
    """Tr_{F_{q^mi}/F_p} = Tr_{F_q/F_p} o Tr_{F_{q^mi}/F_q} on both sides,
    as whole tables and, at one drawn x, against the Frobenius sum."""
    tw = build_tower(p, m, m1, m2)
    Fp, Fq = tw.Fp, tw.Fq
    for F in (tw.Fq1, tw.Fq2):
        direct = F.trace_table(Fp)
        assert (Fq.trace_table(Fp)[F.trace_table(Fq)] == direct).all()
        x = Elem(F, data.draw(st.integers(0, F.order - 1), label="x"))
        acc = F.zero
        for j in range(F.degree_over(Fp)):
            acc = acc + x ** (p**j)
        assert direct[x.idx] == F.demote_to(acc.idx, Fp)


@settings(max_examples=25, deadline=None, database=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    m=st.sampled_from([1, 2]),
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    data=st.data(),
)
def test_index_format_nests_on_random_towers(p, m, m1, m2, data):
    """One rule in every field: the coefficients of i are its digits over the
    base (sum c_k t**k == i in field arithmetic), k is k % p, and an element
    of a subfield S keeps its index, so it lies in S iff i < |S|."""
    tw = build_tower(p, m, m1, m2)
    chain = {F: F.subfield_chain() for F in (tw.Fp, tw.Fq, tw.Fq1, tw.Fq2)}
    for F, subs in chain.items():
        i = data.draw(st.integers(0, F.order - 1), label="i")
        cs = F.coeffs(i)
        assert F.from_coeffs(cs) == i and len(cs) == F.degree
        if F.base is not None:
            t, lifted = Elem(F, F.t), (Elem(F, F.embed_from(F.base, c)) for c in cs)
            assert sum((c * t**k for k, c in enumerate(lifted)), F.zero) == Elem(F, i)
        with pytest.raises(MixedFieldError):
            F.from_coeffs(cs + (0,))
        k = data.draw(st.integers(-3 * p, 3 * p), label="k")
        assert F.from_int(k) == k % p == sum([F.one] * (k % p), F.zero).idx
        for S in subs:
            j = data.draw(st.integers(0, S.order - 1), label="j")
            assert F.demote_to(F.embed_from(S, j), S) == j
            for x in {i, S.order - 1, min(S.order, F.order - 1)}:
                if x < S.order:
                    assert F.demote_to(x, S) == x
                else:
                    with pytest.raises(MixedFieldError):
                        F.demote_to(x, S)
        for other in chain:
            if other not in subs:  # Fq2 in Fq1 when m1, m2 > 1; a larger field in a smaller
                with pytest.raises(MixedFieldError):
                    F.embed_from(other, 0)
                with pytest.raises(MixedFieldError):
                    F.demote_to(0, other)


def _digit_cut(line: str) -> bool:
    """Whether ``line`` decodes digits by hand: a floor division by powers
    ``// x ** np.arange(``, a floor division by a named power followed by
    ``%`` (``enc // q % q**m2``, ``V // q**lo % q**b``), or ``enc % q``
    beside ``enc // q ** ...``."""
    if re.search(r"//\s*\S+\s*\*\*\s*np\.arange\(", line):
        return True
    if re.search(r"//\s*[A-Za-z_][\w.]*(\s*\*\*\s*\(?[\w.+\- ]+\)?)?\s*%", line):
        return True
    return any(
        re.search(rf"\b{re.escape(x)}\s*//\s*{re.escape(q)}\s*\*\*", line)
        for x, q in re.findall(r"\b(\w+)\s*%\s*(\w+)\b", line)
    )


def test_digit_cut_guard_catches_the_hand_decoders():
    """The guard's patterns match the hand-written decoders that ``fields.digits``
    and ``CodeSpec.split`` replaced, and not the modular arithmetic beside them."""
    cuts = [
        "return enc % q, enc // q % q**m2, enc // q ** (1 + m2)",
        "part = table.take(V // q**lo % q**b, axis=0)",
        "return list(zip((enc % q).tolist(), (enc // q ** (1 + m2)).tolist()))",
        "x = np.asarray(x)[..., None] // base ** np.arange(count) % base",
    ]
    fine = [
        "return p if (p - 1) // 2 % 2 == 0 else -p",
        "B = (S + S.T)[:, ::m, ::m] * ((p + 1) // 2) % p",
        "x = pow(b, (n - 1) >> s, n) % n",
    ]
    assert [_digit_cut(line) for line in cuts + fine] == [True] * len(cuts) + [False] * len(fine)


def test_the_index_format_is_written_once():
    """No module but ``fields`` decodes digits (``_digit_cut``), and no field
    class but ``FiniteField`` defines the coefficient rules."""
    hits = [
        f"{path.name}:{n}"
        for path in sorted(Path(fields.__file__).parent.glob("*.py"))
        if path.name != "fields.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _digit_cut(line)
    ]
    assert hits == []
    rules, classes, todo = {"coeffs", "from_coeffs", "from_int"}, [], [fields.FiniteField]
    while todo:
        classes.append(todo.pop())
        todo += classes[-1].__subclasses__()
    assert [c.__name__ for c in classes if rules & vars(c).keys()] == ["FiniteField"]


def test_field_info_reaches_f_3_9(capsys):
    argv = ["field-info", "-p", "3", "--m1", "9", "--m2", "1", "--format", "json"]
    assert main(argv) == 0
    info = json.loads(capsys.readouterr().out)["field_info"]
    assert info["modulus_Fq1"] == list(smallest_irreducible(prime_field(3), 9))
