import cmath
import os
import random
import subprocess
import sys
from functools import cache
from math import lcm, prod
from pathlib import Path

import numpy as np
import pytest

from sl2swc.algebra import (
    CompositeP,
    Cyclo,
    NotRationalInteger,
    binom_mod2,
    cyclo_make,
    cyclo_to_integer,
    cyclotomic_polynomial,
    factor_prime_power,
    field_make,
    is_prime,
    ord2,
    prime_factors,
)


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

def _power(F, a, n):
    out = 1
    for _ in range(n):
        out = F.mul[out][a]
    return out


def test_gf4_modulus_and_product():
    F = field_make(2, 2)
    assert F.modulus == (1, 1)  # t^2 + t + 1, the only irreducible quadratic
    t = 2
    assert F.digits[t] == (0, 1)
    assert F.digits[F.mul[t][t]] == (1, 1)  # t^2 = t + 1


def test_gf5_inverse():
    F = field_make(5, 1)
    assert F.inv[2] == 3


def test_gf9_enumeration_and_cyclic_units():
    F = field_make(3, 2)
    assert len(set(F.digits)) == 9
    # exhaustive: some unit generates the full multiplicative group
    orders = []
    for u in range(1, 9):
        k, cur = 1, u
        while cur != 1:
            cur = F.mul[cur][u]
            k += 1
        assert F.mult_order(u) == k
        orders.append(k)
    assert max(orders) == 8


def test_composite_p_rejected():
    with pytest.raises(CompositeP):
        field_make(6, 1)


def test_trace_gf4():
    F = field_make(2, 2)
    assert F.trace[0] == 0
    assert F.trace[1] == 0   # 1 + 1 in characteristic 2
    assert F.trace[2] == 1   # t + t^2 = t + (t+1) = 1


def _check_axioms(F):
    add, mul, q = F.add, F.mul, F.q
    rng = range(q)
    for a in rng:
        assert add[0][a] == a and mul[1][a] == a
        assert add[a][F.neg[a]] == 0
        for b in rng:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in rng:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in range(1, q):
        assert mul[a][F.inv[a]] == 1


@pytest.mark.parametrize("p,r", [(2, 2), (5, 1), (3, 2)])
def test_field_axioms_exhaustive_small(p, r):
    _check_axioms(field_make(p, r))


@pytest.mark.parametrize("q", [25, 27, 49, 81])
def test_field_axioms_exhaustive_tables(q):
    # larger fields
    _check_axioms(field_make(*factor_prime_power(q)))


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_frobenius_and_trace(p, r):
    F = field_make(p, r)
    elems = range(F.q)
    frob = [_power(F, a, p) for a in elems]
    for a in elems:
        for b in elems:
            assert frob[F.add[a][b]] == F.add[frob[a]][frob[b]]
            assert frob[F.mul[a][b]] == F.mul[frob[a]][frob[b]]
    # trace is GF(p)-linear and onto GF(p)
    for a in elems:
        for b in elems:
            assert F.trace[F.add[a][b]] == (F.trace[a] + F.trace[b]) % p
    assert set(F.trace) == set(range(p))


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclo_examples():
    assert Cyclo.root(4, 2) == -1
    assert Cyclo.root(3, 1) + Cyclo.root(3, 2) == -1
    assert Cyclo.root(8, 1) * Cyclo.root(8, 7) == 1


def test_cyclo_to_integer():
    assert cyclo_to_integer(Cyclo.integer(12, 7)) == 7
    with pytest.raises(NotRationalInteger):
        cyclo_to_integer(Cyclo.root(4, 1))
    assert cyclo_to_integer(cyclo_make(3, [0, -1, -1])) == 1


def test_m_equal_one_is_the_integers():
    # Z[zeta_1] = Z: phi(1) = 1 and Phi_1 = t - 1, so zeta_1 = 1
    assert Cyclo.integer(1, -7).coeffs == (-7,)
    assert Cyclo.integer(1, 1) == Cyclo.root(1)
    assert cyclo_make(1, [3, -5, 4]).coeffs == (2,)
    assert cyclo_make(1, []).coeffs == (0,)
    for n in (-3, 0, 1, 12):
        assert cyclo_to_integer(Cyclo(1, (n,))) == n
        assert cyclo_to_integer(cyclo_make(1, [n, 0, n])) == 2 * n


def evalf(c: Cyclo) -> complex:
    """Numeric value of c at zeta = exp(2 pi i / m)."""
    z = cmath.exp(2j * cmath.pi / c.m)
    return sum(a * z**i for i, a in enumerate(c.coeffs))


def test_cyclo_random_numeric_agreement():
    rng = random.Random(42)
    for _ in range(1000):
        m = rng.randrange(1, 25)
        a = cyclo_make(m, [rng.randrange(-9, 10) for _ in range(m)])
        b = cyclo_make(m, [rng.randrange(-9, 10) for _ in range(m)])
        assert abs(evalf(a * b) - evalf(a) * evalf(b)) < 1e-6
        assert abs(evalf(a + b) - (evalf(a) + evalf(b))) < 1e-6


def test_roundtrip_evaluation():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randrange(2, 20)
        vec = [rng.randrange(-4, 5) for _ in range(m)]
        c = cyclo_make(m, vec)
        direct = sum(v * (evalf(Cyclo.root(m, 1)) ** k) for k, v in enumerate(vec))
        assert abs(evalf(c) - direct) < 1e-9


def test_upcast():
    z3 = Cyclo.root(3, 1)
    assert z3.upcast(12) == Cyclo.root(12, 4)
    c = cyclo_make(4, [1, 2])
    assert c.upcast(8).coeffs == cyclo_make(8, [1, 0, 2]).coeffs


def test_binom_mod2_and_ord2():
    import math

    for n in range(0, 40):
        for k in range(0, n + 1):
            assert binom_mod2(n, k) == math.comb(n, k) % 2
    # negative upper index: C(-n, k) = (-1)^k C(n+k-1, k)
    for n in range(1, 12):
        for k in range(0, 12):
            assert binom_mod2(-n, k) == math.comb(n + k - 1, k) % 2
    assert [ord2(n) for n in (1, 2, 3, 4, 6, 8, 12, 80)] == [0, 1, 0, 2, 1, 3, 2, 4]


def test_phi_and_primes():
    degrees = [len(cyclotomic_polynomial(m)) - 1 for m in (1, 2, 3, 4, 12, 120)]
    assert degrees == [1, 1, 2, 2, 4, 32]
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# ---------------------------------------------------------------------------
# the cyclotomic kernel against the earlier one: Phi_m by dividing t^m - 1 by
# Phi_d for every proper divisor d, and normal forms through the table of
# the normal forms of t^k, k = 0..2m
# ---------------------------------------------------------------------------

def _sl2_exponents(top):
    """exp SL(2,q) for every prime power q <= top: the lcm of the orders of
    the ±unipotent elements (p, 2p), the split torus (q-1) and the non-split
    torus (q+1)."""
    out = set()
    for q in range(2, top + 1):
        try:
            p, _ = factor_prime_power(q)
        except ValueError:
            continue
        out.add(lcm(2 * p if p > 2 else 2, q - 1, q + 1))
    return sorted(out)


@cache
def _ref_cyclotomic(m):
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        div = _ref_cyclotomic(d)
        out = [0] * (len(poly) - len(div) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = out[k] = poly[k + len(div) - 1]
            for i, dc in enumerate(div):
                poly[k + i] -= c * dc
        assert not any(poly)
        poly = out
    return tuple(poly)


@cache
def _ref_rows(m):
    phi_poly = _ref_cyclotomic(m)
    phi = len(phi_poly) - 1
    rows = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
    top = tuple(-c for c in phi_poly[:phi])
    rows.append(top)
    while len(rows) <= 2 * m:
        prev = rows[-1]
        row = [0] + list(prev[:-1])
        rows.append(tuple(a + prev[-1] * b for a, b in zip(row, top)))
    return rows


def _ref_reduce(m, vec):
    rows = _ref_rows(m)
    phi = len(rows[0])
    out = list(vec[:phi]) + [0] * max(0, phi - len(vec))
    for k in range(phi, len(vec)):
        if vec[k]:
            out = [a + vec[k] * b for a, b in zip(out, rows[k])]
    return tuple(out)


def _ref_make(m, coeffs):
    vec = [0] * m
    for k, c in enumerate(coeffs):
        vec[k % m] += c
    return _ref_reduce(m, vec)


def _ref_mul(m, a, b):
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] += x * y
    return _ref_reduce(m, acc)


def test_cyclotomic_polynomials_multiply_to_t_m_minus_one():
    for m in range(1, 401):
        acc = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(acc) + len(phi) - 1)
                for j, c in enumerate(phi):
                    if c:
                        for i, a in enumerate(acc):
                            out[i + j] += a * c
                acc = out
        assert acc == [-1] + [0] * (m - 1) + [1], m


def _times_binomials(poly, ds):
    """poly · prod (t^d - 1) over ds, as int64 coefficients."""
    out = np.array(poly, dtype=np.int64)
    for d in ds:
        nxt = np.zeros(len(out) + d, dtype=np.int64)
        nxt[d:] += out
        nxt[:len(out)] -= out
        out = nxt
    return out


def test_cyclotomic_polynomials_at_sl2_exponents():
    # t^m - 1 = prod_{d|m} Phi_d for all m dividing M is, by Moebius inversion,
    # Phi_d · prod_{mu(d/e) = -1} (t^e - 1) = prod_{mu(d/e) = 1} (t^e - 1) for
    # all d dividing M; these products take one shifted difference per factor
    exponents = _sl2_exponents(81)
    assert exponents[:7] == [6, 12, 30, 60, 120, 126, 168] and 9840 in exponents
    divisors = {d for M in exponents for d in range(1, M + 1) if M % d == 0}
    for d in sorted(divisors):
        ps = prime_factors(d)
        plus, minus = [], []
        for mask in range(2 ** len(ps)):
            sub = [p for i, p in enumerate(ps) if mask >> i & 1]
            (minus if len(sub) % 2 else plus).append(d // prod(sub))
        phi = cyclotomic_polynomial(d)
        # every coefficient is below the l1 bound, so int64 is exact
        assert sum(map(abs, phi)) << len(minus) < 2 ** 62
        assert np.array_equal(_times_binomials(phi, minus), _times_binomials([1], plus)), d


@pytest.mark.parametrize("m", list(range(1, 131)) + [510, 660, 2448])
def test_normal_forms_match_the_power_row_reduction(m):
    assert cyclotomic_polynomial(m) == _ref_cyclotomic(m)
    rng = random.Random(m)
    for length in (1, m, m + 1, 2 * m + 3, 3 * m):
        dense = [rng.randrange(-9, 10) for _ in range(length)]
        sparse = [rng.randrange(-3, 4) if rng.random() < 0.05 else 0 for _ in range(length)]
        for vec in (dense, sparse):
            assert cyclo_make(m, vec).coeffs == _ref_make(m, vec)
    a = cyclo_make(m, [rng.randrange(-9, 10) for _ in range(m)])
    b = cyclo_make(m, [rng.randrange(-9, 10) for _ in range(m)])
    assert (a * b).coeffs == _ref_mul(m, a.coeffs, b.coeffs)
    half = _ref_make(m, [0] * (m // 2) + [1])
    assert (a * Cyclo.root(m, m // 2)).coeffs == _ref_mul(m, a.coeffs, half)


def test_cyclo_at_exp_sl2_81_fits_in_512_mib():
    # with zeta = zeta_m, (sum_k k zeta^k)(zeta - 1) = m, so x (zeta - 1) = m zeta
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from sl2swc.algebra import Cyclo, cyclo_make\n"
            "m = 9840\n"
            "x = Cyclo.root(m, 1) * cyclo_make(m, range(m))\n"
            "print(x * (Cyclo.root(m, 1) - 1) == Cyclo.root(m, 1) * m)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
