import cmath
import random

import pytest

from sl2swc.algebra import (
    CompositeP,
    Cyclo,
    NotRationalInteger,
    binom_mod2,
    cyclo_make,
    cyclo_to_integer,
    cyclotomic_polynomial,
    euler_phi,
    factor_prime_power,
    field_make,
    is_prime,
    ord2,
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


def test_conjugation_involution_and_norm():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 25)
        c = cyclo_make(m, [rng.randrange(-5, 6) for _ in range(m)])
        assert c.conj().conj() == c
        # multiplicative: conj is a ring map
        d = cyclo_make(m, [rng.randrange(-5, 6) for _ in range(m)])
        assert (c * d).conj() == c.conj() * d.conj()
        val = evalf(c * c.conj())
        assert abs(val.imag) < 1e-6 and val.real > -1e-6


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
    assert [euler_phi(m) for m in (1, 2, 3, 4, 12, 120)] == [1, 1, 2, 2, 4, 32]
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
