import cmath
import hashlib
import json
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
    FieldTable,
    ReducibleModulus,
    cyclotomic_polynomial,
    factor_prime_power,
    field_make,
    is_prime,
    ord2,
    power_rows,
    prime_factors,
)
from sl2swc.cohomology import binom_mod2


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
    # list copies: the triple loop indexes numpy scalars several times slower
    add, mul, neg, inv, q = F.add.tolist(), F.mul.tolist(), F.neg.tolist(), F.inv.tolist(), F.q
    rng = range(q)
    for a in rng:
        assert add[0][a] == a and mul[1][a] == a
        assert add[a][neg[a]] == 0
        for b in rng:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in rng:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in range(1, q):
        assert mul[a][inv[a]] == 1


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


# The modulus and a SHA-256 of [add, mul, neg, inv[1:], trace] (as lists,
# compact JSON) of every field with q <= 81, as the construction by
# polynomial products, remainders and Frobenius sums produced them.
FIELD_PINS = {
    2: ((0,), "9310f0c9b407a02dbcfedbd5587bbeac2e4ccb5fcaf4fcb7a9d38da3c7075013"),
    3: ((0,), "f72b2fad9c8d86fe10320c5e8d12936a95cbfebcc47f9a5ac2e28524813566ef"),
    4: ((1, 1), "c0a1f38850a86efcc71bf7285dd16788ff95dd7b78ce1202fb166efcff728a9d"),
    5: ((0,), "45cf5ab4c6465163fd246930acc9eb37a55aa1894db587551a28ec1e261d42f5"),
    7: ((0,), "6eeb374292f7c84622dec9b0d3e1608741dad72c9bac83af0a4fb4145c18271c"),
    8: ((1, 1, 0), "68cb688e88885ce624ee5633c729f1b04c3d669fa9f7725202dcd4804a23621c"),
    9: ((1, 0), "0f8b712f4b7c18a344684b5207576d3ec1fa697ffc58804792c5ff6462add7a2"),
    11: ((0,), "42efeac8d855744dfabd2ecb6d169ff6ce7ca5264fe1492c19d06487def0c2c6"),
    13: ((0,), "676000bdde54a8e2121b515b512ebe620f4cb4391013d25e84f8ef077832a6fb"),
    16: ((1, 1, 0, 0), "d17789ba9d46b4847b943cf0d180e97a99c1217ea2837987e593108f520f5c24"),
    17: ((0,), "6b68ccc2aa662955091783e394d1615be3189539cf0b178a868017a21d5618df"),
    19: ((0,), "94f8c4c1c5cc17cfb7a4b7cd1231d5fe65f3209bcf2cb36509729b61560bacbf"),
    23: ((0,), "45c5ea633c4354a44d8ad03b477c2f3a5b39313ffd9b33a70f432b887ad74ccd"),
    25: ((2, 0), "0d2c6397ba85d04dbd0ec90e34ea4c17b3134d75e8bba334251bdce51e8a92d3"),
    27: ((1, 2, 0), "7157f7dbfc8838610caba60f66a1882be3787df6ba4e141940bdb22dc51c90d9"),
    29: ((0,), "513b08ac011fb7806c8ad1ec4806c05ddc0f46fff69917e3ecd76b0ecd2c6e53"),
    31: ((0,), "444f7851bdb9e357da92786833c63aa35d49e61abca37136eac991d8a782d9bd"),
    32: ((1, 0, 1, 0, 0), "bd8540fd3c7f2dc142e395fde5c491d0f83aeadb3d482cc50e5c3eb0ff3c9157"),
    37: ((0,), "f277f225759ad5fb51885a6cb00f88a728f2a9ae47c9e72b4d583e386cf30035"),
    41: ((0,), "6750b1d11c4452f569e2dc1172f32c47dbd3ad11ca1cb2e17b1ee2e409a50a58"),
    43: ((0,), "2c94f1594dbaf64da6362662089dabdc63282823585489721aca7397df17825e"),
    47: ((0,), "aa25c8f42544a4bc229e1f62ddd7c40127f82e392cc59055b5e7089ac308da27"),
    49: ((1, 0), "8ca0d774c5f6afe04d0c6189dc268196790381529eeb189339af0b0d7986d43e"),
    53: ((0,), "670c71df20733b49dfddfb971e089e8af54fbffd8a3eeb22f909d5bfdced4f71"),
    59: ((0,), "d9abae9f2bf956dfacb10e586d3ce31851f685f53dd3fd883cf8dc16b586efef"),
    61: ((0,), "7f7d7e4cd206efb17b391b64bfdea0813b80842fefb4acacc3eb644b29cc6872"),
    64: ((1, 1, 0, 0, 0, 0), "d1381a096edf02e19b5a62db7a3bc26c1114ccf365f92f7bdd15d18d3c2614ca"),
    67: ((0,), "30702f2dcb3e3f2850265a3d9be64364a86409a29657284619846a76bb8886ba"),
    71: ((0,), "0db975179da28a54855677b99ec87e6fa285492aad8b389f07932bd01cd8c112"),
    73: ((0,), "af03ca3a355ad4e23b65009773a0cb085febdcd173be94a4afc02bd10f06aa8f"),
    79: ((0,), "f219fd19f70df08c4c1086d5317d5ae24b695f4620120c320db57094a316cbe3"),
    81: ((2, 1, 0, 0), "6f87f030319e3e7dfbfec9628a4151a36953461376a5e32abf0d576b755248c3"),
}


def _table_digest(F):
    tables = [np.asarray(t).tolist() for t in (F.add, F.mul, F.neg, F.inv[1:], F.trace)]
    return hashlib.sha256(json.dumps(tables, separators=(",", ":")).encode()).hexdigest()


def test_field_pins_cover_every_prime_power_to_81():
    assert sorted(FIELD_PINS) == [q for q in range(2, 82)
                                  if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("q", sorted(FIELD_PINS))
def test_field_modulus_and_tables_are_pinned(q):
    F = field_make(*factor_prime_power(q))
    assert (F.modulus, _table_digest(F)) == FIELD_PINS[q]
    for t in (F.add, F.mul, F.neg, F.inv, F.trace):
        assert t.dtype == np.int64
    assert F.inv[0] == 0  # a singular matrix stays singular under the adjugate
    assert F.digits == [tuple(n // F.p ** i % F.p for i in range(F.r)) for n in range(q)]


@pytest.mark.parametrize("q", sorted(FIELD_PINS))
def test_trace_is_the_sum_of_frobenius_powers(q):
    F = field_make(*factor_prime_power(q))
    add, mul = F.add.tolist(), F.mul.tolist()
    for x in range(q):
        acc = cur = x
        for _ in range(F.r - 1):
            frob = 1
            for _ in range(F.p):
                frob = mul[frob][cur]
            cur = frob
            acc = add[acc][cur]
        assert acc == F.trace[x]


@pytest.mark.parametrize("p, r, low", [(2, 2, (0, 0)), (2, 2, (1, 0)), (5, 2, (1, 0)),
                                       (3, 3, (0, 1, 0))])
def test_reducible_modulus_is_rejected(p, r, low):
    # t^2, t^2 + 1 = (t + 1)^2, t^2 + 1 = (t - 2)(t + 2), t^3 + t = t (t^2 + 1)
    with pytest.raises(ReducibleModulus):
        FieldTable(p, r, low)


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _times(a, b):
    """The product of two coefficient lists as polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _normal(m, coeffs):
    """The normal form of sum coeffs[k] zeta_m^k (any length), read through
    the power rows: the coefficients folded by zeta^m = 1, times the rows of
    zeta_m^0, ..., zeta_m^(m-1)."""
    folded = [0] * m
    for k, c in enumerate(coeffs):
        folded[k % m] += c
    return tuple((np.array(folded, dtype=np.int64) @ power_rows(m, range(m))).tolist())


def test_cyclo_examples():
    # the normal forms of zeta_4^2, zeta_3 + zeta_3^2 and zeta_8 · zeta_8^7
    assert power_rows(4, [2]).tolist() == [[-1, 0]]
    assert _normal(3, [0, 1, 1]) == (-1, 0)
    assert _normal(8, _times([0, 1], [0] * 7 + [1])) == (1, 0, 0, 0)
    assert _normal(3, [0, -1, -1]) == (1, 0)
    # rows come in the order asked for, repeats included
    assert power_rows(6, [5, 0, 3, 5]).tolist() == [[1, -1], [1, 0], [-1, 0], [1, -1]]
    assert power_rows(5, []).shape == (0, 4)


def test_m_equal_one_is_the_integers():
    # Z[zeta_1] = Z: phi(1) = 1 and Phi_1 = t - 1, so zeta_1 = 1
    assert power_rows(1, [0, 0]).tolist() == [[1], [1]]
    assert _normal(1, [-7]) == (-7,)
    assert _normal(1, [3, -5, 4]) == (2,)
    assert _normal(1, []) == (0,)
    for n in (-3, 0, 1, 12):
        assert _normal(1, [n, 0, n]) == (2 * n,)


def test_power_rows_refuse_to_leave_int64(monkeypatch):
    # a monic t - c with c = 2^62 would make zeta^2 = 2^124
    from sl2swc import algebra

    monkeypatch.setattr(algebra, "_sparse_phi", lambda m: (1, ((0, -2 ** 62),)))
    assert power_rows(3, [1]).tolist() == [[2 ** 62]]
    with pytest.raises(OverflowError):
        power_rows(3, [2])


def evalf(m: int, coeffs) -> complex:
    """Numeric value of sum coeffs[k] zeta^k at zeta = exp(2 pi i / m)."""
    z = cmath.exp(2j * cmath.pi / m)
    return sum(a * z**i for i, a in enumerate(coeffs))


def test_cyclo_random_numeric_agreement():
    # the normal form of a product of normal forms is the product of values
    rng = random.Random(42)
    for _ in range(1000):
        m = rng.randrange(1, 25)
        a = _normal(m, [rng.randrange(-9, 10) for _ in range(m)])
        b = _normal(m, [rng.randrange(-9, 10) for _ in range(m)])
        assert abs(evalf(m, _normal(m, _times(a, b))) - evalf(m, a) * evalf(m, b)) < 1e-6
        assert abs(evalf(m, _normal(m, [x + y for x, y in zip(a, b)]))
                   - (evalf(m, a) + evalf(m, b))) < 1e-6


def test_roundtrip_evaluation():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randrange(2, 20)
        vec = [rng.randrange(-4, 5) for _ in range(m)]
        assert abs(evalf(m, _normal(m, vec)) - evalf(m, vec)) < 1e-9


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
    assert [tuple(row) for row in power_rows(m, range(m)).tolist()] == _ref_rows(m)[:m]
    rng = random.Random(m)
    for length in (1, m, m + 1, 2 * m + 3, 3 * m):
        dense = [rng.randrange(-9, 10) for _ in range(length)]
        sparse = [rng.randrange(-3, 4) if rng.random() < 0.05 else 0 for _ in range(length)]
        for vec in (dense, sparse):
            assert _normal(m, vec) == _ref_make(m, vec)
    a = _normal(m, [rng.randrange(-9, 10) for _ in range(m)])
    b = _normal(m, [rng.randrange(-9, 10) for _ in range(m)])
    assert _normal(m, _times(a, b)) == _ref_mul(m, a, b)
    half = _ref_make(m, [0] * (m // 2) + [1])
    assert _normal(m, _times(a, half)) == _ref_mul(m, a, half)


def test_cyclo_at_exp_sl2_81_fits_in_512_mib():
    # the power rows of a character table at m = exp SL(2,81): with
    # zeta = zeta_m, (sum_k k zeta^k)(zeta - 1) = m, so x = sum_k k zeta^k,
    # summed over rows taken in blocks, has x zeta - x = m, where x zeta reads
    # the rows of zeta^1 .. zeta^phi; and at order 82, sum_t zeta_82^t = 0 and
    # zeta_82^41 = -1
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "import numpy as np\n"
            "from sl2swc.algebra import euler_phi, power_rows\n"
            "m, phi = 9840, euler_phi(9840)\n"
            "x = sum(np.arange(a, a + 984) @ power_rows(m, range(a, a + 984))\n"
            "        for a in range(0, m, 984))\n"
            "one = power_rows(m, [0])[0]\n"
            "ok = (x @ power_rows(m, range(1, phi + 1)) - x == m * one).all()\n"
            "R = power_rows(m, range(0, m, m // 82))\n"
            "ok &= not R.sum(axis=0).any() and (R[41] == -one).all()\n"
            "print(bool(ok))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
