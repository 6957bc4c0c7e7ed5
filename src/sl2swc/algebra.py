"""Exact arithmetic foundations: finite fields GF(p^r) and the cyclotomic
polynomials Phi_m.

A field is a set of numpy tables over the ranks 0..q-1 of its elements,
built once from the matrices of multiplication by each element modulo a
fixed irreducible.
Phi_m is built from Phi_n for the radical n of m by one exact division per
prime.  Its one use is `power_rows`: the powers of zeta_m modulo Phi_m, in
which the v1 table format writes character values (see `characters`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class CompositeP(Exception):
    """Characteristic of a requested field is not prime."""


class ReducibleModulus(ValueError):
    """The modulus of a `FieldTable` factors, so its residues form no field."""


class NotRationalInteger(Exception):
    """A value expected to be a rational integer is not one."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^r with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while q % p != 0:
        p += 1
        if p * p > q:
            p = q
            break
    r = 0
    m = q
    while m % p == 0:
        m //= p
        r += 1
    if m != 1 or not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return p, r


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

def field_make(p: int, r: int) -> "FieldTable":
    """GF(p^r) with the lowest-ranked monic irreducible modulus.

    Candidates are scanned by the integer encoding of their low coefficients,
    so the choice is deterministic and reproduces standard small-field moduli.
    The first that `FieldTable` accepts is irreducible: GF(p)[t]/(f) has zero
    divisors exactly when f factors.
    """
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be positive")
    for enc in range(p ** r):
        try:
            return FieldTable(p, r, tuple(enc // p ** i % p for i in range(r)))
        except ReducibleModulus:
            continue
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldTable:
    """GF(p^r) = GF(p)[t] / (t^r + modulus) as numpy int64 tables over ranks.

    The element of rank n is the residue whose coefficients (constant term
    first) are the base-p digits of n, so rank 0 is zero and rank 1 is one;
    `digits[n]` is that coefficient tuple and `modulus` holds the r low
    coefficients of the monic modulus.  `add` and `neg` act digitwise mod p.
    Multiplication by x is the GF(p)-linear map M_x = sum x_i C^i, C the
    companion matrix of t^r + modulus, so `mul[x][y]` is the rank of
    M_x digits(y), and `inv[x]` is the y with mul[x][y] = 1 (inv[0] = 0, so
    a singular matrix stays singular under the adjugate formula).

    `trace[x]` is Tr(x) = x + x^p + ... + x^(p^(r-1)) in 0..p-1, read as
    tr(M_x) mod p: the characteristic polynomial of M_x is the minimal
    polynomial of x raised to r/d, d = [GF(p)(x) : GF(p)], whose roots are the
    d conjugates x^(p^i); so the eigenvalues of M_x, with multiplicity, are
    x, x^p, ..., x^(p^(r-1)), and a trace is the sum of the eigenvalues (Lidl
    and Niederreiter, Finite Fields, ch. 2).
    """

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p, self.r, self.modulus = p, r, modulus
        q = self.q = p ** r
        place = p ** np.arange(r, dtype=np.int64)
        D = np.arange(q, dtype=np.int64)[:, None] // place % p   # D[n] = digits of n
        self.digits = [tuple(row) for row in D.tolist()]
        # C maps t^j to t^(j+1), and t^(r-1) to t^r = -modulus
        C = np.eye(r, k=-1, dtype=np.int64)
        C[:, -1] = np.negative(modulus) % p
        powers = [np.eye(r, dtype=np.int64)]
        for _ in range(r - 1):
            powers.append(C @ powers[-1] % p)
        M = np.tensordot(D, np.array(powers), axes=1) % p       # M[x] = M_x
        self.add = (D[:, None, :] + D[None, :, :]) % p @ place
        self.neg = -D % p @ place
        self.mul = np.einsum("xjk,yk->xyj", M, D) % p @ place
        if np.count_nonzero(self.mul[1:, 1:] == 0):
            raise ReducibleModulus(f"t^{r} + (low terms {modulus}) factors over GF({p})")
        self.inv = np.argmax(self.mul == 1, axis=1)  # row 0 holds no 1: inv[0] = 0
        self.trace = np.trace(M, axis1=1, axis2=2) % p


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, in increasing order."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _stretch(poly, k: int) -> list[int]:
    """poly(t^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _lower_terms(poly) -> tuple[tuple[int, int], ...]:
    """The (i, c) with c = poly[i] nonzero, below the leading term."""
    return tuple((i, c) for i, c in enumerate(poly[:-1]) if c)


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low first) of the m-th cyclotomic polynomial.

    Built from the radical n of m: Phi_1 = t - 1, Phi_{np}(t) = Phi_n(t^p) /
    Phi_n(t) for each prime p not dividing n, and Phi_m(t) = Phi_n(t^(m/n)).
    """
    poly, n = [-1, 1], 1
    for p in prime_factors(m):
        # long division by the monic Phi_n: quotient in num[deg:]
        num, deg, terms = _stretch(poly, p), len(poly) - 1, _lower_terms(poly)
        for k in range(len(num) - 1, deg - 1, -1):
            if c := num[k]:
                for i, a in terms:
                    num[k - deg + i] -= c * a
        if any(num[:deg]):
            raise AssertionError("cyclotomic division was not exact")
        poly, n = num[deg:], n * p
    return tuple(_stretch(poly, m // n))


@lru_cache(maxsize=None)
def _sparse_phi(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_m and the (index, coefficient) pairs of Phi_m's nonzero lower terms."""
    poly = cyclotomic_polynomial(m)
    return len(poly) - 1, _lower_terms(poly)


def euler_phi(m: int) -> int:
    """phi(m) = deg Phi_m."""
    return _sparse_phi(m)[0]


def power_rows(m: int, ks) -> np.ndarray:
    """Row i: the coefficients of zeta_m^ks[i] (0 <= ks[i] < m) modulo Phi_m.

    One int64 pass of x^(k+1) = x·x^k mod Phi_m: x^k is the reversed window
    buf[k:k+phi], so x moves the window, and the coefficient c = buf[k] that
    leaves it is reduced by subtracting c times Phi_m's nonzero lower terms.
    For even m the pass stops below m/2, as Phi_m divides t^(m/2) + 1.  No
    step raises an entry by more than |c|·max|Phi_m|: OverflowError unless
    those raises sum to less than 2^63, so every entry is exact."""
    phi, terms = _sparse_phi(m)
    h = m // 2 if m % 2 == 0 else m
    ks = np.asarray(ks, dtype=np.int64)
    want = set((ks % h).tolist())
    at = phi - np.array([i for i, _ in terms])
    coef = np.array([c for _, c in terms], dtype=np.int64)
    top = int(np.abs(coef).max())
    buf = np.zeros(max(want, default=0) + phi, dtype=np.int64)
    buf[phi - 1] = bound = 1
    kept = {0: buf[phi - 1::-1].copy()}
    for k in range(max(want, default=0)):
        if c := int(buf[k]):
            buf[k:k + phi + 1][at] -= c * coef
            bound += abs(c) * top
        if k + 1 in want:
            kept[k + 1] = buf[k + phi:k:-1].copy()
    if bound >= 2 ** 63:
        raise OverflowError(f"the powers of zeta_{m} leave int64")
    out = np.array([kept[k] for k in (ks % h).tolist()], dtype=np.int64).reshape(len(ks), phi)
    out[ks >= h] *= -1
    return out


def ord2(n: int) -> int:
    """Exponent of 2 in n; raises on n = 0."""
    if n == 0:
        raise ValueError("ord2(0) is undefined")
    n = abs(n)
    return (n & -n).bit_length() - 1


def smallest_prime_in_progression(mod: int, residue: int, lower: int) -> int:
    """Smallest prime p ≡ residue (mod mod) with p > lower."""
    k = max(0, (lower - residue) // mod)
    p = residue + k * mod
    while p <= lower or not is_prime(p):
        p += mod
    return p
