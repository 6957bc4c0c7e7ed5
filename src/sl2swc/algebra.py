"""Exact arithmetic foundations: finite fields GF(p^r) and cyclotomic integers Z[zeta_m].

A field is a set of dense tables over the ranks 0..q-1 of its elements,
built once from integer polynomial arithmetic modulo a fixed irreducible.
Cyclotomic integers are stored as the unique normal form modulo the m-th
cyclotomic polynomial, which makes equality and integrality tests exact.
Phi_m is built from Phi_n for the radical n of m by one exact division per
prime, and a normal form is the remainder of one long division by the sparse
monic Phi_m; no table of powers of zeta_m is kept.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class CompositeP(Exception):
    """Characteristic of a requested field is not prime."""


class NotRationalInteger(Exception):
    """Cyclotomic value expected to be a plain integer is not one."""


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
# Polynomials over GF(p): coefficient tuples, constant term first.
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    _poly_trim(a)
    d = len(mod) - 1
    while len(a) > d:
        c = a[-1]
        if c:
            off = len(a) - 1 - d
            for i in range(d):
                a[off + i] = (a[off + i] - c * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by every lower-degree monic polynomial."""
    r = len(mod) - 1
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for enc in range(p ** d):
            div = _digits(enc, p, d) + [1]
            if not _poly_mod(mod, div, p):
                return False
    return True


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def field_make(p: int, r: int) -> "FieldTable":
    """GF(p^r) with the lowest-ranked monic irreducible modulus.

    Candidates are scanned by the integer encoding of their low coefficients,
    so the choice is deterministic and reproduces standard small-field moduli.
    """
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be positive")
    for enc in range(p ** r):
        low = _digits(enc, p, r)
        if _is_irreducible(low + [1], p):
            return FieldTable(p, r, tuple(low))
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldTable:
    """GF(p^r) = GF(p)[t] / (t^r + modulus) as dense index-based tables.

    The element of rank n is the residue whose coefficients (constant term
    first) are the base-p digits of n, so rank 0 is zero and rank 1 is one.
    `modulus` holds the r low coefficients of the monic modulus; `trace[n]`
    is Tr(n) = n + n^p + ... + n^(p^(r-1)) as an integer in 0..p-1.
    """

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p, self.r, self.modulus = p, r, modulus
        q = self.q = p ** r
        digits = self.digits = [tuple(_digits(n, p, r)) for n in range(q)]
        mod = list(modulus) + [1]

        def rank(coeffs) -> int:
            n = 0
            for c in reversed(coeffs):
                n = n * p + c
            return n

        self.add = [[rank([(a + b) % p for a, b in zip(x, y)]) for y in digits]
                    for x in digits]
        self.mul = [[rank(_poly_mod(_poly_mul(x, y, p), mod, p)) for y in digits]
                    for x in digits]
        self.neg = [rank([-a % p for a in x]) for x in digits]
        self.inv = [None] + [row.index(1) for row in self.mul[1:]]
        self.trace = [self._trace(n) for n in range(q)]

    def _trace(self, n: int) -> int:
        acc = cur = n
        for _ in range(self.r - 1):
            frob = 1
            for _ in range(self.p):
                frob = self.mul[frob][cur]
            cur = frob
            acc = self.add[acc][cur]
        if acc >= self.p:
            raise AssertionError("trace landed outside the prime field")
        return acc


# ---------------------------------------------------------------------------
# Cyclotomic integers
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


def _long_divide(vec: list[int], deg: int, terms) -> None:
    """Divide vec in place by the monic t^deg + sum c t^i over (i, c) in terms,
    leaving the remainder in vec[:deg] and the quotient in vec[deg:]."""
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            off = k - deg
            for i, a in terms:
                vec[off + i] -= c * a


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
        num = _stretch(poly, p)
        deg = len(poly) - 1
        _long_divide(num, deg, _lower_terms(poly))
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


class Cyclo:
    """Element of Z[zeta_m] in normal form modulo the m-th cyclotomic polynomial."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[int, ...]):
        self.m = m
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @staticmethod
    def integer(m: int, n: int) -> "Cyclo":
        return Cyclo(m, (n,) + (0,) * (euler_phi(m) - 1))

    @staticmethod
    def root(m: int, k: int = 1) -> "Cyclo":
        """zeta_m^k."""
        return cyclo_make(m, [0] * (k % m) + [1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Cyclo":
        if isinstance(other, int):
            return Cyclo.integer(self.m, other)
        if isinstance(other, Cyclo):
            if other.m == self.m:
                return other
            raise ValueError(f"cyclotomic order mismatch: {self.m} vs {other.m}")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclo(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclo(self.m, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo(self.m, tuple(other * a for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        phi = len(self.coeffs)
        acc = [0] * (2 * phi - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(o.coeffs):
                    if bj:
                        acc[i + j] += ai * bj
        return cyclo_make(self.m, acc)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == Cyclo.integer(self.m, other)
        return isinstance(other, Cyclo) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    # -- structure maps -----------------------------------------------------

    def upcast(self, m2: int) -> "Cyclo":
        """Reinterpret inside Z[zeta_{m2}] where m divides m2."""
        if m2 == self.m:
            return self
        if m2 % self.m != 0:
            raise ValueError(f"{self.m} does not divide {m2}")
        return cyclo_make(m2, _stretch(self.coeffs, m2 // self.m))

    def exact_div(self, n: int) -> "Cyclo":
        if any(c % n for c in self.coeffs):
            raise NotRationalInteger(f"coefficients {self.coeffs} not divisible by {n}")
        return Cyclo(self.m, tuple(c // n for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                else:
                    mon = f"zeta{self.m}" + (f"^{i}" if i > 1 else "")
                    terms.append(mon if c == 1 else f"{c}*{mon}")
        return "+".join(terms).replace("+-", "-")


def cyclo_make(m: int, coeffs) -> Cyclo:
    """Normal form of sum coeffs[k] * zeta_m^k (any length).

    Indices fold by zeta^m = 1, and for even m also by zeta^(m/2) = -1, since
    Phi_m divides t^(m/2) + 1.  The normal form is the remainder of the folded
    vector on long division by the monic Phi_m, which touches only its
    nonzero terms.
    """
    h = m // 2 if m % 2 == 0 else m
    vec = [0] * h
    for k, c in enumerate(coeffs):
        if c:
            turns, i = divmod(k, h)
            vec[i] += -c if turns % 2 and h < m else c
    phi, terms = _sparse_phi(m)
    _long_divide(vec, phi, terms)
    return Cyclo(m, tuple(vec[:phi]))


def cyclo_to_integer(c: Cyclo) -> int:
    """The integer n with normal form c, else NotRationalInteger."""
    if any(c.coeffs[1:]):
        raise NotRationalInteger(f"{c!r} is not a rational integer")
    return c.coeffs[0]


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 for any integer n and k >= 0 (Lucas; negative n reflected)."""
    if k < 0:
        return 0
    if n < 0:
        # C(n, k) = (-1)^k C(k - n - 1, k)
        n = k - n - 1
    if k > n:
        return 0
    return 1 if (k & n) == k else 0


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


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b
