"""Class functions, exact character tables, Frobenius-Schur indicators,
induction/restriction, symmetrization, and orthogonal decomposition.

A character value at a class of order o is an integer vector w over Z/o
standing for sum_t w[t] zeta_o^t: the eigenvalue spectrum for a table
character, any integer representative for an induced value.  Sums, duals,
restriction and induction act on the vectors, and every exact reading (an
integer value, an inner product, an indicator, an equality) goes through one
trace form, the Ramanujan sums of `_ramanujan`.

Character tables are computed from scratch by the Burnside-Dixon class-matrix
method: simultaneous eigenvectors of the class matrices are found modulo a
prime l = 1 (mod exp(G)), which gives the table X mod l.  `_certified_table`
takes that X to a checked table: it lifts each class to the spectra of every
character by discrete Fourier inversion over the power-class table, and
certifies that the rows are the irreducible characters (row orthogonality in
Z, read off the spectra through the trace form, and the class-algebra
relations mod l).  It also folds each distinct spectrum once into its normal
form in Z[zeta_m], m = exp G, which orders the characters and is what the v1
table format stores.

The modular step works on int64 numpy arrays.  Dixon's method splits the
class algebra itself, as equal-degree splitting does (Cantor-Zassenhaus):
each round takes a seeded random combination M of the class matrices and
cuts every space by the quadratic character of M's eigenvalues, read off
M^((l-1)/2), with one null-space kernel, `_nullspace_mod`; no characteristic
polynomial is formed and no root is searched for.  The lift is one matrix
product per class.  `_check_int64` proves that no sum of products leaves
int64.

Induction and restriction read subgroup classes through one fusion map,
`_fusion`, taken from the conjugacy data of both groups, so neither
multiplies group elements once those are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm, prod

import numpy as np

from .algebra import (
    NotRationalInteger,
    euler_phi,
    power_rows,
    prime_factors,
    smallest_prime_in_progression,
)
from .groups import (ConjugacyData, Group, Subgroup, build_sl2, conjugacy, elliptic_torus,
                     minus_one, standard_subgroup, subgroup_from_indices)


class LiftFailure(Exception):
    """Character table validation failed (implementation bug, not data)."""


class NotIndicator(Exception):
    """Frobenius-Schur sum was not -1, 0 or 1 (input not irreducible)."""


class NotOrthogonal(Exception):
    """Virtual representation is not orthogonal."""


class BadConstructionParams(Exception):
    """Character exponent violates the construction's conditions."""


# ---------------------------------------------------------------------------
# Class functions
# ---------------------------------------------------------------------------

class ClassFunction:
    """A class function of a concrete group, valued in the cyclotomic fields.

    At a class of order o, `values[c]` is an integer vector w of length o
    that stands for sum_t w[t] zeta_o^t: for a table character the
    eigenvalue spectrum, for an induced value any integer representative.
    So a value is read only through its traces (`_ramanujan`), which do not
    depend on the representative.  A vector is int64 only when every trace
    of it stays in int64 (o·sum |w[t]| < 2^63, as for the spectra); sums,
    multiples and inductions are taken in Python ints."""

    __slots__ = ("group", "conj", "values")

    def __init__(self, group: Group, conj: ConjugacyData, values):
        self.group = group
        self.conj = conj
        self.values = tuple(values)

    def int_at(self, c: int) -> int:
        return _rational(self.values[c])

    def degree(self) -> int:
        return self.int_at(self.conj.class_of[self.group.identity])

    def dual(self) -> "ClassFunction":
        """chi(c^-1), the complex conjugate of chi(c): t -> -t."""
        return ClassFunction(self.group, self.conj,
                             [w[-np.arange(len(w)) % len(w)] for w in self.values])

    def inner(self, other: "ClassFunction") -> int:
        """<self, other>, or NotRationalInteger; see `_inner_rows`."""
        _same_group(self, other)
        return _inner_rows(self.conj, len(self.group), [w[None] for w in self.values], other)[0]

    def __add__(self, other):
        _same_group(self, other)
        return ClassFunction(self.group, self.conj,
                             [_exact(a) + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, n: int) -> "ClassFunction":
        return ClassFunction(self.group, self.conj, [_exact(w) * n for w in self.values])

    def __eq__(self, other):
        """Equal values at every class: each difference x stands for 0, Kx = 0."""
        if not isinstance(other, ClassFunction) or self.group is not other.group:
            return False
        return not any((_ramanujan(len(a)) @ (_exact(a) - b)).any()
                       for a, b in zip(self.values, other.values))

    def __repr__(self):
        return f"ClassFunction({self.group.name}, deg {self.degree()})"


def _same_group(a: ClassFunction, b: ClassFunction) -> None:
    if a.group is not b.group:
        raise ValueError(f"class functions of {a.group.name} and {b.group.name}")


def _exact(w):
    """w in Python ints, so that sums and products of it cannot overflow."""
    return np.asarray(w, dtype=object)


@lru_cache(maxsize=None)
def _ramanujan(o: int):
    """K[t][u] = c_o(t - u) = Tr zeta_o^(t-u), the Ramanujan sum, by von
    Sterneck's formula c_o(j) = mu(h)·phi(o) / phi(h), h = o / gcd(j, o)
    (Hardy-Wright 16.6).

    So the trace form of Q(zeta_o) over Q on integer vectors is
    Tr(a·conj b) = a^T K b, the sum over the embeddings sigma of
    sigma(a)·conj sigma(b).  K is positive semidefinite, and x^T K x, the sum
    of |sigma(x)|^2, is zero, or equally Kx = 0, exactly when x stands for 0."""
    c = []
    for j in range(o):
        h = o // gcd(j, o)
        primes = prime_factors(h)
        mobius = (-1) ** len(primes) if prod(primes) == h else 0
        c.append(mobius * euler_phi(o) // euler_phi(h))
    t = np.arange(o)
    return np.array(c, dtype=np.int64)[(t[:, None] - t) % o]


def _rational(w) -> int:
    """The integer r that w stands for, or NotRationalInteger.

    y = Kw holds y[u] = Tr(w·zeta_o^-u), so r = y[0] / phi(o), and w stands
    for r exactly when x = w - r has Kx = 0, that is y = r·K[0]."""
    K = _ramanujan(len(w))
    y = (K @ w).tolist()
    r, rest = divmod(y[0], int(K[0, 0]))
    if rest or y != [r * k for k in K[0].tolist()]:
        raise NotRationalInteger(f"the value {list(w)} is not a rational integer")
    return r


def _inner_rows(conj: ConjugacyData, n: int, rows, b: ClassFunction) -> list[int]:
    """<a_i, b> for the class functions a_i whose vectors at the class c are
    the rows of rows[c]: the class sum of Tr(a_i(c)·conj b(c)) = a^T K b."""
    return _class_sum(conj, n, [A @ (_ramanujan(o) @ _exact(w))
                                for A, w, o in zip(rows, b.values, conj.orders)])


def _class_sum(conj: ConjugacyData, n: int, traces) -> list[int]:
    """|G|^-1 sum_c |C_c| traces[c] / phi(o_c), entry by entry, each trace
    that of a value at c over Q(zeta_o), o the order of c; NotRationalInteger
    unless every sum is an integer.

    On class functions that commute with the Galois action, as characters and
    their restrictions and inductions do, this is |G|^-1 sum_c |C_c| x(c):
    the classes of a Galois orbit of c carry the phi(o) conjugates of x(c)
    equally often, so their values sum to the orbit's share of the trace."""
    phis = [euler_phi(o) for o in conj.orders]
    L = reduce(lcm, phis)
    total = sum(t * (size * (L // phi)) for t, size, phi in zip(traces, conj.sizes, phis))
    out = []
    for t in np.atleast_1d(total).tolist():
        val, rest = divmod(t, L * n)
        if rest:
            raise NotRationalInteger(f"the class sum {t}/{L * n} is not an integer")
        out.append(val)
    return out


def fs_indicator(chi: ClassFunction) -> int:
    """|G|^-1 sum over classes of |C| chi(c^2).  At c of order o, chi(c^2) is
    the vector w of chi(c) read at zeta_o^2, whose trace is
    sum_t w[t] c_o(2t)."""
    conj = chi.conj
    val, = _class_sum(conj, len(chi.group),
                      [_ramanujan(o)[0, 2 * np.arange(o) % o] @ _exact(w)
                       for w, o in zip(chi.values, conj.orders)])
    if val not in (-1, 0, 1):
        raise NotIndicator(f"indicator sum {val}; input not irreducible")
    return val


# ---------------------------------------------------------------------------
# Dixon's method, modulo a prime l = 1 (mod exp G)
# ---------------------------------------------------------------------------

def _check_int64(terms: int, l: int) -> None:
    """LiftFailure unless terms·(l - 1)^2 < 2^63.

    The modular step reduces every operand mod l, so an entry of a product
    sums at most `terms` products of residues below l: s of them in Dixon's
    combinations sum_i w_i M_i, their powers and the class-algebra check, o
    in the lift at a class of order o.  `_modulus` checks max(s, largest
    element order) before anything is allocated; at q = 81, s = 85 and
    l < 2^24, so the sums stay below 85·2^48 < 2^55."""
    if terms * (l - 1) ** 2 >= 2 ** 63:
        raise LiftFailure(f"{terms} products mod {l} overflow int64")


def _modulus(G: Group, conj: ConjugacyData) -> int:
    """The prime l of Dixon's method: the least l = 1 (mod exp G) above
    2(isqrt|G| + 1)·max |C|.  So l does not divide |G| (every prime that does
    divides exp G), every degree, being at most sqrt|G|, is below l/2, and
    every structure constant, being at most a class size, is below l."""
    bound = 2 * (isqrt(len(G)) + 1) * max(conj.sizes)
    l = smallest_prime_in_progression(conj.exponent, 1, bound)
    _check_int64(max(conj.nclasses(), *conj.orders), l)
    return l


def _nullspace_mod(A, l):
    """Rows spanning the left null space {x : x·A = 0 (mod l)} of A (t x u).

    Row-reduces [A | I]: the rows whose A part ends at zero carry, in their
    I part, independent combinations that kill A, t - rank of them."""
    A = np.asarray(A, dtype=np.int64) % l
    t, u = A.shape
    W = np.concatenate([A, np.eye(t, dtype=np.int64)], axis=1)
    r = 0
    for c in range(u):
        if r == t:
            break
        nz = np.flatnonzero(W[r:, c])
        if not nz.size:
            continue
        W[[r, r + nz[0]]] = W[[r + nz[0], r]]
        W[r] = W[r] * pow(int(W[r, c]), -1, l) % l
        W[r + 1:] = (W[r + 1:] - np.outer(W[r + 1:, c], W[r])) % l
        r += 1
    return W[r:, u:]


def _power_mod(M, e: int, l: int):
    """M^e mod l by repeated squaring, for a square matrix of residues."""
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % l
        M = M @ M % l
        e >>= 1
    return out


def _split(spaces, M, l):
    """Each space V (independent rows, invariant under v -> v·M) cut into the
    parts where the eigenvalue λ of M is a nonzero square, a non-square and
    0 mod l: λ^((l-1)/2) = ε for ε = 1, -1, 0, so with P = M^((l-1)/2) the
    part for ε is N·V, N the left null space of V·P - εV.  M is
    diagonalizable with eigenvalues in F_l (the class algebra is split
    semisimple), so the three parts make up V."""
    P = _power_mod(M, (l - 1) // 2, l)
    out = []
    for V in spaces:
        if len(V) == 1:
            out.append(V)
            continue
        VP = V @ P % l
        got = 0
        for eps in (1, -1, 0):
            N = _nullspace_mod(VP - eps * V, l)
            if len(N):
                out.append(N @ V % l)
                got += len(N)
        if got != len(V):
            raise LiftFailure("eigenspace dimensions did not add up")
    return out


# Dixon's method splits by at most this many random combinations: two
# characters share the quadratic character of a combination's eigenvalue
# with chance below 1/2, so some two of s characters are still together
# after r rounds with chance below s^2·2^-r
DIXON_ROUNDS = 64


def _dixon_eigenvectors(struct, s, id_class, l):
    """Common eigenvectors of the class matrices, normalized at the identity class.

    A central character omega of the class algebra satisfies
    omega_i·omega = M_i omega with M_i[j][k] = struct[i][j][k], so as a row
    it is a common eigenvector of the transposes.  Each round splits by a
    combination sum_i w_i M_i with weights drawn from a seeded stream; the
    class matrix of the identity class is I, so its weight shifts the
    combination at random."""
    mats = np.transpose(np.asarray(struct, dtype=np.int64) % l, (0, 2, 1))
    rng = random.Random(0)
    spaces = [np.eye(s, dtype=np.int64)]
    for _ in range(DIXON_ROUNDS):
        if all(len(V) == 1 for V in spaces):
            break
        w = np.array([rng.randrange(l) for _ in range(s)], dtype=np.int64)
        spaces = _split(spaces, np.tensordot(w, mats, axes=1) % l, l)
    if not all(len(V) == 1 for V in spaces):
        raise LiftFailure("class matrices failed to separate characters")
    W = np.concatenate(spaces)
    c = W[:, id_class]
    if not c.all():
        raise LiftFailure("eigenvector vanished at the identity class")
    inv = np.array([pow(int(x), -1, l) for x in c], dtype=np.int64)
    return W * inv[:, None] % l


def _root_of_unity(m, l):
    """A primitive m-th root of unity mod l: the (l - 1)/m-th power of the
    least primitive root."""
    fac = prime_factors(l - 1)
    g = 2
    while not all(pow(g, (l - 1) // f, l) != 1 for f in fac):
        g += 1
    return pow(g, (l - 1) // m, l)


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    """The irreducible characters of G, m = exp G.  `spectra[c]` holds the
    eigenvalue spectra of all characters at the class c, one row each, and
    `chars[a].values[c]` is its row a; `coeffs[a][c]` is chi_a(c) as its
    coefficients in Z[zeta_m] modulo Phi_m, which order the characters and
    which the v1 table format stores."""
    group: Group
    conj: ConjugacyData
    m: int
    chars: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    fs: tuple[int, ...]
    dual: tuple[int, ...]
    omega_minus1: tuple[int, ...] | None   # central character at -1 (odd q only)
    spectra: tuple[np.ndarray, ...]
    coeffs: tuple[tuple[tuple[int, ...], ...], ...]

    def nchars(self) -> int:
        return len(self.chars)

    def trivial_index(self) -> int:
        """The character whose every eigenvalue is 1."""
        for i, chi in enumerate(self.chars):
            if self.degrees[i] == 1 and all(w[0] == 1 for w in chi.values):
                return i
        raise AssertionError("no trivial character")


def char_table(G: Group) -> CharacterTable:
    """The character table of G: Dixon's method gives the table mod l, and
    `_certified_table` lifts and certifies it."""
    if G._char_table is not None:
        return G._char_table
    conj = conjugacy(G)
    n = len(G)
    s = conj.nclasses()
    l = _modulus(G, conj)
    struct = structure_constants(G, conj)
    W = _dixon_eigenvectors(struct, s, conj.class_of[G.identity], l)

    # chi = d·omega / |C| with d^2 = n / sum_j omega_j omega_{j^-1} / |C_j|;
    # a zero sum leaves 0, which is the square of no 0 < d < l
    inv_of = [conj.inverse_class(c) for c in range(s)]
    size_inv = np.array([pow(h, -1, l) for h in conj.sizes], dtype=np.int64)
    norms = (W * W[:, inv_of] % l * size_inv % l).sum(axis=1) % l
    root_of = {x * x % l: x for x in range(1, isqrt(n) + 2)}
    degrees = [root_of.get(n * pow(int(nm), l - 2, l) % l) for nm in norms]
    if None in degrees:
        raise LiftFailure("degree recovery failed")
    X = np.array(degrees, dtype=np.int64)[:, None] * W % l * size_inv % l

    G._char_table = _certified_table(G, conj, l, struct, X)
    return G._char_table


def _certified_table(G: Group, conj: ConjugacyData, l: int, struct, X) -> CharacterTable:
    """The table of the characters chi_a with chi_a(c) = X[a][c] (mod l),
    each lifted through its spectra, or LiftFailure unless the rows of X are
    exactly the irreducible characters.  Its one caller is `char_table`,
    and it trusts nothing about how Dixon's method found X.

    The checks: there are s rows for s classes; every degree d_a, the entry
    of X[a] at the identity class, lies in 0 < d_a < l/2; the spectra pass
    `_check_spectra` (row orthogonality in Z); and every
    omega_a = X[a]·|C| / d_a is a homomorphism of the class algebra mod l
    (`_check_class_algebra`).  Together they admit only Irr(G), by three
    facts: l does not divide |G|, every degree is below l/2, and every
    multiplicity is at most chi(1) < l.

    Proof.  Fix the prime ideal of Z[zeta_m] over l with zeta_m = z; its
    residue field is F_l, as l = 1 (mod m).  Since l does not divide |G|, the
    class algebra over F_l is split semisimple of dimension s, and its s
    homomorphisms to F_l are the reductions of the central characters
    omega_psi = |C|·psi / psi(1), psi in Irr(G) (psi(1) divides |G|, so it
    is a unit mod l).  So the class-algebra check makes each row
    X[a] = r_a·psi_a mod l for some psi_a in Irr(G), r_a = d_a / psi_a(1).
    Fourier inversion gives sum_t mu_a(c)[t] z^t = X[a][c]: the lifted
    value chi_a reduces to X[a].  Hence <chi_a, chi_a> = 1, reduced mod l,
    says r_a^2 = <psi_a, psi_a> = 1, so d_a = +-psi_a(1) (mod l); both lie in
    (0, l/2), so d_a = psi_a(1) and r_a = 1.  Then mu_a(c) is congruent to
    the multiplicities of psi_a's eigenvalues at c, which lie in
    [0, psi_a(1)], inside [0, l) as the residues mu_a(c) do, so the two are
    equal and chi_a = psi_a.  Finally <chi_a, chi_b> = 0 for a != b makes the
    psi_a distinct: the s rows are all of Irr(G).
    """
    s, m = conj.nclasses(), conj.exponent
    if X.shape != (s, s):
        raise LiftFailure(f"{len(X)} characters for {s} classes")
    d = X[:, conj.class_of[G.identity]]
    if not ((d > 0) & (2 * d < l)).all():
        raise LiftFailure("a degree is not between 0 and l/2")
    spectra = _spectra(conj, X, l)
    _check_spectra(conj, spectra, d, len(G))
    d_inv = np.array([pow(int(x), -1, l) for x in d], dtype=np.int64)
    _check_class_algebra(struct, X * np.array(conj.sizes) % l * d_inv[:, None] % l, l)

    # the v1 coefficients order the characters by (degree, values)
    rows = list(zip(*_fold(m, conj.orders, spectra)))
    order = sorted(range(s), key=lambda a: (int(d[a]), rows[a]))
    return table_from_spectra(G, conj, tuple(mu[order] for mu in spectra),
                              tuple(rows[a] for a in order))


def _fold(m: int, orders, spectra) -> list[list[tuple[int, ...]]]:
    """cols[c][a] = sum_t mu[t] zeta_o^t modulo Phi_m, mu = spectra[c][a] and
    o = orders[c]: each distinct (o, mu) once, as mu·R_o with the rows
    R_o[t] = zeta_m^(t·m/o) of one `power_rows` pass, its tuple shared where
    it recurs.  LiftFailure unless sum|mu|·max|R_o| < 2^63, which keeps every
    product exact in int64."""
    distinct: dict[int, dict] = {}
    for o, mu in zip(orders, spectra):
        distinct.setdefault(o, {}).update(dict.fromkeys(map(tuple, mu.tolist())))
    ks = sorted({t * (m // o) for o in distinct for t in range(o)})
    rows = dict(zip(ks, power_rows(m, ks)))
    for o, folded in distinct.items():
        R = np.array([rows[t * (m // o)] for t in range(o)])
        if max(sum(map(abs, mu)) for mu in folded) * int(np.abs(R).max()) >= 2 ** 63:
            raise LiftFailure(f"a spectrum of order {o} folds outside int64")
        for mu in folded:
            folded[mu] = tuple((np.array(mu, dtype=np.int64) @ R).tolist())
    return [[distinct[o][mu] for mu in map(tuple, spectrum.tolist())]
            for o, spectrum in zip(orders, spectra)]


def _spectra(conj: ConjugacyData, X, l: int) -> list:
    """mu[c][a][t], the multiplicity of the eigenvalue z_o^t of rho_a(c) for
    c of order o, z_o = z^(m/o), as the residue (1/o) sum_k X[a][c^k] z_o^(-tk):
    one product per class for all characters at once."""
    m = conj.exponent
    z = _root_of_unity(m, l)
    out = []
    for c, o in enumerate(conj.orders):
        zp = np.array([pow(z, m // o * e, l) for e in range(o)], dtype=np.int64)
        ks = np.arange(o)
        out.append(X[:, conj.power[c]] @ zp[np.outer(ks, -ks) % o] % l * pow(o, -1, l) % l)
    return out


def _check_spectra(conj: ConjugacyData, spectra, d, n: int) -> None:
    """LiftFailure unless the spectra mu[c] (residues, so nonnegative) make
    characters chi_a(c) = sum_t mu[c][a][t] zeta_o^t that are orthonormal:
    sum_c |C_c| chi_a(c) chi_b(c^-1) = n [a = b], checked in Z.

    Each class's multiplicities must sum to the degree, and the spectra must
    be Galois compatible: mu[c^k][k·t mod o] = mu[c][t] for k prime to o,
    that is chi(c^k) = sigma_k(chi(c)) with sigma_k: zeta_o -> zeta_o^k.
    Then chi(c^-1) = sigma_-1(chi(c)), and the classes of the c^k make up
    the Galois orbit R of c, each reached by phi(o) / |R| of the k.  So R
    adds |C_c| times the orbit sum sum_k sigma_k(chi_a(c)·sigma_-1(chi_b(c)))
    / (phi(o) / |R|) to the left side.  The sum over k is the trace
    mu_a^T K mu_b, K the Ramanujan sums (`_ramanujan`), and the orbit sum,
    a rational algebraic integer, is an integer: the division is exact.
    With the degree sums, |mu_a^T K mu_b| <= d_a·d_b·phi(o) < o·(l - 1)^2,
    inside int64 by `_modulus`; the orbit sums are added as Python ints."""
    s = len(d)
    total = np.zeros((s, s), dtype=object)
    seen = set()
    for c, o in enumerate(conj.orders):
        mu = spectra[c]
        if (mu.sum(axis=1) != d).any():
            raise LiftFailure("eigenvalue multiplicities do not sum to the degree")
        if c in seen:
            continue
        units = [k for k in range(o) if gcd(k, o) == 1]
        orbit = {conj.power[c][k] for k in units}
        seen |= orbit
        t = np.arange(o)
        for k in units:
            if (spectra[conj.power[c][k]][:, k * t % o] != mu).any():
                raise LiftFailure(f"the spectra at class {c} and its {k}-th power disagree")
        orbit_sum, rest = np.divmod(mu @ _ramanujan(o) @ mu.T, euler_phi(o) // len(orbit))
        if rest.any():
            raise LiftFailure(f"a non-integral orbit sum at class {c}")
        total += orbit_sum.astype(object) * conj.sizes[c]
    bad = np.argwhere(total != n * np.eye(s, dtype=np.int64))
    if len(bad):
        raise LiftFailure(f"row orthogonality failed at {tuple(bad[0].tolist())}")


def _check_class_algebra(struct, omega, l: int) -> None:
    """LiftFailure unless omega_i·omega_j = sum_k a_ijk omega_k (mod l) for
    every row omega, a_ijk = struct[i][j][k]: each row is a homomorphism of
    the class algebra (omega is 1 at the identity class, where X[a] is d_a).
    One i at a time, the s products of residues and structure constants
    below l stay in int64."""
    for i, A in enumerate(struct):
        if ((omega @ A.T) % l != omega[:, i:i + 1] * omega % l).any():
            raise LiftFailure(f"a character fails the class-algebra relations at class {i}")


def table_from_spectra(G: Group, conj: ConjugacyData, spectra, coeffs) -> CharacterTable:
    """The table of the irreducible characters with the given spectra, with
    what their values determine: the degrees (values at the identity), the
    Frobenius-Schur indicators, the dual of each character (found by its
    spectra, which the dual has reversed) and, for SL(2,q) with q odd, the
    central character at -1."""
    chars = tuple(ClassFunction(G, conj, [mu[a] for mu in spectra]) for a in range(len(coeffs)))
    degrees = tuple(chi.degree() for chi in chars)
    fs = tuple(fs_indicator(chi) for chi in chars)

    def key(chi):
        return b"".join(w.tobytes() for w in chi.values)

    by_values = {key(chi): i for i, chi in enumerate(chars)}
    dual = tuple(by_values[key(chi.dual())] for chi in chars)

    omega = None
    if G.kind == "sl2" and G.field.p != 2:
        zc = conj.class_of[minus_one(G)]
        omega = tuple(chi.int_at(zc) // degrees[i] for i, chi in enumerate(chars))
        if any(o not in (-1, 1) for o in omega):
            raise AssertionError("central character at -1 is not a sign")

    return CharacterTable(G, conj, conj.exponent, chars, degrees, fs, dual, omega,
                          spectra, coeffs)


def structure_constants(G: Group, conj: ConjugacyData) -> np.ndarray:
    """a[i][j][k] = #{x in C_i : x^-1 z in C_j}, z the representative of C_k."""
    s = conj.nclasses()
    cls = np.asarray(conj.class_of)
    a = np.empty((s, s, s), dtype=np.int64)
    for k, z in enumerate(conj.reps):
        pairs = cls * s + cls[G.mul_many(G.inverses, z)]
        a[:, :, k] = np.bincount(pairs, minlength=s * s).reshape(s, s)
    return a


# ---------------------------------------------------------------------------
# Induction and restriction
# ---------------------------------------------------------------------------

def _fusion(K: Group, G: Group) -> list[int]:
    """The class of G that each class of K lies in, for K inside G with the
    same element codes; ValueError unless both groups share one coding and
    every element of K is in G."""
    at = G.locate(K.codes) if K.arith is G.arith else None
    if at is None or np.count_nonzero(at < 0):
        raise ValueError(f"{K.name} is not contained in {G.name}")
    class_of = conjugacy(G).class_of
    return [class_of[i] for i in at[conjugacy(K).reps].tolist()]


def induce(H: Subgroup, chi: ClassFunction, G: Group) -> ClassFunction:
    """chi_Ind(g) = sum of |C_G(g)| / |C_H(c)| · chi(c) over the classes c of H
    that fuse into the class g^G, with |C_G(g)| / |C_H(c)| the integer
    |G|·|c| / (|H|·|g^G|).

    This is the definition |H|^-1 sum over x in G with x^-1 g x in H of
    chi(x^-1 g x): each h in H ∩ g^G equals x^-1 g x for |G| / |g^G| of the x.
    An element keeps its order in G, so the vectors of c and g have one length."""
    if H.parent is not G or chi.group is not H.group:
        raise ValueError(f"cannot induce a class function of {chi.group.name} "
                         f"through {H.group.name} to {G.name}")
    conj_g = conjugacy(G)
    conj_h = conjugacy(H.group)
    values = [np.zeros(o, dtype=object) for o in conj_g.orders]
    for c, gc in enumerate(_fusion(H.group, G)):
        weight, rest = divmod(len(G) * conj_h.sizes[c], len(H.group) * conj_g.sizes[gc])
        if rest:
            raise AssertionError(f"|C_G| / |C_H| is not an integer at class {c}")
        values[gc] += _exact(chi.values[c]) * weight
    return ClassFunction(G, conj_g, values)


def restrict(chi: ClassFunction, K: Group) -> ClassFunction:
    """Restriction along the inclusion of K in chi's group, given by equal
    element codes; ValueError as for `_fusion`."""
    return ClassFunction(K, conjugacy(K), [chi.values[c] for c in _fusion(K, chi.group)])


# ---------------------------------------------------------------------------
# Virtual representations
# ---------------------------------------------------------------------------

class VirtualRep:
    """Integer combination of the irreducible characters of a fixed table.

    Its value at a class is summed when first asked for and kept, and so is
    the integer read from it, so a caller that reads a few classes, as the
    oracles do, never sums the whole character and reads each value once."""

    __slots__ = ("table", "mults", "_degree", "_coeffs", "_values", "_ints")

    def __init__(self, table: CharacterTable, mults):
        self.table = table
        self.mults = tuple(mults)
        if len(self.mults) != table.nchars():
            raise ValueError(f"{len(self.mults)} multiplicities for {table.nchars()} characters")
        self._degree = sum(n * d for n, d in zip(self.mults, table.degrees))
        self._coeffs = None
        self._values: dict[int, np.ndarray] = {}
        self._ints: dict[int, int] = {}

    def value_at(self, c: int) -> np.ndarray:
        """sum_i n_i mu_i(c), the spectra at c weighted by the multiplicities:
        the vector of pi at c (see `ClassFunction`)."""
        v = self._values.get(c)
        if v is None:
            if self._coeffs is None:
                # each entry, and so each trace over the order o <= exp G, is
                # at most sum |n_i| d_i times o: int64 while that fits
                bound = sum(abs(n) * d for n, d in zip(self.mults, self.table.degrees))
                exact = bound * self.table.m >= 2 ** 63
                self._coeffs = np.array(self.mults, dtype=object if exact else np.int64)
            v = self._values[c] = self._coeffs @ self.table.spectra[c]
        return v

    def character(self) -> ClassFunction:
        conj = self.table.conj
        return ClassFunction(self.table.group, conj,
                             [self.value_at(c) for c in range(conj.nclasses())])

    def degree(self) -> int:
        return self._degree

    def int_at(self, c: int) -> int:
        r = self._ints.get(c)
        if r is None:
            r = self._ints[c] = _rational(self.value_at(c))
        return r

    def is_genuine(self) -> bool:
        return min(self.mults) >= 0

    def dual(self) -> "VirtualRep":
        out = [0] * len(self.mults)
        for i, n in enumerate(self.mults):
            out[self.table.dual[i]] += n
        return VirtualRep(self.table, out)

    def _same_table(self, other):
        if self.table is not other.table:
            raise ValueError(f"representations of {self.table.group.name} and "
                             f"{other.table.group.name}")

    def __add__(self, other):
        self._same_table(other)
        return VirtualRep(self.table, [a + b for a, b in zip(self.mults, other.mults)])

    def __sub__(self, other):
        self._same_table(other)
        return VirtualRep(self.table, [a - b for a, b in zip(self.mults, other.mults)])

    def scaled(self, k: int) -> "VirtualRep":
        return VirtualRep(self.table, [k * n for n in self.mults])

    def __eq__(self, other):
        return (
            isinstance(other, VirtualRep)
            and self.table is other.table
            and self.mults == other.mults
        )

    def __repr__(self):
        return f"VirtualRep({self.table.group.name}, {self.mults})"


def trivial_rep(table: CharacterTable) -> VirtualRep:
    mults = [0] * table.nchars()
    mults[table.trivial_index()] = 1
    return VirtualRep(table, mults)


def regular_rep(table: CharacterTable) -> VirtualRep:
    return VirtualRep(table, table.degrees)


def symmetrize(pi: VirtualRep) -> VirtualRep:
    """pi plus its dual; always orthogonal."""
    return pi + pi.dual()


def is_orthogonal_virtual(pi: VirtualRep) -> bool:
    t = pi.table
    for i, n in enumerate(pi.mults):
        if pi.mults[t.dual[i]] != n:
            return False
        if t.fs[i] == -1 and n % 2:
            return False
    return True


def decompose_orthogonal(pi: VirtualRep) -> dict[tuple, int]:
    """Multiplicities over the orthogonally-irreducible basis.

    Keys are ("irr", i) for orthogonal irreducibles and ("S", i) for
    symmetrized blocks of the non-orthogonal irreducible i (the lower index
    of a dual pair, or a symplectic character).
    """
    if not pi.is_genuine():
        raise NotOrthogonal("negative multiplicities")
    t = pi.table
    out: dict[tuple, int] = {}
    for i, n in enumerate(pi.mults):
        if n == 0:
            continue
        eps = t.fs[i]
        j = t.dual[i]
        if eps == 1:
            out[("irr", i)] = n
        elif eps == -1:
            if n % 2:
                raise NotOrthogonal(f"symplectic constituent {i} with odd multiplicity {n}")
            out[("S", i)] = n // 2
        else:
            if pi.mults[j] != n:
                raise NotOrthogonal(f"dual pair ({i},{j}) multiplicities {n} != {pi.mults[j]}")
            if i < j:
                out[("S", i)] = n
    return out


def oir_labels(table: CharacterTable) -> list[tuple[tuple, int]]:
    """(label, block degree) for every orthogonally irreducible block."""
    out = []
    for i in range(table.nchars()):
        eps = table.fs[i]
        j = table.dual[i]
        if eps == 1:
            out.append((("irr", i), table.degrees[i]))
        elif eps == -1:
            out.append((("S", i), 2 * table.degrees[i]))
        elif i < j:
            out.append((("S", i), 2 * table.degrees[i]))
    return out


def rep_from_oir_blocks(table: CharacterTable, blocks: dict[tuple, int]) -> VirtualRep:
    mults = [0] * table.nchars()
    for (kind, i), n in blocks.items():
        if kind == "irr":
            mults[i] += n
        else:
            j = table.dual[i]
            if j == i:
                mults[i] += 2 * n
            else:
                mults[i] += n
                mults[j] += n
    return VirtualRep(table, mults)


def rep_from_class_function(table: CharacterTable, cf: ClassFunction) -> VirtualRep:
    """Decompose an exact virtual character over the table: n_i = <chi_i, cf>,
    and then cf - sum n_i chi_i must vanish, a zero trace norm at every class
    (NotRationalInteger otherwise)."""
    if cf.group is not table.group:
        raise ValueError(f"a class function of {cf.group.name} for the table of "
                         f"{table.group.name}")
    rep = VirtualRep(table, _inner_rows(table.conj, len(table.group), table.spectra, cf))
    if not rep.character() == cf:
        raise NotRationalInteger("class function is not a virtual character of the table")
    return rep


def _draw_until(rng: random.Random, degrees, max_degree: int) -> list[int]:
    """How often each index i < n = len(degrees) is drawn by uniform draws
    i = rng.randrange(n), each counted with weight degrees[i] >= 1, up to the
    first draw that would pass max_degree, which is made but not counted.

    The draws are the loop's, and rng is left as the loop leaves it, but the
    words come from rng.getrandbits(32·W), W words at a time.  CPython's
    randrange(n) takes the top k = n.bit_length() bits of one 32-bit word of
    the Mersenne Twister and rejects values >= n, drawing again; and
    getrandbits(32·W) holds the next W words, the first in the lowest 32 bits.
    So the draws are replayed on the words with numpy, and then rng is rewound
    and advanced by exactly the words the draws used."""
    n = len(degrees)
    k = n.bit_length()
    degs = np.array(degrees, dtype=np.int64)
    # a batch of about the words the draws take, with a margin: the expected
    # number of draws over the share n / 2^k of the words that are accepted;
    # a batch that falls short is followed by another
    draws = max(max_degree, 0) * n // int(degs.sum()) + 1
    W = (draws << k) // n * 5 // 4 + 8
    state = rng.getstate()
    counts = np.zeros(n, dtype=np.int64)
    deg = used = 0
    while True:
        words = np.frombuffer(rng.getrandbits(32 * W).to_bytes(4 * W, "little"), "<u4")
        vals = words >> (32 - k)
        at = np.flatnonzero(vals < n)
        drawn = vals[at].astype(np.intp)
        cum = deg + np.cumsum(degs[drawn])
        stop = int(np.searchsorted(cum, max_degree, side="right"))
        counts += np.bincount(drawn[:stop], minlength=n)
        if stop < len(drawn):
            used += int(at[stop]) + 1
            break
        deg = int(cum[-1]) if len(cum) else deg
        used += W
    rng.setstate(state)
    rng.getrandbits(32 * used)
    return counts.tolist()


def random_orthogonal_rep(table, rng, max_degree=2000) -> VirtualRep:
    """Seeded random genuine orthogonal combination of OIR blocks: uniform
    draws rng.choice(oir_labels(table)), which is rng.randrange over the
    labels, until the first that would pass max_degree (see _draw_until)."""
    labels = oir_labels(table)
    counts = _draw_until(rng, [d for _, d in labels], max_degree)
    return rep_from_oir_blocks(table, {lab: c for (lab, _), c in zip(labels, counts) if c})


def random_genuine_rep(table, rng, max_degree=200) -> VirtualRep:
    """Seeded random genuine (not necessarily self-dual) combination: uniform
    draws rng.randrange(table.nchars()) until the first that would pass
    max_degree (see _draw_until)."""
    return VirtualRep(table, _draw_until(rng, table.degrees, max_degree))


# ---------------------------------------------------------------------------
# Principal series and cuspidal constructions
# ---------------------------------------------------------------------------

def _root(o: int, m: int, e: int) -> np.ndarray:
    """zeta_m^e at an element of order o, where it is an o-th root of unity:
    the vector of length o that is 1 at t = e·o/m."""
    t, rest = divmod(e * o, m)
    if rest:
        raise AssertionError(f"zeta_{m}^{e} is no root of unity of order {o}")
    w = np.zeros(o, dtype=np.int64)
    w[t % o] = 1
    return w


def _logs(mult, one, elems, n: int) -> dict:
    """{g^j: j for 0 <= j < n}, g the first of `elems` of order n, the powers
    taken with `mult` from `one`."""
    for g in elems:
        out, cur = {}, one
        while cur not in out:
            out[cur] = len(out)
            cur = mult(cur, g)
        if len(out) == n:
            return out
    raise AssertionError(f"no element of order {n}")


def check_exponent(kind: str, q: int, k: int) -> None:
    """Raise BadConstructionParams unless ps(k) (kind "ps") or cusp(k) ("cusp")
    is defined over F_q: alpha(-1) = -1 (q and k odd) and alpha^2 != 1 for
    alpha = zeta_{q-1}^k, and the same for chi = zeta_{q^2-1}^k with chi^q != chi.
    It reads q and k only, so a refusal costs no group."""
    name, n = ("alpha", q - 1) if kind == "ps" else ("chi", q * q - 1)
    if q % 2 == 0:
        raise BadConstructionParams(f"{name}(-1) = -1 is impossible in even characteristic")
    if k % 2 == 0:
        raise BadConstructionParams(f"{name}(-1) = -1 requires an odd exponent")
    if (2 * k) % n == 0:
        raise BadConstructionParams(f"{name}^2 = 1 is not allowed")
    if kind == "cusp" and ((q - 1) * k) % n == 0:
        raise BadConstructionParams("chi^q = chi is not allowed")


def _class_function(H: Subgroup, value) -> ClassFunction:
    """The class function of H that is value(r, o) at each class, r its
    representative and o its order."""
    conj = conjugacy(H.group)
    return ClassFunction(H.group, conj, [value(r, o) for r, o in zip(conj.reps, conj.orders)])


def _decompose(G: Group, cf: ClassFunction, degree: int) -> VirtualRep:
    """cf over the table of G, once its degree is checked."""
    if cf.degree() != degree:
        raise AssertionError(f"a construction of degree {cf.degree()}, not {degree}")
    return rep_from_class_function(char_table(G), cf)


def principal_series_sl(q: int, k: int) -> VirtualRep:
    """The restriction to SL(2,q) of the principal series Ind_B^GL (alpha x 1)
    of degree q+1, alpha(gen^j) = zeta_{q-1}^{kj}; irreducible.

    det maps B onto F_q^*, so SL(2,q) \\ GL(2,q) / B is one double coset and, by
    Mackey's formula, the restriction is Ind_{B∩SL}^{SL} of alpha(a) at
    (a, b; 0, a^-1)."""
    check_exponent("ps", q, k)
    G = build_sl2(q)
    F = G.field
    B = standard_subgroup(G, "B")
    dlog = _logs(lambda a, b: F.mul[a][b], 1, range(2, q), q - 1)
    alpha = _class_function(B, lambda r, o: _root(o, q - 1, k * dlog[B.group.elem(r)[0]]))
    return _decompose(G, induce(B, alpha, G), q + 1)


def cuspidal_sl(q: int, k: int) -> VirtualRep:
    """The restriction to SL(2,q) of the cuspidal character Ind_ZN^GL theta -
    Ind_Te^GL chi of degree q-1, where chi(gen^j) = zeta_{q^2-1}^{kj} on the
    elliptic torus, theta(s, x; 0, s) = chi(s) phi(x/s) and phi is the additive
    character x -> zeta_p^{Tr(x)}; irreducible.

    By Mackey's formula: det maps Te onto F_q^* (the norm map), so the second
    term restricts to Ind_{Te∩SL}^{SL} chi; det(ZN) is the squares, two double
    cosets, so the first restricts to Ind_{ZN∩SL}^{SL} (theta + theta'), where
    theta' replaces phi(x/s) by phi(x/(nu s)) for a non-square nu."""
    check_exponent("cusp", q, k)
    G = build_sl2(q)
    F, p, n = G.field, G.field.p, q * q - 1
    T = elliptic_torus(q)   # chi is defined through the log on all of it
    dlog = _logs(T.mult, T.identity, range(len(T)), n)

    def log(code) -> int:
        return dlog[int(T.locate([code])[0])]

    at = G.locate(T.codes)
    Te = subgroup_from_indices(G, at[at >= 0], "Te")
    chi = _class_function(Te, lambda r, o: _root(o, n, k * log(Te.group.codes[r])))

    ZN = standard_subgroup(G, "ZN")
    squares = F.mul[np.arange(1, q), np.arange(1, q)].tolist()
    nu_inv = F.inv[min(set(range(1, q)) - set(squares))]

    def theta(r: int, o: int) -> np.ndarray:
        s, x, _, _ = ZN.group.elem(r)
        e = p * k * log(G.arith.code(s, 0, 0, s))   # k, and so e, may pass int64
        y = F.mul[x, F.inv[s]]
        return sum(_root(o, p * n, e + n * int(F.trace[t])) for t in (y, F.mul[nu_inv, y]))

    cf = induce(ZN, _class_function(ZN, theta), G) - induce(Te, chi, G)
    return _decompose(G, cf, q - 1)
