"""Class functions, exact character tables, Frobenius-Schur indicators,
induction/restriction, symmetrization, and orthogonal decomposition.

Character tables are computed from scratch by the Burnside-Dixon class-matrix
method: simultaneous eigenvectors of the class matrices are found modulo a
prime l = 1 (mod exp(G)), and exact cyclotomic values are recovered by
discrete Fourier inversion over the power-class table.  Both orthogonality
relations are validated exactly before a table is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .algebra import (
    Cyclo,
    NotRationalInteger,
    cyclo_make,
    cyclo_to_integer,
    lcm,
    smallest_prime_in_progression,
)
from .groups import (ConjugacyData, Group, Subgroup, build_gl2, build_sl2, conjugacy, minus_one,
                     standard_subgroup)


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
    """Exact cyclotomic value per conjugacy class of a concrete group."""

    __slots__ = ("group", "conj", "m", "values")

    def __init__(self, group: Group, conj: ConjugacyData, m: int, values):
        self.group = group
        self.conj = conj
        self.m = m
        self.values = tuple(values)

    def at(self, c: int) -> Cyclo:
        return self.values[c]

    def int_at(self, c: int) -> int:
        return cyclo_to_integer(self.values[c])

    def degree(self) -> int:
        return self.int_at(self.conj.class_of[self.group.identity])

    def dual(self) -> "ClassFunction":
        vals = [self.values[self.conj.inverse_class(c)] for c in range(self.conj.nclasses())]
        return ClassFunction(self.group, self.conj, self.m, vals)

    def align(self, m2: int) -> "ClassFunction":
        if m2 == self.m:
            return self
        return ClassFunction(self.group, self.conj, m2, [v.upcast(m2) for v in self.values])

    def inner(self, other: "ClassFunction") -> Cyclo:
        """(1/|G|) sum |C| a(C) b(C^-1); exact, b a virtual character."""
        assert self.group is other.group
        m = lcm(self.m, other.m)
        a, b = self.align(m), other.align(m)
        total = Cyclo.integer(m, 0)
        for c in range(self.conj.nclasses()):
            bc = b.values[self.conj.inverse_class(c)]
            if bc.is_zero() or a.values[c].is_zero():
                continue
            total = total + a.values[c] * bc * self.conj.sizes[c]
        return total.exact_div(len(self.group))

    def inner_int(self, other: "ClassFunction") -> int:
        return cyclo_to_integer(self.inner(other))

    def _pointwise(self, other, op):
        assert self.group is other.group
        m = lcm(self.m, other.m)
        a, b = self.align(m), other.align(m)
        return ClassFunction(self.group, self.conj, m,
                             [op(x, y) for x, y in zip(a.values, b.values)])

    def __add__(self, other):
        return self._pointwise(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._pointwise(other, lambda x, y: x - y)

    def scaled(self, n: int) -> "ClassFunction":
        return ClassFunction(self.group, self.conj, self.m, [v * n for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, ClassFunction) or self.group is not other.group:
            return False
        m = lcm(self.m, other.m)
        a, b = self.align(m), other.align(m)
        return a.values == b.values

    def __repr__(self):
        return f"ClassFunction({self.group.name}, deg {self.degree()})"


def fs_indicator(chi: ClassFunction) -> int:
    """|G|^-1 sum over classes of |C| chi(class of c^2), via the power table."""
    conj = chi.conj
    total = Cyclo.integer(chi.m, 0)
    for c in range(conj.nclasses()):
        total = total + chi.values[conj.power_class(c, 2)] * conj.sizes[c]
    val = cyclo_to_integer(total.exact_div(len(chi.group)))
    if val not in (-1, 0, 1):
        raise NotIndicator(f"indicator sum {val}; input not irreducible")
    return val


# ---------------------------------------------------------------------------
# Dixon's method, modulo a prime l = 1 (mod exp G)
# ---------------------------------------------------------------------------

def _rref_mod(mat, l):
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], l - 2, l)
        mat[r] = [(x * inv) % l for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_r = mat[r]
                mat[i] = [(a - f * b) % l for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _nullspace_mod(A, l):
    t = len(A)
    rref, pivots = _rref_mod(A, l)
    free = [c for c in range(t) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * t
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-rref[i][f]) % l
        basis.append(v)
    return basis


def _charpoly_mod(A, l):
    """Faddeev-LeVerrier; returns coefficients low power first, monic."""
    t = len(A)
    M = [row[:] for row in A]
    cs = [1]
    for k in range(1, t + 1):
        tr = sum(M[i][i] for i in range(t)) % l
        ck = (-tr * pow(k, l - 2, l)) % l
        cs.append(ck)
        if k < t:
            for i in range(t):
                M[i][i] = (M[i][i] + ck) % l
            M = [[sum(A[i][x] * M[x][j] for x in range(t)) % l for j in range(t)]
                 for i in range(t)]
    return list(reversed(cs))


def _roots_mod(poly, l):
    xs = np.arange(l, dtype=np.int64)
    acc = np.full(l, poly[-1] % l, dtype=np.int64)
    for c in reversed(poly[:-1]):
        acc = (acc * xs + c) % l
    return sorted(int(x) for x in np.nonzero(acc == 0)[0])


def _coords_in_basis(basis, vecs, l):
    """Coordinates of each vec in the span of the (independent) basis rows."""
    s = len(basis[0])
    t = len(basis)
    aug = [[basis[j][i] for j in range(t)] + [v[i] for v in vecs] for i in range(s)]
    rref, pivots = _rref_mod(aug, l)
    assert pivots[:t] == list(range(t)), "basis not independent"
    out = []
    for vi in range(len(vecs)):
        out.append([rref[r][t + vi] for r in range(t)])
    return out


def _dixon_eigenvectors(struct, s, id_class, l):
    """Common eigenvectors of the class matrices, normalized at the identity class."""
    spaces = [[[1 if i == j else 0 for j in range(s)] for i in range(s)]]
    for i in range(s):
        if all(len(V) == 1 for V in spaces):
            break
        Mi = [[struct[i][j][k] % l for k in range(s)] for j in range(s)]
        new_spaces = []
        for V in spaces:
            if len(V) == 1:
                new_spaces.append(V)
                continue
            imgs = [[sum(Mi[j][k] * v[k] for k in range(s)) % l for j in range(s)] for v in V]
            A = _coords_in_basis(V, imgs, l)
            # A currently holds, per img, its coords: make the operator matrix A[row][col]
            t = len(V)
            op = [[A[j][i] for j in range(t)] for i in range(t)]
            roots = _roots_mod(_charpoly_mod(op, l), l)
            if len(roots) == 1:
                new_spaces.append(V)
                continue
            got = 0
            for lam in roots:
                shifted = [[(op[a][b] - (lam if a == b else 0)) % l for b in range(t)]
                           for a in range(t)]
                eig_basis = []
                for nv in _nullspace_mod(shifted, l):
                    w = [sum(nv[a] * V[a][k] for a in range(t)) % l for k in range(s)]
                    eig_basis.append(w)
                if eig_basis:
                    new_spaces.append(eig_basis)
                    got += len(eig_basis)
            if got != t:
                raise LiftFailure("eigenspace dimensions did not add up")
        spaces = new_spaces
    if not all(len(V) == 1 for V in spaces):
        raise LiftFailure("class matrices failed to separate characters")
    out = []
    for V in spaces:
        v = V[0]
        c = v[id_class]
        if c == 0:
            raise LiftFailure("eigenvector vanished at the identity class")
        ci = pow(c, l - 2, l)
        out.append([(x * ci) % l for x in v])
    return out


def _primitive_root(l):
    fac = []
    n = l - 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            fac.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        fac.append(n)
    g = 2
    while True:
        if all(pow(g, (l - 1) // f, l) != 1 for f in fac):
            return g
        g += 1


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    group: Group
    conj: ConjugacyData
    m: int
    chars: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    fs: tuple[int, ...]
    dual: tuple[int, ...]
    omega_minus1: tuple[int, ...] | None   # central character at -1 (odd q only)

    def nchars(self) -> int:
        return len(self.chars)

    def trivial_index(self) -> int:
        one = Cyclo.integer(self.m, 1)
        for i, chi in enumerate(self.chars):
            if all(v == one for v in chi.values):
                return i
        raise AssertionError("no trivial character")


def char_table(G: Group) -> CharacterTable:
    if G._char_table is not None:
        return G._char_table
    conj = conjugacy(G)
    n = len(G)
    s = conj.nclasses()
    m = conj.exponent
    id_class = conj.class_of[G.identity]

    bound = 2 * (isqrt(n) + 1) * max(conj.sizes)
    l = smallest_prime_in_progression(m, 1, bound)

    omegas = _dixon_eigenvectors(structure_constants(G, conj), s, id_class, l)
    if len(omegas) != s:
        raise LiftFailure("wrong number of eigenvectors")

    z_root = pow(_primitive_root(l), (l - 1) // m, l)
    inv_of = [conj.inverse_class(c) for c in range(s)]
    size_inv = [pow(h, l - 2, l) for h in conj.sizes]

    chars = []
    degrees = []
    for w in omegas:
        norm = sum(w[j] * w[inv_of[j]] % l * size_inv[j] for j in range(s)) % l
        d_sq = n * pow(norm, l - 2, l) % l
        d = next((x for x in range(1, isqrt(n) + 2) if x * x % l == d_sq), None)
        if d is None:
            raise LiftFailure("degree recovery failed")
        chi_mod = [d * w[j] % l * size_inv[j] % l for j in range(s)]

        values = []
        for j in range(s):
            nj = conj.orders[j]
            zj = pow(z_root, m // nj, l)
            nj_inv = pow(nj, l - 2, l)
            vec = [0] * m
            for t_exp in range(nj):
                tot = 0
                for k in range(nj):
                    tot += chi_mod[conj.power[j][k]] * pow(zj, (-t_exp * k) % nj, l)
                mt = tot * nj_inv % l
                if mt > d:
                    raise LiftFailure("eigenvalue multiplicity exceeded the degree")
                if mt:
                    vec[(t_exp * (m // nj)) % m] += mt
            values.append(cyclo_make(m, vec))
        chars.append(ClassFunction(G, conj, m, values))
        degrees.append(d)

    if sum(d * d for d in degrees) != n:
        raise LiftFailure("degree squares do not sum to the group order")

    chars_sorted = sorted(
        zip(chars, degrees),
        key=lambda cd: (cd[1], tuple(v.coeffs for v in cd[0].values)),
    )
    chars = tuple(c for c, _ in chars_sorted)
    degrees = tuple(d for _, d in chars_sorted)

    _validate_orthogonality(G, conj, chars, inv_of)

    fs = tuple(fs_indicator(chi) for chi in chars)
    by_values = {chi.values: i for i, chi in enumerate(chars)}
    dual = tuple(by_values[chi.dual().values] for chi in chars)

    omega = None
    if G.kind == "sl2" and G.field.p != 2:
        zc = conj.class_of[minus_one(G)]
        omega = tuple(chi.int_at(zc) // degrees[i] for i, chi in enumerate(chars))
        assert all(o in (-1, 1) for o in omega)

    table = CharacterTable(G, conj, m, chars, degrees, fs, dual, omega)
    G._char_table = table
    return table


def structure_constants(G: Group, conj: ConjugacyData) -> list:
    """a[i][j][k] = #{x in C_i : x^-1 z in C_j}, z the representative of C_k."""
    s = conj.nclasses()
    cls = np.asarray(conj.class_of)
    a = np.empty((s, s, s), dtype=np.int64)
    for k, z in enumerate(conj.reps):
        pairs = cls * s + cls[G.mul_many(G.inverses, z)]
        a[:, :, k] = np.bincount(pairs, minlength=s * s).reshape(s, s)
    return a.tolist()


def _validate_orthogonality(G, conj, chars, inv_of):
    """Row orthogonality, exactly: sum_c |C_c| chi_a(c) chi_b(c^-1) = n [a = b].

    This also proves the column relations.  Let A be the table (A[a][c] =
    chi_a(c)), n = |G| and M = diag(|C_c|)·P with P the permutation matrix
    of c -> c^-1.  The rows say A·M·A^T = n·I.  With s characters for s
    classes A is square, so over the fraction field of Z[zeta_m] it is
    invertible with A^-1 = M·A^T / n, and A^-1·A = I gives A^T·A = n·M^-1:
    sum_a chi_a(c1) chi_a(c2^-1) = n / |C_c1| [c1 = c2], the columns.
    """
    n = len(G)
    s = conj.nclasses()
    if len(chars) != s:
        raise LiftFailure(f"{len(chars)} characters for {s} classes")
    m = chars[0].m
    zero = Cyclo.integer(m, 0)
    for a in range(s):
        for b in range(a, s):
            tot = zero
            for c in range(s):
                tot = tot + chars[a].values[c] * chars[b].values[inv_of[c]] * conj.sizes[c]
            if cyclo_to_integer(tot) != (n if a == b else 0):
                raise LiftFailure(f"row orthogonality failed at ({a},{b})")


# ---------------------------------------------------------------------------
# Induction and restriction
# ---------------------------------------------------------------------------

def induce(H: Subgroup, chi: ClassFunction, G: Group) -> ClassFunction:
    """chi_Ind(g) = |H|^-1 sum over x in G with x^-1 g x in H of chi(x^-1 g x)."""
    assert H.parent is G and chi.group is H.group
    conj_g = conjugacy(G)
    conj_h = conjugacy(H.group)
    m = lcm(chi.m, conj_g.exponent)
    chi = chi.align(m)
    X = np.arange(len(G))
    h_cls = np.asarray(conj_h.class_of)
    phi = len(Cyclo.integer(m, 0).coeffs)
    values = []
    for g in conj_g.reps:
        # H-index of each conjugate x^-1 g x, or -1 outside H
        y = H.group.locate(G.codes[G.mul_many(G.inverses, G.mul_many(g, X))])
        counts = np.bincount(h_cls[y[y >= 0]], minlength=conj_h.nclasses())
        acc_vec = [0] * phi
        for c in np.flatnonzero(counts).tolist():
            for i, cc in enumerate(chi.values[c].coeffs):
                if cc:
                    acc_vec[i] += int(counts[c]) * cc
        values.append(Cyclo(m, tuple(acc_vec)).exact_div(len(H.group)))
    return ClassFunction(G, conj_g, m, values)


def restrict(chi: ClassFunction, K: Group) -> ClassFunction:
    """Restriction along the inclusion of K in chi's group, given by equal
    element codes; ValueError unless both groups share one coding and every
    element of K is in chi's group."""
    G = chi.group
    at = G.locate(K.codes) if K.arith is G.arith else None
    if at is None or np.count_nonzero(at < 0):
        raise ValueError(f"{K.name} is not contained in {G.name}")
    conj_k = conjugacy(K)
    vals = [chi.values[chi.conj.class_of[i]] for i in at[conj_k.reps].tolist()]
    return ClassFunction(K, conj_k, chi.m, vals)


# ---------------------------------------------------------------------------
# Virtual representations
# ---------------------------------------------------------------------------

class VirtualRep:
    """Integer combination of the irreducible characters of a fixed table.

    Its value at a class is summed when first asked for and kept, so a
    caller that reads a few classes, as the oracles do, never sums the whole
    character."""

    __slots__ = ("table", "mults", "_values")

    def __init__(self, table: CharacterTable, mults):
        self.table = table
        self.mults = tuple(mults)
        assert len(self.mults) == table.nchars()
        self._values: dict[int, Cyclo] = {}

    def value_at(self, c: int) -> Cyclo:
        """sum_i n_i chi_i(c) in Z[zeta_m], m = exp G."""
        v = self._values.get(c)
        if v is None:
            acc = list(Cyclo.integer(self.table.m, 0).coeffs)
            for chi, n in zip(self.table.chars, self.mults):
                if n:
                    for k, a in enumerate(chi.values[c].coeffs):
                        if a:
                            acc[k] += n * a
            v = self._values[c] = Cyclo(self.table.m, tuple(acc))
        return v

    def character(self) -> ClassFunction:
        conj = self.table.conj
        return ClassFunction(self.table.group, conj, self.table.m,
                             [self.value_at(c) for c in range(conj.nclasses())])

    def degree(self) -> int:
        return sum(n * d for n, d in zip(self.mults, self.table.degrees))

    def int_at(self, c: int) -> int:
        return cyclo_to_integer(self.value_at(c))

    def is_genuine(self) -> bool:
        return all(n >= 0 for n in self.mults)

    def dual(self) -> "VirtualRep":
        out = [0] * len(self.mults)
        for i, n in enumerate(self.mults):
            out[self.table.dual[i]] += n
        return VirtualRep(self.table, out)

    def __add__(self, other):
        assert self.table is other.table
        return VirtualRep(self.table, [a + b for a, b in zip(self.mults, other.mults)])

    def __sub__(self, other):
        assert self.table is other.table
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
    """Decompose an exact virtual character over the table, with verification."""
    assert cf.group is table.group
    mults = [cf.inner_int(chi) for chi in table.chars]
    rep = VirtualRep(table, mults)
    if not rep.character() == cf:
        raise NotRationalInteger("class function is not a virtual character of the table")
    return rep


def random_orthogonal_rep(table, rng, max_degree=2000) -> VirtualRep:
    """Seeded random genuine orthogonal combination of OIR blocks."""
    labels = oir_labels(table)
    blocks: dict[tuple, int] = {}
    deg = 0
    while True:
        lab, d = labels[rng.randrange(len(labels))]
        if deg + d > max_degree:
            break
        blocks[lab] = blocks.get(lab, 0) + 1
        deg += d
    return rep_from_oir_blocks(table, blocks)


def random_genuine_rep(table, rng, max_degree=200) -> VirtualRep:
    """Seeded random genuine (not necessarily self-dual) combination."""
    mults = [0] * table.nchars()
    deg = 0
    while True:
        i = rng.randrange(table.nchars())
        if deg + table.degrees[i] > max_degree:
            break
        mults[i] += 1
        deg += table.degrees[i]
    return VirtualRep(table, mults)


# ---------------------------------------------------------------------------
# Principal series and cuspidal constructions
# ---------------------------------------------------------------------------

def _canonical_multiplicative_generator(F) -> int:
    for a in range(2, F.q):
        if F.mult_order(a) == F.q - 1:
            return a
    raise AssertionError("multiplicative group had no generator")


def principal_series(q: int, k: int) -> ClassFunction:
    """Parabolically induced character of GL(2,q) of degree q+1.

    The inducing character of the diagonal torus is alpha x 1 where
    alpha(gen^j) = zeta_{q-1}^{kj}; requires alpha(-1) = -1 (k odd, q odd)
    and alpha^2 != 1.
    """
    if q % 2 == 0:
        raise BadConstructionParams("alpha(-1) = -1 is impossible in even characteristic")
    if k % 2 == 0:
        raise BadConstructionParams("alpha(-1) = -1 requires an odd exponent")
    if (2 * k) % (q - 1) == 0:
        raise BadConstructionParams("alpha^2 = 1 is not allowed")
    Gt = build_gl2(q)
    B = standard_subgroup(Gt, "B")
    F = Gt.field
    gen = _canonical_multiplicative_generator(F)
    dlog = _dlog_table(F, gen)
    m = conjugacy(Gt).exponent
    assert m % (q - 1) == 0
    step = m // (q - 1)
    conj_b = conjugacy(B.group)
    vals = [Cyclo.root(m, step * k * dlog[B.group.elem(r)[0]]) for r in conj_b.reps]
    chi = ClassFunction(B.group, conj_b, m, vals)
    out = induce(B, chi, Gt)
    assert out.degree() == q + 1
    return out


def cuspidal(q: int, k: int) -> ClassFunction:
    """Irreducible cuspidal character of GL(2,q) of degree q-1.

    Built as Ind_{ZN} chi_phi - Ind_{Te} chi where chi(gen^j) = zeta_{q^2-1}^{kj}
    on the elliptic torus; requires chi(-1) = -1 (k odd, q odd), chi^2 != 1 and
    chi^q != chi.  phi is the additive character x -> zeta_p^{Tr(x)}.
    """
    if q % 2 == 0:
        raise BadConstructionParams("chi(-1) = -1 is impossible in even characteristic")
    if k % 2 == 0:
        raise BadConstructionParams("chi(-1) = -1 requires an odd exponent")
    if (2 * k) % (q * q - 1) == 0:
        raise BadConstructionParams("chi^2 = 1 is not allowed")
    if ((q - 1) * k) % (q * q - 1) == 0:
        raise BadConstructionParams("chi^q = chi is not allowed")
    Gt = build_gl2(q)
    F = Gt.field
    p = F.p
    Te = standard_subgroup(Gt, "Te")
    ZN = standard_subgroup(Gt, "ZN")
    m = conjugacy(Gt).exponent
    assert m % (q * q - 1) == 0 and m % p == 0
    step = m // (q * q - 1)

    gen_i = next(i for i in range(len(Te.group)) if Te.group.elem_order(i) == q * q - 1)
    dlog_te = [0] * len(Te.group)  # by Te index
    cur = Te.group.identity
    for j in range(q * q - 1):
        dlog_te[cur] = j
        cur = Te.group.mult(cur, gen_i)

    conj_te = conjugacy(Te.group)
    vals_te = [Cyclo.root(m, step * k * dlog_te[r]) for r in conj_te.reps]
    chi_te = ClassFunction(Te.group, conj_te, m, vals_te)

    conj_zn = conjugacy(ZN.group)
    vals_zn = []
    for r in conj_zn.reps:
        s_, x, _, _ = ZN.group.elem(r)
        u = F.mul[x][F.inv[s_]]
        tr = F.trace[u]
        e = step * k * dlog_te[Te.group.find((s_, 0, 0, s_))] + (m // p) * tr
        vals_zn.append(Cyclo.root(m, e))
    chi_zn = ClassFunction(ZN.group, conj_zn, m, vals_zn)

    out = induce(ZN, chi_zn, Gt) - induce(Te, chi_te, Gt)
    assert out.degree() == q - 1
    return out


def _dlog_table(F, gen: int) -> dict[int, int]:
    table = {}
    cur = 1
    for j in range(F.q - 1):
        table[cur] = j
        cur = F.mul[cur][gen]
    return table


def principal_series_sl(q: int, k: int) -> VirtualRep:
    """Restriction to SL(2,q) of the degree q+1 principal series; irreducible."""
    G = build_sl2(q)
    cf = restrict(principal_series(q, k), G)
    return rep_from_class_function(char_table(G), cf)


def cuspidal_sl(q: int, k: int) -> VirtualRep:
    """Restriction to SL(2,q) of the degree q-1 cuspidal character; irreducible."""
    G = build_sl2(q)
    cf = restrict(cuspidal(q, k), G)
    return rep_from_class_function(char_table(G), cf)
