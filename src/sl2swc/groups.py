"""Concrete finite groups: SL(2,q), GL(2,q), their standard subgroups, and
generalized quaternion groups, with conjugacy classes and power maps.

An element is its index and the integer code at that index, and codes
increase strictly with the index: a*q^3 + b*q^2 + c*q + d for the matrix
(a, b, c, d) of field element ranks, its rank among all q^4 matrices in
lexicographic order, and 2k + l for the quaternion word a^k b^l.  Tuples
appear only through `Group.find` and `Group.elem`.  Products are taken on
numpy arrays of indices (`Group.mul_many`): entrywise on codes (matrix
entries through the field's numpy add and mul tables), then mapped back to
indices by binary search in the sorted codes.  A subgroup is a set of parent
indices and shares its parent's codes and coding object; there is one coding
per q, and codes are compared only between groups that share it.  The
elliptic torus is built from its own codes on that coding, with no parent.  All
data is immutable once built; conjugacy and power tables are cached on the
group object.

`conjugacy` takes its classes as orbits under conjugation by a generating
set T, which `_generators` certifies by reaching all of G from the identity.
An orbit under T is an orbit under <T> = G, so these are the conjugacy
classes.  Conjugation is an automorphism: for x = g^-1 r g, x^k = g^-1 r^k g,
so class(x^k) = class(r^k) and ord x = ord r, and the power map is read off
the class representatives alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import lcm

import numpy as np

from .algebra import FieldTable, factor_prime_power, field_make

SIZE_CAP = 81


class TooLarge(Exception):
    """Requested q exceeds the configured cap."""


class UnsupportedTag(Exception):
    """Subgroup tag undefined for this group."""


class EvenQ(Exception):
    """Operation requires odd q."""


class NotFound(Exception):
    """Exhaustive search found no witness."""


class Group:
    """Finite group on element indices with an index-based product.

    `codes` holds the element codes in increasing order, so that `locate`
    finds them by binary search; `arith` multiplies and inverts code arrays,
    and codes and decodes single elements.
    """

    def __init__(self, name, kind, codes, arith, identity_elem, q=None, field=None):
        self.name = name
        self.kind = kind  # "sl2" | "gl2" | "genq" | "sub"
        self.codes = codes
        self.arith = arith
        # binary search needs increasing codes; strictly so means no duplicates
        if np.count_nonzero(codes[1:] <= codes[:-1]):
            raise AssertionError(f"{name}: element codes do not strictly increase")
        # a sentinel above every code keeps every search position a valid index
        self._search = np.empty(len(codes) + 1, dtype=codes.dtype)
        self._search[:-1] = codes
        self._search[-1] = np.iinfo(codes.dtype).max
        self.identity = self.find(identity_elem)
        # a matrix of determinant 1 inverts to its adjugate
        self.inverses = self.locate(arith.adjugate(codes) if kind == "sl2" else arith.inv(codes))
        if np.count_nonzero(self.inverses < 0):
            raise AssertionError(f"{name}: elements not closed under inverses")
        self.q = q
        self.field = field
        self._conj = None
        self._char_table = None
        self._q8 = None

    def __len__(self):
        return len(self.codes)

    def locate(self, codes) -> np.ndarray:
        """Index of each code, or -1 where the code is not an element."""
        pos = np.searchsorted(self._search, codes)
        pos[self._search[pos] != codes] = -1
        return pos

    def elem(self, i: int) -> tuple:
        """Element i as a tuple: matrix entries (a, b, c, d) or word (k, l)."""
        return self.arith.entries(int(self.codes[i]))

    def find(self, elem) -> int:
        """Index of an element tuple; KeyError if it is not an element."""
        i = int(self.locate([self.arith.code(*elem)])[0])
        # entries out of range can alias another element's code
        if i < 0 or self.elem(i) != tuple(elem):
            raise KeyError(elem)
        return i

    def mul_many(self, I, J) -> np.ndarray:
        """Indices of the products of elements I and J, entrywise (broadcast)."""
        K = self.locate(self.arith.mul(self.codes[I], self.codes[J]))
        if np.count_nonzero(K < 0):
            raise AssertionError(f"{self.name}: a product left the element list")
        return K

    def mult(self, i: int, j: int) -> int:
        return int(self.mul_many([i], [j])[0])

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def __repr__(self):
        return f"Group({self.name}, order {len(self)})"


class _MatrixCodes:
    """2x2 matrices over F_q coded as a*q^3 + b*q^2 + c*q + d."""

    def __init__(self, F: FieldTable):
        self.q = F.q
        self.F = F

    def entries(self, x):
        q = self.q
        return x // (q * q * q), x // (q * q) % q, x // q % q, x % q

    def code(self, a, b, c, d):
        q = self.q
        return ((a * q + b) * q + c) * q + d

    def det(self, a, b, c, d):
        F = self.F
        return F.add[F.mul[a, d], F.neg[F.mul[b, c]]]

    def mul(self, x, y):
        add, mul = self.F.add, self.F.mul
        a, b, c, d = self.entries(x)
        e, f, g, h = self.entries(y)
        return self.code(add[mul[a, e], mul[b, g]], add[mul[a, f], mul[b, h]],
                         add[mul[c, e], mul[d, g]], add[mul[c, f], mul[d, h]])

    def adjugate(self, x):
        """(d, -b, -c, a) for (a, b, c, d), the inverse when ad - bc = 1,
        summed into the code one entry at a time: the entry arrays of a
        large group are not all alive at once."""
        q, neg = self.q, self.F.neg
        out = x % q * (q * q * q)
        out += neg[x // (q * q) % q] * (q * q)
        out += neg[x // q % q] * q
        out += x // (q * q * q)
        return out

    def inv(self, x):
        mul, neg = self.F.mul, self.F.neg
        a, b, c, d = self.entries(x)
        di = self.F.inv[self.det(a, b, c, d)]  # inv[0] = 0 keeps singular codes singular
        return self.code(mul[d, di], mul[neg[b], di], mul[neg[c], di], mul[a, di])


@lru_cache(maxsize=None)
def _field_table(q: int) -> FieldTable:
    p, r = factor_prime_power(q)
    return field_make(p, r)


@lru_cache(maxsize=None)
def _matrix_codes(q: int) -> _MatrixCodes:
    """The one matrix coding over F_q, shared by SL(2,q), GL(2,q) and subgroups."""
    return _MatrixCodes(_field_table(q))


def _matrix_group_codes(arith: _MatrixCodes, want_sl: bool) -> np.ndarray:
    """Increasing codes of the matrices with det = 1 (want_sl) or det != 0:
    one block a*q^3 + n per first entry a, n coding (b, c, d).  ad - bc sees n
    only through the pair (d, -bc), kept as one index per n (n // q = b*q + c
    indexes mul[b, c]), so each a reads its q x q table of determinants there."""
    q, F = arith.q, arith.F
    n = np.arange(q ** 3)
    pair = n % q * q + F.neg[F.mul.ravel()[n // q]]
    del n
    blocks = []
    for a in range(q):
        det = F.add[F.mul[a]].ravel()[pair]   # add[mul[a, d], -bc]
        blocks.append(a * q ** 3 + np.flatnonzero(det == 1 if want_sl else det != 0))
    return np.concatenate(blocks)


def _build_matrix_group(q: int, want_sl: bool) -> Group:
    if q > SIZE_CAP:
        raise TooLarge(f"q={q} exceeds cap {SIZE_CAP}")
    arith = _matrix_codes(q)
    name = f"{'SL' if want_sl else 'GL'}(2,{q})"
    G = Group(name, "sl2" if want_sl else "gl2", _matrix_group_codes(arith, want_sl), arith,
              (1, 0, 0, 1), q=q, field=_field_table(q))
    expect = q * (q * q - 1) if want_sl else (q * q - 1) * (q * q - q)
    if len(G) != expect:
        raise AssertionError(f"{name}: got {len(G)} elements, expected {expect}")
    return G


@lru_cache(maxsize=None)
def build_sl2(q: int) -> Group:
    return _build_matrix_group(q, True)


@lru_cache(maxsize=None)
def build_gl2(q: int) -> Group:
    return _build_matrix_group(q, False)


class _WordCodes:
    """Words a^k b^l (0 <= k < M, l in {0, 1}) coded as 2k + l, with
    a^M = 1, b^2 = a^(M/2) and b a b^-1 = a^-1."""

    def __init__(self, M: int):
        self.M = M

    def entries(self, x):
        return x >> 1, x & 1

    def code(self, k, l):
        return 2 * k + l

    def mul(self, x, y):
        k, l, k2, l2 = x >> 1, x & 1, y >> 1, y & 1
        # a^k b^l a^k2 b^l2 = a^(k +- k2) b^(l + l2), and b^2 = a^(M/2)
        kk = np.where(l == 0, k + k2, k - k2) + (l & l2) * (self.M // 2)
        return kk % self.M * 2 + (l ^ l2)

    def inv(self, x):
        k, l, M = x >> 1, x & 1, self.M
        return np.where(l == 0, -k % M * 2, (k + M // 2) % M * 2 + 1)


@lru_cache(maxsize=None)
def gen_quaternion(n: int) -> Group:
    """Order-2^n group on words a^k b^l with a^{2^{n-2}} = b^2, b^4 = 1, bab^-1 = a^-1."""
    if n < 3:
        raise ValueError("generalized quaternion groups need n >= 3")
    M = 2 ** (n - 1)
    return Group(f"Q{2**n}", "genq", np.arange(2 * M), _WordCodes(M), (0, 0),
                 q=None, field=None)


# ---------------------------------------------------------------------------
# Conjugacy data
# ---------------------------------------------------------------------------

@dataclass
class ConjugacyData:
    group: Group
    class_of: list[int]
    reps: list[int]
    sizes: list[int]
    orders: list[int]          # element order of each class
    exponent: int
    power: list[list[int]]     # power[c][k] = class of rep_c^k, k < orders[c]

    def nclasses(self) -> int:
        return len(self.reps)

    def inverse_class(self, c: int) -> int:
        return self.power[c][-1]

    def class_of_elem(self, elem) -> int:
        return self.class_of[self.group.find(elem)]


def conjugacy(G: Group) -> ConjugacyData:
    """Orbits under conjugation by `_generators(G)`, element orders and the
    power-class table, each class represented by its least index.

    Labels start as the indices and shrink to a fixpoint: each round takes
    label[label], then the least label over each generator's conjugation.
    A label stays in its element's orbit and at most its index, and at the
    fixpoint it is constant on every orbit, so it is the orbit's least index.
    """
    if G._conj is not None:
        return G._conj
    X = np.arange(len(G))
    perms = [G.mul_many(G.mul_many(G.inverses[t], X), t) for t in _generators(G)]
    label = X
    while True:
        new = label[label]
        for p in perms:
            new = np.minimum(new, new[p])
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == X)  # each class's least index, ascending
    cls = np.searchsorted(reps, label)
    sizes = np.bincount(cls)

    # raise the representatives together: rows[k][c] = class of rep_c^k
    order = np.zeros(len(reps), dtype=np.int64)
    rows, cur = [], np.full(len(reps), G.identity)
    while not order.all():
        rows.append(cls[cur])
        cur = G.mul_many(cur, reps)
        order[(order == 0) & (cur == G.identity)] = len(rows)
    rows = np.array(rows)
    orders = order.tolist()
    exponent = reduce(lcm, orders, 1)
    power = [rows[:d, c].tolist() for c, d in enumerate(orders)]

    data = ConjugacyData(G, cls.tolist(), reps.tolist(), sizes.tolist(), orders, exponent, power)
    G._conj = data
    return data


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass
class Subgroup:
    parent: Group
    indices: tuple[int, ...]    # sorted parent indices
    tag: str
    group: Group = field(repr=False)
    gens: tuple[int, ...] | None = None   # parent indices, when found by search
    # what an oracle reads of this embedding, built on its first use
    _frame: object = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.indices)


def subgroup_from_indices(G: Group, indices, tag: str, gens=None) -> Subgroup:
    """Subgroup on a closed set of parent indices, given in any order."""
    idxs = sorted(set(np.asarray(indices, dtype=np.int64).tolist()))
    sub = Group(f"{G.name}:{tag}", "sub", G.codes[idxs], G.arith, G.elem(G.identity),
                q=G.q, field=G.field)  # raises unless inverse-closed
    _generators(sub)  # raises unless closed under products
    return Subgroup(G, tuple(idxs), tag, sub, gens)


def _generators(H: Group) -> list[int]:
    """A generating set T of H; raise AssertionError unless H·H lies in H.

    <T> grows inside H one generator t at a time, each the first element of
    H not reached yet.  Every x·t (x in H) must lie in H; these products give
    the permutation x -> x·t of H, and <T> is the orbit of the identity under
    them.  A new generator at least doubles <T>, so this costs at most
    |H|·log2 |H| products, and it raises exactly when H is not closed: an
    orbit that covers H makes H = <T> a group.
    """
    n = len(H)
    reached = np.zeros(n, dtype=bool)
    reached[H.identity] = True
    last = np.empty(n, dtype=np.int64)
    gens, perms = [], []
    while not reached.all():
        t = int(np.argmin(reached))
        image = H.locate(H.arith.mul(H.codes, H.codes[t]))
        if np.count_nonzero(image < 0):
            raise AssertionError(f"{H.name}: elements not closed under products")
        gens.append(t)
        perms.append(image)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.concatenate([p[frontier] for p in perms])
            fresh = step[~reached[step]]
            # keep each element once: last[x] ends up at one of x's positions
            last[fresh] = np.arange(fresh.size)
            frontier = fresh[last[fresh] == np.arange(fresh.size)]
            reached[frontier] = True
    return gens


def standard_subgroup(G: Group, tag: str) -> Subgroup:
    if G.kind not in ("sl2", "gl2"):
        raise UnsupportedTag(f"standard subgroups undefined for {G.name}")
    F = G.field
    q = G.q
    mul, neg = F.mul, F.neg
    sl = G.kind == "sl2"

    if sl:
        scalars = [1, neg[1]] if F.p != 2 else [1]
    else:
        scalars = list(range(1, q))

    if tag == "Z":
        elems = [(s, 0, 0, s) for s in scalars]
    elif tag == "N":
        elems = [(1, b, 0, 1) for b in range(q)]
    elif tag == "ZN":
        elems = [(s, mul[s][b], 0, s) for s in scalars for b in range(q)]
    elif tag == "T":
        if sl:
            elems = [(a, 0, 0, F.inv[a]) for a in range(1, q)]
        else:
            elems = [(a, 0, 0, d) for a in range(1, q) for d in range(1, q)]
    elif tag == "B":
        if sl:
            elems = [(a, b, 0, F.inv[a]) for a in range(1, q) for b in range(q)]
        else:
            elems = [(a, b, 0, d) for a in range(1, q) for b in range(q) for d in range(1, q)]
    elif tag == "Te":
        if sl:
            raise UnsupportedTag("elliptic torus is realized inside GL(2,q) only")
    else:
        raise UnsupportedTag(f"unknown subgroup tag {tag!r}")
    idxs = G.locate(elliptic_torus(q).codes if tag == "Te" else [G.arith.code(*e) for e in elems])
    if np.count_nonzero(idxs < 0):
        raise AssertionError(f"{tag} of {G.name} has a matrix outside the group")
    return subgroup_from_indices(G, idxs, tag)


@lru_cache(maxsize=None)
def elliptic_torus(q: int) -> Group:
    """The elliptic torus F_q[C]^*, C the companion matrix (0, -c0; 1, -c1) of
    the first root-free monic quadratic t^2 + c1 t + c0: its q^2 - 1 matrices
    a + bC on the shared matrix coding, built without GL(2,q)."""
    F, arith = _field_table(q), _matrix_codes(q)
    c0, c1 = _canonical_irreducible_quadratic(F)
    b, a = np.divmod(np.arange(1, q * q), q)
    codes = np.sort(arith.code(a, F.mul[b, F.neg[c0]], b, F.add[a, F.mul[b, F.neg[c1]]]))
    T = Group(f"Te(2,{q})", "sub", codes, arith, (1, 0, 0, 1), q=q, field=F)
    _generators(T)  # raises unless closed under products
    return T


def _canonical_irreducible_quadratic(F: FieldTable) -> tuple[int, int]:
    """Low coefficients (c0, c1) of the first root-free monic quadratic over F_q."""
    x = np.arange(F.q)
    for enc in range(F.q ** 2):
        c0, c1 = enc % F.q, enc // F.q
        if np.all(F.add[F.mul[x, x], F.add[F.mul[c1, x], c0]] != 0):
            return c0, c1
    raise AssertionError("no irreducible quadratic found")


@lru_cache(maxsize=None)
def minus_one(G: Group) -> int:
    """Index of the scalar matrix -1 in SL(2,q) or GL(2,q); the identity when
    q is even.  Found once per group."""
    m1 = G.field.neg[1]
    return G.find((m1, 0, 0, m1))


def _quaternion_pairs(G: Group):
    """Ordered pairs (x, y) generating a copy of the quaternion group of order 8."""
    if G.kind != "sl2":
        raise UnsupportedTag("quaternion search implemented for SL(2,q)")
    if G.field.p == 2:
        raise EvenQ("SL(2,q) with q even has no quaternion subgroups")
    m1 = minus_one(G)
    X = np.arange(len(G))
    roots = np.flatnonzero(G.mul_many(X, X) == m1)
    roots_inv = G.inverses[roots]
    for x in roots.tolist():
        x_inv = G.inv(x)
        cyc = {x, m1, x_inv}
        inverted = G.mul_many(G.mul_many(roots, x), roots_inv) == x_inv
        for y in roots[inverted].tolist():
            if y not in cyc:
                yield x, y


def _quaternion_subgroup(G: Group, x: int, y: int) -> Subgroup:
    mult = G.mult
    m1 = minus_one(G)
    xy = mult(x, y)
    idxs = {G.identity, m1, x, mult(m1, x), y, mult(m1, y), xy, mult(m1, xy)}
    if len(idxs) != 8:
        raise AssertionError(f"quaternion generators {x}, {y} span {len(idxs)} elements")
    return subgroup_from_indices(G, list(idxs), "Q8", gens=(x, y))


def find_quaternion(G: Group) -> Subgroup:
    """First quaternion subgroup of order 8 in canonical element order, with
    generators x, y satisfying x^2 = y^2 = -1 and y x y^-1 = x^-1.  Found
    once per group; later calls return the same Subgroup."""
    if G._q8 is None:
        pair = next(_quaternion_pairs(G), None)
        if pair is None:
            raise NotFound("no quaternion subgroup found")  # unreachable for odd q
        G._q8 = _quaternion_subgroup(G, *pair)
    return G._q8


def quaternion_embeddings(G: Group, limit: int = 3) -> list[Subgroup]:
    """Deterministic list of quaternion embeddings, distinct subgroups first."""
    chosen: list[Subgroup] = []
    seen_subgroups = set()
    seen_pairs = set()
    for x, y in _quaternion_pairs(G):
        sub = _quaternion_subgroup(G, x, y)
        if sub.indices not in seen_subgroups:
            seen_subgroups.add(sub.indices)
            seen_pairs.add((x, y))
            chosen.append(sub)
            if len(chosen) == limit:
                return chosen
    for x, y in _quaternion_pairs(G):
        if (x, y) in seen_pairs:
            continue
        chosen.append(_quaternion_subgroup(G, x, y))
        if len(chosen) == limit:
            return chosen
    return chosen
