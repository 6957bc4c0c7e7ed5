"""Concrete finite groups: SL(2,q), GL(2,q), their standard subgroups, and
generalized quaternion groups, with conjugacy classes and power maps.

Matrix elements are 4-tuples (a, b, c, d) of field element ranks, ordered
lexicographically; quaternion words are pairs (k, l) meaning a^k b^l.  All
data is immutable once built; conjugacy and power tables are cached on the
group object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

from .algebra import FieldTable, factor_prime_power, field_make, lcm

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
    """Finite group as an ordered element list with an index-based product."""

    def __init__(self, name, kind, elems, raw_mult, raw_inv, identity_elem,
                 q=None, field=None):
        self.name = name
        self.kind = kind  # "sl2" | "gl2" | "genq" | "sub"
        self.elems = list(elems)
        self.index = {e: i for i, e in enumerate(self.elems)}
        assert len(self.index) == len(self.elems), "duplicate elements"
        self.raw_mult = raw_mult
        self.raw_inv = raw_inv
        self.identity = self.index[identity_elem]
        self.q = q
        self.field = field
        self._inv = None
        self._conj = None
        self._char_table = None

    def __len__(self):
        return len(self.elems)

    def mult(self, i: int, j: int) -> int:
        return self.index[self.raw_mult(self.elems[i], self.elems[j])]

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._inv = [self.index[self.raw_inv(e)] for e in self.elems]
        return self._inv[i]

    def elem_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != self.identity:
            cur = self.mult(cur, i)
            k += 1
        return k

    def subset_group(self, indices, name) -> "Group":
        elems = [self.elems[i] for i in indices]
        return Group(name, "sub", elems, self.raw_mult, self.raw_inv,
                     self.elems[self.identity], q=self.q, field=self.field)

    def __repr__(self):
        return f"Group({self.name}, order {len(self)})"


def _matrix_ops(F: FieldTable):
    add, mul, neg = F.add, F.mul, F.neg

    def mm(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            add[mul[a][e]][mul[b][g]],
            add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]],
            add[mul[c][f]][mul[d][h]],
        )

    def inv_gl(x):
        a, b, c, d = x
        det = add[mul[a][d]][neg[mul[b][c]]]
        di = F.inv[det]
        return (mul[d][di], mul[neg[b]][di], mul[neg[c]][di], mul[a][di])

    return mm, inv_gl


@lru_cache(maxsize=None)
def _field_table(q: int) -> FieldTable:
    p, r = factor_prime_power(q)
    return field_make(p, r)


def _build_matrix_group(q: int, want_sl: bool, cap: int) -> Group:
    if q > cap:
        raise TooLarge(f"q={q} exceeds cap {cap}")
    F = _field_table(q)
    add, mul, neg = F.add, F.mul, F.neg
    elems = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                bc = neg[mul[b][c]]
                for d in range(q):
                    det = add[mul[a][d]][bc]
                    if (det == 1) if want_sl else (det != 0):
                        elems.append((a, b, c, d))
    mm, inv_gl = _matrix_ops(F)
    name = f"{'SL' if want_sl else 'GL'}(2,{q})"
    G = Group(name, "sl2" if want_sl else "gl2", elems, mm, inv_gl,
              (1, 0, 0, 1), q=q, field=F)
    expect = q * (q * q - 1) if want_sl else (q * q - 1) * (q * q - q)
    assert len(G) == expect, f"{name}: got {len(G)} elements, expected {expect}"
    return G


@lru_cache(maxsize=None)
def build_sl2(q: int, cap: int = SIZE_CAP) -> Group:
    return _build_matrix_group(q, True, cap)


@lru_cache(maxsize=None)
def build_gl2(q: int, cap: int = SIZE_CAP) -> Group:
    return _build_matrix_group(q, False, cap)


@lru_cache(maxsize=None)
def gen_quaternion(n: int) -> Group:
    """Order-2^n group on words a^k b^l with a^{2^{n-2}} = b^2, b^4 = 1, bab^-1 = a^-1."""
    if n < 3:
        raise ValueError("generalized quaternion groups need n >= 3")
    M = 2 ** (n - 1)
    elems = [(k, l) for k in range(M) for l in range(2)]

    def mm(x, y):
        k, l = x
        k2, l2 = y
        if l == 0:
            kk, ll = k + k2, l2
        else:
            kk, ll = k - k2, 1 + l2
            if ll == 2:
                kk, ll = kk + M // 2, 0
        return (kk % M, ll)

    def inv(x):
        k, l = x
        if l == 0:
            return ((-k) % M, 0)
        return ((k + M // 2) % M, 1)

    return Group(f"Q{2**n}", "genq", elems, mm, inv, (0, 0), q=None, field=None)


# ---------------------------------------------------------------------------
# Conjugacy data
# ---------------------------------------------------------------------------

@dataclass
class ConjugacyData:
    group: Group
    classes: list[tuple[int, ...]]
    class_of: list[int]
    reps: list[int]
    sizes: list[int]
    orders: list[int]          # element order of each class
    exponent: int
    power: list[list[int]]     # power[c][k] = class of rep_c^k, k mod exponent

    def nclasses(self) -> int:
        return len(self.classes)

    def power_class(self, c: int, k: int) -> int:
        return self.power[c][k % self.exponent]

    def inverse_class(self, c: int) -> int:
        return self.power[c][(-1) % self.exponent]

    def class_of_elem(self, elem) -> int:
        return self.class_of[self.group.index[elem]]


def conjugacy(G: Group) -> ConjugacyData:
    """Orbit partition under conjugation plus the exhaustive power-class table."""
    if G._conj is not None:
        return G._conj
    n = len(G)
    mult, inv = G.mult, G.inv
    class_of = [-1] * n
    classes, reps = [], []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        c = len(classes)
        orbit = set()
        for x in range(n):
            orbit.add(mult(mult(x, g), inv(x)))
        for h in orbit:
            assert class_of[h] == -1
            class_of[h] = c
        classes.append(tuple(sorted(orbit)))
        reps.append(g)
    sizes = [len(c) for c in classes]
    assert sum(sizes) == n, "class equation failed"
    orders = [G.elem_order(r) for r in reps]
    exponent = reduce(lcm, orders, 1)

    power = []
    for r in reps:
        row = [class_of[G.identity]]
        cur = G.identity
        for _ in range(exponent - 1):
            cur = mult(cur, r)
            row.append(class_of[cur])
        power.append(row)

    # well-definedness: every member's powers land in the rep's power classes
    for x in range(n):
        row = power[class_of[x]]
        cur = G.identity
        for k in range(exponent):
            if class_of[cur] != row[k]:
                raise AssertionError(f"power map ill-defined at element {x}, k={k}")
            cur = mult(cur, x)

    data = ConjugacyData(G, classes, class_of, reps, sizes, orders, exponent, power)
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

    def __len__(self):
        return len(self.indices)


def _make_subgroup(G: Group, elems, tag, gens=None) -> Subgroup:
    idxs = tuple(sorted(G.index[e] for e in set(elems)))
    sub = G.subset_group(idxs, f"{G.name}:{tag}")
    # closure sanity on small subgroups
    for i in range(len(sub)):
        assert sub.elems[sub.inv(i)] in sub.index
    return Subgroup(G, idxs, tag, sub, gens)


def subgroup_from_indices(G: Group, indices, tag: str) -> Subgroup:
    """Subgroup on an explicit closed subset of element indices."""
    return _make_subgroup(G, [G.elems[i] for i in indices], tag)


def standard_subgroup(G: Group, tag: str) -> Subgroup:
    if G.kind not in ("sl2", "gl2"):
        raise UnsupportedTag(f"standard subgroups undefined for {G.name}")
    F = G.field
    q = G.q
    mul, neg, add = F.mul, F.neg, F.add
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
        c0, c1 = _canonical_irreducible_quadratic(F)
        # companion matrix of t^2 + c1 t + c0
        C = (0, neg[c0], 1, neg[c1])
        elems = []
        for a in range(q):
            for b in range(q):
                if a == 0 and b == 0:
                    continue
                elems.append((
                    add[a][mul[b][C[0]]], mul[b][C[1]],
                    mul[b][C[2]], add[a][mul[b][C[3]]],
                ))
        assert len(set(elems)) == q * q - 1
    else:
        raise UnsupportedTag(f"unknown subgroup tag {tag!r}")
    return _make_subgroup(G, elems, tag)


def _canonical_irreducible_quadratic(F: FieldTable) -> tuple[int, int]:
    """Low coefficients (c0, c1) of the first root-free monic quadratic over F_q."""
    q = F.q
    for enc in range(q * q):
        c0, c1 = enc % q, enc // q
        if all(F.add[F.mul[x][x]][F.add[F.mul[c1][x]][c0]] != 0 for x in range(q)):
            return c0, c1
    raise AssertionError("no irreducible quadratic found")


def _minus_one_index(G: Group) -> int:
    F = G.field
    m1 = F.neg[1]
    return G.index[(m1, 0, 0, m1)]


def _quaternion_pairs(G: Group):
    """Ordered pairs (x, y) generating a copy of the quaternion group of order 8."""
    if G.kind != "sl2":
        raise UnsupportedTag("quaternion search implemented for SL(2,q)")
    if G.field.p == 2:
        raise EvenQ("SL(2,q) with q even has no quaternion subgroups")
    m1 = _minus_one_index(G)
    mult, inv = G.mult, G.inv
    roots = [i for i in range(len(G)) if G.mult(i, i) == m1]
    for x in roots:
        x_inv = inv(x)
        cyc = {x, m1, x_inv}
        for y in roots:
            if y in cyc:
                continue
            if mult(mult(y, x), inv(y)) == x_inv:
                yield x, y


def _quaternion_subgroup(G: Group, x: int, y: int) -> Subgroup:
    mult = G.mult
    m1 = _minus_one_index(G)
    xy = mult(x, y)
    idxs = {G.identity, m1, x, mult(m1, x), y, mult(m1, y), xy, mult(m1, xy)}
    assert len(idxs) == 8
    elems = [G.elems[i] for i in idxs]
    return _make_subgroup(G, elems, "Q8", gens=(x, y))


def find_quaternion(G: Group) -> Subgroup:
    """First quaternion subgroup of order 8 in canonical element order, with
    generators x, y satisfying x^2 = y^2 = -1 and y x y^-1 = x^-1."""
    for x, y in _quaternion_pairs(G):
        return _quaternion_subgroup(G, x, y)
    raise NotFound("no quaternion subgroup found")  # unreachable for odd q


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
