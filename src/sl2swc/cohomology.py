"""Finitely presented graded F2-algebras, restriction homomorphisms, Steenrod
squares on polynomial rings, and Dickson invariants.

A class maps each degree to the frozenset of its normal-form monomials.  In a
ring on n generators truncated at D, x1^e1...xn^en is the integer code
sum e_i·(D+1)^(n-i), so descending codes list monomials in descending
exponent order.  Generators have positive degree, so no exponent exceeds D
and digits never carry: a product of monomials adds codes, a square doubles
them, and over F2 sums and products of components are symmetric differences
(a code that occurs twice cancels).  A free ring enumerates a degree's
monomials only for basis() and counts them for dim().  A presented ring
row-reduces each degree's relation multiples once (pivot: the largest
monomial of a row); the non-pivots are the basis, and products rewrite only
the other codes.
"""

from __future__ import annotations

from functools import lru_cache

# the largest truncation degree: `swc --truncate` and `cohomology --max-degree`
# refuse larger ones, which exhaust memory, and no default truncation exceeds it
TRUNCATION_CAP = 256


class InhomogeneousRelation(Exception):
    pass


class RingMismatch(Exception):
    pass


class UnsupportedRing(Exception):
    pass


class RelationViolation(Exception):
    pass


class TruncationTooLow(Exception):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ONE = frozenset((0,))


def _add_products(acc: set, c1, c2) -> None:
    """acc += c1 * c2 over F2, on the monomial codes of two components."""
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    for a in c1:
        acc ^= {a + b for b in c2}


class Ring:
    """Graded F2-algebra F2[gens]/(relations), truncated at degree D."""

    def __init__(self, names, degrees, relations, D):
        self.names = tuple(names)
        self.degs = tuple(degrees)
        self.D = D
        if any(d < 1 for d in self.degs):
            raise ValueError("generator degrees must be positive")
        n = len(self.degs)
        self._weights = tuple((D + 1) ** (n - 1 - i) for i in range(n))
        rels = []
        for rel in relations:
            rel = frozenset(tuple(e) for e in rel)
            rdegs = {self.degree(mon) for mon in rel}
            if len(rdegs) != 1:
                raise InhomogeneousRelation(f"relation {sorted(rel)} is not homogeneous")
            rels.append((rdegs.pop(), rel))
        self.relations = tuple(rels)
        # presented rings: degree -> (basis, normal form of every monomial code)
        self._deg_cache: dict[int, tuple[list, dict[int, tuple[int, ...]]]] = {}

    # -- monomial codes -------------------------------------------------------

    def degree(self, expvec) -> int:
        return sum(e * g for e, g in zip(expvec, self.degs))

    def _code(self, expvec) -> int:
        return sum(e * w for e, w in zip(expvec, self._weights))

    # -- per-degree data ----------------------------------------------------

    def _monomials_of_degree(self, d, i=0):
        """Exponent vectors of degree d in generators i.., largest first."""
        g = self.degs[i]
        if i == len(self.degs) - 1:
            return [(d // g,)] if d % g == 0 else []
        return [(e,) + rest for e in range(d // g, -1, -1)
                for rest in self._monomials_of_degree(d - e * g, i + 1)]

    def _degree_data(self, d):
        """(basis monomials, normal form of each monomial code) of a presented
        ring in degree d <= D."""
        if d in self._deg_cache:
            return self._deg_cache[d]
        mons = self._monomials_of_degree(d)
        codes = [self._code(m) for m in mons]
        pos = {c: i for i, c in enumerate(codes)}
        rows = []
        for rdeg, rel in self.relations:
            if rdeg > d:
                continue
            rel_codes = [self._code(mon) for mon in rel]
            for mu in self._monomials_of_degree(d - rdeg):
                c = self._code(mu)
                mask = 0
                for r in rel_codes:
                    mask ^= 1 << pos[c + r]
                if mask:
                    rows.append(mask)
        # F2 row reduction over the monomial list; pivot = lowest set bit
        pivots: dict[int, int] = {}
        for row in rows:
            while row:
                p = (row & -row).bit_length() - 1
                if p in pivots:
                    row ^= pivots[p]
                else:
                    pivots[p] = row
                    break
        # back-substitute so each pivot row has a single pivot bit
        for p in sorted(pivots, reverse=True):
            row = pivots[p]
            for b in list(_bits(row ^ (1 << p))):
                if b in pivots:
                    row ^= pivots[b]
            pivots[p] = row
        normal = {}
        for i, c in enumerate(codes):
            if i not in pivots:
                normal[c] = (c,)
                continue
            rest = list(_bits(pivots[i] ^ (1 << i)))
            if any(b in pivots for b in rest):
                raise AssertionError("reduction did not terminate in basis")
            normal[c] = tuple(codes[b] for b in rest)
        data = ([m for i, m in enumerate(mons) if i not in pivots], normal)
        self._deg_cache[d] = data
        return data

    def _normal(self, d, codes) -> frozenset:
        """Normal form of the sum of the degree-d monomials with these codes."""
        if not self.relations:
            return frozenset(codes)
        normal = self._degree_data(d)[1]
        out = set()
        for c in codes:
            out.symmetric_difference_update(normal[c])
        return frozenset(out)

    def basis(self, d):
        """The normal-form monomials of degree d, largest first."""
        if d > self.D:
            return []
        if not self.relations:
            return self._monomials_of_degree(d)
        return self._degree_data(d)[0]

    def dim(self, d):
        if d > self.D or self.relations:
            return len(self.basis(d))
        # a free ring counts the exponent vectors of degree d without listing
        # them: ways[k] is the number of degree-k monomials in the generators so far
        ways = [1] + [0] * d
        for g in self.degs:
            for k in range(g, d + 1):
                ways[k] += ways[k - g]
        return ways[d]

    # -- element constructors -------------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        return GradedClass(self, {0: _ONE})

    def monomial(self, expvec) -> "GradedClass":
        return self.from_monomials([expvec])

    def gen_class(self, name) -> "GradedClass":
        i = self.names.index(name)
        e = [0] * len(self.names)
        e[i] = 1
        return self.monomial(e)

    def from_monomials(self, expvecs) -> "GradedClass":
        """The sum of the given monomials (one listed twice cancels); those of
        degree above D vanish."""
        comps: dict[int, set] = {}
        for e in expvecs:
            e = tuple(e)
            if len(e) != len(self.names) or any(x < 0 for x in e):
                raise ValueError(f"{e} is not an exponent vector of {self.names}")
            d = self.degree(e)
            if d <= self.D:
                comps.setdefault(d, set()).symmetric_difference_update((self._code(e),))
        return GradedClass(self, {d: self._normal(d, c) for d, c in comps.items()})

    def monomial_string(self, expvec) -> str:
        parts = []
        for name, e in zip(self.names, expvec):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        rel = " and ".join(
            " + ".join(self.monomial_string(m) for m in sorted(r, reverse=True))
            for _, r in self.relations
        )
        gens = ", ".join(f"{n}(deg {d})" for n, d in zip(self.names, self.degs))
        return f"Ring(F2[{gens}]" + (f" / ({rel})" if rel else "") + f", D={self.D})"


class GradedClass:
    """Element of a truncated graded ring: degree -> frozenset of the codes of
    its normal-form monomials (see the module docstring)."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: Ring, comps: dict[int, frozenset]):
        self.ring = ring
        self.comps = {d: c for d, c in comps.items() if c}

    def component(self, d: int) -> frozenset:
        """The codes of the degree-d monomials; compare components of classes
        of one ring, or test them for emptiness."""
        return self.comps.get(d, frozenset())

    def is_zero(self) -> bool:
        return not self.comps

    def has_constant_term(self) -> bool:
        return 0 in self.comps

    def support_degrees(self):
        return sorted(self.comps)

    def lowest_positive_degree(self):
        pos = [d for d in self.comps if d > 0]
        return min(pos) if pos else None

    def __add__(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("classes live in different rings")
        out = dict(self.comps)
        for d, c in other.comps.items():
            out[d] = out[d] ^ c if d in out else c
        return GradedClass(self.ring, out)

    __sub__ = __add__   # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        if self.ring is not other.ring:
            raise RingMismatch("classes live in different rings")
        ring = self.ring
        sums: dict[int, set] = {}
        for d1, c1 in self.comps.items():
            for d2, c2 in other.comps.items():
                if d1 + d2 <= ring.D:
                    _add_products(sums.setdefault(d1 + d2, set()), c1, c2)
        return GradedClass(ring, {d: ring._normal(d, s) for d, s in sums.items()})

    def square(self) -> "GradedClass":
        # char 2: squaring is additive and doubles each monomial's code
        ring = self.ring
        return GradedClass(ring, {
            2 * d: ring._normal(2 * d, [2 * x for x in c])
            for d, c in self.comps.items() if 2 * d <= ring.D
        })

    def times_power(self, u: "GradedClass", n: int, lo: int = 0) -> "GradedClass":
        """self·u^n in degrees lo..D: the one power loop of the package.

        Over F2 the Frobenius gives (1+a)^(2^k) = 1 + a^(2^k), which is 1
        below degree 2^k·(lowest degree of a).  So a unit u = 1 + a has
        u^(2^k) = 1 in the ring truncated at D for the least k with
        2^k·(lowest degree of a) > D, and u^n = u^(n mod 2^k), negative n
        included: the series inverse is the nonnegative power u^(2^k - 1).
        Any other u needs n >= 0.

        u^n is the product of the factors u^(2^j) over the set bits j of n,
        multiplied in one at a time.  After each, the degrees below
        lo - (top degree of u)·(the exponent still to come) are dropped: the
        factors still to come cannot lift them to lo.
        """
        if self.ring is not u.ring:
            raise RingMismatch("classes live in different rings")
        D = self.ring.D
        if u.has_constant_term():
            low = u.lowest_positive_degree()
            n %= 2 ** (D // low).bit_length() if low else 1
        elif n < 0:
            raise ValueError("only units (constant term 1) have negative powers")
        top = max(u.comps, default=0)
        out = self.truncate(D, lo - top * n)
        while n:
            if n & 1:
                out = (out * u).truncate(D, lo - top * (n - 1))
            n >>= 1
            if n:
                u, top = u.square(), 2 * top
        return out

    def pow_int(self, n: int, lo: int = 0) -> "GradedClass":
        """self^n in degrees lo..D (see times_power)."""
        return self.ring.one().times_power(self, n, lo)

    def truncate(self, d_max: int, d_min: int = 0) -> "GradedClass":
        """The components of degrees d_min..d_max."""
        return GradedClass(self.ring, {d: c for d, c in self.comps.items()
                                       if d_min <= d <= d_max})

    def _exponent_columns(self, d: int) -> list[list[int]]:
        """For each generator, its exponent in each degree-d monomial, largest
        monomial first: the codes are sorted once and decoded a digit at a time."""
        codes = sorted(self.component(d), reverse=True)
        base = self.ring.D + 1
        return [[c // w % base for c in codes] for w in self.ring._weights]

    def monomials(self, d: int):
        """Exponent vectors of the degree-d component, largest first."""
        return list(zip(*self._exponent_columns(d)))

    def monomial_strings(self, d: int):
        """monomial_string of each monomial of degree d, largest first; each
        generator's distinct exponents are formatted once, as "*x" or "*x^e"."""
        powers = []
        for name, column in zip(self.ring.names, self._exponent_columns(d)):
            text = {e: "" if e == 0 else f"*{name}" if e == 1 else f"*{name}^{e}" for e in set(column)}
            powers.append([text[e] for e in column])
        return [s[1:] or "1" for s in map("".join, zip(*powers))]

    def to_dict(self) -> dict[str, list[str]]:
        return {str(d): self.monomial_strings(d) for d in self.support_degrees()}

    def __eq__(self, other):
        return (
            isinstance(other, GradedClass)
            and self.ring is other.ring
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.comps.items()))))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d in self.support_degrees():
            parts.extend(self.monomial_strings(d))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Standard presentations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def poly_ring(names: tuple[str, ...], D: int) -> Ring:
    """Free polynomial ring on degree-1 generators."""
    return Ring(names, (1,) * len(names), (), D)


@lru_cache(maxsize=None)
def center_ring(D: int) -> Ring:
    """F2[v], the cohomology of the order-2 group."""
    return poly_ring(("v",), D)


@lru_cache(maxsize=None)
def quaternion8_ring(D: int) -> Ring:
    """F2[x,y,e]/(xy + x^2 + y^2, x^2 y + x y^2) with |x|=|y|=1, |e|=4."""
    rels = (
        ((1, 1, 0), (2, 0, 0), (0, 2, 0)),
        ((2, 1, 0), (1, 2, 0)),
    )
    return Ring(("x", "y", "e"), (1, 1, 4), rels, D)


@lru_cache(maxsize=None)
def genq_ring(D: int) -> Ring:
    """F2[X,Y,E]/(XY, X^3 + Y^3) with |X|=|Y|=1, |E|=4 (order >= 16)."""
    rels = (
        ((1, 1, 0),),
        ((3, 0, 0), (0, 3, 0)),
    )
    return Ring(("X", "Y", "E"), (1, 1, 4), rels, D)


@lru_cache(maxsize=None)
def sl2_odd_ring(D: int) -> Ring:
    """F2[e] tensor F2[b]/(b^2) with |e|=4, |b|=3."""
    return Ring(("e", "b"), (4, 3), (((0, 2),),), D)


@lru_cache(maxsize=None)
def sl2_odd_class_ring(D: int) -> Ring:
    """F2[e] with |e|=4: the subalgebra of H*(SL(2,q)), q odd, generated by
    the Stiefel-Whitney classes, since w(pi) = (1+e)^r.  Free, so its
    classes need no normal forms."""
    return Ring(("e",), (4,), (), D)


@lru_cache(maxsize=None)
def dickson_ring(r: int, D: int) -> Ring:
    """Free ring on the r Dickson invariants, deg d_i = 2^r - 2^(r-i)."""
    names = tuple(f"d{i}" for i in range(1, r + 1))
    degs = tuple(2**r - 2 ** (r - i) for i in range(1, r + 1))
    return Ring(names, degs, (), D)


@lru_cache(maxsize=None)
def unipotent_ring(r: int, D: int) -> Ring:
    """F2[v1..vr], the cohomology of an elementary abelian group of rank r."""
    return poly_ring(tuple(f"v{i}" for i in range(1, r + 1)), D)


# ---------------------------------------------------------------------------
# Restriction maps
# ---------------------------------------------------------------------------

class RestrictionMap:
    """Graded ring homomorphism given by the image of every generator; the
    relations are verified to map to zero.  A map defined on a subalgebra
    only takes that subalgebra's own free ring, such as F2[e], as its source.
    """

    def __init__(self, src: Ring, dst: Ring, images: dict[str, GradedClass], name=""):
        self.src = src
        self.dst = dst
        self.images = dict(images)
        self.name = name
        if set(images) != set(src.names):
            raise ValueError(f"{name or 'map'} needs one image for each generator of "
                             f"{src.names}, not for {tuple(images)}")
        # images of the generators' powers, (generator index, exponent) -> class
        self._powers: dict[tuple[int, int], GradedClass] = {}
        for g, gd in zip(src.names, src.degs):
            if not all(d == gd for d in images[g].comps):
                raise RelationViolation(f"image of {g} is not homogeneous of degree {gd}")
        for rdeg, rel in src.relations:
            acc = dst.zero()
            for mon in rel:
                acc = acc + self._image_of_monomial(mon)
            if not acc.is_zero():
                raise RelationViolation(
                    f"relation of degree {rdeg} does not map to zero under {name or 'map'}"
                )

    def _image_of_monomial(self, expvec) -> GradedClass:
        out = None
        for i, e in enumerate(expvec):
            if e == 0:
                continue
            power = self._powers.get((i, e))
            if power is None:
                power = self._powers[i, e] = self.images[self.src.names[i]].pow_int(e)
            out = power if out is None else out * power
        return self.dst.one() if out is None else out

    def __call__(self, a: GradedClass) -> GradedClass:
        if a.ring is not self.src:
            raise RingMismatch("class is not in the source ring")
        # each degree of the image is summed in place: images are in normal
        # form, and so is their sum
        acc: dict[int, set] = {}
        for d in a.support_degrees():
            for mon in a.monomials(d):
                for e, c in self._image_of_monomial(mon).comps.items():
                    acc.setdefault(e, set()).symmetric_difference_update(c)
        return GradedClass(self.dst, {e: frozenset(c) for e, c in acc.items()})


@lru_cache(maxsize=None)
def restrict_q8_to_center(D: int) -> RestrictionMap:
    """H*(quaternion group) -> H*(center): x, y -> 0, e -> v^4."""
    src, dst = quaternion8_ring(D), center_ring(D)
    return RestrictionMap(
        src, dst,
        {"x": dst.zero(), "y": dst.zero(), "e": dst.monomial((4,))},
        name="Q8 -> Z",
    )


@lru_cache(maxsize=None)
def restrict_genq_to_q8(D: int) -> RestrictionMap:
    """H*(generalized quaternion) -> H*(Q8): X, Y -> 0, E -> e.

    Defined (and used) on the subalgebra generated by E; the degree-1 images
    are not pinned down by the ring structure alone.
    """
    src, dst = genq_ring(D), quaternion8_ring(D)
    return RestrictionMap(
        src, dst,
        {"X": dst.zero(), "Y": dst.zero(), "E": dst.gen_class("e")},
        name="Q2n -> Q8",
    )


@lru_cache(maxsize=None)
def restrict_sl2odd_to_center(D: int) -> RestrictionMap:
    """The characteristic-class subalgebra F2[e] of H*(SL(2,q)) into H*(center):
    e -> v^4.  Its source is the ring the odd-q total is computed in, so a
    class with b in it (from `sl2_odd_ring`) is a RingMismatch.
    """
    src, dst = sl2_odd_class_ring(D), center_ring(D)
    return RestrictionMap(src, dst, {"e": dst.monomial((4,))}, name="SL2 odd -> Z")


@lru_cache(maxsize=None)
def dickson_expansion(r: int, D: int) -> RestrictionMap:
    """Abstract Dickson generators -> their expansions in F2[v1..vr]."""
    src = dickson_ring(r, D)
    dst = unipotent_ring(r, D)
    ds = dickson(r, D)
    return RestrictionMap(
        src, dst, {f"d{i+1}": ds[i] for i in range(r)}, name="Dickson expansion"
    )


# ---------------------------------------------------------------------------
# Steenrod squares and Dickson invariants
# ---------------------------------------------------------------------------

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


def steenrod_sq(i: int, a: GradedClass) -> GradedClass:
    """Sq^i on a polynomial ring with degree-1 generators (total square
    Sq(v) = v + v^2 extended multiplicatively)."""
    ring = a.ring
    if ring.relations or any(d != 1 for d in ring.degs):
        raise UnsupportedRing("Steenrod squares implemented on free rings with degree-1 generators")
    if i < 0:
        raise ValueError("negative Steenrod index")
    terms = []
    nvars = len(ring.names)
    for d in a.support_degrees():
        if i > d:
            continue
        for mon in a.monomials(d):
            # distribute i among the variables; C(e_j, k_j) odd iff k_j submask of e_j
            def rec(j, rem, acc):
                if j == nvars - 1:
                    if rem <= mon[j] and binom_mod2(mon[j], rem):
                        terms.append(tuple(acc + [mon[j] + rem]))
                    return
                for k in range(min(rem, mon[j]) + 1):
                    if binom_mod2(mon[j], k):
                        rec(j + 1, rem - k, acc + [mon[j] + k])

            rec(0, i, [])
    return ring.from_monomials(terms)


def steenrod_total(a: GradedClass) -> GradedClass:
    out = a.ring.zero()
    for i in range(a.ring.D + 1):
        out = out + steenrod_sq(i, a)
    return out


@lru_cache(maxsize=None)
def dickson(r: int, D: int) -> tuple[GradedClass, ...]:
    """Dickson invariants d_1..d_r in F2[v1..vr], deg d_i = 2^r - 2^(r-i).

    P_n(X), the product of X + v over the span of v1..vn, is additive:
    P_n(X) = sum c_{n,i} X^(2^i), c_{n,n} = 1.  From P_0(X) = X and
    P_n(X) = P_{n-1}(X) P_{n-1}(X + vn), c_{n,i} = c_{n-1,i-1}^2 +
    c_{n-1,i} P_{n-1}(vn), and d_i = c_{r,r-i}.  Check: P_r vanishes at every
    nonzero linear form.  Monic of degree 2^r with those 2^r roots, it is the
    product, so P_r(X)/X at X = 1 gives 1 + d_1 + ... + d_r = prod (1 + l)
    over the nonzero forms l.
    """
    top = 2**r - 1
    if D < top:
        raise TruncationTooLow(f"need D >= {top}, got {D}")
    ring = unipotent_ring(r, max(D, top + 1))   # P_r(l) has degree 2^r
    vs = [ring.gen_class(name) for name in ring.names]

    def at(cs, x):   # P(x) = sum of c_i x^(2^i)
        return sum((c * x.pow_int(2**i) for i, c in enumerate(cs)), ring.zero())

    zero = [ring.zero()]
    cs = [ring.one()]
    for v in vs:
        pv = at(cs, v)
        cs = [a.square() + b * pv for a, b in zip(zero + cs, cs + zero)]
    for mask in range(1, 2**r):
        if not at(cs, sum((vs[j] for j in _bits(mask)), ring.zero())).is_zero():
            raise AssertionError(f"P_{r} does not vanish at the linear form of mask {mask}")
    out = unipotent_ring(r, D)
    return tuple(out.from_monomials(c.monomials(d))
                 for c, d in zip(cs[r - 1::-1], dickson_ring(r, D).degs))
