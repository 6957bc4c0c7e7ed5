import random
from itertools import product

import pytest

from sl2swc.cohomology import (
    InhomogeneousRelation,
    RestrictionMap,
    Ring,
    RingMismatch,
    TruncationTooLow,
    UnsupportedRing,
    center_ring,
    dickson,
    dickson_expansion,
    dickson_ring,
    genq_ring,
    poly_ring,
    quaternion8_ring,
    restrict_genq_to_q8,
    restrict_q8_to_center,
    restrict_sl2odd_to_center,
    sl2_odd_class_ring,
    sl2_odd_ring,
    steenrod_sq,
    steenrod_total,
    unipotent_ring,
)


def test_q8_graded_dims():
    R = quaternion8_ring(12)
    assert [R.dim(d) for d in range(13)] == [1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1]


def test_center_dims():
    R = center_ring(5)
    assert [R.dim(d) for d in range(6)] == [1] * 6


def test_sl2odd_dims():
    R = sl2_odd_ring(8)
    assert [R.dim(d) for d in range(9)] == [1, 0, 0, 1, 1, 0, 0, 1, 1]


def test_genq_dims():
    # same 4-periodic Poincare series as the order-8 quaternion ring
    R = genq_ring(8)
    assert [R.dim(d) for d in range(9)] == [1, 2, 2, 1, 1, 2, 2, 1, 1]
    X, Y = R.gen_class("X"), R.gen_class("Y")
    assert (X * Y).is_zero()
    assert X.pow_int(3) == Y.pow_int(3)


def test_q8_relations():
    R = quaternion8_ring(8)
    x, y = R.gen_class("x"), R.gen_class("y")
    assert (x * x * x).is_zero()
    assert (y * y * y).is_zero()
    assert x * y == x * x + y * y
    assert ((x + y) * (x + y) * (x + y)).is_zero()
    assert x * x * y == x * y * y


def test_free_ring_product():
    R = center_ring(8)
    v = R.gen_class("v")
    assert v.pow_int(2) * v.pow_int(3) == v.pow_int(5)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        center_ring(4).gen_class("v") * center_ring(5).gen_class("v")
    # also when the exponent reduces to 0, so no product is taken
    with pytest.raises(RingMismatch):
        center_ring(4).one().times_power(center_ring(5).one() + center_ring(5).gen_class("v"), 8)


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InhomogeneousRelation):
        Ring(("a", "b"), (1, 2), (((1, 0), (0, 1)),), 6)


def test_monomial_codes_need_positive_degrees_and_exponents():
    # a monomial is coded by its exponents as digits below D + 1
    with pytest.raises(ValueError):
        Ring(("a", "b"), (1, 0), (), 6)
    R = poly_ring(("a", "b"), 6)
    for bad in ((1, -1), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            R.monomial(bad)
    assert R.monomial((7, 0)).is_zero()
    assert (R.monomial((6, 0)) * R.gen_class("b")).is_zero()
    assert (R.monomial((3, 0)) * R.monomial((0, 3))).monomials(6) == [(3, 3)]


def test_truncation_drops_high_degrees():
    R = center_ring(4)
    v = R.gen_class("v")
    assert v.pow_int(5).is_zero()


def test_e_multiplication_is_bijective():
    R = quaternion8_ring(12)
    e = R.gen_class("e")
    for d in range(0, 9):
        images = []
        for mon in R.basis(d):
            img = R.monomial(mon) * e
            images.append(img.component(d + 4))
        # distinct nonzero images spanning the target: ranks match
        assert len(set(images)) == len(images)
        assert all(images)
        assert len(images) == R.dim(d + 4)


def test_restriction_maps():
    D = 16
    q8 = quaternion8_ring(D)
    m = restrict_q8_to_center(D)
    assert m(q8.gen_class("e")) == center_ring(D).monomial((4,))
    assert m(q8.gen_class("e").pow_int(2)) == center_ring(D).monomial((8,))
    assert m(q8.gen_class("x")).is_zero()
    mg = restrict_genq_to_q8(D)
    assert mg(genq_ring(D).gen_class("E").pow_int(3)) == q8.gen_class("e").pow_int(3)
    ms = restrict_sl2odd_to_center(D)
    assert ms(sl2_odd_class_ring(D).gen_class("e")) == center_ring(D).monomial((4,))
    with pytest.raises(RingMismatch):
        ms(sl2_odd_ring(D).gen_class("b"))


def test_restriction_needs_an_image_of_every_generator():
    D = 8
    dst = center_ring(D)
    with pytest.raises(ValueError, match="one image for each generator"):
        RestrictionMap(sl2_odd_ring(D), dst, {"e": dst.monomial((4,))})


def test_restriction_rejects_relation_violation():
    from sl2swc.cohomology import RelationViolation

    D = 8
    src = quaternion8_ring(D)
    dst = center_ring(D)
    v = dst.gen_class("v")
    with pytest.raises(RelationViolation):
        RestrictionMap(src, dst, {"x": v, "y": dst.zero(), "e": dst.monomial((4,))})


def test_restriction_maps_preserve_products():
    D = 12
    rng = random.Random(42)
    q8 = quaternion8_ring(D)
    m = restrict_q8_to_center(D)

    def rand_cls():
        out = q8.zero()
        for _ in range(3):
            d = rng.randrange(0, 9)
            basis = q8.basis(d)
            if basis:
                out = out + q8.monomial(basis[rng.randrange(len(basis))])
        return out

    for _ in range(200):
        a, b = rand_cls(), rand_cls()
        assert m(a * b) == m(a) * m(b)


# ---------------------------------------------------------------------------
# Steenrod squares
# ---------------------------------------------------------------------------

def test_sq_basics():
    P = poly_ring(("v1", "v2"), 10)
    v1, v2 = P.gen_class("v1"), P.gen_class("v2")
    assert steenrod_sq(1, v1) == v1.pow_int(2)
    assert steenrod_sq(1, v1 * v2) == v1.pow_int(2) * v2 + v1 * v2.pow_int(2)
    assert steenrod_sq(0, v1.pow_int(3)) == v1.pow_int(3)
    # vanishing above the degree, top square
    assert steenrod_sq(4, v1.pow_int(3)).is_zero()
    assert steenrod_sq(3, v1.pow_int(3)) == v1.pow_int(6)


def test_sq_rejects_quotient_rings():
    with pytest.raises(UnsupportedRing):
        steenrod_sq(1, quaternion8_ring(8).gen_class("x"))


def test_sq_total_multiplicative():
    rng = random.Random(42)
    P = poly_ring(("v1", "v2", "v3"), 12)

    def rand_cls():
        out = P.zero()
        for _ in range(3):
            e = tuple(rng.randrange(0, 3) for _ in range(3))
            out = out + P.monomial(e)
        return out

    for _ in range(200):
        a, b = rand_cls(), rand_cls()
        assert steenrod_total(a * b) == steenrod_total(a) * steenrod_total(b)


# ---------------------------------------------------------------------------
# Dickson invariants
# ---------------------------------------------------------------------------

def test_dickson_rank1():
    d1, = dickson(1, 4)
    assert d1 == poly_ring(("v1",), 4).gen_class("v1")


def test_dickson_rank2_display():
    d1, d2 = dickson(2, 8)
    P = unipotent_ring(2, 8)
    v1, v2 = P.gen_class("v1"), P.gen_class("v2")
    assert d1 == v1 * v1 + v1 * v2 + v2 * v2
    assert d2 == v1 * v2 * (v1 + v2)


def test_dickson_degrees():
    for r in (1, 2, 3):
        ds = dickson(r, 2**r - 1)
        assert [min(d.comps) for d in ds] == [2**r - 2 ** (r - i) for i in range(1, r + 1)]


def test_dickson_truncation_too_low():
    with pytest.raises(TruncationTooLow):
        dickson(3, 5)


def _gl_matrices(r):
    """All invertible r x r matrices over F2."""
    def rank(mat):
        rows = [int("".join(map(str, row)), 2) for row in mat]
        rk = 0
        for col in range(r - 1, -1, -1):
            piv = next((i for i in range(rk, r) if rows[i] >> col & 1), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            for i in range(r):
                if i != rk and rows[i] >> col & 1:
                    rows[i] ^= rows[rk]
            rk += 1
        return rk

    for entries in product((0, 1), repeat=r * r):
        mat = [entries[i * r:(i + 1) * r] for i in range(r)]
        if rank(mat) == r:
            yield mat


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dickson_gl_invariance(r):
    D = 2**r - 1
    P = unipotent_ring(r, D)
    gens = [P.gen_class(f"v{i+1}") for i in range(r)]
    ds = dickson(r, D)
    for mat in _gl_matrices(r):
        images = {}
        for i in range(r):
            img = P.zero()
            for j in range(r):
                if mat[i][j]:
                    img = img + gens[j]
            images[f"v{i+1}"] = img
        sub = RestrictionMap(P, P, images, name="substitution")
        for d in ds:
            assert sub(d) == d


def test_dickson_expansion_map():
    r, D = 2, 12
    exp = dickson_expansion(r, D)
    A = dickson_ring(r, D)
    ds = dickson(r, D)
    assert exp(A.gen_class("d1")) == ds[0]
    assert exp(A.gen_class("d1") * A.gen_class("d2")) == ds[0] * ds[1]


def _series_inverse(u):
    """The inverse of a unit u, degree by degree: w_0 = 1 and w_d is the sum
    of u_i w_(d-i) over 0 < i <= d."""
    ring = u.ring
    w = ring.one()
    for d in range(1, ring.D + 1):
        for i in range(1, d + 1):
            w = w + u.truncate(i, i) * w.truncate(d - i, d - i)
    return w


def test_series_inverse():
    S = sl2_odd_ring(20)
    u = S.one() + S.gen_class("e")
    w = _series_inverse(u)
    assert u * w == S.one()
    # all-ones series
    assert all(w.component(4 * i) for i in range(6))
    assert u.pow_int(-1) == w
    assert u.pow_int(-3) == w * w * w


def test_negative_power_needs_a_unit():
    R = quaternion8_ring(12)
    x, e = R.gen_class("x"), R.gen_class("e")
    for a in (x, x + e, R.zero()):
        with pytest.raises(ValueError, match="units"):
            a.pow_int(-1)
        with pytest.raises(ValueError, match="units"):
            R.one().times_power(a, -2, 3)
    assert (x + e).pow_int(0) == R.one()


# ---------------------------------------------------------------------------
# Products against a reference on exponent tuples
# ---------------------------------------------------------------------------

def _ref_deg(ring, mon):
    return sum(e * g for e, g in zip(mon, ring.degs))


def _ref(cls):
    """A class of a free ring as the set of its monomials' exponent tuples."""
    return {mon for d in cls.support_degrees() for mon in cls.monomials(d)}


def _ref_mul(ring, a, b):
    out = set()
    for m1 in a:
        for m2 in b:
            m = tuple(x + y for x, y in zip(m1, m2))
            if _ref_deg(ring, m) <= ring.D:
                out ^= {m}
    return out


def _ref_pow(ring, a, n):
    out = {(0,) * len(ring.names)}
    for _ in range(n):
        out = _ref_mul(ring, out, a)
    return out


def _random_monomials(ring, rng, n):
    """n random monomials of degree <= D, repeats allowed (a pair cancels)."""
    out = []
    while len(out) < n:
        mon = tuple(rng.randrange(0, ring.D // g + 1) for g in ring.degs)
        if _ref_deg(ring, mon) <= ring.D:
            out.append(mon)
    return out


FREE_RINGS = {
    "poly1": lambda: poly_ring(("a",), 16),
    "poly2": lambda: poly_ring(("a", "b"), 10),
    "poly3": lambda: poly_ring(("a", "b", "c"), 7),
    "dickson2": lambda: dickson_ring(2, 24),
    "center": lambda: center_ring(20),
}


@pytest.mark.parametrize("name", sorted(FREE_RINGS))
def test_free_ring_products_match_reference(name):
    ring = FREE_RINGS[name]()
    rng = random.Random(name)
    one = {(0,) * len(ring.names)}
    for _ in range(40):
        ma, mb = _random_monomials(ring, rng, 5), _random_monomials(ring, rng, 4)
        a, b = ring.from_monomials(ma), ring.from_monomials(mb)
        ra, rb = _ref(a), _ref(b)
        assert ra == {m for m in ma if ma.count(m) % 2}
        assert _ref(a * b) == _ref_mul(ring, ra, rb)
        assert _ref(a.square()) == _ref_mul(ring, ra, ra)
        n, lo = rng.randrange(0, 6), rng.randrange(0, ring.D + 2)
        assert _ref(a.pow_int(n)) == _ref_pow(ring, ra, n)
        assert _ref(a.pow_int(n, lo)) == {m for m in _ref_pow(ring, ra, n)
                                          if _ref_deg(ring, m) >= lo}
        # a unit 1 + x; its inverse is the geometric series in x, which is
        # finite because x^k vanishes for k > D
        x = ra - one
        u = ring.from_monomials(list(one | x))
        inv = set()
        for k in range(ring.D + 1):
            inv ^= _ref_pow(ring, x, k)
        assert _ref(u.pow_int(-1)) == inv
        assert _ref_mul(ring, _ref(u), inv) == one
        assert _ref(u.pow_int(-n)) == _ref_pow(ring, inv, n)
        assert _ref(a.times_power(u, -n, lo)) == {
            m for m in _ref_mul(ring, ra, _ref_pow(ring, inv, n)) if _ref_deg(ring, m) >= lo}


PRESENTED_RINGS = {
    "sl2odd": lambda: sl2_odd_ring(24),
    "Q8": lambda: quaternion8_ring(12),
    "genq": lambda: genq_ring(12),
}


@pytest.mark.parametrize("name", sorted(PRESENTED_RINGS))
def test_presented_ring_axioms(name):
    ring = PRESENTED_RINGS[name]()
    rng = random.Random(name)
    for _ in range(40):
        a, b, c = (ring.from_monomials(_random_monomials(ring, rng, 4)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a.square() == a * a
        assert a.pow_int(3) == a * a * a
        # every component is written in the degree's basis
        for d in (a * b).support_degrees():
            assert set((a * b).monomials(d)) <= set(ring.basis(d))


# ---------------------------------------------------------------------------
# Faster kernels against their references
# ---------------------------------------------------------------------------

def _restriction_by_sums(f, a):
    """f(a) as the sum of the images of a's monomials, one class sum at a
    time: the reference for RestrictionMap.__call__'s in-place sums."""
    out = f.dst.zero()
    for d in a.support_degrees():
        for mon in a.monomials(d):
            out = out + f._image_of_monomial(mon)
    return out


@pytest.mark.parametrize("r, D", [(3, 24), (4, 64)])
def test_restriction_matches_the_sum_of_images_on_random_classes(r, D):
    f = dickson_expansion(r, D)
    rng = random.Random(f"{r}-{D}")
    for n in (0, 1, 3, 8, 20):
        a = f.src.from_monomials(_random_monomials(f.src, rng, n))
        assert f(a) == _restriction_by_sums(f, a)


def test_restriction_matches_the_sum_of_images_on_sl2_16_totals():
    from sl2swc.characters import char_table, oir_labels, rep_from_oir_blocks
    from sl2swc.groups import build_sl2
    from sl2swc.swc import _power, unipotent_multiplicities

    t = char_table(build_sl2(16))
    f = dickson_expansion(4, 64)
    for lab, _ in oir_labels(t):
        _, m = unipotent_multiplicities(rep_from_oir_blocks(t, {lab: 1}))
        total = _power(f.src, m)
        assert f(total) == _restriction_by_sums(f, total), lab


DECODED_RINGS = {**FREE_RINGS, **PRESENTED_RINGS, "center_1e9": lambda: center_ring(10**9)}


@pytest.mark.parametrize("name", sorted(DECODED_RINGS))
def test_monomials_decode_the_codes_of_each_degree(name):
    ring = DECODED_RINGS[name]()
    rng = random.Random(name)
    for _ in range(20):
        a = ring.from_monomials(_random_monomials(ring, rng, 6))
        for d in a.support_degrees():
            assert [ring._code(m) for m in a.monomials(d)] == sorted(a.component(d), reverse=True)


@pytest.mark.parametrize("name", sorted({**FREE_RINGS, **PRESENTED_RINGS}))
def test_monomial_strings_format_each_code(name):
    ring = {**FREE_RINGS, **PRESENTED_RINGS}[name]()
    rng = random.Random(name)
    for _ in range(20):
        a = ring.from_monomials(_random_monomials(ring, rng, 6))
        for d in a.support_degrees():
            want = [ring.monomial_string(m) for m in a.monomials(d)]
            assert a.monomial_strings(d) == want


def test_monomial_strings_of_a_ring_truncated_at_a_huge_degree():
    # formatting keeps no state that grows with D
    ring = center_ring(10**9)
    a = ring.from_monomials([(0,), (7,), (10**9,)])
    assert a.to_dict() == {"0": ["1"], "7": ["v^7"], str(10**9): [f"v^{10**9}"]}


def test_monomial_strings_of_every_monomial_of_a_two_generator_ring():
    ring = poly_ring(("a", "b"), 100)   # 5151 monomials
    a = ring.from_monomials((i, j) for i in range(101) for j in range(101 - i))
    assert len(a.comps) == 101 and ring.dim(100) == 101
    for d in a.support_degrees():
        want = [ring.monomial_string(m) for m in a.monomials(d)]
        assert a.monomial_strings(d) == want
