"""Independent brute-force verifiers: characteristic classes computed purely
from restriction to small detecting subgroups plus multiplicativity over
linear characters, and suites checking every closed formula against them.

Nothing here reuses the closed-form route: classes come from character inner
products over the center, a quaternion subgroup of order 8, or the
unitriangular subgroup, then products of powers of (1 + w1) factors.  Over
the center that product is a Lucas binomial series.  Over Q8 it is a closed
form, since every degree-1 class cubes to zero in H*(Q8) (quaternion_class).
Over the unitriangular subgroup it is multiplied out by a packed kernel, one
bit per monomial of F2[v1..vr] in a Python int (linear_unit_product).  Each
oracle reads pi only at the classes of the subgroup it restricts to, where pi
takes rational integer values: the Q8 multiplicities are integer inner
products of pi's values at Q8's five classes with Q8's own rational table.

What does not depend on pi is built once and kept.  Per embedding, on its
first use (_q8_frame): the check of its relations, the parent index of each
Q8 class representative, Q8's rational table rows weighted by class size at
the inverse classes, and the place of the order-2 class.  Per group: the
central involution, and for even q the unitriangular elements, the signs
(-1)^Tr(ax) and the linear forms of w1 (_unipotent_frame).  What stays per
case is what reads pi: its integer values at those classes (each read once,
see VirtualRep.int_at), the small integer products against the frames, and
the divisibility and balance checks.

Each class a suite compares is a pure function of a few integers read from
pi, and is kept per those integers: the center class per (b, D), the Q8 class
per its profile and D (quaternion_class) and its image in H*(Z) per class,
the unipotent product per (r, D, form and multiplicity pairs), and each Wu
check per (restricted class, i, j); on the closed-form side,
swc.total_swc_restricted keeps the compared image per (ring, n, D).  A case
whose integers an earlier case had pays only for reading them.  That reading
and every check on it still run for each case (divisibility, degree and
central balance, torus invariance, and the comparison of the two sides), so
a suite checks the same facts as without the caches.  clear_caches empties
them.

The suites record every failing case, a Mismatch with its diff and any other
exception with its type and message, and give each failure an `expr`:
pi's multiplicities as an `swc --rep` expression that replays the case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import ord2
from .characters import (
    VirtualRep,
    char_table,
    oir_labels,
    random_genuine_rep,
    random_orthogonal_rep,
    rep_from_oir_blocks,
)
from .cohomology import (
    GradedClass,
    binom_mod2,
    center_ring,
    quaternion8_ring,
    restrict_q8_to_center,
    steenrod_sq,
    unipotent_ring,
)
from .groups import Group, Subgroup, build_sl2, conjugacy, find_quaternion
from .swc import (
    TotalSWC,
    WrongParity,
    _center_image,
    _expanded_image,
    minus_one_class,
    quaternionic_multiplicity,
    total_swc_restricted,
    unipotent_multiplicities,
)

DEFAULT_SEED = 42


class BadEmbedding(Exception):
    """Claimed quaternion embedding fails the defining relations."""


class Mismatch(Exception):
    """Two routes to the same class disagree; carries a structured diff."""

    def __init__(self, context, degree, lhs, rhs):
        self.context = context
        self.degree = degree
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"{context}: first difference in degree {degree}: {lhs} != {rhs}")


@dataclass
class RestrictionProfile:
    tag: str
    mults: tuple[int, ...]


@lru_cache(maxsize=None)
def central_involution(G: Group) -> int:
    """Index of the unique central element of order 2, the representative of
    the one class of size 1 and order 2; found once per group."""
    conj = conjugacy(G)
    found = [r for r, size, o in zip(conj.reps, conj.sizes, conj.orders)
             if size == 1 and o == 2]
    if len(found) != 1:
        if G.kind == "sl2" and G.field.p == 2:
            raise WrongParity("SL(2,q) with even q has no central involution")
        raise ValueError(f"{G.name} has {len(found)} central involutions")
    return found[0]


# ---------------------------------------------------------------------------
# The three restriction oracles
# ---------------------------------------------------------------------------

def _require_genuine(pi: VirtualRep) -> None:
    if not pi.is_genuine():
        raise ValueError("the restriction oracles apply to genuine representations")


def swc_from_center(pi: VirtualRep, D: int) -> TotalSWC:
    """(1+v)^b with b = (deg - chi(z))/2 over the central order-2 subgroup."""
    _require_genuine(pi)
    G = pi.table.group
    z = central_involution(G)
    deg = pi.degree()
    chi_z = pi.int_at(pi.table.conj.class_of[z])
    b = (deg - chi_z) // 2
    if (deg - chi_z) % 2 or b < 0:
        raise AssertionError(f"deg - chi(z) = {deg - chi_z} is not a nonnegative even number")
    return TotalSWC(center_class(b, min(D, deg)), "center")


@lru_cache(maxsize=None)
def center_class(b: int, D: int) -> GradedClass:
    """(1+v)^b in H*(Z) = F2[v] truncated at D: the Lucas series, the sum of
    the v^d with C(b, d) odd."""
    return center_ring(D).from_monomials([(d,) for d in range(D + 1) if binom_mod2(b, d)])


def _check_embedding(emb: Subgroup):
    if emb.gens is None or len(emb.gens) != 2:
        raise BadEmbedding("embedding must carry generator indices (x, y)")
    G = emb.parent
    x, y = emb.gens
    x2, y2, yx = G.mul_many([x, y, y], [x, y, x]).tolist()
    x4, yxy = G.mul_many([x2, yx], [x2, G.inv(y)]).tolist()
    if x4 != G.identity or x2 == G.identity:
        raise BadEmbedding("x does not have order 4")
    if y2 != x2:
        raise BadEmbedding("y^2 != x^2")
    if yxy != G.inv(x):
        raise BadEmbedding("y x y^-1 != x^-1")
    if len(emb.group) != 8:
        raise BadEmbedding("embedding does not span 8 elements")


class _Q8Frame(NamedTuple):
    """What quaternion_profile reads of an embedding, whatever pi is.

    `at` holds the parent index of each Q8 class representative, `rows` the
    row |C| psi(C^-1) over Q8's classes C of each of Q8's characters psi, in
    the order trivial, the order-2 characters labeled (1, -1), (-1, 1) and
    (-1, -1) by their values at (x, y), and the 2-dimensional one; `z` is the
    position of the class of x^2 = -1, Q8's only element of order 2."""

    at: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    z: int


@lru_cache(maxsize=None)
def _q8_frame(emb: Subgroup) -> _Q8Frame:
    """The frame of the embedding, built once it has passed _check_embedding:
    a bad embedding raises, which leaves nothing cached, so it is refused on
    every call."""
    _check_embedding(emb)
    at = emb.indices  # at[i] is the index in G of element i of K
    qt = char_table(emb.group)
    conj = qt.conj
    cx, cy = (conj.class_of[at.index(g)] for g in emb.gens)
    by_key = {}
    for i, chi in enumerate(qt.chars):
        key = "rho" if qt.degrees[i] == 2 else (chi.int_at(cx), chi.int_at(cy))
        by_key[key] = [size * chi.int_at(conj.inverse_class(c))
                       for c, size in enumerate(conj.sizes)]
    return _Q8Frame(
        tuple(at[r] for r in conj.reps),
        tuple(tuple(by_key[k]) for k in ((1, 1), (1, -1), (-1, 1), (-1, -1), "rho")),
        conj.orders.index(2))


def quaternion_profile(pi: VirtualRep, emb: Subgroup) -> RestrictionProfile:
    """(m0, m1, m2, m3, m4): multiplicities of the trivial, the three order-2
    characters labeled by the generators, and the 4-dimensional block, in the
    restriction along the embedding.

    Every element of Q8 has order at most 4 and is conjugate to its inverse
    inside Q8, so any character takes rational integer values on it.  The
    restriction is therefore five integers, pi at the class of each Q8 class
    representative, and each multiplicity is the integer sum
    |C| res(C) psi(C^-1) / 8 against Q8's own rational table, whose rows
    weighted by class size the embedding's frame holds (_q8_frame)."""
    frame = _q8_frame(emb)
    G = pi.table.group
    if emb.parent is not G:
        raise ValueError(f"{emb.group.name} is not contained in {G.name}")
    class_of = pi.table.conj.class_of
    res = [pi.int_at(class_of[g]) for g in frame.at]
    mults = []
    for row in frame.rows:
        tot = sum(w * v for w, v in zip(row, res))
        if tot % 8:
            raise AssertionError(f"inner product sum {tot} is not divisible by 8")
        mults.append(tot // 8)
    m0, m1, m2, m3, k = mults
    if k % 2:
        raise BadEmbedding(f"2-dimensional constituent multiplicity {k} is odd "
                           "(input not orthogonal)")
    m4 = k // 2
    if m0 + m1 + m2 + m3 + 4 * m4 != pi.degree():
        raise AssertionError("degree balance failed")
    if m0 + m1 + m2 + m3 - 4 * m4 != res[frame.z]:
        raise AssertionError("central balance failed")
    return RestrictionProfile("Q8", (m0, m1, m2, m3, m4))


@lru_cache(maxsize=None)
def _quaternion_low_part(m1: int, m2: int, m3: int) -> tuple[tuple[int, int, int], ...]:
    """The normal-form monomials of (1+x)^m1 (1+y)^m2 (1+x+y)^m3 in H*(Q8),
    which lies in degrees <= 3: x^3 = x(xy + y^2) = x^2 y + x y^2 = 0, and
    likewise y^3 = (x+y)^3 = 0 (Adem-Milgram, ch. IV).  So for a degree-1
    class l, (1+l)^m = 1 + m l + C(m,2) l^2 mod 2."""
    ring = quaternion8_ring(3)
    x, y = ring.gen_class("x"), ring.gen_class("y")
    out = ring.one()
    for ell, m in ((x, m1), (y, m2), (x + y, m3)):
        unit = ring.one()
        if m & 1:
            unit = unit + ell
        if binom_mod2(m, 2):
            unit = unit + ell.square()
        out = out * unit
    return tuple(mon for d in out.support_degrees() for mon in out.monomials(d))


def quaternion_class(m1: int, m2: int, m3: int, m4: int, D: int) -> GradedClass:
    """(1+x)^m1 (1+y)^m2 (1+x+y)^m3 (1+e)^m4 in H*(Q8) truncated at D, in
    closed form: the degree-1 units' product (see _quaternion_low_part, which
    depends on each m mod 4 only) times the Lucas series (1+e)^m4, the sum of
    the e^k with C(m4, k) odd.  Only k <= D/4 < 2^L, L = (D // 4).bit_length(),
    is read, and C(m4, k) = C(m4 mod 2^L, k) mod 2 there (Lucas), so the class
    is kept per (m1, m2, m3 mod 4, m4 mod 2^L, D).

    H*(Q8) = F2[x,y]/(r1, r2) tensor F2[e], so a normal-form monomial of x, y
    times e^k is in normal form, and the class is written as its codes
    a(D+1)^2 + b(D+1) + k directly."""
    return _quaternion_class(m1 % 4, m2 % 4, m3 % 4, m4 % 2 ** (D // 4).bit_length(), D)


@lru_cache(maxsize=None)
def _quaternion_class(m1: int, m2: int, m3: int, m4: int, D: int) -> GradedClass:
    low = _quaternion_low_part(m1, m2, m3)
    ring = quaternion8_ring(D)
    B = D + 1
    comps: dict[int, list[int]] = {}
    for k in range(D // 4 + 1):
        if binom_mod2(m4, k):
            for a, b, _ in low:
                if a + b + 4 * k <= D:
                    comps.setdefault(a + b + 4 * k, []).append((a * B + b) * B + k)
    return GradedClass(ring, {d: frozenset(c) for d, c in comps.items()})


@lru_cache(maxsize=None)
def _q8_class_at_center(cls: GradedClass) -> GradedClass:
    """The restriction of a class of H*(Q8) truncated at D to H*(Z)."""
    return restrict_q8_to_center(cls.ring.D)(cls)


def swc_from_quaternion(pi: VirtualRep, emb: Subgroup, D: int) -> TotalSWC:
    """(1+x)^m1 (1+y)^m2 (1+x+y)^m3 (1+e)^m4 from the restriction profile,
    multiplied out in closed form (see quaternion_class)."""
    _require_genuine(pi)
    _, m1, m2, m3, m4 = quaternion_profile(pi, emb).mults
    return TotalSWC(quaternion_class(m1, m2, m3, m4, min(D, pi.degree())), "quaternion8")


class _UnipotentFrame(NamedTuple):
    """What the unitriangular oracle reads of SL(2,q), q = 2^r, whatever pi
    is: the index of each (1, x, 0, 1), the signs (-1)^Tr(ax) as Python ints
    (the character values may pass int64), and for each a != 0 the basis
    indices i with Tr(a t^i) = 1, the linear form that w1 of the character a
    restricts to."""

    unip: tuple[int, ...]
    signs: tuple[tuple[int, ...], ...]
    forms: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _unipotent_frame(G: Group) -> _UnipotentFrame:
    F = G.field
    unip = G.locate([G.arith.code(1, x, 0, 1) for x in range(G.q)])  # (1, x, 0, 1)
    # t^i has canonical rank 2^i; pair against the basis via the trace
    return _UnipotentFrame(
        tuple(unip.tolist()),
        tuple(map(tuple, (1 - 2 * F.trace[F.mul]).tolist())),
        tuple(tuple(i for i in range(F.r) if F.trace[F.mul[a, 2**i]]) for a in range(1, F.q)))


def unipotent_character_multiplicities(pi: VirtualRep) -> list[int]:
    """Multiplicity of each additive character (indexed by a in F_q) in the
    restriction to the unitriangular subgroup; exact integer arithmetic."""
    G = pi.table.group
    if G.kind != "sl2" or G.field.p != 2:
        raise WrongParity(f"the unitriangular oracle needs SL(2,q) with q even, not {G.name}")
    q = G.q
    frame = _unipotent_frame(G)
    class_of = pi.table.conj.class_of
    chi_at = [pi.int_at(class_of[i]) for i in frame.unip]
    out = []
    for signs in frame.signs:
        tot = sum(c * s for c, s in zip(chi_at, signs))
        if tot % q:
            raise AssertionError(f"character sum {tot} is not divisible by q={q}")
        out.append(tot // q)
    if sum(out) != pi.degree():
        raise AssertionError("multiplicities do not add up to the degree")
    return out


def swc_from_unipotent(pi: VirtualRep, D: int) -> TotalSWC:
    """Product over the additive characters of (1 + w1)^multiplicity, with w1
    read off through the trace pairing against the polynomial basis, and
    multiplied out by the packed kernel (see linear_unit_product)."""
    _require_genuine(pi)
    mults = unipotent_character_multiplicities(pi)
    if min(mults) < 0:
        raise AssertionError(f"negative additive character multiplicity in {mults}")
    forms = _unipotent_frame(pi.table.group).forms
    cls = unipotent_class(pi.table.group.field.r, min(D, pi.degree()),
                          tuple(zip(forms, mults[1:])))
    return TotalSWC(cls, "unipotent")


@lru_cache(maxsize=None)
def unipotent_class(r: int, D: int, factors: tuple) -> GradedClass:
    """linear_unit_product(r, D, factors) for a tuple of (form, multiplicity)
    pairs, each form a tuple: the unipotent product of one restriction profile."""
    return linear_unit_product(r, D, factors)


# ---------------------------------------------------------------------------
# The packed kernel: products of powers of 1 + (linear form) over F2
# ---------------------------------------------------------------------------

def _stack(parts: list[int], width: int) -> int:
    """The sum of parts[e] << (e·width), combined in pairs so that each
    round costs one pass over the result."""
    while len(parts) > 1:
        if len(parts) % 2:
            parts.append(0)
        parts = [a | b << width for a, b in zip(parts[::2], parts[1::2])]
        width *= 2
    return parts[0]


@lru_cache(maxsize=4)
def _degree_masks(r: int, d_max: int) -> tuple[int, ...]:
    """For each j with 2^j <= d_max, the packed set of the exponent vectors in
    r variables of total degree <= d_max - 2^j (slot base d_max + 1).

    A vector of degree <= k over the digits 1..n is a digit e followed by one
    of degree <= k - e over 1..n-1, so the masks of n digits are the masks of
    n - 1 digits stacked in slots; no vector is listed."""
    B = d_max + 1
    sub, width = [1] * B, 1   # zero digits: the empty vector, degree 0 <= k
    for _ in range(r - 1):
        sub = [_stack(sub[k::-1], width) for k in range(B)]
        width *= B
    return tuple(_stack(sub[d_max - 2**j::-1], width) for j in range(d_max.bit_length()))


def linear_unit_product(r: int, d_max: int, factors) -> GradedClass:
    """The product of (1 + sum of v_(i+1) over i in S)^m over the (S, m) in
    factors, S a set of indices in 0..r-1 and m >= 0, in F2[v1..vr] in
    degrees <= d_max, as a class of unipotent_ring(r, max(d_max, 2^r - 1)).

    A class is one Python int with a bit per exponent vector, at the ring's
    own code sum e_i·B^(r-i) with slot base B = d_max + 1 (Kronecker
    substitution; Harvey, J. Symb. Comp. 44, 2009), so multiplying by the
    monomial v_i^k is a left shift by k·B^(r-i).  By the Frobenius,
    (1 + l)^m is the product of the factors 1 + l^(2^j) = 1 + sum v_i^(2^j)
    over the set bits j of m, and those with 2^j > d_max are 1.  Each factor
    adds to x the shifted copies of x & M, M the vectors of degree
    <= d_max - 2^j: no exponent then passes d_max, so no slot carries into
    the next, and nothing above degree d_max appears."""
    B = d_max + 1
    masks = _degree_masks(r, d_max)
    # x is as long as its largest code: multiply in first the factors that
    # leave the first variables alone, and the small powers before the large
    steps = sorted(((S, j) for S, m in factors for j in range(len(masks)) if m >> j & 1),
                   key=lambda step: (-min(step[0], default=r), step[1]))
    x = 1
    for S, j in steps:
        low = x & masks[j]
        for i in S:
            x ^= low << (B ** (r - 1 - i) << j)
    return _unpack(x, r, d_max)


def _unpack(x: int, r: int, d_max: int) -> GradedClass:
    """The class of unipotent_ring(r, max(d_max, 2^r - 1)) whose monomials
    are the set bits of x, read in slot base d_max + 1 and re-encoded in the
    ring's base; the digits of all bits are split at once."""
    ring = unipotent_ring(r, max(d_max, 2**r - 1))
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    nz = np.flatnonzero(raw)
    byte, bit = np.nonzero(np.unpackbits(raw[nz, None], axis=1, bitorder="little"))
    rest = nz[byte] * 8 + bit
    deg = np.zeros_like(rest)
    code = np.zeros_like(rest)
    for i in range(r):   # the last generator's digit first
        rest, e = np.divmod(rest, d_max + 1)
        deg += e
        code += e * (ring.D + 1) ** i
    order = np.argsort(deg, kind="stable")
    degs, starts = np.unique(deg[order], return_index=True)
    chunks = np.split(code[order], starts[1:])
    return GradedClass(ring, {int(d): frozenset(c.tolist()) for d, c in zip(degs, chunks)})


# ---------------------------------------------------------------------------
# Formula verification
# ---------------------------------------------------------------------------

def _compare(context, lhs: GradedClass, rhs: GradedClass):
    if lhs == rhs:
        return
    for d in sorted(set(lhs.support_degrees()) | set(rhs.support_degrees())):
        if lhs.component(d) != rhs.component(d):
            raise Mismatch(context, d,
                           " + ".join(lhs.monomial_strings(d)) or "0",
                           " + ".join(rhs.monomial_strings(d)) or "0")
    raise AssertionError("classes unequal but no differing degree found")


def verify_swc_formula(pi: VirtualRep, D: int, emb: Subgroup | None = None) -> dict:
    """Check the closed formula against the restriction oracles.

    Odd q: the image of (1+e)^r in H*(Z) must equal the center oracle, and the
    quaternion oracle must restrict to the same class.  Even q: the expansion
    of (1+D)^m must equal the unipotent oracle, and all nontrivial additive
    character multiplicities must coincide.  Raises Mismatch on failure; the
    oracle class checked against is returned as a class, not formatted.
    """
    G = pi.table.group
    q = G.q
    deg = pi.degree()
    d_eff = min(D, deg)
    image = total_swc_restricted(pi, d_eff)
    if G.field.p != 2:
        oz = swc_from_center(pi, d_eff)
        _compare(f"q={q} closed formula vs center oracle", image.cls, oz.cls)
        if emb is None:
            emb = find_quaternion(G)
        oq = swc_from_quaternion(pi, emb, d_eff)
        mq = _q8_class_at_center(oq.cls)
        _compare(f"q={q} quaternion oracle vs center oracle", mq, oz.cls)
        return {
            "q": q, "parity": "odd", "degree": deg,
            "r": quaternionic_multiplicity(pi),
            "common_center_image": oz.cls,
        }
    on = swc_from_unipotent(pi, d_eff)
    _compare(f"q={q} closed formula vs unipotent oracle", image.cls, on.cls)
    mults = unipotent_character_multiplicities(pi)
    nontrivial = set(mults[1:])
    if len(nontrivial) > 1:
        raise Mismatch(f"q={q} torus invariance of additive multiplicities",
                       1, str(sorted(nontrivial)), "a single value")
    ell, m = unipotent_multiplicities(pi)
    return {
        "q": q, "parity": "even", "degree": deg, "ell": ell, "m": m,
        "expanded": on.cls,
    }


def restricted_total_class(pi: VirtualRep, D: int) -> GradedClass:
    """Oracle total class of the restriction to the parity's detecting
    elementary abelian subgroup (center for odd q, unitriangular for even)."""
    G = pi.table.group
    if G.kind == "sl2" and G.field.p == 2:
        return swc_from_unipotent(pi, D).cls
    return swc_from_center(pi, D).cls


def wu_formula_holds(w: GradedClass, i: int, j: int) -> bool:
    """Sq^i(w_j) = sum_t C(j+t-i-1, t) w_{i-t} w_{j+t} on a restricted total
    class w known through degree i + j; it reads w in degrees <= i + j only.

    So one restricted class computed at any D >= i + j decides every (i, j)
    as the class computed at D = i + j would.  That class is a product of
    factors 1 + ... (over the center, a Lucas binomial series) in a ring
    truncated at T(D) = min(D, deg pi), or max(min(D, deg pi), 2^r - 1) over
    the unitriangular group, so its components of degree <= i + j do not
    depend on D.  Both sides of the identity lie in degree i + j, which
    T(i + j) reaches if and only if T(D) does."""
    if not 0 <= i <= j:
        raise ValueError(f"the Wu formula needs 0 <= i <= j, not i={i}, j={j}")
    return _wu_holds(w, i, j)


@lru_cache(maxsize=None)
def _wu_holds(w: GradedClass, i: int, j: int) -> bool:
    """wu_formula_holds for 0 <= i <= j, kept per (w, i, j): representations
    with equal restricted classes share each check."""
    ring = w.ring
    lhs = steenrod_sq(i, w.truncate(j, j))
    rhs = ring.zero()
    for t in range(i + 1):
        if not binom_mod2(j + t - i - 1, t):
            continue
        rhs = rhs + w.truncate(i - t, i - t) * w.truncate(j + t, j + t)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    q: int
    cases: int = 0
    passes: int = 0
    seed: int | None = None
    failures: list = field(default_factory=list)

    def record(self, ok: bool, detail=None):
        self.cases += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append(detail)

    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"schema": "sl2swc/1", **vars(self)}


def _theorem_truncation(q: int, single_block: bool) -> int:
    # expansions in three variables grow cubically with the truncation; large
    # random combinations at q = 8 are compared up to degree 24, which still
    # covers every Dickson invariant, their pairwise products and d1^(2^s)
    # obstruction classes through s = 2
    if q == 8 and not single_block:
        return 24
    return 64


def suite_gow(q: int) -> SuiteReport:
    """Every irreducible self-dual character satisfies eps = omega(-1)."""
    rep = SuiteReport("gow", q)
    table = char_table(build_sl2(q))
    if q % 2 == 0:
        for i in range(table.nchars()):
            ok = table.fs[i] == 1
            rep.record(ok, None if ok else
                       {"rep": f"X{i+1}", "expr": f"X{i+1}", "lhs": table.fs[i], "rhs": 1})
        return rep
    zc = minus_one_class(table)
    for i, chi in enumerate(table.chars):
        if table.dual[i] != i:
            continue
        omega = chi.int_at(zc) // table.degrees[i]
        ok = table.fs[i] == omega
        rep.record(ok, None if ok else
                   {"rep": f"X{i+1}", "expr": f"X{i+1}", "lhs": table.fs[i],
                    "rhs": omega})
    return rep


def suite_theorem(q: int, trials: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Closed formula vs restriction oracles: all OIRs, then seeded random
    genuine orthogonal combinations."""
    rep = SuiteReport("theorem", q, seed=seed)
    table = char_table(build_sl2(q))
    for lab, _ in oir_labels(table):
        pi = rep_from_oir_blocks(table, {lab: 1})
        _record_case(rep, {"rep": f"oir:{lab}"}, pi,
                     verify_swc_formula, pi, _theorem_truncation(q, True))
    rng = random.Random(seed)
    for n in range(trials):
        pi = random_orthogonal_rep(table, rng)
        _record_case(rep, {"rep": f"random:{n}"}, pi,
                     verify_swc_formula, pi, _theorem_truncation(q, False))
    return rep


def _rep_expr(pi: VirtualRep) -> str:
    """pi's multiplicities as an `swc --rep` expression, e.g. "2*X3 + X5"."""
    from .cli import print_rep_terms  # not at the top: the cli module imports this one

    terms = [(n, ("X", i + 1)) for i, n in enumerate(pi.mults) if n]
    return print_rep_terms(terms or [(0, ("triv",))])


def _record_case(rep: SuiteReport, case: dict, pi: VirtualRep, check, *args):
    """Run check(*args) as one case of pi.  It passes unless it returns False
    or raises.  A failure's detail is `case` plus pi's `expr`, and a Mismatch's
    diff or any other exception's type and message.  MemoryError propagates."""
    detail = {}
    try:
        ok = check(*args) is not False
    except MemoryError:
        raise
    except Mismatch as e:
        ok = False
        detail = {"degree": e.degree, "lhs": e.lhs, "rhs": e.rhs, "context": e.context}
    except Exception as e:
        ok = False
        detail = {"error": type(e).__name__, "message": str(e)}
    rep.record(ok, None if ok else {**case, "expr": _rep_expr(pi), **detail})


def suite_wu(q: int, trials: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Wu formula for i <= j, i + j <= 6 on restrictions of random reps, each
    representation's restricted class built once (see wu_formula_holds)."""
    rep = SuiteReport("wu", q, seed=seed)
    table = char_table(build_sl2(q))
    rng = random.Random(seed)
    for n in range(trials):
        pi = random_genuine_rep(table, rng, max_degree=60)
        try:
            w = restricted_total_class(pi, 6)
        except MemoryError:
            raise
        except Exception as e:  # then each (i, j) case fails with it
            w = e
        for i in range(0, 4):
            for j in range(i, 7 - i):
                _record_case(rep, {"rep": f"random:{n}", "i": i, "j": j}, pi,
                             _wu_case, w, i, j)
    return rep


def _wu_case(w, i: int, j: int) -> bool:
    if isinstance(w, Exception):
        raise w
    return wu_formula_holds(w, i, j)


def suite_obstruction(q: int, n_max: int = 1024) -> SuiteReport:
    """Lowest nonzero coefficient of (1+g)^n sits at index 2^ord2(n); checked
    against an actual expansion of the binomial series over F2."""
    rep = SuiteReport("obstruction", q)
    p2 = q % 2 == 0
    r = q.bit_length() - 1 if p2 else None
    for n in range(1, n_max + 1):
        # independent expansion: bits of z are the coefficients of (1+g)^n
        z = 1
        for _ in range(n):
            z ^= z << 1
        t = z ^ 1
        low = (t & -t).bit_length() - 1
        want_idx = 2 ** ord2(n)
        closed = 2 ** (ord2(n) + 2) if not p2 else 2 ** (r + ord2(n) - 1)
        via_idx = 4 * low if not p2 else 2 ** (r - 1) * low
        ok = low == want_idx and closed == via_idx and binom_mod2(n, low) == 1 \
            and all(binom_mod2(n, i) == 0 for i in range(1, low))
        rep.record(ok, None if ok else {"rep": f"n={n}", "degree": low,
                                        "lhs": low, "rhs": want_idx})
    return rep


def clear_caches() -> None:
    """Empty the caches of the classes the suites compare (see the module
    docstring), so that the next suite computes each of them again."""
    for cached in (center_class, _quaternion_class, _q8_class_at_center, unipotent_class,
                   _wu_holds, _center_image, _expanded_image):
        cached.cache_clear()


def run_suite(name: str, q: int, trials: int | None = None,
              seed: int = DEFAULT_SEED) -> list[SuiteReport]:
    if name == "gow":
        return [suite_gow(q)]
    if name == "theorem":
        return [suite_theorem(q, 200 if trials is None else trials, seed)]
    if name == "wu":
        return [suite_wu(q, 100 if trials is None else trials, seed)]
    if name == "obstruction":
        return [suite_obstruction(q)]
    if name == "all":
        out = []
        for n in ("gow", "theorem", "wu", "obstruction"):
            out.extend(run_suite(n, q, trials, seed))
        return out
    raise ValueError(f"unknown suite {name!r}")
