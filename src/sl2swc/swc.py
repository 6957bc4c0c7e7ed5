"""Total Stiefel-Whitney classes of (virtual) orthogonal representations of
SL(2,q), obstruction degrees, top-class criteria, and image certificates.

For odd q the total class is (1 + e)^r with e the degree-4 generator and
r = (chi(1) - chi(-1))/8; for even q it is (1 + D)^m in the Dickson
subalgebra with m = (chi(1) - chi(n0))/q.  Virtual inputs use the series
inverse in the completed (truncated) ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import binom_mod2, ord2
from .characters import (
    NotOrthogonal,
    VirtualRep,
    decompose_orthogonal,
    is_orthogonal_virtual,
)
from .cohomology import (
    GradedClass,
    dickson_ring,
    dickson_sum,
    sl2_odd_ring,
    unipotent_ring,
)
from .groups import minus_one

TRUNCATION_CAP = 256


class NotDivisible(Exception):
    """Character difference not divisible as the formula requires."""


class WrongParity(Exception):
    pass


@dataclass
class TotalSWC:
    """Unit (constant term 1) graded class with a tag naming its ring."""

    cls: GradedClass
    tag: str   # "sl2-odd" | "dickson" | "unipotent" | "center" | "quaternion8"

    def __post_init__(self):
        assert self.cls.has_constant_term() or self.cls.is_zero()

    @property
    def ring(self):
        return self.cls.ring

    def to_dict(self):
        return self.cls.to_dict()

    def __eq__(self, other):
        return isinstance(other, TotalSWC) and self.tag == other.tag and self.cls == other.cls


def _sl2_data(pi: VirtualRep):
    G = pi.table.group
    if G.kind != "sl2":
        raise WrongParity(f"these formulas apply to SL(2,q), not {G.name}")
    return G, G.q, G.field.p, G.field.r


def _require_orthogonal(pi: VirtualRep):
    if pi.is_genuine():
        decompose_orthogonal(pi)
    elif not is_orthogonal_virtual(pi):
        raise NotOrthogonal("virtual representation is not orthogonal")


def minus_one_class(table) -> int:
    return table.conj.class_of[minus_one(table.group)]


def n0_class(table) -> int:
    return table.conj.class_of_elem((1, 1, 0, 1))


def quaternionic_multiplicity(pi: VirtualRep) -> int:
    """(chi(1) - chi(-1)) / 8; the number of 4-dimensional quaternionic blocks
    in the restriction to a quaternion subgroup of order 8.  Odd q only."""
    _, q, p, _ = _sl2_data(pi)
    if p == 2:
        raise WrongParity("q is even; use unipotent_multiplicities")
    _require_orthogonal(pi)
    diff = pi.degree() - pi.int_at(minus_one_class(pi.table))
    if diff % 8:
        raise NotDivisible(f"chi(1) - chi(-1) = {diff} is not divisible by 8")
    return diff // 8


def unipotent_multiplicities(pi: VirtualRep) -> tuple[int, int]:
    """(ell, m) with res_N pi = ell * 1 + m * (reg(N) - 1); even q only."""
    _, q, p, _ = _sl2_data(pi)
    if p != 2:
        raise WrongParity("q is odd; use quaternionic_multiplicity")
    chi1 = pi.degree()
    diff = chi1 - pi.int_at(n0_class(pi.table))
    if diff % q:
        raise NotDivisible(f"chi(1) - chi(n0) = {diff} is not divisible by {q}")
    m = diff // q
    return chi1 - m * (q - 1), m


def default_truncation(pi: VirtualRep) -> int:
    _, q, p, r = _sl2_data(pi)
    if p != 2:
        rp = quaternionic_multiplicity(pi)
        want = 4 * abs(rp)
    else:
        _, m = unipotent_multiplicities(pi)
        want = max(abs(m) * (q - 1), 2**r - 1)
    return max(16, min(want, TRUNCATION_CAP))


def total_swc(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """Total class: (1+e)^r for odd q (in F2[e,b]/(b^2)), (1+D)^m for even q
    (in the abstract Dickson ring).  Genuine inputs truncate at deg pi."""
    _, q, p, r = _sl2_data(pi)
    if D is None:
        D = default_truncation(pi)
    if pi.is_genuine():
        D = min(D, pi.degree()) if pi.degree() > 0 else 0
    if p != 2:
        rp = quaternionic_multiplicity(pi)
        if pi.is_genuine():
            assert 4 * rp <= pi.degree(), "classes above deg pi must vanish"
        ring = sl2_odd_ring(D)
        cls = ring.from_monomials([(i, 0) for i in range(D // 4 + 1) if binom_mod2(rp, i)])
        return TotalSWC(cls, "sl2-odd")
    _, m = unipotent_multiplicities(pi)
    if pi.is_genuine():
        assert m * (q - 1) <= pi.degree(), "classes above deg pi must vanish"
    return TotalSWC(_one_plus_gens(dickson_ring(r, D)).pow_int(m), "dickson")


def _one_plus_gens(ring):
    """1 plus the sum of the generators: 1 + D in the Dickson ring."""
    n = len(ring.names)
    return ring.from_monomials([(0,) * n] + [tuple(int(i == j) for j in range(n))
                                             for i in range(n)])


def total_swc_expanded(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """Even-q total class expanded in the v-variables of H*(N).

    The ring is truncated at max(D_eff, 2^r - 1) so the Dickson invariants
    exist; the class itself is truncated at D_eff = min(D, deg pi).
    """
    _, q, p, r = _sl2_data(pi)
    if p != 2:
        raise WrongParity("expansion in v-variables applies to even q")
    if D is None:
        D = default_truncation(pi)
    if pi.is_genuine():
        D = min(D, pi.degree())
    d_ring = max(D, 2**r - 1)
    _, m = unipotent_multiplicities(pi)
    ring = unipotent_ring(r, d_ring)
    base = ring.one() + dickson_sum(r, d_ring)
    return TotalSWC(base.pow_int(m).truncate(D), "unipotent")


def obstruction(pi: VirtualRep, D: int | None = None):
    """(degree, class) of the first nonzero positive-degree component, or
    (None, None) when the total class is 1.  Verified against the expansion.

    Genuine representations only; for virtual classes the report inspects
    the truncated series instead (the closed form may sit past any finite
    truncation).
    """
    assert pi.is_genuine(), "obstruction degree is defined for genuine representations"
    _, q, p, r = _sl2_data(pi)
    if p != 2:
        rp = quaternionic_multiplicity(pi)
        if rp == 0:
            return None, None
        t = ord2(rp)
        deg_o = 2 ** (t + 2)
        # the verification window must reach the closed-form degree
        D = max(D if D is not None else default_truncation(pi), deg_o)
        total = total_swc(pi, D)
        cls = total.ring.monomial((2**t, 0))
    else:
        _, m = unipotent_multiplicities(pi)
        if m == 0:
            return None, None
        s = ord2(m)
        deg_o = 2 ** (r + s - 1)
        D = max(D if D is not None else default_truncation(pi), deg_o)
        total = total_swc(pi, D)
        cls = total.ring.monomial((2**s,) + (0,) * (r - 1))
    low = total.cls.lowest_positive_degree()
    if low != deg_o:
        raise AssertionError(f"closed form {deg_o} != expansion minimum {low}")
    if total.cls.component(deg_o) != cls.component(deg_o):
        raise AssertionError("obstruction class mismatch")
    return deg_o, cls


def top_class_nonzero(pi: VirtualRep) -> tuple[bool, str]:
    """Whether the degree-(deg pi) component is nonzero, with the criterion
    that decided it; verified against the expansion's top coefficient."""
    _, q, p, r = _sl2_data(pi)
    assert pi.is_genuine(), "top class is defined for genuine representations"
    deg = pi.degree()
    if p != 2:
        flag = pi.int_at(minus_one_class(pi.table)) == -deg
        criterion = "central element acts by -1"
        rp = quaternionic_multiplicity(pi)
        top_coeff = binom_mod2(rp, deg // 4) if deg % 4 == 0 else 0
    else:
        ell, m = unipotent_multiplicities(pi)
        flag = ell == 0
        criterion = "no nonzero vectors fixed by the unitriangular subgroup"
        top_coeff = _dickson_power_component(r, m, deg)
    if bool(top_coeff) != flag:
        raise AssertionError("top coefficient disagrees with the criterion")
    return flag, criterion


def _dickson_power_component(r: int, m: int, deg: int):
    """The degree-deg component of (1+D)^m, m >= 0, in the Dickson ring.

    (1+D)^m is the product of the factors (1+D)^(2^j) = 1 + D^(2^j) over the
    set bits j of m.  After each factor, the degrees below deg minus the top
    degrees of the factors still to come are dropped: no term of them can
    reach deg, so the component is exactly that of the full product.
    """
    base = _one_plus_gens(dickson_ring(r, deg))
    factors = []
    while m:
        if m & 1:
            factors.append(base)
        m >>= 1
        base = base.square()
    rest = sum(max(f.support_degrees()) for f in factors)
    prod = base.ring.one()
    for f in factors:
        rest -= max(f.support_degrees())
        prod = (prod * f).truncate(deg, deg - rest)
    return prod.component(deg)


def image_exponent(total: TotalSWC):
    """Certificate (n, 2^k) with total = (1+g)^n up to the truncation degree,
    or None.  Binary digits of n are the coefficients of g^(2^j), read off
    the power x^(2^j) of the first generator x (e, resp. d1)."""
    ring = total.ring
    D = ring.D
    if total.tag == "sl2-odd":
        base = ring.one() + ring.gen_class("e")
    elif total.tag == "dickson":
        base = _one_plus_gens(ring)
    else:
        raise ValueError(f"no single-parameter image in ring tagged {total.tag!r}")
    min_deg = ring.degs[0]
    if D < min_deg:
        return None
    k = 0
    n = 0
    while min_deg * 2**k <= D:
        d = min_deg * 2**k
        digit = ring.monomial((2**k,) + (0,) * (len(ring.names) - 1))
        if total.cls.component(d) & digit.component(d):
            n += 2**k
        k += 1
    if base.pow_int(n).truncate(D) == total.cls:
        return n, 2**k
    return None


@dataclass
class SwcReport:
    q: int
    parity: str
    r_or_m: int
    ell: int | None
    degree: int
    truncation: int
    total: dict
    total_expanded: dict | None
    obstruction_degree: int | None
    obstruction_class: str | None
    top_nonzero: bool
    criterion: str

    def to_json_dict(self) -> dict:
        return {
            "schema": "sl2swc/1",
            "q": self.q,
            "parity": self.parity,
            "r_or_m": self.r_or_m,
            "ell": self.ell,
            "degree": self.degree,
            "truncation": self.truncation,
            "total": self.total,
            "total_expanded": self.total_expanded,
            "obstruction_degree": self.obstruction_degree,
            "obstruction_class": self.obstruction_class,
            "top_nonzero": self.top_nonzero,
            "criterion": self.criterion,
        }


EXPANSION_CAP = 64


def swc_report(pi: VirtualRep, D: int | None = None) -> SwcReport:
    _, q, p, r = _sl2_data(pi)
    parity = "even" if p == 2 else "odd"
    if D is None:
        D = default_truncation(pi)
    total = total_swc(pi, D)
    if parity == "odd":
        r_or_m = quaternionic_multiplicity(pi)
        ell = None
        expanded = None
    else:
        ell, r_or_m = unipotent_multiplicities(pi)
        expanded = total_swc_expanded(pi, min(D, EXPANSION_CAP)).to_dict()
    deg_o, cls_o = obstruction(pi, D) if (pi.is_genuine()) else (None, None)
    if not pi.is_genuine():
        low = total.cls.lowest_positive_degree()
        if low is not None:
            deg_o = low
            cls_o = total.cls.truncate(low, low)
    if pi.is_genuine():
        top, criterion = top_class_nonzero(pi)
    else:
        top, criterion = False, "top class undefined for virtual representations"
    ob_str = None
    if deg_o is not None:
        ob_str = " + ".join(cls_o.monomial_strings(deg_o))
    return SwcReport(
        q=q,
        parity=parity,
        r_or_m=r_or_m,
        ell=ell,
        degree=pi.degree(),
        truncation=total.ring.D,
        total=total.to_dict(),
        total_expanded=expanded,
        obstruction_degree=deg_o,
        obstruction_class=ob_str,
        top_nonzero=top,
        criterion=criterion,
    )
