"""Total Stiefel-Whitney classes of (virtual) orthogonal representations of
SL(2,q), obstruction degrees, top-class criteria, and image certificates.

The theorem has one form for both parities: w(pi) = (1+g)^n, g the sum of the
generators of a free ring.  For odd q that ring is F2[e], |e| = 4, the
subalgebra of H*(SL(2,q)) = F2[e] (x) F2[b]/(b^2) holding every (1+e)^n, and
n = (chi(1) - chi(-1))/8; for even q it is the free ring on the Dickson
invariants, and n = (chi(1) - chi(n0))/q.  `_theorem` reads pi once and makes
the only parity decision; the total is (1+g)^n, the obstruction is
x1^(2^ord2 n) for the first generator x1 (e, resp. d1), the
top class is the degree-(deg pi) component of (1+g)^n, and the even-q class
in the v-variables of H*(N) is the image of the printed total under the
Dickson expansion.  Virtual inputs use the series inverse in the completed
(truncated) ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .algebra import ord2
from .characters import NotOrthogonal, VirtualRep, decompose_orthogonal, is_orthogonal_virtual
from .cohomology import GradedClass, Ring, dickson_expansion, dickson_ring, sl2_odd_class_ring
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
        if not self.cls.has_constant_term():
            raise AssertionError("a total class must be a unit (constant term 1)")

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


@dataclass(frozen=True)
class _Theorem:
    """The data of w(pi) = (1+g)^n that depend on the parity, read once."""

    parity: str                   # "odd" | "even"
    tag: str                      # TotalSWC tag of the ring: "sl2-odd" | "dickson"
    ring: Callable[[int], Ring]   # the ring of the total, by truncation degree
    top: int                      # deg g: 4, resp. q - 1
    n: int                        # r, resp. m
    ell: int | None               # trivial summands of res_N pi (even q)
    expands: bool                 # whether the Dickson expansion maps the ring
    top_nonzero: bool             # the top-class criterion (genuine pi)
    criterion: str

    @property
    def truncation(self) -> int:
        """The default truncation: deg (1+g)^n, at least deg g, at most the cap."""
        return max(16, min(self.top * max(abs(self.n), 1), TRUNCATION_CAP))


def _theorem(pi: VirtualRep) -> _Theorem:
    _, q, p, r = _sl2_data(pi)
    if p != 2:
        return _Theorem("odd", "sl2-odd", sl2_odd_class_ring, 4, quaternionic_multiplicity(pi),
                        None, False, pi.int_at(minus_one_class(pi.table)) == -pi.degree(),
                        "central element acts by -1")
    ell, m = unipotent_multiplicities(pi)
    return _Theorem("even", "dickson", partial(dickson_ring, r), q - 1, m, ell, True,
                    ell == 0, "no nonzero vectors fixed by the unitriangular subgroup")


def _one_plus_g(ring: Ring) -> GradedClass:
    """1 + g, g the sum of the generators: 1 + e, resp. 1 + d1 + ... + dr."""
    n = len(ring.names)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return ring.from_monomials([(0,) * n] + units)


def total_swc(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """Total class (1+g)^n: (1+e)^r in F2[e] for odd q, (1+D)^m in the
    abstract Dickson ring for even q.  Genuine inputs truncate at deg pi."""
    th = _theorem(pi)
    if D is None:
        D = th.truncation
    if pi.is_genuine():
        D = min(D, pi.degree())
        if th.n * th.top > pi.degree():
            raise AssertionError("classes above deg pi must vanish")
    return TotalSWC(_one_plus_g(th.ring(D)).pow_int(th.n), th.tag)


def total_swc_expanded(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """Even-q total class expanded in the v-variables of H*(N): the image of
    (1+D)^m under the Dickson expansion d_i -> d_i(v1..vr).

    Both rings are truncated at max(D_eff, 2^r - 1) so the Dickson invariants
    exist; the class itself is truncated at D_eff = min(D, deg pi).
    """
    _, q, p, r = _sl2_data(pi)
    if p != 2:
        raise WrongParity("expansion in v-variables applies to even q")
    th = _theorem(pi)
    if D is None:
        D = th.truncation
    if pi.is_genuine():
        D = min(D, pi.degree())
    d_ring = max(D, 2**r - 1)
    total = _one_plus_g(th.ring(d_ring)).pow_int(th.n).truncate(D)
    return TotalSWC(dickson_expansion(r, d_ring)(total), "unipotent")


def obstruction(pi: VirtualRep, D: int | None = None):
    """(degree, class) of the first nonzero positive-degree component, or
    (None, None) when the total class is 1: x1^(2^ord2 n) with x1 the first
    generator (e, resp. d1).  Verified against the expansion.

    Genuine representations only; for virtual classes the report inspects
    the truncated series instead (the closed form may sit past any finite
    truncation).
    """
    if not pi.is_genuine():
        raise ValueError("obstruction degree is defined for genuine representations")
    th = _theorem(pi)
    if th.n == 0:
        return None, None
    degs = th.ring(0).degs
    power = 2 ** ord2(th.n)
    deg_o = degs[0] * power
    # the verification window must reach the closed-form degree
    total = total_swc(pi, max(D if D is not None else th.truncation, deg_o))
    cls = total.ring.monomial((power,) + (0,) * (len(degs) - 1))
    low = total.cls.lowest_positive_degree()
    if low != deg_o:
        raise AssertionError(f"closed form {deg_o} != expansion minimum {low}")
    if total.cls.component(deg_o) != cls.component(deg_o):
        raise AssertionError("obstruction class mismatch")
    return deg_o, cls


def top_class_nonzero(pi: VirtualRep) -> tuple[bool, str]:
    """Whether the degree-(deg pi) component is nonzero, with the criterion
    that decided it; verified against the expansion's top coefficient."""
    if not pi.is_genuine():
        raise ValueError("top class is defined for genuine representations")
    th = _theorem(pi)
    if bool(_power_component(th, pi.degree())) != th.top_nonzero:
        raise AssertionError("top coefficient disagrees with the criterion")
    return th.top_nonzero, th.criterion


def _power_component(th: _Theorem, deg: int) -> frozenset:
    """The degree-deg component of (1+g)^n, n >= 0.

    (1+g)^n is the product of the factors (1+g)^(2^j) = 1 + g^(2^j) over the
    set bits j of n.  After each factor, the degrees below deg minus the top
    degrees of the factors still to come are dropped: no term of them can
    reach deg, so the component is exactly that of the full product.
    """
    base = _one_plus_g(th.ring(deg))
    n = th.n
    factors = []
    while n:
        if n & 1:
            factors.append(base)
        n >>= 1
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
    if total.tag not in ("sl2-odd", "dickson"):
        raise ValueError(f"no single-parameter image in ring tagged {total.tag!r}")
    ring = total.ring
    D = ring.D
    base = _one_plus_g(ring)
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
        return {"schema": "sl2swc/1", **vars(self)}


EXPANSION_CAP = 64


def swc_report(pi: VirtualRep, D: int | None = None) -> SwcReport:
    th = _theorem(pi)
    if D is None:
        D = th.truncation
    total = total_swc(pi, D)
    expanded = total_swc_expanded(pi, min(D, EXPANSION_CAP)).to_dict() if th.expands else None
    if pi.is_genuine():
        deg_o, cls_o = obstruction(pi, D)
        top, criterion = top_class_nonzero(pi)
    else:
        deg_o, cls_o = total.cls.lowest_positive_degree(), total.cls
        top, criterion = False, "top class undefined for virtual representations"
    return SwcReport(
        q=pi.table.group.q, parity=th.parity, r_or_m=th.n, ell=th.ell, degree=pi.degree(),
        truncation=total.ring.D, total=total.to_dict(), total_expanded=expanded,
        obstruction_degree=deg_o,
        obstruction_class=None if deg_o is None else " + ".join(cls_o.monomial_strings(deg_o)),
        top_nonzero=top, criterion=criterion)
