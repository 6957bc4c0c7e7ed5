"""Total Stiefel-Whitney classes of (virtual) orthogonal representations of
SL(2,q), obstruction degrees, top-class criteria, and image certificates.

The theorem has one form for both parities: w(pi) = (1+g)^n, g the sum of the
generators of a free ring.  For odd q that ring is F2[e], |e| = 4, the
subalgebra of H*(SL(2,q)) = F2[e] (x) F2[b]/(b^2) holding every (1+e)^n, and
n = (chi(1) - chi(-1))/8; for even q it is the free ring on the Dickson
invariants, and n = (chi(1) - chi(n0))/q.  `_theorem` reads pi once and makes
the only parity decision.  Everything else is a window of degrees of the one
power, computed by `_power`: the total is the window [0, D]; the obstruction
x1^(2^ord2 n), x1 the first generator (e, resp. d1), is checked on
[0, deg_o]; the top class is the window [deg pi, deg pi]; an image
certificate is compared with the window [0, D] of its power.  The even-q class
in the v-variables of H*(N) is the image of the printed total under the
Dickson expansion, and the odd-q class in H*(Z), Z the center, is its image
under e -> v^4.  The oracle suites compare these images case after case, so
`total_swc_restricted` keeps each per (ring, n, D).  Virtual inputs (n < 0)
take the same route: in the truncated ring the series inverse is a
nonnegative power (see `_power`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .algebra import ord2
from .characters import NotOrthogonal, VirtualRep, decompose_orthogonal, is_orthogonal_virtual
from .cohomology import (GradedClass, Ring, dickson_expansion, dickson_ring,
                         restrict_sl2odd_to_center, sl2_odd_class_ring)
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
    ring: Callable[[int], Ring]   # the ring of the total, by truncation degree
    top: int                      # deg g: 4, resp. q - 1
    n: int                        # r, resp. m
    ell: int | None               # trivial summands of res_N pi (even q)
    top_nonzero: bool             # the top-class criterion (genuine pi)
    criterion: str
    degree: int                   # deg pi
    genuine: bool

    def window(self, D: int | None) -> int:
        """The truncation of the total: D, by default deg (1+g)^n (at least
        16, at most the cap), and at most deg pi for genuine pi."""
        if D is None:
            D = max(16, min(self.top * max(abs(self.n), 1), TRUNCATION_CAP))
        return min(D, self.degree) if self.genuine else D


def _theorem(pi: VirtualRep) -> _Theorem:
    _, q, p, r = _sl2_data(pi)
    degree, genuine = pi.degree(), pi.is_genuine()
    if p != 2:
        return _Theorem("odd", sl2_odd_class_ring, 4, quaternionic_multiplicity(pi), None,
                        pi.int_at(minus_one_class(pi.table)) == -degree,
                        "central element acts by -1", degree, genuine)
    ell, m = unipotent_multiplicities(pi)
    return _Theorem("even", partial(dickson_ring, r), q - 1, m, ell, ell == 0,
                    "no nonzero vectors fixed by the unitriangular subgroup", degree, genuine)


def _power(ring: Ring, n: int, lo: int = 0) -> GradedClass:
    """The components of degrees lo..D of (1+g)^n, g the sum of the
    generators: 1 + e, resp. 1 + d1 + ... + dr (see GradedClass.times_power)."""
    return sum((ring.gen_class(x) for x in ring.names), ring.one()).pow_int(n, lo)


def total_swc(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """Total class (1+g)^n: (1+e)^r in F2[e] for odd q, (1+D)^m in the
    abstract Dickson ring for even q.  Genuine inputs truncate at deg pi."""
    th = _theorem(pi)
    D = th.window(D)
    if th.genuine and th.n * th.top > th.degree:
        raise AssertionError("classes above deg pi must vanish")
    return TotalSWC(_power(th.ring(D), th.n), "sl2-odd" if th.parity == "odd" else "dickson")


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
    return TotalSWC(_expanded_power(r, th.n, th.window(D)), "unipotent")


def _expanded_power(r: int, n: int, D: int) -> GradedClass:
    """The image of (1+D)^n, truncated at D, under the Dickson expansion of
    rank r."""
    d_ring = max(D, 2**r - 1)
    return dickson_expansion(r, d_ring)(_power(dickson_ring(r, d_ring), n).truncate(D))


def total_swc_restricted(pi: VirtualRep, D: int | None = None) -> TotalSWC:
    """The total class restricted to the elementary abelian subgroup that the
    oracle suites compare it on: for even q the unitriangular N, where it is
    the Dickson expansion of (1+D)^m (total_swc_expanded); for odd q the
    center Z, where it is the image of (1+e)^r under e -> v^4 in
    H*(Z) = F2[v].  Genuine inputs truncate at deg pi and are checked as by
    total_swc.

    The class depends on pi only through n and the truncation, so it is kept
    per (ring, n, D): a suite computes it once per distinct n.  swc_report
    does not keep it."""
    th = _theorem(pi)
    D = th.window(D)
    if th.genuine and th.n * th.top > th.degree:
        raise AssertionError("classes above deg pi must vanish")
    if th.parity == "odd":
        return TotalSWC(_center_image(th.n, D), "center")
    return TotalSWC(_expanded_image(pi.table.group.field.r, th.n, D), "unipotent")


@lru_cache(maxsize=None)
def _center_image(n: int, D: int) -> GradedClass:
    """The image of (1+e)^n, truncated at D, in H*(Z)."""
    return restrict_sl2odd_to_center(D)(_power(sl2_odd_class_ring(D), n))


_expanded_image = lru_cache(maxsize=None)(_expanded_power)


def obstruction(pi: VirtualRep):
    """(degree, class) of the first nonzero positive-degree component, or
    (None, None) when the total class is 1: x1^(2^ord2 n) with x1 the first
    generator (e, resp. d1).  Verified against the expansion up to that
    degree deg_o: no component above deg_o can change the lowest positive
    degree up to deg_o or the component at deg_o, so that window is the
    whole check.

    Genuine representations only; for virtual classes the report inspects
    the truncated series instead (the closed form may sit past any finite
    truncation).
    """
    if not pi.is_genuine():
        raise ValueError("obstruction degree is defined for genuine representations")
    th = _theorem(pi)
    if th.n == 0:
        return None, None
    power = 2 ** ord2(th.n)
    deg_o = th.ring(0).degs[0] * power
    ring = th.ring(deg_o)
    total = _power(ring, th.n)
    cls = ring.monomial((power,) + (0,) * (len(ring.degs) - 1))
    low = total.lowest_positive_degree()
    if low != deg_o:
        raise AssertionError(f"closed form {deg_o} != expansion minimum {low}")
    if total.component(deg_o) != cls.component(deg_o):
        raise AssertionError("obstruction class mismatch")
    return deg_o, cls


def top_class_nonzero(pi: VirtualRep) -> tuple[bool, str]:
    """Whether the degree-(deg pi) component is nonzero, with the criterion
    that decided it; verified against the expansion's top coefficient."""
    if not pi.is_genuine():
        raise ValueError("top class is defined for genuine representations")
    th = _theorem(pi)
    deg = th.degree
    if _power(th.ring(deg), th.n, deg).is_zero() == th.top_nonzero:
        raise AssertionError("top coefficient disagrees with the criterion")
    return th.top_nonzero, th.criterion


def image_exponent(total: TotalSWC):
    """Certificate (n, 2^k) with total = (1+g)^n up to the truncation degree,
    or None.  Binary digits of n are the coefficients of g^(2^j), read off
    the power x^(2^j) of the first generator x (e, resp. d1)."""
    if total.tag not in ("sl2-odd", "dickson"):
        raise ValueError(f"no single-parameter image in ring tagged {total.tag!r}")
    ring = total.ring
    D = ring.D
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
    if _power(ring, n) == total.cls:
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
    D = th.window(D)
    total = total_swc(pi, D)
    expanded = (total_swc_expanded(pi, min(D, EXPANSION_CAP)).to_dict()
                if th.parity == "even" else None)
    if th.genuine:
        deg_o, cls_o = obstruction(pi)
        top, criterion = top_class_nonzero(pi)
    else:
        deg_o, cls_o = total.cls.lowest_positive_degree(), total.cls
        top, criterion = False, "top class undefined for virtual representations"
    return SwcReport(
        q=pi.table.group.q, parity=th.parity, r_or_m=th.n, ell=th.ell, degree=th.degree,
        truncation=total.ring.D, total=total.to_dict(), total_expanded=expanded,
        obstruction_degree=deg_o,
        obstruction_class=None if deg_o is None else " + ".join(cls_o.monomial_strings(deg_o)),
        top_nonzero=top, criterion=criterion)
