"""Independent brute-force verifiers: characteristic classes computed purely
from restriction to small detecting subgroups plus multiplicativity over
linear characters, and suites checking every closed formula against them.

Nothing here reuses the closed-form route: classes come from character inner
products over the center, a quaternion subgroup of order 8, or the
unitriangular subgroup, then products of (1 + w1) factors.  Each oracle reads
pi only at the classes of the subgroup it restricts to, where pi takes
rational integer values: the Q8 multiplicities are integer inner products of
pi's values at Q8's five classes with Q8's own rational table.

The suites record every failing case, a Mismatch with its diff and any other
exception with its type and message, and give each failure an `expr`:
pi's multiplicities as an `swc --rep` expression that replays the case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import binom_mod2, ord2
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
    center_ring,
    quaternion8_ring,
    restrict_q8_to_center,
    restrict_sl2odd_to_center,
    steenrod_sq,
    unipotent_ring,
)
from .groups import Group, Subgroup, build_sl2, find_quaternion, minus_one
from .swc import (
    TotalSWC,
    WrongParity,
    minus_one_class,
    quaternionic_multiplicity,
    total_swc,
    total_swc_expanded,
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


def central_involution(G: Group) -> int:
    """Index of the unique central element of order 2."""
    if G.kind == "sl2":
        if G.field.p == 2:
            raise WrongParity("SL(2,q) with even q has no central involution")
        return minus_one(G)
    found = []
    for z in range(len(G)):
        if z != G.identity and G.mult(z, z) == G.identity:
            if all(G.mult(z, x) == G.mult(x, z) for x in range(len(G))):
                found.append(z)
    if len(found) != 1:
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
    d_max = min(D, deg)
    ring = center_ring(d_max)
    cls = ring.from_monomials([(d,) for d in range(d_max + 1) if binom_mod2(b, d)])
    return TotalSWC(cls, "center")


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


def quaternion_profile(pi: VirtualRep, emb: Subgroup) -> RestrictionProfile:
    """(m0, m1, m2, m3, m4): multiplicities of the trivial, the three order-2
    characters labeled by the generators, and the 4-dimensional block, in the
    restriction along the embedding.

    Every element of Q8 has order at most 4 and is conjugate to its inverse
    inside Q8, so any character takes rational integer values on it.  The
    restriction is therefore five integers, pi at the class of each Q8 class
    representative, and each multiplicity is the integer sum
    |C| res(C) psi(C^-1) / 8 against Q8's own rational table."""
    _check_embedding(emb)
    G = pi.table.group
    K = emb.group
    if emb.parent is not G:
        raise ValueError(f"{K.name} is not contained in {G.name}")
    at = emb.indices  # at[i] is the index in G of element i of K
    qt = char_table(K)
    conj = qt.conj
    res = [pi.int_at(pi.table.conj.class_of[at[r]]) for r in conj.reps]

    def multiplicity(psi) -> int:
        tot = sum(size * v * psi.int_at(conj.inverse_class(c))
                  for c, (size, v) in enumerate(zip(conj.sizes, res)))
        if tot % 8:
            raise AssertionError(f"inner product sum {tot} is not divisible by 8")
        return tot // 8

    cx, cy = (conj.class_of[at.index(g)] for g in emb.gens)
    chi1 = chi2 = chi3 = triv = rho = None
    for i, chi in enumerate(qt.chars):
        if qt.degrees[i] == 2:
            rho = i
            continue
        vx, vy = chi.int_at(cx), chi.int_at(cy)
        if (vx, vy) == (1, 1):
            triv = i
        elif (vx, vy) == (1, -1):
            chi1 = i
        elif (vx, vy) == (-1, 1):
            chi2 = i
        else:
            chi3 = i
    m0, m1, m2, m3, k = (multiplicity(qt.chars[i]) for i in (triv, chi1, chi2, chi3, rho))
    if k % 2:
        raise BadEmbedding(f"2-dimensional constituent multiplicity {k} is odd "
                           "(input not orthogonal)")
    m4 = k // 2
    # x^2 = -1 is Q8's only element of order 2
    chi_z = res[conj.orders.index(2)]
    if m0 + m1 + m2 + m3 + 4 * m4 != pi.degree():
        raise AssertionError("degree balance failed")
    if m0 + m1 + m2 + m3 - 4 * m4 != chi_z:
        raise AssertionError("central balance failed")
    return RestrictionProfile("Q8", (m0, m1, m2, m3, m4))


def swc_from_quaternion(pi: VirtualRep, emb: Subgroup, D: int) -> TotalSWC:
    """(1+x)^m1 (1+y)^m2 (1+x+y)^m3 (1+e)^m4 from the restriction profile."""
    _require_genuine(pi)
    prof = quaternion_profile(pi, emb)
    _, m1, m2, m3, m4 = prof.mults
    d_max = min(D, pi.degree())
    ring = quaternion8_ring(d_max)
    x, y, e = ring.gen_class("x"), ring.gen_class("y"), ring.gen_class("e")
    one = ring.one()
    out = (
        (one + x).pow_int(m1)
        * (one + y).pow_int(m2)
        * (one + x + y).pow_int(m3)
        * (one + e).pow_int(m4)
    )
    return TotalSWC(out.truncate(d_max), "quaternion8")


def unipotent_character_multiplicities(pi: VirtualRep) -> list[int]:
    """Multiplicity of each additive character (indexed by a in F_q) in the
    restriction to the unitriangular subgroup; exact integer arithmetic."""
    G = pi.table.group
    if G.kind != "sl2" or G.field.p != 2:
        raise WrongParity(f"the unitriangular oracle needs SL(2,q) with q even, not {G.name}")
    F = G.field
    q = G.q
    conj = pi.table.conj
    unip = G.locate([G.arith.code(1, x, 0, 1) for x in range(q)])  # (1, x, 0, 1)
    chi_at = [pi.int_at(conj.class_of[i]) for i in unip.tolist()]
    out = []
    for a in range(q):
        tot = sum(chi_at[xx] * (-1) ** F.trace[F.mul[a][xx]] for xx in range(q))
        if tot % q:
            raise AssertionError(f"character sum {tot} is not divisible by q={q}")
        out.append(tot // q)
    if sum(out) != pi.degree():
        raise AssertionError("multiplicities do not add up to the degree")
    return out


def swc_from_unipotent(pi: VirtualRep, D: int) -> TotalSWC:
    """Product over the additive characters of (1 + w1)^multiplicity, with w1
    read off through the trace pairing against the polynomial basis."""
    _require_genuine(pi)
    G = pi.table.group
    F = G.field
    q, r = G.q, G.field.r
    mults = unipotent_character_multiplicities(pi)
    if min(mults) < 0:
        raise AssertionError(f"negative additive character multiplicity in {mults}")
    d_max = min(D, pi.degree())
    ring = unipotent_ring(r, max(d_max, 2**r - 1))
    out = ring.one()
    for a in range(1, q):
        # t^i has canonical rank 2^i; pair against the basis via the trace
        u = ring.one() + ring.from_monomials([tuple(int(j == i) for j in range(r))
                                              for i in range(r) if F.trace[F.mul[a][2**i]]])
        # multiply by the sparse factors (1+w1)^(2^j) = 1 + w1^(2^j), j in bits n
        n = mults[a]
        while n:
            if n & 1:
                out = out * u
            n >>= 1
            u = u.square()
    return TotalSWC(out.truncate(d_max), "unipotent")


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
    character multiplicities must coincide.  Raises Mismatch on failure.
    """
    G = pi.table.group
    q = G.q
    deg = pi.degree()
    d_eff = min(D, deg)
    if G.field.p != 2:
        total = total_swc(pi, d_eff)
        mapped = restrict_sl2odd_to_center(d_eff)(total.cls)
        oz = swc_from_center(pi, d_eff)
        _compare(f"q={q} closed formula vs center oracle", mapped, oz.cls)
        if emb is None:
            emb = find_quaternion(G)
        oq = swc_from_quaternion(pi, emb, d_eff)
        mq = restrict_q8_to_center(d_eff)(oq.cls)
        _compare(f"q={q} quaternion oracle vs center oracle", mq, oz.cls)
        return {
            "q": q, "parity": "odd", "degree": deg,
            "r": quaternionic_multiplicity(pi),
            "common_center_image": oz.cls.to_dict(),
        }
    expanded = total_swc_expanded(pi, d_eff)
    on = swc_from_unipotent(pi, d_eff)
    _compare(f"q={q} closed formula vs unipotent oracle", expanded.cls, on.cls)
    mults = unipotent_character_multiplicities(pi)
    nontrivial = set(mults[1:])
    if len(nontrivial) > 1:
        raise Mismatch(f"q={q} torus invariance of additive multiplicities",
                       1, str(sorted(nontrivial)), "a single value")
    ell, m = unipotent_multiplicities(pi)
    return {
        "q": q, "parity": "even", "degree": deg, "ell": ell, "m": m,
        "expanded": on.cls.to_dict(),
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
    return wu_formula_holds(w.truncate(i + j), i, j)


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
