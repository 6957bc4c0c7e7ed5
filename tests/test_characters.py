import hashlib
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from sl2swc.algebra import NotRationalInteger
from sl2swc.characters import (
    BadConstructionParams,
    ClassFunction,
    LiftFailure,
    NotIndicator,
    NotOrthogonal,
    VirtualRep,
    _certified_table,
    _check_class_algebra,
    _check_int64,
    _check_spectra,
    _draw_until,
    _logs,
    _modulus,
    _nullspace_mod,
    _power_mod,
    _root,
    _root_of_unity,
    _spectra,
    _split,
    char_table,
    check_exponent,
    cuspidal_sl,
    decompose_orthogonal,
    fs_indicator,
    induce,
    is_orthogonal_virtual,
    oir_labels,
    principal_series_sl,
    random_genuine_rep,
    random_orthogonal_rep,
    regular_rep,
    rep_from_class_function,
    rep_from_oir_blocks,
    restrict,
    structure_constants,
    symmetrize,
    trivial_rep,
)
from sl2swc.groups import (
    Group,
    build_gl2,
    build_sl2,
    conjugacy,
    gen_quaternion,
    minus_one,
    standard_subgroup,
    subgroup_from_indices,
)
from zeta_ref import integer, lift, product_sum


def _single(table, i):
    mults = [0] * table.nchars()
    mults[i] = 1
    return VirtualRep(table, mults)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_degrees_sl22():
    assert sorted(char_table(build_sl2(2)).degrees) == [1, 1, 2]


def test_degrees_sl23():
    t = char_table(build_sl2(3))
    assert sorted(t.degrees) == [1, 1, 1, 2, 2, 2, 3]
    assert sum(d * d for d in t.degrees) == 24


def test_degrees_sl25():
    t = char_table(build_sl2(5))
    assert t.nchars() == 9
    assert max(t.degrees) == 6
    assert sum(d * d for d in t.degrees) == 120


def test_regular_character_decomposition():
    # multiplicity of each irreducible in the regular character is its degree
    t = char_table(build_sl2(3))
    reg = regular_rep(t).character()
    for i, chi in enumerate(t.chars):
        assert reg.inner(chi) == t.degrees[i]


@pytest.mark.parametrize("q,kind", [(2, "sl2"), (3, "sl2"), (4, "sl2"), (5, "sl2"),
                                    (3, "gl2"), (5, "gl2")])
def test_orthogonality(q, kind):
    G = build_sl2(q) if kind == "sl2" else build_gl2(q)
    t = char_table(G)
    assert sum(d * d for d in t.degrees) == len(G)
    # row orthogonality, exact
    for a in range(t.nchars()):
        for b in range(a, t.nchars()):
            got = t.chars[a].inner(t.chars[b])
            assert got == (1 if a == b else 0)
    # column orthogonality, exact in Z[zeta_m] on the serialized coefficients
    conj = t.conj
    for c1 in range(conj.nclasses()):
        for c2 in range(c1, conj.nclasses()):
            c3 = conj.inverse_class(c2)
            tot = product_sum(t.m, [(row[c1], row[c3]) for row in t.coeffs])
            assert tot == integer(t.m, len(G) // conj.sizes[c1] if c1 == c2 else 0)


def _residues(t):
    """The table mod l: each value evaluated at zeta_m -> z, as the cache load does."""
    l = _modulus(t.group, t.conj)
    z = _root_of_unity(t.m, l)
    X = [[sum(a * pow(z, i, l) for i, a in enumerate(v)) % l for v in row] for row in t.coeffs]
    return l, np.array(X, dtype=np.int64)


def _moved_eigenvalue(q):
    """The spectra of the SL(2,q) table, q odd, and a copy in which one
    eigenvalue of one character at the class of -1 moved from 1 to -1."""
    t = char_table(build_sl2(q))
    conj = t.conj
    l, X = _residues(t)
    spectra = _spectra(conj, X, l)
    c = conj.class_of[minus_one(t.group)]
    a = next(a for a in range(t.nchars()) if spectra[c][a, 0])
    bad = [mu.copy() for mu in spectra]
    bad[c][a] += (-1, 1)
    return t, X, spectra, bad


def test_orthogonality_check_rejects_a_non_integral_inner_product():
    # moving one eigenvalue from 1 to -1 at the central class changes chi(-1)
    # by 2: the multiplicities still sum to the degree and the class of order
    # 2 has no Galois conjugate, but <chi, chi> moves by a non-integer
    t, X, spectra, bad = _moved_eigenvalue(11)
    d = X[:, t.conj.class_of[t.group.identity]]
    _check_spectra(t.conj, spectra, d, len(t.group))
    with pytest.raises(LiftFailure, match="row orthogonality failed"):
        _check_spectra(t.conj, bad, d, len(t.group))


def test_certificate_rejects_a_moved_eigenvalue():
    # the same fault planted in the residues, through the whole certificate:
    # X at -1 is the inverse Fourier transform of the moved spectrum
    t, X, spectra, bad = _moved_eigenvalue(11)
    G, conj = t.group, t.conj
    l = _modulus(G, conj)
    struct = structure_constants(G, conj)
    assert _certified_table(G, conj, l, struct, X).coeffs == t.coeffs
    c = conj.class_of[minus_one(G)]
    X_bad = X.copy()
    X_bad[:, c] = (bad[c][:, 0] - bad[c][:, 1]) % l
    with pytest.raises(LiftFailure):
        _certified_table(G, conj, l, struct, X_bad)


def test_spectra_must_be_galois_compatible():
    # moving an eigenvalue at a class of order q + 1 without its Galois
    # conjugates breaks chi(c^k) = sigma_k(chi(c))
    t = char_table(build_sl2(11))
    conj = t.conj
    l, X = _residues(t)
    spectra = _spectra(conj, X, l)
    c = conj.orders.index(12)
    a = next(a for a in range(t.nchars()) if spectra[c][a, 1])
    moved = [mu.copy() for mu in spectra]
    moved[c][a, [0, 1]] += (1, -1)
    d = X[:, conj.class_of[t.group.identity]]
    with pytest.raises(LiftFailure, match="disagree"):
        _check_spectra(conj, moved, d, len(t.group))
    # and the multiplicities at a class must add up to the degree
    extra = [mu.copy() for mu in spectra]
    extra[conj.class_of[t.group.identity]][a, 0] += 1
    with pytest.raises(LiftFailure, match="do not sum to the degree"):
        _check_spectra(conj, extra, d, len(t.group))


def test_class_algebra_check_rejects_a_sum_of_characters():
    # chi_1 + chi_2, scaled to 1 at the identity, is no homomorphism of the
    # class algebra
    t = char_table(build_sl2(5))
    G, conj = t.group, t.conj
    l, X = _residues(t)
    struct = structure_constants(G, conj)
    sizes = np.array(conj.sizes, dtype=np.int64)
    d = X[:, conj.class_of[G.identity]]
    omega = X * sizes % l * np.array([pow(int(x), -1, l) for x in d])[:, None] % l
    _check_class_algebra(struct, omega, l)
    mixed = X[1] + X[2]
    omega[0] = mixed * sizes % l * pow(int(mixed[conj.class_of[G.identity]]), -1, l) % l
    with pytest.raises(LiftFailure, match="class-algebra"):
        _check_class_algebra(struct, omega, l)


def test_certificate_rejects_a_degree_above_half_of_l():
    # -chi has the degree l - chi(1) mod l; its spectra are those of chi
    # negated, which no degree bound below l/2 admits
    t = char_table(build_sl2(5))
    G, conj = t.group, t.conj
    l, X = _residues(t)
    X[-1] = -X[-1] % l
    with pytest.raises(LiftFailure, match="between 0 and l/2"):
        _certified_table(G, conj, l, structure_constants(G, conj), X)
    with pytest.raises(LiftFailure, match="8 characters for 9 classes"):
        _certified_table(G, conj, l, structure_constants(G, conj), X[1:])


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def test_fs_trivial():
    t = char_table(build_sl2(5))
    assert fs_indicator(t.chars[t.trivial_index()]) == 1


def test_fs_sl23_degree2():
    t = char_table(build_sl2(3))
    signs = [t.fs[i] for i in range(t.nchars()) if t.degrees[i] == 2]
    # exactly one symplectic degree-2 irreducible; the others form a dual pair
    assert sorted(signs) == [-1, 0, 0]


def test_fs_q8_rho():
    t = char_table(gen_quaternion(3))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 2)
    assert t.fs[i] == -1


def test_fs_rejects_reducible():
    t = char_table(build_sl2(3))
    with pytest.raises(NotIndicator):
        fs_indicator(regular_rep(t).character())


@pytest.mark.parametrize("q", [3, 5])
def test_gow_formula(q):
    t = char_table(build_sl2(q))
    assert t.omega_minus1 is not None
    for i in range(t.nchars()):
        if t.dual[i] == i:
            assert t.fs[i] == t.omega_minus1[i]


@pytest.mark.parametrize("q", [2, 4])
def test_even_q_all_orthogonal(q):
    t = char_table(build_sl2(q))
    assert all(f == 1 for f in t.fs)


# ---------------------------------------------------------------------------
# induction / restriction
# ---------------------------------------------------------------------------

def test_induce_trivial_from_whole_group():
    G = build_sl2(3)
    t = char_table(G)
    whole = subgroup_from_indices(G, range(len(G)), "G")
    chi = restrict(t.chars[t.trivial_index()], whole.group)
    ind = induce(whole, chi, G)
    assert ind == t.chars[t.trivial_index()]


def test_induce_degree_multiplies_by_index():
    G = build_gl2(3)
    B = standard_subgroup(G, "B")
    tb = char_table(B.group)
    chi = tb.chars[tb.trivial_index()]
    ind = induce(B, chi, G)
    assert ind.degree() == len(G) // len(B.group)


def test_frobenius_reciprocity():
    G = build_gl2(3)
    B = standard_subgroup(G, "B")
    tb = char_table(B.group)
    tg = char_table(G)
    for chi in tb.chars[:3]:
        ind = induce(B, chi, G)
        for psi in tg.chars:
            lhs = ind.inner(psi)
            rhs = restrict(psi, B.group).inner(chi)
            assert lhs == rhs


def _induce_by_definition(H, chi, G):
    """(1/|H|) sum over x in G with x^-1 g x in H of chi(x^-1 g x), summing
    over all of G: counts[c] is the number of x with x^-1 g x in the class c
    of H."""
    conj_g, conj_h = conjugacy(G), conjugacy(H.group)
    X = np.arange(len(G))
    h_cls = np.asarray(conj_h.class_of)
    values = []
    for g, o in zip(conj_g.reps, conj_g.orders):
        y = H.group.locate(G.codes[G.mul_many(G.inverses, G.mul_many(g, X))])
        counts = np.bincount(h_cls[y[y >= 0]], minlength=conj_h.nclasses()).tolist()
        total = np.zeros(o, dtype=object)
        for c, n in enumerate(counts):
            if n:
                total += chi.values[c].astype(object) * n
        if any(x % len(H.group) for x in total):
            raise AssertionError("a sum over G is not divisible by |H|")
        values.append(total // len(H.group))
    return ClassFunction(G, conj_g, values)


INDUCE_CASES = [("gl2", q, tag) for q in (3, 5) for tag in ("Z", "N", "ZN", "T", "B", "Te")] \
    + [("sl2", 5, tag) for tag in ("Z", "N", "ZN", "T", "B")]


@pytest.mark.parametrize("kind, q, tag", INDUCE_CASES,
                         ids=[f"{k}-{q}-{t}" for k, q, t in INDUCE_CASES])
def test_induce_matches_the_sum_over_the_group(kind, q, tag):
    G = (build_gl2 if kind == "gl2" else build_sl2)(q)
    H = standard_subgroup(G, tag)
    for psi in char_table(G).chars:
        chi = restrict(psi, H.group)
        assert induce(H, chi, G) == _induce_by_definition(H, chi, G), psi


def test_induce_takes_no_group_products(monkeypatch):
    G = build_gl2(5)
    B = standard_subgroup(G, "B")
    chi = restrict(char_table(G).chars[-1], B.group)  # caches both conjugacy tables
    calls = []
    real = Group.mul_many

    def counted(self, I, J):
        calls.append(self.name)
        return real(self, I, J)

    monkeypatch.setattr(Group, "mul_many", counted)
    induce(B, chi, G)
    assert calls == []


def test_induce_rejects_a_foreign_subgroup():
    G = build_gl2(3)
    B = standard_subgroup(build_gl2(5), "B")
    chi = char_table(B.group).chars[0]
    with pytest.raises(ValueError, match="cannot induce"):
        induce(B, chi, G)


def test_restrict_rho_to_center_is_twice_sign():
    Q = gen_quaternion(3)
    t = char_table(Q)
    z = next(i for i in range(8) if i != Q.identity and Q.mult(i, i) == Q.identity)
    Z = subgroup_from_indices(Q, [Q.identity, z], "Z")
    rho = t.chars[next(i for i in range(t.nchars()) if t.degrees[i] == 2)]
    res = restrict(rho, Z.group)
    zc = res.conj.class_of_elem(Q.elem(z))
    assert res.degree() == 2 and res.int_at(zc) == -2  # sgn + sgn


def test_restrict_rejects_a_group_outside_the_parent():
    t = char_table(build_sl2(3))
    with pytest.raises(ValueError):
        restrict(t.chars[0], gen_quaternion(3))
    with pytest.raises(ValueError):
        restrict(t.chars[0], build_sl2(5))
    # a group over another field: its codes read as F_3 matrices would be
    # elements of SL(2,3), e.g. the F_2 matrix (1,1,0,1)
    with pytest.raises(ValueError, match="not contained"):
        restrict(t.chars[3], standard_subgroup(build_sl2(2), "N").group)
    with pytest.raises(ValueError, match="not contained"):
        restrict(t.chars[3], standard_subgroup(build_sl2(4), "Z").group)


# ---------------------------------------------------------------------------
# symmetrization and orthogonal decomposition
# ---------------------------------------------------------------------------

def test_symmetrize_trivial():
    t = char_table(build_sl2(3))
    s = symmetrize(trivial_rep(t))
    assert s.mults[t.trivial_index()] == 2


def test_symmetrize_rho_on_q8():
    t = char_table(gen_quaternion(3))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 2)
    s = symmetrize(_single(t, i))
    assert s.degree() == 4
    Q = t.group
    z = next(i for i in range(8) if i != Q.identity and Q.mult(i, i) == Q.identity)
    assert s.int_at(t.conj.class_of[z]) == -4


def test_symmetrize_pi0():
    t = char_table(build_sl2(3))
    i0 = next(i for i in range(t.nchars()) if t.degrees[i] == 2 and t.fs[i] == -1)
    s = symmetrize(_single(t, i0))
    assert s.degree() == 4
    assert decompose_orthogonal(s) == {("S", i0): 1}


def test_symmetrization_is_real_and_doubles_degree():
    t = char_table(build_sl2(5))
    for i in range(t.nchars()):
        s = symmetrize(_single(t, i))
        assert s.degree() == 2 * t.degrees[i]
        cf = s.character()
        assert cf.dual() == cf


def test_decompose_regular_sl23():
    t = char_table(build_sl2(3))
    blocks = decompose_orthogonal(regular_rep(t))
    # each orthogonal irreducible appears deg times; pairs/symplectics as S-blocks
    for i in range(t.nchars()):
        if t.fs[i] == 1:
            assert blocks[("irr", i)] == t.degrees[i]
    total = sum(
        (t.degrees[i] if kind == "irr" else 2 * t.degrees[i]) * n
        for (kind, i), n in blocks.items()
    )
    assert total == 24


def test_decompose_rejects_symplectic_alone():
    t = char_table(build_sl2(3))
    i0 = next(i for i in range(t.nchars()) if t.degrees[i] == 2 and t.fs[i] == -1)
    with pytest.raises(NotOrthogonal):
        decompose_orthogonal(_single(t, i0))
    assert not is_orthogonal_virtual(_single(t, i0))


def test_virtual_orthogonality():
    t = char_table(build_sl2(5))
    i0 = next(i for i in range(t.nchars()) if t.fs[i] == -1)
    pi = symmetrize(_single(t, i0))
    neg = VirtualRep(t, [0] * t.nchars()) - pi
    assert is_orthogonal_virtual(neg)
    assert not neg.is_genuine()


# ---------------------------------------------------------------------------
# principal series / cuspidal constructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7])
def test_psc_degrees_and_indicators(q):
    pi1 = principal_series_sl(q, 1)
    assert pi1.degree() == q + 1
    pi2 = cuspidal_sl(q, 1)
    assert pi2.degree() == q - 1
    # restrictions are irreducible and symplectic
    assert pi1.character().inner(pi1.character()) == 1
    assert pi2.character().inner(pi2.character()) == 1
    assert fs_indicator(pi1.character()) == -1
    assert fs_indicator(pi2.character()) == -1


def test_ps_restriction_stays_irreducible():
    cf = principal_series_sl(5, 1).character()
    assert cf.inner(cf) == 1
    assert cf.dual() == cf


def test_cusp_q3_is_the_symplectic_2dim():
    pi = cuspidal_sl(3, 1)
    t = pi.table
    i0 = next(i for i in range(t.nchars()) if t.degrees[i] == 2 and t.fs[i] == -1)
    assert pi.mults[i0] == 1 and sum(pi.mults) == 1


def test_bad_construction_params():
    for build, q, k in [(principal_series_sl, 5, 0),    # alpha(-1) = 1
                        (principal_series_sl, 5, 2),    # even exponent
                        (principal_series_sl, 3, 1),    # alpha^2 = 1 forced
                        (cuspidal_sl, 5, 12),           # chi(-1) = 1
                        (cuspidal_sl, 4, 1),            # even characteristic
                        (cuspidal_sl, 5, (5 * 5 - 1) // 2)]:  # chi^2 = 1
        with pytest.raises(BadConstructionParams):
            build(q, k)
        with pytest.raises(BadConstructionParams):
            check_exponent("ps" if build is principal_series_sl else "cusp", q, k)


# The old route, kept only as a reference: induce inside GL(2,q), then restrict.
def _gl_principal_series(q, k):
    """Ind_B^GL (alpha x 1), alpha(gen^j) = zeta_{q-1}^{kj}."""
    G = build_gl2(q)
    F = G.field
    B = standard_subgroup(G, "B")
    dlog = _logs(lambda a, b: F.mul[a][b], 1, range(2, q), q - 1)
    conj = conjugacy(B.group)
    vals = [_root(o, q - 1, k * dlog[B.group.elem(r)[0]]) for r, o in zip(conj.reps, conj.orders)]
    return induce(B, ClassFunction(B.group, conj, vals), G)


def _gl_cuspidal(q, k):
    """Ind_ZN^GL theta - Ind_Te^GL chi, chi(gen^j) = zeta_{q^2-1}^{kj} on the
    elliptic torus, theta(s, x; 0, s) = chi(s) zeta_p^{Tr(x/s)}."""
    G = build_gl2(q)
    F, p, n = G.field, G.field.p, q * q - 1
    Te, ZN = standard_subgroup(G, "Te"), standard_subgroup(G, "ZN")
    dlog = _logs(Te.group.mult, Te.group.identity, range(len(Te.group)), n)
    conj = conjugacy(Te.group)
    chi = ClassFunction(Te.group, conj,
                        [_root(o, n, k * dlog[r]) for r, o in zip(conj.reps, conj.orders)])
    conj = conjugacy(ZN.group)
    vals = []
    for r, o in zip(conj.reps, conj.orders):
        s, x, _, _ = ZN.group.elem(r)
        e = p * k * dlog[Te.group.find((s, 0, 0, s))] + n * int(F.trace[F.mul[x, F.inv[s]]])
        vals.append(_root(o, p * n, e))
    return induce(ZN, ClassFunction(ZN.group, conj, vals), G) - induce(Te, chi, G)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_sl_constructions_equal_the_restricted_gl_inductions(q):
    G = build_sl2(q)
    for k in (1, 3, 5):
        for build, ref in ((principal_series_sl, _gl_principal_series),
                           (cuspidal_sl, _gl_cuspidal)):
            if build is principal_series_sl and (2 * k) % (q - 1) == 0:
                continue   # alpha^2 = 1: refused
            want = restrict(ref(q, k), G)
            assert want.degree() == (q + 1 if build is principal_series_sl else q - 1)
            assert build(q, k).character() == want, (build.__name__, k)


def test_cusp_independent_of_additive_character():
    # the induced construction must not depend on which nontrivial additive
    # character is chosen; compare against the fixed-choice result
    q = 5
    pi = cuspidal_sl(q, 1)
    # all nontrivial additive characters are conjugate under the torus, so the
    # decomposition of the cuspidal over SL must be a single irreducible
    assert sum(abs(m) for m in pi.mults) == 1


# The constituents X_i (numbered in table order) of ps(k) and cusp(k)
# restricted to SL(2,q), for k = 1, 3, 5, 7: one index for an irreducible
# restriction, a tuple for a sum of two, None where the exponent is refused.
# Pinned from the build that summed values as normal forms in Z[zeta_m].
PS_CUSP = {
    3: {"ps": (None, None, None, None), "cusp": (6, 6, 6, 6)},
    5: {"ps": (9, 9, 9, 9), "cusp": (6, (2, 3), 6, 6)},
    7: {"ps": (11, None, 11, 11), "cusp": (6, 7, 7, 6)},
    9: {"ps": (12, 13, 13, 12), "cusp": (8, 9, (2, 3), 9)},
    11: {"ps": (15, 13, None, 13), "cusp": (8, 9, 7, 7)},
    13: {"ps": (15, 14, 16, 16), "cusp": (6, 10, 8, (2, 3))},
}


@pytest.mark.parametrize("q", sorted(PS_CUSP))
def test_ps_and_cusp_constituents_are_pinned(q):
    for kind, build in (("ps", principal_series_sl), ("cusp", cuspidal_sl)):
        for k, want in zip((1, 3, 5, 7), PS_CUSP[q][kind]):
            if want is None:
                with pytest.raises(BadConstructionParams):
                    build(q, k)
                continue
            mults = build(q, k).mults
            want = (want,) if isinstance(want, int) else want
            assert mults == tuple(int(i + 1 in want) for i in range(len(mults))), (kind, k)


def test_rep_from_class_function_roundtrip():
    t = char_table(build_sl2(5))
    rng = random.Random(42)
    mults = [rng.randrange(-2, 3) for _ in range(t.nchars())]
    pi = VirtualRep(t, mults)
    back = rep_from_class_function(t, pi.character())
    assert back.mults == pi.mults


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_value_at_is_the_summed_character(q):
    # reference: sum_i n_i chi_i(c) over the serialized coefficients, in Z[zeta_m]
    t = char_table(build_sl2(q))
    rng = random.Random(q)
    reps = [regular_rep(t), regular_rep(t) - trivial_rep(t).scaled(3)]
    reps += [random_genuine_rep(t, rng, max_degree=100) for _ in range(4)]
    for pi in reps:
        whole = pi.character()
        fresh = VirtualRep(t, pi.mults)  # asked class by class, never whole
        for c in range(t.conj.nclasses()):
            want = product_sum(t.m, [(row[c], (n,)) for row, n in zip(t.coeffs, pi.mults)])
            assert lift(t.m, fresh.value_at(c)) == want == lift(t.m, whole.values[c])
            assert lift(t.m, pi.value_at(c)) == want


def test_int_at_rejects_an_irrational_value():
    # a degree-3 character of SL(2,5) (of A5) is (1 +- sqrt 5) / 2 at order 5
    t = char_table(build_sl2(5))
    chi = t.chars[t.degrees.index(3)]
    c = t.conj.orders.index(5)
    with pytest.raises(NotRationalInteger):
        chi.int_at(c)
    with pytest.raises(NotRationalInteger):
        _single(t, t.degrees.index(3)).int_at(c)
    # the difference of the two is +-sqrt 5 there, and i at an order-4 class:
    # both have trace 0, so only the check of the whole vector refuses them
    a, b = (i for i, d in enumerate(t.degrees) if d == 3)
    with pytest.raises(NotRationalInteger):
        (t.chars[a] - t.chars[b]).int_at(c)
    with pytest.raises(NotRationalInteger):
        ClassFunction(t.group, t.conj, [np.eye(1, o, 1 % o, dtype=np.int64)[0]
                                        for o in t.conj.orders]).int_at(t.conj.orders.index(4))
    assert (t.chars[a] - t.chars[b]).int_at(t.conj.orders.index(4)) == 0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9]), st.randoms(use_true_random=False))
def test_inner_of_virtual_characters_is_the_dot_product(q, rng):
    t = char_table(build_sl2(q))
    a = [rng.randrange(-3, 4) for _ in range(t.nchars())]
    b = [rng.randrange(-3, 4) for _ in range(t.nchars())]
    want = sum(x * y for x, y in zip(a, b))
    assert VirtualRep(t, a).character().inner(VirtualRep(t, b).character()) == want
    assert rep_from_class_function(t, VirtualRep(t, a).character()).mults == tuple(a)


def test_rep_from_class_function_rejects_a_non_character():
    # 1 at the identity and 0 elsewhere has <delta, chi> = chi(1) / |G|
    t = char_table(build_sl2(5))
    delta = ClassFunction(t.group, t.conj, [np.eye(1, o, dtype=np.int64)[0] * (o == 1)
                                            for o in t.conj.orders])
    assert delta.scaled(len(t.group)) == regular_rep(t).character()
    with pytest.raises(NotRationalInteger):
        rep_from_class_function(t, delta)


def test_equality_reads_values_not_representatives():
    # 1 + zeta_3 + zeta_3^2 = 0: the vector (1, 1, 1) stands for 0 at order 3
    t = char_table(build_sl2(5))
    chi = t.chars[-1]
    c = t.conj.orders.index(3)
    moved = list(chi.values)
    moved[c] = moved[c] + 1
    assert ClassFunction(t.group, t.conj, moved) == chi
    moved[c] = moved[c] + np.array([1, 0, 0])
    assert ClassFunction(t.group, t.conj, moved) != chi


# ---------------------------------------------------------------------------
# the modular kernels of Dixon's method, against brute force mod a small prime
# ---------------------------------------------------------------------------

def _vectors(p, t):
    return np.array(list(itertools.product(range(p), repeat=t)), dtype=np.int64).reshape(p ** t, t)


def _random_matrix(rng, p, t, u, rank):
    """A t x u matrix mod p of rank at most `rank`."""
    B = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(t)], dtype=np.int64)
    C = np.array([[rng.randrange(p) for _ in range(u)] for _ in range(rank)], dtype=np.int64)
    return B.reshape(t, rank) @ C.reshape(rank, u) % p


def _left_kernel_cases():
    rng = random.Random(5)
    p = 5
    yield p, np.zeros((3, 4), dtype=np.int64)
    yield p, np.eye(4, dtype=np.int64)
    yield p, np.array([[1, 2, 3], [0, 4, 1], [2, 2, 0]], dtype=np.int64)  # det 3, full rank
    yield p, np.zeros((2, 0), dtype=np.int64)
    for _ in range(12):
        t, u = rng.randrange(1, 5), rng.randrange(1, 5)
        yield p, _random_matrix(rng, p, t, u, rng.randrange(0, min(t, u) + 1))


@pytest.mark.parametrize("p,A", _left_kernel_cases())
def test_nullspace_mod_is_the_left_kernel(p, A):
    t = len(A)
    N = _nullspace_mod(A, p)
    assert N.shape[1] == t and not (N @ A % p).any()
    X = _vectors(p, t)
    kernel = {tuple(x) for x in X[~(X @ A % p).any(axis=1)]}
    rank = round(math.log(len({tuple(y) for y in X @ A % p}), p))
    assert len(N) == t - rank
    # the rows span the whole kernel, and independently: p^k combinations, all distinct
    span = {tuple(c) for c in _vectors(p, len(N)) @ N % p}
    assert span == kernel and len(kernel) == p ** len(N)


@pytest.mark.parametrize("seed", range(8))
def test_power_mod_against_repeated_products(seed):
    rng = random.Random(seed)
    p = 7
    t = rng.randrange(1, 6)
    A = np.array([[rng.randrange(p) for _ in range(t)] for _ in range(t)], dtype=np.int64)
    want = np.eye(t, dtype=np.int64)
    for e in range(20):
        assert (_power_mod(A, e, p) == want).all(), e
        want = want @ A % p


def _rank_mod(A, l):
    return len(A) - len(_nullspace_mod(A, l))


def _same_span(A, B, l):
    return len(A) == len(B) == _rank_mod(np.concatenate([A, B]), l)


def test_split_by_the_quadratic_character_of_the_eigenvalues():
    # M = S^-1 diag(lam) S mod 13, so the rows of S are its left eigenvectors:
    # the eigenvalues 1, 4, 12, 3 are squares, 2, 7 non-squares, and 0 twice
    l = 13
    lam = [1, 4, 12, 2, 7, 0, 0, 3]
    t = len(lam)
    rng = random.Random(1)
    S, S_inv = np.eye(t, dtype=np.int64), np.eye(t, dtype=np.int64)
    for _ in range(40):   # row operations, and their inverses on the other side
        i, j = rng.sample(range(t), 2)
        k = rng.randrange(1, l)
        S[j] = (S[j] + k * S[i]) % l
        S_inv[:, i] = (S_inv[:, i] - k * S_inv[:, j]) % l
    assert (S @ S_inv % l == np.eye(t, dtype=np.int64)).all()
    M = S_inv @ np.diag(lam) % l @ S % l

    parts = _split([np.eye(t, dtype=np.int64)], M, l)
    want = [[0, 1, 2, 7], [3, 4], [5, 6]]   # squares, non-squares, 0
    assert len(parts) == 3
    for V, rows in zip(parts, want):
        assert _same_span(V, S[rows], l)

    # each space is cut on its own; a space inside one part, or of
    # dimension 1, stays whole
    parts = _split([S[[0, 3, 5]], S[[1, 2]], S[[4]]], M, l)
    assert [len(V) for V in parts] == [1, 1, 1, 2, 1]
    for V, rows in zip(parts, [[0], [3], [5], [1, 2], [4]]):
        assert _same_span(V, S[rows], l)


def test_int64_bound():
    _check_int64(85, 2 ** 24)   # q = 81: s = 85 classes, l < 2^24
    bound = math.isqrt((2 ** 63 - 1) // 85)  # the largest l - 1 whose products fit
    _check_int64(85, bound + 1)
    with pytest.raises(LiftFailure):
        _check_int64(85, bound + 2)


def test_int64_guard_runs_before_the_structure_constants(monkeypatch):
    from sl2swc import characters

    def never(*args):
        raise AssertionError("allocated the structure constants")

    monkeypatch.setattr(characters, "smallest_prime_in_progression", lambda *a: 2 ** 31 - 1)
    monkeypatch.setattr(characters, "structure_constants", never)
    with pytest.raises(LiftFailure, match="overflow int64"):
        char_table(build_sl2.__wrapped__(3))   # a fresh group, no cached table


@pytest.mark.parametrize("build,q", [(build_sl2, 3), (build_gl2, 9)],
                         ids=["SL(2,3)", "GL(2,9)"])
def test_a_repeated_eigenvalue_leaves_its_space_whole(build, q):
    # the combination sum 3^i M_i has a repeated eigenvalue on these groups:
    # no split by it, shifted or not, can cut that eigenspace, and the
    # random combinations of char_table separate the characters all the same
    G = build(q)
    t = char_table(G)
    conj = t.conj
    s = conj.nclasses()
    l, X = _residues(t)
    omega = X * np.array(conj.sizes) % l
    omega = omega * np.array([pow(int(d), -1, l) for d in t.degrees])[:, None] % l
    weights = np.array([pow(3, i, l) for i in range(s)], dtype=np.int64)
    eigenvalues = omega @ weights % l
    lam, mult = Counter(eigenvalues.tolist()).most_common(1)[0]
    assert mult > 1
    mats = np.transpose(structure_constants(G, conj) % l, (0, 2, 1))
    M = np.tensordot(weights, mats, axes=1) % l
    E = _nullspace_mod(M - lam * np.eye(s, dtype=np.int64), l)
    assert len(E) == mult
    for shift in (0, 1, 2, l - lam):
        parts = _split([E], (M + shift * np.eye(s, dtype=np.int64)) % l, l)
        assert len(parts) == 1 and _same_span(parts[0], E, l)
    assert len(t.chars) == s


def test_dixon_gives_up_after_its_rounds(monkeypatch):
    # one round cuts a space into at most three parts, too few for 9 classes
    from sl2swc import characters

    monkeypatch.setattr(characters, "DIXON_ROUNDS", 1)
    with pytest.raises(LiftFailure, match="failed to separate"):
        char_table(build_sl2.__wrapped__(5))   # a fresh group, no cached table


def test_sl2_49_table_is_pinned():
    # sha256 of the coefficients of char_table(build_sl2(49)), taken when
    # Dixon's method still split by characteristic polynomials
    t = char_table(build_sl2(49))
    blob = json.dumps([[list(v) for v in row] for row in t.coeffs]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "bed11d410d9307cd3d67999fea0e9043b84d6ed7541d295c3990bd82abde3815")


def test_sl2_29_table_is_pinned():
    # sha256 of the coefficients of char_table(build_sl2(29)), taken when each
    # spectrum was folded by a long division by Phi_12180 (912 nonzero terms,
    # the most of any exponent up to q = 32)
    t = char_table(build_sl2(29))
    blob = json.dumps([[list(v) for v in row] for row in t.coeffs]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "d31abeca0bfcff0b8d2fc58a982b096be4bae7eb998eab5983189709716d7bf1")


@pytest.mark.parametrize("kind, q", [("sl2", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                                         19, 23, 25, 27, 29, 31, 32)]
                         + [("gl2", q) for q in (2, 3, 4, 5, 7)])
def test_folds_match_the_reference_lift(kind, q):
    # each distinct (order, spectrum), folded through the power rows, against
    # a long division by Phi_m
    t = char_table((build_sl2 if kind == "sl2" else build_gl2)(q))
    seen = {}
    for c, (o, mu) in enumerate(zip(t.conj.orders, t.spectra)):
        for a, row in enumerate(mu.tolist()):
            key = (o, tuple(row))
            if key not in seen:
                seen[key] = lift(t.m, row)
            assert t.coeffs[a][c] == seen[key]
    assert len(seen) > t.nchars()


def test_fold_refuses_a_product_outside_int64():
    # R_2 holds zeta_2^0 = 1 and zeta_2^1 = -1 in Z[zeta_2] = Z
    from sl2swc.characters import _fold

    assert _fold(2, [2], [np.array([[2 ** 62, 2 ** 62 - 1]])]) == [[(1,)]]
    with pytest.raises(LiftFailure, match="outside int64"):
        _fold(2, [2], [np.array([[2 ** 62, 2 ** 62]])])


# sha256 prefixes of the draws below, pinned before the draws came in batches
RANDOM_REP_DIGESTS = {8: "8a04b7d3de15c2f0", 9: "4614ae345aacab0e",
                      16: "b13774b971084fd3", 25: "4a5511c84e2763b9"}


@pytest.mark.parametrize("q", sorted(RANDOM_REP_DIGESTS))
def test_random_reps_are_pinned(q):
    # the seeded suites replay their cases from these draws: the same seed
    # must give the same representations, and leave rng in the same state
    t = char_table(build_sl2(q))
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(10):
            for pi in (random_orthogonal_rep(t, rng), random_orthogonal_rep(t, rng, max_degree=300),
                       random_genuine_rep(t, rng), random_genuine_rep(t, rng, max_degree=60)):
                h.update(repr(pi.mults).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest()[:16] == RANDOM_REP_DIGESTS[q]


def test_random_orthogonal_rep_stops_at_the_first_draw_past_the_bound():
    t = char_table(build_sl2(9))
    for seed in range(20):
        pi = random_orthogonal_rep(t, random.Random(seed), max_degree=100)
        assert pi.degree() <= 100 and is_orthogonal_virtual(pi)
        assert pi.degree() + 2 * max(t.degrees) > 100   # the last draw did not fit
    assert random_orthogonal_rep(t, random.Random(0), max_degree=0).degree() == 0


def _orthogonal_rep_by_choice(table, rng, max_degree):
    """random_orthogonal_rep as one rng.choice call per block: the reference
    the word-batched draw must replay."""
    labels = oir_labels(table)
    top = max(d for _, d in labels)
    blocks = Counter()
    deg = 0
    while True:
        batch = [rng.choice(labels) for _ in range(max(1, (max_degree - deg) // top))]
        if deg + batch[-1][1] > max_degree:   # only a batch of one can pass
            return rep_from_oir_blocks(table, blocks)
        labs, degs = zip(*batch)
        blocks.update(labs)
        deg += sum(degs)


def _counts_by_randrange(degrees, rng, max_degree):
    """How often each index is drawn by one rng.randrange call per draw, up
    to the first draw that would pass max_degree."""
    counts = [0] * len(degrees)
    deg = 0
    while True:
        i = rng.randrange(len(degrees))
        if deg + degrees[i] > max_degree:
            return counts
        counts[i] += 1
        deg += degrees[i]


def _genuine_rep_by_randrange(table, rng, max_degree):
    """random_genuine_rep as one rng.randrange call per character."""
    return VirtualRep(table, _counts_by_randrange(table.degrees, rng, max_degree))


@pytest.mark.parametrize("q", [3, 4, 8, 9, 16])
def test_word_batched_draws_replay_the_draw_loops(q):
    # one generator per seed runs through every bound and both samplers, so
    # each draw also starts where the previous one left the stream
    t = char_table(build_sl2(q))
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for max_degree in (0, 1, 100, 300, 2000):
            assert (random_orthogonal_rep(t, rng, max_degree).mults
                    == _orthogonal_rep_by_choice(t, ref, max_degree).mults)
            assert rng.getstate() == ref.getstate()
            assert (random_genuine_rep(t, rng, max_degree).mults
                    == _genuine_rep_by_randrange(t, ref, max_degree).mults)
            assert rng.getstate() == ref.getstate()


class _CountingRandom(random.Random):
    """random.Random that records the width of each getrandbits call; it
    draws as random.Random does, since randrange still goes through
    getrandbits."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_a_short_word_batch_is_followed_by_another():
    # with one heavy index the number of draws varies widely around its
    # mean, so some seeds need a second batch of words
    degrees = [1, 1000]
    batches = []
    for seed in range(200):
        rng, ref = _CountingRandom(seed), random.Random(seed)
        assert _draw_until(rng, degrees, 2000) == _counts_by_randrange(degrees, ref, 2000)
        assert rng.getstate() == ref.getstate()
        batches.append(len(rng.widths) - 1)   # the last call advances the rewound rng
    assert min(batches) == 1 and max(batches) >= 2
