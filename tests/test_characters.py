import random

import pytest

from sl2swc.algebra import Cyclo, cyclo_to_integer
from sl2swc.characters import (
    BadConstructionParams,
    ClassFunction,
    LiftFailure,
    NotIndicator,
    NotOrthogonal,
    VirtualRep,
    _validate_orthogonality,
    char_table,
    cuspidal,
    cuspidal_sl,
    decompose_orthogonal,
    fs_indicator,
    induce,
    is_orthogonal_virtual,
    principal_series,
    principal_series_sl,
    random_genuine_rep,
    regular_rep,
    rep_from_class_function,
    restrict,
    symmetrize,
    trivial_rep,
)
from sl2swc.groups import (
    build_gl2,
    build_sl2,
    gen_quaternion,
    standard_subgroup,
    subgroup_from_indices,
)


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
        assert reg.inner_int(chi) == t.degrees[i]


@pytest.mark.parametrize("q,kind", [(2, "sl2"), (3, "sl2"), (4, "sl2"), (5, "sl2"),
                                    (3, "gl2"), (5, "gl2")])
def test_orthogonality(q, kind):
    G = build_sl2(q) if kind == "sl2" else build_gl2(q)
    t = char_table(G)
    assert sum(d * d for d in t.degrees) == len(G)
    # row orthogonality, exact
    for a in range(t.nchars()):
        for b in range(a, t.nchars()):
            got = t.chars[a].inner_int(t.chars[b])
            assert got == (1 if a == b else 0)
    # column orthogonality, exact
    conj = t.conj
    for c1 in range(conj.nclasses()):
        for c2 in range(c1, conj.nclasses()):
            tot = sum((chi.values[c1] * chi.values[conj.inverse_class(c2)] for chi in t.chars),
                      Cyclo.integer(t.m, 0))
            assert cyclo_to_integer(tot) == (len(G) // conj.sizes[c1] if c1 == c2 else 0)


def test_orthogonality_check_rejects_a_non_integral_inner_product():
    # chi(c) + zeta_m at a self-inverse class c makes <chi, chi> leave Z
    t = char_table(build_sl2(5))
    conj = t.conj
    _validate_orthogonality(conj, t.chars)
    c = next(c for c in range(1, conj.nclasses()) if conj.inverse_class(c) == c)
    chi = t.chars[-1]
    vals = list(chi.values)
    vals[c] = vals[c] + Cyclo.root(t.m, 1)
    bad = t.chars[:-1] + (ClassFunction(chi.group, conj, t.m, vals),)
    with pytest.raises(LiftFailure, match="row orthogonality failed"):
        _validate_orthogonality(conj, bad)


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
            lhs = ind.inner_int(psi)
            rhs = restrict(psi, B.group).inner_int(chi)
            assert lhs == rhs


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
    ps = principal_series(q, 1)
    assert ps.degree() == q + 1
    cu = cuspidal(q, 1)
    assert cu.degree() == q - 1
    pi1 = principal_series_sl(q, 1)
    pi2 = cuspidal_sl(q, 1)
    # restrictions are irreducible and symplectic
    assert pi1.character().inner_int(pi1.character()) == 1
    assert pi2.character().inner_int(pi2.character()) == 1
    assert fs_indicator(pi1.character()) == -1
    assert fs_indicator(pi2.character()) == -1


def test_ps_restriction_stays_irreducible():
    G = build_sl2(5)
    cf = restrict(principal_series(5, 1), G)
    assert cf.inner_int(cf) == 1
    assert cf.dual() == cf


def test_cusp_q3_is_the_symplectic_2dim():
    pi = cuspidal_sl(3, 1)
    t = pi.table
    i0 = next(i for i in range(t.nchars()) if t.degrees[i] == 2 and t.fs[i] == -1)
    assert pi.mults[i0] == 1 and sum(pi.mults) == 1


def test_bad_construction_params():
    with pytest.raises(BadConstructionParams):
        principal_series(5, 0)     # alpha(-1) = 1
    with pytest.raises(BadConstructionParams):
        principal_series(5, 2)     # even exponent
    with pytest.raises(BadConstructionParams):
        principal_series(3, 1)     # alpha^2 = 1 forced
    with pytest.raises(BadConstructionParams):
        cuspidal(5, 12)            # chi(-1) = 1
    with pytest.raises(BadConstructionParams):
        cuspidal(4, 1)             # even characteristic
    with pytest.raises(BadConstructionParams):
        cuspidal(5, (5 * 5 - 1) // 2)  # chi^2 = 1


def test_cusp_independent_of_additive_character():
    # the induced construction must not depend on which nontrivial additive
    # character is chosen; compare against the fixed-choice result
    q = 5
    pi = cuspidal_sl(q, 1)
    # all nontrivial additive characters are conjugate under the torus, so the
    # decomposition of the cuspidal over SL must be a single irreducible
    assert sum(abs(m) for m in pi.mults) == 1


def test_rep_from_class_function_roundtrip():
    t = char_table(build_sl2(5))
    rng = random.Random(42)
    mults = [rng.randrange(-2, 3) for _ in range(t.nchars())]
    pi = VirtualRep(t, mults)
    back = rep_from_class_function(t, pi.character())
    assert back.mults == pi.mults


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_value_at_is_the_summed_character(q):
    # reference: sum_i n_i chi_i(c) over the whole table, in Z[zeta_m]
    t = char_table(build_sl2(q))
    rng = random.Random(q)
    reps = [regular_rep(t), regular_rep(t) - trivial_rep(t).scaled(3)]
    reps += [random_genuine_rep(t, rng, max_degree=100) for _ in range(4)]
    for pi in reps:
        whole = pi.character()
        fresh = VirtualRep(t, pi.mults)  # asked class by class, never whole
        for c in range(t.conj.nclasses()):
            want = Cyclo.integer(t.m, 0)
            for chi, n in zip(t.chars, pi.mults):
                want = want + chi.values[c] * n
            assert fresh.value_at(c) == want == whole.values[c]
            assert pi.value_at(c) == want
