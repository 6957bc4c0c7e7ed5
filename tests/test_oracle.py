import random

import pytest

from sl2swc.characters import (
    VirtualRep,
    char_table,
    random_orthogonal_rep,
    regular_rep,
    restrict,
    symmetrize,
    trivial_rep,
)
from sl2swc.cohomology import restrict_genq_to_q8, restrict_q8_to_center
from sl2swc.groups import (
    build_sl2,
    find_quaternion,
    gen_quaternion,
    quaternion_embeddings,
    subgroup_from_indices,
)
from sl2swc.oracle import (
    BadEmbedding,
    Mismatch,
    central_involution,
    quaternion_profile,
    suite_gow,
    suite_obstruction,
    suite_theorem,
    suite_wu,
    swc_from_center,
    swc_from_quaternion,
    swc_from_unipotent,
    unipotent_character_multiplicities,
    verify_swc_formula,
    wu_formula_holds,
)


def _single(table, i):
    mults = [0] * table.nchars()
    mults[i] = 1
    return VirtualRep(table, mults)


def _symplectic(table, degree=None):
    i = next(
        i for i in range(table.nchars())
        if table.fs[i] == -1 and (degree is None or table.degrees[i] == degree)
    )
    return symmetrize(_single(table, i))


# ---------------------------------------------------------------------------
# center oracle
# ---------------------------------------------------------------------------

def test_center_oracle_trivial_and_sign():
    t = char_table(build_sl2(3))
    assert swc_from_center(trivial_rep(t), 8).cls.is_one()
    # order-2 group: the sign character has class 1 + v
    G = build_sl2(3)
    Z = subgroup_from_indices(G, [G.identity, central_involution(G)], "Z")
    tz = char_table(Z.group)
    sgn = next(i for i in range(2) if i != tz.trivial_index())
    cls = swc_from_center(_single(tz, sgn), 4).cls
    assert cls.to_dict() == {"0": ["1"], "1": ["v"]}


def test_center_oracle_symmetrized_rho():
    # restriction of the symmetrized 2-dim of the quaternion group: (1+v)^4
    t = char_table(gen_quaternion(3))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 2)
    s = symmetrize(_single(t, i))
    cls = swc_from_center(s, 16).cls
    assert cls.to_dict() == {"0": ["1"], "4": ["v^4"]}


def test_center_oracle_regular_sl23():
    t = char_table(build_sl2(3))
    cls = swc_from_center(regular_rep(t), 64).cls
    # (1+v)^12 = (1+v^4)^3
    assert cls.to_dict() == {"0": ["1"], "4": ["v^4"], "8": ["v^8"], "12": ["v^12"]}


# ---------------------------------------------------------------------------
# quaternion oracle
# ---------------------------------------------------------------------------

def test_quaternion_oracle_symmetrized_pi0():
    t = char_table(build_sl2(3))
    s = _symplectic(t, 2)
    emb = find_quaternion(t.group)
    cls = swc_from_quaternion(s, emb, 16).cls
    assert cls.to_dict() == {"0": ["1"], "4": ["e"]}


def test_quaternion_oracle_trivial():
    t = char_table(build_sl2(3))
    emb = find_quaternion(t.group)
    assert swc_from_quaternion(trivial_rep(t), emb, 8).cls.is_one()


def test_profile_balance():
    for q in (3, 5):
        t = char_table(build_sl2(q))
        emb = find_quaternion(t.group)
        rng = random.Random(11)
        for _ in range(10):
            pi = random_orthogonal_rep(t, rng, max_degree=120)
            prof = quaternion_profile(pi, emb)   # asserts balance internally
            m0, m1, m2, m3, m4 = prof.mults
            assert m0 + m1 + m2 + m3 + 4 * m4 == pi.degree()


def test_profile_counts_blocks_not_constituents():
    # the symmetrization of the 2-dim contributes one 4-dimensional block
    t = char_table(build_sl2(3))
    emb = find_quaternion(t.group)
    prof = quaternion_profile(_symplectic(t, 2), emb)
    assert prof.mults == (0, 0, 0, 0, 1)


def test_bad_embedding():
    t = char_table(build_sl2(3))
    G = t.group
    emb = find_quaternion(G)
    fake = subgroup_from_indices(G, emb.indices, "Q8")
    with pytest.raises(BadEmbedding):
        quaternion_profile(regular_rep(t), fake)   # no generators attached


def test_irreducible_orthogonal_has_no_quaternionic_block():
    t = char_table(build_sl2(5))
    emb = find_quaternion(t.group)
    for i in range(t.nchars()):
        if t.fs[i] == 1:
            prof = quaternion_profile(_single(t, i), emb)
            assert prof.mults[4] == 0
            cls = swc_from_quaternion(_single(t, i), emb, 8).cls
            assert not cls.component(4)


def test_low_degree_vanishing_for_symmetrizations():
    # degrees 1..3 of the quaternion oracle vanish for every S(irreducible)
    for q in (3, 5):
        t = char_table(build_sl2(q))
        emb = find_quaternion(t.group)
        for i in range(t.nchars()):
            s = symmetrize(_single(t, i))
            cls = swc_from_quaternion(s, emb, 16).cls
            assert all(not cls.component(d) for d in (1, 2, 3))


def test_embedding_independence():
    for q in (3, 5, 7):
        t = char_table(build_sl2(q))
        embs = quaternion_embeddings(t.group, 3)
        assert len(embs) >= 3
        for i in range(t.nchars()):
            pi = _single(t, i) if t.fs[i] == 1 else symmetrize(_single(t, i))
            classes = [swc_from_quaternion(pi, e, 32).cls for e in embs]
            assert all(c == classes[0] for c in classes[1:])


# ---------------------------------------------------------------------------
# unipotent oracle
# ---------------------------------------------------------------------------

def test_unipotent_oracle_q2():
    t = char_table(build_sl2(2))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 2)
    cls = swc_from_unipotent(_single(t, i), 8).cls
    assert cls.to_dict() == {"0": ["1"], "1": ["v1"]}


def test_unipotent_oracle_q4():
    t = char_table(build_sl2(4))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 5)
    cls = swc_from_unipotent(_single(t, i), 16).cls
    # 1 + d1 + d2 expanded
    assert cls.to_dict() == {
        "0": ["1"],
        "2": ["v1^2", "v1*v2", "v2^2"],
        "3": ["v1^2*v2", "v1*v2^2"],
    }
    assert swc_from_unipotent(trivial_rep(t), 8).cls.is_one()


def test_unipotent_multiplicities_coincide():
    for q in (2, 4, 8):
        t = char_table(build_sl2(q))
        for i in range(t.nchars()):
            mults = unipotent_character_multiplicities(_single(t, i))
            assert len(set(mults[1:])) == 1


# ---------------------------------------------------------------------------
# formula verification
# ---------------------------------------------------------------------------

def test_verify_regular_sl23():
    t = char_table(build_sl2(3))
    out = verify_swc_formula(regular_rep(t), 64)
    assert out["common_center_image"] == {
        "0": ["1"], "4": ["v^4"], "8": ["v^8"], "12": ["v^12"]
    }


@pytest.mark.parametrize("q", [5])
def test_verify_all_irreducibles(q):
    t = char_table(build_sl2(q))
    for i in range(t.nchars()):
        pi = _single(t, i) if t.fs[i] == 1 else symmetrize(_single(t, i))
        verify_swc_formula(pi, 64)


def test_verify_random_combinations_q7():
    t = char_table(build_sl2(7))
    rng = random.Random(42)
    for _ in range(20):
        pi = random_orthogonal_rep(t, rng, max_degree=400)
        verify_swc_formula(pi, 64)


def test_mismatch_is_detected():
    # feed the even-q comparison a deliberately wrong truncation pair by
    # checking that Mismatch carries a structured diff when classes differ
    from sl2swc.cohomology import center_ring
    from sl2swc.oracle import _compare

    R = center_ring(8)
    a = R.one() + R.monomial((4,))
    b = R.one() + R.monomial((5,))
    with pytest.raises(Mismatch) as exc:
        _compare("unit test", a, b)
    assert exc.value.degree == 4
    assert exc.value.lhs == "v^4" and exc.value.rhs == "0"


# ---------------------------------------------------------------------------
# generalized quaternion coherence
# ---------------------------------------------------------------------------

def test_genq_restriction_to_q8_is_rho():
    Q16 = gen_quaternion(4)
    t16 = char_table(Q16)
    # the subgroup <a^2, b> is a quaternion group of order 8
    a2, b = Q16.index[(2, 0)], Q16.index[(0, 1)]
    idxs = sorted({Q16.identity, Q16.index[(4, 0)], a2, Q16.index[(6, 0)],
                   b, Q16.index[(2, 1)], Q16.index[(4, 1)], Q16.index[(6, 1)]})
    sub = subgroup_from_indices(Q16, idxs, "Q8")
    t8 = char_table(sub.group)
    rho_vals = t8.chars[next(i for i in range(5) if t8.degrees[i] == 2)].values
    found = False
    for i in range(t16.nchars()):
        if t16.degrees[i] == 2 and t16.fs[i] == -1:
            res = restrict(t16.chars[i], sub.group)
            if tuple(res.values) == tuple(v.upcast(res.m) for v in rho_vals):
                found = True
    assert found


def test_genq_symmetrized_class_via_center():
    # w(S(two-dim)) = 1 + E: center oracle gives (1+v)^4 and the chain
    # E -> e -> v^4 produces the same class
    for n in (4, 5):
        Qn = gen_quaternion(n)
        t = char_table(Qn)
        i = next(i for i in range(t.nchars()) if t.degrees[i] == 2 and t.fs[i] == -1)
        s = symmetrize(_single(t, i))
        oz = swc_from_center(s, 8).cls
        assert oz.to_dict() == {"0": ["1"], "4": ["v^4"]}
        from sl2swc.cohomology import genq_ring

        E = genq_ring(4).gen_class("E")
        one_plus_E = genq_ring(4).one() + E
        chained = restrict_q8_to_center(4)(restrict_genq_to_q8(4)(one_plus_E))
        assert chained == oz


def test_central_involution_detection():
    assert central_involution(gen_quaternion(3)) == gen_quaternion(3).index[(2, 0)]
    G = build_sl2(5)
    m1 = G.field.neg[1]
    assert central_involution(G) == G.index[(m1, 0, 0, m1)]


# ---------------------------------------------------------------------------
# wu formula
# ---------------------------------------------------------------------------

def test_wu_displayed_identity():
    # w3 = w1 w2 + Sq^1(w2) on restrictions, both parities
    from sl2swc.cohomology import GradedClass, steenrod_sq
    from sl2swc.oracle import restricted_total_class

    for q in (3, 4):
        t = char_table(build_sl2(q))
        rng = random.Random(5)
        for _ in range(20):
            from sl2swc.characters import random_genuine_rep

            pi = random_genuine_rep(t, rng, max_degree=40)
            w = restricted_total_class(pi, 3)
            ring = w.ring
            w1 = GradedClass(ring, {1: w.component(1)})
            w2 = GradedClass(ring, {2: w.component(2)})
            w3 = GradedClass(ring, {3: w.component(3)})
            assert w3 == w1 * w2 + steenrod_sq(1, w2)


def test_wu_cases():
    t = char_table(build_sl2(4))
    reg = regular_rep(t)
    assert wu_formula_holds(reg, 0, 5)    # Sq^0 = id
    assert wu_formula_holds(reg, 1, 2)
    assert wu_formula_holds(reg, 2, 2)
    t3 = char_table(build_sl2(3))
    assert wu_formula_holds(regular_rep(t3), 2, 3)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suites_pass_smoke():
    assert suite_gow(5).ok()
    assert suite_theorem(3, trials=20).ok()
    assert suite_wu(2, trials=10).ok()
    rep = suite_obstruction(3, n_max=128)
    assert rep.ok() and rep.cases == 128
