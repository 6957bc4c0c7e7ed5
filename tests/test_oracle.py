import random

import pytest

from sl2swc.algebra import binom_mod2
from sl2swc.characters import (
    VirtualRep,
    char_table,
    oir_labels,
    random_genuine_rep,
    random_orthogonal_rep,
    rep_from_oir_blocks,
    regular_rep,
    restrict,
    symmetrize,
    trivial_rep,
)
from sl2swc.cohomology import restrict_genq_to_q8, restrict_q8_to_center, steenrod_sq
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
    restricted_total_class,
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


def _profile_by_restriction(pi, emb):
    """The five multiplicities (m0, m1, m2, m3, k), k that of the 2-dim
    character, from the whole character restricted at m = exp G and
    cyclotomic inner products."""
    res = restrict(pi.character(), emb.group)
    qt = char_table(emb.group)
    x, y = emb.gens
    cx = qt.conj.class_of_elem(pi.table.group.elem(x))
    cy = qt.conj.class_of_elem(pi.table.group.elem(y))
    by_key = {}
    for i, chi in enumerate(qt.chars):
        key = "rho" if qt.degrees[i] == 2 else (chi.int_at(cx), chi.int_at(cy))
        by_key[key] = res.inner_int(chi)
    return tuple(by_key[k] for k in ((1, 1), (1, -1), (-1, 1), (-1, -1), "rho"))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_profile_matches_restricted_character(q):
    t = char_table(build_sl2(q))
    rng = random.Random(q)
    reps = [rep_from_oir_blocks(t, {lab: 1}) for lab, _ in oir_labels(t)]
    reps += [random_orthogonal_rep(t, rng, max_degree=300) for _ in range(15)]
    # genuine but not always orthogonal: an odd 2-dim multiplicity must raise
    reps += [random_genuine_rep(t, rng, max_degree=300) for _ in range(15)]
    odd_seen = False
    for emb in quaternion_embeddings(t.group, 3):
        for pi in reps:
            m0, m1, m2, m3, k = _profile_by_restriction(pi, emb)
            if k % 2:
                odd_seen = True
                with pytest.raises(BadEmbedding):
                    quaternion_profile(pi, emb)
            else:
                assert quaternion_profile(pi, emb).mults == (m0, m1, m2, m3, k // 2)
    assert odd_seen or q == 3


def test_profile_rejects_an_embedding_in_another_group():
    emb = find_quaternion(build_sl2(5))
    with pytest.raises(ValueError, match="is not contained in"):
        quaternion_profile(trivial_rep(char_table(build_sl2(3))), emb)


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
    a2, b = Q16.find((2, 0)), Q16.find((0, 1))
    idxs = sorted({Q16.identity, Q16.find((4, 0)), a2, Q16.find((6, 0)),
                   b, Q16.find((2, 1)), Q16.find((4, 1)), Q16.find((6, 1))})
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
    assert central_involution(gen_quaternion(3)) == gen_quaternion(3).find((2, 0))
    G = build_sl2(5)
    m1 = G.field.neg[1]
    assert central_involution(G) == G.find((m1, 0, 0, m1))


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


def _wu_at_own_truncation(pi, i, j):
    """The Wu check on the restricted class computed at D = i + j."""
    w = restricted_total_class(pi, i + j)
    lhs = steenrod_sq(i, w.truncate(j, j))
    rhs = w.ring.zero()
    for t in range(i + 1):
        if binom_mod2(j + t - i - 1, t):
            rhs = rhs + w.truncate(i - t, i - t) * w.truncate(j + t, j + t)
    return lhs == rhs


def _flip(w, d):
    """w plus the monomial v1^d of its ring (nothing when d is above its top)."""
    return w + w.ring.monomial((d,) + (0,) * (len(w.ring.names) - 1))


WU_PAIRS = [(i, j) for i in range(4) for j in range(i, 7 - i)]


@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_shared_wu_class_agrees_with_per_case_class(q):
    t = char_table(build_sl2(q))
    rng = random.Random(q)
    for _ in range(6):
        pi = random_genuine_rep(t, rng, max_degree=60)
        w6 = restricted_total_class(pi, 6)
        for i, j in WU_PAIRS:
            w = restricted_total_class(pi, i + j)
            for d in range(i + j + 1):
                assert w6.monomials(d) == w.monomials(d)
            shared = wu_formula_holds(w6.truncate(i + j), i, j)
            assert shared == _wu_at_own_truncation(pi, i, j)
            assert wu_formula_holds(w, i, j)
            # a corrupted class gives the same verdict at either truncation
            for d in range(1, i + j + 1):
                assert (wu_formula_holds(_flip(w6, d).truncate(i + j), i, j)
                        == wu_formula_holds(_flip(w, d), i, j))


def test_wu_suite_records_a_corrupted_class(monkeypatch):
    from sl2swc import oracle

    real = oracle.restricted_total_class
    monkeypatch.setattr(oracle, "restricted_total_class",
                        lambda pi, D: _flip(real(pi, D), 3))
    rep = suite_wu(3, trials=2)
    assert rep.cases == 2 * len(WU_PAIRS) and not rep.ok()
    assert all({"rep", "expr", "i", "j"} <= f.keys() for f in rep.failures)
    assert {(f["i"], f["j"]) for f in rep.failures} >= {(1, 2)}


def test_wu_class_failure_fails_each_case_of_the_rep(monkeypatch):
    from sl2swc import oracle

    def broken(pi, D):
        raise ValueError("no class")

    monkeypatch.setattr(oracle, "restricted_total_class", broken)
    rep = suite_wu(3, trials=1)
    assert rep.cases == len(WU_PAIRS) and rep.passes == 0
    assert {(f["error"], f["message"]) for f in rep.failures} == {("ValueError", "no class")}


def test_memory_error_is_not_recorded_as_a_case(monkeypatch):
    from sl2swc import oracle

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "verify_swc_formula", out_of_memory)
    monkeypatch.setattr(oracle, "restricted_total_class", out_of_memory)
    with pytest.raises(MemoryError):
        suite_theorem(3, trials=1)
    with pytest.raises(MemoryError):
        suite_wu(3, trials=1)


def test_wu_cases():
    t = char_table(build_sl2(4))
    reg = regular_rep(t)
    assert wu_formula_holds(restricted_total_class(reg, 5), 0, 5)    # Sq^0 = id
    assert wu_formula_holds(restricted_total_class(reg, 3), 1, 2)
    assert wu_formula_holds(restricted_total_class(reg, 4), 2, 2)
    t3 = char_table(build_sl2(3))
    assert wu_formula_holds(restricted_total_class(regular_rep(t3), 5), 2, 3)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suites_pass_smoke():
    assert suite_gow(5).ok()
    assert suite_theorem(3, trials=20).ok()
    assert suite_wu(2, trials=10).ok()
    rep = suite_obstruction(3, n_max=128)
    assert rep.ok() and rep.cases == 128
