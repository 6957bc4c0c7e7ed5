import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from sl2swc.cohomology import (
    quaternion8_ring,
    restrict_genq_to_q8,
    restrict_q8_to_center,
    steenrod_sq,
    unipotent_ring,
)
from sl2swc.groups import (
    build_gl2,
    build_sl2,
    find_quaternion,
    gen_quaternion,
    quaternion_embeddings,
    subgroup_from_indices,
)
from sl2swc.oracle import (
    DEFAULT_SEED,
    BadEmbedding,
    Mismatch,
    _check_embedding,
    _quaternion_low_part,
    central_involution,
    linear_unit_product,
    quaternion_class,
    quaternion_profile,
    restricted_total_class,
    run_suite,
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
from sl2swc.swc import WrongParity


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
    cls = swc_from_center(trivial_rep(t), 8).cls
    assert cls == cls.ring.one()
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
    cls = swc_from_quaternion(trivial_rep(t), emb, 8).cls
    assert cls == cls.ring.one()


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


def test_bad_embedding_is_refused_on_every_call():
    t = char_table(build_sl2(5))
    G = t.group
    emb = find_quaternion(G)
    x, _ = emb.gens
    fakes = [subgroup_from_indices(G, emb.indices, "Q8"),              # no generators
             subgroup_from_indices(G, emb.indices, "Q8", gens=(x, x))]  # y x y^-1 = x
    for fake in fakes:
        for _ in range(3):
            with pytest.raises(BadEmbedding):
                quaternion_profile(regular_rep(t), fake)
    assert quaternion_profile(trivial_rep(t), emb).mults == (1, 0, 0, 0, 0)


def test_embedding_is_checked_once(monkeypatch):
    from sl2swc import oracle

    t = char_table(build_sl2(7))
    emb = quaternion_embeddings(t.group, 3)[-1]
    checks = []
    check = oracle._check_embedding
    monkeypatch.setattr(oracle, "_check_embedding", lambda e: checks.append(e) or check(e))
    for lab, _ in oir_labels(t):
        quaternion_profile(rep_from_oir_blocks(t, {lab: 1}), emb)
    assert checks == [emb]


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
    character, from the whole character restricted and inner products read
    through the trace form."""
    res = restrict(pi.character(), emb.group)
    qt = char_table(emb.group)
    x, y = emb.gens
    cx = qt.conj.class_of_elem(pi.table.group.elem(x))
    cy = qt.conj.class_of_elem(pi.table.group.elem(y))
    by_key = {}
    for i, chi in enumerate(qt.chars):
        key = "rho" if qt.degrees[i] == 2 else (chi.int_at(cx), chi.int_at(cy))
        by_key[key] = res.inner(chi)
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


def test_degree_one_cubes_vanish_in_q8():
    for D in range(3, 13):
        ring = quaternion8_ring(D)
        x, y = ring.gen_class("x"), ring.gen_class("y")
        for ell in (x, y, x + y):
            assert (ell * ell * ell).is_zero(), (D, ell)


def test_quaternion_closed_form_matches_the_chained_powers():
    ring = quaternion8_ring(32)
    x, y, e = ring.gen_class("x"), ring.gen_class("y"), ring.gen_class("e")
    one = ring.one()
    for m1, m2, m3 in product(range(6), repeat=3):
        low = one.times_power(one + x, m1).times_power(one + y, m2).times_power(one + x + y, m3)
        for m4 in range(10):
            want = low.times_power(one + e, m4)
            assert quaternion_class(m1, m2, m3, m4, 32) == want, (m1, m2, m3, m4)


@lru_cache(maxsize=None)
def _quaternion_class_by_monomials(low, m4, D):
    """quaternion_class's reference: the sum of the monomials (a, b, k) over
    (a, b) in the low part and the k with C(m4, k) odd, in normal form."""
    return quaternion8_ring(D).from_monomials(
        (a, b, k) for k in range(D // 4 + 1) if binom_mod2(m4, k) for a, b, _ in low)


@pytest.mark.parametrize("m1", range(4))
def test_quaternion_class_matches_from_monomials(m1):
    for m2, m3 in product(range(4), repeat=2):
        low = _quaternion_low_part(m1, m2, m3)
        for D in range(65):
            for m4 in range(41):
                want = _quaternion_class_by_monomials(low, m4, D)
                assert quaternion_class(m1, m2, m3, m4, D) == want, (m2, m3, m4, D)


def _profile_per_call(pi, emb):
    """The profile read as a call that shares nothing between calls: the
    embedding checked, Q8's table read and its characters told apart for
    every pi.  The reference for quaternion_profile's per-embedding frame."""
    _check_embedding(emb)
    G = pi.table.group
    K = emb.group
    if emb.parent is not G:
        raise ValueError(f"{K.name} is not contained in {G.name}")
    at = emb.indices
    qt = char_table(K)
    conj = qt.conj
    res = [pi.int_at(pi.table.conj.class_of[at[r]]) for r in conj.reps]

    def multiplicity(psi):
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
    chi_z = res[conj.orders.index(2)]
    if m0 + m1 + m2 + m3 + 4 * m4 != pi.degree():
        raise AssertionError("degree balance failed")
    if m0 + m1 + m2 + m3 - 4 * m4 != chi_z:
        raise AssertionError("central balance failed")
    return m0, m1, m2, m3, m4


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_profile_frame_matches_the_per_call_profile(q):
    t = char_table(build_sl2(q))
    rng = random.Random(100 + q)
    reps = [rep_from_oir_blocks(t, {lab: 1}) for lab, _ in oir_labels(t)]
    reps += [random_orthogonal_rep(t, rng, max_degree=300) for _ in range(10)]
    reps += [random_genuine_rep(t, rng, max_degree=300) for _ in range(10)]
    reps += [regular_rep(t), regular_rep(t).scaled(10**20)]
    for emb in quaternion_embeddings(t.group, 3):
        for pi in reps:
            got = _outcome(lambda: quaternion_profile(pi, emb).mults)
            assert got == _outcome(_profile_per_call, pi, emb), (emb.gens, pi)


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
    cls = swc_from_unipotent(trivial_rep(t), 8).cls
    assert cls == cls.ring.one()


def test_unipotent_multiplicities_coincide():
    for q in (2, 4, 8):
        t = char_table(build_sl2(q))
        for i in range(t.nchars()):
            mults = unipotent_character_multiplicities(_single(t, i))
            assert len(set(mults[1:])) == 1


def test_unipotent_multiplicities_beyond_int64():
    # the regular representation restricts to 15 copies of the regular
    # representation of the unitriangular group; the signs must multiply
    # character values that pass int64 as Python ints
    pi = regular_rep(char_table(build_sl2(4))).scaled(10**20)
    assert unipotent_character_multiplicities(pi) == [15 * 10**20] * 4


def _chained_unit_product(r, d_max, factors):
    """The product of the (1 + sum of v_i over S)^m by a chain of times_power
    in the set form of unipotent_ring, the reference for the packed kernel."""
    ring = unipotent_ring(r, max(d_max, 2**r - 1))
    out = ring.one()
    for S, m in factors:
        u = ring.one() + ring.from_monomials([tuple(int(j == i) for j in range(r)) for i in S])
        out = out.times_power(u, m)
    return out.truncate(d_max)


@st.composite
def _unit_products(draw):
    r = draw(st.sampled_from(range(1, 5)))
    d_max = draw(st.sampled_from(range(1, 41)))
    wide = 2 ** (d_max - 1).bit_length()   # 2^ceil(log2 d_max)
    mult = st.one_of(st.sampled_from([0, 1]), st.integers(0, wide), st.integers(wide, 4 * wide))
    form = st.sets(st.integers(0, r - 1), min_size=1).map(sorted)
    return r, d_max, draw(st.lists(st.tuples(form, mult), max_size=5))


_ALL_FORMS_OF_RANK_4 = [[i for i in range(4) if a >> i & 1] for a in range(1, 16)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_unit_products())
# every nonzero form in 4 variables, multiplicities reaching every bit below 2^7
@example(case=(4, 40, [(S, 9 * a) for a, S in enumerate(_ALL_FORMS_OF_RANK_4, 1)]))
def test_packed_unit_product_matches_the_chained_powers(case):
    r, d_max, factors = case
    assert linear_unit_product(r, d_max, factors) == _chained_unit_product(r, d_max, factors)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_unipotent_oracle_matches_the_chained_powers_on_every_oir(q):
    t = char_table(build_sl2(q))
    F = t.group.field
    forms = [[i for i in range(F.r) if F.trace[F.mul[a, 2**i]]] for a in range(1, q)]
    for lab, _ in oir_labels(t):
        pi = rep_from_oir_blocks(t, {lab: 1})
        mults = unipotent_character_multiplicities(pi)
        want = _chained_unit_product(F.r, min(64, pi.degree()), zip(forms, mults[1:]))
        got = swc_from_unipotent(pi, 64).cls
        for d in range(65):
            assert got.monomials(d) == want.monomials(d), (lab, d)
        assert got == want


# ---------------------------------------------------------------------------
# formula verification
# ---------------------------------------------------------------------------

def test_verify_regular_sl23():
    t = char_table(build_sl2(3))
    out = verify_swc_formula(regular_rep(t), 64)
    assert out["common_center_image"].to_dict() == {
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


def test_oracles_do_not_reach_the_closed_form_route(monkeypatch):
    from sl2swc import cohomology, oracle, swc

    t8, t9 = char_table(build_sl2(8)), char_table(build_sl2(9))
    rng = random.Random(8)
    reps8 = [regular_rep(t8)] + [random_orthogonal_rep(t8, rng) for _ in range(3)]
    reps9 = [regular_rep(t9)] + [random_orthogonal_rep(t9, rng) for _ in range(3)]
    emb = find_quaternion(t9.group)

    def classes():
        return ([swc_from_unipotent(pi, 24).cls for pi in reps8],
                [swc_from_quaternion(pi, emb, 64).cls for pi in reps9],
                [swc_from_center(pi, 64).cls for pi in reps9])

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle reached the closed-form route")

    # cold caches on both runs, so that each computes every class
    oracle.clear_caches()
    with monkeypatch.context() as patch:
        for module, name in ((swc, "_power"), (cohomology, "dickson"),
                             (cohomology, "dickson_expansion")):
            patch.setattr(module, name, forbidden)
        with pytest.raises(AssertionError, match="closed-form route"):
            swc.total_swc_expanded(reps8[0], 24)
        for pi, D in ((reps8[0], 24), (reps9[0], 64)):
            with pytest.raises(AssertionError, match="closed-form route"):
                swc.total_swc_restricted(pi, D)
        isolated = classes()
    oracle.clear_caches()
    assert isolated == classes()


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
    rho = t8.chars[next(i for i in range(5) if t8.degrees[i] == 2)]
    found = False
    for i in range(t16.nchars()):
        if t16.degrees[i] == 2 and t16.fs[i] == -1:
            res = restrict(t16.chars[i], sub.group)
            # both are eigenvalue spectra, so equal characters have equal vectors
            if all((a == b).all() for a, b in zip(res.values, rho.values)):
                assert res == rho
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
    for G in (build_sl2(5), build_sl2(9), build_gl2(3)):
        m1 = G.field.neg[1]
        assert central_involution(G) == G.find((m1, 0, 0, m1)), G.name


def test_central_involution_errors():
    # SL(2, 2^r) has trivial center; the nontrivial scalars of GL(2,4) have order 3
    with pytest.raises(WrongParity):
        central_involution(build_sl2(4))
    with pytest.raises(ValueError, match="GL.* has 0 central involutions"):
        central_involution(build_gl2(4))


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


def test_theorem_suite_formats_no_class_of_a_passing_case(monkeypatch):
    from sl2swc.cohomology import GradedClass

    def no_formatting(self, d):
        raise AssertionError("a passing case formatted a class")

    monkeypatch.setattr(GradedClass, "monomial_strings", no_formatting)
    (rep,) = run_suite("theorem", 8, 5)
    assert rep.ok() and rep.cases == rep.passes > 5


def _theorem_cases(q, trials, seed=DEFAULT_SEED):
    """The name and the representation of each case of suite_theorem, drawn
    as the suite draws them."""
    t = char_table(build_sl2(q))
    cases = [(f"oir:{lab}", rep_from_oir_blocks(t, {lab: 1})) for lab, _ in oir_labels(t)]
    rng = random.Random(seed)
    return cases + [(f"random:{n}", random_orthogonal_rep(t, rng)) for n in range(trials)]


def _wrong_for(real, bad_key, key_of):
    """A cache of real that adds the lowest-degree generator of the ring to
    the class of each call whose arguments key_of maps to bad_key."""
    def wrong(*args):
        cls = real(*args)
        if key_of(*args) != bad_key:
            return cls
        return cls + cls.ring.monomial((1,) + (0,) * (len(cls.ring.names) - 1))
    return lru_cache(maxsize=None)(wrong)


def test_a_wrong_center_class_fails_every_case_of_its_b(monkeypatch):
    from collections import Counter

    from sl2swc import oracle

    cases = _theorem_cases(9, 100)
    z = central_involution(cases[0][1].table.group)
    b_of = {name: (pi.degree() - pi.int_at(pi.table.conj.class_of[z])) // 2
            for name, pi in cases}
    bad_b, n = Counter(b_of.values()).most_common(1)[0]
    assert n >= 2
    oracle.clear_caches()
    monkeypatch.setattr(oracle, "center_class",
                        _wrong_for(oracle.center_class, bad_b, lambda b, D: b))
    rep = suite_theorem(9, trials=100)
    assert {f["rep"] for f in rep.failures} == {name for name, b in b_of.items() if b == bad_b}
    assert rep.cases == len(cases)


def test_a_wrong_unipotent_product_fails_every_case_of_its_profile(monkeypatch):
    from collections import Counter

    from sl2swc import oracle

    cases = _theorem_cases(8, 60)
    profile_of = {name: tuple(unipotent_character_multiplicities(pi)[1:]) for name, pi in cases}
    bad, n = Counter(profile_of.values()).most_common(1)[0]
    assert n >= 2
    oracle.clear_caches()
    monkeypatch.setattr(oracle, "unipotent_class",
                        _wrong_for(oracle.unipotent_class, bad,
                                   lambda r, D, factors: tuple(m for _, m in factors)))
    rep = suite_theorem(8, trials=60)
    assert {f["rep"] for f in rep.failures} == {
        name for name, profile in profile_of.items() if profile == bad}


def test_a_wrong_wu_check_fails_every_case_of_its_class(monkeypatch):
    from sl2swc import oracle

    t = char_table(build_sl2(8))
    rng = random.Random(DEFAULT_SEED)
    w_of = [restricted_total_class(random_genuine_rep(t, rng, max_degree=60), 6)
            for _ in range(40)]
    bad = max(w_of, key=w_of.count)
    assert w_of.count(bad) >= 2
    oracle.clear_caches()
    real = oracle._wu_holds

    def wrong(w, i, j):
        return not real(w, i, j) if w == bad and (i, j) == (1, 2) else real(w, i, j)

    monkeypatch.setattr(oracle, "_wu_holds", lru_cache(maxsize=None)(wrong))
    rep = suite_wu(8, trials=40)
    assert {f["rep"] for f in rep.failures} == {
        f"random:{n}" for n, w in enumerate(w_of) if w == bad}
    assert all((f["i"], f["j"]) == (1, 2) for f in rep.failures)


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_suite_reports_are_the_same_with_cold_and_warm_caches(capsys, q):
    from sl2swc import oracle
    from sl2swc.cli import run

    outs = []
    for clear in (True, False):
        if clear:
            oracle.clear_caches()
        assert run(["verify", "--q", str(q), "--suite", "all"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
