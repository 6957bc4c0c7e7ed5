"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output.
"""

import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import gcd

import sl2swc.groups as groups_mod
from sl2swc.algebra import Cyclo, cyclo_to_integer
from sl2swc.characters import (
    VirtualRep,
    char_table,
    cuspidal,
    cuspidal_sl,
    fs_indicator,
    oir_labels,
    principal_series,
    principal_series_sl,
    regular_rep,
    rep_from_oir_blocks,
    symmetrize,
)
from sl2swc.characters import _validate_orthogonality
from sl2swc.cohomology import (
    dickson,
    quaternion8_ring,
    restrict_q8_to_center,
    unipotent_ring,
)
from sl2swc.groups import build_gl2, build_sl2, gen_quaternion, quaternion_embeddings
from sl2swc.oracle import (
    suite_gow,
    suite_obstruction,
    suite_theorem,
    suite_wu,
    swc_from_center,
    swc_from_quaternion,
    swc_from_unipotent,
    verify_swc_formula,
)
from sl2swc.swc import (
    image_exponent,
    minus_one_class,
    quaternionic_multiplicity,
    total_swc,
    total_swc_expanded,
    unipotent_multiplicities,
)

SEED = 42


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS - {desc}")


def _single(table, i):
    mults = [0] * table.nchars()
    mults[i] = 1
    return VirtualRep(table, mults)


def test_criterion_01_gow_suite():
    with criterion(1, "Gow's formula for q in {3,5,7,9} within 30 s"):
        groups_mod.build_sl2.cache_clear()
        groups_mod._field_table.cache_clear()
        start = time.monotonic()
        for q in (3, 5, 7, 9):
            rep = suite_gow(q)
            assert rep.ok(), rep.failures
            table = char_table(build_sl2(q))
            n_selfdual = sum(1 for i in range(table.nchars()) if table.dual[i] == i)
            assert rep.cases == n_selfdual
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_odd_theorem_suite():
    with criterion(2, "odd q: (1+e)^r restricted to the center matches the "
                      "center oracle (all OIRs + 200 random, deg <= 2000, D = min(deg, 64))"):
        for q in (3, 5, 7):
            rep = suite_theorem(q, trials=200, seed=SEED)
            assert rep.ok(), rep.failures[:3]
            n_oirs = len(oir_labels(char_table(build_sl2(q))))
            assert rep.cases == n_oirs + 200


def test_criterion_03_irreducible_orthogonal_trivial_class():
    with criterion(3, "every irreducible orthogonal rep has total class 1 "
                      "(q in {3,5,7,9})"):
        for q in (3, 5, 7, 9):
            t = char_table(build_sl2(q))
            for i in range(t.nchars()):
                if t.fs[i] == 1:
                    total = total_swc(_single(t, i))
                    assert total.cls.is_one(), (q, i)


def test_criterion_04_even_theorem_suite():
    with criterion(4, "even q: m = 1 for nontrivial irreducibles; (1+D)^m "
                      "expansion matches the unipotent oracle; multiplicities coincide"):
        for q in (2, 4, 8):
            t = char_table(build_sl2(q))
            for i in range(t.nchars()):
                pi = _single(t, i)
                ell, m = unipotent_multiplicities(pi)
                if i == t.trivial_index():
                    assert (ell, m) == (1, 0)
                else:
                    assert m == 1, (q, i)
            rep = suite_theorem(q, trials=200, seed=SEED)
            assert rep.ok(), rep.failures[:3]


def test_criterion_05_dickson_identity():
    with criterion(5, "Dickson product identity for r in {1,2,3,4}; r=2 display"):
        for r in (1, 2, 3, 4):
            D = 2**r - 1
            ring = unipotent_ring(r, D)
            prod = ring.one()
            for mask in range(1, 2**r):
                form = ring.zero()
                for b in range(r):
                    if mask >> b & 1:
                        form = form + ring.monomial(
                            tuple(1 if j == b else 0 for j in range(r)))
                prod = prod * (ring.one() + form)
            ds = dickson(r, D)
            expected_degrees = {2**r - 2 ** (r - i) for i in range(1, r + 1)}
            assert set(prod.support_degrees()) == {0} | expected_degrees
            for i, d in enumerate(ds, start=1):
                deg = 2**r - 2 ** (r - i)
                assert prod.component(deg) == d.component(deg)
        d1, d2 = dickson(2, 3)
        assert " + ".join(d1.monomial_strings(2)) == "v1^2 + v1*v2 + v2^2"
        assert " + ".join(d2.monomial_strings(3)) == "v1^2*v2 + v1*v2^2"


def test_criterion_06_obstruction_degrees():
    with criterion(6, "lowest nonzero coefficient of (1+g)^n at index 2^ord2(n) "
                      "for 1 <= n <= 1024, matching the closed forms"):
        for q in (3, 8):   # one parity each; the index statement is shared
            rep = suite_obstruction(q, n_max=1024)
            assert rep.ok() and rep.cases == 1024


def test_criterion_07_top_class_criteria():
    with criterion(7, "top-class criteria vs expansion top coefficient "
                      "(odd: all <= 4 OIR blocks, q in {3,5}; even: all <= 4 "
                      "irreducibles, q in {2,4})"):
        for q in (3, 5):
            t = char_table(build_sl2(q))
            labels = [lab for lab, _ in oir_labels(t)]
            zc = minus_one_class(t)
            for size in (1, 2, 3, 4):
                for combo in combinations_with_replacement(labels, size):
                    blocks = {}
                    for lab in combo:
                        blocks[lab] = blocks.get(lab, 0) + 1
                    pi = rep_from_oir_blocks(t, blocks)
                    deg = pi.degree()
                    want = pi.int_at(zc) == -deg
                    total = total_swc(pi, deg)
                    got = bool(total.cls.component(deg))
                    assert got == want, (q, combo)
        for q in (2, 4):
            t = char_table(build_sl2(q))
            for size in (1, 2, 3, 4):
                for combo in combinations_with_replacement(range(t.nchars()), size):
                    mults = [0] * t.nchars()
                    for i in combo:
                        mults[i] += 1
                    pi = VirtualRep(t, mults)
                    deg = pi.degree()
                    ell, _ = unipotent_multiplicities(pi)
                    want = ell == 0
                    total = total_swc_expanded(pi, deg)
                    got = bool(total.cls.component(deg))
                    assert got == want, (q, combo)


def test_criterion_08_quaternion_cohomology():
    with criterion(8, "H*(Q8) dims through 12; x^3 = 0; e-periodicity; "
                      "w(S(rho)) = 1 + e via the center oracle"):
        R = quaternion8_ring(12)
        assert [R.dim(d) for d in range(13)] == [1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1]
        x, e = R.gen_class("x"), R.gen_class("e")
        assert (x * x * x).is_zero()
        for d in range(0, 9):
            imgs = [(R.monomial(mon) * e).component(d + 4) for mon in R.basis(d)]
            assert len(set(imgs)) == len(imgs) and all(imgs)
            assert len(imgs) == R.dim(d + 4)
        t8 = char_table(gen_quaternion(3))
        i = next(i for i in range(t8.nchars()) if t8.degrees[i] == 2)
        s_rho = symmetrize(_single(t8, i))
        oz = swc_from_center(s_rho, 4).cls
        assert oz.to_dict() == {"0": ["1"], "4": ["v^4"]}
        one_plus_e = quaternion8_ring(4).one() + quaternion8_ring(4).gen_class("e")
        assert restrict_q8_to_center(4)(one_plus_e) == oz


def test_criterion_09_wu_suite():
    with criterion(9, "Wu formula (incl. w3 = w1 w2 + Sq^1 w2) for i+j <= 6 on "
                      "restrictions, 100 seeded random reps per q in {3,5,2,4}"):
        for q in (3, 5, 2, 4):
            rep = suite_wu(q, trials=100, seed=SEED)
            assert rep.ok(), rep.failures[:3]


def test_criterion_10_image_and_bezout():
    with criterion(10, "Bezout combination has class 1+e with certificate n = 1 "
                       "(q in {5,7}); regular-representation classes match both sides"):
        for q in (5, 7):
            r1, r2 = (q + 1) // 2, (q - 1) // 2
            assert gcd(r1, r2) == 1
            # extended euclid for a r1 + b r2 = 1
            a, b = 0, 0
            for a_try in range(-r2, r2 + 1):
                if (1 - a_try * r1) % r2 == 0:
                    a, b = a_try, (1 - a_try * r1) // r2
                    break
            assert a * r1 + b * r2 == 1
            pi = symmetrize(principal_series_sl(q, 1)).scaled(a) + \
                symmetrize(cuspidal_sl(q, 1)).scaled(b)
            assert quaternionic_multiplicity(pi) == 1
            total = total_swc(pi, 32)
            ring = total.ring
            assert total.cls == ring.one() + ring.gen_class("e")
            cert = image_exponent(total)
            assert cert is not None and cert[0] % cert[1] == 1 % cert[1]
        t3 = char_table(build_sl2(3))
        total3 = total_swc(regular_rep(t3))
        assert total3.to_dict() == {"0": ["1"], "4": ["e"], "8": ["e^2"], "12": ["e^3"]}
        verify_swc_formula(regular_rep(t3), 64)
        t4 = char_table(build_sl2(4))
        reg4 = regular_rep(t4)
        verify_swc_formula(reg4, 45)   # full degree: 15 * (q-1) = 45
        lhs = total_swc_expanded(reg4, 45).cls
        rhs = swc_from_unipotent(reg4, 45).cls
        assert lhs == rhs and lhs.component(45)


def _check_columns(t):
    """Column orthogonality: sum_a chi_a(c1) chi_a(c2^-1) = |G|/|C_c1| [c1 = c2]."""
    conj = t.conj
    for c1 in range(conj.nclasses()):
        for c2 in range(c1, conj.nclasses()):
            tot = sum((chi.values[c1] * chi.values[conj.inverse_class(c2)] for chi in t.chars),
                      Cyclo.integer(t.m, 0))
            assert cyclo_to_integer(tot) == (len(t.group) // conj.sizes[c1] if c1 == c2 else 0)


def test_criterion_11_character_table_validity():
    with criterion(11, "exact orthogonality and degree sums for all tables; "
                       "principal-series/cuspidal degrees and indicators"):
        for G in [build_sl2(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [build_gl2(3), build_gl2(5)]:
            t = char_table(G)
            assert sum(d * d for d in t.degrees) == len(G)
            _validate_orthogonality(t.conj, t.chars)
            _check_columns(t)
        for q in (5, 7):
            assert principal_series(q, 1).degree() == q + 1
            assert cuspidal(q, 1).degree() == q - 1
            assert fs_indicator(principal_series_sl(q, 1).character()) == -1
            assert fs_indicator(cuspidal_sl(q, 1).character()) == -1
        assert cuspidal(3, 1).degree() == 2
        assert fs_indicator(cuspidal_sl(3, 1).character()) == -1


def test_criterion_12_embedding_independence():
    with criterion(12, "quaternion oracle agrees across >= 3 embeddings for "
                       "every irreducible block (q in {3,5,7})"):
        for q in (3, 5, 7):
            t = char_table(build_sl2(q))
            embs = quaternion_embeddings(t.group, 3)
            assert len(embs) >= 3
            assert len(set(e.gens for e in embs)) >= 3
            for i in range(t.nchars()):
                pi = _single(t, i) if t.fs[i] == 1 else symmetrize(_single(t, i))
                classes = [swc_from_quaternion(pi, e, 32).cls for e in embs]
                assert all(c == classes[0] for c in classes[1:]), (q, i)
