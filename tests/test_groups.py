import os
import random
import subprocess
import sys
from functools import reduce
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from sl2swc.characters import structure_constants
from sl2swc.groups import (
    EvenQ,
    TooLarge,
    UnsupportedTag,
    build_gl2,
    build_sl2,
    conjugacy,
    find_quaternion,
    gen_quaternion,
    quaternion_embeddings,
    standard_subgroup,
    subgroup_from_indices,
)


def test_orders():
    assert len(build_sl2(3)) == 24
    assert len(build_sl2(4)) == 60
    assert len(build_gl2(5)) == 480


def test_too_large():
    with pytest.raises(TooLarge):
        build_sl2(83)


def test_class_counts():
    assert conjugacy(build_sl2(2)).nclasses() == 3
    assert conjugacy(build_sl2(3)).nclasses() == 7
    assert conjugacy(build_sl2(4)).nclasses() == 5


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_class_equation(q):
    G = build_sl2(q)
    conj = conjugacy(G)
    assert sum(conj.sizes) == len(G)
    assert all(len(G) % s == 0 for s in conj.sizes)


# ---------------------------------------------------------------------------
# Brute-force reference: products of element tuples written out here, with no
# use of the group's own product
# ---------------------------------------------------------------------------

REFERENCE_GROUPS = (
    [("sl2", q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [("gl2", q) for q in (2, 3, 4)]
    + [("genq", n) for n in (4, 5)]
)


def _group(kind, param):
    return {"sl2": build_sl2, "gl2": build_gl2, "genq": gen_quaternion}[kind](param)


def _tuple_product(G):
    """(x, y) -> x*y on element tuples, and the identity tuple."""
    if G.kind in ("sl2", "gl2"):
        add, mul = G.field.add, G.field.mul

        def prod(x, y):
            a, b, c, d = x
            e, f, g, h = y
            return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                    add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

        return prod, (1, 0, 0, 1)
    M = len(G) // 2

    def prod(x, y):  # a^M = 1, b^2 = a^(M/2), b a b^-1 = a^-1
        (k, l), (k2, l2) = x, y
        if l == 0:
            return ((k + k2) % M, l2)
        if l2 == 0:
            return ((k - k2) % M, 1)
        return ((k - k2 + M // 2) % M, 0)

    return prod, (0, 0)


def _reference_conjugacy(G):
    prod, one = _tuple_product(G)
    elems = [G.elem(i) for i in range(len(G))]
    index = {e: i for i, e in enumerate(elems)}
    powers = []  # powers[i][k] = elems[i]^k for k < ord(elems[i])
    for x in elems:
        row = [one]
        while (nxt := prod(row[-1], x)) != one:
            row.append(nxt)
        powers.append(row)
    inverse = [row[-1] for row in powers]
    class_of, classes, reps = [-1] * len(elems), [], []
    for g, y in enumerate(elems):
        if class_of[g] >= 0:
            continue
        orbit = sorted({index[prod(prod(x, y), inverse[i])] for i, x in enumerate(elems)})
        for h in orbit:
            class_of[h] = len(classes)
        classes.append(tuple(orbit))
        reps.append(g)
    orders = [len(powers[r]) for r in reps]
    exponent = reduce(lcm, orders, 1)
    power = [[class_of[index[powers[r][k % len(powers[r])]]] for k in range(exponent)]
             for r in reps]
    return {"classes": classes, "class_of": class_of, "reps": reps,
            "sizes": [len(c) for c in classes], "orders": orders,
            "exponent": exponent, "power": power, "inverse": inverse}


@pytest.mark.parametrize("kind, param", REFERENCE_GROUPS,
                         ids=[f"{k}-{p}" for k, p in REFERENCE_GROUPS])
def test_conjugacy_matches_brute_force(kind, param):
    G = _group(kind, param)
    conj = conjugacy(G)
    ref = _reference_conjugacy(G)
    for name in ("class_of", "reps", "sizes", "orders", "exponent", "power"):
        assert getattr(conj, name) == ref[name], name
    classes = [[] for _ in conj.reps]
    for x, c in enumerate(conj.class_of):
        classes[c].append(x)
    assert [tuple(c) for c in classes] == ref["classes"]
    assert [G.elem(G.inv(i)) for i in range(len(G))] == ref["inverse"]
    assert [G.elem_order(i) for i in range(len(G))] == \
        [ref["orders"][c] for c in ref["class_of"]]


def test_power_class_consistency_recomputed():
    # the build checks this only up to each element's order; recheck every
    # element through the full exponent with tuple products
    for kind, param in REFERENCE_GROUPS:
        G = _group(kind, param)
        prod, one = _tuple_product(G)
        conj = conjugacy(G)
        elems = [G.elem(i) for i in range(len(G))]
        index = {e: i for i, e in enumerate(elems)}
        for x, e in enumerate(elems):
            cur = one
            for k in range(conj.exponent + 1):
                got = conj.class_of[index[cur]]
                assert got == conj.power_class(conj.class_of[x], k), (G.name, x, k)
                cur = prod(cur, e)


def test_structure_constants_match_brute_force():
    G = build_sl2(5)
    prod, _ = _tuple_product(G)
    ref = _reference_conjugacy(G)
    cls, s = ref["class_of"], len(ref["reps"])
    want = [[[0] * s for _ in range(s)] for _ in range(s)]
    for k, r in enumerate(ref["reps"]):
        z = G.elem(r)
        for x in range(len(G)):
            y = prod(ref["inverse"][x], z)
            want[cls[x]][cls[G.find(y)]][k] += 1
    assert structure_constants(G, conjugacy(G)) == want


def test_checks_survive_python_O():
    # each check must raise with assert statements stripped: {1, a} in Q8 is
    # not closed under inverses (a has order 4), {1, a, a^3} is closed under
    # inverses but not under products (a·a), and codes in decreasing order
    # would break the binary search in locate; the closed forms and the
    # oracles take genuine representations only, a total class is a unit,
    # representations combine over one table with one multiplicity per
    # character, and a rep expression cannot lead with a negative term
    q8 = ("from sl2swc.groups import Group, gen_quaternion, subgroup_from_indices\n"
          "G = gen_quaternion(3)\n")
    q3 = ("from sl2swc.characters import char_table, regular_rep, trivial_rep\n"
          "from sl2swc.groups import build_sl2\n"
          "t = char_table(build_sl2(3))\n"
          "v = trivial_rep(t) - regular_rep(t)\n")
    cases = [(q8 + "subgroup_from_indices(G, [G.identity, G.find((1, 0))], 'bad')",
              "AssertionError", "not closed under inverses"),
             (q8 + "subgroup_from_indices(G, [G.identity, G.find((1, 0)), G.find((3, 0))], 'bad')",
              "AssertionError", "not closed under products"),
             (q8 + "Group('bad', 'sub', G.codes[::-1].copy(), G.arith, (0, 0))",
              "AssertionError", "do not strictly increase"),
             (q3 + "from sl2swc.swc import obstruction\nobstruction(v)",
              "ValueError", "genuine representations"),
             (q3 + "from sl2swc.oracle import swc_from_center\nswc_from_center(v, 8)",
              "ValueError", "genuine representations"),
             ("from sl2swc.cohomology import center_ring\nfrom sl2swc.swc import TotalSWC\n"
              "TotalSWC(center_ring(8).zero(), 'center')",
              "AssertionError", "must be a unit"),
             (q3 + "trivial_rep(t) + trivial_rep(char_table(build_sl2(5)))",
              "ValueError", "representations of SL(2,3) and SL(2,5)"),
             (q3 + "from sl2swc.characters import VirtualRep\nVirtualRep(t, [1])",
              "ValueError", "1 multiplicities for 7 characters"),
             ("from sl2swc.cli import print_rep_terms\nprint_rep_terms([(-2, ('X', 1))])",
              "ValueError", "leading negative term")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for make, error, message in cases:
        code = ("import sys\n"
                "if not sys.flags.optimize: sys.exit(5)\n"
                f"{make}\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, (make, proc.stderr)
        assert error in proc.stderr
        assert message in proc.stderr


@pytest.mark.parametrize("make", [lambda: build_sl2(3), lambda: gen_quaternion(4)],
                         ids=["SL(2,3)", "Q16"])
def test_product_closure_check_matches_brute_force(make):
    # inverse-closed sets with the identity, half of them closed up to a
    # subgroup: construction must fail exactly when S·S is not inside S
    G = make()
    X = np.arange(len(G))
    table = G.mul_many(X[:, None], X[None, :])

    def products(S):
        return set(table[np.ix_(list(S), list(S))].ravel().tolist())

    rng = random.Random(7)
    verdicts = set()
    for _ in range(200):
        S = {G.identity}
        for x in rng.sample(range(len(G)), rng.randrange(1, 4)):
            S |= {x, G.inv(x)}
        while rng.random() < 0.5 and not products(S) <= S:
            S |= products(S)
        closed = products(S) <= S
        verdicts.add(closed)
        if closed:
            assert len(subgroup_from_indices(G, list(S), "s")) == len(S)
        else:
            with pytest.raises(AssertionError, match="not closed under products"):
                subgroup_from_indices(G, list(S), "s")
    assert verdicts == {True, False}


def test_center_sl25():
    Z = standard_subgroup(build_sl2(5), "Z")
    assert len(Z) == 2
    G = Z.parent
    m1 = G.field.neg[1]
    assert {Z.group.elem(i) for i in range(len(Z.group))} == {(1, 0, 0, 1), (m1, 0, 0, m1)}


def test_center_even_is_trivial():
    assert len(standard_subgroup(build_sl2(4), "Z")) == 1


def test_unitriangular_sl24():
    N = standard_subgroup(build_sl2(4), "N")
    assert len(N) == 4
    H = N.group
    assert all(H.mult(i, i) == H.identity for i in range(len(H)))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_unitriangular_is_sylow_for_even_q(q):
    G = build_sl2(q)
    N = standard_subgroup(G, "N")
    assert len(N) == q
    assert (len(G) // len(N)) % 2 == 1
    assert all(N.group.mult(i, i) == N.group.identity for i in range(len(N.group)))


def test_elliptic_torus_gl23():
    Te = standard_subgroup(build_gl2(3), "Te")
    assert len(Te) == 8
    orders = [Te.group.elem_order(i) for i in range(8)]
    assert max(orders) == 8  # cyclic


def test_subgroup_orders():
    G = build_sl2(5)
    assert len(standard_subgroup(G, "N")) == 5
    assert len(standard_subgroup(G, "T")) == 4
    assert len(standard_subgroup(G, "B")) == 20
    assert len(standard_subgroup(G, "ZN")) == 10
    Gt = build_gl2(3)
    assert len(standard_subgroup(Gt, "T")) == 4
    assert len(standard_subgroup(Gt, "B")) == 12
    assert len(standard_subgroup(Gt, "ZN")) == 6
    with pytest.raises(UnsupportedTag):
        standard_subgroup(G, "Te")
    with pytest.raises(UnsupportedTag):
        standard_subgroup(G, "nope")


def test_find_quaternion_sl23():
    G = build_sl2(3)
    Q = find_quaternion(G)
    assert len(Q) == 8
    H = Q.group
    invol = [i for i in range(8) if i != H.identity and H.mult(i, i) == H.identity]
    assert len(invol) == 1


@pytest.mark.parametrize("q", [5, 7])
def test_find_quaternion_square_is_minus_one(q):
    G = build_sl2(q)
    Q = find_quaternion(G)
    x, y = Q.gens
    m1 = G.field.neg[1]
    minus_one = G.find((m1, 0, 0, m1))
    assert G.mult(x, x) == minus_one
    assert G.mult(y, y) == minus_one
    assert G.mult(G.mult(y, x), G.inv(y)) == G.inv(x)


def test_find_quaternion_even_q_rejected():
    with pytest.raises(EvenQ):
        find_quaternion(build_sl2(4))


def test_quaternion_embeddings_counts():
    for q in (3, 5, 7):
        embs = quaternion_embeddings(build_sl2(q), 3)
        assert len(embs) == 3
        assert len(set(e.gens for e in embs)) == 3
    # SL(2,3) has a unique (normal) subgroup of order 8
    assert len(set(e.indices for e in quaternion_embeddings(build_sl2(3), 3))) == 1
    assert len(set(e.indices for e in quaternion_embeddings(build_sl2(5), 3))) == 3


def test_gen_quaternion_q8():
    Q = gen_quaternion(3)
    assert len(Q) == 8
    invol = [i for i in range(8) if i != Q.identity and Q.mult(i, i) == Q.identity]
    assert len(invol) == 1


def test_gen_quaternion_q16():
    Q = gen_quaternion(4)
    assert len(Q) == 16
    a = Q.find((1, 0))
    b = Q.find((0, 1))
    assert Q.elem_order(a) == 8
    # a^{2^{n-2}} = b^2 and b a b^-1 = a^-1
    assert Q.mult(b, b) == Q.find((4, 0))
    assert Q.mult(Q.mult(b, a), Q.inv(b)) == Q.inv(a)


def test_q16_contains_q8():
    Q = gen_quaternion(4)
    a2 = Q.find((2, 0))
    b = Q.find((0, 1))
    # closure of <a^2, b> has the quaternion presentation of order 8
    idxs = {Q.identity}
    frontier = [a2, b]
    while frontier:
        nxt = []
        for g in frontier:
            for h in (a2, b):
                for prod in (Q.mult(g, h), Q.mult(h, g)):
                    if prod not in idxs:
                        idxs.add(prod)
                        nxt.append(prod)
        frontier = nxt
    assert len(idxs) == 8
    x2 = Q.mult(a2, a2)
    assert x2 == Q.mult(b, b) and Q.mult(x2, x2) == Q.identity
    assert Q.mult(Q.mult(b, a2), Q.inv(b)) == Q.inv(a2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gen_quaternion_derived_subgroup_index_4(n):
    Q = gen_quaternion(n)
    comms = {Q.identity}
    for x in range(len(Q)):
        for y in range(len(Q)):
            comms.add(Q.mult(Q.mult(x, y), Q.mult(Q.inv(x), Q.inv(y))))
    # close under multiplication
    changed = True
    while changed:
        changed = False
        for a in list(comms):
            for b in list(comms):
                p = Q.mult(a, b)
                if p not in comms:
                    comms.add(p)
                    changed = True
    assert len(Q) // len(comms) == 4


def test_subgroup_from_indices():
    G = gen_quaternion(3)
    z = next(i for i in range(8) if i != G.identity and G.mult(i, i) == G.identity)
    Z = subgroup_from_indices(G, [G.identity, z], "Z")
    assert len(Z) == 2


# ---------------------------------------------------------------------------
# Element API: tuples only through find and elem
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, param", REFERENCE_GROUPS,
                         ids=[f"{k}-{p}" for k, p in REFERENCE_GROUPS])
def test_find_inverts_elem(kind, param):
    G = _group(kind, param)
    assert all(G.find(G.elem(i)) == i for i in range(len(G)))


def test_find_inverts_elem_in_a_subgroup():
    H = standard_subgroup(build_gl2(4), "B").group
    assert [H.find(H.elem(i)) for i in range(len(H))] == list(range(len(H)))


def test_find_rejects_non_members():
    G = build_sl2(3)
    with pytest.raises(KeyError):
        G.find((0, 0, 0, 0))
    with pytest.raises(KeyError):
        G.find((2, 0, 0, 1))  # determinant 2
    with pytest.raises(KeyError):
        gen_quaternion(4).find((8, 0))  # a has order 8: no word a^8
    with pytest.raises(KeyError):
        G.find((0, 3, 0, 1))  # entry 3 is out of range; codes as the identity
