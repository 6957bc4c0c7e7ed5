import json
import os
import resource
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2swc.characters import (
    NotOrthogonal,
    VirtualRep,
    char_table,
    oir_labels,
    regular_rep,
    rep_from_oir_blocks,
    symmetrize,
    trivial_rep,
)
from sl2swc.cohomology import dickson_ring, sl2_odd_class_ring
from sl2swc.groups import build_sl2
from sl2swc.oracle import verify_swc_formula
from sl2swc.swc import (
    WrongParity,
    _power,
    image_exponent,
    obstruction,
    quaternionic_multiplicity,
    swc_report,
    top_class_nonzero,
    total_swc,
    total_swc_expanded,
    unipotent_multiplicities,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _single(table, i):
    mults = [0] * table.nchars()
    mults[i] = 1
    return VirtualRep(table, mults)


def _symplectic_index(table, degree=None):
    return next(
        i for i in range(table.nchars())
        if table.fs[i] == -1 and (degree is None or table.degrees[i] == degree)
    )


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_r_of_regular_sl23():
    t = char_table(build_sl2(3))
    assert quaternionic_multiplicity(regular_rep(t)) == 3  # |G| / 8


def test_r_of_symmetrized_pi0():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))
    assert quaternionic_multiplicity(s) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_r_vanishes_on_irreducible_orthogonal(q):
    t = char_table(build_sl2(q))
    for i in range(t.nchars()):
        if t.fs[i] == 1:
            assert quaternionic_multiplicity(_single(t, i)) == 0


def test_r_rejects_non_orthogonal():
    t = char_table(build_sl2(3))
    with pytest.raises(NotOrthogonal):
        quaternionic_multiplicity(_single(t, _symplectic_index(t)))


def test_r_wrong_parity():
    t = char_table(build_sl2(4))
    with pytest.raises(WrongParity):
        quaternionic_multiplicity(regular_rep(t))
    t3 = char_table(build_sl2(3))
    with pytest.raises(WrongParity):
        unipotent_multiplicities(regular_rep(t3))


def test_r_additivity():
    t = char_table(build_sl2(5))
    a = symmetrize(_single(t, _symplectic_index(t)))
    b = regular_rep(t)
    assert (
        quaternionic_multiplicity(a + b)
        == quaternionic_multiplicity(a) + quaternionic_multiplicity(b)
    )


def test_r_of_symmetrized_symplectic_is_half_degree():
    for q in (3, 5, 7):
        t = char_table(build_sl2(q))
        for i in range(t.nchars()):
            if t.fs[i] == -1:
                s = symmetrize(_single(t, i))
                assert quaternionic_multiplicity(s) == t.degrees[i] // 2


def test_m_examples():
    t4 = char_table(build_sl2(4))
    assert unipotent_multiplicities(trivial_rep(t4)) == (1, 0)
    for i in range(t4.nchars()):
        if t4.degrees[i] > 1:
            ell, m = unipotent_multiplicities(_single(t4, i))
            assert m == 1
    ell, m = unipotent_multiplicities(regular_rep(t4))
    assert m == 15
    # additivity
    a, b = _single(t4, 1), regular_rep(t4)
    assert unipotent_multiplicities(a + b)[1] == \
        unipotent_multiplicities(a)[1] + unipotent_multiplicities(b)[1]


# ---------------------------------------------------------------------------
# total classes
# ---------------------------------------------------------------------------

def test_total_regular_sl23():
    t = char_table(build_sl2(3))
    total = total_swc(regular_rep(t))
    assert total.to_dict() == {"0": ["1"], "4": ["e"], "8": ["e^2"], "12": ["e^3"]}


def test_total_virtual_inverse():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))   # r = 1
    neg = VirtualRep(t, [0] * t.nchars()) - s
    total = total_swc(neg, 20)
    # series inverse of 1 + e: all coefficients 1
    assert all(total.cls.component(4 * i) for i in range(6))


def test_total_even_irreducible():
    t = char_table(build_sl2(4))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 3)
    total = total_swc_expanded(_single(t, i), 64)
    P = total.ring
    v1, v2 = P.gen_class("v1"), P.gen_class("v2")
    d1 = v1 * v1 + v1 * v2 + v2 * v2
    d2 = v1 * v2 * (v1 + v2)
    assert total.cls == P.one() + d1 + d2


@pytest.mark.parametrize("ring", [sl2_odd_class_ring(40), dickson_ring(2, 40)],
                         ids=["q=3", "q=4"])
def test_power_windows_match_pow_int(ring):
    # every window of (1+g)^n, negative n with lo > 0 included, against the
    # square-and-multiply power with the series inverse
    one_plus_g = ring.one()
    for name in ring.names:
        one_plus_g = one_plus_g + ring.gen_class(name)
    for n in range(-40, 41):
        full = one_plus_g.pow_int(n)
        for lo, hi in [(0, 40), (0, 13), (5, 27), (12, 12), (20, 40), (40, 40), (3, 2)]:
            assert _power(ring, n, hi, lo) == full.truncate(hi, lo), (n, lo, hi)


@st.composite
def _genuine_pair(draw):
    """Two genuine orthogonal representations of SL(2,q), summed from
    orthogonally irreducible blocks, and a truncation at most both degrees."""
    t = char_table(build_sl2(draw(st.sampled_from([3, 4, 5, 8]))))
    blocks = st.lists(st.sampled_from([lab for lab, _ in oir_labels(t)]), min_size=1, max_size=3)
    pi, rho = (rep_from_oir_blocks(t, Counter(draw(blocks))) for _ in range(2))
    return pi, rho, min(draw(st.integers(0, 24)), pi.degree(), rho.degree())


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(case=_genuine_pair())
def test_whitney_sum(case):
    pi, rho, D = case
    w_pi, w_rho = total_swc(pi, D).cls, total_swc(rho, D).cls
    assert total_swc(pi + rho, D).cls == w_pi * w_rho
    # when rho is a summand of pi the difference is genuine and truncates at
    # its own degree, above which the quotient vanishes
    assert total_swc(pi - rho, D).to_dict() == (w_pi * w_rho.inverse()).to_dict()
    verify_swc_formula(pi + rho, D)


def test_genuine_truncates_at_degree():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))   # degree 4
    total = total_swc(s, 100)
    assert total.ring.D == 4
    assert total.to_dict() == {"0": ["1"], "4": ["e"]}


# ---------------------------------------------------------------------------
# obstruction and top class
# ---------------------------------------------------------------------------

def test_obstruction_examples():
    t = char_table(build_sl2(3))
    reg = regular_rep(t)          # r = 3, t = ord2(3) = 0
    deg, cls = obstruction(reg)
    assert deg == 4 and cls.monomial_strings(4) == ["e"]
    s = symmetrize(_single(t, _symplectic_index(t, 2)))   # r = 1
    assert obstruction(s)[0] == 4
    # r = 6: first odd binomial at i = 2
    six = s.scaled(6)
    deg, cls = obstruction(six)
    assert deg == 8 and cls.monomial_strings(8) == ["e^2"]
    assert obstruction(trivial_rep(t)) == (None, None)


def test_obstruction_survives_small_truncation():
    # the obstruction is checked at its own degree even when the requested
    # truncation is below it
    t = char_table(build_sl2(3))
    d = swc_report(regular_rep(t), 2).to_json_dict()
    assert d["truncation"] == 2 and d["obstruction_degree"] == 4


def test_obstruction_even():
    t8 = char_table(build_sl2(8))
    i = next(i for i in range(t8.nchars()) if t8.degrees[i] > 1)
    pi = _single(t8, i).scaled(2)          # m = 2, s = 1, r = 3
    deg, cls = obstruction(pi)
    assert deg == 8 and cls.monomial_strings(8) == ["d1^2"]


def test_top_class_odd():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))
    flag, criterion = top_class_nonzero(s)
    assert flag and "acts by -1" in criterion
    assert top_class_nonzero(trivial_rep(t))[0] is False


def test_top_class_even_cuspidal_degree():
    t = char_table(build_sl2(4))
    i = next(i for i in range(t.nchars()) if t.degrees[i] == 3)   # degree q - 1
    flag, _ = top_class_nonzero(_single(t, i))
    assert flag
    # the top component is the highest Dickson invariant
    from sl2swc.cohomology import dickson

    total = total_swc_expanded(_single(t, i), 64)
    d2 = dickson(2, total.ring.D)[1]
    assert total.cls.component(3) == d2.component(3)


@pytest.mark.parametrize("q,size", [(2, 4), (4, 4), (8, 3), (3, 4), (5, 3)])
def test_top_class_matches_full_product(q, size):
    # the pruned top component against the full product (1+g)^n at deg pi;
    # for odd q the summands are the orthogonally irreducible blocks
    t = char_table(build_sl2(q))
    blocks = [lab for lab, _ in oir_labels(t)] if q % 2 else range(t.nchars())
    cases = 0
    flags = set()
    for n in range(1, size + 1):
        for combo in combinations_with_replacement(range(len(blocks)), n):
            if q % 2:
                pi = rep_from_oir_blocks(t, Counter(blocks[i] for i in combo))
            else:
                pi = VirtualRep(t, [combo.count(i) for i in range(t.nchars())])
            deg = pi.degree()
            flag, _ = top_class_nonzero(pi)
            assert flag == bool(total_swc(pi, deg).cls.component(deg)), combo
            flags.add(flag)
            cases += 1
    assert cases == {2: 34, 4: 125, 8: 219, 3: 125, 5: 219}[q]
    assert flags == {False, True}


@pytest.mark.parametrize("q", [3, 5])
def test_odd_total_is_the_lucas_series(q):
    # the reference: (1+e)^r = sum of e^i over the i with C(r, i) odd, where
    # C(r, i) = (-1)^i C(i - r - 1, i) for r < 0
    t = char_table(build_sl2(q))
    block = next(rep_from_oir_blocks(t, {lab: 1}) for lab, _ in oir_labels(t)
                 if quaternionic_multiplicity(rep_from_oir_blocks(t, {lab: 1})) == 1)
    for r in range(-40, 41):
        total = total_swc(block.scaled(r), 64)
        ring = total.ring
        assert ring.D == (64 if r < 0 else min(64, block.degree() * r))
        odd = [i for i in range(ring.D // 4 + 1)
               if (comb(r, i) if r >= 0 else comb(i - r - 1, i)) % 2]
        assert total.cls == ring.from_monomials([(i,) for i in odd]), r


def test_regular_q16_report_matches_oracle():
    reg = regular_rep(char_table(build_sl2(16)))
    report = swc_report(reg, 32)
    assert report.total_expanded == verify_swc_formula(reg, 32)["expanded"]


def _swc_in_512_mib(tmp_path, q, rep):
    """The JSON report of `swc --q q --rep rep` run under a 512 MiB
    address-space cap; the call must succeed."""
    limit = 512 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2swc.cli", "swc", "--q", str(q), "--rep", rep,
         "--cache-dir", str(tmp_path)],
        capture_output=True, env=env, preexec_fn=cap, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_regular_q16_cli_fits_in_512_mib(tmp_path):
    # swc --q 16 --rep reg used to exhaust this address-space cap
    out = _swc_in_512_mib(tmp_path, 16, "reg")
    assert (out["degree"], out["r_or_m"], out["ell"]) == (4080, 255, 255)
    assert out["top_nonzero"] is False and out["obstruction_degree"] == 8


def test_huge_odd_degree_cli_fits_in_512_mib(tmp_path):
    # the top class at deg pi = 23,592,960 and the obstruction at degree
    # 4 * 2^16 are computed in F2[e]; the ring with b ran out of memory here
    out = _swc_in_512_mib(tmp_path, 9, "32768*reg")
    assert (out["degree"], out["r_or_m"]) == (720 * 32768, 90 * 32768)
    assert out["top_nonzero"] is False and out["obstruction_degree"] == 4 * 2**16


# ---------------------------------------------------------------------------
# image certificates
# ---------------------------------------------------------------------------

def test_image_exponent_one():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))
    n, mod = image_exponent(total_swc(s, 16))
    assert n % mod == 1 % mod


def test_image_exponent_minus_one():
    t = char_table(build_sl2(3))
    s = symmetrize(_single(t, _symplectic_index(t, 2)))
    neg = VirtualRep(t, [0] * t.nchars()) - s
    n, mod = image_exponent(total_swc(neg, 32))
    assert (n + 1) % mod == 0


def test_image_exponent_even_regular():
    t = char_table(build_sl2(4))
    cert = image_exponent(total_swc(regular_rep(t), 45))
    assert cert is not None and cert[0] % cert[1] == 15 % cert[1]


def test_symmetrized_series_sum_has_degree4_class():
    # r(S(ps) + S(cusp)) = q, and (1+e)^q has degree-4 coefficient 1 for odd q
    from sl2swc.characters import cuspidal_sl, principal_series_sl

    for q in (5, 7):
        eta = symmetrize(principal_series_sl(q, 1)) + symmetrize(cuspidal_sl(q, 1))
        assert quaternionic_multiplicity(eta) == q
        total = total_swc(eta)
        assert total.cls.component(4)


def test_image_exponent_rejects_outside():
    from sl2swc.cohomology import sl2_odd_class_ring
    from sl2swc.swc import TotalSWC

    S = sl2_odd_class_ring(16)
    e = S.gen_class("e")
    # no (1+e)^n starts 1 + e + e^2: the digits read n = 3, and (1+e)^3 has e^3
    assert image_exponent(TotalSWC(S.one() + e + e * e, "sl2-odd")) is None


def test_report_shapes():
    t = char_table(build_sl2(3))
    rep = swc_report(regular_rep(t))
    d = rep.to_json_dict()
    assert d["schema"] == "sl2swc/1"
    assert d["r_or_m"] == 3 and d["parity"] == "odd" and d["ell"] is None
    t4 = char_table(build_sl2(4))
    d4 = swc_report(regular_rep(t4)).to_json_dict()
    assert d4["parity"] == "even" and d4["r_or_m"] == 15 and d4["ell"] == 15
    assert d4["total_expanded"] is not None
