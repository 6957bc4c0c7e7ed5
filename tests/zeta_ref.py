"""A test-side exact reference for Z[zeta_m]: coefficient vectors reduced by
the m-th cyclotomic polynomial, by plain long division.  It shares nothing
with the package's reading of values but `algebra.cyclotomic_polynomial`,
which tests/test_algebra.py checks against t^m - 1 = prod_{d | m} Phi_d."""

import numpy as np

from sl2swc.algebra import cyclotomic_polynomial


def reduce_mod_phi(m, vec):
    """The normal form of sum vec[k] zeta_m^k: the remainder modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    out = list(vec) + [0] * max(0, deg - len(vec))
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            for i, a in enumerate(phi):
                out[k - deg + i] -= c * a
    return tuple(out[:deg])


def lift(m, w):
    """sum_t w[t] zeta_o^t, o = len(w), as a normal form in Z[zeta_m]: the
    same long division, one int64 row operation per step.  A step raises no
    entry by more than |c|·max|Phi_m|, so the division is exact while those
    raises, summed, stay below 2^63."""
    phi = np.array(cyclotomic_polynomial(m), dtype=np.int64)
    deg = len(phi) - 1
    vec = np.zeros(max(m, deg), dtype=np.int64)
    vec[:: m // len(w)] = [int(x) for x in w]
    bound, top = int(np.abs(vec).max()), int(np.abs(phi).max())
    for k in range(len(vec) - 1, deg - 1, -1):
        c = int(vec[k])
        if c:
            vec[k - deg:k + 1] -= c * phi
            bound += abs(c) * top
    assert bound < 2 ** 63, "the division left int64"
    return tuple(vec[:deg].tolist())


def product_sum(m, pairs):
    """sum a·b over the pairs (a, b) of normal forms, as a normal form."""
    acc = []
    for a, b in pairs:
        need = len(a) + len(b) - 1
        acc += [0] * (need - len(acc))
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
    return reduce_mod_phi(m, acc)


def integer(m, n):
    return reduce_mod_phi(m, [n])
