"""A test-side exact reference for Z[zeta_m]: coefficient vectors reduced by
the m-th cyclotomic polynomial, by plain long division.  It shares nothing
with the package's reading of values but `algebra.cyclotomic_polynomial`,
which tests/test_algebra.py checks against t^m - 1 = prod_{d | m} Phi_d."""

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
    """sum_t w[t] zeta_o^t, o = len(w), as a normal form in Z[zeta_m]."""
    vec = [0] * m
    vec[:: m // len(w)] = [int(x) for x in w]
    return reduce_mod_phi(m, vec)


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
