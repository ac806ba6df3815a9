"""Plain `Fraction` double sums for the exact convolutions that the catalog,
the umbral oracle and the Appell self-check compute with `seqcore`'s kernels,
for the correlation kernel itself, and for the Appell operational oracle,
which sums on cleared integers.

Each function is the direct loop over the index range of its formula: no
cleared denominators, no exponential generating functions, and no code shared
with `umbra`.  An exact agreement with the library is therefore an
independent check of the kernel route.
"""
from fractions import Fraction
from math import comb, factorial


def abs_k_transform(a, k):
    """Sign-free k-binomial majorant: b_n = sum_{s<=n} C(n,s) s^k a_s, 0^0 = 1."""
    return [sum(comb(n, s) * (1 if k == 0 else s ** k) * a[s] for s in range(n + 1)) for n in range(len(a))]


def umbral_inner_sums(taylor, a):
    """sum_{m<=n} c_m n!/(n-m)! a_{n-m}, with c_m = 0 past the Taylor table."""
    inner = []
    for n in range(len(a)):
        tot = Fraction(0)
        for m in range(min(n, len(taylor) - 1) + 1):
            if taylor[m]:
                tot += Fraction(taylor[m]) * (factorial(n) // factorial(n - m)) * a[n - m]
        inner.append(tot)
    return inner


def umbral_double_sum(taylor, a, x):
    """sum_n x^n (inner sum)_n, cut at its smallest term."""
    terms = [float(v) * x ** n for n, v in enumerate(umbral_inner_sums(taylor, a))]
    if len(terms) > 3:
        cut = min(range(2, len(terms)), key=lambda n: abs(terms[n]))
    else:
        cut = len(terms) - 1
    return complex(sum(terms[: cut + 1]))


def shifted_gaussian_taylor(scale, shift, order):
    """Taylor coefficients of exp(2 scale shift u - scale u^2) through `order`."""
    scale, shift = Fraction(scale), Fraction(shift)
    lin = [Fraction(2 * scale * shift) ** j / factorial(j) for j in range(order + 1)]
    quad = [Fraction(0)] * (order + 1)
    for l in range(order // 2 + 1):
        quad[2 * l] = (-scale) ** l / Fraction(factorial(l))
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += lin[i] * quad[j]
    return tuple(out)


def bernoulli_numbers(order):
    """B_0 .. B_order from sum_{j<=n} C(n+1, j) B_j = 0, in Fractions."""
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(comb(n + 1, j) * b[j] for j in range(n))
        b.append(-acc / (n + 1))
    return tuple(b)


def series_product(a, b):
    """Cauchy product sum_{j<=n} a_j b_{n-j} for n < len(a)."""
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


def operational_coefficients(inv, f, N):
    """alpha_n = sum_m c_m f_{n+m} (n+m)!/n! over the Taylor table inv of 1/A, with
    f.taylor the function's Taylor coefficients."""
    out = []
    for n in range(N + 1):
        acc = Fraction(0)
        for m, cm in enumerate(inv):
            if cm:
                acc += cm * f.taylor(n + m) * (factorial(n + m) // factorial(n))
        out.append(acc)
    return out


def correlation(phi, F, count, divisors):
    """c_j = sum_k phi_k F_{j+k} / d_j for j < count, with F_i = 0 past the end of F."""
    out = []
    for j in range(count):
        acc = Fraction(0)
        for k, p in enumerate(phi):
            if j + k < len(F):
                acc += Fraction(p) * F[j + k]
        out.append(acc / divisors[j])
    return out
