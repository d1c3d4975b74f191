"""The generic factorization engine, kept as the reference for the tests.

Complete factorization into monic irreducibles over any constructed finite
field, via squarefree decomposition, distinct-degree splitting, and seeded
Cantor-Zassenhaus equal-degree splitting.  For a fixed seed the output is
identical across runs; across seeds the factor multiset is identical (only
internal random choices vary).

No production path factors anything but binomials x^ell - c with
ell | p - 1, which ``heissplit.polynomial.factor_binomial`` does without
randomness.  The tests hold that engine, ``finite_field.binomial_roots``
and the splitting oracle to this one, answer for answer.  The
distinct-degree loop ``_ddf`` stays in the package, where Ben-Or's test
(``is_irreducible``) runs through it.
"""

from __future__ import annotations

import random

from heissplit.errors import HeisSplitError, ZeroPolynomialError
from heissplit.finite_field import PrimeField
from heissplit.polynomial import Factorization, Poly, _ddf
from heissplit.seeds import derive_seed


class NotSquarefreeError(HeisSplitError):
    """Polynomial has a repeated factor where a squarefree one is required."""


def derivative(f: Poly) -> Poly:
    fld = f.field
    p = fld.char
    out = []
    for i in range(1, len(f.coeffs)):
        k = i % p
        if k == 0:
            out.append(fld.zero)
        elif isinstance(fld, PrimeField):
            out.append(k * f.coeffs[i] % p)
        else:
            out.append(fld.mul(fld.embed(k), f.coeffs[i]))
    return Poly(fld, out)


def _pth_root_poly(f: Poly) -> Poly:
    """For f = g(x^p), recover g (taking p-th roots of coefficients)."""
    fld = f.field
    p = fld.char
    # p-th root of c in F_{p^m} is c^(p^(m-1)); in F_p it is c itself.
    root_exp = fld.order // p
    out = []
    for i in range(0, len(f.coeffs), p):
        c = f.coeffs[i]
        out.append(c if root_exp == 1 else fld.pow(c, root_exp))
    return Poly(fld, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities (characteristic-p aware)."""
    fld = f.field
    p = fld.char
    out: list[tuple[Poly, int]] = []
    e = 1
    f = f.monic()
    while f.degree > 0:
        df = derivative(f)
        if df.is_zero:
            f = _pth_root_poly(f)
            e *= p
            continue
        g = f.gcd(df)
        w = f // g
        i = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree > 0:
                out.append((z, i * e))
            w = y
            g = g // y
            i += 1
        f = g
    out.sort(key=lambda pair: (pair[1], pair[0].sort_key()))
    return out


def _random_poly(fld, max_degree: int, rng: random.Random) -> Poly:
    while True:
        cand = Poly(fld, [fld.sample(rng) for _ in range(max_degree + 1)])
        if cand.degree >= 1:
            return cand


def _edf(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Equal-degree split: f is monic, all irreducible factors have degree d."""
    fld = f.field
    if f.degree == d:
        return [f]
    q = fld.order
    one = Poly.one(fld)
    while True:
        h = _random_poly(fld, f.degree - 1, rng)
        g = f.gcd(h)
        if 0 < g.degree < f.degree:
            break
        if fld.char == 2:
            # additive trace map splits in characteristic 2
            k = d * (q.bit_length() - 1)  # q = 2^k exactly
            t = h % f
            acc = t
            for _ in range(k - 1):
                t = t.pow_mod(2, f)
                acc = acc + t
            g = f.gcd(acc)
        else:
            w = h.pow_mod((q**d - 1) // 2, f)
            g = f.gcd(w - one)
        if 0 < g.degree < f.degree:
            break
    return _edf(g, d, rng) + _edf(f // g, d, rng)


def factor(f: Poly, seed: int) -> Factorization:
    """Complete factorization into monic irreducibles, canonically sorted.

    Deterministic for a fixed seed; the factor multiset does not depend on
    the seed at all.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    unit = f.leading
    f = f.monic()
    if f.degree == 0:
        return Factorization(field=f.field, unit=unit, factors=())
    factors: list[tuple[Poly, int]] = []
    for part, mult in squarefree_decomposition(f):
        for prod, d in _ddf(part):
            rng = random.Random(derive_seed(seed, "edf", d, prod.sort_key()))
            for irred in _edf(prod, d, rng):
                factors.append((irred, mult))
    factors.sort(key=lambda pair: pair[0].sort_key())
    return Factorization(field=f.field, unit=unit, factors=tuple(factors))


def count_irreducible_factors(f: Poly, seed: int) -> tuple[int, tuple[int, ...]]:
    """(number of irreducible factors, sorted degree multiset) of squarefree f."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    df = derivative(f)
    if df.is_zero or f.gcd(df).degree > 0:
        raise NotSquarefreeError("polynomial has repeated factors")
    fac = factor(f, seed)
    degrees = tuple(sorted(p.degree for p, _ in fac.factors))
    return len(fac.factors), degrees


def roots_in_field(f: Poly) -> tuple:
    """All roots of f in its coefficient field, sorted canonically.

    Found via gcd(f, x^q - x) followed by equal-degree splitting; the root
    set is choice-free, so a fixed internal seed keeps this deterministic.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot take roots of the zero polynomial")
    fld = f.field
    if f.degree == 0:
        return ()
    x = Poly.x(fld)
    h = x.pow_mod(fld.order, f)
    g = f.gcd(h - x)
    if g.degree == 0:
        return ()
    rng = random.Random(derive_seed(0, "roots", g.sort_key()))
    roots = []
    for lin in _edf(g, 1, rng):
        c0, c1 = lin.coeffs
        root = fld.neg(fld.mul(c0, fld.inv(c1)))
        roots.append(root)
    roots.sort(key=fld.elem_key)
    return tuple(roots)
