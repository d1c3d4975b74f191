"""The generic factorization engine, kept as the reference for the tests.

Complete factorization into monic irreducibles over any constructed finite
field, via squarefree decomposition, distinct-degree splitting, and seeded
Cantor-Zassenhaus equal-degree splitting.  For a fixed seed the output is
identical across runs; across seeds the factor multiset is identical (only
internal random choices vary).

No production path factors anything: the oracle's binomials x^ell - c
with ell | p - 1 are decided without randomness, in roots by
``heissplit.finite_field.binomial_roots`` (the u-binomial) and in degrees
alone by ``heissplit.splitting_oracle.binomial_degree`` (the v- and
z-binomials, certified by Abel's criterion, one field power).  The tests
hold both functions (through ``binomial_pairs``) and the splitting oracle
to this engine, answer for answer, hold every binomial the oracle declares
irreducible to Ben-Or's test (``is_irreducible``), and every binomial that
``binomial_degree`` splits to ``linear_part``.  ``Factorization`` and
``binomial`` live here with the engine, their only user.

``Poly``, the dense polynomial ring over any constructed finite field, and
its division kernel (``poly_divmod`` and the ``gcd``, ``pow_mod`` and
``_ddf`` built on it) live here too.  The package keeps the criterion
polynomial as a plain tuple of F_p ints and needs no polynomial type; over
F_p, ``Poly.__pow__`` calls the package's kernel
``heissplit.polynomial.power``, so both sides power with one code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from heissplit.errors import HeisSplitError, MixedModulusError
from heissplit.finite_field import PrimeField
from heissplit.polynomial import power
from heissplit.seeds import derive_seed


class NotSquarefreeError(HeisSplitError):
    """Polynomial has a repeated factor where a squarefree one is required."""


class ZeroPolynomialError(HeisSplitError):
    """The zero polynomial passed where a nonzero one is required."""


class Poly:
    """Immutable dense polynomial over a fixed finite field.

    Coefficients are stored lowest degree first, with no trailing zero, in
    the coefficient field's element representation (ints for F_p, tuples
    for F_{p^m}).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        zero = field.zero
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def sort_key(self) -> tuple:
        """(degree, coefficient encoding) for canonical ordering."""
        key = self.field.elem_key
        return (self.degree, tuple(key(c) for c in self.coeffs))

    def _same_field(self, other: "Poly"):
        if self.field != other.field:
            raise MixedModulusError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        out = [f.add(x, y) for x, y in zip(a, b)]
        out += a[len(b):] + b[len(a):]  # the longer one's tail
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        out = [f.sub(x, y) for x, y in zip(a, b)]
        out += a[len(b):]
        out += [f.neg(y) for y in b[len(a):]]
        return Poly(f, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if isinstance(f, PrimeField):
            # bare int convolution, one reduction per coefficient
            p = f.p
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return Poly(f, [v % p for v in out])
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai != f.zero:
                for j, bj in enumerate(b):
                    out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def __pow__(self, e: int) -> "Poly":
        """self^e: a nonzero self over F_p by the package's ``power``, any
        other by square-and-multiply with schoolbook products."""
        if e < 0:
            raise ValueError("negative polynomial power")
        f = self.field
        if isinstance(f, PrimeField) and not self.is_zero:
            return Poly(f, power(self.coeffs, e, f.p))
        acc = Poly.one(f)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def evaluate(self, x):
        """self(x) by Horner's rule."""
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self.coeffs!r})"


def binomial(field, n: int, c) -> Poly:
    """x^n - c over ``field``."""
    coeffs = [field.neg(c)] + [field.zero] * (n - 1) + [field.one]
    return Poly(field, coeffs)


@dataclass(frozen=True)
class Factorization:
    """Complete factorization: unit * prod(poly^multiplicity)."""

    field: object
    unit: object
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        """Re-multiply; must reproduce the input exactly."""
        acc = Poly(self.field, (self.unit,))
        for poly, mult in self.factors:
            for _ in range(mult):
                acc = acc * poly
        return acc

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


# ---------------------------------------------------------------------------
# Division, gcd and modular powers of ``Poly``
# ---------------------------------------------------------------------------


def poly_x(field) -> Poly:
    return Poly(field, (field.zero, field.one))


def leading(f: Poly):
    if not f.coeffs:
        raise ZeroPolynomialError("zero polynomial has no leading coefficient")
    return f.coeffs[-1]


def is_monic(f: Poly) -> bool:
    return bool(f.coeffs) and f.coeffs[-1] == f.field.one


def scale(f: Poly, c) -> Poly:
    fld = f.field
    return Poly(fld, [fld.mul(c, x) for x in f.coeffs])


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.field != den.field:
        raise MixedModulusError("polynomials over different fields")
    if den.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    f = num.field
    a = list(num.coeffs)
    b = den.coeffs
    if len(a) < len(b):
        return Poly.zero(f), num
    inv_lead = f.one if b[-1] == f.one else f.inv(b[-1])
    q = [f.zero] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = f.mul(a[shift + len(b) - 1], inv_lead)
        if c != f.zero:
            q[shift] = c
            for i, bi in enumerate(b):
                a[shift + i] = f.sub(a[shift + i], f.mul(c, bi))
    return Poly(f, q), Poly(f, a[: len(b) - 1])


def poly_floordiv(num: Poly, den: Poly) -> Poly:
    return poly_divmod(num, den)[0]


def poly_mod(num: Poly, den: Poly) -> Poly:
    return poly_divmod(num, den)[1]


def monic(f: Poly) -> Poly:
    if f.is_zero or is_monic(f):
        return f
    return scale(f, f.field.inv(leading(f)))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.field != b.field:
        raise MixedModulusError("polynomials over different fields")
    while not b.is_zero:
        a, b = b, poly_mod(a, b)
    return monic(a)


def pow_mod(f: Poly, e: int, modulus: Poly) -> Poly:
    """f^e reduced modulo ``modulus``."""
    acc = poly_mod(Poly.one(f.field), modulus)
    base = poly_mod(f, modulus)
    while e:
        if e & 1:
            acc = poly_mod(acc * base, modulus)
        base = poly_mod(base * base, modulus)
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# Ben-Or's irreducibility test
# ---------------------------------------------------------------------------


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree polynomial.

    Returns (product of irreducibles of degree d, d) pairs.  On any monic
    f, squarefree or not, an irreducible factor of degree e <= deg f / 2
    makes it return a pair with d <= e; ``is_irreducible`` relies on that.
    """
    fld = f.field
    q = fld.order
    out = []
    x = poly_x(fld)
    h = poly_mod(x, f)
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, q, f)
        g = gcd(f, h - x)
        if g.degree > 0:
            out.append((g, d))
            f = poly_floordiv(f, g)
            h = poly_mod(h, f)
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test: f of degree m is irreducible iff it has no irreducible
    factor of degree <= m/2, i.e. iff gcd(f, x^(q^d) - x) = 1 for every
    d <= m/2 (Ben-Or, FOCS 1981).  ``_ddf`` runs exactly those d, so f is
    irreducible iff it comes back as a single part of degree m.
    """
    if f.degree <= 0:
        return False
    parts = _ddf(monic(f))
    return len(parts) == 1 and parts[0][1] == f.degree


# ---------------------------------------------------------------------------
# The generic engine
# ---------------------------------------------------------------------------


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
    f = monic(f)
    while f.degree > 0:
        df = derivative(f)
        if df.is_zero:
            f = _pth_root_poly(f)
            e *= p
            continue
        g = gcd(f, df)
        w = poly_floordiv(f, g)
        i = 1
        while w.degree > 0:
            y = gcd(w, g)
            z = poly_floordiv(w, y)
            if z.degree > 0:
                out.append((z, i * e))
            w = y
            g = poly_floordiv(g, y)
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
        g = gcd(f, h)
        if 0 < g.degree < f.degree:
            break
        if fld.char == 2:
            # additive trace map splits in characteristic 2
            k = d * (q.bit_length() - 1)  # q = 2^k exactly
            t = poly_mod(h, f)
            acc = t
            for _ in range(k - 1):
                t = pow_mod(t, 2, f)
                acc = acc + t
            g = gcd(f, acc)
        else:
            w = pow_mod(h, (q**d - 1) // 2, f)
            g = gcd(f, w - one)
        if 0 < g.degree < f.degree:
            break
    return _edf(g, d, rng) + _edf(poly_floordiv(f, g), d, rng)


def factor(f: Poly, seed: int) -> Factorization:
    """Complete factorization into monic irreducibles, canonically sorted.

    Deterministic for a fixed seed; the factor multiset does not depend on
    the seed at all.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    unit = leading(f)
    f = monic(f)
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


def binomial_pairs(fld, ell: int, c, seed: int) -> tuple[tuple[int, object], ...]:
    """``factor`` of x^ell - c as one (degree, root) pair per factor, the
    root of a linear factor and None for any other.  A binomial
    with ell | q - 1 and c != 0 is squarefree and monic, which is asserted.
    """
    fac = factor(binomial(fld, ell, c), seed)
    assert fac.unit == fld.one and all(mult == 1 for _, mult in fac)
    return tuple(
        (g.degree, fld.neg(g.coeffs[0]) if g.degree == 1 else None) for g, _ in fac
    )


def count_irreducible_factors(f: Poly, seed: int) -> tuple[int, tuple[int, ...]]:
    """(number of irreducible factors, sorted degree multiset) of squarefree f."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    df = derivative(f)
    if df.is_zero or gcd(f, df).degree > 0:
        raise NotSquarefreeError("polynomial has repeated factors")
    fac = factor(f, seed)
    degrees = tuple(sorted(p.degree for p, _ in fac.factors))
    return len(fac.factors), degrees


def linear_part(f: Poly) -> Poly:
    """gcd(f, x^q - x) for nonzero f of degree >= 1: the product of the
    distinct monic linear factors x - r of f over its coefficient field F_q,
    one per root, since x^q - x is the product of all of them.  Its degree
    is the number of distinct roots of f in F_q."""
    x = poly_x(f.field)
    return gcd(f, pow_mod(x, f.field.order, f) - x)


def roots_in_field(f: Poly) -> tuple:
    """All roots of f in its coefficient field, sorted canonically.

    Found via ``linear_part``, gcd(f, x^q - x), followed by equal-degree
    splitting; the root set is choice-free, so a fixed internal seed keeps
    this deterministic.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot take roots of the zero polynomial")
    fld = f.field
    if f.degree == 0:
        return ()
    g = linear_part(f)
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
