"""Exact arithmetic in F_p and in explicitly constructed extensions F_{p^m}.

Representation conventions, used throughout the package:

* elements of F_p are plain ints in ``[0, p)``; the :class:`PrimeField`
  object carries the modulus and the operations;
* elements of F_{p^m} are tuples of ``m`` ints, the coefficients of the
  residue class modulo a fixed monic irreducible polynomial, lowest degree
  first.

Field objects are immutable after construction and all operations are pure,
so everything here is safe to use concurrently.  Extension moduli are chosen
deterministically (lexicographically smallest monic irreducible, reading
coefficients from the constant term upward as base-p digits), which makes
residue fields bit-reproducible across runs.  ``ExtField`` certifies its
modulus by Ben-Or's test run in its own arithmetic; there are no polynomial
helpers here.  Frobenius a -> a^p is F_p-linear, so ``ExtField`` keeps its
m x m matrix, whose column j is (x^p)^j (von zur Gathen-Shoup, Comput.
Complexity 1992): a conjugate is one mat-vec, and the norm to F_p,
N(a) = a^((q-1)/(p-1)), is the product of the m conjugates
(Lidl-Niederreiter, *Finite Fields*, Thm 2.28), certified to lie in F_p.
For ell | p - 1 the ell-th-power test c^((q-1)/ell) = N(c)^((p-1)/ell) is
then one norm and one power in F_p.  ``ExtField.mul`` is one big-int
product of the packed operands (Kronecker substitution; Harvey, J. Symb.
Comp. 2009), reduced by folding the high slots back through precomputed
packed rows x^k mod modulus.  Slots of w = 2*bitlen(p-1) + bitlen(2m) bits
hold every sum, which stays below (2m-1)(p-1)^2, so none carries, provided
the operands are canonical (m entries in [0, p)); every operation here
returns canonical elements.  A ``Context`` is (p, ell, zeta), and its
construction certifies that zeta has order ell in F_p^*, the one check
that the symbol, eps and the criterion's contraction rely on.
``epsilon_value`` is the one definition of the unit product eps that
defines the cover, shared by the criterion and the oracle.  ell-th roots,
``lth_root`` included, come from one certified algorithm:
``binomial_roots`` (Adleman-Manders-Miller, FOCS 1977, with a
Pohlig-Hellman digit loop, IEEE Trans. Inf. Theory 1978), checked by
r^ell = c.  Everything in it that depends only on the field, the ell-Sylow
generator g, the digit map zeta^d -> d and the step table g^(-d ell^k),
is built once per field by ``_ell_sylow``, which certifies that zeta has
order ell, so the roots r * zeta^i are all ell roots.  For ell^s the order
of the Sylow subgroup, a call costs one power c^u, (s-1)(s-2)/2 + 2 ell-th
powers (two of them r^ell, once for the Sylow error and once for the
certificate) and at most 2s - 2 products before the ell - 1 that list the
other roots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegenerateSpecializationError,
    DegenerateValueError,
    DivisibilityError,
    NoRootOfUnityError,
    NotPrimeError,
    PrimeOutOfRangeError,
    ZeroArgumentError,
)

# Deterministic Miller-Rabin witness set, exact for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Contract bound: primes are machine-word scale by design.
MAX_PRIME = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic primality test for machine-word-scale integers."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk-scale n)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)^x; returns 1 for p = 2 (trivial group)."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


class PrimeField:
    """F_p acting on plain int representatives in [0, p)."""

    __slots__ = ("p",)

    degree = 1
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    def embed(self, c: int) -> int:
        return c % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroArgumentError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return pow(a, e, self.p)

    def norm(self, a: int) -> int:
        return a

    def elem_key(self, a: int) -> int:
        """Canonical integer encoding, used for deterministic ordering."""
        return a

    def sample(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class ExtField:
    """F_{p^m} as F_p[x]/(modulus); elements are m-tuples of ints.

    The modulus is monic of degree m and irreducible over F_p.  The power map
    x -> x^p is the Frobenius automorphism, of order exactly m; it is
    F_p-linear, and ``frobenius`` applies it as the matrix whose column j is
    (x^p)^j.

    ``mul`` packs each operand into one int, coefficient i in bits
    [i*w, (i+1)*w) with w = 2*bitlen(p-1) + bitlen(2m), multiplies once,
    and adds (slot_k mod p) * (x^k mod modulus, packed) into the low m slots
    for k = m..2m-2.  A product slot is below m(p-1)^2 and the folds add
    below (m-1)(p-1)^2, so no slot carries.  The bound needs canonical
    operands: m-tuples with every entry in [0, p).  Every operation here
    returns such tuples, and ``mul`` does not check its inputs.
    """

    __slots__ = (
        "p", "degree", "modulus", "order", "zero", "one",
        "_shifts", "_mask", "_low_mask", "_fold", "_frob",
    )

    def __init__(self, p: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        m = len(modulus) - 1
        if m < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 2")
        self.p = p
        self.degree = m
        self.modulus = modulus
        self.order = p**m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        # the packing constants of ``mul`` (slot width w: class docstring)
        w = 2 * (p - 1).bit_length() + (2 * m).bit_length()
        self._shifts = tuple(range(0, m * w, w))
        self._mask = (1 << w) - 1
        self._low_mask = (1 << m * w) - 1
        # fold rows: (shift of slot k, packed x^k mod modulus), k = m..2m-2,
        # from x^m = sum(tail[i] * x^i) by shift-and-fold
        tail = [-c % p for c in modulus[:m]]
        row, fold = tail, []
        for k in range(m, 2 * m - 1):
            fold.append((k * w, sum(map(operator.lshift, row, self._shifts))))
            top = row[-1]
            row = [(c + top * t) % p for c, t in zip([0] + row[:-1], tail)]
        self._fold = tuple(fold)
        # Ben-Or's test in this ring: the modulus is irreducible iff it has
        # no irreducible factor of degree d <= m/2, i.e. iff x^(p^d) - x is a
        # unit (coprime to the modulus) for every d <= m/2.  Frobenius is
        # F_p-linear on F_p[x]/(modulus) even when the modulus is reducible,
        # so after the first step each x^(p^d) is one mat-vec.
        x = (0, 1) + (0,) * (m - 2)
        xp = self.pow(x, p)
        try:
            self.inv(self.sub(xp, x))
            # column j of the Frobenius matrix is (x^p)^j; stored by rows
            cols = [self.one, xp]
            while len(cols) < m:
                cols.append(self.mul(cols[-1], xp))
            self._frob = tuple(zip(*cols))
            h = xp
            for _ in range(m // 2 - 1):
                h = self.frobenius(h)
                self.inv(self.sub(h, x))
        except ZeroArgumentError:
            raise ValueError("modulus is reducible") from None

    @property
    def char(self) -> int:
        return self.p

    def embed(self, c: int) -> tuple[int, ...]:
        return (c % self.p,) + (0,) * (self.degree - 1)

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def mul(self, a, b):
        """a * b: one big-int product of the packed operands, then a packed
        reduction.  a and b must be canonical (m entries, each in [0, p))."""
        shifts, mask, p = self._shifts, self._mask, self.p
        prod = sum(map(operator.lshift, a, shifts)) * sum(map(operator.lshift, b, shifts))
        low = prod & self._low_mask
        for s, row in self._fold:
            low += (prod >> s & mask) % p * row
        return tuple([(low >> s & mask) % p for s in shifts])

    def inv(self, a):
        p = self.p
        # extended Euclid against the modulus on coefficient lists (lowest
        # degree first); both rows keep s * a = r modulo the modulus
        r0, s0, r1, s1 = list(self.modulus), [0], list(a), [1]
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroArgumentError("inverse of zero")
        while len(r1) > 1:
            d = len(r1) - 1
            inv_lead = pow(r1[-1], -1, p)
            s0 += [0] * (len(r0) - d + len(s1) - 1 - len(s0))
            for k in range(len(r0) - 1, d - 1, -1):  # r0 -= c x^(k-d) r1
                c = r0[k] * inv_lead % p
                if c:
                    for i in range(d):
                        r0[k - d + i] -= c * r1[i]
                    for i, v in enumerate(s1):
                        s0[k - d + i] -= c * v
            rem = [v % p for v in r0[:d]]
            while rem and not rem[-1]:
                rem.pop()
            r0, s0, r1, s1 = r1, s1, rem, [v % p for v in s0]
        if not r1:  # a shares a factor with a reducible modulus
            raise ZeroArgumentError("not a unit modulo the modulus")
        c = pow(r1[0], -1, p)
        return tuple([v * c % p for v in s1] + [0] * (self.degree - len(s1)))

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        if not any(a[1:]):  # a lies in F_p
            return self.embed(pow(a[0], e, self.p))
        if e == 0:
            return self.one
        # left-to-right binary: no multiplication by one, no wasted square
        acc = a
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def frobenius(self, a):
        """a^p, as the mat-vec of the Frobenius matrix with a."""
        p, mul = self.p, operator.mul
        return tuple([sum(map(mul, row, a)) % p for row in self._frob])

    def norm(self, a) -> int:
        """N(a) = a * a^p * ... * a^(p^(m-1)) = a^((q-1)/(p-1)), in F_p."""
        acc = conj = a
        for _ in range(self.degree - 1):
            conj = self.frobenius(conj)
            acc = self.mul(acc, conj)
        assert not any(acc[1:]), "certificate: the norm lies in F_p"
        return acc[0]

    def elem_key(self, a) -> int:
        """Canonical integer encoding (base-p digits, constant term least)."""
        k = 0
        for c in reversed(a):
            k = k * self.p + c
        return k

    def sample(self, rng) -> tuple[int, ...]:
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.degree))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, degree={self.degree})"


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


@lru_cache(maxsize=None)
def build_extension(p: int, m: int) -> PrimeField | ExtField:
    """Deterministic field of size p^m; for m = 1 this is F_p itself.

    The modulus is the irreducible monic polynomial whose coefficient vector
    (c_0, ..., c_{m-1}) encodes the smallest integer sum(c_i * p^i).  The
    keys below p are the binomials x^m + c.  Some x^m + c is irreducible
    iff every prime factor of m divides p - 1 and p = 1 mod 4 when 4 | m
    (Lidl-Niederreiter, *Finite Fields*, Thm 3.75; c = -g for a primitive
    root g qualifies); otherwise the search starts at key p.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return prime_field(p)
    binomial_ok = all((p - 1) % r == 0 for r in _prime_factors(m)) and (
        m % 4 != 0 or p % 4 == 1
    )
    n = 0 if binomial_ok else p
    while True:
        digits = []
        k = n
        for _ in range(m):
            digits.append(k % p)
            k //= p
        try:
            return ExtField(p, tuple(digits) + (1,))
        except ValueError:  # reducible candidate
            n += 1


@dataclass(frozen=True)
class Context:
    """Ambient arithmetic data for a prime pair (p, ell) with ell | p - 1.

    ``zeta`` has multiplicative order exactly ell mod p.  Construction
    certifies it: ell is prime (else NotPrimeError), and zeta != 1 and
    zeta^ell = 1, which for prime ell is order ell (else
    NoRootOfUnityError), both also under ``python -O``.  ``make_context``
    picks zeta = g^((p-1)/ell) for the smallest primitive root g.
    """

    p: int
    ell: int
    zeta: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise NotPrimeError(f"ell = {self.ell} is not prime")
        if self.zeta % self.p == 1 or pow(self.zeta, self.ell, self.p) != 1:
            raise NoRootOfUnityError(
                f"zeta = {self.zeta} does not have order {self.ell} mod {self.p}"
            )

    def reduce_a(self, a: int) -> int:
        """a mod p, for a specialization point a, which must avoid {0, 1}."""
        a %= self.p
        if a in (0, 1):
            raise DegenerateValueError("a must avoid {0, 1}")
        return a

    @property
    def field(self) -> PrimeField:
        return prime_field(self.p)

    @property
    def cofactor(self) -> int:
        """(p - 1) // ell, the exponent defining the power residue symbol."""
        return (self.p - 1) // self.ell


def make_context(p: int, ell: int) -> Context:
    """Validate (p, ell) and fix the canonical root of unity."""
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")
    if p >= MAX_PRIME:
        raise PrimeOutOfRangeError(f"p = {p} exceeds the supported bound 2^31")
    if not is_prime(ell):
        raise NotPrimeError(f"ell = {ell} is not prime")
    if (p - 1) % ell != 0:
        raise DivisibilityError(f"ell = {ell} does not divide p - 1 = {p - 1}")
    return Context(p=p, ell=ell, zeta=pow(primitive_root(p), (p - 1) // ell, p))


def power_residue_symbol(ctx: Context, a: int) -> int:
    """Index n in [0, ell) with a^((p-1)/ell) = zeta^n; 0 iff a is an ell-th power."""
    p = ctx.p
    if a % p == 0:
        raise ZeroArgumentError("power residue symbol of zero")
    return zeta_index(ctx, pow(a, ctx.cofactor, p))


def zeta_index(ctx: Context, value: int) -> int:
    """n in [0, ell) with zeta^n = value (value must be an ell-th root of 1)."""
    z = 1
    for n in range(ctx.ell):
        if z == value:
            return n
        z = z * ctx.zeta % ctx.p
    raise AssertionError("value is not a power of zeta")


def epsilon_value(ctx: Context, root_x, shift: int = 0, field=None):
    """prod_{i=1}^{ell-1} (1 - zeta^(i+shift) * root_x)^i in root_x's field.

    ``field`` defaults to F_p; pass an extension to evaluate at images of
    the root living there.  Rejects root_x = 0 and root_x^ell = 1 (the
    specialization a = 1 where the product can degenerate).
    """
    fld = field if field is not None else prime_field(ctx.p)
    if root_x == fld.zero:
        raise ZeroArgumentError("root_x must be nonzero")
    if fld.pow(root_x, ctx.ell) == fld.one:
        raise DegenerateSpecializationError("root_x^ell = 1 (a = 1)")
    p, ell = ctx.p, ctx.ell
    w = pow(ctx.zeta, (1 + shift) % ell, p)  # zeta^(i + shift) in F_p
    terms = []
    for _ in range(1, ell):
        terms.append(fld.sub(fld.one, fld.mul(fld.embed(w), root_x)))
        w = w * ctx.zeta % p
    # prod_i term_i^i = prod_k S_k, with suffix products S_k = prod_{i>=k} term_i
    acc = suffix = terms[-1]
    for term in reversed(terms[:-1]):
        suffix = fld.mul(suffix, term)
        acc = fld.mul(acc, suffix)
    return acc


def _element_with_key(fld, key: int):
    """Inverse of ``fld.elem_key``."""
    if isinstance(fld, PrimeField):
        return key
    digits = []
    for _ in range(fld.degree):
        key, c = divmod(key, fld.p)
        digits.append(c)
    return tuple(digits)


@lru_cache(maxsize=64)
def _ell_sylow(fld, ell: int) -> tuple:
    """(s, t, g, zeta, digit, steps), built once per field, with
    q - 1 = ell^s * t, ell not dividing t, g = z^t a generator of the
    ell-Sylow subgroup of F_q^*, and zeta = g^(ell^(s-1)), certified to
    have order exactly ell (zeta != 1, zeta^ell = 1).  The tables serve
    ``binomial_roots``: ``digit`` maps zeta^d to d, and ``steps[k][d]`` =
    g^(-d * ell^k) for k < s and d < ell.

    z is the first element, in key order, that is not an ell-th power, tested
    through its norm as in ``binomial_roots``.  Over an extension the search
    starts at the generator x (key p): when ell | p - 1 every element of F_p
    is an ell-th power in F_{p^ell}, so keys below p would all be tried in
    vain.
    """
    s, t = 0, fld.order - 1
    while t % ell == 0:
        s, t = s + 1, t // ell
    p = fld.p
    key = 2 if isinstance(fld, PrimeField) else p
    while True:
        z = _element_with_key(fld, key)
        if pow(fld.norm(z), (p - 1) // ell, p) != 1:
            break
        key += 1
    g = fld.pow(z, t)
    hs = [fld.inv(g)]  # h_k = g^(-ell^k)
    while len(hs) < s:
        hs.append(fld.pow(hs[-1], ell))
    steps = []
    for h in hs:
        row = [fld.one]
        for _ in range(ell - 1):
            row.append(fld.mul(row[-1], h))
        steps.append(tuple(row))
    # the last row is zeta^(-d), d < ell
    zeta = steps[-1][-1]
    assert zeta != fld.one and fld.pow(zeta, ell) == fld.one, "certificate: zeta has order ell"
    digit = {w: -d % ell for d, w in enumerate(steps[-1])}
    return s, t, g, zeta, digit, tuple(steps)


def binomial_roots(fld, ell: int, c) -> tuple:
    """All roots of x^ell - c in ``fld``, sorted by ``elem_key``; () if none.

    The tests hold it to the root finder of the generic reference engine
    (gcd with x^q - x, then equal-degree splitting).  Requires ell prime,
    ell | p - 1 (not merely ell | q - 1; every caller has ell | p - 1) and
    c != 0.  Then c^((q-1)/ell) = N(c)^((p-1)/ell) with N the norm to F_p,
    so whether c is an ell-th power is decided in F_p.

    Adleman-Manders-Miller with a Pohlig-Hellman digit loop, on the tables
    of ``_ell_sylow``.  With q - 1 = ell^s * t, r = c^u for u = ell^-1 mod t
    satisfies r^ell = c * e for some e in the ell-Sylow subgroup, and
    e = g^n.  Since e is an ell-th power, the digit d_0 of n in base ell is
    0.  For k = 1 .. s-1, w = g^(n - (d_0 + ... + d_{k-1} ell^(k-1))) raised
    to ell^(s-1-k) is zeta^(d_k), read off the digit table; then
    r <- r * g^(-d_k ell^(k-1)) and, before the last digit,
    w <- w * g^(-d_k ell^k), two table entries, which leaves
    r = c^u * g^(-n/ell) with r^ell = c.  The other roots are r * zeta^i.
    Per call: one c^u; r^ell, one inverse and one product for e;
    (s-1)(s-2)/2 ell-th powers and at most 2s - 3 table products in the
    digit loop; and r^ell once more for the certificate.
    """
    p = fld.p
    if not is_prime(ell):
        raise NotPrimeError(f"ell = {ell} is not prime")
    if (p - 1) % ell != 0:
        raise DivisibilityError(f"ell = {ell} does not divide p - 1 = {p - 1}")
    if c == fld.zero:
        raise ZeroArgumentError("x^ell - 0 is not squarefree")
    if pow(fld.norm(c), (p - 1) // ell, p) != 1:
        return ()
    s, t, _, zeta, digit, steps = _ell_sylow(fld, ell)
    r = fld.pow(c, pow(ell, -1, t))
    w = fld.mul(fld.pow(r, ell), fld.inv(c))
    if w != fld.one:
        for k in range(1, s):
            y = w
            for _ in range(s - 1 - k):
                y = fld.pow(y, ell)
            d = digit[y]
            if d:
                r = fld.mul(r, steps[k - 1][d])
                if k < s - 1:  # the last digit needs no update of w
                    w = fld.mul(w, steps[k][d])
    assert fld.pow(r, ell) == c, "certificate: r^ell == c"
    roots = [r]
    for _ in range(ell - 1):
        roots.append(fld.mul(roots[-1], zeta))
    roots.sort(key=fld.elem_key)
    return tuple(roots)


def lth_root(ctx: Context, a: int) -> int | None:
    """Canonical ell-th root of a in F_p, or None when a is a non-residue.

    The canonical choice is the smallest integer representative; the full
    root set is {zeta^i * root}.
    """
    a %= ctx.p
    if a == 0:
        raise ZeroArgumentError("ell-th root of zero")
    roots = binomial_roots(prime_field(ctx.p), ctx.ell, a)
    return roots[0] if roots else None
