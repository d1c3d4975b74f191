"""Dense univariate polynomials over any constructed finite field.

The oracle factors nothing here: its binomials x^ell - c are decided in
roots and degrees by ``splitting_oracle.binomial_factors``.  ``Poly`` is
the ring of the criterion polynomial, and over any field the ring of the
generic seeded Cantor-Zassenhaus engine and Ben-Or's irreducibility test
that live with the tests (``tests/reference_factor.py``) and hold the
oracle to account.

Coefficients are stored lowest degree first and live in the coefficient
field's element representation (ints for F_p, tuples for F_{p^m}).

Over F_p, two kernels and one packed form carry the criterion polynomial
of ``heis_arith`` (degree up to about (ell - 1) p / 2).  ``__mul__`` stays
schoolbook: the criterion's other products have degree below ell^2 / 2,
where packing costs more than it saves.  ``__pow__`` expands a linear base
by the binomial theorem with one modular inverse, and powers every other
base by square-and-multiply in which each product is one big-int multiply
of Kronecker-packed coefficients (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symb. Comp. 2009).
``PackedPoly`` keeps a polynomial as about sqrt(n) packed rows and
evaluates it with a baby-step/giant-step split (Paterson-Stockmeyer, SIAM
J. Comput. 1973) in which the giant steps are big-by-small multiplies.
``evaluate`` is Horner's rule over every field, the reference the tests
hold the packed form to.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .errors import MixedModulusError
from .finite_field import PrimeField


class Poly:
    """Immutable dense polynomial over a fixed finite field."""

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    # -- basic queries -----------------------------------------------------

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

    # -- arithmetic --------------------------------------------------------

    def _same_field(self, other: "Poly"):
        if self.field != other.field:
            raise MixedModulusError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if isinstance(f, PrimeField):
            p = f.p
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            out = [f.add(x, y) for x, y in zip(a, b)]
        out += a[len(b):] + b[len(a):]  # the longer one's tail
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if isinstance(f, PrimeField):
            p = f.p
            out = [(x - y) % p for x, y in zip(a, b)]
        else:
            out = [f.sub(x, y) for x, y in zip(a, b)]
        out += a[len(b):]
        out += [f.neg(y) for y in b[len(a):]]
        return Poly(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if isinstance(f, PrimeField):
            # fast path: bare int convolution, one reduction per coefficient
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
        """self^e.  Over F_p, a linear base with e < p is expanded by the
        binomial theorem, and every other base by square-and-multiply with
        each product a single big-int multiply (Kronecker substitution,
        ``_kronecker_mul``; Harvey, "Faster polynomial multiplication via
        multipoint Kronecker substitution", J. Symb. Comp. 2009).  Over an
        extension field it is square-and-multiply with schoolbook products.
        """
        if e < 0:
            raise ValueError("negative polynomial power")
        f = self.field
        if e == 0:
            return Poly.one(f)
        if not isinstance(f, PrimeField) or self.is_zero:
            acc = Poly.one(f)
            base = self
            while e:
                if e & 1:
                    acc = acc * base
                base = base * base
                e >>= 1
            return acc
        p = f.p
        if self.degree == 1 and e < p:
            # (c0 + c1 x)^e has coefficients C(e, k) c0^(e-k) c1^k: the
            # forward pass leaves e(e-1)...(e-k+1) c1^k in out[k], so out[e]
            # is e! c1^e; the backward pass multiplies out[k] by
            # c0^(e-k) / k!, starting from 1/e! = c1^e / out[e], the one
            # inverse (k <= e < p keeps every k! invertible).
            c0, c1 = self.coeffs
            if c0 == 0:
                return Poly(f, [0] * e + [pow(c1, e, p)])
            out = [0] * (e + 1)
            t = 1
            for k in range(e):
                out[k] = t
                t = t * (e - k) * c1 % p
            out[e] = t
            s = pow(c1, e, p) * pow(t, -1, p) % p
            for k in range(e, -1, -1):
                out[k] = out[k] * s % p
                s = s * k * c0 % p
            return Poly(f, out)
        acc = None
        base = self.coeffs
        while True:
            if e & 1:
                acc = base if acc is None else _kronecker_mul(acc, base, p)
            e >>= 1
            if not e:
                return Poly(f, acc)
            base = _kronecker_mul(base, base, p)

    def evaluate(self, x):
        """self(x) by Horner's rule.  Repeated evaluation of one long
        polynomial over F_p belongs to ``PackedPoly``."""
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == self.field.zero:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != self.field.one else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != self.field.one else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _kronecker_mul(a, b, p: int) -> list:
    """Product of two nonempty reduced coefficient lists over F_p, by
    Kronecker substitution: pack each list into one int, slot by slot,
    multiply once, unpack and reduce.  A product coefficient is a sum of at
    most min(len a, len b) terms of at most (p - 1)^2, so a slot of
    ceil((2 bitlen(p - 1) + bitlen(min(len a, len b))) / 8) bytes holds it
    without carries into the next slot.
    """
    w = _slot_bytes(p, min(len(a), len(b)))
    pa = _pack(a, w)
    prod = pa * (pa if a is b else _pack(b, w))
    n = len(a) + len(b) - 1
    raw = prod.to_bytes(n * w, "little")
    return [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, n * w, w)]


def _slot_bytes(p: int, terms: int) -> int:
    """Bytes of a slot that holds a sum of ``terms`` products of two
    reduced residues mod p, each at most (p - 1)^2, without a carry."""
    return (2 * (p - 1).bit_length() + terms.bit_length() + 7) // 8


def _pack(cs, w: int) -> int:
    """The ints ``cs`` (each below 2^(8 w)) as one int, ``w`` bytes per
    slot, lowest slot first."""
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")


class PackedPoly:
    """A polynomial over F_p packed for repeated evaluation.

    The n coefficients are cut into J rows of b = isqrt(n) (at least 1),
    and row j is the int R_j = sum_t c_(jb+t) 2^(8 w t) (``_pack``).  To
    evaluate at x, put y = x^b; then S = sum_j (y^j mod p) R_j takes J
    big-by-small multiplies, and slot t of S is sum_j c_(jb+t) y^j, below
    J (p - 1)^2, so with w = ``_slot_bytes(p, J)`` no slot carries into the
    next.  Horner's rule in x over the b slots of S gives the value.  This
    is the baby-step/giant-step split of Paterson-Stockmeyer (SIAM J.
    Comput. 1973) with the giant steps done in Kronecker-packed big-int
    arithmetic (Harvey, J. Symb. Comp. 2009).  An evaluation costs about
    sqrt(n) multiplies of n w / sqrt(n)-byte ints by residues, and the
    storage is about n w bytes.
    """

    __slots__ = ("p", "b", "w", "rows")

    def __init__(self, poly: Poly):
        if not isinstance(poly.field, PrimeField):
            raise TypeError("PackedPoly needs a polynomial over F_p")
        coeffs = poly.coeffs
        n = len(coeffs)
        b = max(1, isqrt(n))
        self.p = poly.field.p
        self.b = b
        self.w = _slot_bytes(self.p, -(-n // b))
        self.rows = tuple(_pack(coeffs[i:i + b], self.w) for i in range(0, n, b))

    def evaluate(self, x: int) -> int:
        """The polynomial at x, for x in [0, p)."""
        p, b, w = self.p, self.b, self.w
        y = pow(x, b, p)
        ys = [1] * len(self.rows)
        for j in range(1, len(ys)):
            ys[j] = ys[j - 1] * y % p
        raw = sum(map(mul, ys, self.rows)).to_bytes(b * w, "little")
        acc = 0
        for i in range((b - 1) * w, -1, -w):
            acc = (acc * x + int.from_bytes(raw[i:i + w], "little")) % p
        return acc
