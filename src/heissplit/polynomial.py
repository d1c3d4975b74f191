"""F_p polynomial kernels on plain coefficient lists.

A polynomial over F_p is a sequence of ints in [0, p), lowest degree first,
with no trailing zero.  These kernels carry the criterion polynomial of
``heis_arith``, whose degree reaches about (ell - 1) p / 2.  ``power``
expands a linear base by the binomial theorem with one modular inverse,
and powers every other base by square-and-multiply in which each product
is one big-int multiply of Kronecker-packed coefficients
(``kronecker_mul``; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symb. Comp. 2009).  ``PackedPoly``
keeps a polynomial as about sqrt(n) packed rows and evaluates it with a
baby-step/giant-step split (Paterson-Stockmeyer, SIAM J. Comput. 1973) in
which the giant steps are big-by-small multiplies.  The oracle uses none
of this.  The generic ring ``Poly`` over any finite field lives with the
tests (``tests/reference_factor.py``) and powers over F_p through ``power``.
"""

from __future__ import annotations

from math import isqrt
from operator import mul


def power(coeffs, e: int, p: int) -> list:
    """coeffs^e over F_p, for a nonempty reduced list and e >= 0, as a
    list.  A linear base with e < p is expanded by the binomial theorem;
    every other base is powered by square-and-multiply with
    ``kronecker_mul`` products."""
    if e == 0:
        return [1]
    if len(coeffs) == 2 and e < p:
        # (c0 + c1 x)^e has coefficients C(e, k) c0^(e-k) c1^k: the forward
        # pass leaves e(e-1)...(e-k+1) c1^k in out[k], so out[e] is
        # e! c1^e; the backward pass multiplies out[k] by c0^(e-k) / k!,
        # starting from 1/e! = c1^e / out[e], the one inverse (k <= e < p
        # keeps every k! invertible).
        c0, c1 = coeffs
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
        return out
    acc = None
    base = list(coeffs)
    while True:
        if e & 1:
            acc = base if acc is None else kronecker_mul(acc, base, p)
        e >>= 1
        if not e:
            return acc
        base = kronecker_mul(base, base, p)


def kronecker_mul(a, b, p: int) -> list:
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
    next.  Horner's rule in x over the b slots of S gives the value.  An
    evaluation costs about sqrt(n) multiplies of n w / sqrt(n)-byte ints by
    residues, and the storage is about n w bytes.
    """

    __slots__ = ("p", "b", "w", "rows")

    def __init__(self, p: int, coeffs):
        n = len(coeffs)
        b = max(1, isqrt(n))
        self.p = p
        self.b = b
        self.w = _slot_bytes(p, -(-n // b))
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
