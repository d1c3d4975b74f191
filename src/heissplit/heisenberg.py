"""The group of 3x3 upper-unitriangular matrices over F_ell.

Elements are exponent triples (e_alpha, e_beta, e_c): e_alpha at entry
(1,2), e_beta at entry (2,3), e_c at entry (1,3).  Composition in these
coordinates is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a * b'),

which matches matrix multiplication.  The group has order ell^3; its center
is {(0, 0, c)} of order ell.  For ell >= 3 every non-identity element has
order ell; for ell = 2 the elements with both off-diagonal entries set have
order 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import MixedModulusError, NotPrimeError
from .finite_field import is_prime


@dataclass(frozen=True)
class HeisElem:
    ell: int
    e_alpha: int
    e_beta: int
    e_c: int

    def __post_init__(self):
        ell = self.ell
        object.__setattr__(self, "e_alpha", self.e_alpha % ell)
        object.__setattr__(self, "e_beta", self.e_beta % ell)
        object.__setattr__(self, "e_c", self.e_c % ell)

    def __mul__(self, other: "HeisElem") -> "HeisElem":
        if self.ell != other.ell:
            raise MixedModulusError("elements of groups over different F_ell")
        ell = self.ell
        return HeisElem(
            ell,
            (self.e_alpha + other.e_alpha) % ell,
            (self.e_beta + other.e_beta) % ell,
            (self.e_c + other.e_c + self.e_alpha * other.e_beta) % ell,
        )

    def inverse(self) -> "HeisElem":
        ell = self.ell
        return HeisElem(
            ell,
            -self.e_alpha,
            -self.e_beta,
            -self.e_c + self.e_alpha * self.e_beta,
        )

    def __pow__(self, n: int) -> "HeisElem":
        # g^n = (n a, n b, n c + n(n-1)/2 a b), for every integer n
        a, b = self.e_alpha, self.e_beta
        return HeisElem(self.ell, n * a, n * b, n * self.e_c + n * (n - 1) // 2 * a * b)

    @property
    def is_identity(self) -> bool:
        return self.e_alpha == 0 and self.e_beta == 0 and self.e_c == 0

    @property
    def is_central(self) -> bool:
        return self.e_alpha == 0 and self.e_beta == 0

    def key(self) -> tuple[int, int, int]:
        return (self.e_alpha, self.e_beta, self.e_c)

    def to_matrix(self) -> tuple[tuple[int, ...], ...]:
        return (
            (1, self.e_alpha, self.e_c),
            (0, 1, self.e_beta),
            (0, 0, 1),
        )


def identity(ell: int) -> HeisElem:
    return HeisElem(ell, 0, 0, 0)


def element_order(g: HeisElem) -> int:
    """Smallest n >= 1 with g^n = identity."""
    if g.is_identity:
        return 1
    if g.ell == 2 and g.e_alpha and g.e_beta:
        return 4
    return g.ell


def all_elements(ell: int):
    for a, b, c in product(range(ell), repeat=3):
        yield HeisElem(ell, a, b, c)


def conjugacy_classes(ell: int) -> tuple[tuple[HeisElem, ...], ...]:
    """Complete partition into conjugacy classes, from the closed form.

    Conjugating (a, b, c) by (x, y, z) gives (a, b, c + x b - a y), so the
    center {(0, 0, c)} splits into ell singletons and every (a, b) != (0, 0)
    gives the class {(a, b, *)} of size ell.  Classes are ordered by (size,
    minimal representative); within a class elements are sorted by their
    exponent triple.
    """
    if not is_prime(ell):
        raise NotPrimeError(f"ell = {ell} is not prime")
    center = tuple((HeisElem(ell, 0, 0, c),) for c in range(ell))
    return center + tuple(
        tuple(HeisElem(ell, a, b, c) for c in range(ell))
        for a, b in product(range(ell), repeat=2)
        if (a, b) != (0, 0)
    )


def class_label(g: HeisElem) -> str:
    """Canonical conjugacy class label of g.

    The class of a non-central element (a, b, c) is {(a, b, *)}; central
    elements are singletons.
    """
    if g.is_identity:
        return "1"
    if g.is_central:
        return f"z^{g.e_c}"
    return f"({g.e_alpha},{g.e_beta},*)"
