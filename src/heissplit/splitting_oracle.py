"""Ground-truth prime counting above (t - a), by factoring binomials.

The degree-ell^2 abelian layer K is generated by an ell-th root u of t and
an ell-th root v of 1 - t; its maximal order is F_p[t][u, v], so the residue
algebra at (t - a) is F_p[u, v] / (u^ell - a, v^ell - (1 - a)).  ``split_K``
factors it directly: one prime of K per pair (irreducible factor of
u^ell - a over F_p, irreducible factor of v^ell - (1 - a) over the residue
field of the first factor).  K and R are Galois over F_p(t), so the primes
above (t - a) at each level are conjugate and share one residue degree f;
a ``SplitReport`` holds the residue degree of each prime and nothing else,
and its prime count is their number, ell^2/f or ell^3/f.

Every polynomial factored here is a binomial x^ell - c over a field
F_q = F_{p^m} with ell | p - 1 (zeta lies in F_p): ell linear factors when
c is an ell-th power, irreducible otherwise (Lidl-Niederreiter, *Finite
Fields*, Thm 3.75), and c^((q-1)/ell) = N(c)^((p-1)/ell), with N the norm
to F_p, decides which.  Only the u-binomial u^ell - a gets roots, because
its root is the image of u at which eps is evaluated.  Over F_p,
``binomial_roots`` returns all ell of them or none: one ell-th root r of
a, certified by r^ell = a, times the powers of a zeta certified once per
field to have order ell.  An inert u-binomial gets one root over
F_{p^ell}, and that root is its certificate: r^ell = a is asserted where r
is made, and ``_k_primes`` asserts that r lies outside F_p, so r has
degree ell over F_p and u^ell - a is irreducible.  Of the v-binomial
v^ell - (1 - a) and the z-binomial z^ell - epsbar only the factor degree is
read, so ``binomial_degree`` computes no root: it decides by the norm
symbol N(c)^((p-1)/ell) and asserts that Abel's power c^((q-1)/ell), taken
by square-and-multiply, gives the same answer in either direction.  No
randomness is involved: ``split_K`` and ``split_R`` take the caller's seed
only to record it in their reports, and nothing else in a report depends
on it.

The full cover R adjoins an ell-th root of the unit product
eps(t) = prod (1 - zeta^i t^(1/ell))^i.  Above a K-prime with residue field
F_q and image xbar of u, the relevant residue algebra is F_q[z]/(z^ell -
epsbar) with epsbar = prod (1 - zeta^i xbar)^i; ``split_R`` factors that.
eps has one definition, ``finite_field.epsilon_value``: it defines the tower,
so sharing it with the criterion keeps the oracle independent of that code.
For K-primes of residue degree > 1 this uses that R/K is unramified and
that epsbar != 0 with gcd(ell, p) = 1, which makes z^ell - epsbar
squarefree over the residue field; the ell = 2 curve model gives an
independent cross-check (``split_R2_curve``).

Towers are flattened: every residue field is one of the canonical absolute
extensions from ``build_extension``, never a field built on top of another
extension.  Only images from F_p are ever embedded (``field.embed``); the
reason is asserted in ``_k_primes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    SymbolNotTrivialError,
    WrongEllError,
)
from .finite_field import (
    Context,
    binomial_roots,
    build_extension,
    epsilon_value,
    lth_root,
    power_residue_symbol,
    prime_field,
)


@dataclass(frozen=True)
class SplitReport:
    """Oracle output: the residue degree of each prime at one level.

    ``level`` is "K" (degree ell^2) or "R" (degree ell^3).  The primes
    above (t - a) are conjugate, so they share one residue degree f, and
    since (t - a) is unramified for a not in {0, 1} the degrees sum to
    the level's degree: there are ell^2/f or ell^3/f of them.
    """

    level: str
    p: int
    ell: int
    a: int
    seed: int
    residue_degrees: tuple[int, ...]

    @property
    def prime_count(self) -> int:
        return len(self.residue_degrees)


@dataclass(frozen=True)
class _KPrime:
    field: object
    x_image: object  # image of u in the residue field
    degree: int


def binomial_degree(fld, ell: int, c) -> int:
    """Degree of each monic irreducible factor of x^ell - c over ``fld``:
    1 when the binomial splits, ell when it is irreducible.  No root is
    computed.

    The answer is the norm symbol: c is an ell-th power iff
    N(c)^((p-1)/ell) = 1, with the norm N(c) taken through the Frobenius
    matrix.  Abel's power c^((q-1)/ell), the same value taken by
    ``fld.pow`` by square-and-multiply, must agree in either direction:
    for ell prime and ell | p - 1, x^ell - c splits into ell distinct
    linear factors when it is 1 and is irreducible otherwise (Lang,
    *Algebra*, VI Thm 9.1).

    Requires ell prime, ell | p - 1 and c != 0, as ``binomial_roots``
    does; the oracle's contexts guarantee all three.
    """
    p = fld.p
    split = pow(fld.norm(c), (p - 1) // ell, p) == 1
    assert split == (fld.pow(c, (fld.order - 1) // ell) == fld.one), (
        "certificate: the norm symbol agrees with Abel's power"
    )
    return 1 if split else ell


# Enough for split_K then split_R at one point; a scan never returns to a
# point, so a larger cache only holds memory.
KPRIME_CACHE_SIZE = 8


@lru_cache(maxsize=KPRIME_CACHE_SIZE)
def _k_primes(ctx: Context, a: int) -> tuple[_KPrime, ...]:
    """Primes of K above (t - a), with flattened residue fields.

    The u-binomial u^ell - a has ell roots in F_p or none.  With none it
    is irreducible, and one root in F_{p^ell} stands for its one factor.
    All K-primes are conjugate, so the v-binomial's degree is decided once,
    over that u-field.  Cached so that split_K and split_R at the same
    point share the work.
    """
    p, ell = ctx.p, ctx.ell
    mid = prime_field(p)
    xs = binomial_roots(mid, ell, a)
    if not xs:
        mid = build_extension(p, ell)
        xs = binomial_roots(mid, ell, mid.embed(a))[:1]
        # r^ell = a with r outside F_p: r has degree ell over F_p, so
        # u^ell - a is its minimal polynomial
        assert any(xs[0][1:]), "certificate: the inert u-binomial's root is not in F_p"
    m = mid.degree
    d = binomial_degree(mid, ell, mid.embed((1 - a) % p))
    fld = mid
    if d > 1:
        # every element of F_p is an ell-th power in F_{p^ell}
        # (p - 1 divides (p^ell - 1)/ell as p = 1 mod ell), so the
        # v-binomial splits when m = ell: the xs are in F_p here
        assert m == 1, "the v-binomial splits over F_{p^ell}"
        fld = build_extension(p, d)
        xs = [fld.embed(x) for x in xs]
    # one K-prime per (u-root, v-factor): ell of degree m per u-root, or
    # one of degree ell
    return tuple(_KPrime(fld, x, m * d) for x in xs for _ in range(ell // d))


def split_K(ctx: Context, a: int, seed: int) -> SplitReport:
    """Count primes of the abelian layer K above (t - a), by factorization."""
    a = ctx.reduce_a(a)
    primes = _k_primes(ctx, a)
    degrees = tuple(kp.degree for kp in primes)
    ell = ctx.ell
    assert sum(degrees) == ell * ell, "residue degrees must sum to ell^2"
    assert len(set(degrees)) == 1, "conjugate primes share the residue degree"
    # independent abelian cross-check: count = ell^2 / lcm of symbol orders
    sym_order = 1
    if power_residue_symbol(ctx, a) != 0 or power_residue_symbol(ctx, (1 - a) % ctx.p) != 0:
        sym_order = ell
    assert len(primes) * sym_order == ell * ell
    return SplitReport(level="K", p=ctx.p, ell=ell, a=a, seed=seed, residue_degrees=degrees)


def split_R(ctx: Context, a: int, seed: int) -> SplitReport:
    """Count primes of the full degree-ell^3 cover R above (t - a)."""
    a = ctx.reduce_a(a)
    ell = ctx.ell
    degrees: list[int] = []
    for kp in _k_primes(ctx, a):
        fld = kp.field
        eps = epsilon_value(ctx, kp.x_image, field=fld)
        assert eps != fld.zero, "unit product cannot vanish for a != 1"
        # shift-independence guard: shifting by one multiplies eps by
        # (1 - xbar)^ell / (1 - a), an ell-th power in the residue field,
        # so the factor pattern of z^ell - eps does not depend on the shift.
        eps1 = epsilon_value(ctx, kp.x_image, shift=1, field=fld)
        ratio = fld.mul(eps1, fld.inv(eps))
        assert pow(fld.norm(ratio), ctx.cofactor, ctx.p) == 1
        d = binomial_degree(fld, ell, eps)
        degrees += [kp.degree * d] * (ell // d)
    assert sum(degrees) == ell**3, "residue degrees must sum to ell^3"
    assert len(set(degrees)) == 1, "conjugate primes share the residue degree"
    return SplitReport(level="R", p=ctx.p, ell=ell, a=a, seed=seed, residue_degrees=tuple(degrees))


def split_R2_curve(ctx: Context, a: int) -> SplitReport:
    """ell = 2 cross-check via the smooth curve model U^2 + V^2 = 2 W^2.

    The degree-2 cover of the abelian layer sends (U : V : W) to
    (W^2 - U^2 : U V : W^2), so above the base point with x-choice xs and
    y-choice ys the fiber is cut out by 1 - U^2 = xs, U V = ys.  It consists
    of two rational points when 1 - xs is a square mod p and of one closed
    point of degree two otherwise (ramification is impossible away from
    t in {0, 1, infinity}).  The answer does not depend on ys, so no square
    root of 1 - a is taken: each x-choice stands for its two base points.
    Requires both quadratic symbols trivial, the regime where the base
    points are rational.
    """
    if ctx.ell != 2:
        raise WrongEllError("the curve model applies to ell = 2 only")
    a = ctx.reduce_a(a)
    p = ctx.p
    if power_residue_symbol(ctx, a) != 0 or power_residue_symbol(ctx, (1 - a) % p) != 0:
        raise SymbolNotTrivialError("both quadratic symbols must be trivial")
    x = lth_root(ctx, a)
    degrees: list[int] = []
    for xs in (x, p - x):
        w = (1 - xs) % p
        assert w != 0, "1 - xs = 0 forces a = 1"
        # the fibers above the two base points with this x-choice
        degrees += ([1, 1] if pow(w, (p - 1) // 2, p) == 1 else [2]) * 2
    return SplitReport(level="R", p=p, ell=2, a=a, seed=0, residue_degrees=tuple(sorted(degrees)))
