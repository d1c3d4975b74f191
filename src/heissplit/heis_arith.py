"""Splitting-criterion formulas: the unit product eps, its shifted
specializations, the criterion polynomial A_ell, and the Frobenius-side
prediction of how many primes lie above (t - a).

Background, in the notation used throughout this package.  With zeta a fixed
primitive ell-th root of unity mod p and x an ell-th root of a, put

    eps_n(a) = prod_{i=1}^{ell-1} (1 - zeta^(i+n) * x)^i .

The criterion value is A_ell(a):

  * ell = 2:   A_2(a) = ((1 - x)^((p-1)/2) + (1 + x)^((p-1)/2)) / 2,
               computed by the linear recurrence
               x_{n+1} = 2 x_n + (a - 1) x_{n-1}, x_0 = x_1 = 1,
               as x_{(p-1)/2};
  * ell >= 3:  A_ell(a) = (1/ell) * sum_n eps_n(a)^((p-1)/ell), which for a
               with both ell-th power symbols trivial collapses to
               eps_0(a)^((p-1)/ell), independent of the root choice.

Both cases are polynomials in a with F_p coefficients (for ell = 2 the sum
over shifts is the binomial form above).  Since eps_n(x) = eps_0(zeta^n x),
the shifted powers are one power with its coefficient of x^k scaled by
zeta^(nk), and the sum scales it by sum_n zeta^(nk), which is ell when
ell | k and 0 otherwise, because ``Context`` certifies that zeta has order
ell.  So ``expand_a_poly`` powers eps_0 once, keeps every ell-th
coefficient, and returns a tuple of F_p ints; ``packed_a_poly`` caches it
once per context in the packed form that the predictions' cross-checks
evaluate.  eps has one definition, ``finite_field.epsilon_value``, shared
with the oracle: it defines the cover, not the criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegenerateValueError,
    ExpansionTooLargeError,
    NotResidueError,
    WrongEllError,
)
from .finite_field import (
    Context,
    binomial_roots,
    build_extension,
    epsilon_value,
    lth_root,
    power_residue_symbol,
    zeta_index,
)
from .heisenberg import HeisElem, class_label, element_order
from .polynomial import PackedPoly, kronecker_mul, power

# Longest power of eps_0 that ``expand_a_poly`` builds.  The power has
# (ell - 1)(p - 1)/2 + 1 coefficients, so the cap admits ell = 2 up to p of
# about 4.2e6, ell = 3 up to about 2.1e6 and ell = 5 up to about 1.05e6.
# Measured at the cap in a fresh process (shared 2-core host, CPython 3.11):
# peak RSS 204 MB in 1.1 s for ell = 2, 344 MB in 188 s for ell = 3, and
# 302 MB in 163 s for ell = 5.  So the cap bounds memory but not time: for
# ell >= 3 a cold expansion near the cap takes minutes.
MAX_EXPANSION_COEFFS = 1 << 21

# Four-way classification of A_2(a) (exactly one holds for admissible a):
A2_UNIT = "unit"                        # A_2 = +1 or -1
A2_ZERO = "zero"                        # A_2 = 0
A2_INV_ONE_MINUS_A = "inv_one_minus_a"  # A_2^2 = 1/(1-a)
A2_A_OVER_ONE_MINUS_A = "a_over_one_minus_a"  # A_2^2 = a/(1-a)

# Expected classification for each pair of quadratic symbol indices of
# (a, 1-a); 0 = residue, 1 = non-residue.
A2_CASE_BY_SYMBOLS = {
    (0, 0): A2_UNIT,
    (0, 1): A2_ZERO,
    (1, 0): A2_INV_ONE_MINUS_A,
    (1, 1): A2_A_OVER_ONE_MINUS_A,
}


def _mat2_pow(m, n: int, p: int):
    """2x2 matrix power mod p (row-major tuples)."""
    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % p,
            (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p,
            (a[2] * b[1] + a[3] * b[3]) % p,
        )

    acc = (1, 0, 0, 1)
    while n:
        if n & 1:
            acc = mul(acc, m)
        m = mul(m, m)
        n >>= 1
    return acc


def a2_by_recurrence(p: int, a: int, index: int) -> int:
    """x_index for x_{n+1} = 2 x_n + (a - 1) x_{n-1}, x_0 = x_1 = 1, mod p.

    Logarithmic time via a 2x2 matrix power.  Defined for every a in F_p;
    x_p = 1 identically.
    """
    a %= p
    if index == 0:
        return 1 % p
    m = _mat2_pow((2, (a - 1) % p, 1, 0), index - 1, p)
    # (x_index, x_{index-1}) = M^(index-1) . (x_1, x_0)
    return (m[0] + m[1]) % p


def a2_by_closed_form(ctx: Context, a: int) -> int:
    """((1 - s)^((p-1)/2) + (1 + s)^((p-1)/2)) / 2 with s a square root of a.

    When a is a non-residue the computation runs in F_{p^2} and the result
    is checked to lie in the base field.
    """
    p = ctx.p
    a %= p
    exp = (p - 1) // 2
    root = lth_root(ctx, a) if a % p != 0 else 0
    if root is not None:
        lo = pow((1 - root) % p, exp, p)
        hi = pow((1 + root) % p, exp, p)
        return (lo + hi) * pow(2, -1, p) % p
    ext = build_extension(p, 2)
    s = binomial_roots(ext, 2, ext.embed(a))[0]
    one = ext.one
    lo = ext.pow(ext.sub(one, s), exp)
    hi = ext.pow(ext.add(one, s), exp)
    val = ext.mul(ext.add(lo, hi), ext.embed(pow(2, -1, p)))
    assert all(c == 0 for c in val[1:]), "value must descend to F_p"
    return val[0]


def a2_value(ctx: Context, a: int) -> int:
    """A_2(a) = x_{(p-1)/2}, the ell = 2 criterion value.

    The recurrence is the fast path; the closed form and the polynomial,
    evaluated in its packed form (``packed_a_poly``), are computed as
    cross-checks and must agree exactly.
    """
    if ctx.ell != 2:
        raise WrongEllError("a2_value requires ell = 2")
    p = ctx.p
    a = ctx.reduce_a(a)
    val = a2_by_recurrence(p, a, (p - 1) // 2)
    assert val == a2_by_closed_form(ctx, a)
    assert val == packed_a_poly(ctx).evaluate(a)
    return val


def expand_a_poly(ctx: Context) -> tuple[int, ...]:
    """A_ell's coefficients in F_p, lowest degree first, no trailing zero.
    Each call expands afresh; ``packed_a_poly`` is the per-context cache.

    A_ell(a) = (1/ell) sum_n eps_n(s)^((p-1)/ell), with s an ell-th root of
    a.  Since eps_n(s) = eps_0(zeta^n s), the sum has coefficients
    c_k sigma_k, where c_k are the coefficients of eps_0(s)^((p-1)/ell) and
    sigma_k = sum_n zeta^(nk).  zeta has order ell (``Context`` certifies
    it), so sigma_k is ell when ell | k and 0 otherwise: A_ell's
    coefficient of a^j is c_(ell j).  So eps_0 is powered once and every
    ell-th coefficient kept.  Raises ExpansionTooLargeError, before
    expanding anything, when the power would have more than
    MAX_EXPANSION_COEFFS coefficients.

    Cost: for ell = 2 the base is linear, and its (p - 1)/2-th power is the
    binomial expansion in O(p) modular multiplications.  For ell >= 3 the
    base has degree ell(ell - 1)/2 and is powered by about log2(p) Kronecker
    products, the last one of about (ell - 1) p / 2 coefficients, so
    CPython's Karatsuba multiply sets the cost.  The contraction is one
    slice.  Measured on a shared 2-core host (best of 7, or of 3 for
    (100003, 3), CPython 3.11): (200003, 2) 33 ms, (1117, 3) 1.4 ms,
    (10009, 3) 22 ms, (2011, 5) 5.9 ms, (547, 7) 1.9 ms, (100003, 3) 0.64 s.
    """
    p, ell, zeta = ctx.p, ctx.ell, ctx.zeta
    length = (ell - 1) * (p - 1) // 2 + 1
    if length > MAX_EXPANSION_COEFFS:
        raise ExpansionTooLargeError(
            f"A_{ell} at p = {p} needs {length} coefficients, above the cap "
            f"of {MAX_EXPANSION_COEFFS}"
        )
    base = [1]
    w = zeta
    for i in range(1, ell):
        base = kronecker_mul(base, power([1, -w % p], i, p), p)
        w = w * zeta % p
    coeffs = power(base, (p - 1) // ell, p)
    assert len(coeffs) <= length
    contracted = coeffs[::ell]
    while contracted and contracted[-1] == 0:
        contracted.pop()
    return tuple(contracted)


@lru_cache(maxsize=None)
def packed_a_poly(ctx: Context) -> PackedPoly:
    """A_ell packed for evaluation (``polynomial.PackedPoly``), the one
    per-context cache of A_ell.  For n coefficients it holds about n w
    bytes with w-byte slots, where the coefficient tuple would hold about
    36 n.  At (200003, 2) that is 0.33 MB against 1.8 MB, and one
    evaluation takes about 0.3 ms, against about 10 ms for Horner's rule
    over the tuple (shared 2-core host).
    """
    return PackedPoly(ctx.p, expand_a_poly(ctx))


def a_poly_eval(ctx: Context, a: int) -> int:
    """A_ell(a) by evaluating the expanded polynomial (valid for every a),
    in its packed form."""
    return packed_a_poly(ctx).evaluate(a % ctx.p)


def a_ell_value(ctx: Context, a: int) -> int:
    """A_ell(a) for ell >= 3 via eps_0(a)^((p-1)/ell) at the canonical root.

    Requires a to be an ell-th power residue.  When 1 - a is also a residue
    the value is independent of the root choice, hence the average of all
    shifted values, and equals the polynomial's value; both facts are
    asserted.  (When 1 - a is a non-residue the shifted powers differ by
    powers of zeta and only the polynomial evaluation computes A_ell(a)
    itself.)
    """
    if ctx.ell < 3:
        raise WrongEllError("a_ell_value requires ell >= 3")
    p = ctx.p
    a = ctx.reduce_a(a)
    if power_residue_symbol(ctx, a) != 0:
        raise NotResidueError(f"{a} is not an ell-th power mod {p}")
    root = lth_root(ctx, a)
    exp = ctx.cofactor
    shifted = [
        pow(epsilon_value(ctx, root, shift=n), exp, p) for n in range(ctx.ell)
    ]
    val = shifted[0]
    if power_residue_symbol(ctx, (1 - a) % p) == 0:
        # root choice cannot matter here: shifting the root by zeta shifts n
        assert all(v == val for v in shifted)
        assert val == a_poly_eval(ctx, a)
    return val


def classify_a2(ctx: Context, a: int) -> str:
    """Which of the four A_2 cases holds; exactly one does for admissible a."""
    if ctx.ell != 2:
        raise WrongEllError("classify_a2 requires ell = 2")
    p = ctx.p
    a %= p
    half = pow(2, -1, p)
    if a in (0, 1) or a == half:
        raise DegenerateValueError("a must avoid {0, 1, 1/2}")
    return _a2_case(p, a, a2_value(ctx, a))


def _a2_case(p: int, a: int, val: int) -> str:
    """The case that val = A_2(a) falls in; asserts that exactly one holds."""
    sq = val * val % p
    inv_one_minus_a = pow((1 - a) % p, -1, p)
    hits = []
    if val in (1, p - 1):
        hits.append(A2_UNIT)
    if val == 0:
        hits.append(A2_ZERO)
    if sq == inv_one_minus_a:
        hits.append(A2_INV_ONE_MINUS_A)
    if sq == a * inv_one_minus_a % p:
        hits.append(A2_A_OVER_ONE_MINUS_A)
    assert len(hits) == 1, f"cases not mutually exclusive at a={a}: {hits}"
    return hits[0]


@dataclass(frozen=True)
class FrobPrediction:
    """Formula-side prediction for the prime count above (t - a).

    ``e_alpha``/``e_beta`` are the power residue symbol indices of a and
    1 - a.  ``a_value`` is A_ell(a) whenever it was computed (always for
    ell = 2; for ell >= 3 only when both symbols are trivial, the only case
    the total-splitting criterion consumes).  ``e_central`` is the resolved
    central exponent of the Frobenius class when known.
    """

    p: int
    ell: int
    a: int
    e_alpha: int
    e_beta: int
    central_resolved: bool
    a_value: int | None
    a2_case: str | None
    e_central: int | None
    predicted_count: int
    class_label: str


def frobenius_prediction(ctx: Context, a: int) -> FrobPrediction:
    """Predicted number of primes above (t - a) in the degree-ell^3 cover.

    ell = 2 case table, driven by A_2(a) (a != 0, 1, 1/2):
        8 if A_2(a) = 1;  4 if A_2(a) in {-1, 0} or A_2(a)^2 = 1/(1-a);
        2 if A_2(a)^2 = a/(1-a).
    ell >= 3: ell^3 iff both symbols are trivial and A_ell(a) = 1, else
    ell^2.
    """
    p, ell = ctx.p, ctx.ell
    a = ctx.reduce_a(a)
    e_alpha = power_residue_symbol(ctx, a)
    e_beta = power_residue_symbol(ctx, (1 - a) % p)
    both_trivial = e_alpha == 0 and e_beta == 0

    case = None
    if ell == 2:
        if a == pow(2, -1, p):
            raise DegenerateValueError("a = 1/2 is excluded for ell = 2")
        val = a2_value(ctx, a)
        case = _a2_case(p, a, val)
        if val == 1:
            predicted = 8
            e_central: int | None = 0
        elif val == p - 1 or val == 0 or case == A2_INV_ONE_MINUS_A:
            predicted = 4
            e_central = 1 if val == p - 1 else None
        else:  # case A2_A_OVER_ONE_MINUS_A, the one left
            predicted = 2
            e_central = None
    elif both_trivial:
        val = a_ell_value(ctx, a)
        e_central = zeta_index(ctx, val)
        predicted = ell**3 if e_central == 0 else ell**2
    else:
        val = None
        e_central = None
        predicted = ell**2
    rep = HeisElem(ell, e_alpha, e_beta, e_central or 0)
    # group-theoretic consistency: count = ell^3 / order(Frobenius class rep)
    assert predicted * element_order(rep) == ell**3
    return FrobPrediction(
        p=p,
        ell=ell,
        a=a,
        e_alpha=e_alpha,
        e_beta=e_beta,
        central_resolved=both_trivial,
        a_value=val,
        a2_case=case,
        e_central=e_central,
        predicted_count=predicted,
        class_label=class_label(rep),
    )
