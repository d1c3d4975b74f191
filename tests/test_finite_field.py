"""Context construction, symbols, roots, and extension fields.

Expected values marked by brute-force helpers below were computed by
exhaustive enumeration, independent of the implementation under test.
"""

import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heissplit import (
    Context,
    DivisibilityError,
    ExtField,
    NotPrimeError,
    PrimeField,
    PrimeOutOfRangeError,
    ZeroArgumentError,
    binomial_roots,
    build_extension,
    epsilon_value,
    is_prime,
    lth_root,
    make_context,
    power_residue_symbol,
    prime_field,
    primitive_root,
)
from heissplit.finite_field import _ell_sylow
from reference_factor import Poly, is_irreducible, poly_x, pow_mod

SMALL_CONTEXTS = [(13, 2), (5, 2), (7, 3), (31, 3), (11, 5), (199, 2), (43, 7)]


def brute_order(g: int, p: int) -> int:
    n, x = 1, g % p
    while x != 1:
        x = x * g % p
        n += 1
    return n


def reference_pow(fld, a, e: int):
    """Right-to-left binary powering, the old ``ExtField.pow`` (e >= 0)."""
    acc, base = fld.one, a
    while e:
        if e & 1:
            acc = fld.mul(acc, base)
        base = fld.mul(base, base)
        e >>= 1
    return acc


def reference_mul(fld, a, b):
    """Schoolbook product, then x^k -> x^(k-m) * tail from the top slot
    down: the old ``ExtField.mul``."""
    p, m = fld.p, fld.degree
    tail = [-c % p for c in fld.modulus[:m]]
    acc = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                acc[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = acc[k] % p
        if c:
            base = k - m
            for i, ti in enumerate(tail):
                acc[base + i] += c * ti
    return tuple(v % p for v in acc[:m])


def random_field(p: int, m: int) -> ExtField:
    """F_{p^m} modulo a seeded random irreducible: dense reduction rows at
    any p, where ``build_extension`` picks sparse moduli."""
    rng = random.Random(p * 100 + m)
    while True:
        try:
            return ExtField(p, tuple(rng.randrange(p) for _ in range(m)) + (1,))
        except ValueError:  # reducible candidate
            pass


def near_top(fld, rng):
    """Coefficients p - 1 - r with r <= 2 sqrt(p): each product is near
    (p - 1)^2, yet sums of the r_i r_j still reduce to any residue mod p, so
    the folded high slots are large too."""
    p = fld.p
    return tuple((p - 1 - rng.randrange(2 * math.isqrt(p) + 1)) % p for _ in range(fld.degree))


def reference_epsilon(ctx: Context, root_x, shift: int, fld):
    """The old ``epsilon_value`` loop: acc *= (1 - zeta^(i+shift) x)^i."""
    zeta = fld.embed(ctx.zeta)
    acc = fld.one
    w = reference_pow(fld, zeta, (1 + shift) % ctx.ell)
    for i in range(1, ctx.ell):
        term = fld.sub(fld.one, fld.mul(w, root_x))
        acc = fld.mul(acc, reference_pow(fld, term, i))
        w = fld.mul(w, zeta)
    return acc


def all_elements(fld):
    return [tuple(n // fld.p**i % fld.p for i in range(fld.degree)) for n in range(fld.order)]


def brute_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    return next(g for g in range(2, p) if brute_order(g, p) == p - 1)


def brute_lth_powers(p: int, ell: int) -> set[int]:
    return {pow(x, ell, p) for x in range(1, p)}


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
        for n in range(-2, 45):
            assert is_prime(n) == (n in primes)

    def test_carmichael_number(self):
        assert not is_prime(561)
        assert not is_prime(1729)

    def test_larger(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(7) == 3  # 2 has order 3 mod 7
        assert primitive_root(2) == 1  # trivial group
        assert primitive_root(13) == 2

    def test_matches_brute_force(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101):
            assert primitive_root(p) == brute_primitive_root(p)

    def test_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            primitive_root(12)


class TestMakeContext:
    def test_zeta_2_is_minus_one(self):
        ctx = make_context(13, 2)
        assert ctx.zeta == 12

    def test_example_7_3(self):
        # the smallest primitive root 3, to the power (7 - 1)/3
        assert make_context(7, 3) == Context(p=7, ell=3, zeta=2)

    def test_divisibility_failure(self):
        with pytest.raises(DivisibilityError):
            make_context(7, 5)

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            make_context(15, 2)
        with pytest.raises(NotPrimeError):
            make_context(13, 4)

    def test_context_refuses_a_composite_ell(self):
        # 12 has order 2 mod 13, so 12^4 = 1 would pass the zeta check alone
        with pytest.raises(NotPrimeError, match=r"^ell = 4 is not prime$"):
            Context(13, 4, 12)
        with pytest.raises(NotPrimeError, match=r"^ell = 1 is not prime$"):
            Context(13, 1, 5)

    def test_make_context_errors_keep_their_order(self):
        # p is checked before ell, and ell's primality before ell | p - 1
        for (p, ell), error, message in [
            ((15, 4), NotPrimeError, "p = 15 is not prime"),
            ((13, 9), NotPrimeError, "ell = 9 is not prime"),
            ((13, 4), NotPrimeError, "ell = 4 is not prime"),
            ((13, 5), DivisibilityError, "ell = 5 does not divide p - 1 = 12"),
        ]:
            with pytest.raises(error) as exc:
                make_context(p, ell)
            assert str(exc.value) == message

    def test_prime_past_the_bound(self):
        # 2^31 + 11 is prime: the contract bound, not primality, rejects it
        assert is_prime(2147483659)
        with pytest.raises(PrimeOutOfRangeError, match=r"exceeds the supported bound 2\^31"):
            make_context(2147483659, 2)

    @pytest.mark.parametrize("p,ell", SMALL_CONTEXTS)
    def test_zeta_has_exact_order_ell(self, p, ell):
        ctx = make_context(p, ell)
        assert pow(ctx.zeta, ell, p) == 1
        for k in range(1, ell):
            assert pow(ctx.zeta, k, p) != 1

    def test_deterministic(self):
        assert make_context(31, 3) == make_context(31, 3)


class TestPowerResidueSymbol:
    def test_examples(self):
        assert power_residue_symbol(make_context(7, 3), 1) == 0
        assert power_residue_symbol(make_context(7, 3), 2) == 2
        assert power_residue_symbol(make_context(31, 3), 2) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgumentError):
            power_residue_symbol(make_context(7, 3), 0)

    @pytest.mark.parametrize("p,ell", SMALL_CONTEXTS)
    def test_trivial_iff_power(self, p, ell):
        ctx = make_context(p, ell)
        powers = brute_lth_powers(p, ell)
        for a in range(1, p):
            assert (power_residue_symbol(ctx, a) == 0) == (a in powers)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=60)
    def test_invariant_under_lth_power_scaling(self, a, b):
        ctx = make_context(31, 3)
        a %= 31
        b %= 31
        if a == 0 or b == 0:
            return
        scaled = a * pow(b, 3, 31) % 31
        assert power_residue_symbol(ctx, scaled) == power_residue_symbol(ctx, a)


class TestLthRoot:
    def test_examples(self):
        ctx = make_context(7, 3)
        assert lth_root(ctx, 6) == 3  # roots are {3, 5, 6}
        assert lth_root(ctx, 2) is None  # cubes mod 7 are {1, 6}
        assert lth_root(ctx, 1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgumentError):
            lth_root(make_context(7, 3), 0)

    @pytest.mark.parametrize("p,ell", SMALL_CONTEXTS)
    def test_root_is_canonical_and_consistent(self, p, ell):
        ctx = make_context(p, ell)
        for a in range(1, p):
            root = lth_root(ctx, a)
            if root is None:
                assert power_residue_symbol(ctx, a) != 0
            else:
                assert pow(root, ell, p) == a
                # smallest representative among all ell roots
                allroots = {root * pow(ctx.zeta, i, p) % p for i in range(ell)}
                assert root == min(allroots)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_contract_edge_prime(self, ell):
        # p = 2^31 - 1 is the largest prime the contract admits
        p = (1 << 31) - 1
        ctx = make_context(p, ell)
        rng = random.Random(ell)
        values = [rng.randrange(1, p) for _ in range(25)]
        values += [pow(rng.randrange(1, p), ell, p) for _ in range(25)]
        found = 0
        for a in values:
            root = lth_root(ctx, a)
            if root is None:
                assert power_residue_symbol(ctx, a) != 0
                continue
            found += 1
            assert pow(root, ell, p) == a
            assert root == min(root * pow(ctx.zeta, i, p) % p for i in range(ell))
        assert 25 <= found < 50


class TestBuildExtension:
    def test_degree_one_is_base(self):
        assert build_extension(7, 1) is prime_field(7)
        assert isinstance(build_extension(7, 1), PrimeField)

    def test_field_343(self):
        ext = build_extension(7, 3)
        assert isinstance(ext, ExtField)
        assert ext.order == 343
        # Frobenius has order exactly 3
        rng = random.Random(11)
        x = next(e for e in (ext.sample(rng) for _ in range(99))
                 if ext.frobenius(e) != e)
        assert ext.pow(x, 7**3) == x
        assert ext.frobenius(ext.frobenius(ext.frobenius(x))) == x

    def test_every_f5_element_has_sqrt_in_f25(self):
        ext = build_extension(5, 2)
        squares = {ext.mul(e, e) for e in
                   (tuple((i, j)) for i in range(5) for j in range(5))}
        for c in range(5):
            assert ext.embed(c) in squares

    def test_rejects_composite_p(self):
        with pytest.raises(NotPrimeError):
            build_extension(6, 2)

    def test_deterministic_modulus(self):
        assert build_extension(7, 3).modulus == (2, 0, 0, 1)
        assert build_extension(7, 3) is build_extension(7, 3)

    def test_pinned_moduli(self):
        # c_0..c_{m-1} of the monic modulus, for m = 2..7
        pinned = {
            2: [(1, 1), (1, 1, 0), (1, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0),
                (1, 1, 0, 0, 0, 0, 0)],
            3: [(1, 0), (1, 2, 0), (2, 1, 0, 0), (1, 2, 0, 0, 0), (2, 1, 0, 0, 0, 0),
                (2, 0, 1, 0, 0, 0, 0)],
            5: [(2, 0), (1, 1, 0), (2, 0, 0, 0), (1, 4, 0, 0, 0), (2, 1, 0, 0, 0, 0),
                (1, 1, 0, 0, 0, 0, 0)],
            7: [(1, 0), (2, 0, 0), (1, 1, 0, 0), (3, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0),
                (1, 6, 0, 0, 0, 0, 0)],
            11: [(1, 0), (4, 1, 0), (2, 1, 0, 0), (2, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0),
                 (4, 1, 0, 0, 0, 0, 0)],
            13: [(2, 0), (2, 0, 0), (2, 0, 0, 0), (2, 4, 0, 0, 0), (2, 0, 0, 0, 0, 0),
                 (2, 3, 0, 0, 0, 0, 0)],
        }
        for p, moduli in pinned.items():
            assert [build_extension(p, m).modulus for m in range(2, 8)] == [
                c + (1,) for c in moduli
            ]
        # every prime p < 102 and m = 2..7, as sha256 of the list's repr
        grid = [
            (p, m, build_extension(p, m).modulus)
            for p in range(2, 102) if is_prime(p) for m in range(2, 8)
        ]
        assert len(grid) == 156
        assert hashlib.sha256(repr(grid).encode()).hexdigest() == (
            "e99c5d53fb83d06a47329386eebcd9be6a6d2e5cd8b2f0b999e11a7c219eef9c"
        )

    def test_moduli_past_the_binomials(self):
        # every odd prime p < 400 and m = 2..7, as sha256 of the list's
        # repr: the moduli the search from key 0 chose.  At 246 of these
        # pairs no x^m + c is irreducible, so the search starts at key p;
        # at 166 of them gcd(m, p - 1) = 1
        grid = [
            (p, m, build_extension(p, m).modulus)
            for p in range(3, 400) if is_prime(p) for m in range(2, 8)
        ]
        assert len(grid) == 462
        assert hashlib.sha256(repr(grid).encode()).hexdigest() == (
            "62cfe473ab4c978bae4d6706d387deb08f1d7137e0903b5627a394641c506f3a"
        )

    @pytest.mark.parametrize(
        "p,m,modulus",
        [
            (200003, 3, (8, 1, 0, 1)),
            (200003, 4, (3, 1, 0, 0, 1)),
            (200003, 6, (4, 1, 0, 0, 0, 0, 1)),
            (2**31 - 1, 5, (3, 1, 0, 0, 0, 1)),
        ],
    )
    def test_no_irreducible_binomial_at_large_p_is_fast(self, p, m, modulus):
        # a search from key 0 took 18-27 s at p = 200003 and did not end at
        # 2^31 - 1; the uncached function is timed, so an earlier call
        # cannot hide it
        start = time.perf_counter()
        assert build_extension.__wrapped__(p, m).modulus == modulus
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p,m", [(7, 2), (7, 3), (5, 4), (13, 2), (3, 5)])
    def test_power_map_fixes_field(self, p, m):
        ext = build_extension(p, m)
        rng = random.Random(p * 1000 + m)
        for _ in range(1000):
            x = ext.sample(rng)
            assert ext.pow(x, p**m) == x

    @pytest.mark.parametrize(
        "p,m", [(2, 4), (2, 6), (3, 6), (5, 4), (7, 3), (3, 5), (71, 5)]
    )
    def test_modulus_is_first_candidate_poly_rabin_accepts(self, p, m):
        # candidates in key order: coefficients c_0..c_{m-1} are the base-p
        # digits of n; both tests are Ben-Or's, but the Poly one runs through
        # the reference engine's _ddf, separate code from ExtField's test in
        # its own ring
        fld = prime_field(p)
        for n in range(p**m):
            digits = [n // p**i % p for i in range(m)]
            if is_irreducible(Poly(fld, digits + [1])):
                break
        assert build_extension(p, m).modulus == tuple(digits) + (1,)

    def test_rejects_reducible_moduli(self):
        with pytest.raises(ValueError):
            ExtField(7, (1, 2, 1))  # (x + 1)^2
        with pytest.raises(ValueError):
            ExtField(5, (0, 0, 1))  # x^2
        # x (x^2 + 1) (x^3 + 2x + 1) over F_3: squarefree, with factor
        # degrees dividing 6, so x^(3^6) = x holds; only the unit condition
        # on x^(3^3) - x and x^(3^2) - x catches it
        fld = prime_field(3)
        f = Poly(fld, (0, 1)) * Poly(fld, (1, 0, 1)) * Poly(fld, (1, 2, 0, 1))
        assert f.degree == 6
        assert pow_mod(poly_x(fld), 3**6, f) == poly_x(fld)
        with pytest.raises(ValueError):
            ExtField(3, tuple(f.coeffs))

    @pytest.mark.parametrize(
        "p,m", [(7, 2), (5, 3), (13, 2), (2, 3), (3, 5), (71, 5)]
    )
    def test_inverse_and_group_order(self, p, m):
        ext = build_extension(p, m)
        rng = random.Random(9)
        for _ in range(200):
            x = ext.sample(rng)
            if x == ext.zero:
                with pytest.raises(ZeroArgumentError):
                    ext.inv(x)
                continue
            assert ext.mul(x, ext.inv(x)) == ext.one
            assert ext.pow(x, ext.order - 1) == ext.one


class TestPackedMul:
    """``ExtField.mul`` (one packed big-int product) against the schoolbook
    loop it replaced."""

    @pytest.mark.parametrize("p", [2, 3, 61, 200003, 2**31 - 1])
    @pytest.mark.parametrize("m", [2, 3, 5, 7, 11])
    def test_matches_schoolbook(self, p, m):
        fields = [random_field(p, m)]
        if p < 100:
            fields.append(build_extension(p, m))
        for fld in fields:
            rng = random.Random(p + m)
            top = (p - 1,) * m
            ops = [fld.sample(rng) for _ in range(30)]
            ops += [near_top(fld, rng) for _ in range(30)]
            ops += [top, fld.one, fld.zero, top]
            for a, b in zip(ops, ops[1:]):
                assert fld.mul(a, b) == reference_mul(fld, a, b), (fld.modulus, a, b)
            for a in ops:
                assert fld.mul(top, a) == reference_mul(fld, top, a), (fld.modulus, a)

    def test_slot_width_is_tight(self):
        # near-top operands at (2^31 - 1, 7) fill a slot past 2^(w-1), so a
        # slot one bit narrower would carry; the folded sums stay below 2^w
        p, m = 2**31 - 1, 7
        fld = random_field(p, m)
        w = 2 * (p - 1).bit_length() + (2 * m).bit_length()
        x = (0, 1) + (0,) * (m - 2)
        rows = {k: fld.pow(x, k) for k in range(m, 2 * m - 1)}
        rng = random.Random(7)
        peak = 0
        for _ in range(40):
            a, b = near_top(fld, rng), near_top(fld, rng)
            acc = [0] * (2 * m - 1)
            for i in range(m):
                for j in range(m):
                    acc[i + j] += a[i] * b[j]
            for i in range(m):
                peak = max(peak, acc[i] + sum(acc[k] % p * r[i] for k, r in rows.items()))
            assert fld.mul(a, b) == reference_mul(fld, a, b)
        assert 1 << (w - 1) <= peak < 1 << w

    @given(
        st.sampled_from([(2, 3), (3, 5), (61, 5), (71, 5), (2**31 - 1, 2)]),
        st.integers(0, 2**160),
        st.integers(0, 2**160),
        st.integers(-40, 10**9),
        st.integers(-(2**40), 2**40),
    )
    @settings(max_examples=60, deadline=None)
    def test_operations_return_canonical_elements(self, spec, ka, kb, e, c):
        # ``mul`` assumes canonical operands; every producer must return them
        p, m = spec
        fld = build_extension(p, m)

        def canonical(v):
            return type(v) is tuple and len(v) == m and all(
                type(x) is int and 0 <= x < p for x in v
            )

        a, b = (tuple(k // p**i % p for i in range(m)) for k in (ka, kb))
        outs = [
            fld.add(a, b), fld.sub(a, b), fld.neg(a), fld.mul(a, b),
            fld.frobenius(a), fld.embed(c), fld.sample(random.Random(c)),
        ]
        if a != fld.zero:
            outs += [fld.inv(a), fld.pow(a, e)]
        elif e >= 0:
            outs.append(fld.pow(a, e))
        for out in outs:
            assert canonical(out), out


class TestFrobeniusNormPow:
    """The Frobenius matrix, the norm and the powering kernels against the
    definitions they replace."""

    @staticmethod
    def _elements(p, m):
        fld = build_extension(p, m)
        if fld.order <= 125:
            return fld, all_elements(fld)
        rng = random.Random(p * 100 + m)
        return fld, [fld.sample(rng) for _ in range(200)]

    @pytest.mark.parametrize("p,m", [(3, 4), (5, 3), (7, 2), (61, 5), (71, 5)])
    def test_frobenius_and_norm_match_powers(self, p, m):
        fld, elems = self._elements(p, m)
        norm_exp = (fld.order - 1) // (p - 1)
        for a in elems:
            assert fld.frobenius(a) == reference_pow(fld, a, p)
            full = reference_pow(fld, a, norm_exp)
            assert not any(full[1:])
            assert fld.norm(a) == full[0]
        assert prime_field(p).norm(p - 1) == p - 1

    @pytest.mark.parametrize("p,m", [(13, 1), (3, 4), (7, 2), (13, 2), (61, 5)])
    def test_pow_equals_repeated_multiplication(self, p, m):
        fld = build_extension(p, m)
        rng = random.Random(p + m)
        bases = [fld.sample(rng) for _ in range(4)]
        bases += [fld.embed(2), fld.embed(p - 1), fld.one]
        for a in bases:
            if a == fld.zero:
                continue
            inverse = fld.inv(a)
            for e in range(-2 * m, 3 * m + 1):
                expected = fld.one
                for _ in range(abs(e)):
                    expected = fld.mul(expected, a if e > 0 else inverse)
                assert fld.pow(a, e) == expected, (a, e)
                assert fld.mul(fld.pow(a, -e), fld.pow(a, e)) == fld.one
            big = (fld.order - 1) // 3 + 7
            assert fld.pow(a, big) == reference_pow(fld, a, big)
        assert fld.pow(fld.zero, 0) == fld.one
        for e in range(1, 3 * m + 1):
            assert fld.pow(fld.zero, e) == fld.zero
        with pytest.raises(ZeroArgumentError):
            fld.pow(fld.zero, -1)

    @pytest.mark.parametrize("p,ell", [(13, 2), (31, 3), (11, 5), (29, 7)])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_epsilon_matches_power_loop(self, p, ell, m):
        ctx = make_context(p, ell)
        fld = build_extension(p, m)
        rng = random.Random(p * ell + m)
        checked = 0
        while checked < 6:
            x = fld.sample(rng)
            if x == fld.zero or reference_pow(fld, x, ell) == fld.one:
                continue
            for shift in range(ell):
                assert epsilon_value(ctx, x, shift=shift, field=fld) == reference_epsilon(
                    ctx, x, shift, fld
                )
            checked += 1

    @pytest.mark.parametrize(
        "p,m,ell", [(13, 1, 3), (31, 1, 5), (13, 2, 2), (7, 3, 3), (11, 5, 5), (61, 5, 5),
                    (29, 7, 7)]
    )
    def test_sylow_zeta_has_order_exactly_ell(self, p, m, ell):
        fld = build_extension(p, m)
        s, t, g, zeta, digit, steps = _ell_sylow(fld, ell)
        assert fld.order - 1 == ell**s * t and t % ell
        assert zeta == reference_pow(fld, g, ell ** (s - 1))
        assert zeta != fld.one and reference_pow(fld, zeta, ell) == fld.one
        # g generates the ell-Sylow subgroup: its order is exactly ell^s
        assert reference_pow(fld, g, ell ** s) == fld.one
        # the tables: zeta^d -> d, and steps[k][d] = g^(-d ell^k)
        assert digit == {reference_pow(fld, zeta, d): d for d in range(ell)}
        assert len(steps) == s and all(len(row) == ell for row in steps)
        for k, row in enumerate(steps):
            for d, entry in enumerate(row):
                assert entry == reference_pow(fld, g, -d * ell**k % ell**s), (k, d)

    @pytest.mark.parametrize("p,m", [(5, 2), (2, 2)])
    def test_binomials_need_ell_dividing_p_minus_1(self, p, m):
        # ell = 3 divides q - 1 in F_25 and F_4 but not p - 1
        fld = build_extension(p, m)
        assert (fld.order - 1) % 3 == 0 and (p - 1) % 3 != 0
        c = fld.embed(1)
        with pytest.raises(DivisibilityError):
            binomial_roots(fld, 3, c)


class TestPrimeFieldOps:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=80)
    def test_field_axioms_sample(self, a, b):
        f = prime_field(101)
        a, b = a % 101, b % 101
        assert f.add(a, b) == (a + b) % 101
        assert f.mul(a, b) == a * b % 101
        assert f.sub(f.add(a, b), b) == a
        if b:
            assert f.mul(f.mul(a, b), f.inv(b)) == a
