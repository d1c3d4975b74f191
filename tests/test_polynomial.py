"""Polynomial arithmetic (the package's F_p kernels and the reference
ring), the oracle's binomial roots and degrees, and the generic reference
engine they are held to."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heissplit import (
    DivisibilityError,
    ExtField,
    NotPrimeError,
    ZeroArgumentError,
    binomial_roots,
    build_extension,
    finite_field,
    make_context,
    power_residue_symbol,
    prime_field,
)
from heissplit.polynomial import PackedPoly, kronecker_mul, power
from heissplit.splitting_oracle import binomial_degree
from reference_factor import (
    NotSquarefreeError,
    Poly,
    ZeroPolynomialError,
    binomial,
    binomial_pairs,
    count_irreducible_factors,
    factor,
    is_irreducible,
    is_monic,
    poly_divmod,
    poly_mod,
    roots_in_field,
    squarefree_decomposition,
)

F5 = prime_field(5)
F7 = prime_field(7)


def poly_from(field, *coeffs):
    return Poly(field, [field.embed(c) for c in coeffs])


class TestArithmetic:
    def test_normalization(self):
        assert Poly(F5, (1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly(F5, (0,)).is_zero
        assert Poly(F5, ()).degree == -1

    @given(
        st.lists(st.integers(0, 4), max_size=6),
        st.lists(st.integers(0, 4), max_size=6),
        st.lists(st.integers(0, 4), max_size=6),
    )
    @settings(max_examples=100)
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = Poly(F5, a), Poly(F5, b), Poly(F5, c)
        assert pa * pb == pb * pa
        assert pa * (pb + pc) == pa * pb + pa * pc
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=8),
        st.lists(st.integers(0, 6), min_size=2, max_size=5),
    )
    @settings(max_examples=100)
    def test_divmod_identity(self, a, b):
        pa, pb = Poly(F7, a), Poly(F7, b)
        if pb.is_zero:
            return
        q, r = poly_divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree

    def test_pow_matches_repeated_multiplication(self):
        f = poly_from(F7, 3, 1)
        acc = Poly.one(F7)
        for e in range(10):
            assert f**e == acc
            acc = acc * f

    def test_binomial_pow_fast_path_matches_slow(self):
        # the degree-1 fast path must agree with naive powering
        f = poly_from(F7, 2, 5)
        naive = Poly.one(F7)
        for _ in range(6):
            naive = naive * f
        assert f**6 == naive

    def test_evaluate(self):
        f = poly_from(F7, 1, 2, 1)  # (x + 1)^2
        for x in range(7):
            assert f.evaluate(x) == (x + 1) ** 2 % 7

    @pytest.mark.parametrize("field", [F7, build_extension(7, 2)], ids=["F7", "F49"])
    def test_add_sub_coefficientwise(self, field):
        rng = random.Random(7)
        elems = [field.embed(c) for c in range(7)]
        if field.degree == 2:
            elems = [(a, b) for a in range(7) for b in range(7)]
        for la in range(5):
            for lb in range(5):
                a = [rng.choice(elems) for _ in range(la)]
                b = [rng.choice(elems) for _ in range(lb)]
                pad = max(la, lb)
                a0 = a + [field.zero] * (pad - la)
                b0 = b + [field.zero] * (pad - lb)
                pa, pb = Poly(field, a), Poly(field, b)
                assert pa + pb == Poly(field, map(field.add, a0, b0))
                assert pa - pb == Poly(field, map(field.sub, a0, b0))
                assert (pa - pa).is_zero
                assert pa + pb - pb == pa


def schoolbook_mul(a, b, p):
    """Reference product of two F_p coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def horner(coeffs, x, p):
    """Reference evaluation of an F_p coefficient list at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


class TestPrimeFieldKernels:
    """``power`` (binomial branch and Kronecker products), ``kronecker_mul``
    and ``PackedPoly.evaluate`` on F_p coefficient lists against schoolbook
    multiplication and Horner's rule."""

    @pytest.mark.parametrize("p", [2, 3, 7, 61, 200003])
    def test_pow_matches_repeated_schoolbook(self, p):
        rng = random.Random(p)
        max_e = min(3 * p, 64)
        for deg in range(7):
            for trial in range(3):
                coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                if deg == 1 and trial == 0:
                    coeffs[0] = 0  # c0 = 0: a monomial
                if trial == 2:
                    coeffs = [p - 1] * (deg + 1)  # largest coefficients
                ref = [1]
                for e in range(max_e + 1):
                    assert power(coeffs, e, p) == ref, (coeffs, e)
                    ref = schoolbook_mul(ref, coeffs, p)

    @pytest.mark.parametrize("p", [3, 7, 61])
    def test_linear_base_with_e_at_least_p(self, p):
        # e >= p leaves the binomial branch, where k! would vanish mod p
        for c0, c1 in [(1, 1), (p - 1, 2), (0, p - 1)]:
            ref = [1]
            for e in range(3 * p + 2):
                if e >= p - 1:
                    assert power([c0, c1], e, p) == ref, (c0, c1, e)
                ref = schoolbook_mul(ref, [c0, c1], p)

    def test_binomial_branch_at_large_exponent(self):
        p = 200003
        e = (p - 1) // 2
        for c0, c1 in [(1, p - 1), (5, 7), (0, 3)]:
            got = power([c0, c1], e, p)
            assert len(got) == e + 1
            for k in (0, 1, 2, 1000, e - 1000, e - 1, e):
                want = comb(e, k) * pow(c0, e - k, p) * pow(c1, k, p) % p
                assert got[k] == want, k

    def test_pow_of_degree_over_500(self):
        p = 200003
        rng = random.Random(500)
        coeffs = [rng.randrange(p) for _ in range(6)] + [p - 1]
        ref = [1]
        for _ in range(90):
            ref = schoolbook_mul(ref, coeffs, p)
        got = power(coeffs, 90, p)
        assert len(got) == 541
        assert got == ref

    @pytest.mark.parametrize("p", [2, 3, 61, 200003, 2**31 - 1])
    def test_kronecker_slots_hold_the_largest_sums(self, p):
        # all coefficients p - 1 make every product coefficient the largest
        # sum its slot bound allows, for both the shorter and longer operand
        for n, m in ((1, 1), (1, 5), (2, 3), (15, 16), (16, 17), (31, 200), (99, 99)):
            a, b = [p - 1] * n, [p - 1] * m
            assert kronecker_mul(a, b, p) == schoolbook_mul(a, b, p), (n, m)
            assert kronecker_mul(b, a, p) == schoolbook_mul(b, a, p), (n, m)
            assert kronecker_mul(a, a, p) == schoolbook_mul(a, a, p), n

    @pytest.mark.parametrize("p", [2, 3, 7, 61, 200003, 2**31 - 1])
    def test_evaluate_around_every_block_boundary(self, p):
        # every n in [0, k^2 + 1] crosses each row boundary of b = isqrt(n)
        k = 7
        rng = random.Random(p)
        points = [0, 1, p - 1] + [rng.randrange(p) for _ in range(4)]
        for n in range(k * k + 2):
            coeffs = [rng.randrange(p) for _ in range(n)]
            if n:
                coeffs[-1] = rng.randrange(1, p)
            packed = PackedPoly(p, coeffs)
            for x in points:
                assert packed.evaluate(x) == horner(coeffs, x, p), (n, x)

    @pytest.mark.parametrize("p", [2, 3, 61, 200003, 2**31 - 1])
    def test_packed_slots_hold_the_largest_sums(self, p):
        # all coefficients p - 1 and x = p - 1 (y = x^b = +-1) put the
        # largest values the slot bound allows into every slot
        rng = random.Random(p)
        points = [0, 1, p - 1] + [rng.randrange(p) for _ in range(3)]
        for n in (1, 2, 3, 4, 15, 16, 17, 99, 100, 101, 2000):
            coeffs = [p - 1] * n
            packed = PackedPoly(p, coeffs)
            for x in points:
                assert packed.evaluate(x) == horner(coeffs, x, p), (n, x)

    def test_reference_ring_powers_through_the_kernel(self):
        # Poly over F_p delegates to power; over F_49 it multiplies itself
        f = poly_from(F7, 3, 0, 5)
        assert (f**9).coeffs == tuple(power([3, 0, 5], 9, 7))
        assert Poly.zero(F7) ** 0 == Poly.one(F7)
        assert (Poly.zero(F7) ** 5).is_zero
        ext = build_extension(7, 2)
        g = Poly(ext, [ext.one, ext.embed(2), (3, 4)])
        acc = Poly.one(ext)
        for e in range(6):
            assert g**e == acc
            acc = acc * g


class TestFactor:
    def test_z2_minus_1_over_f5(self):
        fac = factor(binomial(F5, 2, 1), seed=3)
        assert [(f.coeffs, m) for f, m in fac] == [((1, 1), 1), ((4, 1), 1)]
        assert fac.expand() == binomial(F5, 2, 1)

    def test_u3_minus_6_over_f7_splits(self):
        fac = factor(binomial(F7, 3, 6), seed=3)
        assert len(fac) == 3
        assert all(f.degree == 1 for f, _ in fac)

    def test_v3_minus_2_over_f7_irreducible(self):
        fac = factor(binomial(F7, 3, 2), seed=3)
        assert len(fac) == 1
        assert fac.factors[0][0].degree == 3
        assert is_irreducible(fac.factors[0][0])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            factor(Poly.zero(F5), seed=0)

    def test_unit_and_multiplicity(self):
        f = poly_from(F7, 2, 4, 2)  # 2 (x + 1)^2
        fac = factor(f, seed=0)
        assert fac.unit == 2
        assert [(g.coeffs, m) for g, m in fac] == [((1, 1), 2)]
        assert fac.expand() == f

    def test_seed_changes_nothing_observable(self):
        f = binomial(F7, 3, 6) * binomial(F7, 3, 2) * poly_from(F7, 1, 1)
        fac_a = factor(f, seed=1)
        fac_b = factor(f, seed=987654321)
        assert fac_a == fac_b  # canonical sorting makes even the order equal
        assert fac_a.expand() == f

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=9))
    @settings(max_examples=80, deadline=None)
    def test_remultiply_roundtrip(self, coeffs):
        f = Poly(F7, coeffs)
        if f.degree < 1:
            return
        fac = factor(f, seed=11)
        assert fac.expand() == f
        assert sum(g.degree * m for g, m in fac) == f.degree
        for g, _ in fac:
            assert is_monic(g) and is_irreducible(g)

    @pytest.mark.parametrize("p,ell", [(13, 2), (7, 3), (31, 3), (11, 5)])
    def test_binomial_factor_count_matches_symbol(self, p, ell):
        # x^ell - c over F_q with ell | q-1: ell factors iff c is an ell-th
        # power, else irreducible
        ctx = make_context(p, ell)
        field = prime_field(p)
        for c in range(1, p):
            fac = factor(binomial(field, ell, c), seed=5)
            if power_residue_symbol(ctx, c) == 0:
                assert len(fac) == ell
            else:
                assert len(fac) == 1

    def test_binomial_factor_count_over_extension(self):
        ext = build_extension(13, 2)
        rng = random.Random(1)
        for _ in range(25):
            c = ext.sample(rng)
            if c == ext.zero:
                continue
            fac = factor(binomial(ext, 2, c), seed=8)
            is_square = ext.pow(c, (ext.order - 1) // 2) == ext.one
            assert len(fac) == (2 if is_square else 1)
            assert fac.expand() == binomial(ext, 2, c)


def matches_reference(fld, ell, c, seed) -> int:
    """Hold binomial_roots and binomial_degree to the generic engine's
    factorization of x^ell - c: the roots of its linear factors, and the
    one degree of all its factors.  Returns the number of factors."""
    pairs = binomial_pairs(fld, ell, c, seed)
    linear = sorted((r for d, r in pairs if d == 1), key=fld.elem_key)
    assert binomial_roots(fld, ell, c) == tuple(linear)
    assert {d for d, _r in pairs} == {binomial_degree(fld, ell, c)}
    return len(pairs)


class TestFactorBinomial:
    """The oracle's binomial roots and degrees against the generic engine."""

    @pytest.mark.parametrize("p,ell", [(13, 2), (7, 3), (11, 5), (29, 7)])
    @pytest.mark.parametrize("m", [1, 2, "ell"])
    def test_equals_generic_factor(self, p, ell, m):
        fld = build_extension(p, ell if m == "ell" else m)
        rng = random.Random(f"{p}:{ell}:{m}")
        cs = [fld.sample(rng) for _ in range(6)]
        # a certain ell-th power and a certain non-power, so that both the
        # split and the irreducible case are always covered
        cs.append(fld.pow(fld.sample(rng), ell))
        cofactor = (fld.order - 1) // ell
        non_power = fld.zero
        while non_power == fld.zero or fld.pow(non_power, cofactor) == fld.one:
            non_power = fld.sample(rng)
        cs.append(non_power)
        shapes = set()
        for c in cs:
            if c == fld.zero:
                continue
            shapes.add(matches_reference(fld, ell, c, seed=rng.randrange(2**32)))
        assert shapes == {1, ell}

    @pytest.mark.parametrize(
        "p,m,ell",
        [(17, 1, 2), (3, 2, 2), (19, 1, 3), (109, 1, 3), (257, 1, 2), (257, 2, 2),
         (251, 1, 5), (109, 3, 3)],
    )
    def test_deep_sylow_subgroups(self, p, m, ell):
        # q - 1 = ell^s * t with s >= 2 (s = 8 and 9 for F_257 and F_{257^2},
        # 3 for F_251 at ell = 5, 4 for F_{109^3}), and t = 1 for F_17, F_9
        # and F_257: the root needs the Pohlig-Hellman correction, which
        # walks every row of the step table
        fld = build_extension(p, m)
        rng = random.Random(p)
        if m == 1:
            cs = range(1, p)
        else:
            # ell-th powers reach the correction; the rest are non-powers
            # or powers alike
            xs = [fld.sample(rng) for _ in range(24)]
            cs = xs + [fld.pow(x, ell) for x in xs]
        for c in cs:
            if c != fld.zero:
                matches_reference(fld, ell, c, seed=fld.elem_key(c))

    @pytest.mark.parametrize("p,ell", [(13, 2), (7, 3), (11, 5), (29, 7)])
    def test_roots_equal_roots_in_field(self, p, ell):
        for m in (1, 2):
            fld = build_extension(p, m)
            rng = random.Random(p * m)
            for _ in range(6):
                c = fld.pow(fld.sample(rng), rng.choice((1, ell)))
                if c == fld.zero:
                    continue
                roots = binomial_roots(fld, ell, c)
                assert roots == roots_in_field(binomial(fld, ell, c))
                assert all(fld.pow(r, ell) == c for r in roots)

    def test_rejects_ell_not_dividing_q_minus_1(self):
        with pytest.raises(DivisibilityError):
            binomial_roots(F7, 5, 3)
        with pytest.raises(DivisibilityError):
            binomial_roots(build_extension(5, 2), 5, (1, 1))
        with pytest.raises(DivisibilityError):
            binomial_roots(F5, 3, 2)

    def test_rejects_zero_constant(self):
        with pytest.raises(ZeroArgumentError):
            binomial_roots(F7, 3, 0)
        ext = build_extension(7, 3)
        with pytest.raises(ZeroArgumentError):
            binomial_roots(ext, 3, ext.zero)

    def test_rejects_composite_ell(self):
        with pytest.raises(NotPrimeError):
            binomial_roots(prime_field(13), 4, 3)

    @pytest.mark.parametrize("m", [1, 2])
    def test_abel_certificate_fires(self, monkeypatch, m):
        # a norm of 2, no square mod 13, makes the norm symbol call the
        # square 4 a non-square; Abel's power 4^((q-1)/2) = 1, taken apart
        # from the norm, must refuse that answer
        fld = build_extension(13, m)
        monkeypatch.setattr(type(fld), "norm", lambda self, a: 2)
        with pytest.raises(AssertionError, match="the norm symbol agrees with Abel's power"):
            binomial_degree(fld, 2, fld.embed(4))

    def test_root_certificate_fires_on_a_corrupt_step_table(self, monkeypatch):
        # F_17: q - 1 = 2^4, t = 1, g = 3.  For c = 9, r starts at c^0 = 1 and
        # e = 1/c = 3^14, whose base-2 digits 0, 1, 1, 1 put steps[0][1] =
        # g^-1 into the correction of r; with that one entry doubled the
        # root is wrong and the certificate must refuse it
        fld = prime_field(17)
        s, t, g, zeta, digit, steps = finite_field._ell_sylow(fld, 2)
        assert (s, t, g) == (4, 1, 3) and steps[0][1] == fld.inv(g)
        assert binomial_roots(fld, 2, 9) == (3, 14)
        bad = (steps[0][:1] + (fld.mul(steps[0][1], 2),),) + steps[1:]
        monkeypatch.setattr(
            finite_field, "_ell_sylow", lambda *args: (s, t, g, zeta, digit, bad)
        )
        with pytest.raises(AssertionError, match=r"^certificate: r\^ell == c$"):
            binomial_roots(fld, 2, 9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_zeta_certificate_fires(self, monkeypatch, m):
        # with every inverse read as one, the Sylow generator's powers
        # g^(-ell^k) all collapse to one, so zeta = 1 and r * zeta^i would
        # list one root ell times; the certificate must refuse that zeta
        fld = build_extension(13, m)
        monkeypatch.setattr(type(fld), "inv", lambda self, a: self.one)
        with pytest.raises(AssertionError, match=r"^certificate: zeta has order ell$"):
            finite_field._ell_sylow.__wrapped__(fld, 2)


class TestSquarefree:
    def test_char_p_power(self):
        F3 = prime_field(3)
        xp1 = poly_from(F3, 1, 1)
        assert squarefree_decomposition(xp1 * xp1 * xp1) == [(xp1, 3)]

    def test_mixed_multiplicities(self):
        f = poly_from(F7, 6, 1) * poly_from(F7, 5, 1) ** 2
        parts = squarefree_decomposition(f)
        assert parts == [(poly_from(F7, 6, 1), 1), (poly_from(F7, 5, 1), 2)]

    def test_count_rejects_non_squarefree(self):
        f = poly_from(F7, 1, 1) ** 2
        with pytest.raises(NotSquarefreeError):
            count_irreducible_factors(f, seed=0)

    def test_count_examples(self):
        assert count_irreducible_factors(binomial(F5, 2, 1), 0) == (2, (1, 1))
        assert count_irreducible_factors(binomial(F7, 3, 2), 0) == (1, (3,))
        assert count_irreducible_factors(binomial(F7, 3, 6), 0) == (3, (1, 1, 1))


class TestRoots:
    def test_examples(self):
        assert roots_in_field(binomial(F7, 3, 6)) == (3, 5, 6)
        assert roots_in_field(binomial(F7, 3, 2)) == ()
        assert roots_in_field(poly_from(F7, -4, 1)) == (4,)

    def test_roots_actually_vanish(self):
        ext = build_extension(7, 3)
        f = binomial(ext, 3, ext.embed(6))
        roots = roots_in_field(f)
        assert len(roots) == 3
        for r in roots:
            assert f.evaluate(r) == ext.zero

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            roots_in_field(Poly.zero(F7))


class TestCharacteristicTwo:
    def test_factor_over_f2(self):
        F2 = prime_field(2)
        # x^4 + x + 1 is irreducible over F_2; x^2 + 1 = (x + 1)^2
        f = Poly(F2, (1, 1, 0, 0, 1))
        assert is_irreducible(f)
        g = Poly(F2, (1, 0, 1))
        fac = factor(g, seed=0)
        assert [(h.coeffs, m) for h, m in fac] == [((1, 1), 2)]

    def test_roots_over_f4(self):
        ext = build_extension(2, 2)
        # x^2 + x + 1 splits over F_4 into the two generators
        f = Poly(ext, (ext.one, ext.one, ext.one))
        roots = roots_in_field(f)
        assert len(roots) == 2
        for r in roots:
            assert f.evaluate(r) == ext.zero


def _monic_polys(fld, m):
    """Every monic polynomial of degree m over the prime field ``fld``."""
    p = fld.p
    for n in range(p**m):
        yield Poly(fld, [n // p**i % p for i in range(m)] + [1])


def _reducible_by_trial_division(f):
    return any(
        poly_mod(f, g).is_zero
        for d in range(1, f.degree // 2 + 1)
        for g in _monic_polys(f.field, d)
    )


class TestIrreducibility:
    # every monic polynomial of these degrees: 126 + 120 + 155 + 56 = 457.
    # They include reducible ones whose only factors have degree m/2, the
    # last degree Ben-Or tries: (x^2 + 1)(x^2 + x + 2) over F_3 and
    # (x^3 + x + 1)(x^3 + x^2 + 1) over F_2
    @pytest.mark.parametrize("p,max_m", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_exact_against_trial_division(self, p, max_m):
        fld = prime_field(p)
        mismatches = []
        for m in range(1, max_m + 1):
            for f in _monic_polys(fld, m):
                irreducible = not _reducible_by_trial_division(f)
                if is_irreducible(f) != irreducible:
                    mismatches.append(("is_irreducible", f))
                if m >= 2:
                    try:
                        ExtField(p, f.coeffs)
                        constructed = True
                    except ValueError:
                        constructed = False
                    if constructed != irreducible:
                        mismatches.append(("ExtField", f))
        assert mismatches == []
