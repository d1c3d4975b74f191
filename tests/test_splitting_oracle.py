"""The factorization oracle: counts, degrees, determinism, and the ell = 2
curve-model cross-check."""

import functools
import hashlib
from collections import Counter

import pytest

from heissplit import (
    DegenerateValueError,
    ExtField,
    SymbolNotTrivialError,
    WrongEllError,
    finite_field,
    heis_arith,
    is_prime,
    make_context,
    power_residue_symbol,
    split_K,
    split_R,
    split_R2_curve,
    splitting_oracle,
)
from heissplit.verification import admissible_values, scan_point
from reference_factor import (
    Poly,
    binomial,
    binomial_pairs,
    is_irreducible,
    linear_part,
    roots_in_field,
)

# every cache that holds ExtField work across points
CACHES = (
    splitting_oracle._k_primes,
    finite_field._ell_sylow,
    finite_field.build_extension,
    heis_arith.packed_a_poly,
)

C13 = make_context(13, 2)
C7 = make_context(7, 3)
C31 = make_context(31, 3)


class TestSplitK:
    def test_example_13_2_4(self):
        rep = split_K(C13, 4, seed=1)
        assert rep.prime_count == 4
        assert rep.residue_degrees == (1, 1, 1, 1)

    def test_example_7_3_6(self):
        rep = split_K(C7, 6, seed=1)
        assert rep.prime_count == 3
        assert rep.residue_degrees == (3, 3, 3)

    def test_example_31_3_2(self):
        rep = split_K(C31, 2, seed=1)
        assert rep.prime_count == 9
        assert rep.residue_degrees == (1,) * 9

    def test_rejects_degenerate_a(self):
        with pytest.raises(DegenerateValueError):
            split_K(C13, 0, seed=1)
        with pytest.raises(DegenerateValueError):
            split_K(C13, 1, seed=1)

    @pytest.mark.parametrize("p,ell", [(13, 2), (7, 3), (31, 3), (11, 5)])
    def test_count_matches_symbol_orders(self, p, ell):
        # abelian layer: count = ell^2 / lcm of the symbol orders in Z/ell
        ctx = make_context(p, ell)
        for a in range(2, p):
            both_trivial = (
                power_residue_symbol(ctx, a) == 0
                and power_residue_symbol(ctx, (1 - a) % p) == 0
            )
            rep = split_K(ctx, a, seed=3)
            assert rep.prime_count == (ell * ell if both_trivial else ell)
            assert sum(rep.residue_degrees) == ell * ell


class TestSplitR:
    def test_example_13_2_4(self):
        assert split_R(C13, 4, seed=1).prime_count == 8

    def test_example_31_3_2(self):
        assert split_R(C31, 2, seed=1).prime_count == 27

    def test_example_7_3_6(self):
        assert split_R(C7, 6, seed=1).prime_count == 9

    @pytest.mark.parametrize("p,ell", [(13, 2), (29, 2), (7, 3), (31, 3), (11, 5)])
    def test_structural_invariants(self, p, ell):
        ctx = make_context(p, ell)
        for a in range(2, p):
            rep = split_R(ctx, a, seed=9)
            assert sum(rep.residue_degrees) == ell**3
            assert len(set(rep.residue_degrees)) == 1
            assert ell**3 % rep.prime_count == 0
            if ell >= 3:
                assert rep.prime_count in (ell**3, ell**2)
            else:
                assert rep.prime_count > 1

    def test_seed_independence(self):
        for a in (2, 3, 4, 5, 6):
            reports = [split_R(C31, a, seed=s) for s in (0, 1, 77, 123456)]
            counts = {r.prime_count for r in reports}
            degrees = {r.residue_degrees for r in reports}
            assert len(counts) == 1 and len(degrees) == 1

    def test_determinism_for_fixed_seed(self):
        a, seed = 5, 31337
        assert split_R(C31, a, seed) == split_R(C31, a, seed)


class TestCurveModel:
    def test_example_13_2_4(self):
        assert split_R2_curve(C13, 4).prime_count == 8

    def test_example_13_2_10(self):
        assert (
            split_R2_curve(C13, 10).prime_count == split_R(C13, 10, seed=5).prime_count
        )

    def test_rejects_wrong_ell(self):
        with pytest.raises(WrongEllError):
            split_R2_curve(C7, 2)

    def test_rejects_nontrivial_symbols(self):
        assert power_residue_symbol(C13, 2) != 0
        with pytest.raises(SymbolNotTrivialError):
            split_R2_curve(C13, 2)

    @pytest.mark.parametrize("p", [5, 13, 29, 37, 53])
    def test_matches_split_r_wherever_defined(self, p):
        ctx = make_context(p, 2)
        for a in range(2, p):
            if power_residue_symbol(ctx, a) != 0:
                continue
            if power_residue_symbol(ctx, (1 - a) % p) != 0:
                continue
            curve = split_R2_curve(ctx, a)
            assert curve == split_R(ctx, a, 0)
            assert sum(curve.residue_degrees) == 8


def _generic_points():
    for ell, ps in ((2, range(3, 101)), (3, range(7, 101)), (5, (11, 31))):
        for p in ps:
            if is_prime(p) and (p - 1) % ell == 0:
                yield p, ell


# (ell, primes p) of the scans whose irreducible binomials Ben-Or re-checks
# and whose scan_point reprs are pinned
SCAN_GRIDS = {
    2: [p for p in range(3, 62) if is_prime(p)],
    3: [p for p in range(7, 98) if is_prime(p) and p % 3 == 1],
    5: (11, 31, 41, 61, 71),
    7: (29, 43),
    11: (23, 67),
}


# sha256 of the concatenated repr(scan_point(make_context(p, ell), a, 7))
# over SCAN_GRIDS[ell], p ascending, then every admissible a in order
GOLDEN_DIGESTS = {
    2: "5b4ec1895c6e59982b7494e85a1674a527eae0287d1eb324e598115bd61c194a",
    3: "27ba4847df190520c02e6f7318304f7ed075d550952c7917692c1e0eb9625bb6",
    5: "7ca330667ef76500aeeacd0c57cafc1bf7392688f9bae8e07a1103a83273fbe6",
    7: "eba089ab15404e418c99a6f1ee9851297d91096e3c753ff4eb0a08ad6ce7c1eb",
    11: "a2c7f92d25ca5bd8ce6a9276a208545bbf8f4ef12f9cf22e28d9100b888c0ad7",
}


# sha256 over the same points of the computed facts alone,
# repr((a, prediction, K count, K degrees, R count, R degrees, agree,
# bound_ok)): they do not depend on the shape of the reports, so a change
# to that shape re-pins GOLDEN_DIGESTS while these show that no fact moved
SCAN_FACT_DIGESTS = {
    2: "2f3f568f4d1556f921a9df01e3bb3a7449a094e4e2baf7cfae56a111a14dc93e",
    3: "c03af350d624dc1d7848c2feec406f4a3d1e993f53737c1449e0cd0285156ad6",
    5: "162c577680ff8adef5801a93066a5ada3ccdd7526813a634965b1811574884d8",
    7: "a29ec1222040394c5ef7b7714bf2eaf13153d9397d144c69a6184bb59362c67e",
    11: "92e57cef4b0918cde709382eb30eee27c0f9111db14c5a583f00f0eb6d65bfa6",
}


@functools.cache
def _scan_digests(ell: int) -> tuple[str, str]:
    """(full repr digest, fact digest) of the SCAN_GRIDS[ell] scan, seed 7."""
    full, facts = hashlib.sha256(), hashlib.sha256()
    for p in SCAN_GRIDS[ell]:
        ctx = make_context(p, ell)
        for a in admissible_values(ctx):
            rec = scan_point(ctx, a, 7)
            full.update(repr(rec).encode())
            k, r = rec.oracle_K, rec.oracle_R
            fact = (
                rec.a, rec.prediction, k.prime_count, k.residue_degrees,
                r.prime_count, r.residue_degrees, rec.agree, rec.bound_ok,
            )
            facts.update(repr(fact).encode())
    return full.hexdigest(), facts.hexdigest()


@pytest.mark.parametrize("ell", sorted(GOLDEN_DIGESTS))
def test_scan_points_match_golden_digest(ell):
    # every field of every report, seed included, is pinned: a refactor of
    # the oracle or the prediction must leave them all alone
    assert _scan_digests(ell)[0] == GOLDEN_DIGESTS[ell]


@pytest.mark.parametrize("ell", sorted(SCAN_FACT_DIGESTS))
def test_scan_facts_match_pinned_digest(ell):
    assert _scan_digests(ell)[1] == SCAN_FACT_DIGESTS[ell]


# finite_field.ExtField.mul calls per ell over SCAN_GRIDS, every cache
# emptied first; per point 36.82, 97.64, 325.82, 674.34 and 1865.23.  The
# counts repeat exactly, so a change may keep or lower them, never raise them
MUL_CALLS = {2: 16496, 3: 49307, 5: 66793, 7: 45855, 11: 160410}


@functools.cache
def _scanned_binomials() -> tuple[dict, dict, dict]:
    """One recording scan of SCAN_GRIDS: (pairs, degrees, mul_calls).

    ``pairs`` maps (field, ell, c) to the (degree, root) pairs of every
    binomial the oracle takes roots of through binomial_roots: (1, r) per
    root, or ((ell, None),) when it has none; ``degrees`` maps it to the
    answer of binomial_degree for every binomial decided by degree alone;
    ``mul_calls`` maps ell to the ExtField.mul calls of its scan, counted
    with the caches emptied first."""
    pairs, degrees, mul_calls = {}, {}, {}
    roots = splitting_oracle.binomial_roots
    degree = splitting_oracle.binomial_degree
    mul = ExtField.mul
    calls = 0

    def recording_roots(fld, ell, c):
        rs = roots(fld, ell, c)
        pairs[fld, ell, c] = tuple((1, r) for r in rs) or ((ell, None),)
        return rs

    def recording_degree(fld, ell, c):
        degrees[fld, ell, c] = degree(fld, ell, c)
        return degrees[fld, ell, c]

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting_oracle, "binomial_roots", recording_roots)
        patch.setattr(splitting_oracle, "binomial_degree", recording_degree)
        patch.setattr(ExtField, "mul", counting_mul)
        for ell, primes in SCAN_GRIDS.items():
            for cache in CACHES:
                cache.cache_clear()
            calls = 0
            for p in primes:
                ctx = make_context(p, ell)
                for a in admissible_values(ctx):
                    scan_point(ctx, a, 1)
            mul_calls[ell] = calls
    splitting_oracle._k_primes.cache_clear()
    return pairs, degrees, mul_calls


class TestEngines:
    def test_irreducible_binomials_pass_ben_or(self):
        # an irreducible u-binomial over F_p is certified by its root over
        # F_{p^ell}, which lies outside F_p; one decided by degree, by
        # Abel's power against the norm symbol.  Ben-Or's test, separate
        # code, must agree on every binomial that these scans declare
        # irreducible
        pairs, degrees, _ = _scanned_binomials()
        distinct = {b for b, ps in pairs.items() if len(ps) == 1}
        distinct |= {b for b, d in degrees.items() if d > 1}
        refuted = [b for b in distinct if not is_irreducible(binomial(*b))]
        assert refuted == []
        shapes = Counter((ell, fld.degree) for fld, ell, _c in distinct)
        assert {ell for ell, _m in shapes} == set(SCAN_GRIDS)
        # the z-binomials of order-4 Frobenius classes are irreducible
        # over F_{p^2}
        assert shapes[2, 2] > 0

    def test_split_binomials_remultiply(self):
        # a root list is certified by r^ell = c and the order of zeta, not
        # by a product; here the product of the x - r must give back
        # x^ell - c for every binomial these scans take ell roots of
        pairs, _, _ = _scanned_binomials()
        split = {b: ps for b, ps in pairs.items() if len(ps) > 1}
        for (fld, ell, c), ps in split.items():
            prod = Poly.one(fld)
            for d, r in ps:
                assert d == 1
                prod = prod * Poly(fld, (fld.neg(r), fld.one))
            assert prod == binomial(fld, ell, c)
        shapes = {(ell, fld.degree) for fld, ell, _c in split}
        assert {ell for ell, _m in shapes} == set(SCAN_GRIDS)
        assert {m for _ell, m in shapes} > {1}

    def test_binomials_split_by_degree_have_ell_roots(self):
        # binomial_degree certifies a split answer by the norm symbol and
        # Abel's power, with no root to check.  The reference root finder's
        # gcd(f, x^q - x), the product of the x - r over the distinct roots
        # r of f that roots_in_field then splits apart, must be all of
        # f = x^ell - c for every binomial that these scans split by degree
        _, degrees, _ = _scanned_binomials()
        split = [b for b, d in degrees.items() if d == 1]
        short = [b for b in split if linear_part(binomial(*b)) != binomial(*b)]
        assert short == []
        shapes = {(ell, fld.degree) for fld, ell, _c in split}
        assert {ell for ell, _m in shapes} == set(SCAN_GRIDS)
        assert {m for _ell, m in shapes} > {1}

    def test_mul_calls_at_or_below_the_pinned_counts(self):
        _, _, mul_calls = _scanned_binomials()
        assert mul_calls.keys() == MUL_CALLS.keys()
        over = {ell: n for ell, n in mul_calls.items() if n > MUL_CALLS[ell]}
        assert over == {}

    @pytest.mark.parametrize("p,ell", list(_generic_points()))
    def test_reports_equal_generic_engine(self, monkeypatch, p, ell):
        # the binomial engine must reproduce the generic Cantor-Zassenhaus
        # path report for report, every residue degree included
        ctx = make_context(p, ell)
        values = admissible_values(ctx)
        splitting_oracle._k_primes.cache_clear()
        fast = [(split_K(ctx, a, 5), split_R(ctx, a, 5)) for a in values]
        with monkeypatch.context() as patch:
            patch.setattr(
                splitting_oracle,
                "binomial_degree",
                lambda fld, n, c: binomial_pairs(fld, n, c, seed=p * 1000 + n)[0][0],
            )
            patch.setattr(
                splitting_oracle,
                "binomial_roots",
                lambda fld, n, c: roots_in_field(binomial(fld, n, c)),
            )
            splitting_oracle._k_primes.cache_clear()
            generic = [(split_K(ctx, a, 5), split_R(ctx, a, 5)) for a in values]
        splitting_oracle._k_primes.cache_clear()
        assert fast == generic

    def test_kprime_cache_is_bounded(self):
        info = splitting_oracle._k_primes.cache_info()
        assert info.maxsize is not None and info.maxsize <= 8
        ctx = make_context(31, 3)
        for a in range(2, 31):
            split_K(ctx, a, 1)
            split_R(ctx, a, 1)
        assert splitting_oracle._k_primes.cache_info().currsize <= info.maxsize
