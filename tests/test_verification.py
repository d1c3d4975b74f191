"""Scans, the block determinant identity, the discriminant ratio, and the
class histogram."""

import random

import pytest

from heissplit import (
    NoRootOfUnityError,
    NonPositiveCountError,
    UnsupportedEllError,
    chebotarev_stats,
    check_block_det,
    discriminant_ratio_check,
    make_context,
    power_residue_symbol,
    prime_field,
    verify_theorems_scan,
)
from heissplit.verification import (
    SCAN_COLUMNS,
    admissible_values,
    block_matrix,
    determinant,
    rows_to_csv,
    rows_to_json,
    scan_point,
    scan_rows,
    vandermonde_unit,
)


class TestScan:
    def test_13_2_structure(self):
        result = verify_theorems_scan(make_context(13, 2), seed=7)
        assert len(result.records) == 10  # a not in {0, 1, 7}
        assert result.passed
        assert [r.a for r in result.records] == sorted(r.a for r in result.records)

    def test_31_3(self):
        result = verify_theorems_scan(make_context(31, 3), seed=7)
        assert len(result.records) == 29
        assert result.passed

    def test_7_3_counts(self):
        result = verify_theorems_scan(make_context(7, 3), seed=7)
        assert len(result.records) == 5
        assert result.passed
        assert all(r.oracle_R.prime_count in (27, 9) for r in result.records)

    @pytest.mark.parametrize("p,ell", [(29, 7), (43, 7), (23, 11)])
    def test_large_ell_every_point(self, p, ell):
        ctx = make_context(p, ell)
        values = admissible_values(ctx)
        assert len(values) == p - 2
        for a in values:
            rec = scan_point(ctx, a, seed=7)
            assert rec.agree, a
            assert rec.bound_ok and rec.oracle_R.prime_count in (ell**3, ell**2), a

    def test_full_split_ell5_full_scan(self):
        # p = 151 is the first prime where some (t - a) splits completely in
        # the ell = 5 cover, so the count-ell^3 side of the criterion runs
        result = verify_theorems_scan(make_context(151, 5), seed=7)
        assert not result.failures
        assert all(r.agree for r in result.records)
        assert any(r.oracle_R.prime_count == 5**3 for r in result.records)

    @pytest.mark.parametrize("p,ell", [(379, 7), (331, 11)])
    def test_full_split_at_doubly_trivial_points(self, p, ell):
        # a full split needs both symbols of (a, 1 - a) trivial
        ctx = make_context(p, ell)
        counts = []
        for a in admissible_values(ctx):
            if power_residue_symbol(ctx, a) or power_residue_symbol(ctx, (1 - a) % p):
                continue
            rec = scan_point(ctx, a, seed=7)
            assert rec.agree and rec.bound_ok, a
            counts.append(rec.oracle_R.prime_count)
        assert ell**3 in counts

    def test_summary_totals(self):
        result = verify_theorems_scan(make_context(13, 2), seed=7)
        summary = result.summary()
        assert summary["records"] == 10
        assert summary["failures"] == 0
        assert sum(summary["count_histogram"].values()) == 10


class TestDeterminant:
    def test_known_2x2(self):
        f = prime_field(13)
        assert determinant(f, [[1, 1], [1, 12]]) == 11  # -2 mod 13

    def test_singular(self):
        f = prime_field(7)
        assert determinant(f, [[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self):
        f = prime_field(101)
        rng = random.Random(3)

        def cofactor_det(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0] % 101
            total = 0
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                term = rows[0][j] * cofactor_det(minor)
                total += term if j % 2 == 0 else -term
            return total % 101

        for _ in range(20):
            rows = [[rng.randrange(101) for _ in range(4)] for _ in range(4)]
            assert determinant(f, rows) == cofactor_det(rows)


class TestBlockDet:
    def test_worked_2x2_example(self):
        # n = 1, ell = 2, A_1 = A_2 = (1) over F_13: det [[1,1],[1,-1]] = -2
        f = prime_field(13)
        zeta = 12
        big = block_matrix(f, zeta, [[[1]], [[1]]])
        assert big == [[1, 1], [1, 12]]
        assert determinant(f, big) == 11
        assert vandermonde_unit(f, zeta, 2) == 11

    def test_zero_block_gives_zero_both_sides(self):
        f = prime_field(13)
        zeta = 12
        blocks = [[[0]], [[5]]]
        lhs = determinant(f, block_matrix(f, zeta, blocks))
        rhs = f.mul(f.pow(vandermonde_unit(f, zeta, 2), 1), 0)
        assert lhs == rhs == 0

    @pytest.mark.parametrize(
        "p,ell,n", [(13, 2, 1), (13, 2, 3), (31, 3, 2), (11, 5, 2), (31, 5, 4)]
    )
    def test_randomized_trials(self, p, ell, n):
        report = check_block_det(prime_field(p), n, ell, seed=4, trials=40)
        assert report.passed, report.failures[:2]

    @pytest.mark.parametrize("n,trials", [(-1, 5), (0, 5), (2, 0), (2, -3)])
    def test_rejects_counts_below_one(self, n, trials):
        # n = -1 once reported a false failure (the empty determinant is 1),
        # and n = 0 or trials <= 0 a vacuous pass
        with pytest.raises(NonPositiveCountError, match="must both be >= 1"):
            check_block_det(prime_field(13), n, 2, seed=1, trials=trials)

    def test_missing_root_of_unity(self):
        with pytest.raises(NoRootOfUnityError):
            check_block_det(prime_field(7), 2, 5, seed=0, trials=1)


class TestDiscriminantRatio:
    def test_smoke_self_ratio(self):
        report = discriminant_ratio_check(make_context(13, 2), 4, 4)
        assert report.passed

    def test_example_13_2(self):
        report = discriminant_ratio_check(make_context(13, 2), 4, 10)
        assert report.passed

    def test_example_31_3(self):
        report = discriminant_ratio_check(
            make_context(31, 3), 2, 5, check_choice_invariance=False
        )
        assert report.det_nonzero and report.passed

    def test_many_pairs_ell_2(self):
        ctx = make_context(13, 2)
        for a, a2 in ((2, 3), (5, 6), (9, 11), (4, 12)):
            assert discriminant_ratio_check(ctx, a, a2).passed

    def test_large_ell_requires_opt_in(self):
        with pytest.raises(UnsupportedEllError):
            discriminant_ratio_check(make_context(11, 5), 2, 3)


class TestChebotarevStats:
    def test_bins_cover_classes_and_sum(self):
        hist = chebotarev_stats(make_context(13, 2))
        assert len(hist.bins) == 5
        assert sum(b.observed for b in hist.bins) == hist.total == 10
        assert {b.class_size for b in hist.bins} == {1, 2}

    def test_ell_3_bins(self):
        hist = chebotarev_stats(make_context(31, 3))
        assert len(hist.bins) == 11  # 3 central singletons + 8 classes of size 3
        assert sum(b.class_size for b in hist.bins) == 27

    def test_expected_fractions(self):
        hist = chebotarev_stats(make_context(13, 2))
        for b in hist.bins:
            assert b.expected == pytest.approx(b.class_size * hist.total / 8)

    def test_moderately_large_p_runs(self):
        hist = chebotarev_stats(make_context(1009, 2))
        assert sum(b.observed for b in hist.bins) == hist.total == 1006


class TestSerialization:
    def test_csv_shape(self):
        result = verify_theorems_scan(make_context(13, 2), seed=7)
        text = rows_to_csv(scan_rows(result), SCAN_COLUMNS)
        lines = text.strip().split("\n")
        assert lines[0] == "p,ell,a,e_alpha,e_beta,a_ell,predicted,oracle_K,oracle_R,agree,seed"
        assert len(lines) == 11
        # a = 2: symbols (1, 0), A_2(2) = 8 (x_6 of the recurrence), count 4
        assert lines[1] == "13,2,2,1,0,8,4,2,4,true,7"

    def test_json_mirrors_csv(self):
        import json

        result = verify_theorems_scan(make_context(13, 2), seed=7)
        rows = scan_rows(result)
        parsed = json.loads(rows_to_json(rows))
        assert parsed == rows
        assert parsed[0]["agree"] is True
        assert parsed[0]["seed"] == 7
