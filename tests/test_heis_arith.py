"""Criterion formulas: unit products, A-values, polynomial expansion,
classification, and the Frobenius-side prediction."""

import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

from heissplit import heis_arith
from heissplit import (
    DegenerateSpecializationError,
    DegenerateValueError,
    ExpansionTooLargeError,
    NoRootOfUnityError,
    NonPositiveCountError,
    NotResidueError,
    SymbolNotTrivialError,
    WrongEllError,
    ZeroArgumentError,
    a2_value,
    a_ell_value,
    a_poly_eval,
    build_extension,
    classify_a2,
    epsilon_value,
    expand_a_poly,
    frobenius_prediction,
    is_prime,
    lth_root,
    make_context,
    power_residue_symbol,
    prime_field,
    primitive_root,
)
from heissplit.heis_arith import (
    A2_A_OVER_ONE_MINUS_A,
    A2_CASE_BY_SYMBOLS,
    A2_INV_ONE_MINUS_A,
    A2_UNIT,
    A2_ZERO,
    a2_by_closed_form,
    a2_by_recurrence,
    packed_a_poly,
)
from heissplit.polynomial import PackedPoly
from heissplit.verification import admissible_values
from reference_factor import Poly

C5 = make_context(5, 2)
C13 = make_context(13, 2)
C7 = make_context(7, 3)
C31 = make_context(31, 3)


def reference_expand_a_poly(ctx):
    """A_ell the long way: expand every shifted power eps_n(s)^((p-1)/ell),
    sum them, check that only exponents divisible by ell survive (raising
    ValueError otherwise), contract s^ell -> a and divide by ell.  ``ctx``
    needs only p, ell and zeta, so any zeta can be tried."""
    p, ell = ctx.p, ctx.ell
    fld = prime_field(p)
    exp = (p - 1) // ell
    total = Poly.zero(fld)
    for shift in range(ell):
        base = Poly.one(fld)
        w = pow(ctx.zeta, 1 + shift, p)
        for i in range(1, ell):
            factor_i = Poly(fld, (1, -w % p))
            base = base * factor_i**i
            w = w * ctx.zeta % p
        total = total + base**exp
    coeffs = total.coeffs
    if any(any(coeffs[r::ell]) for r in range(1, ell)):
        d = next(d for d, c in enumerate(coeffs) if d % ell != 0 and c != 0)
        raise ValueError(f"exponent {d} not divisible by {ell} survived expansion")
    inv_ell = pow(ell, -1, p)
    return Poly(fld, [c * inv_ell % p for c in coeffs[::ell]]).coeffs


class TestEpsilonValue:
    def test_examples(self):
        assert epsilon_value(C13, 2) == 3  # zeta = -1, value 1 + x = 3
        assert epsilon_value(C7, 3) == 4  # (1 - 2*3)(1 - 4*3)^2 = 2*2
        assert epsilon_value(C31, 4) == 4  # 25 * 20 = 500 = 4 mod 31

    def test_rejects_zero_root(self):
        with pytest.raises(ZeroArgumentError):
            epsilon_value(C7, 0)

    def test_rejects_degenerate_specialization(self):
        # root^ell = 1 means a = 1
        with pytest.raises(DegenerateSpecializationError):
            epsilon_value(C7, 1)
        with pytest.raises(DegenerateSpecializationError):
            epsilon_value(C7, C7.zeta)

    def test_shift_identity_at_specializations(self):
        # eps_n(a) = eps_0(a) * prod_{m<n} (1 - zeta^m x)^ell / (1 - a)^n
        for ctx in (C13, C7, C31, make_context(11, 5)):
            p, ell = ctx.p, ctx.ell
            for a in range(2, p):
                root = lth_root(ctx, a)
                if root is None or a == 1:
                    continue
                base = epsilon_value(ctx, root)
                correction = 1
                for n in range(ell):
                    assert (
                        epsilon_value(ctx, root, shift=n)
                        == base * correction * pow((1 - a) % p, -n, p) % p
                    )
                    correction = (
                        correction * pow((1 - pow(ctx.zeta, n, p) * root) % p, ell, p) % p
                    )

    def test_extension_field_evaluation(self):
        ext = build_extension(7, 3)
        val = epsilon_value(C7, ext.embed(3), field=ext)
        assert val == ext.embed(4)


class TestA2Value:
    def test_examples(self):
        assert a2_value(C5, 4) == 0
        assert a2_value(C13, 4) == 1

    def test_rejects_wrong_ell(self):
        with pytest.raises(WrongEllError):
            a2_value(C7, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateValueError):
            a2_value(C13, 0)
        with pytest.raises(DegenerateValueError):
            a2_value(C13, 1)

    def test_index_p_equals_one_identically(self):
        for p in (5, 13, 199):
            for a in range(p):
                assert a2_by_recurrence(p, a, p) == 1

    def test_recurrence_rejects_a_negative_index(self):
        # the matrix power would halve -1 forever
        with pytest.raises(NonPositiveCountError):
            a2_by_recurrence(13, 4, -1)

    def test_recurrence_matches_naive_iteration(self):
        for p in (5, 13, 31):
            for a in range(2, p):
                xs = [1, 1]
                for _ in range(p):
                    xs.append((2 * xs[-1] + (a - 1) * xs[-2]) % p)
                for idx in (0, 1, (p - 1) // 2, p - 1, p):
                    assert a2_by_recurrence(p, a, idx) == xs[idx]

    def test_three_routes_agree_everywhere(self):
        for ctx in (C5, C13, make_context(43, 2)):
            p = ctx.p
            poly = Poly(prime_field(p), expand_a_poly(ctx))
            for a in range(2, p):
                rec = a2_by_recurrence(p, a, (p - 1) // 2)
                assert rec == a2_by_closed_form(ctx, a)
                assert rec == poly.evaluate(a)
                assert rec == a2_value(ctx, a)

    def test_both_symbols_trivial_forces_unit_value(self):
        for ctx in (C13, make_context(29, 2), make_context(101, 2)):
            p = ctx.p
            for a in range(2, p):
                if (
                    power_residue_symbol(ctx, a) == 0
                    and power_residue_symbol(ctx, (1 - a) % p) == 0
                ):
                    assert a2_value(ctx, a) in (1, p - 1)


class TestExpandAPoly:
    def test_f5_example(self):
        assert expand_a_poly(C5) == (1, 1)

    def test_f13_example(self):
        assert expand_a_poly(C13) == (1, 2, 2, 1)

    def test_constant_term_always_one(self):
        for p, ell in ((5, 2), (13, 2), (7, 3), (31, 3), (11, 5), (43, 7)):
            assert expand_a_poly(make_context(p, ell))[0] == 1

    def test_wrong_zeta_breaks_polynomiality(self):
        # zeta not of order ell: the shifts no longer cancel the exponents
        # prime to ell, as the sum of shifted powers shows, so Context
        # refuses such a zeta before anything can be expanded with it
        cases = [(13, 2, 5), (13, 3, 2), (31, 5, 3)]
        # zeta = 1, where every sigma_k is ell
        cases += [(p, ell, 1) for p, ell in ((13, 2), (31, 3), (11, 5), (29, 7))]
        # a zeta of order 2 ell
        for p, ell in ((13, 2), (13, 3), (11, 5), (29, 7), (23, 11)):
            cases.append((p, ell, pow(primitive_root(p), (p - 1) // (2 * ell), p)))
        for p, ell, zeta in cases:
            with pytest.raises(NoRootOfUnityError, match=f"does not have order {ell} mod {p}"):
                dataclasses.replace(make_context(p, ell), zeta=zeta)
            with pytest.raises(ValueError, match=f"not divisible by {ell}"):
                reference_expand_a_poly(SimpleNamespace(p=p, ell=ell, zeta=zeta))

    def test_matches_sum_of_shifted_powers(self):
        # every admissible (p, ell) of a grid, plus one large pair each for
        # the binomial (ell = 2) and Kronecker (ell = 3) powers
        bounds = {2: 600, 3: 800, 5: 500, 7: 400, 11: 300}
        pairs = [
            (p, ell)
            for ell, bound in bounds.items()
            for p in range(3, bound)
            if (p - 1) % ell == 0 and is_prime(p)
        ]
        assert len(pairs) == 212
        for p, ell in pairs + [(200003, 2), (10009, 3)]:
            ctx = make_context(p, ell)
            assert expand_a_poly(ctx) == reference_expand_a_poly(ctx), (p, ell)

    def test_one_expansion_per_call(self, monkeypatch):
        # eps_0 is powered to (p - 1)/ell once, not once per shift; each p
        # has (p - 1)/ell > ell - 1, so building the base is not counted
        calls = []
        power = heis_arith.power

        def counting_pow(coeffs, e, p):
            calls.append(e)
            return power(coeffs, e, p)

        monkeypatch.setattr(heis_arith, "power", counting_pow)
        for p, ell in ((13, 2), (31, 3), (31, 5), (71, 7)):
            calls.clear()
            expand_a_poly(make_context(p, ell))
            assert calls.count((p - 1) // ell) == 1, (p, ell, calls)

    def test_too_large_raises_before_expanding(self, monkeypatch):
        # the cap admits (1000003, 2); past it nothing is expanded
        assert (1000003 - 1) // 2 + 1 <= heis_arith.MAX_EXPANSION_COEFFS
        for ell in (2, 3, 7):
            with pytest.raises(ExpansionTooLargeError):
                expand_a_poly(make_context(2147483647, ell))
        # (13, 2) needs 7 coefficients: a cap of 7 admits it, 6 does not
        monkeypatch.setattr(heis_arith, "MAX_EXPANSION_COEFFS", 7)
        assert expand_a_poly(C13) == (1, 2, 2, 1)
        monkeypatch.setattr(heis_arith, "MAX_EXPANSION_COEFFS", 6)
        monkeypatch.setattr(heis_arith, "power", None)  # any power would fail first
        with pytest.raises(ExpansionTooLargeError, match="needs 7 coefficients"):
            expand_a_poly(C13)

    def test_checks_hold_under_dash_O(self):
        # the zeta and ell certificates and the size cap are explicit
        # raises, so they hold with asserts stripped
        script = "\n".join([
            "import dataclasses, sys",
            "from heissplit import Context, ExpansionTooLargeError, NoRootOfUnityError",
            "from heissplit import NotPrimeError",
            "from heissplit import expand_a_poly, make_context",
            "from heissplit.finite_field import prime_field",
            "from reference_factor import Poly",
            inspect.getsource(reference_expand_a_poly),
            textwrap.dedent("""
                if __debug__:
                    sys.exit(1)
                for p, ell in ((13, 2), (31, 3), (11, 5)):
                    ctx = make_context(p, ell)
                    if expand_a_poly(ctx) != reference_expand_a_poly(ctx):
                        sys.exit(1)
                try:
                    dataclasses.replace(make_context(13, 3), zeta=2)
                except NoRootOfUnityError:
                    pass
                else:
                    sys.exit(1)
                try:
                    Context(13, 4, 12)
                except NotPrimeError:
                    pass
                else:
                    sys.exit(1)
                try:
                    expand_a_poly(make_context(2147483647, 2))
                except ExpansionTooLargeError:
                    pass
                else:
                    sys.exit(1)
            """),
        ])
        src = os.path.dirname(os.path.dirname(heis_arith.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_memoized_per_context(self):
        # the packed form is the one per-context cache of A_ell
        assert packed_a_poly(make_context(13, 2)) is packed_a_poly(make_context(13, 2))


class TestPackedAPoly:
    def test_memory_within_slot_bound(self):
        # n w bytes of slots, stored as 30-bit digits in 4 bytes (16/15),
        # plus an int header per row and the row tuple
        ctx = make_context(200003, 2)
        coeffs = expand_a_poly(ctx)
        packed = packed_a_poly(ctx)
        rows = packed.rows
        size = sys.getsizeof(packed) + sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
        assert size <= len(coeffs) * packed.w * 16 // 15 + 100 * len(rows)
        assert 4 * size < sys.getsizeof(coeffs) + sum(map(sys.getsizeof, coeffs))

    def test_an_off_by_one_evaluation_is_caught(self, monkeypatch):
        # the cross-checks are live: one wrong packed value at one a makes
        # both a2_value and a_ell_value raise there, and only there
        trivial = [
            a
            for a in range(2, 31)
            if power_residue_symbol(C31, a) == 0
            and power_residue_symbol(C31, (1 - a) % 31) == 0
        ]
        assert len(trivial) > 1
        wrong_at = {13: 5, 31: trivial[0]}
        evaluate = PackedPoly.evaluate

        def off_by_one(packed, x):
            value = evaluate(packed, x)
            return (value + 1) % packed.p if wrong_at.get(packed.p) == x else value

        monkeypatch.setattr(PackedPoly, "evaluate", off_by_one)
        with pytest.raises(AssertionError):
            a2_value(C13, 5)
        with pytest.raises(AssertionError):
            a_ell_value(C31, trivial[0])
        for a in range(6, 13):
            a2_value(C13, a)
        for a in trivial[1:]:
            a_ell_value(C31, a)


class TestWholeTable:
    """The packed polynomial against the fast criterion value at every a
    where the criterion defines it, at one mid-sized p per ell."""

    def test_ell2_every_admissible_a(self):
        ctx = make_context(20011, 2)
        packed = packed_a_poly(ctx)
        half = (ctx.p - 1) // 2
        for a in admissible_values(ctx):
            assert packed.evaluate(a) == a2_by_recurrence(ctx.p, a, half), a

    def test_ell5_every_doubly_trivial_a(self):
        ctx = make_context(2011, 5)
        packed = packed_a_poly(ctx)
        points = 0
        for a in admissible_values(ctx):
            if power_residue_symbol(ctx, a) or power_residue_symbol(ctx, (1 - a) % ctx.p):
                continue
            points += 1
            assert packed.evaluate(a) == a_ell_value(ctx, a), a
        assert points > 40


class TestAEllValue:
    def test_examples(self):
        assert a_ell_value(C31, 2) == 1  # 4^10 = 1 mod 31
        assert a_ell_value(make_context(19, 3), 8) == 7  # 5^6 = 7 mod 19

    def test_rejects_ell_2(self):
        with pytest.raises(WrongEllError):
            a_ell_value(C13, 4)

    def test_rejects_non_residue(self):
        assert power_residue_symbol(C7, 2) != 0
        with pytest.raises(NotResidueError):
            a_ell_value(C7, 2)

    def test_choice_independence_when_both_symbols_trivial(self):
        for ctx in (C31, make_context(61, 3), make_context(11, 5)):
            p, ell = ctx.p, ctx.ell
            for a in range(2, p):
                if power_residue_symbol(ctx, a) != 0:
                    continue
                if power_residue_symbol(ctx, (1 - a) % p) != 0:
                    continue
                root = lth_root(ctx, a)
                vals = {
                    pow(
                        epsilon_value(ctx, root * pow(ctx.zeta, i, p) % p),
                        ctx.cofactor,
                        p,
                    )
                    for i in range(ell)
                }
                assert vals == {a_ell_value(ctx, a)}

    def test_agrees_with_polynomial_at_doubly_trivial_points(self):
        for ctx in (C7, C31, make_context(11, 5), make_context(13, 3)):
            p = ctx.p
            for a in range(2, p):
                if power_residue_symbol(ctx, a) != 0:
                    continue
                if power_residue_symbol(ctx, (1 - a) % p) != 0:
                    continue
                assert a_ell_value(ctx, a) == a_poly_eval(ctx, a)

    @pytest.mark.parametrize("p,ell,a", [(7, 3, 6), (31, 3, 4), (61, 5, 21)])
    def test_rejects_non_residue_one_minus_a(self, p, ell, a):
        # a is an ell-th power and 1 - a is not, so the shifted powers
        # differ and eps_0(r)^((p-1)/ell) is not A_ell(a), which is 0 here
        ctx = make_context(p, ell)
        assert power_residue_symbol(ctx, a) == 0
        assert power_residue_symbol(ctx, (1 - a) % p) != 0
        assert a_poly_eval(ctx, a) == 0
        with pytest.raises(SymbolNotTrivialError):
            a_ell_value(ctx, a)

    def test_value_is_ell_th_root_of_unity(self):
        for a in range(2, 31):
            if power_residue_symbol(C31, a) == 0 and power_residue_symbol(C31, (1 - a) % 31) == 0:
                assert pow(a_ell_value(C31, a), 3, 31) == 1


class TestClassifyA2:
    def test_rejects_half(self):
        half = pow(2, -1, 13)
        with pytest.raises(DegenerateValueError):
            classify_a2(C13, half)

    def test_exactly_one_case_and_symbol_table(self):
        for ctx in (C5, C13, make_context(101, 2)):
            p = ctx.p
            half = pow(2, -1, p)
            for a in range(2, p):
                if a == half:
                    continue
                case = classify_a2(ctx, a)
                symbols = (
                    power_residue_symbol(ctx, a),
                    power_residue_symbol(ctx, (1 - a) % p),
                )
                assert case == A2_CASE_BY_SYMBOLS[symbols]

    def test_all_four_cases_occur(self):
        seen = set()
        for a in range(2, 13):
            if a == pow(2, -1, 13):
                continue
            seen.add(classify_a2(C13, a))
        assert seen == {
            A2_UNIT,
            A2_ZERO,
            A2_INV_ONE_MINUS_A,
            A2_A_OVER_ONE_MINUS_A,
        }


class TestFrobeniusPrediction:
    def test_examples(self):
        assert frobenius_prediction(C13, 4).predicted_count == 8
        assert frobenius_prediction(C5, 4).predicted_count == 4
        assert frobenius_prediction(C7, 6).predicted_count == 9

    def test_rejects_half_for_ell_2(self):
        with pytest.raises(DegenerateValueError):
            frobenius_prediction(C13, 7)

    def test_counts_in_allowed_sets(self):
        for a in range(2, 13):
            if a == 7:
                continue
            assert frobenius_prediction(C13, a).predicted_count in (8, 4, 2)
        for a in range(2, 31):
            assert frobenius_prediction(C31, a).predicted_count in (27, 9)

    def test_ell3_total_split_requires_unit_a_value(self):
        for a in range(2, 31):
            pred = frobenius_prediction(C31, a)
            if pred.predicted_count == 27:
                assert pred.e_alpha == 0 and pred.e_beta == 0
                assert pred.a_value == 1
                assert pred.central_resolved

    def test_ell2_computes_a2_once(self, monkeypatch):
        calls = []
        a2 = heis_arith.a2_value
        monkeypatch.setattr(
            heis_arith, "a2_value", lambda ctx, a: calls.append(a) or a2(ctx, a)
        )
        for a in (2, 3, 4, 5, 6, 8, 9, 10, 11, 12):
            calls.clear()
            case = frobenius_prediction(C13, a).a2_case
            assert calls == [a]
            assert case == classify_a2(C13, a)

    def test_central_resolution_flag(self):
        pred = frobenius_prediction(C13, 4)  # both symbols trivial
        assert pred.central_resolved and pred.e_central == 0
        pred = frobenius_prediction(C7, 6)  # symbol of 1-a nontrivial
        assert not pred.central_resolved and pred.a_value is None
