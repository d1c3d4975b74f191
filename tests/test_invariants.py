"""The invariant ledger: every assert in the package fires under a named
fault.

Each ``assert`` and ``raise AssertionError`` under ``src/heissplit`` has one
test here, registered by ``@fires(module, function, condition)``.  The test
replaces the computation that the assert guards (a wrong root, a corrupt
zeta, a dropped K-prime, a lying norm, ...) and must see that very assert
fail: the innermost frame of the AssertionError must lie on its lines.  An
assert implied by a check that already ran on the same values is deleted
instead of ledgered.  The guard reads the sources with ``ast`` and fails
for an assert with no ledger test, and for a ledger test whose assert is
gone.
"""

import ast
import dataclasses
import functools
import textwrap
from pathlib import Path

import pytest

import heissplit
from heissplit import (
    ExtField,
    NoRootOfUnityError,
    PrimeField,
    build_extension,
    finite_field,
    heis_arith,
    make_context,
    power_residue_symbol,
    prime_field,
    splitting_oracle,
    verification,
)
from heissplit.polynomial import PackedPoly

PACKAGE_DIR = Path(heissplit.__file__).parent
SOURCES = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _is_invariant(node) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return False


def invariant_sites(sources: dict[str, str]) -> dict[tuple[str, str, str], range]:
    """(module, enclosing function, condition) -> lines, for every assert and
    raise AssertionError.  The condition is the assert's test, or the whole
    raise statement, as written in the source."""
    sites = {}
    for module, source in sources.items():

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if _is_invariant(child):
                    text = ast.get_source_segment(
                        source, child.test if isinstance(child, ast.Assert) else child
                    )
                    key = (module, ".".join(scope), " ".join(text.split()))
                    assert key not in sites, f"one check written twice: {key}"
                    sites[key] = range(child.lineno, child.end_lineno + 1)
                visit(child, scope)

        visit(ast.parse(source), ())
    return sites


SITES = invariant_sites(SOURCES)
LEDGER: dict[tuple[str, str, str], str] = {}


def fires(module: str, function: str, condition: str):
    """Register the decorated test as the ledger entry of one assert; the
    test passes only if that assert, and no other check, fails in it."""
    key = (module, function, condition)

    def register(test):
        assert key not in LEDGER, f"{key} is already ledgered by {LEDGER[key]}"
        LEDGER[key] = test.__name__

        @functools.wraps(test)
        def run(*args, **kwargs):
            with pytest.raises(AssertionError) as info:
                test(*args, **kwargs)
            tb = info.value.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            assert Path(tb.tb_frame.f_code.co_filename) == PACKAGE_DIR / f"{module}.py"
            assert tb.tb_lineno in SITES[key]

        return run

    return register


@pytest.fixture(autouse=True)
def fresh_caches():
    # a fault injected into a cached computation must not outlive its test
    caches = (
        splitting_oracle._k_primes,
        finite_field._ell_sylow,
        finite_field.build_extension,
        heis_arith.packed_a_poly,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_every_assert_has_a_ledger_test():
    assert sorted(SITES.keys() - LEDGER.keys()) == [], "asserts with no ledger test"
    assert sorted(LEDGER.keys() - SITES.keys()) == [], "ledger tests whose assert is gone"


def test_guard_sees_a_new_assert():
    def added(code):
        sources = dict(SOURCES)
        sources["seeds"] += "\n\n" + code
        return invariant_sites(sources).keys() - SITES.keys()

    new = {
        "assert x": "x",
        "assert x, 'why'": "x",
        "assert (\n    x\n    and y\n)": "x and y",
        "raise AssertionError": "raise AssertionError",
        "if x:\n    raise AssertionError('why')": "raise AssertionError('why')",
    }
    for body, condition in new.items():
        code = "def scratch(x, y):\n" + textwrap.indent(body, "    ")
        assert added(code) == {("seeds", "scratch", condition)}, body
    assert added("class C:\n    def m(self):\n        assert self") == {("seeds", "C.m", "self")}
    for body in ("raise ValueError('x')", "raise", "return AssertionError"):
        assert added(f"def scratch(x):\n    {body}") == set(), body


# -- finite_field -------------------------------------------------------------


@fires("finite_field", "primitive_root",
       'raise AssertionError("unreachable: every prime has a primitive root")')
def test_primitive_root_search_that_finds_nothing(monkeypatch):
    # with 1 listed as a factor of p - 1, every g fails g^((p-1)/1) != 1
    monkeypatch.setattr(finite_field, "_prime_factors", lambda n: [1])
    finite_field.primitive_root(13)


@fires("finite_field", "ExtField.norm", "not any(acc[1:])")
def test_norm_with_a_corrupt_frobenius(monkeypatch):
    # Frobenius read as the identity makes the "norm" of 1 + x its square,
    # 1 + 2x + x^2, which leaves F_13 (x^2 is in F_13 for this modulus)
    fld = build_extension(13, 2)
    assert fld.modulus[1] == 0
    monkeypatch.setattr(ExtField, "frobenius", lambda self, a: a)
    fld.norm((1, 1))


def test_context_with_a_wrong_generator(monkeypatch):
    # not ledgered: Context certifies zeta with an explicit raise, which
    # holds under python -O.  A generator of 1 gives zeta = 1
    monkeypatch.setattr(finite_field, "primitive_root", lambda p: 1)
    with pytest.raises(NoRootOfUnityError):
        make_context(13, 3)


@fires("finite_field", "zeta_index", 'raise AssertionError("value is not a power of zeta")')
def test_symbol_against_a_corrupt_cofactor(monkeypatch):
    # Context rejects a zeta of the wrong order, and any zeta of order 3
    # reaches every cube root of unity; a cofactor of 1 hands zeta_index
    # 2^1 = 2, no cube root of unity mod 13
    monkeypatch.setattr(finite_field.Context, "cofactor", property(lambda self: 1))
    power_residue_symbol(make_context(13, 3), 2)


@fires("finite_field", "_ell_sylow", "zeta != fld.one and fld.pow(zeta, ell) == fld.one")
def test_sylow_tables_with_a_corrupt_zeta(monkeypatch):
    # F_{7^3}: q - 1 = 342 = 3^2 * 38.  With every inverse read as one, the
    # steps g^(-3^k) collapse to one, and so does zeta
    fld = build_extension(7, 3)
    monkeypatch.setattr(ExtField, "inv", lambda self, a: self.one)
    finite_field._ell_sylow.__wrapped__(fld, 3)


@fires("finite_field", "binomial_roots", "fld.pow(r, ell) == c")
def test_root_from_a_wrong_digit_table(monkeypatch):
    # F_13, c = 4: q - 1 = 2^2 * 3, so r = c^2 = 3 with the Sylow error
    # r^2 / c = -1, whose one digit 1 corrects r to a square root of 4;
    # read as 0, it leaves r = 3
    fld = prime_field(13)
    s, t, g, zeta, digit, steps = finite_field._ell_sylow(fld, 2)
    zeros = dict.fromkeys(digit, 0)
    monkeypatch.setattr(
        finite_field, "_ell_sylow", lambda *args: (s, t, g, zeta, zeros, steps)
    )
    finite_field.binomial_roots(fld, 2, 4)


# -- heis_arith ---------------------------------------------------------------


C13_2 = make_context(13, 2)
C31_3 = make_context(31, 3)
# a point of F_31 where a and 1 - a are both cubes: eps_0(a)^10 is A_3(a)
A31 = next(
    a for a in range(2, 31)
    if power_residue_symbol(C31_3, a) == 0 == power_residue_symbol(C31_3, 1 - a)
)


@fires("heis_arith", "a2_by_closed_form", "all(c == 0 for c in val[1:])")
def test_closed_form_with_a_wrong_square_root(monkeypatch):
    # 2 is no square mod 13; 1 + x in F_{13^2} is no square root of it,
    # and the sum of the two powers no longer descends to F_13
    monkeypatch.setattr(heis_arith, "binomial_roots", lambda fld, ell, c: ((1, 1),))
    heis_arith.a2_by_closed_form(C13_2, 2)


@fires("heis_arith", "a2_value", "val == a2_by_closed_form(ctx, a)")
def test_a2_against_an_off_by_one_closed_form(monkeypatch):
    closed_form = heis_arith.a2_by_closed_form
    monkeypatch.setattr(
        heis_arith, "a2_by_closed_form", lambda ctx, a: (closed_form(ctx, a) + 1) % ctx.p
    )
    heis_arith.a2_value(C13_2, 3)


@fires("heis_arith", "a2_value", "val == packed_a_poly(ctx).evaluate(a)")
def test_a2_against_an_off_by_one_polynomial(monkeypatch):
    c0, *rest = heis_arith.expand_a_poly(C13_2)
    poly = ((c0 + 1) % 13, *rest)
    monkeypatch.setattr(heis_arith, "packed_a_poly", lambda ctx: PackedPoly(13, poly))
    heis_arith.a2_value(C13_2, 3)


@fires("heis_arith", "expand_a_poly", "len(coeffs) <= length")
def test_expansion_with_a_power_of_wrong_degree(monkeypatch):
    power = heis_arith.power
    monkeypatch.setattr(heis_arith, "power", lambda cs, e, p: power(cs, e, p) + [1])
    heis_arith.expand_a_poly(C31_3)


@fires("heis_arith", "a_ell_value", "all(v == val for v in shifted)")
def test_a_ell_with_a_shift_dependent_eps(monkeypatch):
    # shifts n > 0 scaled by the primitive root g = 3: their powers pick
    # up g^10 = zeta != 1
    eps = heis_arith.epsilon_value

    def scaled(ctx, x, shift=0, field=None):
        return eps(ctx, x, shift) * (3 if shift else 1) % ctx.p

    monkeypatch.setattr(heis_arith, "epsilon_value", scaled)
    heis_arith.a_ell_value(C31_3, A31)


@fires("heis_arith", "a_ell_value", "val == a_poly_eval(ctx, a)")
def test_a_ell_against_an_off_by_one_polynomial(monkeypatch):
    evaluate = heis_arith.a_poly_eval
    monkeypatch.setattr(
        heis_arith, "a_poly_eval", lambda ctx, a: (evaluate(ctx, a) + 1) % ctx.p
    )
    heis_arith.a_ell_value(C31_3, A31)


@fires("heis_arith", "_a2_case", "len(hits) == 1")
def test_a2_value_in_no_case(monkeypatch):
    # at a = 3 mod 13: 1/(1 - a) = 6 and a/(1 - a) = 5, and 2^2 = 4 is
    # neither, nor is 2 in {0, 1, -1}
    monkeypatch.setattr(heis_arith, "a2_value", lambda ctx, a: 2)
    heis_arith.classify_a2(C13_2, 3)


@fires("heis_arith", "frobenius_prediction", "predicted * element_order(rep) == ell**3")
def test_prediction_with_a_wrong_element_order(monkeypatch):
    order = heis_arith.element_order
    monkeypatch.setattr(heis_arith, "element_order", lambda rep: order(rep) + 1)
    heis_arith.frobenius_prediction(C13_2, 3)


# -- splitting_oracle ---------------------------------------------------------


@fires("splitting_oracle", "binomial_degree",
       "split == (fld.pow(c, (fld.order - 1) // ell) == fld.one)")
@pytest.mark.parametrize("says", ["power", "non-power"])
def test_norm_symbol_against_abel(monkeypatch, says):
    # F_{13^2} = F_13[x]/(x^2 - c0) with c0 no square mod 13: x is no
    # square (x^84 = c0^42 = -1), while 4 is one.  A norm of 4 calls x a
    # square; a norm of 2, no square mod 13, calls 4 a non-square
    fld = build_extension(13, 2)
    assert fld.modulus[1] == 0
    x, four = (0, 1), fld.embed(4)
    assert fld.pow(x, 84) != fld.one and fld.pow(four, 84) == fld.one
    c, norm = (x, 4) if says == "power" else (four, 2)
    monkeypatch.setattr(ExtField, "norm", lambda self, a: norm)
    splitting_oracle.binomial_degree(fld, 2, c)


@fires("splitting_oracle", "_k_primes", "m == 1")
def test_v_binomial_irreducible_over_the_u_field(monkeypatch):
    # 2 is no square mod 13, so u^2 - 2 is irreducible and the v-binomial
    # is decided over F_{13^2}, where it is declared irreducible here
    degree = splitting_oracle.binomial_degree
    monkeypatch.setattr(
        splitting_oracle,
        "binomial_degree",
        lambda fld, ell, c: ell if fld.degree > 1 else degree(fld, ell, c),
    )
    splitting_oracle.split_K(C13_2, 2, 0)


# a = 4 mod 13: 4 and 1 - 4 = 10 are squares, so four degree-1 K-primes
# and eight degree-1 R-primes
A13 = 4


@fires("splitting_oracle", "_k_primes", "any(xs[0][1:])")
def test_inert_u_binomial_against_a_lying_norm(monkeypatch):
    # a norm of 2, no square mod 13, makes the prime-field decision call
    # the square 4 a non-square; the root of u^2 - 4 taken over F_{13^2}
    # is then 2 or -2, which lies in F_13
    monkeypatch.setattr(PrimeField, "norm", lambda self, a: 2)
    splitting_oracle.split_K(C13_2, A13, 0)


@fires("splitting_oracle", "split_K", "sum(degrees) == ell * ell")
def test_split_k_with_a_dropped_k_prime(monkeypatch):
    k_primes = splitting_oracle._k_primes
    monkeypatch.setattr(splitting_oracle, "_k_primes", lambda ctx, a: k_primes(ctx, a)[1:])
    splitting_oracle.split_K(C13_2, A13, 0)


@fires("splitting_oracle", "split_K", "len(set(degrees)) == 1")
def test_split_k_with_two_k_primes_merged(monkeypatch):
    k_primes = splitting_oracle._k_primes

    def merged(ctx, a):
        kps = k_primes(ctx, a)
        return kps[:2] + (dataclasses.replace(kps[2], degree=2),)

    monkeypatch.setattr(splitting_oracle, "_k_primes", merged)
    splitting_oracle.split_K(C13_2, A13, 0)


@fires("splitting_oracle", "split_K", "len(primes) * sym_order == ell * ell")
def test_split_k_against_a_lying_symbol(monkeypatch):
    monkeypatch.setattr(splitting_oracle, "power_residue_symbol", lambda ctx, a: 1)
    splitting_oracle.split_K(C13_2, A13, 0)


@fires("splitting_oracle", "split_R", "eps != fld.zero")
def test_split_r_with_a_vanishing_unit_product(monkeypatch):
    monkeypatch.setattr(
        splitting_oracle, "epsilon_value", lambda ctx, x, shift=0, field=None: field.zero
    )
    splitting_oracle.split_R(C13_2, A13, 0)


@fires("splitting_oracle", "split_R", "pow(fld.norm(ratio), ctx.cofactor, ctx.p) == 1")
def test_split_r_with_a_shifted_eps_off_by_a_non_square(monkeypatch):
    # the K-primes at A13 lie over F_13, where the primitive root 2 is no
    # square
    eps = splitting_oracle.epsilon_value

    def scaled(ctx, x, shift=0, field=None):
        return field.mul(eps(ctx, x, shift, field), field.embed(2 if shift else 1))

    monkeypatch.setattr(splitting_oracle, "epsilon_value", scaled)
    splitting_oracle.split_R(C13_2, A13, 0)


@fires("splitting_oracle", "split_R", "sum(degrees) == ell**3")
def test_split_r_with_a_dropped_z_factor(monkeypatch):
    # a K-prime lost before split_R takes its two z-factors with it
    k_primes = splitting_oracle._k_primes
    monkeypatch.setattr(splitting_oracle, "_k_primes", lambda ctx, a: k_primes(ctx, a)[1:])
    splitting_oracle.split_R(C13_2, A13, 0)


@fires("splitting_oracle", "split_R", "len(set(degrees)) == 1")
def test_split_r_with_one_z_binomial_declared_irreducible(monkeypatch):
    # every z-binomial at A13 splits; the first one reported irreducible
    # keeps the degree sum at 8 but gives one prime of degree 2
    splitting_oracle.split_K(C13_2, A13, 0)  # the K-primes, before the fault
    degree = splitting_oracle.binomial_degree
    first = iter([True])
    monkeypatch.setattr(
        splitting_oracle,
        "binomial_degree",
        lambda fld, ell, c: ell if next(first, False) else degree(fld, ell, c),
    )
    splitting_oracle.split_R(C13_2, A13, 0)


@fires("splitting_oracle", "split_R2_curve", "w != 0")
def test_curve_model_with_a_wrong_square_root(monkeypatch):
    # x = 1 is no square root of a = 4, and makes 1 - x vanish
    monkeypatch.setattr(splitting_oracle, "lth_root", lambda ctx, a: 1)
    splitting_oracle.split_R2_curve(C13_2, A13)


# -- verification -------------------------------------------------------------


@fires("verification", "_canonical_root", "roots")
def test_discriminant_in_a_field_without_the_roots(monkeypatch):
    monkeypatch.setattr(verification, "binomial_roots", lambda fld, ell, c: ())
    verification.discriminant_ratio_check(C13_2, 3, 5)


def _det_scaled_at(monkeypatch, bad_a):
    # the "max" root choice at bad_a gets its determinant doubled, which
    # changes its square when the determinant is nonzero
    det = verification._integral_basis_det

    def scaled(ctx, field, a, policy):
        value = det(ctx, field, a, policy)
        if policy == "max" and a == bad_a:
            value = field.mul(value, field.embed(2))
        return value

    monkeypatch.setattr(verification, "_integral_basis_det", scaled)


@fires("verification", "discriminant_ratio_check",
       "field.mul(det_a, det_a) == field.mul(alt_a, alt_a)")
def test_discriminant_choice_dependent_at_a(monkeypatch):
    _det_scaled_at(monkeypatch, 3)
    verification.discriminant_ratio_check(C13_2, 3, 5)


@fires("verification", "discriminant_ratio_check",
       "field.mul(det_a2, det_a2) == field.mul(alt_a2, alt_a2)")
def test_discriminant_choice_dependent_at_a2(monkeypatch):
    _det_scaled_at(monkeypatch, 5)
    verification.discriminant_ratio_check(C13_2, 3, 5)


@fires("verification", "chebotarev_stats", "sum(b.observed for b in bins) == len(values)")
def test_histogram_with_a_label_outside_the_classes(monkeypatch):
    predict = verification.frobenius_prediction
    monkeypatch.setattr(
        verification,
        "frobenius_prediction",
        lambda ctx, a: dataclasses.replace(predict(ctx, a), class_label="?"),
    )
    verification.chebotarev_stats(C13_2)
