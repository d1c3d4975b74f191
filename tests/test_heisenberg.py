"""Group law, orders, and conjugacy classes of the unitriangular group."""

import pytest

from heissplit import (
    HeisElem,
    MixedModulusError,
    NotPrimeError,
    conjugacy_classes,
    element_order,
    identity,
)
from heissplit.heisenberg import all_elements, class_label


class TestCompose:
    def test_identity_neutral(self):
        g = HeisElem(3, 1, 2, 1)
        assert identity(3) * g == g
        assert g * identity(3) == g

    def test_noncommutativity_example(self):
        a = HeisElem(2, 1, 0, 0)
        b = HeisElem(2, 0, 1, 0)
        assert a * b == HeisElem(2, 1, 1, 1)
        assert b * a == HeisElem(2, 1, 1, 0)

    def test_inverse(self):
        for g in all_elements(3):
            assert g * g.inverse() == identity(3)
            assert g.inverse() * g == identity(3)

    def test_mixed_modulus_rejected(self):
        with pytest.raises(MixedModulusError):
            HeisElem(2, 1, 0, 0) * HeisElem(3, 1, 0, 0)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_associativity_exhaustive(self, ell):
        elems = list(all_elements(ell))
        for a in elems:
            for b in elems:
                ab = a * b
                for c in elems:
                    assert (ab * c) == (a * (b * c))

    def test_matches_matrix_multiplication(self):
        def matmul(x, y, ell):
            return tuple(
                tuple(sum(x[i][k] * y[k][j] for k in range(3)) % ell
                      for j in range(3))
                for i in range(3)
            )

        for ell in (2, 3):
            for a in all_elements(ell):
                for b in all_elements(ell):
                    assert (a * b).to_matrix() == matmul(
                        a.to_matrix(), b.to_matrix(), ell
                    )

    def test_commutator_is_central_of_order_ell(self):
        for ell in (2, 3, 5):
            alpha = HeisElem(ell, 1, 0, 0)
            beta = HeisElem(ell, 0, 1, 0)
            comm = alpha * beta * alpha.inverse() * beta.inverse()
            assert comm.is_central and comm.e_c % ell != 0
            assert element_order(comm) == ell
            for g in all_elements(ell):
                assert g * comm == comm * g


def brute_power(g: HeisElem, n: int) -> HeisElem:
    """g^n by |n| repeated multiplications (by g^-1 for negative n)."""
    step = g if n >= 0 else g.inverse()
    acc = identity(g.ell)
    for _ in range(abs(n)):
        acc = acc * step
    return acc


class TestOrders:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_closed_forms_match_repeated_multiplication(self, ell):
        for g in all_elements(ell):
            for n in range(-2 * ell, 2 * ell + 1):
                assert g**n == brute_power(g, n)
            order = next(n for n in range(1, 5 * ell) if brute_power(g, n).is_identity)
            assert element_order(g) == order

    def test_examples(self):
        assert element_order(identity(3)) == 1
        assert element_order(HeisElem(2, 1, 1, 0)) == 4

    def test_odd_ell_all_non_identity_have_order_ell(self):
        for ell in (3, 5):
            for g in all_elements(ell):
                assert element_order(g) == (1 if g.is_identity else ell)

    def test_ell_2_exponent_4(self):
        for g in all_elements(2):
            assert g**4 == identity(2)
            assert element_order(g) in (1, 2, 4)


def brute_conjugacy_classes(ell: int) -> tuple[tuple[HeisElem, ...], ...]:
    """Reference partition: conjugate each element by the whole group.
    Classes ordered by (size, minimal representative), members by key."""
    elems = list(all_elements(ell))
    seen: set[tuple[int, int, int]] = set()
    classes = []
    for g in elems:
        if g.key() in seen:
            continue
        cls = {(h * g * h.inverse()).key() for h in elems}
        seen |= cls
        classes.append(tuple(HeisElem(ell, *k) for k in sorted(cls)))
    classes.sort(key=lambda cls: (len(cls), cls[0].key()))
    return tuple(classes)


class TestConjugacyClasses:
    def test_ell_2_sizes(self):
        classes = conjugacy_classes(2)
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]

    def test_ell_2_center_singleton(self):
        classes = conjugacy_classes(2)
        assert (HeisElem(2, 0, 0, 1),) in classes

    def test_ell_2_order_four_single_class(self):
        classes = conjugacy_classes(2)
        order4 = {g for g in all_elements(2) if element_order(g) == 4}
        assert order4 == {HeisElem(2, 1, 1, 0), HeisElem(2, 1, 1, 1)}
        assert tuple(sorted(order4, key=lambda g: g.key())) in classes

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_partition_properties(self, ell):
        classes = conjugacy_classes(ell)
        sizes = [len(c) for c in classes]
        assert sum(sizes) == ell**3
        assert all(ell**3 % s == 0 for s in sizes)
        seen = set()
        for cls in classes:
            for g in cls:
                assert g.key() not in seen
                seen.add(g.key())
        assert len(seen) == ell**3

    def test_ell_3_center_contributes_three_singletons(self):
        classes = conjugacy_classes(3)
        singles = [c for c in classes if len(c) == 1]
        assert len(singles) == 3
        assert all(c[0].is_central for c in singles)

    def test_classes_closed_under_conjugation(self):
        # the closed form against the reference, class by class and in order
        for ell in (2, 3, 5, 7):
            assert conjugacy_classes(ell) == brute_conjugacy_classes(ell)

    def test_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            conjugacy_classes(4)

    def test_labels_partition(self):
        for ell in (2, 3):
            labels = {class_label(c[0]) for c in conjugacy_classes(ell)}
            assert len(labels) == len(conjugacy_classes(ell))
