"""Fock representation coefficients and the vector module."""

from fractions import Fraction

import numpy as np
import pytest

from ellstab import core
from ellstab.core import HBAR, SQRT_HBAR, Monomial, ParamPoint, qpoch_inf
from ellstab.fock import (box_weight, exchange_pairs, exchange_residual,
                          exchange_sides, lowering_coefficient, phi_eigenvalue,
                          raising_coefficient, vector_action)
from ellstab.partitions import ColoredPartition, partitions_of, weight_component
from ellstab.sampling import random_partition, sample_param_point
from ellstab.scalars import vacuum_c_constants

N = 3
PP = sample_param_point(51, N, extra_vars=["u", "zarg"])
Z = Monomial.var("zarg")
U = Monomial.var("u")


def test_lowest_weight_eigenvalue():
    lam = ColoredPartition((), 0, N)
    got = phi_eigenvalue(lam, 0, Z).eval(PP, False)
    # theta(h u/z) / theta(u/z), whose gradings leave hbar^(-1/2)
    want = (PP.theta(PP.materialize(HBAR * U / Z)) / PP.theta(PP.materialize(U / Z))
            / PP.materialize(SQRT_HBAR))
    assert abs(got - want) < 1e-12 * abs(want)
    for j in (1, 2):
        assert phi_eigenvalue(lam, j, Z).eval(PP, False) == 1.0


def test_eigenvalue_leading_exponent_is_half_weight():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.choice([3, 4, 5]))
        lam = random_partition(rng, 10, n)
        j = int(rng.integers(0, n))
        grading = phi_eigenvalue(lam, j, Z).mono_total()
        want = Fraction(weight_component(lam, j), 2)
        assert grading.get("t1") == want and grading.get("t2") == want
        assert set(grading.exps) <= {"t1", "t2"}


@pytest.mark.parametrize("n", [3, 4])
def test_exact_gradings_of_eigenvalues(n):
    """Every partition up to six boxes, every color and residue: the
    eigenvalue's grading is hbar^(weight_component / 2)."""
    for size in range(7):
        for rows in partitions_of(size):
            for k in range(n):
                lam = ColoredPartition(rows, k, n)
                for j in range(n):
                    assert (phi_eigenvalue(lam, j, Z).mono_total()
                            == HBAR ** Fraction(weight_component(lam, j), 2)), (rows, k, j)


def test_central_eigenvalue_sum():
    """The gradings of the eigenvalues multiply to hbar^(-1/2)."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.choice([3, 4, 5]))
        lam = random_partition(rng, 12, n)
        total = Monomial()
        for j in range(n):
            total = total * phi_eigenvalue(lam, j, Z).mono_total()
        assert total == HBAR ** Fraction(-1, 2), lam


def test_empty_partition_raising_coefficient_is_one():
    lam = ColoredPartition((), 0, N)
    assert raising_coefficient(lam, (1, 1)).eval(PP, False) == 1.0


def test_single_factor_hand_case():
    lam = ColoredPartition((1,), 0, N)
    # the only residue-1 boundary box below (2,1) is nothing: coefficient 1
    assert raising_coefficient(lam, (2, 1)).eval(PP, False) == 1.0
    # removing the single box: nothing above it either
    assert lowering_coefficient(lam, (1, 1)).eval(PP, False) == 1.0


@pytest.mark.parametrize("n", [3, 4])
def test_exchange_across_two_boxes(n):
    """Every partition up to six boxes and every color: the pairs of
    ``exchange_pairs`` are exactly the addable A and removable B with B
    removable in lam + A and A addable in lam - B; on each, the two sides of
    c+(lam, A) c-(lam + A, B) = c-(lam, B) c+(lam - B, A) have one exact
    grading and agree in value at two points; any other pair raises."""
    points = [sample_param_point(seed, n, extra_vars=["u"]) for seed in (1, 2)]
    checked = 0
    for size in range(7):
        for rows in partitions_of(size):
            for k in range(n):
                lam = ColoredPartition(rows, k, n)
                pairs = exchange_pairs(lam)
                for a in lam.addable():
                    for b in lam.removable():
                        stays = (b in lam.add_cell(*a).removable()
                                 and a in lam.remove_cell(*b).addable())
                        assert ((a, b) in pairs) == stays, (rows, k, a, b)
                        if not stays:
                            with pytest.raises(ValueError):
                                exchange_sides(lam, a, b)
                for a, b in pairs:
                    left, right = exchange_sides(lam, a, b)
                    assert left.mono_total() == right.mono_total(), (rows, k, a, b)
                    for pp in points:
                        assert exchange_residual(lam, a, b, pp) < 1e-13, (rows, k, a, b)
                    checked += 1
    assert checked == 68 * n


def test_box_weight():
    assert box_weight((2, 1)).exps == {"u": 1, "t1": -1, "t2": -2}


def test_vector_action_cases():
    # away from the active residues the Cartan action is trivial
    va = vector_action("phi", 1, 0, 0, PP, z=Z)
    assert va.coefficient.eval(PP, False) == 1.0
    # raising support sits one ladder step down
    va = vector_action("x+", 2, 0, 0, PP)
    assert va.support.exps == {"u": 1, "t1": -1}
    assert va.new_index == 1
    va = vector_action("x+", 1, 0, 0, PP)
    assert va.support is None and va.new_index is None
    # lowering support
    va = vector_action("x-", 0, 0, 0, PP)
    assert va.support.exps == {"u": 1}
    assert va.new_index == -1


def test_ladder_constants_product():
    cp, cm = vacuum_c_constants(PP)
    p, h = PP.p, PP.hbar
    want = (qpoch_inf(p * h, p) * qpoch_inf(p / h, p)
            / qpoch_inf(p, p) ** 2)
    assert abs(cp * cm - want) < 1e-13 * abs(want)


def test_ladder_constants_take_the_points_products(monkeypatch):
    """The ladder constants take their three products through the point, at
    its ``min_terms``, and a second call reads them from its memo."""
    pp = ParamPoint(N, PP.values, PP.logs, min_terms=60)
    taken = []

    def counted(z, q, min_terms=20):
        taken.append(min_terms)
        return qpoch_inf(z, q, min_terms)

    monkeypatch.setattr(core, "qpoch_inf", counted)
    cp, cm = vacuum_c_constants(pp)
    assert taken == [60, 60, 60]
    assert vacuum_c_constants(pp) == (cp, cm)
    p, h = pp.p, pp.hbar
    base = pp.qpoch_inf(p, p)
    assert (cp, cm) == (pp.qpoch_inf(p * h, p) / base, pp.qpoch_inf(p / h, p) / base)
    assert len(taken) == 3
