"""Fock representation coefficients and the vector module."""

from fractions import Fraction

import numpy as np
import pytest

from ellstab import core
from ellstab.core import HBAR, SQRT_HBAR, Monomial, ParamPoint, qpoch_inf
from ellstab.fock import (box_weight, k_eigenvalue_exponent,
                          lowering_coefficient, phi_eigenvalue,
                          phi_weight_exponent, raising_coefficient,
                          vector_action)
from ellstab.partitions import ColoredPartition, addable_removable, partitions_of
from ellstab.sampling import sample_param_point
from ellstab.scalars import vacuum_c_constants

N = 3
PP = sample_param_point(51, N, extra_vars=["u", "zarg"])
Z = Monomial.var("zarg")
U = Monomial.var("u")


def random_partition(rng, max_size, n_colors):
    size = int(rng.integers(0, max_size + 1))
    rows, rem, mx = [], size, size
    while rem > 0:
        part = int(rng.integers(1, min(rem, mx) + 1))
        rows.append(part)
        mx = part
        rem -= part
    return ColoredPartition(tuple(sorted(rows, reverse=True)),
                            int(rng.integers(0, n_colors)), n_colors)


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
        want = phi_weight_exponent(lam, j)
        assert grading.get("t1") == want and grading.get("t2") == want
        assert set(grading.exps) <= {"t1", "t2"}


@pytest.mark.parametrize("n", [3, 4])
def test_exact_gradings_of_eigenvalues_and_dual_forms(n):
    """Every partition up to six boxes, every color and residue: the
    eigenvalue's grading is hbar^(phi_weight_exponent), and the two product
    forms of each ladder coefficient have one grading."""
    for size in range(7):
        for rows in partitions_of(size):
            for k in range(n):
                lam = ColoredPartition(rows, k, n)
                for j in range(n):
                    assert (phi_eigenvalue(lam, j, Z).mono_total()
                            == HBAR ** phi_weight_exponent(lam, j)), (rows, k, j)
                    add, rem = addable_removable(lam, j)
                    for coefficient, cells in ((raising_coefficient, add),
                                               (lowering_coefficient, rem)):
                        for cell in cells:
                            one, two = (coefficient(lam, cell, form=f).mono_total()
                                        for f in (1, 2))
                            assert one == two, (rows, k, cell, coefficient.__name__)


def test_central_eigenvalue_sum():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.choice([3, 4, 5]))
        lam = random_partition(rng, 12, n)
        assert k_eigenvalue_exponent(lam) == Fraction(-1, 2)


def test_empty_partition_raising_coefficient_is_one():
    lam = ColoredPartition((), 0, N)
    assert raising_coefficient(lam, (1, 1)).eval(PP, False) == 1.0


def test_single_factor_hand_case():
    lam = ColoredPartition((1,), 0, N)
    # the only residue-1 boundary box below (2,1) is nothing: coefficient 1
    assert raising_coefficient(lam, (2, 1)).eval(PP, False) == 1.0
    # removing the single box: nothing above it either
    assert lowering_coefficient(lam, (1, 1)).eval(PP, False) == 1.0


def test_dual_forms_agree():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(200):
        n = int(rng.choice([3, 4, 5]))
        lam = random_partition(rng, 9, n)
        pp = sample_param_point(1000 + trial, n, extra_vars=["u"])
        adds = lam.addable()
        cell = adds[int(rng.integers(0, len(adds)))]
        a1 = raising_coefficient(lam, cell, form=1).eval(pp, False)
        a2 = raising_coefficient(lam, cell, form=2).eval(pp, False)
        worst = max(worst, abs(a1 - a2) / max(abs(a1), abs(a2)))
        rems = lam.removable()
        if rems:
            cell = rems[int(rng.integers(0, len(rems)))]
            b1 = lowering_coefficient(lam, cell, form=1).eval(pp, False)
            b2 = lowering_coefficient(lam, cell, form=2).eval(pp, False)
            worst = max(worst, abs(b1 - b2) / max(abs(b1), abs(b2)))
    assert worst < 1e-10


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
