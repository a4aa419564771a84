"""Special functions: Pochhammer symbols, theta laws, triple Gamma, modular."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from ellstab.core import (HBAR, SQRT_HBAR, Monomial, ParamPoint,
                          SingularityError, exponent_product, qpoch_fin,
                          qpoch_inf, theta_modular_residual, theta_p)
from ellstab.envelopes import ThetaProduct
from ellstab.sampling import sample_param_point
from qseries_oracles import gamma3, qpoch2_inf

PP = sample_param_point(1, 3)
P = PP.p


def test_monomial_algebra():
    m = Monomial.var("a") * Monomial.var("b", 2)
    assert m / m == Monomial.one()
    assert (m ** Fraction(1, 2)).get("b") == 1
    assert Monomial.one() * m == m
    assert hash(m) == hash(Monomial({"a": 1, "b": 2}))
    # the hash is that of the repr: another exponent order, or a repr handed
    # to the monomial as it is built, hashes alike
    assert hash(m) == hash(Monomial({"b": 2, "a": 1})) \
        == hash(Monomial._of({"b": 2, "a": 1}, "a^1*b^2"))


def _integral_fractions(m):
    """Exponents of ``m`` stored as a Fraction although they are integers."""
    return {k: e for k, e in m._exps.items()
            if isinstance(e, Fraction) and e.denominator == 1}


def test_integral_exponents_are_stored_as_ints():
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    a = Monomial({"a": half, "b": Fraction(4, 2), "c": Fraction(-3)})
    b = Monomial([("a", half), ("b", 1), ("a", three_halves)])
    assert a._exps == {"a": half, "b": 2, "c": -3}
    assert b._exps == {"a": 2, "b": 1}
    results = {
        "init": [a, b, Monomial.var("t1", Fraction(2))],
        "mul": [a * Monomial.var("a", three_halves),
                Monomial.var("a", half) * Monomial.var("a", half)],
        "div": [a / Monomial.var("a", Fraction(-3, 2)),
                Monomial.var("a", three_halves) / Monomial.var("a", half)],
        "pow": [a ** 2, Monomial.var("a", three_halves) ** Fraction(2, 3),
                Monomial.var("a", 4) ** half],
        "grading": [ThetaProduct([Monomial({"a": 4, "b": -2})]).mono_total(),
                    ThetaProduct([Monomial.var("a", Fraction(4, 3))]).mono_total()],
        "product": [Monomial._of(exponent_product(
            [(Monomial.var("a", half)._exps, 2),
             (Monomial.var("a", three_halves)._exps, 1)]))],
    }
    for op, monos in results.items():
        for m in monos:
            assert not _integral_fractions(m), (op, m)
    assert results["mul"][0]._exps == {"a": 2, "b": 2, "c": -3}
    assert results["pow"][1]._exps == {"a": 1}
    assert results["grading"][0]._exps == {"a": -2, "b": 1}
    assert results["grading"][1]._exps == {"a": Fraction(-2, 3)}
    assert results["product"][0]._exps == {"a": Fraction(5, 2)}


def test_int_and_fraction_exponents_agree_bitwise():
    a = Monomial({"t1": Fraction(2)})
    b = Monomial.var("t1", 2)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert PP.materialize(a) == PP.materialize(b)
    # a stored int and a stored Fraction of the same value hash and print alike
    c = Monomial._of({"t1": Fraction(2), "t2": Fraction(-1, 2)})
    d = Monomial({"t1": 2, "t2": Fraction(-1, 2)})
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
    assert PP.materialize(c) == PP.materialize(d)


def test_monomial_product_is_the_chained_product():
    """Exponents and variable order, which ``materialize`` sums in."""
    x, y = Monomial.var("x"), Monomial.var("y")
    factors = [(x * y, 1), (HBAR / y, 1), (x, -1), (y * x, 3)]
    chained = Monomial.one()
    for m, k in factors:
        chained = chained * m ** k
    got = Monomial._of(exponent_product([(m._exps, k) for m, k in factors]))
    assert list(got._exps.items()) == list(chained._exps.items())
    assert list(got._exps) == ["t1", "t2", "y", "x"]


def test_qpoch_inf_zero_argument():
    assert qpoch_inf(0.0, 0.1) == 1.0


def test_qpoch_inf_telescoping():
    z = 0.37 + 0.21j
    assert abs(qpoch_inf(z, 0.1) / qpoch_inf(0.1 * z, 0.1) - (1 - z)) < 1e-14


def test_qpoch_inf_agrees_with_long_truncation():
    z, q = 0.3, 0.1
    direct = 1.0
    for n in range(40):
        direct *= 1 - z * q ** n
    assert abs(qpoch_inf(z, q) - direct) < 1e-14 * abs(direct)


def test_qpoch_inf_divergent_modulus():
    with pytest.raises(SingularityError):
        qpoch_inf(0.5, 1.2)


def test_qpoch_fin_small_cases():
    z, q = 0.5 + 0.1j, 0.1 + 0.05j
    assert qpoch_fin(z, q, 0) == 1.0
    assert abs(qpoch_fin(z, q, 2) - (1 - z) * (1 - q * z)) < 1e-15


def test_qpoch_fin_negative_inverse_identity():
    z, q = 0.5, 0.1
    for d in range(1, 5):
        prod = qpoch_fin(z, q, -d) * qpoch_fin(z * q ** (-d), q, d)
        assert abs(prod - 1) < 1e-12


def test_qpoch_fin_cocycle():
    z, q = 0.43 - 0.2j, 0.09 + 0.03j
    for d in range(-4, 5):
        for e in range(-4, 5):
            lhs = qpoch_fin(z, q, d) * qpoch_fin(z * q ** d, q, e)
            rhs = qpoch_fin(z, q, d + e)
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1)


def test_theta_p_symmetry_and_zero():
    z = 0.4 + 0.2j
    p = 0.08
    assert abs(theta_p(p / z, p) - theta_p(z, p)) < 1e-14
    assert theta_p(1.0, p) == 0.0


def test_theta_graded_laws():
    rng = np.random.default_rng(3)
    zm = Monomial.var("w")
    pm = Monomial.var("p")
    for _ in range(100):
        zv = (0.3 + 1.4 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        pp = PP.extended({"w": zv})
        th = ThetaProduct([zm]).eval(pp, False)
        assert abs(ThetaProduct([zm ** -1]).eval(pp, False) + th) < 1e-10 * abs(th)
        shifted = ThetaProduct([pm * zm]).eval(pp, False)
        law = -pp.materialize(pm ** Fraction(-1, 2) * zm ** -1) * th
        assert abs(shifted - law) < 1e-10 * abs(law)


def _bits(c: complex) -> tuple[str, str]:
    return (c.real.hex(), c.imag.hex())


@pytest.mark.parametrize("star", [False, True])
def test_theta_is_minus_the_even_theta_cold_and_warm(star):
    """``ParamPoint.theta`` is -theta_p of a value at the point's nome, bit
    for bit, whether the point's q-Pochhammer memo holds the two infinite
    products yet or not."""
    rng = np.random.default_rng(11)
    zm = Monomial.var("w")
    for _ in range(20):
        zv = (0.3 + 1.4 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        pp = ParamPoint(PP.n_colors, {**PP.values, "w": zv})
        z = pp.materialize(zm)
        want = _bits(-theta_p(z, pp.nome(star), pp.min_terms))
        assert not pp._qpoch_memo
        assert _bits(pp.theta(z, star)) == want
        assert len(pp._qpoch_memo) == 2
        assert _bits(pp.theta(z, star)) == want


def test_theta_at_a_zero_value_raises():
    pp = ParamPoint(3, {"p": 0.1, "t1": 0.5, "t2": 0.7})
    deep = Monomial.var("t1", 2000)  # 0.5^2000 underflows to 0
    for z in (pp.materialize(deep), 0.0):
        with pytest.raises(SingularityError, match="materialized to 0"):
            pp.theta(z)


def test_phi_monomial_is_half_hbar():
    """The four gradings of phi(x, y) leave hbar^(-1/2), which
    ``ParamPoint.phi`` multiplies into the ratio of the theta values."""
    pp = PP.extended({"w": 0.3 + 0.4j, "y": 1.1 - 0.2j})
    x, y = Monomial.var("w"), Monomial.var("y")
    assert ThetaProduct([x * y, HBAR], [x, y]).mono_total().exps == {
        "t1": Fraction(-1, 2), "t2": Fraction(-1, 2)}
    th = [pp.theta(pp.materialize(m)) for m in (x * y, HBAR, x, y)]
    want = th[0] * th[1] / (th[2] * th[3]) * pp.materialize(SQRT_HBAR ** -1)
    assert _bits(pp.phi(x, y)) == _bits(want)


def test_phi_pole_at_one():
    pp = PP.extended({"w": 0.3 + 0.4j})
    with pytest.raises(SingularityError):
        pp.phi(Monomial.one(), Monomial.var("w"))


def test_phi_symmetric_and_reassociation():
    pp = PP.extended({"w": 0.3 + 0.4j, "y": 1.1 - 0.2j})
    x, y = Monomial.var("w"), Monomial.var("y")
    a = pp.phi(x, y)
    b = pp.phi(y, x)
    assert abs(a - b) < 1e-12 * abs(a)
    c = ThetaProduct([x * y, HBAR], [x, y]).eval(pp, False)
    assert abs(a - c) < 1e-12 * abs(a)


def test_gamma3_symmetry():
    a, b, c = 0.2 + 0.05j, 0.3 - 0.1j, 0.15 + 0.12j
    z = 0.7 + 0.3j
    vals = [gamma3(z, *perm) for perm in
            [(a, b, c), (b, a, c), (c, b, a), (a, c, b)]]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-12 * abs(vals[0])


def test_gamma3_inversion_symmetry():
    a, b, c = 0.2, 0.3, 0.15
    z = 0.7 + 0.3j
    assert abs(gamma3(z, a, b, c) - gamma3(a * b * c / z, a, b, c)) \
        < 1e-12 * abs(gamma3(z, a, b, c))


def test_gamma3_rejects_zero():
    with pytest.raises(SingularityError):
        gamma3(0.0, 0.2, 0.3, 0.1)


def test_double_pochhammer_telescoping():
    z, p, t = 0.4 + 0.1j, 0.1, 0.3
    lhs = qpoch2_inf(z, p, t) / qpoch2_inf(z * t, p, t)
    assert abs(lhs - qpoch_inf(z, p)) < 1e-12 * abs(lhs)


def test_modular_transform():
    rng = np.random.default_rng(5)
    assert theta_modular_residual(1.0 + 0.0j, PP) < 1e-10
    for _ in range(20):
        x = abs(P) ** 0.5 * cmath.exp(2j * np.pi * rng.random())
        assert theta_modular_residual(x, PP) < 1e-10


def test_modular_consistent_with_shift_law():
    # residual at p*X and at X both vanish, consistently with the shift law
    x = 0.3 + 0.1j
    assert theta_modular_residual(x, PP) < 1e-10
    assert theta_modular_residual(P * x, PP) < 1e-10


def test_param_point_rejects_bad_nome():
    with pytest.raises(ValueError):
        ParamPoint(3, {"p": 1.2 + 0j, "t1": 0.5, "t2": 0.6})
    with pytest.raises(ValueError):
        # shifted nome outside the disc
        ParamPoint(3, {"p": 0.3 + 0j, "t1": 0.3, "t2": 0.4})
    with pytest.raises(ValueError):
        # an extension is checked like any point
        PP.extended({"p": 1.2 + 0j})


@pytest.mark.parametrize("name", ["p", "t1", "t2"])
def test_param_point_requires_p_t1_t2(name):
    """A point without p, t1 or t2 is refused when it is made, not at its
    first theta."""
    values = {"p": 0.1 + 0.05j, "t1": 0.8 + 0.3j, "t2": 1.1 - 0.2j}
    del values[name]
    with pytest.raises(ValueError, match="needs p, t1 and t2"):
        ParamPoint(3, values)
