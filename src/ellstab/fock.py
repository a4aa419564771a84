"""Level-(0,-1) Fock representation data.

Diagonal eigenvalues of the Cartan currents, raising/lowering matrix
coefficients in both of their product forms, the underlying single-line
representation and the integer eigenvalue identities.  The box weight of
(x, y) is u_X = t1^(-y) t2^(-x) u.  An eigenvalue or coefficient is exact
data, the ``ThetaProduct`` of its odd theta ratios, built from monomials
alone: its grading (``mono_total``) holds its leading hbar power with exact
rational exponents, and ``eval(pp, False)`` is its value at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import HBAR, Monomial, ParamPoint
from .envelopes import ThetaProduct
from .partitions import ColoredPartition, addable_removable
from .scalars import vacuum_c_constants


def box_weight(cell: tuple[int, int]) -> Monomial:
    """u_X = t1^(-y) t2^(-x) u for the cell X = (x, y)."""
    x, y = cell
    return Monomial({"u": 1, "t1": -y, "t2": -x})


def _content_key(lam: ColoredPartition, cell) -> tuple[int, int]:
    x, y = cell
    return (lam.content(x, y), -(x + y - 2))


def phi_eigenvalue(lam: ColoredPartition, residue: int, z: Monomial) -> ThetaProduct:
    """Eigenvalue of the residue-j Cartan current on the basis vector of lam.

    Product over removable boxes of theta(u_R/z)/theta(h u_R/z) and addable
    boxes of theta(h^2 u_A/z)/theta(h u_A/z); the expansion direction only
    tags the series reading and does not change the closed ratio.
    """
    add, rem = addable_removable(lam, residue)
    prod = ThetaProduct()
    for cell in rem:
        ur = box_weight(cell)
        prod.num.append(ur / z)
        prod.den.append(HBAR * ur / z)
    for cell in add:
        ua = box_weight(cell)
        prod.num.append(HBAR ** 2 * ua / z)
        prod.den.append(HBAR * ua / z)
    return prod


def phi_weight_exponent(lam: ColoredPartition, residue: int) -> Fraction:
    """Exact hbar exponent of the eigenvalue: (|R_j| - |A_j|) / 2."""
    add, rem = addable_removable(lam, residue)
    return Fraction(len(rem) - len(add), 2)


def raising_coefficient(lam: ColoredPartition, cell, form: int = 1) -> ThetaProduct:
    """Matrix coefficient of adding the box ``cell`` (which must be addable).

    ``form=1`` uses the addable set of lam, ``form=2`` the addable set of
    lam + cell; the two product forms agree.
    """
    n = lam.n_colors
    residue = lam.content(*cell) % n
    add, rem = addable_removable(lam, residue)
    if cell not in add:
        raise ValueError(f"{cell} is not an addable box of residue {residue}")
    ux = box_weight(cell)
    key_x = _content_key(lam, cell)
    prod = ThetaProduct()
    for r in rem:
        if _content_key(lam, r) < key_x:
            ur = box_weight(r)
            prod.num.append(HBAR * ux / ur)
            prod.den.append(ux / ur)
    add_set = add if form == 1 else addable_removable(lam.add_cell(*cell), residue)[0]
    for a in add_set:
        if a == cell:
            continue
        if _content_key(lam, a) < key_x:
            ua = box_weight(a)
            prod.num.append(ux / (HBAR * ua))
            prod.den.append(ux / ua)
    return prod


def lowering_coefficient(lam: ColoredPartition, cell, form: int = 1) -> ThetaProduct:
    """Matrix coefficient of removing the box ``cell`` (which must be removable)."""
    n = lam.n_colors
    residue = lam.content(*cell) % n
    add, rem = addable_removable(lam, residue)
    if cell not in rem:
        raise ValueError(f"{cell} is not a removable box of residue {residue}")
    ux = box_weight(cell)
    key_x = _content_key(lam, cell)
    prod = ThetaProduct()
    rem_set = rem if form == 1 else addable_removable(lam.remove_cell(*cell), residue)[1]
    for r in rem_set:
        if r == cell:
            continue
        if _content_key(lam, r) > key_x:
            ur = box_weight(r)
            prod.num.append(ur / (HBAR * ux))
            prod.den.append(ur / ux)
    for a in add:
        if _content_key(lam, a) > key_x:
            ua = box_weight(a)
            prod.num.append(HBAR * ua / ux)
            prod.den.append(ua / ux)
    return prod


@dataclass(frozen=True)
class VectorAction:
    """Action of a generator on one basis line [u]_m of the vector module."""

    kind: str                 # 'phi', 'raise' or 'lower'
    coefficient: object       # ThetaProduct or complex constant
    support: Monomial | None  # delta-support point for raise/lower
    new_index: int | None


def vector_action(which: str, residue: int, m: int, k: int,
                  pp: ParamPoint, z: Monomial | None = None) -> VectorAction:
    """Single-line module action: ``which`` in {'phi', 'x+', 'x-'}.

    The Cartan case needs the spectral monomial z and returns the closed
    eigenvalue ratio as a ``ThetaProduct``; the ladder cases return the delta-support point and the
    ladder constant.
    """
    n = pp.n_colors
    u = Monomial.var("u")
    t1 = Monomial.var("t1")
    point = u * t1 ** (-m)
    c_plus, c_minus = vacuum_c_constants(pp)
    if which == "phi":
        if z is None:
            raise ValueError("phi action needs the spectral argument z")
        if (residue + m - k) % n == 0:
            ratio = ThetaProduct([point / (HBAR * z)], [point / z])
        elif (residue + m + 1 - k) % n == 0:
            ratio = ThetaProduct([point * Monomial.var("t2") / z], [point / (t1 * z)])
        else:
            ratio = ThetaProduct()
        return VectorAction("phi", ratio, None, m)
    if which == "x+":
        if (residue + m + 1 - k) % n == 0:
            return VectorAction("raise", c_plus, point / t1, m + 1)
        return VectorAction("raise", 0.0 + 0.0j, None, None)
    if which == "x-":
        if (residue + m - k) % n == 0:
            return VectorAction("lower", c_minus, point, m - 1)
        return VectorAction("lower", 0.0 + 0.0j, None, None)
    raise ValueError(f"unknown generator {which!r}")


def k_eigenvalue_exponent(lam: ColoredPartition) -> Fraction:
    """Exponent in the central eigenvalue hbar^(sum_j (|R_j|-|A_j|)/2)."""
    return sum((phi_weight_exponent(lam, j) for j in range(lam.n_colors)),
               Fraction(0))
