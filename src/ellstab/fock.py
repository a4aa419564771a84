"""Level-(0,-1) Fock representation data.

Diagonal eigenvalues of the Cartan currents, the raising/lowering matrix
coefficients, their x+/x- exchange across two boxes, and the underlying
single-line representation.  The box weight of (x, y) is
u_X = t1^(-y) t2^(-x) u.  An eigenvalue or coefficient is exact data, the
``ThetaProduct`` of its odd theta ratios, built from monomials alone: its
grading (``mono_total``) holds its leading hbar power with exact rational
exponents, and ``eval(pp, False)`` is its value at a point.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def raising_coefficient(lam: ColoredPartition, cell) -> ThetaProduct:
    """Matrix coefficient of adding the box ``cell`` (which must be addable)."""
    residue = lam.content(*cell) % lam.n_colors
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
    for a in add:
        if _content_key(lam, a) < key_x:
            ua = box_weight(a)
            prod.num.append(ux / (HBAR * ua))
            prod.den.append(ux / ua)
    return prod


def lowering_coefficient(lam: ColoredPartition, cell) -> ThetaProduct:
    """Matrix coefficient of removing the box ``cell`` (which must be removable)."""
    residue = lam.content(*cell) % lam.n_colors
    add, rem = addable_removable(lam, residue)
    if cell not in rem:
        raise ValueError(f"{cell} is not a removable box of residue {residue}")
    ux = box_weight(cell)
    key_x = _content_key(lam, cell)
    prod = ThetaProduct()
    for r in rem:
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


def exchange_pairs(lam: ColoredPartition) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The pairs (A, B), of any residues, of an addable A and a removable B
    with A neither directly right of nor below B: exactly those for which B
    stays removable in lam + A and A stays addable in lam - B."""
    return [(a, b) for a in lam.addable() for b in lam.removable()
            if a not in ((b[0], b[1] + 1), (b[0] + 1, b[1]))]


def exchange_sides(lam: ColoredPartition, a, b) -> tuple[ThetaProduct, ThetaProduct]:
    """Both sides of the x+/x- exchange across an ``exchange_pairs`` pair,
    c+(lam, A) c-(lam + A, B) and c-(lam, B) c+(lam - B, A), each one product
    of both factors; ``ValueError`` for any other pair."""
    sides = ((raising_coefficient(lam, a), lowering_coefficient(lam.add_cell(*a), b)),
             (lowering_coefficient(lam, b), raising_coefficient(lam.remove_cell(*b), a)))
    return tuple(ThetaProduct(p.num + q.num, p.den + q.den) for p, q in sides)


def exchange_residual(lam: ColoredPartition, a, b, pp: ParamPoint) -> float:
    """Relative difference of the two ``exchange_sides`` at the point."""
    left, right = (side.eval(pp, False) for side in exchange_sides(lam, a, b))
    return abs(left - right) / max(abs(left), abs(right))


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

