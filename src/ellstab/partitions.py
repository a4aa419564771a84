"""Colored partitions, torus fixed points, box orders, trees and index degrees.

A fixed point of the cyclic-quiver variety is a tuple of partitions, one per
framing slot; every box (x, y) carries the exact integer content x - y + k
(k the slot color) which is reduced mod N only where a residue condition asks
for it.  The canonical box order sorts by framing slot first, then by content,
then by decreasing hook height x + y - 2; this realizes the "content minus
epsilon times hook" ordering without any floating epsilon.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .core import BudgetError, Monomial


@dataclass(frozen=True)
class ColoredPartition:
    """A partition whose boxes carry contents x - y + color."""

    rows: tuple[int, ...]
    color: int
    n_colors: int

    def __post_init__(self):
        rows = tuple(r for r in self.rows if r > 0)
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"rows must be weakly decreasing, got {self.rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def cells(self) -> list[tuple[int, int]]:
        return [(x, y) for x, r in enumerate(self.rows, start=1) for y in range(1, r + 1)]

    def contains(self, x: int, y: int) -> bool:
        return 1 <= x <= len(self.rows) and 1 <= y <= self.rows[x - 1]

    def content(self, x: int, y: int) -> int:
        return x - y + self.color

    def profile(self) -> tuple[int, ...]:
        """Number of boxes per content residue class."""
        v = [0] * self.n_colors
        for x, y in self.cells():
            v[self.content(x, y) % self.n_colors] += 1
        return tuple(v)

    def addable(self) -> list[tuple[int, int]]:
        """Cells whose addition keeps a partition shape."""
        rows = self.rows
        out = []
        for x in range(1, len(rows) + 2):
            r = rows[x - 1] if x <= len(rows) else 0
            above = rows[x - 2] if x >= 2 else None
            if above is None or r < above:
                out.append((x, r + 1))
        return out

    def removable(self) -> list[tuple[int, int]]:
        rows = self.rows
        out = []
        for x in range(1, len(rows) + 1):
            below = rows[x] if x < len(rows) else 0
            if rows[x - 1] > below:
                out.append((x, rows[x - 1]))
        return out

    def add_cell(self, x: int, y: int) -> "ColoredPartition":
        rows = list(self.rows)
        if x == len(rows) + 1:
            rows.append(1)
        else:
            rows[x - 1] += 1
        return ColoredPartition(tuple(rows), self.color, self.n_colors)

    def remove_cell(self, x: int, y: int) -> "ColoredPartition":
        rows = list(self.rows)
        rows[x - 1] -= 1
        return ColoredPartition(tuple(rows), self.color, self.n_colors)


def addable_removable(lam: ColoredPartition, residue: int) -> tuple[list, list]:
    """Addable / removable cells of a given content residue."""
    n = lam.n_colors
    add = [c for c in lam.addable() if lam.content(*c) % n == residue % n]
    rem = [c for c in lam.removable() if lam.content(*c) % n == residue % n]
    return add, rem


def weight_component(lam: ColoredPartition, residue: int) -> int:
    """|removable| - |addable| boxes of the given residue."""
    add, rem = addable_removable(lam, residue)
    return len(rem) - len(add)


def weight_identity_ok(lam: ColoredPartition) -> tuple[bool, int | None]:
    """Check |R_i| - |A_i| = -delta_{i,k} + sum_j a_ij v_j for all residues.

    a is the affine Cartan matrix of the cycle; returns the offending residue
    on failure.
    """
    n = lam.n_colors
    v = lam.profile()
    k = lam.color % n
    for i in range(n):
        rhs = -int(i == k) + 2 * v[i] - v[(i - 1) % n] - v[(i + 1) % n]
        if weight_component(lam, i) != rhs:
            return False, i
    return True, None


def k_eigen_sum_ok(lam: ColoredPartition) -> bool:
    """sum_i (|R_i| - |A_i|) must equal -1 for every partition."""
    n = lam.n_colors
    return sum(weight_component(lam, i) for i in range(n)) == -1


# ---------------------------------------------------------------------------
# Boxes of a fixed point and the canonical order
# ---------------------------------------------------------------------------

class Box(NamedTuple):
    """A cell of one slot's partition, with its chamber rank and color.

    A named tuple: a compile keys its per-box tables by boxes, and a tuple
    hashes and compares without a Python call."""

    x: int
    y: int
    owner: int          # framing slot rank in the chamber order
    owner_color: int    # color k of the framing slot

    @property
    def content(self) -> int:
        return self.x - self.y + self.owner_color

    @property
    def hook(self) -> int:
        return self.x + self.y - 2

    def key(self) -> tuple[int, int, int]:
        return (self.owner, self.content, -self.hook)


def box_order_cmp(a: Box, b: Box) -> int:
    ka, kb = a.key(), b.key()
    return -1 if ka < kb else (0 if ka == kb else 1)


def rho_less(a: Box, shift: int, b: Box) -> bool:
    """Decide rho_a + shift < rho_b in the epsilon-free lexicographic sense."""
    if a.owner != b.owner:
        return a.owner < b.owner
    ka = (a.content + shift, -a.hook)
    kb = (b.content, -b.hook)
    if ka == kb:
        raise ValueError(f"rho tie between {a} and {b} with shift {shift}")
    return ka < kb


# ---------------------------------------------------------------------------
# Variable names: framing weights, Chern roots and Kahler parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramingSlot:
    """A framing weight: color, 1-based index within the color and group
    prefix.  Its name ``u_var`` is formatted once: compiles read it per box."""

    color: int
    index: int
    prefix: str
    u_var: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "u_var", f"{self.prefix}{self.color}_{self.index}")


@dataclass
class FramingGroup:
    """One tensor factor: a framing vector with named weight variables."""

    w: tuple[int, ...]
    prefix: str = "u"

    def slots(self) -> list[FramingSlot]:
        """The framing slots, color-major: the one maker of ``FramingSlot``s."""
        return [FramingSlot(k, j, self.prefix) for k, wk in enumerate(self.w)
                for j in range(1, wk + 1)]


def chern_var(color: int, index: int) -> str:
    """The Chern root variable of the index-th box of a residue."""
    return f"x{color}_{index}"


def kahler_var(color: int) -> str:
    """The Kahler parameter of a color."""
    return f"z{color}"


@dataclass(frozen=True)
class FixedPoint:
    """A chamber-ordered tuple of colored partitions labelling a fixed point."""

    slots: tuple[tuple[FramingSlot, ColoredPartition], ...]
    n_colors: int

    @property
    def w(self) -> tuple[int, ...]:
        w = [0] * self.n_colors
        for slot, _ in self.slots:
            w[slot.color % self.n_colors] += 1
        return tuple(w)

    @property
    def v(self) -> tuple[int, ...]:
        v = [0] * self.n_colors
        for _, lam in self.slots:
            v = [a + b for a, b in zip(v, lam.profile())]
        return tuple(v)

    @property
    def size(self) -> int:
        return sum(lam.size for _, lam in self.slots)

    def boxes(self) -> list[Box]:
        out = []
        for rank, (slot, lam) in enumerate(self.slots):
            for x, y in lam.cells():
                out.append(Box(x, y, rank, slot.color))
        return out

    def weight(self) -> tuple[int, ...]:
        """Per-residue weight sum(|R_i| - |A_i|) over the slot partitions."""
        out = [0] * self.n_colors
        for _, lam in self.slots:
            for i in range(self.n_colors):
                out[i] += weight_component(lam, i)
        return tuple(out)

    def partitions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lam.rows for _, lam in self.slots)

    def label(self) -> list[list[int]]:
        return [list(lam.rows) for _, lam in self.slots]


def make_fixed_point(partition_rows, w: tuple[int, ...], n_colors: int,
                     prefix: str = FramingGroup.prefix) -> FixedPoint:
    """Build a fixed point from a list of row tuples in chamber order, one
    per slot of ``FramingGroup(w, prefix)``."""
    slots = FramingGroup(w, prefix).slots()
    if len(partition_rows) != len(slots):
        raise ValueError("one partition per framing slot is required")
    return FixedPoint(tuple((slot, ColoredPartition(tuple(rows), slot.color, n_colors))
                            for slot, rows in zip(slots, partition_rows)), n_colors)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, lexicographically decreasing."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def partitions_upto(nmax: int):
    for n in range(nmax + 1):
        yield from partitions_of(n)


def fixed_points(v: tuple[int, ...], w: tuple[int, ...], n_colors: int,
                 budget: int = 200000) -> list[FixedPoint]:
    """All fixed points with box-content profile v and framing vector w.

    Slots are those of ``FramingGroup(w)``, color-major.  Deterministic
    order: slot by slot in the chamber order, partitions in lexicographic
    order of their row tuples.  Raises ``BudgetError`` when there are more
    than ``budget`` of them.
    """
    return _enumerate_fixed_points(v, FramingGroup(w).slots(), n_colors, budget)


def _enumerate_fixed_points(v: tuple[int, ...], slots: list[FramingSlot],
                           n_colors: int,
                           budget: int = 200000) -> list[FixedPoint]:
    """All fixed points with box-content profile v over the given slots.

    The slots keep their order; the enumeration is that of ``fixed_points``.
    The candidates of a slot color, (size, partition, profile) for every
    partition of at most |v| boxes in sorted row order, are built once per
    call; a recursion node keeps those that fit in the boxes left.
    """
    rows_sorted = sorted(partitions_upto(sum(v)))
    candidates: dict[int, list] = {}
    for slot in slots:
        if slot.color not in candidates:
            lams = [ColoredPartition(rows, slot.color, n_colors) for rows in rows_sorted]
            candidates[slot.color] = [(lam.size, lam, lam.profile()) for lam in lams]
    per_slot = [candidates[slot.color] for slot in slots]
    results: list[FixedPoint] = []

    def rec(idx, remaining, left, acc):
        if idx == len(slots):
            if not any(remaining):
                if len(results) == budget:
                    raise BudgetError(f"more than {budget} fixed points")
                results.append(FixedPoint(tuple(zip(slots, acc)), n_colors))
            return
        for size, lam, profile in per_slot[idx]:
            if size > left:
                continue
            nxt = [r - q for r, q in zip(remaining, profile)]
            if any(r < 0 for r in nxt):
                continue
            rec(idx + 1, nxt, left - size, acc + [lam])

    rec(0, list(v), sum(v), [])
    return results


# ---------------------------------------------------------------------------
# Chern root slots and tautological weights
# ---------------------------------------------------------------------------

def chern_slots(fp: FixedPoint, boxes: list[Box] | None = None) -> dict[int, list[Box]]:
    """Boxes per content residue, each list in the canonical order.

    The j-th box of residue i is matched with the Chern root variable
    ``x{i}_{j}``.  ``boxes`` is ``fp.boxes()``, computed if not given.
    """
    n = fp.n_colors
    out: dict[int, list[Box]] = {i: [] for i in range(n)}
    for box in fp.boxes() if boxes is None else boxes:
        out[box.content % n].append(box)
    for i in range(n):
        out[i].sort(key=Box.key)
    return out


def box_slot_vars(fp: FixedPoint,
                  slots: dict[int, list[Box]] | None = None) -> dict[Box, str]:
    """The Chern root variable of each box; ``slots`` is ``chern_slots(fp)``,
    computed if not given."""
    if slots is None:
        slots = chern_slots(fp)
    out = {}
    for i, boxes in slots.items():
        for j, box in enumerate(boxes, start=1):
            out[box] = chern_var(i, j)
    return out


def phi_weight(fp: FixedPoint, box: Box, framed: bool = True) -> Monomial:
    """Restriction weight of the Chern root at a box: u * t1^(1-y) * t2^(1-x).

    The framing factor u of the box's slot keeps distinct slots separated at
    restriction points; without ``framed`` the weight is the bare
    t1^(1-y) t2^(1-x), the convention of the vertex-function normalization.
    """
    d = {fp.slots[box.owner][0].u_var: 1} if framed else {}
    if box.y != 1:
        d["t1"] = 1 - box.y
    if box.x != 1:
        d["t2"] = 1 - box.x
    return Monomial._of(d)


# ---------------------------------------------------------------------------
# Quiver pairs and index degrees from the polarization
# ---------------------------------------------------------------------------

class QuiverPairs(NamedTuple):
    """The framing, arrow and gauge box pairs of a fixed point."""

    framing: list[tuple[int, Box]]
    arrow: list[tuple[Box, Box]]
    gauge: list[tuple[Box, Box]]


def quiver_pairs(fp: FixedPoint, boxes: list[Box] | None = None) -> QuiverPairs:
    """The box pairs behind the summands of the half tangent space.

    Framing: (slot rank, box) with the box residue equal to the slot color
    (W (x) V*).  Arrow: ordered distinct boxes (a, b) with content(b) =
    content(a) + 1 mod N (V_(i+1) (x) V_i*).  Gauge: ordered distinct boxes
    (a, b) of equal residue (V (x) V*).  ``boxes`` (default ``fp.boxes()``)
    sets the order: framing pairs run slot by slot, the others first box outer.
    """
    n = fp.n_colors
    if boxes is None:
        boxes = fp.boxes()
    # the boxes of each residue, in box order
    residues = [b.content % n for b in boxes]
    of_residue: dict[int, list[Box]] = {}
    for b, r in zip(boxes, residues):
        of_residue.setdefault(r, []).append(b)
    framing = [(rank, b) for rank, (slot, _) in enumerate(fp.slots)
               for b in of_residue.get(slot.color % n, ())]
    arrow = [(a, b) for a, r in zip(boxes, residues)
             for b in of_residue.get((r + 1) % n, ())]
    gauge = [(a, b) for a, r in zip(boxes, residues) for b in of_residue[r] if b is not a]
    return QuiverPairs(framing, arrow, gauge)


def index_degrees(fp: FixedPoint, boxes: list[Box] | None = None,
                  pairs: QuiverPairs | None = None) -> dict[Box, int]:
    """Integer degree of each Chern root in the determinant of the index class.

    The half tangent bundle W (x) V* + t1^{-1} V_{+1} (x) V* - V (x) V* is
    restricted to the fixed point; each summand's weight under the symplectic
    subtorus (framing coordinates and the kappa direction with |u| separations
    dominating |kappa| > 1) is classified as large, small or zero.  Zero
    weights belong to the fixed locus of that subtorus and drop out.  The
    degree is minus the signed count of small summands, which is exactly the
    normalization under which the shuffle-product Kahler shifts come out as
    z' -> z * hbar^(w''_i - v''_i + v''_{i+1}) and z'' -> z * hbar^(v'_i - v'_{i-1}).
    ``boxes`` is ``fp.boxes()`` and ``pairs`` is ``quiver_pairs(fp, boxes)``,
    each computed if not given.
    """
    if boxes is None:
        boxes = fp.boxes()
    if pairs is None:
        pairs = quiver_pairs(fp, boxes)
    d: dict[Box, int] = {b: 0 for b in boxes}

    def small(hi: int, lo: int, kappa: int) -> bool:
        """u_hi / u_lo kappa^k is small: the earlier slot's exponent
        decides, kappa only between equal slots."""
        return ((hi < lo) - (hi > lo) or kappa) < 0

    # framing terms u_{(k,j)} / x_b
    for rank, b in pairs.framing:
        if small(rank, b.owner, b.x - b.y):
            d[b] += 1
    # arrow terms t1^{-1} x_b / x_a
    for a, b in pairs.arrow:
        if small(b.owner, a.owner, (a.x - a.y) - (b.x - b.y) + 1):
            d[b] -= 1
            d[a] += 1
    # gauge terms -x_b / x_a
    for a, b in pairs.gauge:
        if small(b.owner, a.owner, (a.x - a.y) - (b.x - b.y)):
            d[b] += 1
            d[a] -= 1
    return d


# ---------------------------------------------------------------------------
# Trees in Young diagrams
# ---------------------------------------------------------------------------

def _cell_edges(lam: ColoredPartition) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    edges = []
    for x, y in lam.cells():
        if lam.contains(x, y + 1):
            edges.append(((x, y), (x, y + 1)))
        if lam.contains(x + 1, y):
            edges.append(((x, y), (x + 1, y)))
    return edges


class LambdaTree:
    """A rooted spanning tree of a partition's adjacency graph.

    ``parent`` maps every non-root cell to its neighbour one step closer to
    the root (1, 1); edges are oriented away from the root.
    """

    __slots__ = ("parent", "children", "kappa", "subtree")

    def __init__(self, parent: dict[tuple[int, int], tuple[int, int]]):
        self.parent = parent
        children: dict[tuple[int, int], list[tuple[int, int]]] = {(1, 1): []}
        for child in parent:
            children[child] = []
        kappa = 0
        for child, par in parent.items():
            children[par].append(child)
            if child[0] < par[0] or child[1] < par[1]:
                kappa += 1
        self.children = children
        self.kappa = kappa
        subtree: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for cell in self._postorder((1, 1)):
            acc = [cell]
            for ch in children[cell]:
                acc += subtree[ch]
            subtree[cell] = acc
        self.subtree = subtree

    def _postorder(self, root):
        """Every cell after its children, the children of a cell last to
        first: the reverse of the preorder that takes them first to last."""
        children = self.children
        out, stack = [], [root]
        while stack:
            cell = stack.pop()
            out.append(cell)
            stack.extend(reversed(children[cell]))
        out.reverse()
        return out

    def edges(self):
        """(parent, child) pairs, deterministic order."""
        return sorted([(par, child) for child, par in self.parent.items()])


def _rooted_tree(cells: list[tuple[int, int]],
                 edges: Iterable[tuple[tuple[int, int], tuple[int, int]]]
                 ) -> LambdaTree | None:
    """The spanning tree of ``cells`` with the given edges, oriented away
    from the root (1, 1) by a breadth-first search over the edges in order;
    None when the edges do not reach every cell."""
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in cells}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # the root holds a place in ``parent`` while the search runs
    parent: dict[tuple[int, int], tuple[int, int]] = {(1, 1): (1, 1)}
    frontier = [(1, 1)]
    while frontier:
        nxt = []
        for c in frontier:
            for nb in adj[c]:
                if nb not in parent:
                    parent[nb] = c
                    nxt.append(nb)
        frontier = nxt
    if len(parent) < len(cells):
        return None
    del parent[1, 1]
    return LambdaTree(parent)


def _trees(lam: ColoredPartition, admissible: bool) -> list[LambdaTree]:
    """The spanning trees of ``spanning_trees``, in its order; with
    ``admissible`` only those whose edges hold no mirrored-L pair
    (``_mirrored_l_pairs``), a choice of edges that holds one being dropped
    before it is rooted."""
    if not lam.rows:
        return []
    if lam.size > 14:
        raise BudgetError(f"tree enumeration limited to 14 boxes, got {lam.size}")
    cells = lam.cells()
    edges = _cell_edges(lam)
    banned = ([(edges.index(a), edges.index(b)) for a, b in _mirrored_l_pairs(lam)]
              if admissible else [])
    trees = []
    for combo in itertools.combinations(range(len(edges)), len(cells) - 1):
        if banned:
            chosen = set(combo)
            if any(a in chosen and b in chosen for a, b in banned):
                continue
        tree = _rooted_tree(cells, [edges[k] for k in combo])
        if tree is not None:
            trees.append(tree)
    return trees


def spanning_trees(lam: ColoredPartition) -> list[LambdaTree]:
    """All spanning trees of the box-adjacency graph, rooted at (1, 1).

    Every choice of cells - 1 edges, in ``itertools.combinations`` order,
    is rooted by ``_rooted_tree``, which keeps it when it reaches every
    cell: cells - 1 edges that connect the cells form a tree.  A hook (no
    2 x 2 square) has cells - 1 edges, so its one choice is its one tree."""
    return _trees(lam, admissible=False)


def _mirrored_l_pairs(lam: ColoredPartition):
    """The mirrored-L pairs of edges, in the orientation of ``_cell_edges``:
    per full 2 x 2 square {(x,y),(x,y+1),(x+1,y),(x+1,y+1)}, the vertical
    edge of its right column (x,y+1)-(x+1,y+1) and its bottom horizontal
    edge (x+1,y)-(x+1,y+1), which meet at its lower-right cell."""
    rows = lam.rows
    # the squares are those of the cells (x, y) whose diagonal neighbour
    # (x + 1, y + 1) the partition holds: y < rows[x] (row x + 1); a hook
    # has none
    for x in range(1, len(rows)):
        for y in range(1, rows[x]):
            corner = (x + 1, y + 1)
            yield ((x, y + 1), corner), ((x + 1, y), corner)


def no_lshape_filter(tree: LambdaTree, lam: ColoredPartition) -> bool:
    """False when the tree holds both edges of a mirrored-L pair
    (``_mirrored_l_pairs``) inside a full 2 x 2 square."""
    parent = tree.parent

    def joined(edge) -> bool:
        a, b = edge
        return parent.get(a) == b or parent.get(b) == a

    return not any(joined(e) and joined(f) for e, f in _mirrored_l_pairs(lam))


def lambda_trees(lam: ColoredPartition) -> list[LambdaTree]:
    """Admissible rooted trees of a partition: the spanning trees that
    ``no_lshape_filter`` keeps, in their order.  The rule is decided on
    each choice of edges, before the choice is rooted."""
    return _trees(lam, admissible=True)
