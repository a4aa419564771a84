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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

@dataclass(frozen=True)
class Box:
    """A cell of one slot's partition, with its chamber rank and color."""

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


@dataclass(frozen=True)
class FramingSlot:
    color: int
    u_var: str
    index: int  # 1-based index among slots of the same color


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

    def root_anchor(self, rank: int) -> Box:
        """The (1, 1) comparison anchor of a slot (virtual if the slot is empty)."""
        slot, _ = self.slots[rank]
        return Box(1, 1, rank, slot.color)

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
                     u_names: list[str] | None = None) -> FixedPoint:
    """Build a fixed point from a list of row tuples in chamber order."""
    slots = []
    rank = 0
    names = []
    for k, wk in enumerate(w):
        for j in range(1, wk + 1):
            names.append((k, j, u_names[rank] if u_names else f"u{k}_{j}"))
            rank += 1
    if len(partition_rows) != len(names):
        raise ValueError("one partition per framing slot is required")
    out = []
    for (k, j, name), rows in zip(names, partition_rows):
        out.append((FramingSlot(k, name, j), ColoredPartition(tuple(rows), k, n_colors)))
    return FixedPoint(tuple(out), n_colors)


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
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
        yield from _partitions_of(n)


def fixed_points(v: tuple[int, ...], w: tuple[int, ...], n_colors: int,
                 u_names: list[str] | None = None,
                 budget: int = 200000) -> list[FixedPoint]:
    """All fixed points with box-content profile v and framing vector w.

    Deterministic order: slot by slot in the chamber order, partitions in
    lexicographic order of their row tuples.  Raises ``BudgetError`` when
    there are more than ``budget`` of them.
    """
    total = sum(v)
    slot_colors = [k for k in range(n_colors) for _ in range(w[k])]
    results: list[FixedPoint] = []

    def candidates(color, max_size):
        cands = []
        for rows in partitions_upto(max_size):
            lam = ColoredPartition(rows, color, n_colors)
            cands.append(lam)
        cands.sort(key=lambda lam: lam.rows)
        return cands

    def rec(idx, remaining, acc):
        if idx == len(slot_colors):
            if all(r == 0 for r in remaining):
                if len(results) == budget:
                    raise BudgetError(f"more than {budget} fixed points")
                results.append(make_fixed_point([lam.rows for lam in acc], w,
                                                n_colors, u_names))
            return
        rem_total = sum(remaining)
        for lam in candidates(slot_colors[idx], rem_total):
            prof = lam.profile()
            nxt = [r - q for r, q in zip(remaining, prof)]
            if any(r < 0 for r in nxt):
                continue
            rec(idx + 1, nxt, acc + [lam])

    rec(0, list(v), [])
    return results


# ---------------------------------------------------------------------------
# Chern root slots and tautological weights
# ---------------------------------------------------------------------------

def chern_slots(fp: FixedPoint) -> dict[int, list[Box]]:
    """Boxes per content residue, each list in the canonical order.

    The j-th box of residue i is matched with the Chern root variable
    ``x{i}_{j}``.
    """
    n = fp.n_colors
    out: dict[int, list[Box]] = {i: [] for i in range(n)}
    for box in fp.boxes():
        out[box.content % n].append(box)
    for i in range(n):
        out[i].sort(key=Box.key)
    return out


def chern_var(color: int, index: int) -> str:
    return f"x{color}_{index}"


def box_slot_vars(fp: FixedPoint) -> dict[Box, str]:
    slots = chern_slots(fp)
    out = {}
    for i, boxes in slots.items():
        for j, box in enumerate(boxes, start=1):
            out[box] = chern_var(i, j)
    return out


def phi_weight(fp: FixedPoint, box: Box) -> Monomial:
    """Restriction weight of the Chern root at a box: u * t1^(1-y) * t2^(1-x).

    The framing factor is included so that distinct slots stay separated at
    restriction points.
    """
    slot, _ = fp.slots[box.owner]
    return Monomial({slot.u_var: Fraction(1), "t1": Fraction(1 - box.y),
                     "t2": Fraction(1 - box.x)})


# ---------------------------------------------------------------------------
# Index degrees from the polarization
# ---------------------------------------------------------------------------

def _first_nonzero(pairs):
    for _, e in sorted(pairs.items()):
        if e:
            return e
    return 0


def index_degrees(fp: FixedPoint) -> dict[Box, int]:
    """Integer degree of each Chern root in the determinant of the index class.

    The half tangent bundle W (x) V* + t1^{-1} V_{+1} (x) V* - V (x) V* is
    restricted to the fixed point; each summand's weight under the symplectic
    subtorus (framing coordinates and the kappa direction with |u| separations
    dominating |kappa| > 1) is classified as large, small or zero.  Zero
    weights belong to the fixed locus of that subtorus and drop out.  The
    degree is minus the signed count of small summands, which is exactly the
    normalization under which the shuffle-product Kahler shifts come out as
    z' -> z * hbar^(w''_i - v''_i + v''_{i+1}) and z'' -> z * hbar^(v'_i - v'_{i-1}).
    """
    n = fp.n_colors
    boxes = fp.boxes()
    d: dict[Box, int] = {b: 0 for b in boxes}

    def classify(uexps: dict[int, int], kappa: int) -> int:
        """+1 large, -1 small, 0 zero."""
        lead = _first_nonzero(uexps)
        if lead:
            return 1 if lead > 0 else -1
        if kappa:
            return 1 if kappa > 0 else -1
        return 0

    def add_term(uexps, kappa, sign, xexp):
        if classify(uexps, kappa) == -1:
            for box, e in xexp.items():
                d[box] -= sign * e

    # framing terms u_{(k,j)} / x_b over boxes of matching residue
    for rank, (slot, _) in enumerate(fp.slots):
        for b in boxes:
            if b.content % n != slot.color % n:
                continue
            uexps = {} if rank == b.owner else {rank: 1, b.owner: -1}
            add_term(uexps, b.x - b.y, +1, {b: -1})

    # arrow terms t1^{-1} x_b / x_a with content(b) = content(a) + 1 mod N
    for b in boxes:
        for a in boxes:
            if a is b or (b.content - a.content - 1) % n != 0:
                continue
            uexps = {} if a.owner == b.owner else {b.owner: 1, a.owner: -1}
            kappa = (a.x - a.y) - (b.x - b.y) + 1
            add_term(uexps, kappa, +1, {b: 1, a: -1})

    # gauge terms -x_b / x_a over distinct boxes of equal residue
    for b in boxes:
        for a in boxes:
            if a is b or (b.content - a.content) % n != 0:
                continue
            uexps = {} if a.owner == b.owner else {b.owner: 1, a.owner: -1}
            kappa = (a.x - a.y) - (b.x - b.y)
            add_term(uexps, kappa, -1, {b: 1, a: -1})

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
        self.children: dict[tuple[int, int], list[tuple[int, int]]] = {}
        cells = set(parent) | {(1, 1)}
        for c in cells:
            self.children[c] = []
        for child, par in parent.items():
            self.children[par].append(child)
        self.kappa = sum(1 for child, par in parent.items()
                         if child[0] < par[0] or child[1] < par[1])
        self.subtree = {}
        order = self._postorder((1, 1))
        for cell in order:
            acc = [cell]
            for ch in self.children[cell]:
                acc.extend(self.subtree[ch])
            self.subtree[cell] = acc

    def _postorder(self, root):
        out, stack, seen = [], [root], set()
        while stack:
            cell = stack[-1]
            if cell in seen:
                out.append(stack.pop())
                continue
            seen.add(cell)
            stack.extend(self.children[cell])
        return out

    def edges(self):
        """(parent, child) pairs, deterministic order."""
        return sorted((par, child) for child, par in self.parent.items())


def spanning_trees(lam: ColoredPartition) -> list[LambdaTree]:
    """All spanning trees of the box-adjacency graph, rooted at (1, 1)."""
    cells = lam.cells()
    if not cells:
        return []
    if len(cells) > 14:
        raise BudgetError(f"tree enumeration limited to 14 boxes, got {len(cells)}")
    edges = _cell_edges(lam)
    need = len(cells) - 1
    trees = []
    for combo in itertools.combinations(range(len(edges)), need):
        parent_of = {c: c for c in cells}

        def find(c):
            while parent_of[c] != c:
                parent_of[c] = parent_of[parent_of[c]]
                c = parent_of[c]
            return c

        ok = True
        for ei in combo:
            a, b = edges[ei]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent_of[ra] = rb
        if not ok:
            continue
        # orient away from the root by BFS
        adj: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in cells}
        for ei in combo:
            a, b = edges[ei]
            adj[a].append(b)
            adj[b].append(a)
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        frontier = [(1, 1)]
        seen = {(1, 1)}
        while frontier:
            nxt = []
            for c in frontier:
                for nb in adj[c]:
                    if nb not in seen:
                        seen.add(nb)
                        parent[nb] = c
                        nxt.append(nb)
            frontier = nxt
        trees.append(LambdaTree(parent))
    return trees


def no_lshape_filter(tree: LambdaTree, lam: ColoredPartition) -> bool:
    """Reject trees containing a mirrored-L pair of edges inside a full
    2 x 2 square: the vertical edge of the right column together with the
    bottom horizontal edge, both meeting at the square's lower-right cell.

    For the square {(x,y),(x,y+1),(x+1,y),(x+1,y+1)} the forbidden pair is
    {(x,y+1)-(x+1,y+1)} and {(x+1,y)-(x+1,y+1)}.
    """
    edgeset = {frozenset((par, ch)) for par, ch in tree.edges()}
    for x, y in lam.cells():
        if not (lam.contains(x + 1, y) and lam.contains(x, y + 1) and lam.contains(x + 1, y + 1)):
            continue
        right_vertical = frozenset(((x, y + 1), (x + 1, y + 1)))
        bottom = frozenset(((x + 1, y), (x + 1, y + 1)))
        if right_vertical in edgeset and bottom in edgeset:
            return False
    return True


def all_trees_filter(tree: LambdaTree, lam: ColoredPartition) -> bool:
    return True


#: pluggable tree-set predicate used by the envelope formulas
TREE_FILTER = no_lshape_filter


def lambda_trees(lam: ColoredPartition, tree_filter=None) -> list[LambdaTree]:
    """Admissible rooted trees of a partition under the active filter."""
    pred = tree_filter if tree_filter is not None else TREE_FILTER
    return [t for t in spanning_trees(lam) if pred(t, lam)]
