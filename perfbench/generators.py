"""Seeded instance families for the benchmark.

Each family is built in two steps:

* a corpus fixed by the family and its sizes: banded entries, the random
  low-rank columns, the column shuffles of the search instances and the
  small random matroids all come from a stream that does not depend on the
  workload seed;
* a re-presentation of that corpus drawn from the workload seed: random
  nonzero column scalars (q > 2) and, where a tree is supplied, a random
  relabelling of the elements that the tree follows.  These change the
  matrices, the files and the element ids, but not the matroid, its width
  or the work any layer has to do.  Rows keep their order: elimination
  fill-in, and with it the cost of every subspace operation, depends on
  the coordinate order.

Letting the seed draw the corpus itself makes the cost of a run depend on
the draw: palette sizes, and with them verify and Tutte times, vary by a
factor of two to sixty between seeds (see perfbench/README.md).  Every
instance records the width bound its construction plants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from decompwidth import (
    FieldSpec,
    MatroidInstance,
    RootedBranchTree,
    field_of_order,
    incidence_matrix,
)
from decompwidth.kdecomp import Inner, KDecomposition

CORPUS = "corpus"  # label of the seed-independent structure stream


@dataclass
class Instance:
    """One benchmark input: a matrix over a field plus its planted data."""

    name: str
    size_class: str  # "n", "2n" or "small": its side of the doubling pair
    field: FieldSpec
    matrix: list[list[int]]
    planted_width: int | None  # proven upper bound on the width; None if unplanted
    tree: RootedBranchTree | None  # supplied decomposition tree; None when searched
    bases: int | None = None  # number of bases, T(1, 1), where a formula gives it

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    def matroid(self) -> MatroidInstance:
        """A fresh instance, so no rank memo carries over between uses."""
        return MatroidInstance.linear(self.field, self.matrix)


def _rng(*labels) -> random.Random:
    # one stream per label tuple: adding a family or an instance never
    # shifts the draws of another
    return random.Random(":".join(str(x) for x in labels))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def caterpillar(order: list[int]) -> RootedBranchTree:
    """Left-deep rooted caterpillar: inner node n+i pairs order[i] with the
    caterpillar over order[i+1:]."""
    n = len(order)
    if n == 1:
        return RootedBranchTree(1, {}, order[0])
    children = {
        n + i: (order[i], n + i + 1 if i < n - 2 else order[n - 1]) for i in range(n - 1)
    }
    return RootedBranchTree(n, children, n)


def balanced_tree(order: list[int]) -> RootedBranchTree:
    """Rooted binary tree halving ``order`` recursively; leaves keep its order."""
    n = len(order)
    if n == 1:
        return RootedBranchTree(1, {}, order[0])
    children: dict[int, tuple[int, int]] = {}
    next_id = n

    def build(lo: int, hi: int) -> int:
        nonlocal next_id
        if hi - lo == 1:
            return order[lo]
        node = next_id
        next_id += 1
        mid = (lo + hi) // 2
        children[node] = (build(lo, mid), build(mid, hi))
        return node

    root = build(0, n)
    return RootedBranchTree(n, children, root)


# ---------------------------------------------------------------------------
# seeded re-presentation
# ---------------------------------------------------------------------------


def represent(
    field: FieldSpec, matrix: list[list[int]], seed: int, label: str, relabel: bool
) -> tuple[list[list[int]], list[int]]:
    """Seeded matroid-preserving copy of ``matrix``.

    Over fields larger than GF(2) every column is scaled by a nonzero
    scalar.  With ``relabel`` the columns are permuted.  Returns the new
    matrix and ``order``: order[j] is the new id of the corpus column j.
    """
    rng = _rng(seed, "represent", label)
    d, n = len(matrix), len(matrix[0])
    order = list(range(n))
    if relabel:
        rng.shuffle(order)
    scale = [rng.randrange(1, field.q) if field.q > 2 else 1 for _ in range(n)]
    out = [[0] * n for _ in range(d)]
    for i in range(d):
        for j in range(n):
            out[i][order[j]] = field.mul(scale[j], matrix[i][j])
    return out, order


# ---------------------------------------------------------------------------
# corpus families
# ---------------------------------------------------------------------------


def banded_matrix(q: int, n: int, band: int, index: int = 0) -> list[list[int]]:
    """GF(q) matrix whose column j is supported on rows j//2 .. j//2+band-1.

    Band entries are uniform over GF(q) with the top one nonzero, so no
    column is a loop.
    """
    rng = _rng(CORPUS, "banded", q, n, band, index)
    d = (n - 1) // 2 + band
    rows = [[0] * n for _ in range(d)]
    for j in range(n):
        top = j // 2
        rows[top][j] = rng.randrange(1, q)
        for i in range(top + 1, top + band):
            rows[i][j] = rng.randrange(q)
    return rows


def banded_width_bound(band: int) -> int:
    """Width bound of the column-order caterpillar over a banded matrix.

    The prefix 0..j and the suffix j+1.. share at most ``band`` rows of
    support, so r(E1) + r(E2) - r(E) = dim(span E1 & span E2) <= band.  For
    even j they share exactly ``band`` rows, and the bound is attained.
    """
    return band


def ladder_edges(k: int) -> list[tuple[int, int]]:
    """Edges of the 2 x k ladder in column order: rung i, then the two rails
    from column i to i+1.  Vertex (row, i) has id 2*i + row."""
    edges = []
    for i in range(k):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < k:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    return edges


# Every column-order prefix of a ladder's edges and the remaining edges are
# connected and share at most two vertices, so r(E1) + r(E2) - r(E) =
# |V1 & V2| - 1 <= 1.
LADDER_WIDTH_BOUND = 1


def ladder_spanning_trees(k: int) -> int:
    """Spanning trees of the 2 x k ladder: t_k = 4 t_{k-1} - t_{k-2},
    t_1 = 1, t_2 = 4."""
    current, following = 1, 4  # t_1, t_2
    for _ in range(k - 1):
        current, following = following, 4 * following - current
    return current


def low_rank_matrix(q: int, rank: int, n: int, index: int = 0) -> list[list[int]]:
    """Random ``rank`` x n GF(q) matrix of full row rank and no zero column."""
    rng = _rng(CORPUS, "lowrank", q, rank, n, index)
    field = FieldSpec(q)
    while True:
        cols = []
        for _ in range(n):
            col = [0] * rank
            while not any(col):
                col = [rng.randrange(q) for _ in range(rank)]
            cols.append(col)
        rows = [[c[i] for c in cols] for i in range(rank)]
        m = MatroidInstance.linear(field, rows)
        if m.rank(m.full_set) == rank:
            return rows


def shuffled_banded(q: int, n: int, band: int, index: int = 0) -> list[list[int]]:
    """Banded matrix with its columns in a random order."""
    rows = banded_matrix(q, n, band, index)
    perm = list(range(n))
    _rng(CORPUS, "shuffle", q, n, band, index).shuffle(perm)
    return [[row[p] for p in perm] for row in rows]


def random_matrix(q: int, rows: int, n: int, index: int) -> list[list[int]]:
    rng = _rng(CORPUS, "random", q, rows, n, index)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# workload instance lists
# ---------------------------------------------------------------------------


def tutte_planted(seed: int, n: int, k: int) -> list[Instance]:
    """Banded GF(2) matrices (band 5) with n and 2n columns, and 2 x k and
    2 x 2k ladders as GF(2) incidence columns; each over the caterpillar that
    follows its corpus column order."""
    gf2 = FieldSpec(2)
    out = []
    for size_class, cols, rungs in (("n", n, k), ("2n", 2 * n, 2 * k)):
        name = f"banded-gf2-b5-n{cols}"
        matrix, order = represent(gf2, banded_matrix(2, cols, 5), seed, name, relabel=True)
        out.append(Instance(name, size_class, gf2, matrix, banded_width_bound(5), caterpillar(order)))
        name = f"ladder-k{rungs}"
        edges = ladder_edges(rungs)
        corpus = [list(row) for row in incidence_matrix(2 * rungs, edges)]
        matrix, order = represent(gf2, corpus, seed, name, relabel=True)
        out.append(
            Instance(
                name, size_class, gf2, matrix, LADDER_WIDTH_BOUND, caterpillar(order),
                bases=ladder_spanning_trees(rungs),
            )
        )
    return out


def verify_cli(seed: int, n: int) -> list[Instance]:
    """Random rank-3 GF(3) matrices with n and 2n columns over balanced trees.

    The ambient space has dimension 3, so every tree has width at most 3.
    """
    gf3 = FieldSpec(3)
    out = []
    for size_class, cols in (("n", n), ("2n", 2 * n)):
        name = f"lowrank-gf3-r3-n{cols}"
        matrix, order = represent(gf3, low_rank_matrix(3, 3, cols), seed, name, relabel=True)
        out.append(Instance(name, size_class, gf3, matrix, 3, balanced_tree(order)))
    return out


def search_shuffled(seed: int, n: int, shuffles: int, smalls: int) -> list[Instance]:
    """Column-shuffled banded GF(3) matrices (band 3), ``shuffles`` each with
    n and 2n columns, plus ``smalls`` random 4 x 9 matrices alternating over
    GF(3) and GF(4).

    The seed does not relabel elements here: the greedy search breaks ties
    by element id, so a relabelling would change the tree it returns.
    """
    gf3 = FieldSpec(3)
    out = []
    for size_class, cols in (("n", n), ("2n", 2 * n)):
        for i in range(shuffles):
            name = f"shuffled-gf3-b3-n{cols}-{i}"
            matrix, _ = represent(gf3, shuffled_banded(3, cols, 3, i), seed, name, relabel=False)
            out.append(Instance(name, size_class, gf3, matrix, banded_width_bound(3), None))
    for i in range(smalls):
        q = (3, 4)[i % 2]
        field = field_of_order(q)
        name = f"random-gf{q}-n9-{i}"
        matrix, _ = represent(field, random_matrix(q, 4, 9, i), seed, name, relabel=False)
        out.append(Instance(name, "small", field, matrix, None, None))
    return out


# ---------------------------------------------------------------------------
# the one-entry defect mutation
# ---------------------------------------------------------------------------


def mutation_site(dec: KDecomposition, m: MatroidInstance, seed: int) -> int:
    """Seeded inner node v for ``raise_defect``.

    Candidates are the inner nodes whose left child is the leaf of an element
    e spanned by the elements outside v's subtree.  Raising v's (1, 0) defect
    lowers the label of exactly the sets that contain e and meet v's right
    subtree in a set of color 0.  For Z = E - sub(v), which such a set
    extends, r(Z + e) = r(Z), so the raised copy has r'(Z + e) = r(Z) - 1 <
    r'(Z): a monotonicity violation, and the copy is never a matroid.
    """
    full = m.full_set
    candidates = []
    for node_id in sorted(dec.nodes):
        node = dec.nodes[node_id]
        if not isinstance(node, Inner) or node.children[0] not in dec.nodes:
            continue
        leaf = dec.nodes[node.children[0]]
        if isinstance(leaf, Inner):
            continue
        outside = full & ~dec.subtree_elements(node_id)
        if outside and m.rank(outside | 1 << leaf.element) == m.rank(outside):
            candidates.append(node_id)
    if not candidates:
        raise ValueError("no inner node has a leaf child spanned by its outside")
    return _rng(seed, "mutation", dec.n).choice(candidates)


def raise_defect(dec: KDecomposition, node_id: int) -> KDecomposition:
    """Copy of ``dec`` with the (1, 0) defect entry of ``node_id`` raised by 1."""
    nodes = dict(dec.nodes)
    node = nodes[node_id]
    defect = [list(row) for row in node.defect]
    defect[1][0] += 1
    nodes[node_id] = Inner(node.children, node.palette, [list(r) for r in node.color], defect)
    return KDecomposition(dec.n, nodes, dec.root)
