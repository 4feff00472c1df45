"""Shared corpus builders and helpers."""

import copy
import importlib
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from decompwidth import (
    FieldSpec,
    MatroidInstance,
    RootedBranchTree,
    construct,
    exact_branch_decomposition,
    field_of_order,
    incidence_matrix,
    root_tree,
)
from decompwidth.gf import Subspace
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, eval_rank, fold, node_states, offsets

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C5_EDGES = [(i, (i + 1) % 5) for i in range(5)]


def u12():
    return MatroidInstance.linear(GF2, [[1, 1]])


def u23():
    return MatroidInstance.linear(GF2, [[1, 0, 1], [0, 1, 1]])


def fano():
    return MatroidInstance.linear(GF2, [[(i + 1) >> b & 1 for i in range(7)] for b in range(3)])


def single_loop():
    return MatroidInstance.linear(GF2, [[0]])


def loop_coloop():
    return MatroidInstance.linear(GF2, [[0, 1]])


def parallel_coloop():
    return MatroidInstance.linear(GF2, [[1, 1, 0], [0, 0, 1]])


def loops_and_parallels():
    # two loops, a parallel pair, one free element
    return MatroidInstance.linear(GF2, [[0, 1, 1, 0, 0], [0, 0, 0, 0, 1]])


def gf3_width3():
    """A 9-point rank-4 GF(3) matroid whose exact branch width is 3.

    Most of its columns form a cap (no three collinear), so no tree can keep
    every separation below rank 3.  Exercises the k >= 3 reporting paths.
    """
    encoded = [30, 45, 80, 29, 59, 38, 3, 54, 72]
    cols = [tuple(v // 3**i % 3 for i in range(4)) for v in encoded]
    return MatroidInstance.linear(GF3, [[c[i] for c in cols] for i in range(4)])


def mk4_linear():
    return MatroidInstance.linear(GF2, incidence_matrix(4, K4_EDGES))


def mk4_graphic():
    return MatroidInstance.graphic(4, K4_EDGES)


def c5_linear():
    return MatroidInstance.linear(GF2, incidence_matrix(5, C5_EDGES))


def c5_graphic():
    return MatroidInstance.graphic(5, C5_EDGES)


@contextmanager
def rank_calls():
    """The subsets that ``MatroidInstance.rank`` is asked for, on any
    instance, while the block runs, in a list that grows as it runs."""
    calls = []
    rank = MatroidInstance.rank

    def counted(self, subset):
        calls.append(subset)
        return rank(self, subset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MatroidInstance, "rank", counted)
        yield calls


def edge_width(m, tree, edge):
    """r(E1) + r(E2) - r(E) for the bipartition induced by removing
    ``edge``: the oracle that ``width`` is checked against."""
    side = tree.side_mask(*edge)
    full = m.full_set
    return m.rank(side) + m.rank(full & ~side) - m.rank(full)


def fraction_point_dp(dec, x, y):
    """T(x, y) by the per-color point DP in Fraction arithmetic, for x != 1
    unless r(E) = n: the oracle that ``evaluate`` is checked against.

    Each node carries, per color, the sum of (x-1)^(|Ev|-label) *
    (y-1)^(|F|-label); combining children multiplies by
    ((x-1)(y-1))^defect, and the root sum is divided by (x-1)^(n-r).
    """
    x, y = Fraction(x), Fraction(y)
    base = (x - 1) * (y - 1)

    def combine(node_id, node, table1, table2):
        merged = {}
        for g1, v1 in table1.items():
            for g2, v2 in table2.items():
                g = node.color[g1][g2]
                merged[g] = merged.get(g, 0) + v1 * v2 * base ** node.defect[g1][g2]
        return merged

    root = fold(dec, lambda node_id, node: {0: x - 1, 1: base if node.loop else Fraction(1)}, combine)
    corank = dec.n - eval_rank(dec, dec.full_set())
    return sum(root.values()) / (x - 1) ** corank


def random_gf2_instances(count=20, rows=4, cols=8, seed=20260810):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        matrix = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        out.append((f"rand-gf2-{i}", MatroidInstance.linear(GF2, matrix)))
    return out


def random_gf3_instances(count=10, rows=3, cols=7, seed=30260810):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        matrix = [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
        out.append((f"rand-gf3-{i}", MatroidInstance.linear(GF3, matrix)))
    return out


def named_corpus():
    """(name, linear instance, independent oracle instance) triples.

    The oracle is a graphic twin where one exists, otherwise the linear
    instance itself.
    """
    triples = [
        ("u12", u12(), u12()),
        ("u23", u23(), u23()),
        ("single-loop", single_loop(), single_loop()),
        ("loop-coloop", loop_coloop(), loop_coloop()),
        ("parallel-coloop", parallel_coloop(), parallel_coloop()),
        ("loops-parallels", loops_and_parallels(), loops_and_parallels()),
        ("fano", fano(), fano()),
        ("gf3-width3", gf3_width3(), gf3_width3()),
        ("mk4", mk4_linear(), mk4_graphic()),
        ("c5", c5_linear(), c5_graphic()),
    ]
    triples += [(name, m, m) for name, m in random_gf2_instances()]
    triples += [(name, m, m) for name, m in random_gf3_instances()]
    return triples


def construct_exact(m):
    """Exact-width tree, canonical rooting, constructed decomposition."""
    tree, w = exact_branch_decomposition(m)
    dec = construct(m, root_tree(tree))
    return dec, w


class NodeSubspaceData(NamedTuple):
    """Per-node geometry backing the color tables."""

    boundary: Subspace
    color_spaces: list[Subspace]  # index = color; [0] is the trivial space


def construct_with_data(m, tree):
    """``construct(m, tree)`` as its row-tuple frames build it (over GF(2)
    and GF(3) ``construct`` takes row windows, whose tables are the same),
    and every node's boundary and color spaces, lifted from its separator
    rows into GF(q)^d as checked subspaces."""
    # the package's ``construct`` name is the function, not the module
    module = importlib.import_module("decompwidth.construct")
    ambient = tuple(range(m.dim))
    nodes, data = {}, {}
    for node, entry, coords, bound, color_spaces in module._tables(m, tree, module._row_field(m.field)):
        nodes[node] = entry
        lift = [Subspace(m.field, m.dim, module._moved(rows, coords, ambient)) for rows in (bound, *color_spaces)]
        data[node] = NodeSubspaceData(lift[0], lift[1:])
    return KDecomposition(tree.n, nodes, tree.root), data


def label_mismatch(dec, m):
    """First (subset, node) where the node's label is not the oracle rank of
    the subset's part under it, or None when every label is.

    Labels that are subtree ranks make same-colored subsets interchangeable:
    above a node v, states depend on X inside E_v only through its color
    there, and labels add up the tree, so for F outside E_v the root label
    r(X | F) is label_v(X) + h(color_v(X), F).  One color at v therefore
    means one r(X | F) - r(X) for every F.
    """
    masks = {v: dec.subtree_elements(v) for v in dec.nodes}
    for subset in range(1 << m.n):
        for node_id, (_, label) in node_states(dec, subset).items():
            if label != m.rank(subset & masks[node_id]):
                return subset, node_id
    return None


def singleton_ranks_by_offsets(dec):
    """r({e}) for every element e, read as ``verify`` reads it: e's leaf at
    color 1 with its own label, plus that color's offset over the empty set."""
    off = offsets(dec, {})
    ranks = [0] * dec.n
    for v, node in dec.nodes.items():
        if isinstance(node, Leaf):
            ranks[node.element] = (0 if node.loop else 1) + off[v][1]
    return ranks


def subtree_elements_by_walk(dec, node_id):
    """Elements of the leaves under ``node_id``, by a walk of its own."""
    mask, stack = 0, [node_id]
    while stack:
        node = dec.nodes[stack.pop()]
        if isinstance(node, Leaf):
            mask |= 1 << node.element
        else:
            stack.extend(node.children)
    return mask


def mutate_tables(dec, rng):
    """Copy of ``dec`` with one or two random color or defect entries redrawn."""
    out = copy.deepcopy(dec)
    inner_ids = [i for i, node in out.nodes.items() if isinstance(node, Inner)]
    for _ in range(rng.randrange(1, 3)):
        # the (0, 0) entry is pinned by the decomposition definition; touching
        # it is a structural defect, not a table mutation
        while True:
            node = out.nodes[rng.choice(inner_ids)]
            g1 = rng.randrange(len(node.color))
            g2 = rng.randrange(len(node.color[0]))
            if (g1, g2) != (0, 0):
                break
        if rng.random() < 0.5:
            node.color[g1][g2] = rng.randrange(node.palette)
        else:
            node.defect[g1][g2] = rng.randrange(0, 3)
    return out


def left_deep_rooted_tree(n):
    """Rooted caterpillar: node n+i pairs leaf i with the rest."""
    if n == 1:
        return RootedBranchTree(1, {}, 0)
    children = {n + i: (i, (n + i + 1) if i < n - 2 else n - 1) for i in range(n - 1)}
    return RootedBranchTree(n, children, n)


def balanced_rooted_tree(n):
    """Rooted tree that halves 0..n-1 recursively; leaves in index order."""
    if n == 1:
        return RootedBranchTree(1, {}, 0)
    children = {}

    def build(lo, hi):
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        pair = (build(lo, mid), build(mid, hi))
        node = n + len(children)
        children[node] = pair
        return node

    return RootedBranchTree(n, children, build(0, n))


def path_matroid(n):
    """Graphic matroid of the n-edge path, via its GF(2) incidence columns."""
    return MatroidInstance.linear(GF2, incidence_matrix(n + 1, [(i, i + 1) for i in range(n)]))


def path_caterpillar_decomposition(n):
    """Decomposition of the n-edge path matroid over a left-deep caterpillar.

    Matches construct(path_matroid(n), left_deep_rooted_tree(n)) exactly:
    every boundary is trivial, so all inner palettes are {0} and all table
    entries are zero.  Built directly so that scaling fixtures do not pay
    for subspace arithmetic in ambient dimension n.
    """
    nodes = {e: Leaf(e, False) for e in range(n)}
    if n == 1:
        return KDecomposition(1, nodes, 0)
    for i in range(n - 1):
        right = n + i + 1 if i < n - 2 else n - 1
        rp = 2 if right < n else 1
        nodes[n + i] = Inner((i, right), 1, [[0] * rp, [0] * rp], [[0] * rp, [0] * rp])
    return KDecomposition(n, nodes, n)


def enumerate_subspaces(space: Subspace) -> list[Subspace]:
    """All subspaces of ``space``, canonical and deduplicated.

    Ordered by dimension, then lexicographically on the canonical basis.
    Guarded to dim <= 6; the count is the Galois number G_q(dim).
    """
    s = space.dim
    if s > 6:
        raise ValueError(f"subspace enumeration limited to dim <= 6, got {s}")
    f = space.field
    out = [Subspace.zero(f, space.d)]
    for t in range(1, s + 1):
        found = []
        for piv_cols in combinations(range(s), t):
            free_pos = [
                (i, j)
                for i in range(t)
                for j in range(s)
                if j > piv_cols[i] and j not in piv_cols
            ]
            for vals in product(f.elements(), repeat=len(free_pos)):
                coeff = [[0] * s for _ in range(t)]
                for i, c in enumerate(piv_cols):
                    coeff[i][c] = 1
                for (i, j), v in zip(free_pos, vals):
                    coeff[i][j] = v
                rows = []
                for crow in coeff:
                    vec = [0] * space.d
                    for c, brow in zip(crow, space.rows):
                        if c:
                            for k, x in enumerate(brow):
                                if x:
                                    vec[k] = f.add(vec[k], f.mul(c, x))
                    rows.append(tuple(vec))
                # RREF coefficients times an RREF basis stay in RREF.
                found.append(Subspace(f, space.d, tuple(rows)))
        found.sort(key=lambda u: u.rows)
        out.extend(found)
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def galois_number(n: int, q: int) -> int:
    """Total number of subspaces of GF(q)^n."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


# every row-kernel family: odd prime fields, characteristic 2 up to the
# table limit, and method calls for odd extension fields and for
# characteristic 2 above the limit
KERNEL_FIELDS = [2, 3, 7, 2**31 - 1, 4, 8, 256, 9, 3**7, 2**10]


@st.composite
def dependent_rows(draw, max_count=7):
    """A field, a dimension d and at most ``max_count`` rows that are
    combinations of a few drawn rows, so that large fields see dependent
    rows too."""
    f = field_of_order(draw(st.sampled_from(KERNEL_FIELDS)))
    d = draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=f.q - 1))
    base = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=4))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_count))):
        coeffs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
        row = [0] * d
        for c, b in zip(coeffs, base):
            row = [f.add(x, f.mul(c, y)) for x, y in zip(row, b)]
        rows.append(tuple(row))
    return f, d, rows


@st.composite
def small_instances(draw):
    """An instance of any backend on at most 7 elements.  A linear one
    takes its columns from ``dependent_rows``, so zero columns, d = 0 and
    n in {0, 1} all occur; an explicit one is the table of such a linear
    instance."""
    kind = draw(st.sampled_from(["linear", "linear", "graphic", "uniform", "explicit"]))
    if kind == "graphic":
        v = draw(st.integers(min_value=1, max_value=5))
        vertex = st.integers(min_value=0, max_value=v - 1)
        return MatroidInstance.graphic(v, draw(st.lists(st.tuples(vertex, vertex), max_size=7)))
    if kind == "uniform":
        n = draw(st.integers(min_value=0, max_value=7))
        return MatroidInstance.uniform(draw(st.integers(min_value=0, max_value=n)), n)
    f, d, columns = draw(dependent_rows())
    m = MatroidInstance.linear(f, [[col[i] for col in columns] for i in range(d)])
    if kind == "explicit":
        return MatroidInstance.explicit([m.rank(s) for s in range(1 << m.n)])
    return m


@st.composite
def structure_valid_decompositions(draw, max_n=6, max_palette=3, max_defect=2):
    """Random decompositions that pass ``validate_structure`` and need not
    define a matroid: any tree shape over n <= ``max_n`` leaves in any
    element order, about one loop flag in five, and random palettes and
    tables with the (0, 0) entry pinned to color 0, defect 0."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations(range(n)))
    loop = st.sampled_from([False, False, False, False, True])
    nodes = {i: Leaf(e, draw(loop)) for i, e in enumerate(order)}
    palettes = [2] * n
    pool = list(range(n))
    while len(pool) > 1:
        i = draw(st.integers(min_value=0, max_value=len(pool) - 2))
        left, right = pool[i], pool[i + 1]
        palette = draw(st.integers(min_value=1, max_value=max_palette))
        cells = palettes[left] * palettes[right]
        colors = draw(st.lists(st.integers(0, palette - 1), min_size=cells, max_size=cells))
        defects = draw(st.lists(st.integers(0, max_defect), min_size=cells, max_size=cells))
        colors[0] = defects[0] = 0
        rows = range(0, cells, palettes[right])
        color = [colors[r : r + palettes[right]] for r in rows]
        defect = [defects[r : r + palettes[right]] for r in rows]
        pool[i : i + 2] = [len(nodes)]
        nodes[len(nodes)] = Inner((left, right), palette, color, defect)
        palettes.append(palette)
    return KDecomposition(n, nodes, pool[0])
