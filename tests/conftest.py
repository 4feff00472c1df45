"""Shared corpus builders and helpers."""

import copy
import random

from decompwidth import (
    FieldSpec,
    MatroidInstance,
    RootedBranchTree,
    construct,
    exact_branch_decomposition,
    incidence_matrix,
    root_tree,
)
from decompwidth.kdecomp import Inner, KDecomposition, Leaf

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
