"""Branch-decomposition trees of matroids.

A branch decomposition is an unrooted tree whose leaves correspond one-to-one
to the matroid's elements and whose inner nodes all have degree three.
Removing an edge splits the leaves into (E1, E2); the width of the edge is
r(E1) + r(E2) - r(E) and the width of the tree is the maximum over its
edges.  Note the convention: this is one less than the width used by the
standard matroid texts, so e.g. the optimal trees for the Fano matroid and
for K4's cycle matroid both have width 2 here.

Leaves are the node ids 0..n-1 (leaf id = element id); inner nodes get ids
from n upward.

Exact search enumerates the (2n-5)!! leaf-labeled cubic trees by inserting
leaves in element order into every edge of every partial tree.  Partial
trees are pruned against the best width so far, which is sound because
connectivity cannot grow when elements are deleted: every bipartition of a
partial tree is induced by an edge of any completion, restricted to fewer
elements.  The first tree attaining the minimum in enumeration order is
returned.  The widths come from one ``matroids.rank_table``, which for a
linear instance costs one column reduction per subset.

The greedy fallback builds a caterpillar over an element order and works
at any size, without optimality.  Its first phase chooses the order
greedily: a step scores every remaining element from one ``closure`` of
the prefix and one ``coloops`` pass over the rest, O(n) such passes where
a rank per candidate would make O(n^2) rank queries.  Its second phase
hill-climbs the order by moving one element at a time, while a move
lowers (max, sum) of the spine λ values.  A round runs
``matroids.prefix_sweep`` on the order and on its reverse, which gives
the rank, closure and coloops of every prefix and suffix, and scores all
n(n-1) moves from those in O(n^2).  (max, sum) drops strictly, so the
climb ends, and the tree's width is read off the last sweeps.

Text format ('#' comments allowed):

    bd n=<n>
    node <id> <child-or-leaf> <child-or-leaf> [<third>]
    root <id>                                  (rooted form only)

where L<k> denotes the leaf of element k.  Unrooted files list each inner
node with its children in a traversal from the inner node adjacent to leaf 0
(that node carries three children); rooted files give every inner node two
children.  Trees on n <= 2 leaves have a forced shape and list no inner
nodes (a rooted two-leaf tree keeps its single inner node as the root).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import ParseError, integers, keyed, records
from .kdecomp import tree_defect, tree_postorder
from .matroids import ElementSet, MatroidInstance, iter_elements, prefix_sweep, rank_table

Edge = tuple[int, int]

_EXACT_LIMIT = 9


class BranchTree:
    """Unrooted cubic tree; leaves are node ids 0..n-1."""

    def __init__(self, n: int, adj: dict[int, tuple[int, ...]]):
        self.n = n
        self.adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        self._masks = self._validate()

    def _validate(self) -> dict[Edge, tuple[int, ElementSet]]:
        """Check the shape; per edge, (the endpoint away from leaf 0, its
        side's leaf mask).

        One walk from leaf 0 both checks connectivity and orients every edge.
        """
        n = self.n
        if n < 1:
            raise ValueError("branch tree needs at least one element")
        if n == 1:
            if set(self.adj) != {0} or self.adj[0]:
                raise ValueError("a 1-element branch tree is a single isolated leaf")
            return {}
        for leaf in range(n):
            if len(self.adj.get(leaf, ())) != 1:
                raise ValueError(f"leaf {leaf} must have degree 1")
        inner = [u for u in self.adj if u >= n]
        if len(inner) != max(n - 2, 0):
            raise ValueError(f"expected {max(n - 2, 0)} inner nodes, found {len(inner)}")
        for u in inner:
            if len(self.adj[u]) != 3:
                raise ValueError(f"inner node {u} must have degree 3")
        order = [(0, -1)]  # (node, the neighbor it was reached from)
        seen = {0}
        for u, _ in order:
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append((v, u))
        if len(seen) != len(self.adj):
            raise ValueError("branch tree is not connected")
        sub = {u: 1 << u if u < n else 0 for u, _ in order}
        masks: dict[Edge, tuple[int, ElementSet]] = {}
        for u, parent in reversed(order[1:]):
            sub[parent] |= sub[u]
            masks[(min(u, parent), max(u, parent))] = (u, sub[u])
        return masks

    def edges(self) -> list[Edge]:
        return sorted((u, v) for u, vs in self.adj.items() for v in vs if u < v)

    def side_mask(self, u: int, v: int) -> ElementSet:
        """Elements on v's side of the edge (u, v)."""
        entry = self._masks.get((min(u, v), max(u, v)))
        if entry is None:
            raise ValueError(f"({u}, {v}) is not a tree edge")
        away_node, away_mask = entry
        full = (1 << self.n) - 1
        return away_mask if v == away_node else full & ~away_mask

    def directed_min_leaf(self, u: int, v: int) -> int:
        """Smallest leaf on v's side of the edge (u, v)."""
        mask = self.side_mask(u, v)
        return (mask & -mask).bit_length() - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, BranchTree) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"BranchTree(n={self.n}, inner={len(self.adj) - self.n})"


@dataclass
class RootedBranchTree:
    """Rooted binary tree from subdividing one branch-tree edge.

    Leaves keep ids 0..n-1; the n-1 inner nodes (root included) each have
    exactly two children.  Construction checks the shape and raises
    ValueError on any defect ``tree_defect`` names.
    """

    n: int
    children: dict[int, tuple[int, int]]
    root: int
    _masks: dict[int, ElementSet] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = {*range(self.n), *self.children}
        leaves = [v for v in nodes if v not in self.children]
        defect = tree_defect(nodes, self.root, self.children, leaves, self.n)
        if defect is not None:
            raise ValueError(str(defect))

    def postorder(self) -> list[int]:
        return tree_postorder(self.root, self.children)

    def subtree_masks(self) -> dict[int, ElementSet]:
        if self._masks is None:
            masks: dict[int, ElementSet] = {}
            for node in self.postorder():
                kids = self.children.get(node, ())
                masks[node] = (
                    1 << node if not kids else masks[kids[0]] | masks[kids[1]]
                )
            self._masks = masks
        return self._masks


def edge_width(m: MatroidInstance, tree: BranchTree, edge: Edge) -> int:
    """r(E1) + r(E2) - r(E) for the bipartition induced by removing ``edge``."""
    side = tree.side_mask(*edge)
    full = m.full_set
    return m.rank(side) + m.rank(full & ~side) - m.rank(full)


def width(m: MatroidInstance, tree: BranchTree) -> int:
    """Maximum edge width; 0 for trees on at most one leaf."""
    if tree.n <= 1:
        return 0
    return max(edge_width(m, tree, e) for e in tree.edges())


def _tree_from_edges(n: int, edge_list: list[tuple[int, int, int]]) -> BranchTree:
    adj: dict[int, list[int]] = {}
    for u, v, _ in edge_list:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return BranchTree(n, {u: tuple(vs) for u, vs in adj.items()})


def exact_branch_decomposition(m: MatroidInstance) -> tuple[BranchTree, int]:
    """Minimum-width tree by exhaustive insertion enumeration, n <= 9.

    Ties break to the first tree in enumeration order; pruning never skips
    a tree that could beat or pre-empt the recorded one.
    """
    n = m.n
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact search limited to n <= {_EXACT_LIMIT}, got {n}")
    if n == 0:
        raise ValueError("matroid has no elements")
    rank = rank_table(m)
    if n == 1:
        return BranchTree(1, {0: ()}), 0

    def lam(mask: int, present: int) -> int:
        return rank[mask] + rank[present & ~mask] - rank[present]

    best: list = [None, n + 1]  # edges snapshot, width
    stack: list[tuple[int, list[tuple[int, int, int]]]] = [(2, [(0, 1, 0b10)])]
    # depth-first, explicit stack; children pushed in reverse keeps the
    # insertion order identical to the recursive formulation
    while stack:
        k, edges = stack.pop()
        present = (1 << k) - 1
        partial = max(lam(mask, present) for _, _, mask in edges)
        if partial >= best[1]:
            continue
        if k == n:
            best[0], best[1] = edges, partial
            continue
        bit = 1 << k
        node = n + (k - 2)
        for i in reversed(range(len(edges))):
            u, v, mask = edges[i]
            grown = [
                (a, b, mb | bit if mb & mask == mask else mb)
                for j, (a, b, mb) in enumerate(edges)
                if j != i
            ]
            grown += [(u, node, mask | bit), (node, v, mask), (node, k, bit)]
            stack.append((k + 1, grown))
    assert best[0] is not None
    return _tree_from_edges(n, best[0]), best[1]


def greedy_branch_decomposition(m: MatroidInstance) -> tuple[BranchTree, int]:
    """Caterpillar over a greedy element order, refined by single-element
    moves; width reported, not optimal.

    The first phase is ``_greedy_order``.  The second moves one element
    to another position of the order, the move that lowers (max, sum) of
    the spine λ values most, until no move lowers them; see
    ``_best_move``.  The width is read off the final sweeps: the spine
    edges split off the prefixes P_2..P_{n-2}, and the pendant edge of e
    has λ({e}) = [e not a loop] - [e a coloop of M].
    """
    n = m.n
    if n == 0:
        raise ValueError("matroid has no elements")
    order = _greedy_order(m)
    expected = None
    while True:
        prefix = prefix_sweep(m, order)
        suffix = [values[::-1] for values in prefix_sweep(m, order[::-1])]
        lam, score, best = _best_move(order, prefix, suffix)
        # the scores are exact, so (max, sum) drops strictly and the
        # climb ends; a wrong score fails here instead of cycling
        assert expected in (None, score), "move scoring disagrees with the sweep"
        i, j = best[2:]
        if i < 0:
            break
        order.insert(j, order.pop(i))
        expected = best[:2]
    loops, coloops = prefix[1][0], prefix[2][n]
    pendants = [(loops >> e & 1 ^ 1) - (coloops >> e & 1) for e in range(n)]
    return caterpillar_tree(n, order), max(pendants + lam[2 : n - 1])


def _greedy_order(m: MatroidInstance) -> list[int]:
    """Greedy element order: each step appends the element whose extended
    prefix has the smallest separation rank, ties to the smallest id.

    With prefix P and rest S = E - P, a candidate e scores
    r(P) + [e not in cl(P)] + r(S) - [e a coloop of M|S] - r(E), so a step
    costs one ``closure`` and one ``coloops``.
    """
    order: list[int] = []
    prefix, rest = 0, m.full_set
    while rest:
        raises = rest & ~m.closure(prefix)
        drops = m.coloops(rest)
        # r(P) + r(S) - r(E) is the same for every candidate
        best = min(iter_elements(rest), key=lambda e: (raises >> e & 1) - (drops >> e & 1))
        order.append(best)
        prefix |= 1 << best
        rest &= ~(1 << best)
    return order


def _best_move(order: list[int], prefix, suffix):
    """λ(P_k) for k = 0..n, the order's (max, sum) of λ over the spine
    cuts 2..n-2, and (max, sum, i, j) after the move that takes order[i]
    to position j and lowers that pair the most, ties to the first (i, j);
    i = j = -1 when no move lowers it.

    ``prefix`` is ``prefix_sweep`` of the order and ``suffix`` that of the
    reversed order, re-indexed so that entry k describes S_k = E - P_k.
    Moving e = order[i] to j > i turns the cuts i+1..j into
    P_{k+1} - e, of λ = r(P_{k+1}) - [e coloop of M|P_{k+1}]
    + r(S_{k+1}) + [e not in cl(S_{k+1})] - r(E); moving it to j < i turns
    the cuts j+1..i into P_{k-1} + e, of λ = r(P_{k-1}) + [e not in
    cl(P_{k-1})] + r(S_{k-1}) - [e coloop of M|S_{k-1}] - r(E).  With the
    running max and sum of λ outside the moved cuts, every one of the
    n(n-1) moves costs O(1).
    """
    (p_rank, p_cl, p_co), (s_rank, s_cl, s_co) = prefix, suffix
    n = len(order)
    full = p_rank[n]
    lam = [p_rank[k] + s_rank[k] - full for k in range(n + 1)]
    lo, hi = 2, n - 2  # the spine cuts
    # λ on the spine, 0 elsewhere; max and sum of it over the cuts below k
    # (head) and above k (tail)
    spine = [value if lo <= k <= hi else 0 for k, value in enumerate(lam)]
    head_max, head_sum = [0, *accumulate(spine, max)], [0, *accumulate(spine)]
    tail_max = [*accumulate(spine[:0:-1], max)][::-1] + [0]
    tail_sum = [*accumulate(spine[:0:-1])][::-1] + [0]
    score = (head_max[n], head_sum[n])
    # keys (max, sum, i, j) compare whole, so ties go to the first (i, j)
    # whatever order the moves are scored in
    best = (*score, -1, -1)
    for i, e in enumerate(order):
        run_max = run_sum = 0
        for j in range(i - 1, -1, -1):
            if lo <= j + 1 <= hi:
                value = p_rank[j] + (p_cl[j] >> e & 1 ^ 1) + s_rank[j] - (s_co[j] >> e & 1) - full
                run_max, run_sum = max(run_max, value), run_sum + value
            key = (max(head_max[j + 1], run_max, tail_max[i]), head_sum[j + 1] + run_sum + tail_sum[i], i, j)
            if key < best:
                best = key
        run_max = run_sum = 0
        for j in range(i + 1, n):
            if lo <= j <= hi:
                value = p_rank[j + 1] - (p_co[j + 1] >> e & 1) + s_rank[j + 1] + (s_cl[j + 1] >> e & 1 ^ 1) - full
                run_max, run_sum = max(run_max, value), run_sum + value
            key = (max(head_max[i + 1], run_max, tail_max[j]), head_sum[i + 1] + run_sum + tail_sum[j], i, j)
            if key < best:
                best = key
    return lam, score, best


def caterpillar_tree(n: int, order: list[int]) -> BranchTree:
    """Caterpillar whose spine visits the leaves in the given order."""
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    if n == 1:
        return BranchTree(1, {0: ()})
    if n == 2:
        return BranchTree(2, {order[0]: (order[1],), order[1]: (order[0],)})
    adj: dict[int, list[int]] = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    spine = [n + i for i in range(n - 2)]
    link(order[0], spine[0])
    link(order[1], spine[0])
    for i in range(1, n - 2):
        link(spine[i - 1], spine[i])
        link(order[i + 1], spine[i])
    link(order[n - 1], spine[-1])
    return BranchTree(n, {u: tuple(vs) for u, vs in adj.items()})


def default_root_edge(tree: BranchTree) -> Edge | None:
    """Deterministic rooting edge: smallest (min leaf, mask) of the side
    away from leaf 0.

    That side never holds leaf 0, so its minimum leaf is at least 1, and
    among the sides that hold leaf 1 the mask {1} is the smallest.  The
    minimum is therefore the pendant edge of leaf 1.
    """
    if tree.n <= 1:
        return None
    return tuple(sorted((1, tree.adj[1][0])))


def root_tree(tree: BranchTree, edge: Edge | None = None) -> RootedBranchTree:
    """Subdivide ``edge`` (default: the canonical one) and root there.

    Every node's induced leaf set is preserved, so the rooted tree has the
    same bipartitions and width as the unrooted one.  Inner nodes are
    relabeled n, n+1, ... in walk order from the root; within a node the
    child with the smaller minimum leaf goes left.
    """
    n = tree.n
    if n == 1:
        return RootedBranchTree(1, {}, 0)
    if edge is None:
        edge = default_root_edge(tree)
    u, v = edge
    if v not in tree.adj.get(u, ()):
        raise ValueError(f"({u}, {v}) is not a tree edge")

    children: dict[int, tuple[int, int]] = {}
    root = n
    next_id = n + 1
    if tree.directed_min_leaf(u, v) < tree.directed_min_leaf(v, u):
        u, v = v, u  # the side with the smaller minimum leaf goes left
    # iterative top-down relabeling; the worklist order fixes the new ids
    work: list[tuple[int, int, int]] = []  # (new id, old node, old parent)

    def allocate(old: int, old_parent: int) -> int:
        nonlocal next_id
        if old < n:
            return old
        new = next_id
        next_id += 1
        work.append((new, old, old_parent))
        return new

    children[root] = (allocate(u, v), allocate(v, u))
    cursor = 0
    while cursor < len(work):
        new_id, old, old_parent = work[cursor]
        cursor += 1
        kids = [w for w in tree.adj[old] if w != old_parent]
        kids.sort(key=lambda w: tree.directed_min_leaf(old, w))
        children[new_id] = (allocate(kids[0], old), allocate(kids[1], old))
    return RootedBranchTree(n, children, root)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _child_token(node: int, n: int) -> str:
    return f"L{node}" if node < n else str(node)


def format_branch_tree(tree: BranchTree | RootedBranchTree) -> str:
    if isinstance(tree, RootedBranchTree):
        out = [f"bd n={tree.n}"]
        for node in sorted(tree.children):
            kids = " ".join(_child_token(c, tree.n) for c in tree.children[node])
            out.append(f"node {node} {kids}")
        out.append(f"root {_child_token(tree.root, tree.n)}")
        return "\n".join(out) + "\n"
    n = tree.n
    out = [f"bd n={n}"]
    for node in sorted(u for u in tree.adj if u >= n):
        # the neighbors away from leaf 0, and leaf 0 itself when adjacent:
        # the inner node next to leaf 0 lists all three
        kids = [w for w in tree.adj[node] if w == 0 or not tree.side_mask(node, w) & 1]
        out.append(f"node {node} " + " ".join(_child_token(c, n) for c in kids))
    return "\n".join(out) + "\n"


def parse_branch_tree(text: str) -> BranchTree | RootedBranchTree:
    n = None
    node_lines: list[tuple[int, int, list[str]]] = []
    root_token = None
    for lineno, tok in records(text):
        if tok[0] == "bd":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(tok) != 2:
                raise ParseError(lineno, "header must be 'bd n=<n>'")
            n, header_line = keyed(tok[1], "n", lineno), lineno
        elif tok[0] == "node":
            if len(tok) not in (4, 5):
                raise ParseError(lineno, "node line needs an id and 2 or 3 children")
            node_id = integers(tok[1:2], lineno, "node id must be an integer")[0]
            node_lines.append((lineno, node_id, tok[2:]))
        elif tok[0] == "root":
            if len(tok) != 2:
                raise ParseError(lineno, "root line needs one token")
            root_token = (lineno, tok[1])
        else:
            raise ParseError(lineno, f"unknown record {tok[0]!r}")
    if n is None:
        raise ParseError(1, "missing 'bd' header")
    # a tree on n leaves has n - 1 (rooted) or n - 2 inner nodes; too few
    # lines are refused before anything of size n is built, while with too
    # many, n is bounded by the file and the shape checks name the defect
    inner = n - 1 if root_token is not None else n - 2
    if len(node_lines) < inner:
        raise ParseError(header_line, f"n={n} needs {inner} node lines, found {len(node_lines)}")

    def resolve(token: str, lineno: int) -> int:
        if token.startswith("L"):
            leaf = integers([token[1:]], lineno, "leaf tokens need an integer after L")[0]
            if not 0 <= leaf < n:
                raise ParseError(lineno, f"leaf {leaf} outside 0..{n - 1}")
            return leaf
        value = integers([token], lineno, "expected L<k> or an inner node id")[0]
        if value < n:
            raise ParseError(lineno, f"inner node id {value} collides with leaf ids")
        return value

    if root_token is not None:
        lineno, token = root_token
        root = resolve(token, lineno)
        children: dict[int, tuple[int, int]] = {}
        for lineno, node_id, tokens in node_lines:
            if len(tokens) != 2:
                raise ParseError(lineno, "rooted inner nodes need exactly 2 children")
            if node_id < n:
                raise ParseError(lineno, f"inner node id {node_id} collides with leaf ids")
            if node_id in children:
                raise ParseError(lineno, f"duplicate node {node_id}")
            children[node_id] = (resolve(tokens[0], lineno), resolve(tokens[1], lineno))
        try:
            return RootedBranchTree(n, children, root)
        except ValueError as exc:
            raise ParseError(1, str(exc)) from None

    if 0 < n <= 2 and not node_lines:
        # the forced shape, which the writer leaves out
        return caterpillar_tree(n, list(range(n)))
    adj: dict[int, list[int]] = {leaf: [] for leaf in range(n)}
    for lineno, node_id, tokens in node_lines:
        if node_id < n:
            raise ParseError(lineno, f"inner node id {node_id} collides with leaf ids")
        adj.setdefault(node_id, [])
        for token in tokens:
            child = resolve(token, lineno)
            adj.setdefault(child, [])
            adj[node_id].append(child)
            adj[child].append(node_id)
    try:
        return BranchTree(n, {u: tuple(vs) for u, vs in adj.items()})
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
