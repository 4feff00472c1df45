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

Exact search is the subset DP behind the exact branch-width algorithms of
Oum and Seymour (JCTB 2006) and Hliněný and Oum (SIAM J. Comput. 2008).
For a set X of elements let g(X) be the least width of a rooted subtree
whose leaves are X, counting the edge above it:

    g({e}) = λ({e}),
    g(X) = max(λ(X), min over splits {A, X - A} of max(g(A), g(X - A))),

and the branch-width is g(E), whose edge above has λ(E) = 0.  One list
holds g over all 2^n subsets, filled in increasing order of X, so every
proper subset is final before X is read.  A split of X puts X's lowest
element in A and runs the other elements of A over the submasks of the
rest in decreasing order; the first strict minimum is kept, and the scan
stops at a split whose cost reaches λ(X), below which g(X) cannot go.
That is O(3^n) splits at worst, over one ``matroids.rank_table``, which
for a linear instance costs at most one row operation per subset and
later column.  The chosen splits, read down from E, give the tree.

The greedy fallback builds a caterpillar over an element order and works
at any size, without optimality.  Everything it needs is the closure of a
growing set P in M and in its dual M*: for e outside P,
λ(P + e) = λ(P) + [e not in cl(P)] + [e not in cl*(P)] - 1, since λ is
self-dual.  Its first phase chooses the order greedily, each step reading
cl(P) and cl*(P) off a ``matroids._GrowingSet``, which a linear instance
updates by one pivot's residue update per span.  It builds three orders:
the plain one, then one opened by the last element of the order before,
twice, after the pseudo-peripheral starts of bandwidth-reducing orderings
(George and Liu, ACM TOMS 1979): in a shuffled band, element 0 usually
sits mid-band and the last element of a greedy order near one end.  Each
order comes with λ, cl and cl* of its prefixes, recorded as it grows.  The
order of least (max, sum) of its spine λ values goes on, the earliest of
equal ones, so the plain order is kept wherever it is already best.  The
second phase hill-climbs that order by moving one element at a time,
while a move lowers (max, sum) of the spine λ values.  A round reads λ,
cl and cl* of every prefix, and of every suffix from
``matroids.prefix_sweep`` on the reversed order, and scores all n(n-1)
moves from those in O(n^2); after a move, the prefixes come from a sweep
too.  (max, sum) drops strictly, so the climb ends, and the tree's width
is read off the last sweeps.

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
from .kdecomp import StructureDefect, tree_defect, tree_postorder
from .matroids import (
    ElementSet,
    MatroidInstance,
    _GrowingSet,
    prefix_sweep,
    rank_table,
)

Edge = tuple[int, int]

# greedy orders the search scores before it climbs: the plain one, then
# twice one opened by the last element of the order before
_STARTS = 3


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
        found = tree_defect(nodes, self.root, self.children, leaves, self.n)
        if isinstance(found, StructureDefect):
            raise ValueError(str(found))

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


def width(m: MatroidInstance, tree: BranchTree) -> int:
    """Maximum edge width, asking r(E) once; 0 for trees on at most one leaf."""
    if tree.n <= 1:
        return 0
    full = m.full_set
    sides = [tree.side_mask(*e) for e in tree.edges()]
    return max(m.rank(side) + m.rank(full & ~side) for side in sides) - m.rank(full)


def exact_branch_decomposition(m: MatroidInstance) -> tuple[BranchTree, int]:
    """Minimum-width tree by the subset DP over λ of the module docstring,
    and its width g(E).  Each set keeps the first split of least cost in
    its scan order.  ``rank_table`` refuses n > 20.
    """
    n = m.n
    if n == 0:
        raise ValueError("matroid has no elements")
    rank = rank_table(m)
    if n == 1:
        return _tree_from_edges(1, []), 0
    full = (1 << n) - 1
    total = rank[full]
    g = [rank[x] + rank[full ^ x] - total for x in range(full + 1)]
    split = [0] * (full + 1)
    for x in range(3, full + 1):
        low = x & -x
        rest = x ^ low
        if not rest:
            continue
        floor, best, a = g[x], n + 1, rest
        while a:
            a = (a - 1) & rest
            side, other = g[low | a], g[rest ^ a]
            cost = side if side > other else other
            if cost < best:
                best, split[x] = cost, low | a
                if cost <= floor:
                    break
        if best > floor:
            g[x] = best
    # the chosen sides top-down from E's two; a side of several elements
    # is an inner node, numbered from n in this order
    top = split[full]
    sides, pairs = [top, full ^ top], [(top, full ^ top)]
    for x in sides:
        if x & (x - 1):
            a = split[x]
            sides += [a, x ^ a]
            pairs += [(x, a), (x, x ^ a)]
    ids = {side: n + i for i, side in enumerate(s for s in sides if s & (s - 1))}
    edges = [[ids.get(side, side.bit_length() - 1) for side in pair] for pair in pairs]
    return _tree_from_edges(n, edges), g[full]


def greedy_branch_decomposition(m: MatroidInstance) -> tuple[BranchTree, int]:
    """Caterpillar over a greedy element order, refined by single-element
    moves; width reported, not optimal.

    The first phase runs ``_greedy_order`` as is, then twice from the last
    element of the order before, and keeps the order of least (max, sum)
    of its spine λ values, the earliest of equal ones.  The second moves
    one element to another position of the order, the move that lowers
    (max, sum) of the spine λ values most, until no move lowers them; see
    ``_best_move``.  The width is read off the final sweeps: the spine
    edges split off the prefixes P_2..P_{n-2}, and the pendant edge of e
    has λ({e}) = 1 - [e a loop] - [e a coloop], a loop lying in cl({})
    and a coloop in cl*({}).
    """
    n = m.n
    if n == 0:
        raise ValueError("matroid has no elements")
    starts = [_greedy_order(m)]
    for _ in range(_STARTS - 1):
        starts.append(_greedy_order(m, starts[-1][0][-1]))
    # min keeps the first of equal scores, so the plain order wins ties
    order, prefix = min(starts, key=lambda start: _spine_score(start[1][0]))
    expected = None
    while True:
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
        prefix = prefix_sweep(m, order)
    loops, coloops = prefix[1][0], prefix[2][0]  # cl({}) and cl*({})
    pendants = [1 - (loops >> e & 1) - (coloops >> e & 1) for e in range(n)]
    return caterpillar_tree(n, order), max(pendants + lam[2 : n - 1])


def _spine_score(lam: list[int]) -> tuple[int, int]:
    """(max, sum) of λ(P_k) over the spine cuts k = 2..n-2."""
    spine = lam[2:-2]
    return max(spine, default=0), sum(spine)


def _greedy_order(
    m: MatroidInstance, first: int | None = None
) -> tuple[list[int], tuple[list[int], list[ElementSet], list[ElementSet]]]:
    """Greedy element order: each step appends the element whose extended
    prefix has the smallest separation rank, ties to the smallest id; with
    ``first``, that element opens the order and the greedy picks the rest.
    Returned with its ``_GrowingSet``'s record, which is ``prefix_sweep``
    of the order.

    With prefix P, a candidate e has λ(P + e) - λ(P) + 1 =
    [e not in cl(P)] + [e not in cl*(P)], so a step reads cl(P) and
    cl*(P) off a ``_GrowingSet`` and takes the least element of the
    first nonempty candidate set of score 0, 1 or 2.
    """
    grown = _GrowingSet(m)
    rest = m.full_set
    while rest:
        if first is not None and not grown.order:
            e = first
        else:
            cl, cocl = grown.closure, grown.coclosure
            best = next(mask for mask in (rest & cl & cocl, rest & (cl | cocl), rest) if mask)
            e = (best & -best).bit_length() - 1
        grown.add(e)
        rest ^= 1 << e
    return grown.order, grown.record


def _best_move(order: list[int], prefix, suffix):
    """λ(P_k) for k = 0..n, the order's (max, sum) of λ over the spine
    cuts 2..n-2, and (max, sum, i, j) after the move that takes order[i]
    to position j and lowers that pair the most, ties to the first (i, j);
    i = j = -1 when no move lowers it.

    ``prefix`` is ``prefix_sweep`` of the order and ``suffix`` that of the
    reversed order, re-indexed so that entry k describes S_k = E - P_k;
    λ(S_k) = λ(P_k).  Moving e = order[i] to j > i turns the cuts
    i+1..j into P_{k+1} - e, the complement of S_{k+1} + e, and moving it
    to j < i turns the cuts j+1..i into P_{k-1} + e.  For X not holding e,
    λ(X + e) = λ(X) + [e not in cl(X)] + [e not in cl*(X)] - 1.  With the
    running max and sum of λ outside the moved cuts, every one of the
    n(n-1) moves costs O(1).
    """
    (lam, p_cl, p_cocl), (_, s_cl, s_cocl) = prefix, suffix
    n = len(order)
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
                value = lam[j] + 1 - (p_cl[j] >> e & 1) - (p_cocl[j] >> e & 1)
                run_max, run_sum = max(run_max, value), run_sum + value
            key = (max(head_max[j + 1], run_max, tail_max[i]), head_sum[j + 1] + run_sum + tail_sum[i], i, j)
            if key < best:
                best = key
        run_max = run_sum = 0
        for j in range(i + 1, n):
            if lo <= j <= hi:
                value = lam[j + 1] + 1 - (s_cl[j + 1] >> e & 1) - (s_cocl[j + 1] >> e & 1)
                run_max, run_sum = max(run_max, value), run_sum + value
            key = (max(head_max[i + 1], run_max, tail_max[j]), head_sum[i + 1] + run_sum + tail_sum[j], i, j)
            if key < best:
                best = key
    return lam, score, best


def caterpillar_tree(n: int, order: list[int]) -> BranchTree:
    """Caterpillar whose spine visits the leaves in the given order."""
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    if n <= 2:
        return _tree_from_edges(n, [order] if n == 2 else [])
    spine = range(n, 2 * n - 2)
    edges = [(order[0], n), (order[n - 1], 2 * n - 3)]
    edges += [(order[i + 1], u) for i, u in enumerate(spine)]
    edges += [(u, u + 1) for u in spine[:-1]]
    return _tree_from_edges(n, edges)


def _tree_from_edges(n: int, edges) -> BranchTree:
    """The ``BranchTree`` on leaves 0..n-1 with the given (u, v) edges;
    inner nodes enter the adjacency in the order the edges name them."""
    adj: dict[int, list[int]] = {leaf: [] for leaf in range(n)}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return BranchTree(n, adj)


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
    edges = []
    for lineno, node_id, tokens in node_lines:
        if node_id < n:
            raise ParseError(lineno, f"inner node id {node_id} collides with leaf ids")
        edges += [(node_id, resolve(token, lineno)) for token in tokens]
    try:
        return _tree_from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
