"""Decide whether a decomposition defines a matroid.

An integer-valued set function is a matroid rank function exactly when it is
zero on the empty set, monotone, submodular, and at most 1 on singletons
(those four together imply the unit-increase property).  The first three
are checked here without enumerating subsets, and they imply the fourth:

* empty set: structural, the (0, 0) table entries are pinned to (0, 0);
* submodularity: in its local form, label(A+e) + label(A+f) >=
  label(A+e+f) + label(A) for every A and every pair e != f outside A, in
  one bottom-up fold whose state at a node depends on how many of e and f
  lie in its subtree (N, P and Q below);
* monotonicity: a submodular r has diminishing returns, r(A+e) - r(A) >=
  r(E) - r(E-e) for e outside A, so it is monotone exactly when r(E-e) <=
  r(E) for every element e; all n of those ranks come from one linear pass;
* singletons: over {e} the nodes off e's path are at (0, 0) and defects are
  >= 0, so r({e}) <= its leaf's label <= 1; r monotone gives r({e}) >= 0.

Unreachable color combinations are simply absent from the sparse DP tables
(an absent entry behaves as +infinity: adding anything keeps it absent).
The DP keeps one backpointer per entry, so a negative root entry is unfolded
into A, e and f, and the witness sets A+e and A+f, before the tables are
dropped.

A loop flag that disagrees with the decomposition's own singleton ranks does
not stop the function from being a matroid rank function, so it is reported
on the result instead of flipping the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kdecomp import (
    ElementSet,
    KDecomposition,
    Leaf,
    fold,
    node_states,
    offsets,
    validate_structure,
)

Quad = tuple[int, int, int, int]

# Fold state kinds.  With A fixed and e, f pinned outside A, a subtree holding
# neither pinned element is summarized by one color (N), one holding a pinned
# element x by the colors of A' and A'+x (P), and one holding both by the
# quadruple of colors of A', A'+e, A'+f, A'+e+f (Q), A' being A cut down to
# the subtree.  Only Q carries a value: for N and P the four restricted sets
# coincide in pairs, so their signed label sum is 0.
N, P, Q = 0, 1, 2

# A leaf is colored 0 or 1 when its element is not pinned (in A or not), and
# carries A' = {} and A'+x = {x} when it is.
_LEAF_STATE = ({0: None, 1: None}, {(0, 1): None}, {})


@dataclass
class VerifyResult:
    is_matroid: bool
    reason: str | None = None  # "structure" | "empty-set" | "submodularity" | "monotonicity"
    detail: str | None = None
    loop_flag_mismatches: tuple[int, ...] = ()
    _witness: tuple[ElementSet, ElementSet] | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.is_matroid


def _least_candidate(defect, n1, q1, n2, q2, p1, p2) -> tuple[dict, dict]:
    """Q table and pointers of a palette-1 node.

    Every Q key there is (0, 0, 0, 0), so the node keeps only the least
    value and the first pointer reaching it.  Candidates come one row at a
    time in the order ``_candidate_table`` offers them, so a row's first least
    value replaces the running minimum only when strictly lower.
    """
    best, pointer = None, None
    n2_keys = list(n2)
    for quad, v in q1.items():
        g0, g1, g2, g3 = quad
        d0, d1, d2, d3 = defect[g0], defect[g1], defect[g2], defect[g3]
        values = [v - d1[b] - d2[b] + d3[b] + d0[b] for b in n2_keys]
        low = min(values)
        if best is None or low < best:
            best, pointer = low, (Q, quad, N, n2_keys[values.index(low)])
    if q2:
        q2_items = list(q2.items())
        for b in n1:
            drop = defect[b]
            values = [
                v - drop[g1] - drop[g2] + drop[g3] + drop[g0]
                for (g0, g1, g2, g3), v in q2_items
            ]
            low = min(values)
            if best is None or low < best:
                best, pointer = low, (N, b, Q, q2_items[values.index(low)][0])
    p2_keys = list(p2)
    for e_pair in p1:
        a, ax = e_pair
        da, dx = defect[a], defect[ax]
        values = [da[b] + dx[bf] - dx[b] - da[bf] for b, bf in p2_keys]
        low = min(values)
        if best is None or low < best:
            best, pointer = low, (P, e_pair, P, p2_keys[values.index(low)])
    # p1 and p2 are never empty: a subtree can always pin one of its leaves
    return {(0, 0, 0, 0): best}, {(0, 0, 0, 0): pointer}


def _candidate_table(color, defect, n1, q1, n2, q2, p1, p2) -> tuple[dict, dict]:
    """Q table and pointers of a node of palette above 1.

    A candidate is stored when its key is new or its value strictly lower,
    so each key keeps the first pointer at its least value.  The key's
    middle pair is sorted: swapping e and f gives the same key.
    """
    qset: dict[Quad, int] = {}
    pointers: dict[Quad, tuple] = {}
    for quad, v in q1.items():
        g0, g1, g2, g3 = quad
        r0, r1, r2, r3 = color[g0], color[g1], color[g2], color[g3]
        d0, d1, d2, d3 = defect[g0], defect[g1], defect[g2], defect[g3]
        for b in n2:
            c1, c2 = r1[b], r2[b]
            key = (r0[b], c1, c2, r3[b]) if c1 <= c2 else (r0[b], c2, c1, r3[b])
            value = v - d1[b] - d2[b] + d3[b] + d0[b]
            old = qset.get(key)
            if old is None or value < old:
                qset[key] = value
                pointers[key] = (Q, quad, N, b)
    for b in n1:
        row, drop = color[b], defect[b]
        for quad, v in q2.items():
            g0, g1, g2, g3 = quad
            c1, c2 = row[g1], row[g2]
            key = (row[g0], c1, c2, row[g3]) if c1 <= c2 else (row[g0], c2, c1, row[g3])
            value = v - drop[g1] - drop[g2] + drop[g3] + drop[g0]
            old = qset.get(key)
            if old is None or value < old:
                qset[key] = value
                pointers[key] = (N, b, Q, quad)
    # e on the left, f on the right; the other way round gives the same
    # sorted keys and values
    for e_pair in p1:
        a, ax = e_pair
        ra, rx, da, dx = color[a], color[ax], defect[a], defect[ax]
        for f_pair in p2:
            b, bf = f_pair
            c1, c2 = rx[b], ra[bf]
            key = (ra[b], c1, c2, rx[bf]) if c1 <= c2 else (ra[b], c2, c1, rx[bf])
            value = da[b] + dx[bf] - dx[b] - da[bf]
            old = qset.get(key)
            if old is None or value < old:
                qset[key] = value
                pointers[key] = (P, e_pair, P, f_pair)
    return qset, pointers


def _submodularity_tables(dec: KDecomposition):
    """Root {Q key: min of label(A+e) + label(A+f) - label(A+e+f) - label(A)}
    plus per-node backpointers.

    The function is submodular exactly when every root minimum is >= 0.
    ``back[node_id]`` holds the node's N, P and Q states, each mapped to the
    pair of child states (kind, key, kind, key) it was first or best reached
    from.
    """
    back: dict[int, tuple[dict, dict, dict]] = {}

    def combine(node_id, node, left, right):
        color, defect = node.color, node.defect
        n1, p1, q1 = left
        n2, p2, q2 = right
        # N and P states keep their first pointer; a row of candidates is
        # skipped once every color (pair) of the palette has been reached
        palette = node.palette
        nset: dict[int, tuple] = {}
        for a in n1:
            if len(nset) == palette:
                break
            row = color[a]
            for b in n2:
                if row[b] not in nset:
                    nset[row[b]] = (N, a, N, b)
        pset: dict[tuple[int, int], tuple] = {}
        for pair in p1:
            if len(pset) == palette * palette:
                break
            ra, rx = color[pair[0]], color[pair[1]]
            for b in n2:
                key = (ra[b], rx[b])
                if key not in pset:
                    pset[key] = (P, pair, N, b)
        for b in n1:
            if len(pset) == palette * palette:
                break
            row = color[b]
            for pair in p2:
                key = (row[pair[0]], row[pair[1]])
                if key not in pset:
                    pset[key] = (N, b, P, pair)

        if palette == 1:
            qset, pointers = _least_candidate(defect, n1, q1, n2, q2, p1, p2)
        else:
            qset, pointers = _candidate_table(color, defect, n1, q1, n2, q2, p1, p2)
        back[node_id] = (nset, pset, pointers)
        return nset, pset, qset

    return fold(dec, lambda node_id, node: _LEAF_STATE, combine)[Q], back


def _unfold_local(dec: KDecomposition, back: dict, key: Quad) -> tuple[ElementSet, int, int]:
    """A set A and elements e, f outside it realizing root Q key ``key``."""
    a_mask = 0
    pinned: list[int] = []
    stack: list[tuple[int, int, object]] = [(dec.root, Q, key)]
    while stack:
        node_id, kind, key = stack.pop()
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            if kind == P:
                pinned.append(node.element)
            else:
                a_mask |= key << node.element
            continue
        k1, key1, k2, key2 = back[node_id][kind][key]
        stack.append((node.children[0], k1, key1))
        stack.append((node.children[1], k2, key2))
    e, f = sorted(pinned)
    return a_mask, e, f


def verify(dec: KDecomposition) -> VerifyResult:
    """Full matroid verdict for a decomposition.

    Work per inner node for submodularity is O(|Q| K + |P|^2) <= O(K^5),
    Q and P being the children's reachable color quadruples and pairs; the
    monotonicity check and the loop-flag ranks add O(nK).  The whole verdict
    is linear in n for fixed width.
    """
    defect = validate_structure(dec)
    if defect is not None:
        reason = "empty-set" if defect.kind == "empty-set convention" else "structure"
        return VerifyResult(False, reason, str(defect))

    root, back = _submodularity_tables(dec)
    worst = min(root, key=lambda key: (root[key], key), default=None)
    if worst is not None and root[worst] < 0:
        a, e, f = _unfold_local(dec, back, worst)
        return VerifyResult(
            False,
            "submodularity",
            f"rank(A+{e}) + rank(A+{f}) falls {-root[worst]} short of "
            f"rank(A+{e}+{f}) + rank(A), root colors {worst}",
            _witness=(a | 1 << e, a | 1 << f),
        )

    full = dec.full_set()
    states = node_states(dec, full)
    full_rank = states[dec.root][1]
    # r(E - e) puts e's leaf at color 0, label 0, and keeps E's other states
    off = offsets(dec, states)
    co_ranks = {node.element: off[v][0] for v, node in dec.nodes.items() if isinstance(node, Leaf)}
    e = max(range(dec.n), key=co_ranks.__getitem__)
    if co_ranks[e] > full_rank:
        return VerifyResult(
            False,
            "monotonicity",
            f"rank(E - {e}) = {co_ranks[e]} exceeds rank(E) = {full_rank}",
            _witness=(full & ~(1 << e), full),
        )

    # r({e}) puts e's leaf at color 1 and every other node at (0, 0)
    off = offsets(dec, {})
    mismatches = tuple(
        node.element
        for v, node in dec.nodes.items()
        if isinstance(node, Leaf) and node.loop != ((0 if node.loop else 1) + off[v][1] == 0)
    )
    return VerifyResult(True, loop_flag_mismatches=mismatches)


class NotAMatroidError(ValueError):
    """Raised when an operation requires a verified matroid decomposition."""

    def __init__(self, result: VerifyResult):
        super().__init__(f"decomposition does not define a matroid: {result.reason} ({result.detail})")
        self.result = result


def extract_witness(dec: KDecomposition, result: VerifyResult) -> tuple[ElementSet, ElementSet]:
    """Concrete sets (A, B) behind a submodularity or monotonicity verdict.

    Replaying eval_rank on the returned pair reproduces the violation; for
    monotonicity the pair satisfies A <= B with rank(A) > rank(B).
    """
    if result._witness is None:
        raise ValueError("witness extraction needs a submodularity or monotonicity verdict")
    return result._witness
