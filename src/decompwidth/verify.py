"""Decide whether a decomposition defines a matroid.

An integer-valued set function is a matroid rank function exactly when it is
zero on the empty set, monotone, submodular, and at most 1 on singletons
(those four together imply the unit-increase property).  Each condition is
checked here without enumerating subsets:

* empty set: structural, the (0, 0) table entries are pinned to (0, 0);
* submodularity: a bottom-up fold over colored quadruples (gA, gB, gI, gU)
  tracking, per node, the minimum of label(A) + label(B) - label(A|B)
  - label(A&B) over set pairs realizing those four colors;
* monotonicity: a submodular r has diminishing returns, r(A+e) - r(A) >=
  r(E) - r(E-e) for e outside A, so it is monotone exactly when r(E-e) <=
  r(E) for every element e; all n of those ranks come from one linear pass;
* singletons: all n singleton ranks in one linear pass.

Unreachable color combinations are simply absent from the sparse DP tables
(an absent entry behaves as +infinity: adding anything keeps it absent).
The DP keeps one argmin backpointer per entry, so a negative root entry is
unfolded into concrete witness sets A and B before the tables are dropped.

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
    eval_rank,
    fold,
    singleton_ranks,
    validate_structure,
)

Quad = tuple[int, int, int, int]

# Single-element base cases: (A cap {e}, B cap {e}) ranges over the four
# subset pairs, giving colors (A, B, A&B, A|B) below, each with defect 0.
_LEAF_TABLE = dict.fromkeys(((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1)), 0)


@dataclass
class VerifyResult:
    is_matroid: bool
    reason: str | None = None  # "structure" | "empty-set" | "submodularity" | "monotonicity" | "singleton"
    detail: str | None = None
    loop_flag_mismatches: tuple[int, ...] = ()
    _witness: tuple[ElementSet, ElementSet] | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.is_matroid


def _submodularity_tables(dec: KDecomposition):
    """Root {quadruple: min defect} plus per-node argmin backpointers."""
    back: dict[int, dict[Quad, tuple[Quad, Quad]]] = {}

    def combine(node_id, node, table1, table2):
        color, defect = node.color, node.defect
        merged: dict[Quad, int] = {}
        pointers: dict[Quad, tuple[Quad, Quad]] = {}
        for q1, v1 in table1.items():
            for q2, v2 in table2.items():
                key = (
                    color[q1[0]][q2[0]],
                    color[q1[1]][q2[1]],
                    color[q1[2]][q2[2]],
                    color[q1[3]][q2[3]],
                )
                value = (
                    v1
                    + v2
                    - defect[q1[0]][q2[0]]
                    - defect[q1[1]][q2[1]]
                    + defect[q1[2]][q2[2]]
                    + defect[q1[3]][q2[3]]
                )
                if key not in merged or value < merged[key]:
                    merged[key] = value
                    pointers[key] = (q1, q2)
        back[node_id] = pointers
        return merged

    return fold(dec, lambda node_id, node: _LEAF_TABLE, combine), back


def _unfold_witness(dec: KDecomposition, back: dict, key: Quad) -> tuple[ElementSet, ElementSet]:
    """Sets A and B realizing quadruple ``key`` at the root, read off the backpointers."""
    a_mask = b_mask = 0
    stack: list[tuple[int, Quad]] = [(dec.root, key)]
    while stack:
        node_id, key = stack.pop()
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            a_mask |= key[0] << node.element
            b_mask |= key[1] << node.element
            continue
        k1, k2 = back[node_id][key]
        stack.append((node.children[0], k1))
        stack.append((node.children[1], k2))
    return a_mask, b_mask


def verify(dec: KDecomposition) -> VerifyResult:
    """Full matroid verdict for a decomposition.

    Work per inner node is the product of the reachable quadruple counts of
    its two children (K^8 in the worst case); the monotonicity and singleton
    checks add O(nK).  The whole verdict is linear in n for fixed width.
    """
    defect = validate_structure(dec)
    if defect is not None:
        reason = "empty-set" if defect.kind == "empty-set convention" else "structure"
        return VerifyResult(False, reason, str(defect))

    root, back = _submodularity_tables(dec)
    worst = min(root, key=lambda key: (root[key], key))
    if root[worst] < 0:
        return VerifyResult(
            False,
            "submodularity",
            f"root quadruple {worst} has defect minimum {root[worst]}",
            _witness=_unfold_witness(dec, back, worst),
        )

    full = dec.full_set()
    full_rank = eval_rank(dec, full)
    co_ranks = singleton_ranks(dec, full)
    e = max(range(dec.n), key=co_ranks.__getitem__)
    if co_ranks[e] > full_rank:
        return VerifyResult(
            False,
            "monotonicity",
            f"rank(E - {e}) = {co_ranks[e]} exceeds rank(E) = {full_rank}",
            _witness=(full & ~(1 << e), full),
        )

    ranks = singleton_ranks(dec)
    for e, r in enumerate(ranks):
        if r not in (0, 1):
            return VerifyResult(False, "singleton", f"rank of single element {e} is {r}")
    mismatches = tuple(
        node.element
        for node in dec.nodes.values()
        if isinstance(node, Leaf) and node.loop != (ranks[node.element] == 0)
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
