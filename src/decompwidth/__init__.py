"""Width-bounded matroid decompositions.

Build rank-defining tree decompositions from finite-field representations
and branch decompositions, verify that an arbitrary decomposition defines a
matroid, and compute or evaluate Tutte polynomials by dynamic programming
over the tree, with brute-force oracles for cross-checking throughout.
"""

from .branchdecomp import (
    BranchTree,
    RootedBranchTree,
    caterpillar_tree,
    exact_branch_decomposition,
    format_branch_tree,
    greedy_branch_decomposition,
    parse_branch_tree,
    root_tree,
    width,
)
from .construct import construct
from .errors import ParseError
from .gf import (
    FieldSpec,
    Subspace,
    field_of_order,
    hull,
    intersect,
    rref,
)
from .kdecomp import (
    Inner,
    KDecomposition,
    Leaf,
    StructureDefect,
    dw_width,
    eval_rank,
    node_states,
    validate_structure,
)
from .matroids import (
    MatroidInstance,
    format_matroid,
    incidence_matrix,
    parse_matroid,
    prefix_sweep,
    rank_table,
)
from .tutte import (
    TuttePolynomial,
    WhitneyTable,
    brute_whitney,
    evaluate,
    to_tutte,
    whitney_coefficients,
)
from .verify import NotAMatroidError, VerifyResult, extract_witness, verify

__version__ = "0.1.0"
