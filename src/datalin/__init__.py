"""datalin: solvability of linear equations over unordered-data vectors.

Decides whether a target data vector is an integer (Z) or nonnegative
integer (N) combination of renamed copies of generator data vectors, with
constructive witnesses and brute-force cross-checking oracles.
"""

from .core import (
    Atom,
    CapExceeded,
    DataVector,
    FreshAtoms,
    Hypergraph,
    Instance,
    ShapeError,
    dv_add,
    dv_combine,
    dv_permute,
    dv_scale,
    dv_sub,
    encode_hypergraph,
    weight,
)
from .intlin import (
    IntMatrix,
    cone_member,
    cone_member_certificate,
    pottier_base_bound,
    rank,
    rank_full,
    z_solve_system,
)
from .zsolve import LocalFailure, LocalReport, local_check, z_solvable
from .calculus import (
    ReductionMatrix,
    SimpleSpec,
    construct_simple,
    cut,
    express_via_simple,
    is_m_isolated,
    kneser_full_rank,
    proportionality_check,
    reduction_matrix,
    verify_simple,
)
from .witness import (
    Witness,
    WitnessTerm,
    evaluate_witness,
    extract_witness_general,
    extract_witness_k2,
    make_witness,
    verify_witness,
)
from .oracle import OracleConfig, OracleGuardError, brute_force, brute_reversible
from .nsolve import (
    NBoundData,
    NDecision,
    ReversibilityPartition,
    data_projection,
    n_solvable,
    nonreversible_bound,
    reversible_partition,
)

__version__ = "0.1.0"
