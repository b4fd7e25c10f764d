"""Finite-dimensional complex representations of quivers.

Core pieces: quivers and representations with zero-dimensional vertices,
intertwiner-space computation by SVD nullspace, transitivity and
indecomposability tests, reflection functors at sinks and sources, scalar
criteria on one-way cycles, operator-pair models and subspace systems, and
builders for the extended Dynkin subspace families.
"""

from .errors import ParseError, PreconditionError
from .quiver import (
    Arrow,
    Quiver,
    an_quiver,
    graph_family,
    is_oriented_cycle,
    jordan_quiver,
    kronecker_quiver,
    new_quiver,
    opposite,
    vertex_kinds,
)
from .rep import (
    Decomposition,
    Hom,
    Rep,
    conjugate,
    decompose_with,
    direct_sum,
    idempotent_fault,
    identity_hom,
    is_invertible_hom,
    make_hom,
    new_rep,
    zero_rep,
)
from .hom import (
    HomBasis,
    end_basis,
    find_isomorphism,
    find_nontrivial_idempotent,
    hom_basis,
    is_indecomposable,
    is_transitive,
)
from .reflection import (
    dual,
    is_co_full_at_source,
    is_full_at_sink,
    orientation_sequence_an,
    reflect_sink,
    reflect_source,
    transport_hom,
    verify_end_isomorphism,
)
from .cyclic import (
    cn_transitive_criterion,
    cycle_quiver,
    cycle_rep,
    hf_components,
    reduce_zero_vertex,
)
from .opmodels import (
    OperatorPair,
    SequenceSpec,
    SubspaceSystem,
    commutant_basis,
    density_criterion,
    four_subspace_from_pair,
    hrr_system,
    is_strongly_irreducible,
    jordan_block,
    kron_pair_bilateral,
    kron_pair_shift_rank_one,
    log_mk,
    parse_sequence,
    phi_map,
    subspace_system_end,
    subspace_system_rep,
)
from .builders import (
    build_an_tilde_noncyclic,
    build_extended_dynkin,
    subspace_inclusion_rep,
)
from .textio import format_matrix, format_quiver, format_rep, parse_matrix, parse_quiver, parse_rep

__version__ = "0.1.0"
