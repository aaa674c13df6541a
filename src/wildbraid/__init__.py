"""Fission trees, local wild mapping class group decompositions, cabled braids."""

from .rootsys import (
    ArrangementType,
    CartanElement,
    RootSubsystem,
    RootSystem,
    build_root_system,
    cartan,
    levi_of_element,
    restricted_arrangement_blocks,
    subsystem,
    subsystem_from_vectors,
)
from .fission import (
    Factor,
    Filtration,
    FissionTree,
    GroupDecomposition,
    IrregularType,
    decompose,
    decomposition_from_tree,
    decomposition_via_arrangements,
    degree_profile,
    filtration,
    fission_tree,
    irregular_type,
    merge_decompositions,
)
from .braid import (
    BraidWord,
    block_braid,
    braids_equal,
    cabled_group_generators,
    direct_sum,
    gamma,
    is_pure,
    linking_matrix,
    normal_form,
    permutation,
)
from .stokes import StokesTuple, act_sigma, act_tau1, solve_relation, verify_properties

__all__ = [name for name in dir() if not name.startswith("_")]
