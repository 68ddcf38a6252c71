"""latglue: exact integer lattices, discriminant forms, and gluing.

The library half is generic: even lattices over Z with exact arithmetic,
their discriminant quadratic forms, the overlattice/isotropic-subgroup
dictionary, isometry groups of small definite lattices, and orbit
machinery.  The driver half re-derives a specific classification of
polarized rank-3 invariant-lattice data and verifies it against the
shipped transcription of the printed tables.
"""

from .discforms import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    IsotropicSubgroup,
    discriminant_group,
    enumerate_isotropic_subgroups,
    extends_to_overlattice,
    forms_isometric,
    glue_extension_check,
    glue_subgroup,
    induced_map,
    is_anti_isometry,
    overlattice_from_isotropic,
    overlattice_with_basis,
    preserves_form,
    pullback_form,
    solve_psi_bar,
    with_generators,
)
from .isometries import (
    Isometry,
    IsometryGroup,
    admits_order3,
    orbit_witness,
    orbits,
    orthogonal_group,
    vectors_of_norm,
)
from .lattices import IntegerLattice, LatticeError, Sublattice

__all__ = [
    "DiscriminantGroup",
    "FiniteAbelianMap",
    "GlueError",
    "IntegerLattice",
    "Isometry",
    "IsometryGroup",
    "IsotropicSubgroup",
    "LatticeError",
    "Sublattice",
    "admits_order3",
    "discriminant_group",
    "enumerate_isotropic_subgroups",
    "extends_to_overlattice",
    "forms_isometric",
    "glue_extension_check",
    "glue_subgroup",
    "induced_map",
    "is_anti_isometry",
    "orbit_witness",
    "orbits",
    "orthogonal_group",
    "overlattice_from_isotropic",
    "overlattice_with_basis",
    "preserves_form",
    "pullback_form",
    "solve_psi_bar",
    "vectors_of_norm",
    "with_generators",
]
