"""latglue: exact integer lattices, discriminant forms, and gluing.

The library half is generic: even lattices over Z with exact arithmetic,
their discriminant quadratic forms, the overlattice/isotropic-subgroup
dictionary, isometry groups of small definite lattices, and orbit
machinery.  The driver half re-derives a specific classification of
polarized rank-3 invariant-lattice data and verifies it against the
shipped transcription of the printed tables.  A public name's module is
imported when the name is first read (PEP 562).
"""

import importlib

_HOMES = {
    "discforms": (
        "DiscriminantGroup", "FiniteAbelianMap", "GlueError", "IsotropicSubgroup",
        "discriminant_group", "enumerate_isotropic_subgroups", "extends_to_overlattice",
        "forms_isometric", "glue_extension_check", "glue_subgroup", "induced_map",
        "is_anti_isometry", "overlattice_from_isotropic", "overlattice_with_basis",
        "preserves_form", "pullback_form", "solve_psi_bar", "with_generators",
    ),
    "isometries": (
        "Isometry", "IsometryGroup", "orbit_witness", "orbits", "orthogonal_group",
        "vectors_of_norm",
    ),
    "lattices": ("IntegerLattice", "LatticeError", "Sublattice"),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name):
    for module, names in _HOMES.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
