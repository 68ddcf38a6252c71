"""The library paths leave no reference cycles: what a search builds is freed
by reference counting, so a long-lived process never waits for the cyclic
collector to drop a lattice, its O(L) or its short vectors.

Caught exceptions carry traceback cycles, so the refusal paths stay out.
"""

import gc
import types

from latglue.discforms import (
    discriminant_group,
    enumerate_isotropic_subgroups,
    extends_to_overlattice,
    forms_isometric,
    overlattice_with_basis,
)
from latglue.isometries import orthogonal_group, proven_isometry, vectors_of_norm
from latglue.lattices import IntegerLattice
from latglue.report import classify_report, lattice_info_report, orbit_report, verify_cases_report

A2 = ((2, 1), (1, 2))
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
L_INV = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
SKEWED_D4 = ((2, 3, -3, 2), (3, 6, -4, 4), (-3, -4, 6, -6), (2, 4, -6, 12))  # U^T D4 U


def from_latglue(obj) -> bool:
    """A latglue instance, or a function defined in latglue."""
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("latglue")
    return type(obj).__module__.startswith("latglue")


def library_paths():
    for gram in (A2, D4, L_INV, SKEWED_D4):
        lattice = IntegerLattice(gram)
        group = orthogonal_group(lattice)
        assert all(proven_isometry(lattice, g.matrix) is g.matrix for g in group.elements)
        lattice_info_report(IntegerLattice(gram))
        orbit_report(gram[-1][-1], IntegerLattice(gram))
        vectors_of_norm(IntegerLattice(gram), 4)
    for gram, definite in ((((4, 2, 0), (2, 4, 0), (0, 0, 8)), True), (((4, 0), (0, -4)), False)):
        lattice = IntegerLattice(gram)
        n = lattice.rank
        minus_one = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
        group = discriminant_group(lattice)
        o_l = orthogonal_group(lattice).elements if definite else ()
        for order in (1, 2, 4):
            for h in enumerate_isotropic_subgroups(group, order):
                overlattice_with_basis(h)
                assert extends_to_overlattice(minus_one, h)
                for g in o_l:
                    extends_to_overlattice(g.matrix, h)
    a2, l_inv = discriminant_group(IntegerLattice(A2)), discriminant_group(IntegerLattice(L_INV))
    assert forms_isometric(a2, discriminant_group(IntegerLattice(((2, -1), (-1, 2))))) is not None
    assert forms_isometric(l_inv, l_inv) is not None
    classify_report(6)
    verify_cases_report()


def test_library_paths_leave_no_cyclic_garbage():
    library_paths()  # fills the process caches (lru_cache) first
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        library_paths()
        gc.collect()
        leaked = [obj for obj in gc.garbage if from_latglue(obj)]
        kinds = sorted({type(obj).__qualname__ if not isinstance(obj, types.FunctionType)
                        else obj.__qualname__ for obj in leaked})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leaked, kinds
