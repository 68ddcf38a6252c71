"""Hostile inputs at the public names: an answer or a one-line LatticeError/GlueError.

Every argument that takes a number or a sequence of numbers gets None, ints
where sequences go, strings, floats, Decimals, bools, ragged and deeply
nested rows and 5,000-digit ints, plus seeded random nestings of them.
Arguments typed as a lattice, group or subgroup object (and the elements of
an ``IsometryGroup``, which are ``Isometry`` objects) are out of scope:
they are given valid objects.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import latglue
from latglue import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    IntegerLattice,
    Isometry,
    IsotropicSubgroup,
    LatticeError,
    Sublattice,
    discriminant_group,
    enumerate_isotropic_subgroups,
    extends_to_overlattice,
    induced_map,
    orbit_witness,
    orbits,
    orthogonal_group,
    pullback_form,
    vectors_of_norm,
    with_generators,
)

A2 = IntegerLattice(((2, 1), (1, 2)))
EIGHT = IntegerLattice(((8,),))
A = discriminant_group(EIGHT)
HUGE = 10**5000


class RaisingItems:
    """Sized and indexable, but reading any item raises."""

    def __len__(self):
        return 10**7

    def __getitem__(self, index):
        raise RuntimeError("an item was read")


def _deep(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


ATOMS = [None, 0, 1, -1, 2, 5, "x", "", 2.5, 2.0, float("nan"), float("inf"), True, False,
         Decimal(2), Fraction(1, 2), Fraction(2), HUGE, -HUGE]
SHAPES = [[], [None], [5], ["x"], "ab", [[1, 2], 3], [[2, 1], [1]], [(1.0, 0)], [[True, 0], [0, 1]],
          [(1, 0), (0, 1)], [[HUGE, 0], [0, 1]], (HUGE, 0), (1, 0), [[Fraction(1, 8)]], [[1]],
          _deep(3), _deep(500), {1: 2}, {(1, 0)}]


def hostile_values(seed=41, count=60):
    """ATOMS, SHAPES and ``count`` seeded random nestings of the atoms, depth <= 3."""
    rng = random.Random(seed)

    def nest(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(ATOMS)
        return rng.choice((list, tuple))(nest(depth - 1) for _ in range(rng.randint(0, 3)))

    return ATOMS + SHAPES + [nest(3) for _ in range(count)]


# one call per argument slot: public name (or public class's method) -> f(value)
SLOTS = {
    "DiscriminantGroup": [
        lambda x: DiscriminantGroup(x, [[Fraction(1, 8)]]),
        lambda x: DiscriminantGroup([8], x),
        lambda x: DiscriminantGroup([8], [[Fraction(1, 8)]], x),
        lambda x: DiscriminantGroup([8], [[Fraction(1, 8)]], [[Fraction(1, 8)]], EIGHT, x),
    ],
    "FiniteAbelianMap": [lambda x: FiniteAbelianMap(A, A, x)],
    "IntegerLattice": [IntegerLattice],
    "Isometry": [lambda x: Isometry(A2, x)],
    "IsotropicSubgroup": [lambda x: IsotropicSubgroup(A, x), lambda x: IsotropicSubgroup(A, [x])],
    "Sublattice": [lambda x: Sublattice(A2, x), lambda x: Sublattice(A2, [x])],
    "enumerate_isotropic_subgroups": [lambda x: enumerate_isotropic_subgroups(A, x)],
    "extends_to_overlattice": [
        lambda x: extends_to_overlattice(x, enumerate_isotropic_subgroups(A, 2)[0])],
    "induced_map": [lambda x: induced_map(x, A)],
    "orbit_witness": [lambda x: orbit_witness(orthogonal_group(A2), x, (1, 0)),
                      lambda x: orbit_witness(orthogonal_group(A2), (1, 0), x)],
    "orbits": [lambda x: orbits(orthogonal_group(A2), x),
               lambda x: orbits(orthogonal_group(A2), [x])],
    "pullback_form": [lambda x: pullback_form(A, x, [8]), lambda x: pullback_form(A, [[1]], x)],
    "vectors_of_norm": [lambda x: vectors_of_norm(A2, x)],
    "with_generators": [lambda x: with_generators(A, x), lambda x: with_generators(A, [x])],
    "DiscriminantGroup.methods": [A.element, A.q, A.element_from_dual_vector,
                                  FiniteAbelianMap(A, A, [[1]]).solve],
    "IntegerLattice.methods": [IntegerLattice.from_json, A2.norm, A2.divisibility, A2.span,
                               A2.full().coordinates_of, lambda x: A2.pairing(x, (1, 0)),
                               lambda x: A2.pairing((1, 0), x)],
}
# public names whose arguments are all objects of the library (or exception classes)
OBJECT_ARGUMENTS = {
    "GlueError", "LatticeError", "IsometryGroup", "discriminant_group", "forms_isometric",
    "glue_extension_check", "glue_subgroup", "is_anti_isometry", "overlattice_from_isotropic",
    "overlattice_with_basis", "orthogonal_group", "preserves_form", "solve_psi_bar",
}


def test_every_public_name_answers_or_refuses_hostile_input():
    assert {name for name in SLOTS if "." not in name} | OBJECT_ARGUMENTS == set(latglue.__all__)
    start, calls, refused = time.perf_counter(), 0, 0
    for name, slots in SLOTS.items():
        for slot in slots:
            for value in hostile_values():
                calls += 1
                try:
                    slot(value)
                except (LatticeError, GlueError) as exc:
                    refused += 1
                    assert "\n" not in str(exc), (name, value)
                except Exception as exc:  # noqa: BLE001 - any other exception fails the test
                    pytest.fail(f"{name}({value!r:.60}) raised {type(exc).__name__}: {exc}")
    assert calls > 2000 and refused > calls // 2
    assert time.perf_counter() - start < 1  # about 0.05 s on a 2-vCPU VM


@pytest.mark.parametrize("call, error, message", [
    (lambda: A2.span(5), LatticeError, "generator must be a sequence, not int"),
    (lambda: IntegerLattice(5), LatticeError, "Gram entries must be integers"),
    (lambda: IntegerLattice([[2, 1], 5]), LatticeError, "Gram entries must be integers"),
    (lambda: IntegerLattice(None), LatticeError, "Gram entries must be integers"),
    (lambda: orbits(orthogonal_group(A2), 5), LatticeError, "vectors must be a sequence, not int"),
    (lambda: DiscriminantGroup([3], 5), GlueError,
     "pairing and lift entries must be integers or Fractions"),
    (lambda: IntegerLattice([[True]]), LatticeError, "Gram entries must be integers"),
    (lambda: vectors_of_norm(A2, True), LatticeError, "norm must be an integer"),
    (lambda: Isometry(A2, ((1.0, 0), (0, 1))), LatticeError, "matrix entries must be integers"),
    (lambda: discriminant_group(A2).q((2.0,)), GlueError, "coefficients must be integers"),
    (lambda: vectors_of_norm(A2, HUGE), LatticeError,
     "short-vector enumeration of norm more than 10^4999 may visit "),
    (lambda: A.element_from_dual_vector(5), GlueError, "vector must be a sequence, not int"),
    (lambda: discriminant_group(A2).element_from_dual_vector((1.0, 0)), GlueError,
     "vector entries must be integers or Fractions"),
    (lambda: enumerate_isotropic_subgroups(A, "x"), GlueError, "subgroup order must be an integer"),
    (lambda: enumerate_isotropic_subgroups(A, 2.0), GlueError, "subgroup order must be an integer"),
    (lambda: enumerate_isotropic_subgroups(A, True), GlueError, "subgroup order must be an integer"),
    (lambda: with_generators(A, 5), GlueError, "lifts must be a sequence, not int"),
    (lambda: IsotropicSubgroup(A, 5), GlueError, "generators must be a sequence, not int"),
    (lambda: IntegerLattice(((2, 1), (1, 4))).norm(frozenset({5, 0})), LatticeError,
     "vector must be a sequence, not frozenset"),
    (lambda: pullback_form(A, [[2]], [2]), GlueError, "map is not well-defined"),
    (lambda: pullback_form(A, [[1, 2]], [8]), GlueError, "map matrix shape mismatch"),
    (lambda: pullback_form(A, [[]], [8]), GlueError, "map matrix shape mismatch"),
    (lambda: A.q(RaisingItems()), GlueError,
     "coefficient length 10000000 does not match 1 generators"),
    (lambda: A.q(range(10**7)), GlueError,
     "coefficient length 10000000 does not match 1 generators"),
], ids=["span-int", "lattice-int", "lattice-ragged-int-row", "lattice-none", "orbits-int",
        "discriminant-group-int-pairings", "lattice-bool", "norm-bool", "isometry-float", "q-float",
        "norm-5000-digits", "dual-vector-int", "dual-vector-float", "order-str", "order-float",
        "order-bool", "with-generators-int", "isotropic-subgroup-int", "norm-frozenset",
        "pullback-ill-defined", "pullback-extra-column", "pullback-short-row",
        "q-length-before-items", "q-long-range"])
def test_named_hostile_inputs_are_refused(call, error, message):
    """The inputs that raised TypeError, ValueError or IndexError, or answered, before
    one integer rule; a set has no order, so it is not a vector.  A coefficient
    length is compared before any entry is read, so a wrong length is refused at
    once and no item's own exception escapes."""
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value).startswith(message)
