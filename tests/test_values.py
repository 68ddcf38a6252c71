"""The immutable value classes: fields are set once, equality reads the fields.

Every class refuses assignment and deletion of any attribute; the compared
classes are equal, and hash equally, exactly when their compared fields are,
and the others are equal only to themselves.
"""

import pytest

from latglue.classify import classify, order6_closure
from latglue.discforms import (
    DiscElement,
    DiscriminantGroup,
    FiniteAbelianMap,
    IsotropicSubgroup,
    discriminant_group,
    enumerate_isotropic_subgroups,
)
from latglue.exact import identity
from latglue.isometries import (
    Isometry,
    IsometryGroup,
    Orbit,
    orbits,
    orthogonal_group,
    vectors_of_norm,
)
from latglue.lattices import IntegerLattice

S_GRAM = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
SWAP = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


@pytest.fixture(scope="module")
def values():
    """One instance of each value class, by name.

    The last three are ``Row`` records of ``classify``: an order-2 case, an
    excluded candidate and an order-6 case; the names say which kind of row.
    """
    lattice = IntegerLattice(S_GRAM)
    group = discriminant_group(lattice)
    cases2, excluded = classify(2)
    cases3, _ = classify(3)
    o_l = orthogonal_group(lattice)
    return {
        "IntegerLattice": lattice,
        "Sublattice": lattice.span(((1, 0, 0),)),
        "DiscriminantGroup": group,
        "DiscElement": group.generator(0),
        "IsotropicSubgroup": enumerate_isotropic_subgroups(group, 3)[0],
        "FiniteAbelianMap": FiniteAbelianMap(group, group, identity(group.ngens)),
        "Isometry": Isometry(lattice, SWAP),
        "IsometryGroup": o_l,
        "Orbit": orbits(o_l, vectors_of_norm(lattice, 6))[0],
        "ClassificationCase": cases2[0],
        "ExcludedCandidate": excluded[0],
        "ClassificationCase(m=6)": order6_closure(cases2, cases3)[0],
    }


VALUE_NAMES = (
    "IntegerLattice", "Sublattice", "DiscriminantGroup", "DiscElement", "IsotropicSubgroup",
    "FiniteAbelianMap", "Isometry", "IsometryGroup", "Orbit", "ClassificationCase",
    "ExcludedCandidate", "ClassificationCase(m=6)",
)


@pytest.mark.parametrize("name", VALUE_NAMES)
def test_fields_cannot_be_assigned_or_deleted(values, name):
    value = values[name]
    fields = dict(vars(value))
    field = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert vars(value) == fields


def equal_pairs():
    """(a, b, c): a and b built apart from equal inputs, c differs in one field."""
    gram = ((2, 1), (1, 2))
    a2, other = IntegerLattice(gram), IntegerLattice(((2, 0), (0, 2)))
    group = discriminant_group(IntegerLattice(S_GRAM))
    again = discriminant_group(IntegerLattice(S_GRAM))
    sub, trivial = enumerate_isotropic_subgroups(group, 3)[0], IsotropicSubgroup(group, ())
    o_l = orthogonal_group(IntegerLattice(S_GRAM))
    o_l_again = IsometryGroup(
        IntegerLattice(S_GRAM),
        tuple(Isometry(IntegerLattice(S_GRAM), g.matrix) for g in o_l.elements),
    )
    return [
        (IntegerLattice(gram), a2, other),
        (group, again, discriminant_group(IntegerLattice(((6, 3), (3, 6))))),
        (DiscElement(group, (1, 2, 3)), DiscElement(again, (1, 2, 3)),
         DiscElement(group, (1, 2, 4))),
        (Isometry(IntegerLattice(S_GRAM), SWAP), Isometry(IntegerLattice(S_GRAM), SWAP),
         Isometry(IntegerLattice(S_GRAM), identity(3))),
        (Orbit((0, 1), ((0, 1), (1, 0))), Orbit((0, 1), ((0, 1), (1, 0))),
         Orbit((0, 1), ((0, 1),))),
        (sub, IsotropicSubgroup(again, [again.element(g.coeffs) for g in sub.generators]),
         trivial),
        (FiniteAbelianMap(group, group, identity(3)), FiniteAbelianMap(again, again, identity(3)),
         FiniteAbelianMap(group, group, ((1, 0, 0), (0, 1, 0), (0, 0, 5)))),
        (o_l, o_l_again, IsometryGroup(o_l.lattice, o_l.elements[:-1])),
    ]


@pytest.mark.parametrize("a, b, c", equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_inputs_give_equal_values_and_hashes(a, b, c):
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != object()


@pytest.mark.parametrize("name", ("Sublattice", "ClassificationCase", "ExcludedCandidate"))
def test_uncompared_values_are_equal_only_to_themselves(values, name):
    value = values[name]
    twin = type(value)(**vars(value))
    assert vars(twin) == vars(value)
    assert value == value and hash(value) == hash(value)
    assert value != twin and not value == twin
    assert len({value, twin, value}) == 2


def test_discriminant_group_equality_ignores_classes():
    group = discriminant_group(IntegerLattice(S_GRAM))
    rebuilt = DiscriminantGroup(group.orders, group.pair_gram, group.lifts, group.source,
                                tuple(tuple(2 * x for x in row) for row in group.classes))
    assert rebuilt.classes != group.classes
    assert rebuilt == group and hash(rebuilt) == hash(group)
    bare = DiscriminantGroup(group.orders, group.pair_gram)
    assert bare != group


def test_equal_discriminant_groups_hash_their_elements_equally():
    group = discriminant_group(IntegerLattice(S_GRAM))
    again = DiscriminantGroup(group.orders, group.pair_gram, group.lifts, group.source)
    assert again == group and hash(again) == hash(group)
    for x in group.elements():
        twin = again.element(x.coeffs)
        assert twin == x and hash(twin) == hash(x)
    assert set(group.elements()) == set(again.elements())

