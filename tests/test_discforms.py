import random

import pytest
from fractions import Fraction as Q

from latglue.discforms import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    IsotropicSubgroup,
    bare_group,
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
    pullback_form,
    solve_psi_bar,
    span_elements,
    with_generators,
)
from latglue.exact import identity
from latglue.lattices import IntegerLattice, LatticeError

from oracles import (
    add,
    all_elements,
    apply_map,
    b,
    element_order,
    form_error_by_fractions,
    isometry_between,
    rational_lifts,
    rational_pairings,
)

S_GRAM = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
F_LIFTS = (
    (Q(2, 3), Q(-1, 3), Q(-1, 3)),
    (Q(-2, 3), Q(1), Q(0)),
    (Q(2, 9), Q(-1, 9), Q(-1, 6)),
)


@pytest.fixture(scope="module")
def invariant():
    return IntegerLattice(S_GRAM)


@pytest.fixture(scope="module")
def disc(invariant):
    return discriminant_group(invariant)


@pytest.fixture(scope="module")
def pinned(disc):
    return with_generators(disc, F_LIFTS)


# glue of T = T_X + L for the L = e-f case, on the basis (e+f, h, e-f)
T_EF_GRAM = ((18, 0, 0), (0, 6, 0), (0, 0, 6))


def test_group_order_matches_determinant(disc):
    assert disc.order() == 162
    assert disc.orders == (3, 3, 18)


def test_rank_one_example():
    group = discriminant_group(IntegerLattice(((2,),)))
    assert group.orders == (2,)
    assert rational_lifts(group) == ((Q(1, 2),),)
    assert group.q((1,)) == Q(1, 2)
    assert b(group, (1,), (1,)) == Q(1, 2)


def test_odd_lattice_rejected():
    with pytest.raises(LatticeError):
        discriminant_group(IntegerLattice(((3,),)))


def test_pinned_generators(pinned):
    assert pinned.orders == (3, 3, 18)
    f1, f2, f3 = identity(3)
    assert pinned.q(f1) == Q(2, 3)
    assert pinned.q(f2) == Q(2, 3)
    assert pinned.q(f3) == Q(7, 18)
    assert b(pinned, f1, f2) == 0
    assert b(pinned, f1, f3) == 0
    assert b(pinned, f2, f3) == Q(1, 3)


def test_q_of_zero_is_zero(pinned):
    assert pinned.q((0, 0, 0)) == 0
    assert b(pinned, (0, 0, 0), (0, 0, 1)) == 0


def test_q_b_compatibility(pinned):
    elems = all_elements(pinned)
    rng = random.Random(31)
    for _ in range(400):
        x, y = rng.choice(elems), rng.choice(elems)
        lhs = (pinned.q(add(pinned, x, y)) - pinned.q(x) - pinned.q(y)) % 2
        assert lhs == (2 * b(pinned, x, y)) % 2


def test_forms_reject_elements_of_another_group():
    """An element of a group with another generator count is refused by its length."""
    group = discriminant_group(IntegerLattice(((2, 1), (1, 2))))
    stranger = discriminant_group(IntegerLattice(((2, 0), (0, 6)))).element((1, 1))
    with pytest.raises(GlueError, match="coefficient length 2 does not match 1 generators"):
        group.q(stranger)


def test_element_rejects_non_integral_coefficients():
    group = discriminant_group(IntegerLattice(((8,),)))
    for bad in (Q(1, 2), 2.7):
        with pytest.raises(GlueError, match="coefficients must be integers"):
            group.element((bad,))
    assert group.element((Q(3, 1),)) == (3,) and type(group.element((Q(3, 1),))[0]) is int


def test_form_checks_match_the_fraction_checks():
    """The integer checks raise the message the Fraction checks raised, on valid and invalid data."""
    rng = random.Random(2001)
    chains = [(), (2,), (3,), (4,), (2, 2), (2, 4), (3, 9), (2, 2, 6), (1,), (0,), (3, 2), (4, 6)]
    seen = {}
    for _ in range(3000):
        orders = rng.choice(chains)
        k = len(orders) + (rng.random() < 0.05)
        e = max((*orders, 1))
        gram = [[Q(rng.randint(-2 * e, 2 * e), rng.choice((1, 2, e, 2 * e, e * e, 3 * e * e)))
                 for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.9:
            gram = [[gram[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        expected = form_error_by_fractions(orders, gram)
        seen[expected] = seen.get(expected, 0) + 1
        if expected is None:
            group = DiscriminantGroup(orders, gram)
            assert rational_pairings(group) == tuple(map(tuple, gram))
            assert group.int_gram == tuple(tuple(int(e * x) for x in row) for row in gram)
        else:
            with pytest.raises(GlueError) as raised:
                DiscriminantGroup(orders, gram)
            assert str(raised.value) == expected
    assert len(seen) == 7 and min(seen.values()) >= 20
    # quadratic fails in row 0 before bilinear in row 1: the checks keep their order
    doubly = ((Q(1, 3), 0), (0, Q(1, 27)))
    assert form_error_by_fractions((3, 9), doubly).startswith("quadratic")
    with pytest.raises(GlueError, match="quadratic"):
        DiscriminantGroup((3, 9), doubly)


def test_group_rejects_non_integer_orders_and_entries():
    half = ((Q(1, 2),),)
    for orders in ((2.5,), (Q(5, 2),)):  # 2.5 was truncated to 2
        with pytest.raises(GlueError, match="cyclic factor orders must be integers"):
            DiscriminantGroup(orders, half)
    lattice = IntegerLattice(((4, 0), (0, 2)))
    for gram, lifts in ((((0.5,),), None), (half, ((Q(1, 4), 0.5),)), (half, (("1/4", 0),))):
        with pytest.raises(GlueError, match="pairing and lift entries must be integers or Fractions"):
            DiscriminantGroup((2,), gram, lifts, lattice)
    # integral Fractions and ints are read as the integers they are
    group = DiscriminantGroup((Q(4, 2),), ((1,),))
    assert group.orders == (2,) and group.int_gram == ((2,),)
    assert group == DiscriminantGroup((2,), ((Q(2, 2),),))


def test_subgroup_rejects_generators_that_are_not_elements():
    group = discriminant_group(IntegerLattice(((8,),)))
    for generators, message in (([(Q(1, 2),)], "must be integers"),
                                ([(4,), (4, 0)], "length 2 does not match 1 generators")):
        with pytest.raises(GlueError, match=message):
            IsotropicSubgroup(group, generators)


def test_element_table_is_built_once_and_lists_every_element(disc):
    e = disc.exponent
    table = disc.element_table
    assert table == tuple((element_order(disc, x), int(disc.q(x) * e), x) for x in all_elements(disc))
    assert forms_isometric(disc, disc) is not None and disc.element_table is table


def test_map_rejects_non_integral_entries():
    z4 = bare_group((4,))
    with pytest.raises(GlueError, match="must be integers"):
        FiniteAbelianMap(z4, z4, ((Q(5, 2),),))
    # integral Fractions are reduced like ints
    assert FiniteAbelianMap(z4, z4, ((Q(10, 2),),)).matrix == ((1,),)


def test_cleared_lifts_are_the_generator_lifts_over_their_own_denominators(pinned):
    nums, dens = pinned.cleared_lifts
    assert dens == (3, 3, 18)
    assert tuple(tuple(Q(x, d) for x in num) for num, d in zip(nums, dens)) == F_LIFTS
    # the trivial group (here of U) has no generator lifts
    trivial = discriminant_group(IntegerLattice(((0, 1), (1, 0))))
    assert trivial.order() == 1
    assert trivial.cleared_lifts == ((), ())


def test_element_from_dual_vector_rejects_wrong_lengths(disc):
    with pytest.raises(GlueError, match="length 5 does not match rank 3"):
        disc.element_from_dual_vector((Q(1, 3), 0, 0, 0, 0))
    with pytest.raises(GlueError, match="length 2 does not match rank 3"):
        disc.element_from_dual_vector((Q(1, 3), 0))
    with pytest.raises(GlueError, match="not in the dual lattice"):
        disc.element_from_dual_vector((Q(1, 5), 0, 0))
    # coefficients on Z3 x Z3 x Z18 are neither truncated nor padded
    assert disc.orders == (3, 3, 18)
    for coeffs in ((1,), (1, 0, 0, 5), ()):
        with pytest.raises(GlueError, match=f"length {len(coeffs)} does not match 3 generators"):
            disc.element(coeffs)


def test_class_lookup_needs_the_quotient_map(disc):
    # the same group data without ``classes`` cannot look up classes
    lifts = rational_lifts(disc)
    bare = type(disc)(disc.orders, rational_pairings(disc), lifts, disc.source)
    assert bare == disc
    with pytest.raises(GlueError):
        bare.element_from_dual_vector(lifts[0])
    with pytest.raises(GlueError):
        induced_map(identity(3), bare)


def test_existence_walkthrough_dual_classes():
    """The printed generating classes of A_T exist and generate it."""
    group = discriminant_group(IntegerLattice(T_EF_GRAM))
    assert group.order() == 648
    # (e+f)/18, f/3 = (e+f)/6 - (e-f)/6, h/6, in (e+f, h, e-f)-coordinates
    printed = [
        (Q(1, 18), 0, 0),
        (Q(1, 6), 0, Q(-1, 6)),
        (0, Q(1, 6), 0),
    ]
    elems = [group.element_from_dual_vector(v) for v in printed]
    span = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        current = frontier.pop()
        for gen in elems:
            nxt = add(group, current, gen)
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    assert len(span) == 648


def test_claimed_glue_generator_is_not_isotropic():
    """q((e+f)/2) = 1/2: the printed glue coset cannot be the glue.

    The actual order-2 glue of the L = e-f case is the class of f; the
    discrepancy with the printed claim is recorded, not normalized away.
    """
    group = discriminant_group(IntegerLattice(T_EF_GRAM))
    half_sum = group.element_from_dual_vector((Q(1, 2), 0, 0))
    assert group.q(half_sum) == Q(1, 2)
    f_class = group.element_from_dual_vector((Q(1, 2), 0, Q(-1, 2)))
    assert group.q(f_class) == 0
    assert half_sum != f_class


def test_enumerate_isotropic_order_two():
    """Exactly two isotropic order-2 subgroups; one recovers the invariant lattice."""
    group = discriminant_group(IntegerLattice(T_EF_GRAM))
    subs = enumerate_isotropic_subgroups(group, 2)
    assert len(subs) == 2
    recovered = []
    invariant = IntegerLattice(S_GRAM)
    for sub in subs:
        lattice = overlattice_from_isotropic(sub)
        assert lattice.determinant() == 162
        if isometry_between(lattice, invariant) is not None:
            recovered.append(sub)
    assert len(recovered) == 2  # both glues give isometric copies
    f_class = group.element_from_dual_vector((Q(1, 2), 0, Q(-1, 2)))
    assert any(f_class in sub.element_coeffs() for sub in subs)


def test_enumerate_isotropic_trivial_and_empty():
    group = discriminant_group(IntegerLattice(((2,),)))
    assert len(enumerate_isotropic_subgroups(group, 1)) == 1
    assert enumerate_isotropic_subgroups(group, 2) == []


def test_non_isotropic_subgroup_rejected():
    group = discriminant_group(IntegerLattice(((2,),)))
    with pytest.raises(GlueError):
        IsotropicSubgroup(group, ((1,),))


def test_subgroup_rejects_elements_of_another_group():
    """(4, 4) in Z8 x Z8 (q = 0) is refused by its length, not truncated to 4 in Z8."""
    z8 = discriminant_group(IntegerLattice(((8,),)))
    z8_z8 = discriminant_group(IntegerLattice(((8, 0), (0, 8))))
    stranger = z8_z8.element((4, 4))
    assert z8_z8.q(stranger) == 0
    with pytest.raises(GlueError, match="coefficient length 2 does not match 1 generators"):
        IsotropicSubgroup(z8, [stranger])
    assert IsotropicSubgroup(z8, [z8.element((4,))]).order() == 2


def test_coefficient_tuples_are_checked_and_reduced():
    """q, solve, span_elements and IsotropicSubgroup refuse a tuple of the wrong
    length or with a non-integral entry, and read an unreduced tuple as its reduction."""
    group = discriminant_group(IntegerLattice(T_EF_GRAM))
    assert group.orders == (6, 6, 18)
    double = FiniteAbelianMap(group, group, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    checks = (group.q, double.solve, lambda x: span_elements(group, [x]),
              lambda x: IsotropicSubgroup(group, [x]))
    for bad, message in (((0, 3), "length 2 does not match 3"),
                         ((0, 3, 9, 0), "length 4 does not match 3"),
                         ((0, Q(3, 2), 9), "must be integers"), ((0, 3, 9.5), "must be integers")):
        for check in checks:
            with pytest.raises(GlueError, match=message):
                check(bad)
    f_class = group.element_from_dual_vector((Q(1, 2), 0, Q(-1, 2)))
    assert f_class == (0, 3, 9)
    for x in (f_class, (1, 2, 3), (0, 4, 0)):
        unreduced = (x[0] - 6, x[1] + 12, Q(x[2] + 54))
        for check in checks[:3]:
            assert check(unreduced) == check(x)
    assert double.solve((1, 2, 3)) is None
    assert apply_map(double, double.solve((-6, 14, 2 - 18))) == (0, 2, 2)
    assert IsotropicSubgroup(group, [(6, -3, 27)]) == IsotropicSubgroup(group, [f_class])


def test_isotropy_is_checked_on_every_element():
    """U(2): the classes of e/2 and f/2 are isotropic, their sum is not."""
    group = discriminant_group(IntegerLattice(((0, 2), (2, 0))))
    e_half = group.element_from_dual_vector((Q(1, 2), 0))
    f_half = group.element_from_dual_vector((0, Q(1, 2)))
    assert group.q(e_half) == group.q(f_half) == 0
    assert IsotropicSubgroup(group, (e_half,)).order() == 2
    with pytest.raises(GlueError, match=r"not isotropic: q\(.*\) = 1$"):
        IsotropicSubgroup(group, (e_half, f_half))


def fake_group(lattice, lift):
    """Z/2 with q = 0 whose one generator lifts to ``lift``: inconsistent on purpose."""
    return type(discriminant_group(lattice))((2,), ((Q(0),),), ((lift,),), lattice, ((1,),))


def test_overlattice_checks_integrality_and_evenness():
    # over <4>, a lift 1/4 pairs to 1/4 with itself and a lift 1/2 to 1
    four = IntegerLattice(((4,),))
    for lift, message in ((Q(1, 4), "not integral"), (Q(1, 2), "must be even")):
        group = fake_group(four, lift)
        h = IsotropicSubgroup(group, ((1,),))
        with pytest.raises(GlueError, match=message):
            overlattice_with_basis(h)
    # H = 0 gives the source lattice itself, so an odd source is refused as well
    odd = DiscriminantGroup((2,), ((Q(0),),), ((Q(1, 2),),), IntegerLattice(((3,),)), ((1,),))
    with pytest.raises(GlueError, match="must be even"):
        overlattice_with_basis(IsotropicSubgroup(odd, ()))


def test_overlattice_trivial_glue(invariant):
    group = discriminant_group(invariant)
    trivial = IsotropicSubgroup(group, ())
    assert overlattice_from_isotropic(trivial) == invariant


def test_overlattice_determinant_law():
    group = discriminant_group(IntegerLattice(T_EF_GRAM))
    for sub in enumerate_isotropic_subgroups(group, 2):
        lattice = overlattice_from_isotropic(sub)
        assert lattice.determinant() * 2 * 2 == 648


def test_glue_subgroup_of_direct_sum(invariant):
    """S / (T_X + L) for L = e-f is generated by the class of f."""
    sub = invariant.span(((1, 1, 0), (0, 0, 1), (1, -1, 0)))
    glue = glue_subgroup(sub)
    assert glue.order() == 2
    f_class = glue.parent.element_from_dual_vector(
        sub.coordinates_of((0, 1, 0))
    )
    assert f_class in glue.element_coeffs()


def test_induced_map_identity_and_negation(pinned):
    eye = induced_map(identity(3), pinned)
    assert eye.matrix == identity(3)
    minus = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))
    neg = induced_map(minus, pinned)
    for gen in identity(3):
        assert apply_map(neg, gen) == pinned.element(tuple(-c for c in gen))


def test_induced_map_rejects_rational_isometries():
    # preserves the form of diag(2, 2) over Q but does not map Z^2 to itself
    rotation = ((Q(3, 5), Q(-4, 5)), (Q(4, 5), Q(3, 5)))
    group = discriminant_group(IntegerLattice(((2, 0), (0, 2))))
    with pytest.raises(GlueError, match="not an isometry"):
        induced_map(rotation, group)


def test_induced_map_rejects_integer_non_isometries():
    lattice = IntegerLattice(((4, 0), (0, -4)))
    group = discriminant_group(lattice)
    glue = IsotropicSubgroup(group, (group.element_from_dual_vector((Q(1, 4), Q(1, 4))),))
    for shear in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(GlueError, match="not an isometry"):
            induced_map(shear, group)
        with pytest.raises(GlueError, match="not an isometry"):
            extends_to_overlattice(shear, glue)


def test_induced_map_divides_exactly():
    """A lift that is not a dual vector leaves a remainder, which is refused."""
    eight = IntegerLattice(((8,),))
    group = fake_group(eight, Q(1, 16))
    with pytest.raises(GlueError, match="not integral"):
        induced_map(identity(1), group)
    assert induced_map(identity(1), fake_group(eight, Q(1, 2))).matrix == ((0,),)


def test_induced_map_printed_values(pinned):
    """phi for L = e-f sends f1 to 2 f1 and f2 to f2 + 12 f3."""
    phi = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
    bar = induced_map(phi, pinned)
    f1, f2, _ = identity(3)
    assert apply_map(bar, f1) == pinned.element((2, 0, 0))
    assert apply_map(bar, f2) == pinned.element((0, 1, 12))
    assert apply_map(bar, pinned.element((0, 0, 2))) == pinned.element((0, 1, 4))


def test_induced_map_preserves_forms(pinned, invariant):
    """Every isometry of the source lattice acts by a form isometry on A."""
    from latglue.isometries import orthogonal_group

    elems = all_elements(pinned)
    for g in orthogonal_group(invariant).elements:
        bar = induced_map(g.matrix, pinned)
        for x in elems[::7]:
            assert pinned.q(apply_map(bar, x)) == pinned.q(x)
        for i in range(3):
            for j in range(i, 3):
                x, y = identity(3)[i], identity(3)[j]
                assert b(pinned, apply_map(bar, x), apply_map(bar, y)) == b(pinned, x, y)


def test_with_generators_rejects_bad_sets(disc):
    # a non-generating set: twice the same order-3 class
    f1 = (Q(2, 3), Q(-1, 3), Q(-1, 3))
    with pytest.raises(GlueError, match="do not generate the group"):
        with_generators(disc, (f1, f1, (Q(2, 9), Q(-1, 9), Q(-1, 6))))
    # wrong length / not in the dual
    with pytest.raises(GlueError):
        with_generators(disc, ((Q(1, 5), 0, 0),))


def test_extends_to_overlattice_printed_case(invariant):
    """-1 on T_X and +1 on L extends across the glue for L = e-f."""
    sub = invariant.span(((1, 1, 0), (0, 0, 1), (1, -1, 0)))
    glue = glue_subgroup(sub)
    phi_t = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert extends_to_overlattice(phi_t, glue)
    assert extends_to_overlattice(identity(3), glue)


def test_extension_can_fail():
    """An isometry swapping two inequivalent glue directions does not extend."""
    # <4> + <-4>: q(1/4, 0) = 1/4 and q(0, 1/4) = -1/4, glue (1,1)/4 is isotropic
    lattice = IntegerLattice(((4, 0), (0, -4)))
    group = discriminant_group(lattice)
    diag = group.element_from_dual_vector((Q(1, 4), Q(1, 4)))
    glue = IsotropicSubgroup(group, (diag,))
    flip = ((1, 0), (0, -1))
    assert extends_to_overlattice(flip, glue) is False
    assert extends_to_overlattice(identity(2), glue) is True


def test_extension_reads_the_last_search_on_its_own_lattice_object(monkeypatch):
    """Elements of the last O(L) search on the very lattice object skip the
    M^T G M == G check, with the same verdicts; anything else is checked."""
    import latglue.discforms as discforms
    import latglue.isometries as isometries

    calls = []

    def counted(lattice, matrix):
        calls.append(matrix)
        return isometries.is_isometry_matrix(lattice, matrix)

    monkeypatch.setattr(discforms, "is_isometry_matrix", counted)

    def verdicts(lattice, elements):
        subgroups = enumerate_isotropic_subgroups(discriminant_group(lattice), 2)
        return [[extends_to_overlattice(m, h) for m in elements] for h in subgroups]

    lattice = IntegerLattice(((4, 2, 0), (2, 4, 0), (0, 0, 4)))  # A_L = (2, 2, 12)
    monkeypatch.setattr(isometries, "_searched", None)
    elements = [g.matrix for g in isometries.orthogonal_group(lattice).elements]
    assert len(elements) == 24
    searched = verdicts(lattice, elements)
    assert len(searched) == 3 and [row.count(True) for row in searched] == [8, 8, 8]
    assert calls == []  # (b) every element is read off the search

    # (b) the same Gram matrix in another object gets the full check
    assert verdicts(IntegerLattice(lattice.gram), elements) == searched
    assert len(calls) == 3 * 24

    # (c) a non-isometry still raises right after the search
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    h = enumerate_isotropic_subgroups(discriminant_group(lattice), 2)[0]
    with pytest.raises(GlueError, match="not an isometry of the source lattice"):
        extends_to_overlattice(shear, h)

    # (a) the verdicts with the search forgotten are the same
    monkeypatch.setattr(isometries, "_searched", None)
    calls.clear()
    assert verdicts(lattice, elements) == searched
    assert len(calls) == 3 * 24

    # (d) a search on another lattice replaces the first one's elements
    monkeypatch.setattr(isometries, "_searched", None)
    isometries.orthogonal_group(lattice)
    isometries.orthogonal_group(IntegerLattice(((2, 1, 0), (1, 2, 0), (0, 0, 8))))
    calls.clear()
    assert verdicts(lattice, elements) == searched
    assert len(calls) == 3 * 24


def test_extension_verdicts_for_one_matrix_given_six_ways(monkeypatch):
    """The lookup path (the lattice object just searched) and the check path
    (an equal fresh object) give the same verdict or the same GlueError for a
    matrix as int tuples, lists, integral floats, Fractions, with a string
    entry and in a wrong shape; only a miss reaches the M^T G M == G check."""
    import latglue.discforms as discforms
    import latglue.isometries as isometries

    hits, checks = [], []

    def looked_up(lattice, matrix):
        kept = isometries.proven_isometry(lattice, matrix)
        hits.append(kept is not None)
        return kept

    def checked(lattice, matrix):
        checks.append(matrix)
        return isometries.is_isometry_matrix(lattice, matrix)

    monkeypatch.setattr(discforms, "proven_isometry", looked_up)
    monkeypatch.setattr(discforms, "is_isometry_matrix", checked)

    def outcomes(lattice, matrix):
        group = discriminant_group(lattice)
        h = enumerate_isotropic_subgroups(group, 2)[0]
        result = []
        for run in (lambda: extends_to_overlattice(matrix, h),
                    lambda: induced_map(matrix, group).matrix):
            try:
                result.append(run())
            except GlueError as exc:
                result.append(str(exc))
        return result

    gram = ((8, 0), (0, 8))  # A_L = (8, 8): half of O(L) fixes its order-2 isotropic subgroup
    refused = "matrix is not an isometry of the source lattice"
    monkeypatch.setattr(isometries, "_searched", None)
    searched = IntegerLattice(gram)
    elements = [g.matrix for g in isometries.orthogonal_group(searched).elements]
    verdicts = set()
    for m in elements:
        ways = {
            "tuples": m,
            "lists": [list(row) for row in m],
            "floats": tuple(tuple(float(x) for x in row) for row in m),
            "fractions": tuple(tuple(Q(x) for x in row) for row in m),
            "string": ((str(m[0][0]), m[0][1]), m[1]),
            "shape": m + ((0, 0),),
        }
        plain = outcomes(searched, m)
        verdicts.add(plain[0])
        for way, matrix in ways.items():
            hits.clear(), checks.clear()
            on_searched = outcomes(searched, matrix)
            hit = way in ("tuples", "floats", "fractions")
            assert hits == [hit, hit] and bool(checks) == (way in ("lists", "shape")), (m, way)
            hits.clear()
            assert outcomes(IntegerLattice(gram), matrix) == on_searched, (m, way)
            assert hits == [False, False], (m, way)
            assert on_searched == ([refused, refused] if way in ("string", "shape") else plain)
    assert verdicts == {True, False} and len(elements) == 8


def test_trivial_overlattice_shares_one_identity_basis_per_rank():
    for gram in (((2, 1), (1, 2)), ((4, 2), (2, 4)), S_GRAM):
        lattice = IntegerLattice(gram)
        trivial = IsotropicSubgroup(discriminant_group(lattice), ())
        over, basis = overlattice_with_basis(trivial)
        assert over is lattice and basis == identity(len(gram))
        assert all(type(x) is Q for row in basis for x in row)
        assert overlattice_with_basis(trivial)[1] is basis


def test_is_anti_isometry_pullback(pinned):
    gamma_matrix = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
    domain = pullback_form(pinned, gamma_matrix, (3, 3, 9))
    gamma = FiniteAbelianMap(domain, pinned, gamma_matrix)
    assert is_anti_isometry(gamma)


def test_is_anti_isometry_reports_non_injective():
    group = discriminant_group(IntegerLattice(((2,),)))
    doubling = FiniteAbelianMap(group, group, ((2,),))
    with pytest.raises(GlueError):
        is_anti_isometry(doubling)


def test_is_anti_isometry_trivial_domain():
    unimodular = discriminant_group(IntegerLattice(((0, 1), (1, 0))))
    assert unimodular.order() == 1
    target = discriminant_group(IntegerLattice(((2,),)))
    trivial = FiniteAbelianMap(unimodular, target, ((),))
    assert is_anti_isometry(trivial)


def test_map_well_definedness_enforced(pinned):
    # sending an order-3 generator to an order-18 element is not a map
    with pytest.raises(GlueError, match="^map is not well-defined: "
                                        "generator 0 of order 3 maps to an element of order 18$"):
        FiniteAbelianMap(pinned, pinned, ((0, 0, 0), (0, 1, 0), (1, 0, 1)))
    # the shape is checked before row i is reduced modulo codomain.orders[i]
    for matrix in (identity(3) + ((0, 0, 1),), identity(3)[:2], ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(GlueError, match="map matrix shape mismatch"):
            FiniteAbelianMap(pinned, pinned, matrix)


def test_glue_extension_check_and_solver(pinned):
    """Printed data for L = e-f: psi_bar solves the gluing equation."""
    phi = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
    phi_bar = induced_map(phi, pinned)
    gamma_matrix = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
    domain = pullback_form(pinned, gamma_matrix, (3, 3, 9))
    gamma = FiniteAbelianMap(domain, pinned, gamma_matrix)
    psi_bar = solve_psi_bar(phi_bar, gamma)
    assert psi_bar.matrix == ((1, 0, 1), (0, 2, 0), (6, 0, 2))
    assert glue_extension_check(phi_bar, psi_bar, gamma)
    eye = FiniteAbelianMap(domain, domain, identity(3))
    assert not glue_extension_check(phi_bar, eye, gamma)
    eye_s = FiniteAbelianMap(pinned, pinned, identity(3))
    assert solve_psi_bar(eye_s, gamma).matrix == identity(3)


def test_solver_rejects_images_outside_glue():
    lattice = IntegerLattice(((4, 0), (0, 12)))
    group = discriminant_group(lattice)
    # domain Z/2 glued onto the order-2 class of the first factor
    gamma_matrix = ((2,), (0,))
    domain = pullback_form(group, gamma_matrix, (2,))
    gamma = FiniteAbelianMap(domain, group, gamma_matrix)
    # g1 -> g1 + 3 g2 sends the glue class 2 g1 to 2 g1 + 6 g2, outside <2 g1>
    phi_bar = FiniteAbelianMap(group, group, ((1, 0), (3, 1)))
    with pytest.raises(GlueError):
        solve_psi_bar(phi_bar, gamma)
