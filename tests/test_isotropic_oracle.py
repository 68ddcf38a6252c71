"""The integer discriminant-form core against exhaustive oracles.

``enumerate_isotropic_subgroups`` grows isotropic subgroups through
pairwise orthogonal isotropic generators; the oracle builds every subgroup
(``test_properties.all_subgroups``, joins of cyclic subgroups that use no
form data) and keeps those on which q vanishes at every element.
``preserves_form`` and ``is_anti_isometry`` check the forms on generators
only, and ``glue_extension_check`` compares two homomorphisms by their
matrices; the oracles evaluate them on every element and decide
injectivity by listing the spanned image (``injective_by_spanning``), not
by the Smith form they check.  ``FiniteAbelianMap.is_injective`` and
``solve`` read one Smith form of [M | D]; on random maps between groups of
different shapes they are checked against that listed image and against
a brute-force preimage search, and ``pullback_form`` (integer Q, e times
the pairing matrix) against minus the Gram of the ``Fraction`` lifts
(``pullback_by_fractions``).  Classes of dual vectors are read off the
Smith form (``DiscriminantGroup.classes``); the oracle solves
sum_i c_i lift_i = v modulo L as a cleared integer system.
The integer induced maps, the generator-only extension test and the
integer overlattice Gram are checked against the ``Fraction`` formulas and
the every-element test they replace.  The incremental isotropy scan is
checked against one ``bilinear`` call per element
(``isotropic_generators_by_product``), the extension test, which computes
only the induced columns H's generators use, against the whole induced
map (``extends_by_induced_map``), and the integer fields that
``discriminant_group`` fills from the Smith form against the group the
public constructor builds from its ``Fraction`` data.  ``FiniteAbelianMap``
tests well-definedness on its reduced columns; the oracle reduces each
column as an element and adds it to itself d times.  ``solve_psi_bar`` solves the
columns of one product Phi Gamma; the oracle maps one generator at a time
through ``oracles.apply_map``.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from latglue.classify import classify, gluing_map, invariant_discriminant, printed_tables
from latglue.discforms import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    IsotropicSubgroup,
    bare_group,
    discriminant_group,
    enumerate_isotropic_subgroups,
    extends_to_overlattice,
    glue_extension_check,
    glue_subgroup,
    induced_map,
    is_anti_isometry,
    overlattice_with_basis,
    preserves_form,
    pullback_form,
    solve_psi_bar,
    span_elements,
    with_generators,
)
from latglue.exact import (
    det,
    frac_inverse,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    lcm_denominator,
    mat_mul,
    mat_vec,
    solve_int,
    transpose,
)
from latglue.isometries import orthogonal_group
from latglue.lattices import IntegerLattice

from oracles import (
    add,
    all_elements,
    apply_map,
    b,
    element_order,
    extends_by_induced_map,
    isotropic_generators_by_product,
    rational_lifts,
    rational_pairings,
)
from test_properties import all_subgroups, fraction_lift

D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def block_sum(a, b):
    n, m = len(a), len(b)
    rows = [tuple(a[i]) + (0,) * m for i in range(n)]
    rows += [(0,) * n + tuple(b[i]) for i in range(m)]
    return freeze(rows)


def seeded_lattices(count=30, seed=301):
    """Even lattices with |A_L| <= 64: fixed extremes plus random ones."""
    fixed = [
        ((0, 1), (1, 0)),  # U: trivial A_L
        block_sum(D4, D4),  # (Z/2)^4, many isotropic elements
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)),  # (Z/2)^4, indefinite
        ((4, 0), (0, -4)),
        ((2, 1), (1, -4)),
        ((8, 0, 0), (0, 2, 0), (0, 0, 2)),
    ]
    lattices = [IntegerLattice(g) for g in fixed]
    rng = random.Random(seed)
    while len(lattices) < count:
        n = rng.randint(1, 3)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.choice([1, 2, 3, 4, -1, -2, -3])
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        d = det(gram)
        if d == 0 or abs(d) > 64:
            continue
        lattices.append(IntegerLattice(freeze(gram)))
    return lattices


def isotropic_by_exhaustion(group):
    """Isotropic subgroups by order: every subgroup, kept if q vanishes on all of it."""
    by_order = {}
    for subgroup in all_subgroups(group):
        if all(group.q(c) == 0 for c in subgroup):
            by_order.setdefault(len(subgroup), []).append(subgroup)
    return {n: sorted(subs, key=sorted) for n, subs in by_order.items()}


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.fixture(scope="module")
def groups():
    return [(lattice, discriminant_group(lattice)) for lattice in seeded_lattices()]


def test_isotropic_subgroups_match_exhaustive_search(groups):
    nontrivial = 0
    for _lattice, group in groups:
        assert group.order() <= 64
        expected = isotropic_by_exhaustion(group)
        for order in divisors(group.order()):
            grown = enumerate_isotropic_subgroups(group, order)
            assert [h.element_coeffs() for h in grown] == expected.get(order, [])
            for h in grown:
                assert span_elements(group, h.generators) == h.element_coeffs()
            nontrivial += order > 1 and bool(grown)
    assert nontrivial >= 10


def test_non_cyclic_isotropic_subgroups_are_found(groups):
    group = groups[1][1]
    assert group.orders == (2, 2, 2, 2)
    fours = enumerate_isotropic_subgroups(group, 4)
    assert fours and all(len(h.generators) == 2 for h in fours)


def test_unusable_orders_give_nothing(groups):
    for _lattice, group in groups[:8]:
        n = group.order()
        assert enumerate_isotropic_subgroups(group, 0) == []
        assert enumerate_isotropic_subgroups(group, -n) == []
        non_divisor = next(k for k in range(2, 2 * n + 3) if n % k)
        assert enumerate_isotropic_subgroups(group, non_divisor) == []


def test_elements_come_out_as_reduced_int_tuples(groups):
    """element, element_from_dual_vector, solve and IsotropicSubgroup.generators
    give tuples of ints, entry i in range(d_i), on every seeded group."""
    rng = random.Random(311)

    def reduced(group, x):
        return type(x) is tuple and len(x) == group.ngens and all(
            type(c) is int and 0 <= c < d for c, d in zip(x, group.orders))

    solved = 0
    for lattice, group in groups:
        k = group.ngens
        for _ in range(5):
            assert reduced(group, group.element([Fraction(rng.randint(-99, 99)) for _ in range(k)]))
        for v in random_dual_vectors(rng, lattice, 5):
            assert reduced(group, group.element_from_dual_vector(v))
        f = random_map(rng, group, group)
        for target in all_elements(group):
            pre = f.solve(tuple(c + rng.randint(-2, 2) * d for c, d in zip(target, group.orders)))
            assert pre is None or reduced(group, pre)
            solved += pre is not None
        for order in divisors(group.order()):
            for h in enumerate_isotropic_subgroups(group, order):
                assert all(reduced(group, g) for g in h.generators)
                shifted = [tuple(c - 2 * d for c, d in zip(g, group.orders)) for g in h.generators]
                assert IsotropicSubgroup(group, shifted).generators == h.generators
    assert len(groups) >= 30 and solved >= 100


def injective_by_spanning(f):
    """The image spanned element by element has |domain| elements."""
    images = [f.codomain.element(c) for c in transpose(f.matrix)]
    return len(span_elements(f.codomain, images)) == f.domain.order()


def preserves_form_by_enumeration(auto):
    group = auto.domain
    if not injective_by_spanning(auto):
        return False
    elems = all_elements(group)
    gens = identity(group.ngens)
    return all(group.q(apply_map(auto, x)) == group.q(x) for x in elems) and all(
        b(group, apply_map(auto, x), apply_map(auto, g)) == b(group, x, g)
        for x in elems for g in gens
    )


def is_anti_isometry_by_enumeration(gamma):
    if not injective_by_spanning(gamma):
        raise GlueError("gluing morphism is not injective")
    dom, cod = gamma.domain, gamma.codomain
    gens = identity(dom.ngens)
    return all(
        (dom.q(x) + cod.q(apply_map(gamma, x))) % 2 == 0 for x in all_elements(dom)
    ) and all(
        (b(dom, x, g) + b(cod, apply_map(gamma, x), apply_map(gamma, g))) % 1 == 0
        for x in all_elements(dom) for g in gens
    )


def random_map(rng, domain, codomain, keep_q=False):
    """A random homomorphism: generator i goes to an element killed by d_i.

    With ``keep_q`` that element also has the generator's q value, so that
    only the b values on generator pairs can tell a form isometry apart.
    """
    elems = all_elements(codomain)
    cols = []
    for i, d in enumerate(domain.orders):
        pool = [y for y in elems
                if not any(d * c % o for c, o in zip(y, codomain.orders))]
        if keep_q:
            want = domain.q(identity(domain.ngens)[i])
            pool = [y for y in pool if codomain.q(y) == want]
        cols.append(rng.choice(pool))
    return FiniteAbelianMap(domain, codomain, transpose(cols) or ((),) * codomain.ngens)


def test_preserves_form_matches_enumeration(groups):
    rng = random.Random(302)
    verdicts = set()
    for lattice, group in groups:
        if group.order() == 1:
            continue
        maps = [random_map(rng, group, group, k % 2) for k in range(8)]
        if lattice.rank <= 3 and lattice.signature()[1] == 0:
            maps += [induced_map(g.matrix, group) for g in orthogonal_group(lattice).elements]
        for auto in maps:
            expected = preserves_form_by_enumeration(auto)
            assert preserves_form(auto) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_is_anti_isometry_matches_enumeration(groups):
    """sigma . gamma0 with gamma0 an anti-isometry is one iff sigma preserves q."""
    rng = random.Random(303)
    verdicts = set()
    for lattice, group in groups:
        if group.order() == 1:
            continue
        domain = pullback_form(group, identity(group.ngens), group.orders)
        for k in range(8):
            sigma = random_map(rng, group, group, k % 2)
            gamma = FiniteAbelianMap(domain, group, sigma.matrix)
            if not injective_by_spanning(gamma):
                with pytest.raises(GlueError):
                    is_anti_isometry(gamma)
                with pytest.raises(GlueError):
                    is_anti_isometry_by_enumeration(gamma)
                verdicts.add(None)
                continue
            expected = is_anti_isometry_by_enumeration(gamma)
            assert is_anti_isometry(gamma) == expected
            verdicts.add(expected)
    assert verdicts == {True, False, None}


# group structures that no seeded lattice has, as extra domains
SMALL_ORDERS = ((2,), (3,), (2, 2), (2, 4), (3, 9), (2, 2, 2))


@pytest.fixture(scope="module")
def random_maps(groups):
    """Seeded maps between groups of different shapes, trivial ones included."""
    rng = random.Random(309)
    codomains = [group for _lattice, group in groups] + [bare_group(())]
    domains = codomains + [bare_group(orders) for orders in SMALL_ORDERS]
    maps = []
    for codomain in codomains:
        for domain in rng.sample(domains, 6) + [bare_group(()), bare_group((2,))]:
            maps += [random_map(rng, domain, codomain) for _ in range(2)]
    return maps


def test_is_injective_matches_spanned_image(random_maps):
    """The Smith-form image order against the image listed element by element."""
    seen = set()
    for f in random_maps:
        expected = injective_by_spanning(f)
        assert f.is_injective() == expected
        shape = ("square" if f.domain.ngens == f.codomain.ngens else "non-square",
                 "trivial domain" if f.domain.order() == 1 else
                 "trivial codomain" if f.codomain.order() == 1 else "")
        seen.add((expected, shape))
    for shape in ("square", "non-square"):
        assert (True, (shape, "")) in seen and (False, (shape, "")) in seen
    assert (True, ("non-square", "trivial domain")) in seen
    assert (False, ("non-square", "trivial codomain")) in seen


def test_solve_finds_a_preimage_exactly_when_one_exists(random_maps):
    solved = unsolvable = 0
    for f in random_maps:
        image = {apply_map(f, x) for x in all_elements(f.domain)}
        for target in all_elements(f.codomain):
            pre = f.solve(target)
            assert (pre is not None) == (target in image)
            if pre is None:
                unsolvable += 1
            else:
                assert apply_map(f, pre) == target
                solved += 1
    assert solved >= 800 and unsolvable >= 4000


def pullback_by_fractions(codomain, matrix, domain_orders):
    """Minus the Gram of the Fraction lifts of the image columns."""
    lifts = [fraction_lift(codomain, codomain.element(tuple(row[j] for row in matrix)))
             for j in range(len(domain_orders))]
    return tuple(tuple(-x for x in row) for row in gram_of_rows(lifts, codomain.source.gram))


def test_pullback_form_matches_fraction_formula(groups, rebased):
    rng = random.Random(310)
    checked = trivial = 0
    for _lattice, group in groups + rebased:
        shapes = [group.orders, rng.choice(SMALL_ORDERS), ()]
        for domain in map(bare_group, shapes):
            f = random_map(rng, domain, group)
            # unreduced entries: the pullback reads the columns modulo the orders
            matrix = tuple(tuple(x + rng.randint(-2, 2) * d for x in row)
                           for row, d in zip(f.matrix, group.orders))
            pulled = pullback_form(group, matrix, domain.orders)
            expected = pullback_by_fractions(group, matrix, domain.orders)
            assert rational_pairings(pulled) == expected
            assert pulled == DiscriminantGroup(domain.orders, expected)
            checked += 1
            trivial += group.order() == 1 and domain.order() > 1
    assert pullback_form(DiscriminantGroup((3,), ((Fraction(2, 3),),)), identity(1), (3,)) == \
        DiscriminantGroup((3,), ((Fraction(-2, 3),),))
    assert checked >= 250 and trivial >= 1


def glue_extension_check_by_enumeration(phi_bar, psi_bar, gamma):
    """phi_bar . gamma == gamma . psi_bar, compared on every element of the domain."""
    return all(
        apply_map(phi_bar, apply_map(gamma, x)) == apply_map(gamma, apply_map(psi_bar, x))
        for x in all_elements(gamma.domain)
    )


def test_glue_extension_check_matches_enumeration():
    """Derived, printed and mutated psi_bar on all seven printed rows."""
    cases = {(m, c.name): c for m in (2, 3, 6) for c in classify(m)[0]}
    rows = printed_tables()["table2"]
    assert len(rows) == 7
    verdicts = []
    for row in rows:
        case = cases[(row["m"], row["name"])]
        gamma = gluing_map(row["m"], row["name"])
        phi_bar = induced_map(case.phi, invariant_discriminant())
        mutated = [list(r) for r in case.psi_bar]
        mutated[0][2] += 1  # the order-9 generator may go anywhere
        for matrix in (case.psi_bar, freeze(row["psi_bar"]), freeze(mutated)):
            psi_bar = FiniteAbelianMap(gamma.domain, gamma.domain, matrix)
            expected = glue_extension_check_by_enumeration(phi_bar, psi_bar, gamma)
            assert glue_extension_check(phi_bar, psi_bar, gamma) == expected
            verdicts.append(expected)
    # derived: all True; printed: one erratum; mutated: all False
    assert verdicts[0::3] == [True] * 7
    assert verdicts[1::3].count(False) == 1
    assert verdicts[2::3] == [False] * 7


def test_solve_psi_bar_matches_the_apply_route():
    """On the seven printed rows, the columns of Phi Gamma solved at once give
    the psi_bar that solving gamma . psi_bar = phi_bar . gamma one generator
    at a time, through ``oracles.apply_map``, gives."""
    cases = {(m, c.name): c for m in (2, 3, 6) for c in classify(m)[0]}
    rows = printed_tables()["table2"]
    for row in rows:
        gamma = gluing_map(row["m"], row["name"])
        phi_bar = induced_map(cases[(row["m"], row["name"])].phi, invariant_discriminant())
        cols = [gamma.solve(apply_map(phi_bar, apply_map(gamma, gen)))
                for gen in identity(gamma.domain.ngens)]
        assert solve_psi_bar(phi_bar, gamma).matrix == transpose(cols)
    assert len(rows) == 7


def multiple_by_adding(group, x, d):
    """d x as d - 1 additions of x to itself."""
    total = x
    for _ in range(d - 1):
        total = add(group, total, x)
    return total


def test_map_well_definedness_matches_the_element_route():
    """Random integer matrices between random divisibility chains: the map is
    refused exactly when some column, boxed as an element of the codomain, is
    not killed by its generator's order, and is otherwise stored reduced row
    by row modulo the codomain orders."""
    rng = random.Random(2028)

    def chain():
        orders = [rng.choice((2, 3, 4, 6))]
        for _ in range(rng.randrange(3)):
            orders.append(orders[-1] * rng.choice((1, 2, 3)))
        return tuple(orders[:rng.randrange(4)])

    verdicts = set()
    for _ in range(400):
        domain, codomain = bare_group(chain()), bare_group(chain())
        cols = []
        for d in domain.orders:
            # each entry is, half the time, a multiple of d_i / gcd(d_i, d), which d kills
            scale = [o // gcd(o, d) if rng.random() < 0.5 else 1 for o in codomain.orders]
            cols.append(tuple(k * rng.randint(-40, 40) for k in scale))
        matrix = transpose(cols) if cols else ((),) * codomain.ngens
        bad = []
        for j, (d, col) in enumerate(zip(domain.orders, cols)):
            image = codomain.element(col)
            killed = not any(multiple_by_adding(codomain, image, d))
            assert killed == (d % element_order(codomain, image) == 0)
            if not killed:
                bad.append((j, d, element_order(codomain, image)))
        verdicts.add(bool(bad))
        if bad:
            j, d, k = bad[0]
            with pytest.raises(GlueError, match=f"^map is not well-defined: generator {j} "
                                                f"of order {d} maps to an element of order {k}$"):
                FiniteAbelianMap(domain, codomain, matrix)
        else:
            reduced = tuple(tuple(x % o for x in row) for o, row in zip(codomain.orders, matrix))
            assert FiniteAbelianMap(domain, codomain, matrix).matrix == reduced
    assert verdicts == {False, True}


def class_by_cleared_solve(group, v):
    """Class of a dual vector: one integer solution of sum_i c_i lift_i = v mod L.

    Clears denominators and solves [lifts^T | D I] z = D v with ``solve_int``.
    """
    if any(Fraction(p).denominator != 1 for p in mat_vec(group.source.gram, v)):
        raise GlueError("vector is not in the dual lattice")
    lifts = rational_lifts(group)
    denom = lcm_denominator(list(lifts) + [v])
    n = len(v)
    cols = [[int(lift[j] * denom) for j in range(n)] for lift in lifts]
    cols += [[denom * (i == j) for i in range(n)] for j in range(n)]
    sol = solve_int(transpose(cols), tuple(int(x * denom) for x in v))
    if sol is None:
        raise GlueError("vector class is not generated by the group generators")
    return group.element(sol[: group.ngens])


def random_dual_vectors(rng, lattice, count):
    """Random integer combinations of the dual basis (rows of G^-1)."""
    dual = frac_inverse(lattice.gram)
    return [
        tuple(mat_vec(transpose(dual), [rng.randint(-7, 7) for _ in dual]))
        for _ in range(count)
    ]


def random_rebase(rng, group):
    """Lifts of a random generating set with the canonical orders.

    Generator j goes to a unit multiple of itself plus multiples of the other
    generators that keep its order d_j (an invertible change of generators),
    and each lift is moved by a random lattice vector.
    """
    orders, k = group.orders, group.ngens
    coeffs = [list(row) for row in identity(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            unit = rng.choice([u for u in range(1, orders[j]) if gcd(u, orders[j]) == 1])
            coeffs[j] = [unit * c for c in coeffs[j]]
        else:  # generator j += c * (what keeps order d_j) * generator i
            step = rng.randint(1, 5) * max(1, orders[i] // orders[j])
            coeffs[j] = [a + step * b for a, b in zip(coeffs[j], coeffs[i])]
    n, lifts = group.source.rank, rational_lifts(group)
    return [
        tuple(
            sum(c * lifts[i][col] for i, c in enumerate(row)) + rng.randint(-2, 2)
            for col in range(n)
        )
        for row in coeffs
    ]


@pytest.fixture(scope="module")
def rebased(groups):
    """Each nontrivial group rebased onto three random generating sets."""
    rng = random.Random(304)
    out = []
    for lattice, group in groups:
        if group.order() > 1:
            out += [(lattice, with_generators(group, random_rebase(rng, group))) for _ in range(3)]
    return out


def test_class_map_matches_cleared_solve(groups, rebased):
    rng = random.Random(305)
    indefinite = changed = checked = 0
    for lattice, group in groups + rebased:
        indefinite += lattice.signature()[1] > 0
        changed += rational_lifts(group) != rational_lifts(discriminant_group(lattice))
        vectors = random_dual_vectors(rng, lattice, 12) + list(rational_lifts(group))
        for v in vectors:
            assert group.element_from_dual_vector(v) == class_by_cleared_solve(group, v)
            checked += 1
        with pytest.raises(GlueError, match="not in the dual lattice"):
            group.element_from_dual_vector((Fraction(1, 2 * lattice.determinant()),) * lattice.rank)
    assert len(groups) >= 30 and indefinite >= 10
    assert changed >= 60 and checked >= 1000


def test_induced_map_and_glue_subgroup_match_cleared_solve(groups, rebased):
    from latglue.isometries import orthogonal_group

    rng = random.Random(306)
    glued = 0
    for lattice, group in groups + rebased:
        n = lattice.rank
        isometries = [identity(n), tuple(tuple(-x for x in row) for row in identity(n))]
        if lattice.signature()[1] == 0 and n <= 3:
            isometries += [g.matrix for g in orthogonal_group(lattice).elements]
        for matrix in isometries:
            cols = [class_by_cleared_solve(group, mat_vec(matrix, lift))
                    for lift in rational_lifts(group)]
            assert induced_map(matrix, group).matrix == freeze(transpose(cols))
    for lattice, _group in groups:
        n = lattice.rank
        for _ in range(3):
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if not 0 < abs(det(basis)) <= 3:
                continue
            sub = lattice.span(basis)
            glue = glue_subgroup(sub)
            gens = [
                class_by_cleared_solve(glue.parent, sub.coordinates_of(e))
                for e in identity(n)
            ]
            assert glue.element_coeffs() == span_elements(glue.parent, gens)
            assert glue.order() == abs(det(basis))
            glued += 1
    assert glued >= 20


# sign changes of diag(-2, -6, 6) keep the first generator of some
# two-generator isotropic subgroups and move the second one out
SIGNS = IntegerLattice(((-2, 0, 0), (0, -6, 0), (0, 0, 6)))
# A_L = Z2 x Z8 x Z24: an order-8 subgroup on two generators that one of
# the 16 isometries fixes and another moves
OCTAVES = IntegerLattice(((6, 0, 0), (0, 8, 0), (0, 0, 8)))


def induced_map_by_fractions(matrix, group):
    """The rational formula: column i is the class of M lift_i, (classes G) M lift_i."""
    gram = group.source.gram
    if any(Fraction(x).denominator != 1 for row in matrix for x in row) or (
        gram_of_rows(transpose(matrix), gram) != gram
    ):
        raise GlueError("matrix is not an isometry of the source lattice")
    images = mat_mul(matrix, transpose(rational_lifts(group)))
    return FiniteAbelianMap(group, group, mat_mul(mat_mul(group.classes, gram), images))


def extends_by_every_element(matrix, h):
    bar = induced_map_by_fractions(matrix, h.parent)
    coeffs = h.element_coeffs()
    return {apply_map(bar, c) for c in coeffs} == coeffs


def overlattice_by_fractions(h):
    """Rational lifts, cleared once, HNF, and a Fraction Gram of the basis."""
    group = h.parent
    n = group.source.rank
    rows = list(identity(n)) + [fraction_lift(group, g) for g in h.generators]
    denom = lcm_denominator(rows)
    hh = hnf(freeze(tuple(int(x * denom) for x in row) for row in rows))
    basis = freeze(tuple(Fraction(x, denom) for x in row) for row in hh if any(row))
    return gram_of_rows(basis, group.source.gram), basis


def sample_isometries(lattice):
    """-1 and the identity; for rank <= 3 also O(L) (definite) or its signed permutations."""
    n = lattice.rank
    found = [identity(n), tuple(tuple(-x for x in row) for row in identity(n))]
    if n > 3:
        return found
    if lattice.signature()[1] == 0:
        found += [g.matrix for g in orthogonal_group(lattice).elements]
    else:
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                m = tuple(tuple(signs[j] * (perm[j] == i) for j in range(n)) for i in range(n))
                if gram_of_rows(transpose(m), lattice.gram) == lattice.gram:
                    found.append(m)
    return list(dict.fromkeys(found))


@pytest.fixture(scope="module")
def census(groups, rebased):
    """Seeded and rebased groups, diag(-2, -6, 6) twice and diag(6, 8, 8), with isometries."""
    rng = random.Random(307)
    signs = discriminant_group(SIGNS)
    extra = [(SIGNS, signs), (SIGNS, with_generators(signs, random_rebase(rng, signs))),
             (OCTAVES, discriminant_group(OCTAVES))]
    return [
        (lattice, group, sample_isometries(lattice))
        for lattice, group in groups + rebased + extra
    ]


def all_isotropic(group):
    return [h for order in divisors(group.order())
            for h in enumerate_isotropic_subgroups(group, order)]


def test_induced_map_matches_fraction_formula(census):
    mixed = checked = 0
    for lattice, group, isometries in census:
        mixed += len(set(group.cleared_lifts[1])) > 1
        for matrix in isometries:
            assert induced_map(matrix, group) == induced_map_by_fractions(matrix, group)
            checked += 1
        n = lattice.rank
        stretch = tuple(tuple(2 if i == j == 0 else int(i == j) for j in range(n))
                        for i in range(n))
        halved = ((Fraction(1, 2),) + stretch[0][1:],) + stretch[1:]
        for bad in (stretch, halved):
            with pytest.raises(GlueError, match="not an isometry"):
                induced_map(bad, group)
            with pytest.raises(GlueError, match="not an isometry"):
                induced_map_by_fractions(bad, group)
    assert any(group.order() == 1 for _lattice, group, _isos in census)
    assert mixed >= 15 and checked >= 300


def test_each_generator_leaves_the_span_of_the_ones_before(census):
    """The growth keeps the generators it adjoined: one for a cyclic subgroup, none redundant."""
    cyclic = non_cyclic = 0
    for _lattice, group, _isometries in census:
        for h in all_isotropic(group):
            for k, g in enumerate(h.generators):
                assert g not in span_elements(group, h.generators[:k])
            orders = [element_order(group, c) for c in h.element_coeffs()]
            if h.order() > 1 and max(orders) == h.order():
                assert len(h.generators) == 1
                cyclic += 1
            else:
                non_cyclic += h.order() > 1
    assert cyclic >= 100 and non_cyclic >= 20


def test_extension_by_generators_matches_every_element(census):
    verdicts = []
    for _lattice, group, isometries in census:
        for h in all_isotropic(group):
            for matrix in isometries:
                expected = extends_by_every_element(matrix, h)
                assert extends_to_overlattice(matrix, h) == expected
                verdicts.append((expected, len(h.generators)))
    assert (True, 2) in verdicts and (False, 2) in verdicts
    assert sum(not ok for ok, _ in verdicts) >= 50


def test_overlattice_gram_matches_fraction_gram(census):
    nontrivial = 0
    for lattice, group, _isometries in census:
        for h in all_isotropic(group):
            over, basis = overlattice_with_basis(h)
            gram, expected_basis = overlattice_by_fractions(h)
            assert basis == expected_basis
            assert over.gram == gram
            assert over.determinant() * h.order() ** 2 == lattice.determinant()
            nontrivial += h.order() > 1
    assert nontrivial >= 100


def test_isotropic_subgroups_do_not_depend_on_the_divisor_order(census):
    rng = random.Random(308)
    for _lattice, group, _isometries in census:
        orders = divisors(group.order())
        shuffled = rng.sample(orders, len(orders))
        listings = []
        for sequence in (orders, orders[::-1], shuffled):
            fresh = type(group)(group.orders, rational_pairings(group), rational_lifts(group),
                                group.source, group.classes)
            listings.append({d: enumerate_isotropic_subgroups(fresh, d) for d in sequence})
        assert listings[0] == listings[1] == listings[2]
        assert listings[0] == {d: enumerate_isotropic_subgroups(group, d) for d in orders}


def test_isotropy_scan_matches_the_product_scan(groups, rebased):
    """Same generator tuples, in the same order and buckets, as one bilinear call per element."""
    fractional = [
        bare_group((3, 3)),  # q = 0: every element is isotropic
        DiscriminantGroup((3,), ((Fraction(2, 3),),)),
        DiscriminantGroup((2, 4), ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)))),
        DiscriminantGroup((2, 2, 6), ((0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0),
                                      (0, 0, Fraction(1, 6)))),
        DiscriminantGroup((5, 5), ((Fraction(2, 5), 0), (0, Fraction(8, 5)))),
    ]
    ngens = set()
    for group in [g for _lattice, g in groups + rebased] + fractional:
        grown = group.isotropic_generators
        assert list(grown.items()) == list(isotropic_generators_by_product(group).items())
        ngens.add(group.ngens)
    assert {0, 1, 2, 3} <= ngens
    assert len(fractional[0].isotropic_generators[3]) == 4


def test_extension_matches_the_whole_induced_map(census):
    trivial = verdicts = 0
    for _lattice, group, isometries in census:
        for h in all_isotropic(group):
            for matrix in isometries:
                assert extends_to_overlattice(matrix, h) == extends_by_induced_map(matrix, h)
                verdicts += 1
            trivial += h.order() == 1
    assert trivial == len(census) and verdicts >= 1000


def test_trivial_subgroup_still_checks_the_isometry(census):
    for lattice, group, _isometries in census:
        h = enumerate_isotropic_subgroups(group, 1)[0]
        assert h.generators == ()
        n = lattice.rank
        stretch = tuple(tuple(2 if i == j == 0 else int(i == j) for j in range(n))
                        for i in range(n))
        halved = ((Fraction(1, 2),) + stretch[0][1:],) + stretch[1:]
        wide = tuple(row + (0,) for row in identity(n))
        # entries int() refuses: TypeError (None, [1]), ValueError ('x', nan), OverflowError
        # (inf); and entries int() changes: '1', 2.5, 5/2
        odd = [((x,) + identity(n)[0][1:],) + identity(n)[1:]
               for x in (None, [1], "x", "1", float("inf"), float("nan"), 2.5, Fraction(5, 2))]
        for bad in (stretch, halved, wide, identity(n)[:-1] or ((),), None, *odd):
            with pytest.raises(GlueError, match="not an isometry of the source lattice"):
                extends_to_overlattice(bad, h)
            with pytest.raises(GlueError, match="not an isometry of the source lattice"):
                induced_map(bad, group)
        assert extends_to_overlattice(identity(n), h)
        # a bool is not an integer (``exact.as_integer``), even where the lookup finds its equal
        with pytest.raises(GlueError, match="not an isometry of the source lattice"):
            extends_to_overlattice(((True,) + identity(n)[0][1:],) + identity(n)[1:], h)
    # an integral Fraction is an integer, a float is not: 4/2 and 2.0 in an isometry of <2> + <-4>
    lattice = IntegerLattice(((2, 0), (0, -4)))
    group = discriminant_group(lattice)
    h = enumerate_isotropic_subgroups(group, 1)[0]
    for two in (2, Fraction(4, 2)):
        pell = ((3, 4), (two, 3))
        assert extends_to_overlattice(pell, h) and induced_map(pell, group).matrix == ((1, 0), (0, 3))
    with pytest.raises(GlueError, match="not an isometry of the source lattice"):
        extends_to_overlattice(((3, 4), (2.0, 3)), h)


def test_discriminant_group_equals_its_public_rebuild(census):
    """The integer fields filled from the Smith form are those the Fraction constructor derives."""
    for lattice, group, _isometries in census:
        fresh = discriminant_group(lattice)
        for g in (fresh, group):
            pairings, lifts = rational_pairings(g), rational_lifts(g)
            rebuilt = DiscriminantGroup(g.orders, pairings, lifts, g.source, g.classes)
            assert rebuilt == g and hash(rebuilt) == hash(g)
            assert rebuilt.cleared_lifts == g.cleared_lifts
            assert (rebuilt.int_gram, rebuilt.exponent) == (g.int_gram, g.exponent)
            assert rational_pairings(rebuilt) == pairings and rational_lifts(rebuilt) == lifts
        nums, dens = fresh.cleared_lifts
        assert all(gcd(den, *num) == 1 for num, den in zip(nums, dens))
