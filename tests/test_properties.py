"""Randomized property suites with independent brute-force oracles.

Each suite fixes its RNG seed so the instance counts demanded by the
acceptance list are guaranteed, and each oracle deliberately avoids the
code path it is checking (subgroup search instead of isotropy, box scans
instead of the pruned enumeration, and so on).
"""

import itertools
import random
from fractions import Fraction

from latglue.discforms import (
    discriminant_group,
    enumerate_isotropic_subgroups,
    extends_to_overlattice,
    overlattice_with_basis,
    span_elements,
)
from latglue.exact import det, freeze, hnf, mat_mul, mat_vec, transpose
from latglue.isometries import admits_order3, group_generated_by, orthogonal_group
from latglue.lattices import IntegerLattice, Sublattice

from oracles import (
    add,
    all_elements,
    b,
    coinvariant_lattice,
    in_span,
    invariant_lattice,
    rational_lifts,
    reduced_binary_form,
)


def random_even_lattice(rng, max_rank=3, max_det=200, definite=False):
    """Random even non-degenerate lattice with |det| bounded."""
    while True:
        n = rng.randint(1, max_rank)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.choice([1, 1, 2, 3, -1, -2] if not definite else [1, 2, 3])
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        frozen = freeze(gram)
        d = det(frozen)
        if d == 0 or abs(d) > max_det:
            continue
        lattice = IntegerLattice(frozen)
        if definite and lattice.signature()[1] != 0:
            continue
        return lattice


# -- independent oracle helpers ---------------------------------------------


def all_subgroups(group):
    """Every subgroup of a discriminant group, by closure joins (oracle side)."""
    zero = (0,) * group.ngens
    cyclic = {}
    for elem in all_elements(group):
        if not any(elem):
            continue
        span = span_elements(group, [elem])
        if span not in cyclic:
            cyclic[span] = elem
    found = {frozenset([zero]): ()}
    frontier = [frozenset([zero])]
    while frontier:
        current = frontier.pop()
        gens = found[current]
        for span, gen in cyclic.items():
            if span <= current:
                continue
            joined = span_elements(group, gens + (gen,))
            if joined not in found:
                found[joined] = gens + (gen,)
                frontier.append(joined)
    return found


def overlattice_key(lattice, rows):
    """Canonical key for a finite-index overlattice given by rational rows."""
    scale = abs(lattice.determinant())
    cleared = freeze(
        tuple(int(Fraction(x) * scale) for x in row) for row in rows
    )
    h = hnf(cleared)
    return tuple(row for row in h if any(row))


def fraction_lift(group, x):
    """sum_i x_i lift_i in Fractions; the trivial group lifts its zero to 0."""
    lifts = rational_lifts(group)
    if not lifts:
        return (0,) * group.source.rank
    return mat_vec(transpose(lifts), group.element(x))


def brute_force_even_overlattices(lattice, group):
    """All even finite-index overlattices, WITHOUT using the quadratic form.

    For each subgroup of the discriminant group the candidate lattice is
    spanned by the lattice plus lifts; it survives if its Gram matrix is
    integral and even.
    """
    n = lattice.rank
    keys = set()
    for subgroup, gens in all_subgroups(group).items():
        rows = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        rows += [fraction_lift(group, c) for c in gens]
        scale = abs(lattice.determinant())
        cleared = freeze(tuple(int(x * scale) for x in row) for row in rows)
        h = hnf(cleared)
        basis = freeze(
            tuple(Fraction(x, scale) for x in row) for row in h if any(row)
        )
        gram = mat_mul(mat_mul(basis, lattice.gram), transpose(basis))
        if any(x.denominator != 1 for row in gram for x in row):
            continue
        if any(gram[i][i] % 2 for i in range(n)):
            continue
        keys.add(overlattice_key(lattice, basis))
    return keys


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- the suites --------------------------------------------------------------


def test_overlattice_correspondence_vs_brute_force():
    """Overlattice/isotropic-subgroup bijection on 50+ random even lattices."""
    rng = random.Random(101)
    checked = 0
    while checked < 50:
        lattice = random_even_lattice(rng)
        group = discriminant_group(lattice)
        if group.order() > 120:
            continue  # keep the subgroup census fast
        via_isotropic = set()
        for order in divisors(group.order()):
            for sub in enumerate_isotropic_subgroups(group, order):
                _, basis = overlattice_with_basis(sub)
                via_isotropic.add(overlattice_key(lattice, basis))
        assert via_isotropic == brute_force_even_overlattices(lattice, group)
        checked += 1


def test_overlattice_determinant_relation():
    rng = random.Random(102)
    checked = 0
    while checked < 60:
        lattice = random_even_lattice(rng)
        group = discriminant_group(lattice)
        if group.order() > 150:
            continue
        for order in divisors(group.order()):
            for sub in enumerate_isotropic_subgroups(group, order):
                over = overlattice_with_basis(sub)[0]
                assert over.determinant() * order * order == lattice.determinant()
                checked += 1


def test_index_squared_equals_det_ratio():
    """index^2 * det(ambient) == det(sub) on 100+ random full-rank sublattices."""
    rng = random.Random(103)
    checked = 0
    while checked < 110:
        ambient = random_even_lattice(rng, max_rank=3, max_det=400)
        n = ambient.rank
        rows = freeze(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
        )
        if det(rows) == 0:
            continue
        sub = Sublattice(ambient, rows)
        index = sub.index()
        assert index * index * abs(ambient.determinant()) == abs(det(sub.gram()))
        checked += 1


def test_q_b_compatibility_everywhere():
    """q(x+y) - q(x) - q(y) == 2 b(x, y) mod 2Z on every built group."""
    rng = random.Random(104)
    for _ in range(40):
        lattice = random_even_lattice(rng, max_det=80)
        group = discriminant_group(lattice)
        assert group.order() == abs(lattice.determinant())
        elems = all_elements(group)
        if len(elems) > 40:
            elems = [rng.choice(elems) for _ in range(40)]
        for x, y in itertools.product(elems, repeat=2):
            lhs = (group.q(add(group, x, y)) - group.q(x) - group.q(y)) % 2
            assert lhs == (2 * b(group, x, y)) % 2


def test_admits_order3_exhaustive():
    """O(T) and the reduced-form criterion (``oracles.reduced_binary_form``) agree on all small forms."""
    checked = 0
    for p in range(1, 21):
        for r in range(p, 21):
            for q in range(-p, p + 1):
                gram = ((2 * p, q), (q, 2 * r))
                if 4 * p * r - q * q <= 0:
                    continue
                if max(abs(x) for row in gram for x in row) > 40:
                    continue
                form = reduced_binary_form(gram)  # (a, b, c); order 3 exactly when a == b == c
                assert admits_order3(IntegerLattice(gram)) == (len(set(form)) == 1), (gram, form)
                checked += 1
    assert checked > 400


def test_fixed_and_moving_parts_random():
    """Sum/difference membership and group-order torsion on 100+ instances."""
    rng = random.Random(105)
    checked = 0
    while checked < 100:
        lattice = random_even_lattice(rng, max_rank=3, max_det=300, definite=True)
        group = orthogonal_group(lattice)
        gens = [rng.choice(group.elements).matrix for _ in range(rng.randint(1, 2))]
        elements = group_generated_by(lattice, gens)
        order = len(elements)
        fixed = invariant_lattice(lattice, gens)
        moving = coinvariant_lattice(lattice, gens)
        n = lattice.rank
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        total = tuple(
            sum(m[i][j] * v[j] for m in elements for j in range(n)) for i in range(n)
        )
        if any(total):
            assert in_span(fixed, total)
        for g in gens:
            diff = tuple(v[i] - sum(g[i][j] * v[j] for j in range(n)) for i in range(n))
            if any(diff):
                assert in_span(moving, diff)
        # |G| * x lands in fixed + moving for every basis vector
        rows = fixed.basis + moving.basis
        assert len(rows) == n
        sum_lattice = Sublattice(lattice, rows)
        for i in range(n):
            scaled = tuple(order * int(i == j) for j in range(n))
            assert in_span(sum_lattice, scaled)
        checked += 1


def test_extension_criterion_vs_overlattice_isometries():
    """extends_to_overlattice agrees with restriction from O(overlattice)."""
    rng = random.Random(106)
    checked = 0
    while checked < 25:
        lattice = random_even_lattice(rng, max_rank=3, max_det=150, definite=True)
        group = discriminant_group(lattice)
        subs = []
        for order in divisors(group.order())[1:]:
            subs.extend(enumerate_isotropic_subgroups(group, order))
        if not subs:
            continue
        glue = rng.choice(subs)
        over, basis = overlattice_with_basis(glue)
        over_group = orthogonal_group(over)
        # an isometry of the overlattice restricts to the original lattice
        # exactly when its action in the original coordinates is integral
        basis_t = transpose(basis)
        from latglue.exact import frac_inverse

        inv = frac_inverse(basis_t)
        restrictable = set()
        for g in over_group.elements:
            conj = mat_mul(mat_mul(basis_t, g.matrix), inv)
            if all(Fraction(x).denominator == 1 for row in conj for x in row):
                restrictable.add(freeze(tuple(int(x) for x in row) for row in conj))
        for phi in orthogonal_group(lattice).elements:
            expected = phi.matrix in restrictable
            assert extends_to_overlattice(phi.matrix, glue) == expected
        checked += 1
