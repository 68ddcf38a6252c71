"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison here is exact integer/rational equality; there
are no numeric tolerances anywhere in this artifact.
"""

import functools

from latglue.classify import (
    admissible_orders,
    ambient_divisibility,
    case_symmetry_group,
    classify,
    full_isometry_group,
    gluing_map,
    invariant_lattice_fixed,
    order_bound_report,
    printed_tables,
)
from latglue.discforms import glue_extension_check, induced_map, solve_psi_bar
from latglue.exact import freeze, mat_mul, transpose
from latglue.isometries import matrix_order, orbit_witness, orbits, vectors_of_norm
from latglue.lattices import IntegerLattice

import test_properties
from oracles import isometry_between


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "determinant 162, signature (3,0), even")
def test_criterion_1_invariant_lattice():
    lattice = invariant_lattice_fixed()
    assert lattice.determinant() == 162
    assert lattice.signature() == (3, 0)
    assert lattice.is_even


@criterion(2, "isometry group order 24, no order 4, order 6 present")
def test_criterion_2_isometry_group():
    group = full_isometry_group()
    assert group.order() == 24
    assert not group.has_element_of_order(4)
    assert group.has_element_of_order(6)


@criterion(3, "orbit table 3/2/5 rows with sizes (2,4,2)/(2,4) and witnesses")
def test_criterion_3_orbit_table():
    lattice = invariant_lattice_fixed()
    sym = case_symmetry_group()
    printed = printed_tables()["table1"]

    six = orbits(sym, vectors_of_norm(lattice, 6))
    assert len(six) == 3 and sorted(o.size for o in six) == [2, 2, 4]
    eighteen = orbits(sym, vectors_of_norm(lattice, 18))
    assert len(eighteen) == 2 and sorted(o.size for o in eighteen) == [2, 4]
    twenty_four = orbits(sym, vectors_of_norm(lattice, 24))
    assert len(twenty_four) == 5

    computed = {6: six, 18: eighteen, 24: twenty_four}
    for row in printed:
        rep = tuple(row["representative"])
        orbit = next(o for o in computed[row["norm"]] if rep in o.members)
        assert set(map(tuple, row["members"])) == set(orbit.members)
        witness = orbit_witness(sym, orbit.representative, rep)
        assert witness is not None and witness.apply(orbit.representative) == rep


@criterion(4, "five order-2 cases, indices (1,2,2,2,2), dets {27,108,108,36,36}, "
             "norm-24 branch excluded with det 432 != 27")
def test_criterion_4_order_two_classification():
    cases, excluded = classify(2)
    assert [(c.name, c.index) for c in cases] == [
        ("h", 1), ("e-f", 2), ("e", 2), ("e+f", 2), ("2e-f", 2),
    ]
    dets = [
        c.t_gram[0][0] * c.t_gram[1][1] - c.t_gram[0][1] * c.t_gram[1][0]
        for c in cases
    ]
    assert dets == [27, 108, 108, 36, 36]
    norm24_reasons = [e.reason for e in excluded if e.norm == 24 and "det" in e.reason]
    assert len(norm24_reasons) == 2
    assert all("432 != 27" in r for r in norm24_reasons)


@criterion(5, "single order-3 case: L in the h-orbit, T_X = A2-scaled, index 1; "
             "all norm-54 candidates rejected as non-primitive")
def test_criterion_5_order_three_classification():
    cases, excluded = classify(3)
    assert len(cases) == 1
    case = cases[0]
    assert case.polarization == (0, 0, 1)
    assert isometry_between(
        IntegerLattice(case.t_gram), IntegerLattice(((6, 3), (3, 6)))
    ) is not None
    assert case.index == 1
    norm54 = [e for e in excluded if e.norm == 54]
    assert norm54 and all(e.reason == "not primitive" for e in norm54)


@criterion(6, "all seven printed rows verified; psi_bar reproduced modulo (3,3,9) "
             "except the declared allowlist cell")
def test_criterion_6_table_rows():
    lattice = invariant_lattice_fixed()
    data = printed_tables()
    allow = {
        (entry["row"], "psi_bar"): entry
        for entry in data["allowlist"]
        if "psi_bar" in str(entry.get("cell", ""))
    }
    cases = {}
    for m in (2, 3, 6):
        found, _ = classify(m)
        for case in found:
            cases[(m, case.name)] = case
    assert len(cases) == len(data["table2"]) == 7
    flagged = []
    for i, row in enumerate(data["table2"]):
        case = cases[(row["m"], row["name"])]
        phi = freeze(row["phi"])
        assert mat_mul(mat_mul(transpose(phi), lattice.gram), phi) == lattice.gram
        image = tuple(sum(phi[r][c] * row["L"][c] for c in range(3)) for r in range(3))
        assert image == tuple(row["L"])
        assert matrix_order(phi) == row["order"] == case.order
        assert case.phi == phi
        gamma = gluing_map(row["m"], row["name"])
        phi_bar = induced_map(phi, gamma.codomain)
        psi_bar = solve_psi_bar(phi_bar, gamma)
        assert glue_extension_check(phi_bar, psi_bar, gamma)
        if psi_bar.matrix != freeze(row["psi_bar"]):
            entry = allow.get((i, "psi_bar"))
            assert entry is not None, f"undeclared psi_bar mismatch in row {i}"
            assert psi_bar.matrix == freeze(entry["computed"])
            flagged.append(entry["id"])
    # the known transcription error is reported, never silently passed
    assert flagged == ["table2-row5-psi-entry-0-0"]


@criterion(7, "ambient divisibilities h -> 2, e -> 1, e-f -> 1")
def test_criterion_7_divisibility():
    assert ambient_divisibility((0, 0, 1), gluing_map(2, "h")) == 2
    assert ambient_divisibility((1, 0, 0), gluing_map(2, "e")) == 1
    assert ambient_divisibility((1, -1, 0), gluing_map(2, "e-f")) == 1


@criterion(8, "admissible orders {2,3,6} and bound 174960")
def test_criterion_8_orders_and_bound():
    assert admissible_orders() == frozenset({2, 3, 6})
    report = order_bound_report()
    assert report["bound"] == 174960
    assert report["max_order"] == 6
    assert report["symplectic_group_order"] == 29160


@criterion(9, "property suites: overlattice bijection, index law, q/b rule, "
             "order-3 criterion, fixed/moving membership, extension oracle")
def test_criterion_9_property_suites():
    test_properties.test_overlattice_correspondence_vs_brute_force()
    test_properties.test_index_squared_equals_det_ratio()
    test_properties.test_q_b_compatibility_everywhere()
    test_properties.test_admits_order3_exhaustive()
    test_properties.test_fixed_and_moving_parts_random()
    test_properties.test_extension_criterion_vs_overlattice_isometries()
