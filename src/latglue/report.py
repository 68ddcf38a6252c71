"""Report documents: deterministic JSON/markdown renderings and golden diffs.

Every report is a plain dict built in a fixed key order, so the serialized
output is byte-stable across runs.  The verify reports compare recomputed
values cell by cell against the shipped transcription of the printed
tables; a mismatch is only tolerated when it appears in the declared
allowlist, and then it is surfaced as "allowlisted", never as a pass.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .classify import (
    ClassificationCase,
    admissible_orders,
    case_symmetry_group,
    classify,
    coinvariant_form,
    full_isometry_group,
    gluing_map,
    invariant_discriminant,
    invariant_lattice_fixed,
    order_bound_report,
    printed_tables,
    reference_coinvariant_form,
    vector_name,
)
from .discforms import discriminant_group, forms_isometric, is_anti_isometry
from .exact import freeze, gram_of_rows, hnf, snf, transpose
from .isometries import (
    RANK_GUARD,
    group_generated_by,
    orbit_witness,
    orbits,
    orthogonal_group,
    vectors_of_norm,
)
from .lattices import IntegerLattice

ASSUMPTIONS = [
    "the coinvariant lattice itself is external input: only its discriminant "
    "group (orders 3, 3, 9) enters, with its quadratic form defined as minus "
    "the pullback of the invariant-side form along the printed gluing",
    "surjectivity of the coinvariant isometry group onto the isometries of "
    "its discriminant form is trusted as an external fact",
]


def _mat(m) -> list:
    return [list(row) for row in m]


def case_to_dict(case: ClassificationCase) -> dict:
    return {
        "L": list(case.polarization),
        "name": case.name,
        "n": case.n,
        "T_gram": _mat(case.t_gram),
        "T_basis": _mat(case.t_basis),
        "index": case.index,
        "phi": _mat(case.phi),
        "order": case.order,
        "gamma": _mat(case.gamma),
        "psi_bar": _mat(case.psi_bar),
        "div": case.divisibility,
        "orbit_rep": list(case.orbit_rep),
        "orbit_size": case.orbit_size,
        "witness": _mat(case.witness),
    }


def classify_report(m: int) -> dict:
    cases, excluded = classify(m)
    return {
        "command": f"classify --m {m}",
        "m": m,
        "cases": [case_to_dict(c) for c in cases],
        "excluded": [
            {
                "L": list(e.representative),
                "name": e.name,
                "norm": e.norm,
                "reason": e.reason,
            }
            for e in excluded
        ],
        "assumptions": ASSUMPTIONS,
        "notes": list(printed_tables()["notes"]),
    }


def classify_markdown(report: dict) -> str:
    lines = [
        f"# Polarization classes for an order-{report['m']} action",
        "",
        "| L | n | T_X Gram | index | isometry | order | gluing | psi_bar | div |",
        "|---|---|----------|-------|----------|-------|--------|---------|-----|",
    ]
    for case in report["cases"]:
        lines.append(
            "| {name} | {n} | {t} | {idx} | {phi} | {order} | {gamma} | {psi} | {div} |".format(
                name=case["name"],
                n=case["n"],
                t=json.dumps(case["T_gram"]),
                idx=case["index"],
                phi=json.dumps(case["phi"]),
                order=case["order"],
                gamma=json.dumps(case["gamma"]),
                psi=json.dumps(case["psi_bar"]),
                div=case["div"],
            )
        )
    if report["excluded"]:
        lines += ["", "## Excluded candidates", ""]
        for e in report["excluded"]:
            lines.append(f"- {e['name']} (norm {e['norm']}): {e['reason']}")
    lines += ["", "## Assumptions", ""]
    lines += [f"- {a}" for a in report["assumptions"]]
    lines.append("")
    return "\n".join(lines)


def discriminant_orders_any(lattice: IntegerLattice) -> list[int]:
    """Cyclic factor orders of L^dual/L (works for odd lattices too)."""
    d, _u, _v = snf(lattice.gram)
    return [d[i][i] for i in range(lattice.rank) if d[i][i] > 1]


def lattice_info_report(lattice: IntegerLattice) -> dict:
    s_plus, s_minus = lattice.signature()
    report = {
        "command": "lattice-info",
        "gram": _mat(lattice.gram),
        "rank": lattice.rank,
        "determinant": lattice.determinant(),
        "signature": [s_plus, s_minus],
        "even": lattice.is_even,
        "discriminant_orders": discriminant_orders_any(lattice),
    }
    if (s_minus == 0 or s_plus == 0) and lattice.rank <= RANK_GUARD:
        work = lattice if s_minus == 0 else IntegerLattice(
            freeze(tuple(-x for x in row) for row in lattice.gram)
        )
        report["isometry_group_order"] = orthogonal_group(work).order()
    return report


def orbit_report(
    norm: int,
    lattice: IntegerLattice | None = None,
    full_group: bool = False,
) -> dict:
    """Orbit table for vectors of one norm.

    On the fixed invariant lattice the default grouping is the order-8 case
    symmetry (the grouping the printed table uses); --full-group switches
    to the whole orthogonal group.  Custom lattices always use their full
    orthogonal group.
    """
    default_lattice = lattice is None
    if default_lattice:
        lattice = invariant_lattice_fixed()
        group = full_isometry_group() if full_group else case_symmetry_group()
    else:
        group = orthogonal_group(lattice)
    vectors = vectors_of_norm(lattice, norm)
    result = {
        "command": f"orbits --norm {norm}",
        "norm": norm,
        "group_order": group.order(),
        "orbit_count": 0,
        "orbits": [],
    }
    if default_lattice and norm != 0 and (norm < 0 or norm % 6):
        result["warning"] = (
            f"no vectors of norm {norm} exist in the fixed lattice: "
            "all norms are positive multiples of 6"
        )
    for orbit in orbits(group, vectors):
        result["orbits"].append(
            {
                "norm": norm,
                "representative": list(orbit.representative),
                "size": orbit.size,
                "members": [list(v) for v in orbit.members],
                "name": vector_name(max(orbit.members)) if default_lattice else None,
            }
        )
    result["orbit_count"] = len(result["orbits"])
    return result


def orbit_markdown(report: dict) -> str:
    lines = [
        f"# Orbits of norm-{report['norm']} vectors (group order {report['group_order']})",
        "",
    ]
    if "warning" in report:
        lines += [f"> {report['warning']}", ""]
    lines += ["| representative | name | size | members |", "|---|---|---|---|"]
    for orbit in report["orbits"]:
        lines.append(
            "| {rep} | {name} | {size} | {members} |".format(
                rep=json.dumps(orbit["representative"]),
                name=orbit["name"] or "",
                size=orbit["size"],
                members=json.dumps(orbit["members"]),
            )
        )
    lines.append("")
    return "\n".join(lines)


# -- golden verification ---------------------------------------------------


def _cell(name: str, computed, printed, allow_id: str | None = None) -> dict:
    """One comparison cell; allowlisted mismatches carry their declared id."""
    if computed == printed:
        return {"cell": name, "status": "pass", "computed": computed, "printed": printed}
    data = printed_tables()
    for entry in data["allowlist"]:
        if entry["id"] == allow_id and computed == entry["computed"]:
            return {
                "cell": name,
                "status": "allowlisted",
                "computed": computed,
                "printed": printed,
                "allowlist_id": allow_id,
                "note": entry["note"],
            }
    return {"cell": name, "status": "mismatch", "computed": computed, "printed": printed}


def verify_orbits_report() -> dict:
    """Cell-by-cell diff of the recomputed orbit table against the printed one."""
    data = printed_tables()
    sym = case_symmetry_group()
    lattice = invariant_lattice_fixed()
    cells = []
    for norm in sorted({row["norm"] for row in data["table1"]}):
        vectors = vectors_of_norm(lattice, norm)
        computed = orbits(sym, vectors)
        printed_rows = [r for r in data["table1"] if r["norm"] == norm]
        cells.append(
            _cell(f"norm {norm}: orbit count", len(computed), len(printed_rows))
        )
        for row in printed_rows:
            rep = tuple(row["representative"])
            match = next((o for o in computed if rep in o.members), None)
            label = f"norm {norm}: orbit of {row['name']}"
            if match is None:
                cells.append(_cell(label, "missing", sorted(map(list, row["members"]))))
                continue
            cells.append(
                _cell(
                    label + " members",
                    sorted([list(v) for v in match.members]),
                    sorted([list(v) for v in map(tuple, row["members"])]),
                )
            )
            witness = orbit_witness(sym, match.representative, rep)
            cells.append(
                _cell(
                    label + " witness",
                    witness is not None and witness.apply(match.representative) == rep,
                    True,
                )
            )
    full = full_isometry_group()
    merged = {}
    for norm in sorted({row["norm"] for row in data["table1"]}):
        vectors = vectors_of_norm(lattice, norm)
        merged[str(norm)] = len(orbits(full, vectors))
    return {
        "command": "verify-table orbits",
        "cells": cells,
        "full_group_orbit_counts": merged,
        "notes": list(data["notes"]),
        "status": report_status(cells),
    }


def report_status(cells) -> str:
    if any(c["status"] == "mismatch" for c in cells):
        return "mismatch"
    if any(c["status"] == "allowlisted" for c in cells):
        return "pass-with-allowlisted"
    return "pass"


def verify_cases_report() -> dict:
    """Recompute every printed case cell and diff against the transcription."""
    data = printed_tables()
    lattice = invariant_lattice_fixed()
    group = full_isometry_group()
    cells = []

    cells.append(
        _cell("isometry group order", group.order(), data["printed_isometry_group_order"])
    )
    cells.append(_cell("no element of order 4", not group.has_element_of_order(4), True))
    cells.append(_cell("element of order 6 exists", group.has_element_of_order(6), True))

    # The printed generators are row-as-image matrices: transpose them into
    # the column convention and check they generate the whole group.
    rhos = [
        transpose(freeze(m))
        for m in data["isometry_generators_row_convention"].values()
    ]
    minus = freeze(tuple(-int(i == j) for j in range(3)) for i in range(3))
    generated = group_generated_by(lattice, list(rhos) + [minus])
    cells.append(
        _cell(
            "printed generators span the group",
            sorted(generated) == sorted(g.matrix for g in group.elements),
            True,
        )
    )

    disc = invariant_discriminant()
    cells.append(_cell("invariant discriminant orders", list(disc.orders), [3, 3, 18]))
    bound = order_bound_report()
    cells.append(_cell("order bound", bound["bound"], data["printed_order_bound"]))
    cells.append(
        _cell(
            "admissible orders",
            sorted(admissible_orders()),
            data["printed_admissible_m"],
        )
    )

    cases = {}
    for m in (2, 3, 6):
        found, _ = classify(m)
        for case in found:
            cases[(m, case.name)] = case
    cells.append(_cell("case count", len(cases), len(data["table2"])))

    reference = reference_coinvariant_form()
    for i, row in enumerate(data["table2"]):
        label = f"row {i} ({row['label']})"
        case = cases.get((row["m"], row["name"]))
        if case is None:
            cells.append(_cell(f"{label}: present", False, True))
            continue
        printed_t = freeze(row["t_generators"])
        cells.append(
            _cell(
                f"{label}: complement span",
                _mat(case.t_basis),
                _mat(hnf(printed_t)[0][: len(printed_t)]),
            )
        )
        printed_t_gram = gram_of_rows(printed_t, lattice.gram)
        cells.append(
            _cell(f"{label}: T_X Gram", _mat(printed_t_gram), row["t_gram"])
        )
        cells.append(_cell(f"{label}: isometry", _mat(case.phi), row["phi"]))
        cells.append(_cell(f"{label}: order", case.order, row["order"]))
        gamma = gluing_map(row["m"], row["name"])
        cells.append(_cell(f"{label}: gluing well-defined and injective",
                           gamma.is_injective(), True))
        cells.append(
            _cell(
                f"{label}: gluing anti-isometry onto its pullback",
                is_anti_isometry(gamma),
                True,
            )
        )
        cells.append(
            _cell(
                f"{label}: pullback form consistent with reference",
                forms_isometric(coinvariant_form(freeze(row["gamma"])), reference)
                is not None,
                True,
            )
        )
        allow_id = None
        for entry in data["allowlist"]:
            if entry.get("table") == "cases" and entry.get("row") == i and "psi_bar" in str(
                entry.get("cell", "")
            ):
                allow_id = entry["id"]
        cells.append(
            _cell(f"{label}: psi_bar", _mat(case.psi_bar), row["psi_bar"], allow_id)
        )
        cells.append(
            _cell(f"{label}: divisibility", case.divisibility, row["divisibility"])
        )

    # The claimed glue generator of the existence walkthrough: its q value
    # is recomputed and the discrepancy surfaced through the allowlist.
    t_rows = ((1, 1, 0), (0, 0, 1), (1, -1, 0))
    t_lattice = IntegerLattice(gram_of_rows(t_rows, lattice.gram))
    a_t = discriminant_group(t_lattice)
    claimed_ambient = tuple(Fraction(s) for s in data["claimed_glue_lift"])
    sub = lattice.span(t_rows)
    claimed = a_t.element_from_dual_vector(sub.coordinates_of(claimed_ambient))
    cells.append(
        _cell(
            "existence walkthrough: q of the claimed glue generator",
            str(a_t.q(claimed)),
            "0",
            "existence-glue-generator",
        )
    )

    return {
        "command": "verify-table cases",
        "cells": cells,
        "assumptions": ASSUMPTIONS,
        "notes": list(data["notes"]),
        "status": report_status(cells),
    }


def verify_markdown(report: dict) -> str:
    lines = [f"# {report['command']}", "", "| cell | status | computed | printed |",
             "|---|---|---|---|"]
    for cell in report["cells"]:
        lines.append(
            "| {cell} | {status} | {computed} | {printed} |".format(
                cell=cell["cell"],
                status=cell["status"],
                computed=json.dumps(cell["computed"]),
                printed=json.dumps(cell["printed"]),
            )
        )
    lines += ["", f"overall: {report['status']}", ""]
    return "\n".join(lines)


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
