"""Provenance of the golden file: every printed number is checked or declared.

A seeded sample of the integer leaves of ``printed_tables.json`` is raised
by 1, one at a time, and both ``verify-table`` commands run on the result
in process, with every cached singleton of ``classify`` rebuilt from it.  A
change is caught when an exit code or the status of any cell differs from
the shipped file's.  The leaves a change of which is not caught are exactly
``SILENT``, each with its reason, and the sample always holds them, so a
change that starts checking one fails here until the entry goes.  The
``table2[*].L`` leaves are left out: ``test_cli`` shows each one exits 2,
and that deleting any ``table1`` norm block exits 1
(``test_verify_orbits_checks_the_norm_set``).
"""

import json
import random

import pytest

import latglue.classify as classify_mod
import latglue.report as report_mod
from latglue.cli import main

GAMMA = ("gamma is only a basis choice for the glue image: this other basis "
         "gives the same psi_bar and divisibility, and its pullback form "
         "is isometric to the reference")
SILENT = {
    ("table2", 0, "gamma", 1, 0): GAMMA,
    ("table2", 0, "gamma", 1, 2): GAMMA,
    ("table2", 1, "gamma", 0, 1): GAMMA,
    ("table2", 1, "gamma", 0, 2): GAMMA,
    ("table2", 2, "gamma", 0, 1): GAMMA,
    ("table2", 2, "gamma", 0, 2): GAMMA,
    ("table2", 5, "gamma", 0, 2): GAMMA,
}
SAMPLE = 40


def integer_leaves(node, path=()):
    """Paths to the int leaves of a JSON value (bools are not ints here)."""
    if isinstance(node, int) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (list, dict)):
        for key, child in (enumerate(node) if isinstance(node, list) else node.items()):
            yield from integer_leaves(child, path + (key,))


@pytest.fixture
def golden(monkeypatch):
    """Sets the golden data both modules read; the ``classify`` caches start empty and end empty."""
    pristine = classify_mod.printed_tables()
    caches = [f for f in vars(classify_mod).values() if hasattr(f, "cache_clear")]

    def use(data):
        monkeypatch.setattr(classify_mod, "printed_tables", lambda: data)
        monkeypatch.setattr(report_mod, "printed_tables", lambda: data)
        for cache in caches:
            cache.cache_clear()

    yield pristine, use
    for cache in caches:
        cache.cache_clear()


def verdicts(capsys):
    """(exit code, [(cell, status), ...]) of ``verify-table cases`` and ``orbits``."""
    found = []
    for table in ("cases", "orbits"):
        code = main(["verify-table", table])
        out = capsys.readouterr().out
        found.append((code, [(c["cell"], c["status"]) for c in json.loads(out)["cells"]]
                      if code != 2 else None))
    return found


def test_unchecked_golden_leaves_are_declared(golden, capsys):
    pristine, use = golden
    use(pristine)
    shipped = verdicts(capsys)
    assert [code for code, _cells in shipped] == [0, 0]
    others = [path for path in integer_leaves(pristine)
              if path not in SILENT and not (path[0] == "table2" and path[2] == "L")]
    sample = sorted(SILENT) + random.Random(29).sample(others, SAMPLE - len(SILENT))
    silent = set()
    for path in sample:
        data = json.loads(json.dumps(pristine))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] += 1
        use(data)
        if verdicts(capsys) == shipped:
            silent.add(path)
    assert silent == set(SILENT)


def test_walkthrough_reads_the_case_row_of_its_allowlist_entry(golden, capsys):
    """The existence-walkthrough cell takes T + ZL from table2[entry.row].

    Row 3 (L = e+f) spans the same T + ZL as the shipped row 1 (L = e-f) on
    other rows, and q of a class does not depend on the basis, so its cell
    is allowlisted all the same; the claimed lift (e+f)/2 is not in the dual
    of row 2's T + ZL (L = e), so raising the row refuses the command.
    """
    pristine, use = golden
    walkthrough = "existence walkthrough: q of the claimed glue generator"

    def status(row):
        data = json.loads(json.dumps(pristine))
        (entry,) = [e for e in data["allowlist"] if e["id"] == "existence-glue-generator"]
        entry["row"] = row
        use(data)
        code = main(["verify-table", "cases"])
        captured = capsys.readouterr()
        if code == 2:
            return code, captured.err
        (cell,) = [c for c in json.loads(captured.out)["cells"] if c["cell"] == walkthrough]
        return code, cell["status"], cell["computed"], cell["printed"]

    assert pristine["allowlist"][1]["row"] == 1
    assert status(1) == status(3) == (0, "allowlisted", "1/2", "0")
    assert status(2) == (2, "error: vector is not in the dual lattice\n")
    assert status(len(pristine["table2"])) == (
        2, "error: allowlist entry existence-glue-generator does not name a case row\n")


@pytest.mark.parametrize("leaf", range(3))
def test_invariant_discriminant_orders_are_read_from_the_golden_file(golden, capsys, leaf):
    """Raising one printed order by 1 turns its cell into a mismatch and exits 1."""
    pristine, use = golden
    data = json.loads(json.dumps(pristine))
    data["printed_invariant_discriminant_orders"][leaf] += 1
    use(data)
    code = main(["verify-table", "cases"])
    cells = json.loads(capsys.readouterr().out)["cells"]
    (cell,) = [c for c in cells if c["cell"] == "invariant discriminant orders"]
    assert (code, cell["status"], cell["computed"]) == (1, "mismatch", [3, 3, 18])
    assert cell["printed"] == data["printed_invariant_discriminant_orders"]


def test_cell_allowlists_by_the_entry_it_is_given(monkeypatch):
    """``_cell`` reads no golden data: a mismatch is allowlisted, with the entry's id and
    note, exactly when the entry declares that computed and printed pair."""
    monkeypatch.setattr(report_mod, "printed_tables", None)
    entry = {"id": "x", "table": "cases", "row": 0, "cell": "c",
             "printed": [1], "computed": [2], "note": "n"}
    assert report_mod._cell("c", [2], [1], entry) == {
        "cell": "c", "status": "allowlisted", "computed": [2], "printed": [1],
        "allowlist_id": "x", "note": "n"}
    assert report_mod._cell("c", [3], [1], entry)["status"] == "mismatch"
    assert report_mod._cell("c", [2], [3], entry)["status"] == "mismatch"
    assert report_mod._cell("c", [2], [1])["status"] == "mismatch"
    assert report_mod._cell("c", [2], [2], entry)["status"] == "pass"


PRINTED = "a printed result fed back in as an input"
DERIVATION_READS = {
    "invariant_gram": "input: the Gram matrix of L_inv",
    "symplectic_group_order": "input: g0 = |Z_3^4 : A_6|, which the bound multiplies",
    "basis_names": "presentation: the letters of each case's name",
    "dual_generator_lifts": "presentation: the pinned generators f1, f2, f3 of A_inv",
    "coinvariant_discriminant_orders": f"{PRINTED}: the domain orders of each gluing",
    "table2": f"{PRINTED}: the gluing of a case is looked up in its row",
    "table2[*].m": f"{PRINTED}: half of the row key (m, name) of a gluing",
    "table2[*].name": f"{PRINTED}: half of the row key (m, name) of a gluing",
    "table2[*].gamma": f"{PRINTED}: the printed gluing matrix",
}


class Recorded(dict):
    """A golden-data dict that adds the path of each key read to ``reads``.

    A list of dicts under a key reads as a list of ``Recorded`` rows, whose
    keys are recorded as ``key[*].field``.
    """

    def __init__(self, data, reads, prefix=""):
        super().__init__(data)
        self.reads, self.prefix = reads, prefix

    def __getitem__(self, key):
        path = self.prefix + key
        self.reads.add(path)
        value = super().__getitem__(key)
        if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            return [Recorded(x, self.reads, f"{path}[*].") for x in value]
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def test_the_derivation_reads_only_its_declared_golden_keys(golden):
    """``classify(2/3/6)`` and ``order_bound_report`` read exactly ``DERIVATION_READS``.

    Every cache of ``classify`` is rebuilt from the recording dict and
    emptied afterwards.  A PR that derives one of the printed results fed
    back in drops its key here.
    """
    pristine, use = golden
    reads = set()
    use(Recorded(pristine, reads))
    for m in (2, 3, 6):
        classify_mod.classify(m)
    assert classify_mod.order_bound_report()["bound"] == 174960
    assert sorted(reads) == sorted(DERIVATION_READS)
