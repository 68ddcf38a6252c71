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
    ("allowlist", 1, "row"): "the existence-walkthrough cell finds its allowlist entry by id, "
                             "so that entry's row is not read",
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
