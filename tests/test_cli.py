import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import latglue
from latglue.cli import main
from latglue.report import (
    classify_markdown,
    classify_report,
    orbit_report,
    render_json,
    verify_cases_report,
    verify_orbits_report,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_m2(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 2
    assert len(report["cases"]) == 5
    for case in report["cases"]:
        assert set(case) >= {"L", "n", "T_gram", "index", "phi", "order",
                             "gamma", "psi_bar", "div"}


def test_classify_m3_and_m6(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "3")
    assert code == 0 and len(json.loads(out)["cases"]) == 1
    code, out, _ = run_cli(capsys, "classify", "--m", "6")
    assert code == 0 and len(json.loads(out)["cases"]) == 1


def test_classify_invalid_m_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--m", "5"])
    assert info.value.code == 2


def test_classify_markdown_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "2", "--format", "md")
    assert code == 0
    assert out.startswith("# Polarization classes")
    assert "| 2e-f |" in out
    assert "Excluded candidates" in out


def test_verify_tables_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-table", "orbits")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(capsys, "verify-table", "cases")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass-with-allowlisted"
    allowlisted = [c for c in report["cells"] if c["status"] == "allowlisted"]
    assert {c["allowlist_id"] for c in allowlisted} == {
        "table2-row5-psi-entry-0-0",
        "existence-glue-generator",
    }


def test_verify_detects_corruption(capsys, monkeypatch):
    """A corrupted golden matrix must produce a mismatch cell and exit 1.

    That holds also for a further change to an allowlisted printed cell: an
    entry excuses only the printed value it declares.
    """
    import latglue.classify as classify_mod
    import latglue.report as report_mod

    pristine = classify_mod.printed_tables()
    phi = json.loads(json.dumps(pristine["table2"][0]["phi"]))
    phi[0][0] = 7
    for row, key, value, cell_name in (
        (0, "phi", phi, "isometry"),
        (4, "psi_bar", [[7, 7, 7], [7, 7, 7], [7, 7, 7]], "row 4 (L=2e-f, m=2): psi_bar"),
    ):
        corrupted = json.loads(json.dumps(pristine))
        corrupted["table2"][row][key] = value
        monkeypatch.setattr(classify_mod, "printed_tables", lambda: corrupted)
        monkeypatch.setattr(report_mod, "printed_tables", lambda: corrupted)
        report = verify_cases_report()
        assert report["status"] == "mismatch"
        bad = [c for c in report["cells"] if c["status"] == "mismatch"]
        assert any(cell_name in c["cell"] and "allowlist_id" not in c for c in bad)
        code, _, _ = run_cli(capsys, "verify-table", "cases")
        assert code == 1


def test_inconsistent_golden_data_is_input_error(capsys, monkeypatch):
    """A non-injective printed gluing is an input error (exit 2), not a crash."""
    import latglue.classify as classify_mod
    import latglue.report as report_mod

    corrupted = json.loads(json.dumps(classify_mod.printed_tables()))
    corrupted["table2"][0]["gamma"] = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    monkeypatch.setattr(classify_mod, "printed_tables", lambda: corrupted)
    monkeypatch.setattr(report_mod, "printed_tables", lambda: corrupted)
    code, _, err = run_cli(capsys, "verify-table", "cases")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_corrupted_gluing_after_a_clean_run_is_still_an_input_error(capsys, monkeypatch):
    """Cached gluings are keyed on the matrix and orders read now, not on (m, name)."""
    import latglue.classify as classify_mod
    import latglue.report as report_mod

    code, _, err = run_cli(capsys, "verify-table", "cases")
    assert code == 0 and err == ""
    pristine = classify_mod.printed_tables()
    row = pristine["table2"][0]
    assert classify_mod.gluing_map(row["m"], row["name"]) is classify_mod.gluing_map(
        row["m"], row["name"])

    def corrupt(path, value):
        data = json.loads(json.dumps(pristine))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data

    for corrupted in (
        corrupt(("table2", 0, "gamma"), [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        corrupt(("table2", 0, "gamma", 2, 2), row["gamma"][2][2] + 3),
        corrupt(("coinvariant_discriminant_orders",), [3, 3, 3]),
    ):
        monkeypatch.setattr(classify_mod, "printed_tables", lambda: corrupted)
        monkeypatch.setattr(report_mod, "printed_tables", lambda: corrupted)
        code, out, err = run_cli(capsys, "verify-table", "cases")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    monkeypatch.undo()
    assert run_cli(capsys, "verify-table", "cases")[0] == 0


def test_lattice_info(capsys):
    code, out, _ = run_cli(
        capsys, "lattice-info", "--gram", "[[6,3,0],[3,6,0],[0,0,6]]"
    )
    assert code == 0
    report = json.loads(out)
    assert report["determinant"] == 162
    assert report["signature"] == [3, 0]
    assert report["even"] is True
    assert report["isometry_group_order"] == 24
    assert report["discriminant_orders"] == [3, 3, 18]

    code, out, _ = run_cli(capsys, "lattice-info", "--gram", "[[2,1],[1,2]]")
    report = json.loads(out)
    assert report["determinant"] == 3
    assert report["isometry_group_order"] == 12


def test_lattice_info_says_why_the_group_order_is_missing(capsys):
    two_i5 = json.dumps([[2 if i == j else 0 for j in range(5)] for i in range(5)])
    code, out, _ = run_cli(capsys, "lattice-info", "--gram", two_i5)
    assert code == 0
    report = json.loads(out)
    assert "isometry_group_order" not in report
    assert "rank 5" in report["skipped"]["isometry_group_order"]

    code, out, _ = run_cli(capsys, "lattice-info", "--gram", "[[2,1],[1,-2]]")
    assert code == 0
    report = json.loads(out)
    assert report["signature"] == [1, 1]
    assert "isometry_group_order" not in report
    assert "indefinite" in report["skipped"]["isometry_group_order"]

    code, out, _ = run_cli(capsys, "lattice-info", "--gram", "[[-2,1],[1,-2]]")
    report = json.loads(out)
    assert report["isometry_group_order"] == 12 and "skipped" not in report


def test_lattice_info_rejects_degenerate(capsys):
    code, _, err = run_cli(capsys, "lattice-info", "--gram", "[[0]]")
    assert code == 2 and "degenerate" in err


def test_lattice_info_rejects_floats(capsys):
    code, _, err = run_cli(capsys, "lattice-info", "--gram", "[[2.0]]")
    assert code == 2


def test_lattice_info_from_file(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text('{"gram": [[2]]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "lattice-info", "--file", str(path))
    assert code == 0 and json.loads(out)["determinant"] == 2


@pytest.mark.parametrize("command", [["lattice-info"], ["orbits", "--norm", "2"]])
def test_gram_and_file_exclude_each_other(capsys, tmp_path, command):
    path = tmp_path / "gram.json"
    path.write_text("[[2]]", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main([*command, "--gram", "[[2]]", "--file", str(path)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith(f"usage: latglue {command[0]} ")
    assert "argument --file: not allowed with argument --gram" in err


@pytest.mark.parametrize("command", [["lattice-info"], ["orbits", "--norm", "6"]])
@pytest.mark.parametrize("option", ["--gram", "--file"])
def test_empty_gram_or_file_is_an_input_error(capsys, command, option):
    """An empty --gram or --file is read (and refused), not taken as absent."""
    code, out, err = run_cli(capsys, *command, option, "")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_orbits_default_lattice(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--norm", "6")
    assert code == 0
    report = json.loads(out)
    assert report["orbit_count"] == 3
    sizes = sorted(o["size"] for o in report["orbits"])
    assert sizes == [2, 2, 4]
    for orbit in report["orbits"]:
        assert set(orbit) >= {"norm", "representative", "size", "members"}

    code, out, _ = run_cli(capsys, "orbits", "--norm", "24")
    assert json.loads(out)["orbit_count"] == 5


def test_orbits_full_group(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--norm", "6", "--full-group")
    report = json.loads(out)
    assert report["group_order"] == 24
    assert report["orbit_count"] == 2


def test_orbits_norm_outside_six_z(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--norm", "7")
    assert code == 0
    report = json.loads(out)
    assert report["orbit_count"] == 0
    assert "multiples of 6" in report["warning"]


def test_orbits_norm_zero_is_the_zero_vector(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--norm", "0")
    assert code == 0
    report = json.loads(out)
    assert "warning" not in report
    assert report["orbit_count"] == 1
    assert report["orbits"][0]["members"] == [[0, 0, 0]]


def test_orbits_custom_gram(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--norm", "2", "--gram", "[[2,1],[1,2]]")
    report = json.loads(out)
    assert report["group_order"] == 12
    assert report["orbit_count"] == 1
    assert report["orbits"][0]["size"] == 6


def test_verify_markdown_output(capsys):
    code, out, _ = run_cli(capsys, "verify-table", "orbits", "--format", "md")
    assert code == 0
    assert out.startswith("# verify-table orbits")
    assert "overall: pass" in out
    code, out, _ = run_cli(capsys, "verify-table", "cases", "--format", "md")
    assert code == 0
    assert "allowlisted" in out
    assert "overall: pass-with-allowlisted" in out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_reports_are_byte_stable():
    first = render_json(classify_report(2))
    second = render_json(classify_report(2))
    assert first == second
    assert render_json(verify_orbits_report()) == render_json(verify_orbits_report())
    assert render_json(orbit_report(18)) == render_json(orbit_report(18))
    assert classify_markdown(classify_report(3)) == classify_markdown(classify_report(3))


def test_classify_report_excluded_reasons():
    report = classify_report(3)
    reasons = {e["name"]: e["reason"] for e in report["excluded"]}
    assert reasons["3h"] == "not primitive"
    assert report["assumptions"]


# -- adversarial inputs, each run as a fresh CLI process ----------------------

CASE_BUDGET_S = 10.0
# Nested deeper than any supported interpreter lets the JSON decoder go (the
# C recursion limit is 10,000 on Python 3.13), yet under the 128 KiB that
# Linux allows one command-line argument.
DEEP_JSON = "[" * 50_000 + "]" * 50_000


def cli_process(argv, package_root):
    """Run ``python -m latglue.cli`` once (one child at a time) and time it."""
    env = dict(os.environ, PYTHONPATH=str(package_root))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "latglue.cli", *argv],
        capture_output=True, text=True, env=env, timeout=CASE_BUDGET_S,
    )
    return proc, time.perf_counter() - start


def adversarial_grams(rng):
    """Seeded malformed, indefinite, degenerate and huge-entry Gram inputs."""
    valid = "[[6,3,0],[3,6,0],[0,0,6]]"
    cut = rng.randrange(1, len(valid) - 1)
    pos = rng.randrange(len(valid))
    yield valid[:cut]
    yield valid[:pos] + rng.choice("x]{,.e") + valid[pos:]
    yield rng.choice(["[]", "{}", "null", '"gram"', "[[1,2],[3]]", '{"gram": 5}', "[[2.5]]"])
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    yield json.dumps([[2 * a, 0], [0, -2 * b]])
    yield json.dumps([[-2 * a, 1], [1, -2 * b - 2]])
    v = [rng.randint(-3, 3) or 1 for _ in range(3)]
    yield json.dumps([[x * y for y in v] for x in v])
    big = 10**21
    yield json.dumps([[big, 1], [1, 2]])
    yield json.dumps([[big, big - 1], [big - 1, big]])
    yield DEEP_JSON
    yield f"[[{rng.randint(1, 9)}{'0' * 4999}]]"  # past Python's int-digit limit


def corrupt_golden(rng, text, kind):
    """A seeded corruption of the golden JSON.

    Truncated, a number changed or a key dropped in a case row, or a printed
    isometry generator scaled so that it no longer preserves the Gram matrix.
    """
    if kind == "truncate":
        return text[: rng.randrange(1, len(text))]
    data = json.loads(text)
    if kind == "generator":
        rho = data["isometry_generators_row_convention"][rng.choice(["rho1", "rho2", "rho3"])]
        rho[rng.randrange(3)] = [2 * x for x in rho[rng.randrange(3)]]
        return json.dumps(data)
    row = rng.choice(data["table2"])
    if kind == "number":
        cell = rng.choice(["phi", "gamma", "psi_bar"])
        row[cell][rng.randrange(3)][rng.randrange(3)] = rng.randint(-9, 9)
    else:
        del row[rng.choice(sorted(row))]
    return json.dumps(data)


def assert_clean_exit(proc, elapsed, argv):
    assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    assert elapsed < CASE_BUDGET_S, (argv, elapsed)
    if proc.returncode == 2:
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, (argv, proc.stderr)


@pytest.mark.parametrize("seed", [1, 2])
def test_adversarial_inputs_exit_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    package = Path(latglue.__file__).resolve().parent
    exits = []
    for gram in adversarial_grams(rng):
        for argv in (["lattice-info", "--gram", gram], ["orbits", "--norm", "2", "--gram", gram]):
            proc, elapsed = cli_process(argv, package.parent)
            assert_clean_exit(proc, elapsed, argv)
            assert gram is not DEEP_JSON or "invalid JSON" in proc.stderr, (argv[0], proc.stderr)
            exits.append(proc.returncode)
    assert 0 in exits and 2 in exits

    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes("[[2]]".encode("utf-16"))  # starts with the bytes ff fe
    for argv in (["lattice-info", "--file", str(not_utf8)],
                 ["orbits", "--norm", "6", "--file", str(not_utf8)]):
        proc, elapsed = cli_process(argv, package.parent)
        assert_clean_exit(proc, elapsed, argv)
        assert proc.returncode == 2 and "is not UTF-8" in proc.stderr, (argv, proc.stderr)

    copy = tmp_path / "latglue"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    golden = copy / "data" / "printed_tables.json"
    pristine = golden.read_text("utf-8")
    for kind in ("truncate", "number", "drop", "generator"):
        golden.write_text(corrupt_golden(rng, pristine, kind), "utf-8")
        argv = ["verify-table", "cases"]
        proc, elapsed = cli_process(argv, tmp_path)
        assert_clean_exit(proc, elapsed, argv + [kind])
    assert proc.returncode == 2 and "printed generator rho" in proc.stderr, proc.stderr
    golden.write_bytes(pristine.encode("utf-16"))
    proc, elapsed = cli_process(["verify-table", "cases"], tmp_path)
    assert_clean_exit(proc, elapsed, ["verify-table", "cases", "utf-16"])
    assert proc.returncode == 2 and "golden data is not UTF-8" in proc.stderr, proc.stderr
    golden.write_text(DEEP_JSON, "utf-8")
    proc, elapsed = cli_process(["verify-table", "cases"], tmp_path)
    assert_clean_exit(proc, elapsed, ["verify-table", "cases", "deep"])
    assert proc.returncode == 2 and "golden data is not valid JSON" in proc.stderr, proc.stderr


def test_huge_entries_answer_or_refuse():
    package_root = Path(latglue.__file__).resolve().parent.parent
    big = 10**21
    proc, _ = cli_process(["lattice-info", "--gram", json.dumps([[big, 1], [1, 2]])], package_root)
    assert proc.returncode == 0 and json.loads(proc.stdout)["isometry_group_order"] == 4
    level = json.dumps([[big, big - 1], [big - 1, big]])
    proc, _ = cli_process(["lattice-info", "--gram", level], package_root)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "nodes (limit 1000000)" in proc.stderr
    # a 6,001-digit determinant and a node bound of over 6,000 digits are past
    # Python's int-digit limit: both refuse in one line instead of printing
    huge = 2 * 10**3000
    proc, _ = cli_process(["lattice-info", "--gram", f"[[{huge}, 1], [1, {huge}]]"], package_root)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    two_i4 = json.dumps([[2 * (i == j) for j in range(4)] for i in range(4)])
    proc, _ = cli_process(["orbits", "--norm", "9" * 4000, "--gram", two_i4], package_root)
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1
    assert "may visit more than 10^6000 nodes (limit 1000000)" in proc.stderr, proc.stderr[-200:]
    # only the int-digit limit is an input error; any other ValueError is a bug
    circular = {}
    circular["self"] = circular
    with pytest.raises(ValueError, match="^Circular reference"):
        render_json(circular)


COSTLY_IMPORTS = ("dataclasses", "inspect", "importlib.resources", "typing")


def test_cli_start_up_imports_stay_small():
    """Importing and running the CLI loads none of the modules that dominate start-up.

    Run under ``-S`` so that no site-packages ``.pth`` file imports them first.
    """
    src = Path(latglue.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import latglue.cli\n"
        f"costly = {COSTLY_IMPORTS!r}\n"
        "print(sorted(m for m in costly if m in sys.modules))\n"
        "latglue.cli.main(['verify-table', 'cases'])\n"
        "sys.stderr.write(repr(sorted(m for m in costly if m in sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=CASE_BUDGET_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[]\n") and proc.stderr == "[]", (proc.stdout[:200], proc.stderr)
