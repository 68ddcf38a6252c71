import json

import pytest

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
    """A corrupted golden matrix must produce a mismatch cell and exit 1."""
    import latglue.classify as classify_mod

    pristine = classify_mod.printed_tables()
    corrupted = json.loads(json.dumps(pristine))
    corrupted["table2"][0]["phi"][0][0] = 7
    monkeypatch.setattr(classify_mod, "printed_tables", lambda: corrupted)
    import latglue.report as report_mod

    monkeypatch.setattr(report_mod, "printed_tables", lambda: corrupted)
    report = verify_cases_report()
    assert report["status"] == "mismatch"
    bad = [c for c in report["cells"] if c["status"] == "mismatch"]
    assert any("isometry" in c["cell"] for c in bad)
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
