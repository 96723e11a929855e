"""End-to-end command line checks: verdict text, exit codes, JSON envelopes.

Everything runs in process through main(argv) so capsys sees the output.
"""

import json

import pytest

from socleq.cli import main
from socleq.experiments import socle_record
from socleq.field import QQ
from socleq.report import validate_report
from socleq.zoo import build


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_true_verdict_exits_zero(capsys):
    code, out, _ = run(["check", "i2qi", "--ring", "zoo:almost_dvr", "--q", "Y"],
                       capsys)
    assert code == 0
    assert "I^2 = QI on almost_dvr: true" in out


def test_check_false_verdict_exits_one_and_writes_json(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run(["check", "i2qi", "--ring", "zoo:almost_dvr",
                        "--q", "Y^3", "--json", str(dest)], capsys)
    assert code == 1
    assert "false" in out
    assert "witness outside QI" in out
    payload = json.loads(dest.read_text())
    validate_report(payload)
    assert payload["status"] == "fail"
    rec = payload["experiments"][0]["records"][0]
    assert rec["equal"] is False
    assert rec["witness"]


def test_check_q_equal_to_m_reports_unit_socle(capsys):
    code, out, _ = run(["check", "i2qi", "--ring", "zoo:regular2", "--q", "X, Y"],
                       capsys)
    assert code == 1
    assert "(I = A)" in out


def test_check_accepts_ring_files_with_named_ideals(tmp_path, capsys):
    text = build("almost_dvr", QQ).to_ring_text() + "ideal deep = Y^3\n"
    path = tmp_path / "r.ring"
    path.write_text(text)
    code_named, out_named, _ = run(
        ["check", "i2qi", "--ring", str(path), "--q", "deep"], capsys)
    code_raw, out_raw, _ = run(
        ["check", "i2qi", "--ring", str(path), "--q", "Y^3"], capsys)
    assert code_named == code_raw == 1
    assert out_named.replace(str(path), "R") == out_raw.replace(str(path), "R")


def test_field_flag_changes_the_reported_field(tmp_path, capsys):
    dest = tmp_path / "out.json"
    run(["check", "i2qi", "--ring", "zoo:almost_dvr", "--q", "Y",
         "--field", "fp:101", "--json", str(dest)], capsys)
    assert json.loads(dest.read_text())["field"] == "fp:101"


def test_rednum_prints_the_value(capsys):
    code, out, _ = run(["rednum", "--ring", "zoo:semigroup3", "--q", "X1"], capsys)
    assert code == 0
    assert out.strip().endswith(": 2")


def test_rednum_json_envelope(tmp_path, capsys):
    dest = tmp_path / "rednum.json"
    code, _, _ = run(["rednum", "--ring", "zoo:semigroup3", "--q", "X1",
                      "--json", str(dest)], capsys)
    assert code == 0
    payload = json.loads(dest.read_text())
    validate_report(payload)
    assert payload["status"] == "pass"
    assert payload["experiments"][0]["records"][0]["reduction_number"] == 2


def test_check_json_record_is_the_suites_record(tmp_path, capsys):
    dest = tmp_path / "out.json"
    run(["check", "i2qi", "--ring", "zoo:almost_dvr", "--q", "Y^3",
         "--json", str(dest)], capsys)
    loc = build("almost_dvr", QQ).local
    want = socle_record(loc, loc.ideal("Y^3"), "almost_dvr")
    assert json.loads(dest.read_text())["experiments"][0]["records"] == [want]


def test_invariants_json_envelope(tmp_path, capsys):
    dest = tmp_path / "inv.json"
    code, out, _ = run(["invariants", "--ring", "zoo:triple_line",
                        "--json", str(dest)], capsys)
    assert code == 0
    assert "multiplicity = 3" in out
    payload = json.loads(dest.read_text())
    validate_report(payload)
    rec = payload["experiments"][0]["records"][0]
    assert rec["dim"] == 1
    assert rec["h0_gens"] == ["X^2"]


def test_zoo_list_names_every_ring(capsys):
    code, out, _ = run(["zoo", "list"], capsys)
    assert code == 0
    for ident in ("almost_dvr", "semigroup3", "two_planes", "regular1"):
        assert ident in out
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "list", "--cap", "3"])
    assert exc.value.code == 2


def test_zoo_build_round_trips_through_check(tmp_path, capsys):
    code, out, _ = run(["zoo", "build", "semigroup3"], capsys)
    assert code == 0
    path = tmp_path / "sg3.ring"
    path.write_text(out)
    # the file-based run must match the zoo-based run verdict for verdict
    code_file, out_file, _ = run(
        ["check", "i2qi", "--ring", str(path), "--q", "X1"], capsys)
    code_zoo, out_zoo, _ = run(
        ["check", "i2qi", "--ring", "zoo:semigroup3", "--q", "X1"], capsys)
    assert code_file == code_zoo == 1
    assert out_file.replace(str(path), "semigroup3") == out_zoo


def test_zoo_build_without_ident_is_an_input_error(capsys):
    code, _, err = run(["zoo", "build"], capsys)
    assert code == 2
    assert "zoo build needs an ident" in err


def test_unknown_zoo_ring_writes_error_envelope(tmp_path, capsys):
    dest = tmp_path / "err.json"
    code, _, err = run(["check", "i2qi", "--ring", "zoo:nope", "--q", "X",
                        "--json", str(dest)], capsys)
    assert code == 2
    assert err.startswith("error:")
    payload = json.loads(dest.read_text())
    validate_report(payload)
    assert payload["status"] == "error"


def test_missing_ring_file_exits_two(capsys):
    code, _, err = run(["check", "i2qi", "--ring", "/no/such.ring", "--q", "X"],
                       capsys)
    assert code == 2
    assert "error:" in err


def test_repro_only_reports_and_validates(tmp_path, capsys):
    dest = tmp_path / "rep.json"
    code, out, _ = run(["repro", "--only", "almost_dvr_criterion",
                        "--json", str(dest)], capsys)
    assert code == 0
    assert "almost_dvr_criterion" in out
    assert "overall: pass" in out
    payload = json.loads(dest.read_text())
    validate_report(payload)
    assert payload["field"] == "fp:32003"
    assert [e["name"] for e in payload["experiments"]] == ["almost_dvr_criterion"]
    with pytest.raises(SystemExit) as exc:
        main(["repro", "--step-budget", "5"])
    assert exc.value.code == 2


def test_verify_split_small_run(tmp_path, capsys):
    dest = tmp_path / "split.json"
    code, out, _ = run(["verify-split", "--instances", "10",
                        "--json", str(dest)], capsys)
    assert code == 0
    assert "10 verified" in out
    assert "0 violations" in out
    payload = json.loads(dest.read_text())
    validate_report(payload)
    assert payload["experiments"][0]["records"][0]["verified"] >= 10
