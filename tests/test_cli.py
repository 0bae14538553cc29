import json

import pytest

from posetderiv.cli import main

from conftest import FIXTURE_DIR, GOLDEN_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- fixtures ---------------------------------------------------------------


FIXTURE_NAMES = [
    "rp2",
    "diamond",
    "s5",
    "crown:2",
    "crown:3",
    "chain:1",
    "chain:4",
    "antichain:3",
    "fence:5",
]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trips_through_analyze(capsys, tmp_path, name):
    code, payload = run_cli(capsys, "fixture", name)
    assert code == 0
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(payload))
    code, report = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "conclusiveness" in report


def test_fixture_rp2_shape(capsys):
    code, payload = run_cli(capsys, "fixture", "rp2")
    assert code == 0
    assert len(payload["elements"]) == 13
    assert len(payload["covers"]) == 24
    assert ["n1", "a1"] in payload["covers"]


def test_fixture_table1_values(capsys):
    code, payload = run_cli(capsys, "fixture", "table1")
    assert code == 0
    assert payload["ring"] == "mod:2"
    assert len(payload["cover_values"]) == 24
    ones = {tuple(t[:2]) for t in payload["cover_values"] if t[2] == 1}
    assert ones == {
        ("a1", "m1"),
        ("a5", "m4"),
        ("n1", "a1"),
        ("n1", "a3"),
        ("n3", "a1"),
        ("n3", "a4"),
        ("n3", "a5"),
    }


def test_fixture_crown3(capsys):
    code, payload = run_cli(capsys, "fixture", "crown:3")
    assert code == 0
    assert len(payload["elements"]) == 6
    assert len(payload["covers"]) == 6


def test_fixture_unknown(capsys):
    code, payload = run_cli(capsys, "fixture", "moebius")
    assert code == 2
    assert "error" in payload


def test_fixture_is_deterministic(capsys):
    _, first = run_cli(capsys, "fixture", "rp2")
    _, second = run_cli(capsys, "fixture", "rp2")
    assert first == second


# -- analyze -----------------------------------------------------------------


def test_analyze_rp2(capsys):
    code, report = run_cli(
        capsys,
        "analyze",
        str(FIXTURE_DIR / "rp2.json"),
        "--ring",
        "q",
        "--ring",
        "gf:2",
    )
    assert code == 0
    assert report["homology"] == {"dim": 1, "betti": 0, "torsion": [2]}
    by_ring = {r["ring"]: r for r in report["rings"]}
    assert by_ring["q"]["outer_exists"] is False
    assert by_ring["gf:2"]["outer_exists"] is True


def test_analyze_chain_soluble(capsys):
    code, report = run_cli(capsys, "analyze", str(FIXTURE_DIR / "chain4.json"))
    assert code == 0
    assert report["conclusiveness"]["soluble"] is True


def test_analyze_broken_file(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"elements": [')
    code, payload = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in payload


def test_analyze_missing_file(capsys):
    code, payload = run_cli(capsys, "analyze", "no-such-file.json")
    assert code == 2
    assert "error" in payload


def test_analyze_rejects_composite_mod_rank(capsys):
    code, payload = run_cli(
        capsys, "analyze", str(FIXTURE_DIR / "rp2.json"), "--ring", "mod:6"
    )
    assert code == 2
    assert "homology" in payload["error"]


def test_analyze_unreduced_input_needs_flag(capsys, tmp_path):
    obj = {"elements": ["x", "y", "z"], "covers": [["x", "y"], ["y", "z"], ["x", "z"]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    code, payload = run_cli(capsys, "analyze", str(path))
    assert code == 2
    code, report = run_cli(capsys, "analyze", str(path), "--reduce")
    assert code == 0
    assert report["poset"]["stats"]["edge_count"] == 2


def _stacked_diamonds_file(tmp_path, levels):
    # x0 < {a0,b0} < x1 < ...; 2**levels monotone paths bottom to top
    elements = []
    covers = []
    for i in range(levels):
        elements += [f"x{i}", f"a{i}", f"b{i}"]
        covers += [
            [f"x{i}", f"a{i}"],
            [f"x{i}", f"b{i}"],
            [f"a{i}", f"x{i + 1}"],
            [f"b{i}", f"x{i + 1}"],
        ]
    elements.append(f"x{levels}")
    path = tmp_path / f"diamonds{levels}.json"
    path.write_text(json.dumps({"elements": elements, "covers": covers}))
    return path


def test_stacked_diamonds_exit_zero_without_path_limit(capsys, tmp_path):
    # 16384 cover paths between the ends; the relations never list them,
    # and homology runs on the core, a single point
    deep = str(_stacked_diamonds_file(tmp_path, 14))
    code, report = run_cli(capsys, "analyze", deep)
    assert code == 0
    assert report["conclusiveness"]["soluble"] is True
    with pytest.raises(SystemExit) as exc:
        main(["--path-limit", "3", "analyze", deep])
    assert exc.value.code == 2


def test_analyze_witness_flag(capsys):
    code, report = run_cli(
        capsys,
        "analyze",
        str(FIXTURE_DIR / "rp2.json"),
        "--ring",
        "gf:2",
        "--witness",
    )
    assert code == 0
    witness = report["witness"]
    assert witness["ring"] == "mod:2"
    assert len(witness["cover_values"]) == 24


def test_analyze_reports_table2_conflict_for_rp2(capsys):
    code, report = run_cli(capsys, "analyze", str(FIXTURE_DIR / "rp2.json"))
    assert code == 0
    assert report["criteria"]["table2_case"] == 15
    assert any("case 15" in c for c in report["conflicts"])


# -- derivation --------------------------------------------------------------


def test_derivation_verify_table1(capsys):
    code, payload = run_cli(
        capsys,
        "derivation",
        "verify",
        str(FIXTURE_DIR / "rp2.json"),
        str(FIXTURE_DIR / "table1.json"),
        "--ring",
        "mod:2",
    )
    assert code == 0
    assert payload == {"transitive": True, "potential": False, "phi": None}


def test_derivation_verify_inconsistent(capsys, tmp_path):
    func = {
        "ring": "mod:2",
        "cover_values": [["x", "a", 1], ["a", "y", 0], ["x", "b", 0], ["b", "y", 0]],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(func))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "diamond.json"), str(path)
    )
    assert code == 0
    assert payload["transitive"] is False


def test_derivation_verify_potential(capsys, tmp_path):
    func = {
        "ring": "q",
        "cover_values": [["c1", "c2", 2], ["c2", "c3", 3], ["c3", "c4", "1/2"]],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(func))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "chain4.json"), str(path)
    )
    assert code == 0
    assert payload["transitive"] and payload["potential"]
    assert payload["phi"] == {"c1": "0", "c2": "2", "c3": "5", "c4": "11/2"}


def test_derivation_verify_missing_edge(capsys, tmp_path):
    func = {"ring": "mod:2", "cover_values": [["x", "a", 1]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(func))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "diamond.json"), str(path)
    )
    assert code == 2
    assert "error" in payload


def test_derivation_witness_rp2(capsys):
    code, payload = run_cli(
        capsys, "derivation", "witness", str(FIXTURE_DIR / "rp2.json"), "--prime", "2"
    )
    assert code == 0
    assert payload["witness"]["ring"] == "mod:2"
    code, payload = run_cli(
        capsys, "derivation", "witness", str(FIXTURE_DIR / "rp2.json"), "--prime", "3"
    )
    assert code == 0
    assert payload["witness"] is None


# -- other commands -----------------------------------------------------------


def test_homology_command(capsys):
    code, payload = run_cli(
        capsys, "homology", str(FIXTURE_DIR / "rp2.json"), "--euler"
    )
    assert code == 0
    assert payload["homology"] == {"dim": 1, "betti": 0, "torsion": [2]}
    assert payload["euler_characteristic"] == 1


def test_core_command(capsys):
    code, payload = run_cli(capsys, "core", str(FIXTURE_DIR / "chain4.json"))
    assert code == 0
    assert len(payload["elements"]) == 1
    assert "canonical_sha256" in payload


def test_crowns_command(capsys):
    code, payload = run_cli(capsys, "crowns", str(FIXTURE_DIR / "crown2.json"))
    assert code == 0
    assert payload["crowns_found"] == 1
    assert payload["all_have_join_or_meet"] is False
    assert payload["crowns"][0]["join"] is None
    assert payload["crowns"][0]["meet"] is None


def test_criteria_command(capsys):
    code, payload = run_cli(capsys, "criteria", str(FIXTURE_DIR / "rp2.json"))
    assert code == 0
    assert payload["criteria"]["table2_case"] == 15
    assert payload["stats"]["vertex_count"] == 13


def test_sweep_command(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, payload = run_cli(capsys, "sweep", "--max-n", "4", "--out", str(out))
    assert code == 0
    assert payload == {"written": str(out), "ok": True}
    report = json.loads(out.read_text())
    assert report["counts_by_n"] == [[1, 1], [2, 2], [3, 5], [4, 16]]
    assert report["inconclusive_found"] == []


def test_sweep_size_guard(capsys):
    code, payload = run_cli(capsys, "sweep", "--max-n", "9")
    assert code == 2
    assert "error" in payload


def test_sweep_exit_code_on_identity_failure(capsys, monkeypatch):
    import posetderiv.survey as survey

    real = survey._analyze_payload

    def broken(payload):
        record = real(payload)
        record["identity_ok"] = False
        return record

    monkeypatch.setattr(survey, "_analyze_payload", broken)
    code, payload = run_cli(capsys, "sweep", "--max-n", "2")
    assert code == 4
    assert payload["identity_failures"]


def test_analyze_exit_code_on_identity_failure(capsys, monkeypatch):
    import posetderiv.report as report

    # no relations: der = E over every field, which H1 of rp2 contradicts
    monkeypatch.setattr(report, "relation_divisors", lambda P: ())
    code, payload = run_cli(
        capsys, "analyze", str(FIXTURE_DIR / "rp2.json"), "--ring", "q", "--ring", "gf:2"
    )
    assert code == 4
    failed = [c for c in payload["conflicts"] if c.startswith(report.IDENTITY_CONFLICT)]
    assert len(failed) == 2
    assert failed[0].startswith(f"{report.IDENTITY_CONFLICT} q: der - pot = 12,")
    assert failed[1].startswith(f"{report.IDENTITY_CONFLICT} gf:2: der - pot = 12,")
    assert any("case 15" in c for c in payload["conflicts"])


def test_homology_command_other_dims(capsys):
    code, payload = run_cli(
        capsys, "homology", str(FIXTURE_DIR / "rp2.json"), "--dim", "0"
    )
    assert code == 0
    assert payload["homology"] == {"dim": 0, "betti": 1, "torsion": []}
    code, payload = run_cli(
        capsys, "homology", str(FIXTURE_DIR / "rp2.json"), "--dim", "2"
    )
    assert code == 0
    assert payload["homology"]["dim"] == 2


def test_identifier_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["a", "b\x01"], "covers": []}))
    code, payload = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in payload
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"elements": [""], "covers": []}))
    code, payload = run_cli(capsys, "analyze", str(empty))
    assert code == 2


# -- golden reports -----------------------------------------------------------


@pytest.mark.parametrize("name", ["rp2", "crown2", "diamond", "chain4"])
def test_golden_analyze_reports(capsys, name):
    code, report = run_cli(capsys, "analyze", str(FIXTURE_DIR / f"{name}.json"))
    assert code == 0
    expected = json.loads((GOLDEN_DIR / f"{name}.analyze.json").read_text())
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)
