import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import posetderiv
from posetderiv.cli import main
from posetderiv.fixtures import fixture_json

from conftest import FIXTURE_DIR, GOLDEN_DIR

# the package's `homology` attribute is the function, not the module
HOMOLOGY = importlib.import_module("posetderiv.homology")


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


@pytest.mark.parametrize("family", ["crown", "chain", "antichain", "fence"])
def test_fixture_sizes_above_4096_exit_2(capsys, family):
    # chain:N alone holds about N * N bits of order masks
    code, payload = run_cli(capsys, "fixture", f"{family}:4097")
    assert code == 2
    assert payload == {"error": f"fixture '{family}:4097' needs size <= 4096"}


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


def test_non_utf8_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    rp2 = str(FIXTURE_DIR / "rp2.json")
    for argv in (["analyze", str(bad)], ["derivation", "verify", rp2, str(bad)]):
        code, payload = run_cli(capsys, *argv)
        assert code == 2
        assert "UTF-8" in payload["error"]


def test_too_deeply_nested_input_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, payload = run_cli(capsys, "analyze", str(deep))
    assert code == 2
    assert "nested too deeply" in payload["error"]


def test_closed_stdout_exits_quietly_with_the_command_code(tmp_path):
    # `posetderiv ... | grep -q` may close the pipe before the report is
    # written; the command must neither print a traceback nor change its
    # exit code
    src = str(Path(posetderiv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv, expected in (
            (["fixture", "rp2"], 0),
            (["analyze", str(tmp_path / "missing.json")], 2),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "posetderiv", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
            assert (proc.returncode, proc.stderr.decode()) == (expected, "")
    finally:
        os.close(write_end)


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


def _product(P, Q):
    elements = [f"{p}.{q}" for p in P["elements"] for q in Q["elements"]]
    covers = [[f"{a}.{q}", f"{b}.{q}"] for a, b in P["covers"] for q in Q["elements"]]
    covers += [[f"{p}.{a}", f"{p}.{b}"] for p in P["elements"] for a, b in Q["covers"]]
    return {"elements": elements, "covers": covers}


def _disjoint_diamonds(k):
    elements = [f"{c}{i}" for i in range(k) for c in "blrt"]
    covers = [[f"{lo}{i}", f"{hi}{i}"] for i in range(k) for lo, hi in ("bl", "br", "lt", "rt")]
    return {"elements": elements, "covers": covers}


def _relabeled(P, seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(len(P["elements"]))]
    rng.shuffle(names)
    rename = dict(zip(P["elements"], names))
    elements = list(names)
    rng.shuffle(elements)
    covers = [[rename[lo], rename[hi]] for lo, hi in P["covers"]]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


SYMMETRIC_INPUTS = {
    "crown:10": fixture_json("crown:10"),
    "torus:3x3": _product(fixture_json("crown:3"), fixture_json("crown:3")),
    "antichain:10": fixture_json("antichain:10"),
    "diamonds:6": _disjoint_diamonds(6),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_INPUTS))
def test_symmetric_inputs_get_one_hash_across_relabelings(capsys, tmp_path, name):
    # each has many automorphisms; the canonical search must prune by them
    hashes = {"analyze": set(), "core": set()}
    start = time.monotonic()
    for seed in range(3):
        path = tmp_path / f"copy{seed}.json"
        path.write_text(json.dumps(_relabeled(SYMMETRIC_INPUTS[name], seed)))
        code, report = run_cli(capsys, "analyze", str(path))
        assert code == 0
        hashes["analyze"].add(report["poset"]["canonical_sha256"])
        code, report = run_cli(capsys, "core", str(path))
        assert code == 0
        hashes["core"].add(report["canonical_sha256"])
    elapsed = time.monotonic() - start
    assert len(hashes["analyze"]) == len(hashes["core"]) == 1
    assert elapsed < 30, f"{name}: 3 analyze + 3 core took {elapsed:.1f}s"


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


def test_main_carries_no_options_between_calls(capsys, tmp_path):
    import posetderiv.cli as cli

    rp2 = str(FIXTURE_DIR / "rp2.json")
    _, report = run_cli(capsys, "analyze", rp2, "--ring", "gf:5")
    assert [r["ring"] for r in report["rings"]] == ["gf:5"]
    _, report = run_cli(capsys, "analyze", rp2)
    assert [r["ring"] for r in report["rings"]] == ["q", "gf:2", "gf:3"]

    unreduced = tmp_path / "p.json"
    unreduced.write_text(
        json.dumps({"elements": ["x", "y", "z"], "covers": [["x", "y"], ["y", "z"], ["x", "z"]]})
    )
    assert run_cli(capsys, "analyze", str(unreduced), "--reduce")[0] == 0
    assert run_cli(capsys, "analyze", str(unreduced))[0] == 2

    _, report = run_cli(capsys, "analyze", rp2, "--witness")
    assert report["witness"] is not None
    _, report = run_cli(capsys, "analyze", rp2)
    assert report["witness"] is None
    # every call in this process shares one parser
    assert cli._build_parser.cache_info().misses == 1


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


def test_derivation_verify_ring_override_needs_an_object(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps([1, 2]))
    code, payload = run_cli(
        capsys,
        "derivation",
        "verify",
        str(FIXTURE_DIR / "diamond.json"),
        str(path),
        "--ring",
        "q",
    )
    assert code == 2
    assert payload == {"error": "function JSON must be an object"}


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


def test_core_command_removes_first_beat_point(capsys, tmp_path):
    # a 2-crown with t above y1 only: y1 and t are both beat points, and
    # removing y1 first (element order) keeps t in the core
    path = tmp_path / "crown_tail.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["x1", "x2", "y1", "y2", "t"],
                "covers": [
                    ["x1", "y1"], ["x1", "y2"], ["x2", "y1"], ["x2", "y2"], ["y1", "t"]
                ],
            }
        )
    )
    code, payload = run_cli(capsys, "core", str(path))
    assert code == 0
    assert payload["elements"] == ["x1", "x2", "y2", "t"]
    assert payload["covers"] == [["x1", "y2"], ["x1", "t"], ["x2", "y2"], ["x2", "t"]]


def _sphere(k):
    # ordinal sum of k two-element antichains: the minimal model of S^(k-1)
    elements = [f"{c}{i}" for i in range(k) for c in "xy"]
    covers = [[f"{a}{i}", f"{b}{i + 1}"] for i in range(k - 1) for a in "xy" for b in "xy"]
    return {"elements": elements, "covers": covers}


@pytest.mark.parametrize(
    "poset, dim, euler",
    [(fixture_json("chain:40"), 1, 1), (_sphere(40), 0, 0)],
    ids=["chain:40", "sphere:40"],
)
def test_homology_euler_builds_no_complex(capsys, tmp_path, monkeypatch, poset, dim, euler):
    real = HOMOLOGY.order_complex

    def spy(P, max_dim):
        # the full complexes have 2**40 - 1 and 3**40 - 1 simplices; only
        # H_dim may build one, up to dimension dim + 1
        assert max_dim <= dim + 1
        return real(P, max_dim)

    monkeypatch.setattr(HOMOLOGY, "order_complex", spy)
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    code, payload = run_cli(capsys, "homology", str(path), "--dim", str(dim), "--euler")
    assert code == 0
    assert payload["euler_characteristic"] == euler


def test_crowns_command(capsys):
    code, payload = run_cli(capsys, "crowns", str(FIXTURE_DIR / "crown2.json"))
    assert code == 0
    assert payload["crowns_found"] == 1
    assert payload["all_have_join_or_meet"] is False
    assert payload["crowns"][0]["join"] is None
    assert payload["crowns"][0]["meet"] is None


def test_crowns_command_rejects_size_below_two(capsys):
    code, payload = run_cli(
        capsys, "crowns", str(FIXTURE_DIR / "rp2.json"), "--max-n", "1"
    )
    assert code == 2
    assert "crown size" in payload["error"]


def test_crowns_walk_has_no_depth_limit(capsys, tmp_path):
    # one crown of 2200 elements: the walk goes 1100 lowers deep
    path = tmp_path / "crown.json"
    path.write_text(json.dumps(fixture_json("crown:1100")))
    code, payload = run_cli(capsys, "crowns", str(path), "--max-n", "1100")
    assert code == 0
    assert payload["crowns_found"] == 1
    assert payload["crowns"][0]["n"] == 1100


@pytest.mark.parametrize("command", ["core", "analyze"])
def test_too_deep_canonical_search_exits_2(capsys, tmp_path, command):
    # the search individualizes 1199 of the 1200 elements, one level each
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(fixture_json("antichain:1200")))
    code, payload = run_cli(capsys, command, str(path))
    assert code == 2
    assert "1200-element poset" in payload["error"]
    assert "recursion limit" in payload["error"]


def test_criteria_command(capsys):
    code, payload = run_cli(capsys, "criteria", str(FIXTURE_DIR / "rp2.json"))
    assert code == 0
    assert payload["criteria"]["table2_case"] == 15
    assert payload["stats"]["vertex_count"] == 13



POSET_FIXTURES = sorted(
    p.name for p in FIXTURE_DIR.glob("*.json") if "elements" in json.loads(p.read_text())
)


def grid_json(a, b):
    elements = [f"{i}.{j}" for i in range(a) for j in range(b)]
    covers = [[f"{i}.{j}", f"{i + 1}.{j}"] for i in range(a - 1) for j in range(b)]
    covers += [[f"{i}.{j}", f"{i}.{j + 1}"] for i in range(a) for j in range(b - 1)]
    return {"elements": elements, "covers": covers}


@pytest.mark.parametrize(
    "source", POSET_FIXTURES + [f"crown:{n}" for n in range(2, 7)] + ["grid:3x3"]
)
def test_crowns_and_criteria_report_the_same_crown_summary(capsys, tmp_path, source):
    if source in POSET_FIXTURES:
        path = FIXTURE_DIR / source
    else:
        path = tmp_path / "poset.json"
        poset = grid_json(3, 3) if source == "grid:3x3" else fixture_json(source)
        path.write_text(json.dumps(poset))
    code, crowns = run_cli(capsys, "crowns", str(path))
    assert code == 0
    code, criteria = run_cli(capsys, "criteria", str(path))
    assert code == 0
    assert criteria["criteria"]["crowns"] == {
        "crowns_found": crowns["crowns_found"],
        "all_have_join_or_meet": crowns["all_have_join_or_meet"],
    }
    assert crowns["crowns_found"] == len(crowns["crowns"])
    if source.startswith("crown:"):
        assert crowns["crowns_found"] >= 1 and not crowns["all_have_join_or_meet"]


def test_sweep_command(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, payload = run_cli(capsys, "sweep", "--max-n", "4", "--out", str(out))
    assert code == 0
    assert payload == {"written": str(out), "ok": True}
    report = json.loads(out.read_text())
    assert report["counts_by_n"] == [[1, 1], [2, 2], [3, 5], [4, 16]]
    assert report["inconclusive_found"] == []


def test_sweep_progress_on_stderr(capsys):
    code = main(["sweep", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["counts_by_n"] == [[1, 1], [2, 2], [3, 5]]
    lines = [line.split() for line in captured.err.splitlines()]
    assert [line[:3] for line in lines] == [
        ["sweep:", "n=1", "classes=1"],
        ["sweep:", "n=2", "classes=2"],
        ["sweep:", "n=3", "classes=5"],
    ]
    fields = [dict(f.split("=") for f in line[3:]) for line in lines]
    elapsed = [float(f["elapsed_s"]) for f in fields]
    assert elapsed == sorted(elapsed) and elapsed[0] >= 0
    assert all(float(f["classes_per_s"]) > 0 for f in fields)


def test_sweep_size_guard(capsys):
    code, payload = run_cli(capsys, "sweep", "--max-n", "9")
    assert code == 2
    assert "error" in payload


def test_sweep_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        code, payload = run_cli(capsys, "sweep", "--max-n", "2", "--jobs", jobs)
        assert code == 2
        assert "at least 1 job" in payload["error"]


def test_sweep_starts_at_most_cpu_count_workers(capsys, monkeypatch):
    import concurrent.futures
    import os

    started = []

    class FakePool:
        # runs in this process, so no worker starts whatever --jobs asks for
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, payload = run_cli(capsys, "sweep", "--max-n", "4", "--jobs", str(10**6))
    assert code == 0
    assert started == [3]
    assert payload["counts_by_n"] == [[1, 1], [2, 2], [3, 5], [4, 16]]


def test_sweep_exit_code_on_identity_failure(capsys, monkeypatch):
    import posetderiv.survey as survey

    real = survey._record

    def broken(job):
        record = real(job)
        record["identity_ok"] = False
        return record

    monkeypatch.setattr(survey, "_record", broken)
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


def test_homology_command_above_the_core_size_builds_nothing(capsys, monkeypatch):
    def refuse(P, max_dim):
        raise AssertionError(f"order complex built up to dimension {max_dim}")

    monkeypatch.setattr(HOMOLOGY, "order_complex", refuse)
    code, payload = run_cli(
        capsys, "homology", str(FIXTURE_DIR / "rp2.json"), "--dim", str(10**15)
    )
    assert code == 0
    assert payload["homology"] == {"dim": 10**15, "betti": 0, "torsion": []}


def test_homology_command_rejects_negative_dim(capsys):
    code, payload = run_cli(
        capsys, "homology", str(FIXTURE_DIR / "rp2.json"), "--dim", "-1"
    )
    assert code == 2
    assert "dimension" in payload["error"]


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


@pytest.mark.parametrize("name", ["", "b\x01"])
@pytest.mark.parametrize("flags", [[], ["--reduce"]])
def test_cover_naming_a_bad_identifier_is_an_unknown_element(capsys, tmp_path, name, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", name]]}))
    code, payload = run_cli(capsys, "analyze", str(path), *flags)
    assert code == 2
    assert payload["error"] == f"unknown element {name!r} in covers"


@pytest.mark.parametrize("pair", [["a", ["b"]], [{"x": 1}, "b"], ["a", 2]])
def test_cover_pair_of_non_strings_is_rejected(capsys, tmp_path, pair):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": [pair]}))
    code, payload = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert payload["error"].startswith("bad cover pair")


DIAMOND_ZEROS = [["x", "a", 0], ["x", "b", 0], ["a", "y", 0], ["b", "y", 0]]


@pytest.mark.parametrize("name", ["", "b\x01"])
def test_cover_value_naming_a_bad_identifier_is_an_unknown_element(capsys, tmp_path, name):
    path = tmp_path / "f.json"
    func = {"ring": "mod:2", "cover_values": DIAMOND_ZEROS + [["x", name, 1]]}
    path.write_text(json.dumps(func))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "diamond.json"), str(path)
    )
    assert code == 2
    assert payload["error"] == f"unknown element {name!r}"


@pytest.mark.parametrize("triple", [["x", ["a"], 1], [{"x": 1}, "a", 1], ["x", 2, 1]])
def test_cover_value_triple_of_non_strings_is_rejected(capsys, tmp_path, triple):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ring": "mod:2", "cover_values": DIAMOND_ZEROS + [triple]}))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "diamond.json"), str(path)
    )
    assert code == 2
    assert payload["error"].startswith("bad cover value triple")


# -- golden reports -----------------------------------------------------------


@pytest.mark.parametrize("name", ["rp2", "crown2", "diamond", "chain4"])
def test_golden_analyze_reports(capsys, name):
    code, report = run_cli(capsys, "analyze", str(FIXTURE_DIR / f"{name}.json"))
    assert code == 0
    expected = json.loads((GOLDEN_DIR / f"{name}.analyze.json").read_text())
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize(
    "command, name, extra", [("crowns", "rp2", ["--max-n", "6"]), ("criteria", "s5", [])]
)
def test_golden_crowns_and_criteria_reports(capsys, command, name, extra):
    # pins crown order and the join/meet of each crown, which analyze leaves out
    code, report = run_cli(capsys, command, str(FIXTURE_DIR / f"{name}.json"), *extra)
    assert code == 0
    expected = json.loads((GOLDEN_DIR / f"{name}.{command}.json").read_text())
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_golden_witness_bytes(capsys):
    # the kernel basis, and so the witness, follows the relation-row order
    code = main(["derivation", "witness", str(FIXTURE_DIR / "rp2.json"), "--prime", "2"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "rp2.witness.json").read_text()


def test_homology_on_chains_deeper_than_the_recursion_limit_exits_2(capsys, tmp_path):
    # 1100 stacked two-element antichains: no beat points, height 1100
    levels = [(f"a{k}", f"b{k}") for k in range(1100)]
    covers = [[lo, hi] for low, high in zip(levels, levels[1:]) for lo in low for hi in high]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"elements": [e for pair in levels for e in pair], "covers": covers}))
    start = time.monotonic()
    code, payload = run_cli(capsys, "homology", str(path), "--dim", "1050")
    assert code == 2
    assert "recursion limit" in payload["error"]
    assert time.monotonic() - start < 30


def test_sweep_progress_counts_inherited_verdicts(capsys):
    assert main(["sweep", "--max-n", "4"]) == 0
    captured = capsys.readouterr()
    fields = [dict(f.split("=") for f in line.split()[1:]) for line in captured.err.splitlines()]
    # every top with one down-cover or none inherits, the point's from the empty poset
    assert [f["inherited"] for f in fields] == ["1", "2", "4", "12"]
    # the diamond is the first class whose new top receives relation rows
    assert [f["smith"] for f in fields] == ["0", "0", "0", "1"]
    assert "smith" not in captured.out
