import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetderiv
from posetderiv.cli import _json_text, main
from posetderiv.errors import InputError
from posetderiv.fixtures import fixture_json
from posetderiv.poset import find_crowns
from posetderiv.report import IDENTITY_CONFLICT, _identifier_ok, poset_from_json

from conftest import FIXTURE_DIR, GOLDEN_DIR
from test_poset import random_posets

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


@pytest.mark.parametrize("name", ["crown: 3", "crown:+3", "chain:1_0", "chain:\u0663"])
def test_fixture_size_takes_ascii_digits_only(capsys, name):
    code, payload = run_cli(capsys, "fixture", name)
    assert code == 2
    assert payload == {"error": f"bad size in fixture {name!r}"}


@pytest.mark.parametrize(
    "argv, file",
    [
        (["fixture", "rp2"], "rp2.json"),
        (["fixture", "table1"], "table1.json"),
        (["fixture", "diamond"], "diamond.json"),
        (["fixture", "s5"], "s5.json"),
        (["fixture", "chain:4"], "chain4.json"),
        (["fixture", "crown:2"], "crown2.json"),
        (["--", "fixture", "rp2"], "rp2.json"),
    ],
)
def test_fixture_prints_the_committed_file(capsys, argv, file):
    assert main(argv) == 0
    assert capsys.readouterr().out == (FIXTURE_DIR / file).read_text()


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


BAD_RING_STRINGS = {
    "gf": "bad ring string 'gf' (expected q, gf:p or mod:n)",
    "mod": "bad ring string 'mod' (expected q, gf:p or mod:n)",
    "gf:": "bad ring string 'gf:'",
    "mod:1": "modulus must be at least 2",
    "gf:4": "4 is not prime",
    "q ": "bad ring string 'q ' (expected q, gf:p or mod:n)",
    "mod:x": "bad ring string 'mod:x'",
    "gf:3:1": "bad ring string 'gf:3:1'",
    "z": "bad ring string 'z' (expected q, gf:p or mod:n)",
    "Q": "bad ring string 'Q' (expected q, gf:p or mod:n)",
    # moduli are ASCII digits, though int() takes all of these
    "gf: 5": "bad ring string 'gf: 5'",
    "gf:+5": "bad ring string 'gf:+5'",
    "gf:1_1": "bad ring string 'gf:1_1'",
    "gf:\u0665": "bad ring string 'gf:\u0665'",
    "mod:-3": "bad ring string 'mod:-3'",
    "mod:6": "the rank criterion needs a field, not mod:6; use the homology "
    "command for a coefficient-independent classification",
}


@pytest.mark.parametrize("ring", sorted(BAD_RING_STRINGS))
def test_analyze_bad_ring_string_exits_2_with_its_message(capsys, ring):
    code, payload = run_cli(capsys, "analyze", str(FIXTURE_DIR / "rp2.json"), "--ring", ring)
    assert code == 2
    assert payload == {"error": BAD_RING_STRINGS[ring]}


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
    code, payload = run_cli(capsys, "--path-limit", "3", "analyze", deep)
    assert code == 2
    # the unknown option is named, not its value, which argparse takes for the command
    assert "unrecognized arguments: --path-limit" in payload["error"]


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


def _layered(seed, sizes=(5, 6, 6, 5), degree=2):
    """A seeded graded poset: each element covers `degree` random elements
    of the layer below."""
    rng = random.Random(seed)
    layers = [[f"l{d}_{i}" for i in range(s)] for d, s in enumerate(sizes)]
    covers = [
        [lo, hi]
        for below, above in zip(layers, layers[1:])
        for hi in above
        for lo in rng.sample(below, degree)
    ]
    return {"elements": [e for layer in layers for e in layer], "covers": covers}


def _check_crowns_listing(poset, max_n, path) -> int:
    """Run `crowns` on poset; check that its listing is sorted by n, then by
    lower and upper indices, and holds exactly the records of find_crowns.
    Returns the number of crowns listed."""
    path.write_text(json.dumps(poset))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["crowns", str(path), "--max-n", str(max_n)]) == 0
    listing = json.loads(out.getvalue())["crowns"]
    P = poset_from_json(poset)
    keys = [
        (c["n"], [P.index(x) for x in c["lower"]], [P.index(x) for x in c["upper"]])
        for c in listing
    ]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    records = [(tuple(c["lower"]), tuple(c["upper"]), c["join"], c["meet"]) for c in listing]
    assert Counter(records) == Counter(map(tuple, find_crowns(P, max_n)))
    return len(listing)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", ["rp2", "layered"])
def test_crowns_listing_is_sorted_find_crowns_output(tmp_path, source, seed):
    # find_crowns returns walk order; only the listing is sorted
    poset = fixture_json("rp2") if source == "rp2" else _layered(seed)
    relabeled = _relabeled(poset, seed)
    assert _check_crowns_listing(relabeled, 6, tmp_path / "poset.json") > 0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(random_posets(), st.integers(2, 4))
def test_crowns_listing_is_sorted_on_random_posets(P, max_n):
    poset = {"elements": list(P.elements), "covers": [list(c) for c in P.covers]}
    with tempfile.TemporaryDirectory() as tmp:
        _check_crowns_listing(poset, max_n, Path(tmp) / "poset.json")


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


INTEGER_OPTIONS = {
    "--prime": ["derivation", "witness", str(FIXTURE_DIR / "rp2.json"), "--prime"],
    "--dim": ["homology", str(FIXTURE_DIR / "rp2.json"), "--dim"],
    "crowns --max-n": ["crowns", str(FIXTURE_DIR / "rp2.json"), "--max-n"],
    "sweep --max-n": ["sweep", "--max-n"],
    "--jobs": ["sweep", "--max-n", "2", "--jobs"],
}


@pytest.mark.parametrize("spelling", ["+2", " 2", "2_0", "\u0662"])
@pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
def test_integer_options_take_only_ascii_digits(capsys, option, spelling):
    # int() reads each of these as 2 or 20; the ring and fixture sizes refuse them too
    code, payload = run_cli(capsys, *INTEGER_OPTIONS[option], spelling)
    assert code == 2
    assert "invalid integer value" in payload["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", str(FIXTURE_DIR / "rp2.json"), "--bogus"], "unrecognized arguments: --bogus"),
        (["sweep"], "posetderiv sweep: the following arguments are required: --max-n"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["--", "bogus"], "invalid choice: 'bogus'"),
    ],
)
def test_usage_errors_exit_2_with_a_json_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_help_still_prints_text_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert "--max-n" in capsys.readouterr().out


def test_sweep_size_guard(capsys):
    code, payload = run_cli(capsys, "sweep", "--max-n", "10")
    assert code == 2
    assert "error" in payload


def test_sweep_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        code, payload = run_cli(capsys, "sweep", "--max-n", "2", "--jobs", jobs)
        assert code == 2
        assert "at least 1 job" in payload["error"]


def test_sweep_starts_at_most_cpu_count_workers(capsys, monkeypatch, fake_pools):
    import os

    # the fake pool runs in this process, so no worker starts whatever --jobs asks for
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, payload = run_cli(capsys, "sweep", "--max-n", "4", "--jobs", str(10**6))
    assert code == 0
    assert [pool.max_workers for pool in fake_pools] == [3]
    assert payload["counts_by_n"] == [[1, 1], [2, 2], [3, 5], [4, 16]]


def test_sweep_exit_code_on_identity_failure(capsys, monkeypatch):
    import posetderiv.survey as survey

    monkeypatch.setattr(survey, "routes_agree", lambda P, verdict, divisors: False)
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
    assert failed == [
        f"{report.IDENTITY_CONFLICT}: the relation matrix gives betti 12 and torsion [], "
        "but H1 has betti 0 and torsion [2]"
    ]
    assert any("case 15" in c for c in payload["conflicts"])


def test_analyze_catches_a_wrong_torsion_exponent(capsys, monkeypatch):
    import posetderiv.report as report

    # Z/4 in place of Z/2 leaves every rank over q, gf:2 and gf:3 as it was
    real = report.relation_divisors
    monkeypatch.setattr(
        report, "relation_divisors", lambda P: tuple(4 if d == 2 else d for d in real(P))
    )
    code, payload = run_cli(capsys, "analyze", str(FIXTURE_DIR / "rp2.json"))
    assert code == 4
    failed = [c for c in payload["conflicts"] if c.startswith(report.IDENTITY_CONFLICT)]
    assert failed == [
        f"{report.IDENTITY_CONFLICT}: the relation matrix gives betti 0 and torsion [4], "
        "but H1 has betti 0 and torsion [2]"
    ]
    assert [r["der_dim"] - r["pot_dim"] for r in payload["rings"]] == [0, 1, 0]


def _identity_conflicts(capsys, tmp_path, name):
    """analyze's exit code on fixture ``name`` and its identity conflicts."""
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(fixture_json(name)))
    code, payload = run_cli(capsys, "analyze", str(path))
    return code, [c for c in payload["conflicts"] if c.startswith(IDENTITY_CONFLICT)]


# H1 is 0, Z and 0: a component count one too high raises betti1 by one
COMPONENT_FAULT_INPUTS = ["rp2", "crown:3", "s5"]


@pytest.mark.parametrize("name", COMPONENT_FAULT_INPUTS)
def test_analyze_catches_a_miscount_of_the_relation_routes_components(
    capsys, tmp_path, monkeypatch, name
):
    # the union-find behind Poset.component_count, which only the relation
    # route reads
    poset = importlib.import_module("posetderiv.poset")
    real = poset._components

    def one_too_many(down_covers):
        ids, count = real(down_covers)
        return ids, count + 1

    monkeypatch.setattr(poset, "_components", one_too_many)
    code, conflicts = _identity_conflicts(capsys, tmp_path, name)
    assert code == 4 and conflicts


@pytest.mark.parametrize("name", COMPONENT_FAULT_INPUTS)
def test_analyze_catches_a_miscount_of_the_order_complexs_components(
    capsys, tmp_path, monkeypatch, name
):
    # the walk homology() runs over the whole core
    real = HOMOLOGY._components_meeting

    def one_too_many(seeds, mask, above, below):
        return real(seeds, mask, above, below) + (seeds == mask)

    monkeypatch.setattr(HOMOLOGY, "_components_meeting", one_too_many)
    code, conflicts = _identity_conflicts(capsys, tmp_path, name)
    assert code == 4 and conflicts


# analyze's per-ring dimensions and the relation route's H1 both come from
# der_pot_from_divisors, so a fault in it must fail the identity
DER_POT_FAULT_INPUTS = ["rp2", "crown:2", "diamond"]


def _der_pot_off_by_one(index):
    """der_pot_from_divisors with der (index 0) or pot (index 1) one too high."""
    derivations = importlib.import_module("posetderiv.derivations")
    real = derivations.der_pot_from_divisors

    def faulty(P, divisors, k):
        counts = list(real(P, divisors, k))
        counts[index] += 1
        return tuple(counts)

    return faulty


@pytest.mark.parametrize("index", [0, 1], ids=["der", "pot"])
@pytest.mark.parametrize("name", DER_POT_FAULT_INPUTS)
def test_analyze_catches_a_wrong_der_or_pot(capsys, tmp_path, monkeypatch, name, index):
    faulty = _der_pot_off_by_one(index)
    for module in ("derivations", "report"):
        monkeypatch.setattr(f"posetderiv.{module}.der_pot_from_divisors", faulty)
    code, conflicts = _identity_conflicts(capsys, tmp_path, name)
    assert code == 4 and conflicts


def test_sweep_catches_a_wrong_pot(monkeypatch):
    from posetderiv.survey import sweep

    monkeypatch.setattr("posetderiv.derivations.der_pot_from_divisors", _der_pot_off_by_one(1))
    assert not sweep(5).ok


# -- numbers past the interpreter's 4300-digit limit on integer text ---------


def test_input_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"elements": [' + "1" * 5000 + '], "covers": []}')
    values = tmp_path / "values.json"
    values.write_text('{"ring": "mod:2", "cover_values": [["x", "a", ' + "1" * 5001 + "]]}")
    diamond = str(FIXTURE_DIR / "diamond.json")
    for argv in (["analyze", str(big)], ["derivation", "verify", diamond, str(values)]):
        code, payload = run_cli(capsys, *argv)
        assert code == 2
        assert "4300 digits" in payload["error"]


@pytest.mark.parametrize(
    "value",
    ["1e5000", "0.5", "1e3", "+1/2", " 1/2", "1_0", "1/0"]
    + [pytest.param("1/" + "1" * 5000, id="1/1...1")],
)
def test_derivation_verify_takes_only_the_rational_grammar(capsys, tmp_path, value):
    edges = fixture_json("diamond")["covers"]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ring": "q", "cover_values": [e + [value] for e in edges]}))
    code, payload = run_cli(
        capsys, "derivation", "verify", str(FIXTURE_DIR / "diamond.json"), str(path)
    )
    assert code == 2
    assert payload["error"] == f"bad rational value {value!r}"


def test_derivation_verify_output_past_the_digit_limit_exits_2(capsys, tmp_path):
    # phi(c3) = 1/(10^4000+1) + 1/(10^4000+3) has an 8000-digit denominator
    values = [["c1", "c2", f"1/{10**4000 + 1}"], ["c2", "c3", f"1/{10**4000 + 3}"]]
    poset, function = tmp_path / "chain3.json", tmp_path / "f.json"
    poset.write_text(json.dumps(fixture_json("chain:3")))
    function.write_text(json.dumps({"ring": "q", "cover_values": values}))
    code, payload = run_cli(capsys, "derivation", "verify", str(poset), str(function))
    assert code == 2
    assert payload["error"] == "a rational value passes the 4300-digit limit"


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


def test_identifier_rule_matches_the_character_scan():
    def scanned(value):
        return (
            isinstance(value, str)
            and len(value) > 0
            and not any(ord(ch) < 32 or ord(ch) == 127 for ch in value)
        )

    controls = [chr(c) for c in range(32)] + ["\x7f"]
    values = controls + [f"a{ch}b" for ch in controls] + ["\x85", " ", "\u00e9", "", 7, None]
    for value in values:
        assert _identifier_ok(value) == scanned(value), repr(value)
        if scanned(value):
            assert poset_from_json({"elements": [value], "covers": []}).elements == (value,)
        else:
            with pytest.raises(InputError, match="nonempty strings without control characters"):
                poset_from_json({"elements": ["a", value], "covers": []})


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


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
def test_report_writer_matches_json_dumps_on_goldens(path):
    report = json.loads(path.read_text())
    assert _json_text(report) == json.dumps(report, indent=2)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_json_values)
def test_report_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, {"a": [0.0]}, {1: "a"}, {None: 1}, {"a": {"b": object()}}, [b"x"], {"s"}]
)
def test_report_writer_raises_on_other_types_and_keys(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_report_writer_on_non_ascii_and_empty_containers():
    value = {"\u00e9l\u00e9ment": ["\u2203", "\U0001d538", "\x00\x1f\\\""], "": {}, "e": [], "t": ()}
    assert _json_text(value) == json.dumps(value, indent=2)
    assert "\\u00e9" in _json_text(value)


def test_golden_witness_bytes(capsys):
    # the kernel basis, and so the witness, follows the relation-row order
    code = main(["derivation", "witness", str(FIXTURE_DIR / "rp2.json"), "--prime", "2"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "rp2.witness.json").read_text()


def test_homology_on_chains_longer_than_the_chain_limit_exits_2(capsys, tmp_path):
    # 1100 stacked two-element antichains: no beat points, height 1100
    levels = [(f"a{k}", f"b{k}") for k in range(1100)]
    covers = [[lo, hi] for low, high in zip(levels, levels[1:]) for lo in low for hi in high]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"elements": [e for pair in levels for e in pair], "covers": covers}))
    for dim in ("950", "1050"):
        start = time.monotonic()
        code, payload = run_cli(capsys, "homology", str(path), "--dim", dim)
        assert code == 2
        assert "the chain limit of 900 elements" in payload["error"]
        assert time.monotonic() - start < 30


def test_sweep_progress_counts_inherited_verdicts(capsys):
    assert main(["sweep", "--max-n", "7"]) == 0
    captured = capsys.readouterr()
    fields = [dict(f.split("=") for f in line.split()[1:]) for line in captured.err.splitlines()]
    # every top with one down-cover or none inherits, the point's from the empty poset;
    # levels 6 and 7 are tallied below the level-5 split and summed
    assert [f["inherited"] for f in fields] == ["1", "2", "4", "12", "45", "216", "1305"]
    # the diamond is the first class whose new top receives relation rows
    assert [f["smith"] for f in fields] == ["0", "0", "0", "1", "7", "53", "469"]
    assert "smith" not in captured.out


def test_sweep_progress_counts_classified_classes(capsys):
    assert main(["sweep", "--max-n", "7"]) == 0
    lines = capsys.readouterr().err.splitlines()
    fields = [dict(f.split("=") for f in line.split()[1:]) for line in lines]
    # the classes whose H1 the Mayer-Vietoris rule leaves to an order complex
    assert [f["classified"] for f in fields] == ["0", "0", "0", "0", "1", "9", "100"]
    # the field comes before inherited=, so that the line still ends in the
    # inherited and smith counts
    assert lines[-1].endswith(" classified=100 inherited=1305 smith=469")
