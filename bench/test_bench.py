"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that the output checker catches corrupted reports and that
the trace wrappers change no report and leave nothing installed.
"""

import contextlib
import io
import json
import random
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import Checker  # noqa: E402
from posetderiv import cli  # noqa: E402
from posetderiv.report import poset_from_json  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def write(tmp_path, name, obj):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_generators_are_seeded_and_valid(tmp_path):
    for name in inputs.WORKLOADS:
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = inputs.build(name, 7, tmp_path / "a")
        b = inputs.build(name, 7, tmp_path / "b")
        texts = [Path(p).read_text() for p in a.inputs]
        assert texts == [Path(p).read_text() for p in b.inputs]
        for text in texts:
            poset_from_json(json.loads(text))
        assert all(len(p) >= 1 for p in a.passes)
        shutil.rmtree(tmp_path / "a")
        shutil.rmtree(tmp_path / "b")
    assert inputs.cycle_rank(inputs.named("crown:3")) == 1
    assert inputs.cycle_rank(inputs.named("fence:5")) == 0


def test_checker_flags_wrong_torsion(tmp_path):
    path = write(tmp_path, "rp2", inputs.named("rp2"))
    request = inputs.Request(
        ["analyze", path], "analyze",
        {"group": "rp2", "betti": 0, "torsion": [2], "conflict": "table2 case 15"},
    )
    code, out = run_cli(request.argv)
    assert Checker().check(request, code, out) is None
    bad = json.loads(out)
    bad["homology"]["torsion"] = [3]
    assert Checker().check(request, code, json.dumps(bad)) is not None
    bad = json.loads(out)
    bad["rings"][1]["der_dim"] -= 1
    assert "gf:2" in Checker().check(request, code, json.dumps(bad))
    assert Checker().check(request, 2, out) == "exit code 2"


def test_checker_flags_relabeled_copy_with_another_hash(tmp_path):
    rng = random.Random(3)
    checker = Checker()
    crown = inputs.named("crown:4")
    request = None
    for i in range(2):
        path = write(tmp_path, f"c{i}", inputs.relabel(rng, crown))
        request = inputs.Request(["core", path], "core", {"group": "core:crown4", "n": 8})
        code, out = run_cli(request.argv)
        assert checker.check(request, code, out) is None
    bad = json.loads(out)
    bad["canonical_sha256"] = "0" * 64
    assert checker.check(request, code, json.dumps(bad)) is not None


def test_checker_flags_wrong_class_count():
    report = {
        "counts_by_n": [[n + 1, c] for n, c in enumerate(inputs.SWEEP_COUNTS)],
        "ok": True,
        "identity_failures": [],
        "inconclusive_found": [],
    }
    request = inputs.Request(["sweep"], "sweep", {"max_n": 7})
    assert Checker().check(request, 0, json.dumps(report)) is None
    report["counts_by_n"][6][1] = 2044
    assert "class counts" in Checker().check(request, 0, json.dumps(report))
    report["counts_by_n"].pop()
    assert "class counts" in Checker().check(request, 0, json.dumps(report))


def test_checker_flags_non_verifying_witness(tmp_path):
    poset = write(tmp_path, "rp2", inputs.named("rp2"))
    code, out = run_cli(["derivation", "witness", poset, "--prime", "2"])
    witness = json.loads(out)["witness"]
    verify = inputs.verify_request(poset, write(tmp_path, "w", witness))
    assert Checker().check(verify, *run_cli(verify.argv)) is None

    witness["cover_values"][0][2] ^= 1
    corrupted = inputs.verify_request(poset, write(tmp_path, "bad", witness))
    assert Checker().check(corrupted, *run_cli(corrupted.argv)) is not None

    request = inputs.Request(
        ["derivation", "witness", poset, "--prime", "3"], "witness",
        {"prime": 3, "exists": True, "poset": poset},
    )
    assert "no witness" in Checker().check(request, *run_cli(request.argv))


def _sample_argvs(tmp_path):
    crown = write(tmp_path, "crown", inputs.relabel(random.Random(1), inputs.named("crown:4")))
    grid = write(tmp_path, "grid", inputs.grid(3, 3))
    rp2 = write(tmp_path, "rp2", inputs.named("rp2"))
    return [
        ["analyze", rp2],
        ["analyze", crown, "--witness"],
        ["core", grid],
        ["homology", grid, "--dim", "2"],
        ["derivation", "witness", crown, "--prime", "3"],
        ["sweep", "--max-n", "4"],
    ]


def test_trace_leaves_reports_identical_and_records_spans(tmp_path):
    elapsed = re.compile(r'"elapsed_ms": \d+')
    argvs = _sample_argvs(tmp_path)
    plain = [elapsed.sub("", run_cli(a)[1]) for a in argvs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [elapsed.sub("", run_cli(a)[1]) for a in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {s[2] for s in tracer.spans} == {f"{m}.{p}" for m, p, _ in tracing.TARGETS}
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["survey.classes"] == 1 + 2 + 5 + 16
    assert metrics["linalg.smith_calls"] > 0 and metrics["linalg.smith_for_transforms_ms"] > 0
    assert all(v >= 0 for v in metrics.values())


def test_trace_wrappers_are_fully_removed():
    import posetderiv

    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "posetderiv"}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    init = posetderiv.Poset.__init__
    tracer = tracing.Tracer()
    tracer.install()
    assert posetderiv.Poset.__init__ is not init
    assert cli.poset_from_json is not before[("posetderiv.report", "poset_from_json")]
    assert len(tracing.leftover_wrappers()) > len(tracing.TARGETS)
    tracer.uninstall()
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert tracing.leftover_wrappers() == []
    assert posetderiv.Poset.__init__ is init
    assert all(after[key] is value for key, value in before.items())


def test_self_time_subtracts_children():
    spans = [
        [0, None, "cli.main", 0.0, 1.0, 0, None],
        [1, 0, "linalg.kernel_basis", 0.1, 0.6, 0, None],
        [2, 1, "linalg.smith_normal_form", 0.2, 0.5, 0, {"cells": 6, "nonzeros": 4, "rank": 2, "max_entry_bits": 3}],
    ]
    m = tracing.layer_metrics(spans)
    assert abs(m["cli.self_ms"] - 500.0) < 1e-6
    assert abs(m["linalg.kernel_basis_self_ms"] - 200.0) < 1e-6
    assert abs(m["linalg.smith_for_transforms_ms"] - 300.0) < 1e-6
    assert (m["linalg.smith_cells"], m["linalg.smith_max_entry_bits"]) == (6, 3)


def test_speed_factor_follows_nearby_calibrations():
    import run

    speed = run.Speed()
    ref = run.REFERENCE_KERNEL_MS
    for i in range(40):  # every 0.25 s: reference speed, then half speed
        speed.add(i * 0.25, ref if i < 20 else 2 * ref)
    assert speed.factor(1.0) == 1.0
    assert speed.factor(9.5) == 2.0
    # a long request with no calibration within the window: the ones on
    # either side of its midpoint
    far = run.Speed()
    for t, ms in ((0.0, ref), (0.1, ref), (10.0, 3 * ref), (10.1, 3 * ref)):
        far.add(t, ms)
    assert far.factor(5.0) == 2.0
    assert run.Speed().factor(1.0) == 1.0
