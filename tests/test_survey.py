import pytest

import posetderiv.derivations as derivations
import posetderiv.report as report
import posetderiv.survey as survey
from posetderiv import (
    RATIONALS,
    Poset,
    SizeLimitError,
    canonical_form,
    enumerate_posets,
    prime_field,
    sweep,
)
from posetderiv.derivations import consistency_matrix, relation_divisors, relation_rows_into
from posetderiv.report import sweep_json

from oracles import all_labeled_strict_orders, dedup_enumerate_posets

# unlabeled posets on 1..7 points
CLASS_COUNTS = (1, 2, 5, 16, 63, 318, 2045)
# labeled strict orders on 1..4 points
LABELED_COUNTS = (1, 3, 19, 219)


def test_class_counts():
    for n, expected in zip(range(1, 7), CLASS_COUNTS):
        assert sum(1 for _ in enumerate_posets(n)) == expected


def test_enumerated_posets_are_valid_and_distinct():
    for n in range(1, 6):
        forms = set()
        for P in enumerate_posets(n):
            assert P.n == n
            # re-validate through the constructor
            Poset(P.elements, P.covers)
            forms.add(canonical_form(P))
        assert len(forms) == CLASS_COUNTS[n - 1]


def test_generator_complete_against_brute_force():
    # every labeled strict order must canonicalize into an enumerated class
    for n in range(1, 5):
        class_forms = {canonical_form(P) for P in enumerate_posets(n)}
        labeled = 0
        seen = set()
        for _, covers in all_labeled_strict_orders(n):
            labeled += 1
            elements = [f"v{i}" for i in range(n)]
            P = Poset(elements, [(f"v{i}", f"v{j}") for i, j in covers])
            form = canonical_form(P)
            assert form in class_forms
            seen.add(form)
        assert labeled == LABELED_COUNTS[n - 1]
        assert seen == class_forms


def test_augmentation_matches_dedup_by_canonical_form():
    for n in range(1, 8):
        posets = list(enumerate_posets(n))
        assert all(P.n == n for P in posets)
        forms = [canonical_form(P) for P in posets]
        assert len(set(forms)) == len(forms)
        assert set(forms) == {canonical_form(P) for P in dedup_enumerate_posets(n)}


def test_level_eight_count():
    # OEIS A000112
    assert sum(1 for _ in enumerate_posets(8)) == 16999


def test_size_limits():
    with pytest.raises(SizeLimitError):
        list(enumerate_posets(0))
    with pytest.raises(SizeLimitError):
        list(enumerate_posets(9))
    with pytest.raises(SizeLimitError):
        sweep(9)


def test_sweep_small():
    report = sweep(4)
    assert report.counts_by_n == ((1, 1), (2, 2), (3, 5), (4, 16))
    assert report.inconclusive_found == ()
    assert report.identity_failures == ()
    assert report.ok
    # the 4-element crown is the unique defective class of size <= 4
    assert report.defective_by_n == ((1, 0), (2, 0), (3, 0), (4, 1))
    assert report.soluble_by_n == ((1, 1), (2, 2), (3, 5), (4, 15))


def test_sweep_point():
    report = sweep(1)
    assert report.counts_by_n == ((1, 1),)
    assert report.soluble_by_n == ((1, 1),)


def test_sweep_independent_of_parallelism():
    serial = sweep_json(sweep(4, parallelism=1))
    parallel = sweep_json(sweep(4, parallelism=3))
    serial.pop("elapsed_ms")
    parallel.pop("elapsed_ms")
    assert serial == parallel


@pytest.mark.parametrize("broken", [False, True])
def test_analyze_and_sweep_give_the_same_identity_verdict_per_ring(monkeypatch, broken):
    if broken:
        # an extra divisor 2 in every nonempty relation matrix raises the
        # rank over q and gf:3, not over gf:2; analyze and the sweep's
        # carried rows both reach their divisors through smith_divisors
        real = derivations.smith_divisors
        divisors = lambda a: (2,) + real(a) if a.rows else real(a)
        monkeypatch.setattr(derivations, "smith_divisors", divisors)
        monkeypatch.setattr(survey, "smith_divisors", divisors)
    records = []
    real_record = survey._record

    def recording(job):
        record = real_record(job)
        records.append((job[0], record))
        return record

    monkeypatch.setattr(survey, "_record", recording)
    failures = {}
    for ring in (RATIONALS, prime_field(2), prime_field(3)):
        monkeypatch.setattr(survey, "DEFAULT_FIELDS", (ring,))
        records.clear()
        sweep(5)
        failures[ring.label()] = 0
        for P, record in records:
            conflicts = report.analysis_report(P, [ring])["conflicts"]
            analyze_ok = not any(c.startswith(report.IDENTITY_CONFLICT) for c in conflicts)
            assert analyze_ok == record["identity_ok"], (ring, P.covers)
            failures[ring.label()] += not analyze_ok
    assert len(records) == 87
    # 12 of the 87 classes have a relation
    expected = 12 if broken else 0
    assert failures == {"q": expected, "gf:2": 0, "gf:3": expected}


def test_inherited_verdicts_equal_classify():
    from posetderiv.homology import classify

    for n in range(2, 8):
        level = list(enumerate_posets(n - 1))
        previous = {P.covers: {"verdict": classify(P), "rows": (), "divisors": ()} for P in level}
        inherited = 0
        for P in enumerate_posets(n):
            verdict = survey._job(previous, P)[1]
            assert (verdict is not None) == (len(P.down_covers[-1]) <= 1)
            if verdict is not None:
                assert verdict == classify(P), P.covers
                inherited += 1
    # the deletion key prefers such tops: 63.8% of level 7
    assert inherited == 1305


def test_sweep_seven_counts():
    report = sweep(7)
    assert report.counts_by_n[4:] == ((5, 63), (6, 318), (7, 2045))
    assert report.defective_by_n[4:] == ((5, 8), (6, 71), (7, 662))
    assert report.soluble_by_n[4:] == ((5, 55), (6, 247), (7, 1383))
    assert report.inconclusive_found == () and report.ok


def test_sweep_hands_inherited_verdicts_to_workers(monkeypatch):
    import concurrent.futures

    jobs = []

    class FakePool:
        # records the jobs and runs them in this process
        def __init__(self, max_workers):
            pass

        def map(self, fn, items, chunksize=1):
            items = list(items)
            jobs.extend(items)
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
    pooled = sweep_json(sweep(5, parallelism=2))
    # jobs are (poset, inherited verdict, parent rows, parent divisors)
    assert sum(verdict is not None for _, verdict, _, _ in jobs) == 1 + 2 + 4 + 12 + 45
    # every class is a job, the point's parent is the empty poset
    assert len(jobs) == 1 + 2 + 5 + 16 + 63
    assert jobs[0][0].covers == () and jobs[0][2:] == ((), ())
    for P, _, rows, divisors in jobs:
        parent = Poset(P.elements[:-1], P.covers[: len(P.covers) - len(P.down_covers[-1])])
        assert sorted(rows) == sorted(consistency_matrix(parent).matrix.sparse_rows)
        assert divisors == relation_divisors(parent)
    serial = sweep_json(sweep(5))
    pooled.pop("elapsed_ms")
    serial.pop("elapsed_ms")
    assert pooled == serial


def test_sweep_carries_relation_rows_down_the_augmentation_tree(monkeypatch):
    pairs = []
    real = survey._record

    def recording(job):
        record = real(job)
        pairs.append((job, record))
        return record

    monkeypatch.setattr(survey, "_record", recording)
    assert sweep(7).ok
    assert len(pairs) == sum(CLASS_COUNTS)
    for (P, _, rows, _), record in pairs:
        new = tuple(relation_rows_into(P, P.n - 1))
        assert record["rows"] == rows + new
        assert sorted(record["rows"]) == sorted(consistency_matrix(P).matrix.sparse_rows)
        assert record["divisors"] == relation_divisors(P)
        assert record["smith"] == bool(new)


def test_sweep_builds_no_relation_matrix_from_scratch(monkeypatch):
    calls = []

    def counting(P):
        calls.append(P.n)
        return consistency_matrix(P)

    monkeypatch.setattr(derivations, "consistency_matrix", counting)
    assert sweep(6).counts_by_n[-1] == (6, 318)
    assert calls == []
