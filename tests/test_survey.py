import importlib
import json
from collections import Counter

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
    sweep,
)
from posetderiv.derivations import consistency_matrix, relation_divisors, relation_rows_into
from posetderiv import fixtures as fx
from posetderiv.report import sweep_json

from oracles import all_labeled_strict_orders, dedup_enumerate_posets, tie_search_children

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


def test_children_of_the_empty_poset_is_the_point():
    (point,) = survey._children(Poset((), ()))
    assert (point.elements, point.covers) == (("x0",), ())


def test_enumeration_from_given_parents_matches_growing_from_the_root():
    parents = [Poset((), ())]
    for n in range(1, 7):
        level = list(enumerate_posets(n, parents))
        assert [P.covers for P in level] == [P.covers for P in enumerate_posets(n)]
        parents = level


def test_children_match_the_tie_search_oracle():
    # a tie whose rivals are all twins of the new top is settled without a
    # search; antichain:4 and crown:2 have two or more twin tops
    posets = [Poset((), ()), fx.antichain(4), fx.crown(2)]
    for n in range(1, 7):
        posets += enumerate_posets(n)
    for P in posets:
        children = [(C.elements, C.covers) for C in survey._children(P)]
        assert children == [(C.elements, C.covers) for C in tie_search_children(P)], P.covers


def test_sweep_to_seven_searches_few_ties(monkeypatch):
    # 405 searches for the automorphisms of the classes on 1..6 elements,
    # and the rest for ties with a top that is not the new top's twin
    calls = []
    real = survey._canonical_search

    def counting(above, below):
        calls.append(len(above))
        return real(above, below)

    monkeypatch.setattr(survey, "_canonical_search", counting)
    assert sweep(7).ok
    assert len(calls) <= 650, len(calls)


def test_sweep_grows_each_level_once(monkeypatch):
    calls = []
    real = survey._children

    def counting(P):
        calls.append(P.n)
        return real(P)

    monkeypatch.setattr(survey, "_children", counting)
    assert sweep(6).counts_by_n[-1] == (6, 318)
    # once per class on levels 0..5
    assert len(calls) == 1 + 1 + 2 + 5 + 16 + 63 == 88


def test_level_eight_count():
    # OEIS A000112
    assert sum(1 for _ in enumerate_posets(8)) == 16999


def test_size_limits():
    with pytest.raises(SizeLimitError):
        list(enumerate_posets(0))
    with pytest.raises(SizeLimitError):
        list(enumerate_posets(10))
    with pytest.raises(SizeLimitError):
        sweep(10)


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
    # the subtrees below level 5 reach real workers only from max_n 6
    serial = sweep_json(sweep(6, parallelism=1))
    parallel = sweep_json(sweep(6, parallelism=2))
    serial.pop("elapsed_ms")
    parallel.pop("elapsed_ms")
    assert serial == parallel


def _identity_failures(fault):
    """Classes that analyze and sweep(5) each flag when every nonempty
    relation matrix gets its divisors through ``fault``; they must agree."""
    verdicts = []
    real_agree = survey.routes_agree

    def recording(P, verdict, divisors):
        agree = real_agree(P, verdict, divisors)
        verdicts.append((P, agree))
        return agree

    # analyze and the sweep's carried rows both reach their divisors
    # through smith_divisors
    real = derivations.smith_divisors
    divisors = lambda a: fault(real(a)) if a.rows else real(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivations, "smith_divisors", divisors)
        mp.setattr(survey, "smith_divisors", divisors)
        mp.setattr(survey, "routes_agree", recording)
        sweep(5)
        assert len(verdicts) == 87
        failures = 0
        for P, sweep_ok in verdicts:
            conflicts = report.analysis_report(P, [RATIONALS])["conflicts"]
            analyze_ok = not any(c.startswith(report.IDENTITY_CONFLICT) for c in conflicts)
            assert analyze_ok == sweep_ok, P.covers
            failures += not analyze_ok
    return failures


@pytest.mark.parametrize("broken", [False, True])
def test_analyze_and_sweep_give_the_same_identity_verdict_per_ring(broken):
    if not broken:
        assert _identity_failures(lambda d: d) == 0
        return
    # 12 of the 87 classes have a relation.  An extra divisor 2 raises the
    # rank over q and gf:3; each last divisor times 5 changes no rank over
    # q, gf:2 or gf:3, only the torsion
    assert _identity_failures(lambda d: (2,) + d) == 12
    assert _identity_failures(lambda d: d[:-1] + (5 * d[-1],)) == 12


def test_inherited_verdicts_equal_classify():
    from posetderiv.homology import classify

    inherited = Counter()
    for n in range(2, 8):
        for parent in enumerate_posets(n - 1):
            rows = tuple(consistency_matrix(parent).matrix.sparse_rows)
            record = (classify(parent), rows, relation_divisors(parent))
            for P in enumerate_posets(n, (parent,)):
                tally = Counter()
                verdict = survey._record(record, P, tally)[0]
                assert tally["inherited", n] == (len(P.down_covers[-1]) <= 1)
                assert verdict == classify(P), P.covers
                inherited.update(tally)
    # the deletion key prefers such tops: 63.8% of level 7
    assert inherited["inherited", 7] == 1305


def test_new_top_h1_equals_classify():
    from posetderiv.homology import classify

    fallbacks = Counter()
    parents = [Poset((), ())]
    for n in range(1, 8):
        level = []
        for parent in parents:
            verdict = classify(parent)
            for P in enumerate_posets(n, (parent,)):
                h1 = survey._new_top_h1(verdict, P)
                if h1 is None:
                    fallbacks[n] += 1
                else:
                    expected = classify(P)
                    assert h1 == (expected.betti1, expected.torsion1), P.covers
                level.append(P)
        parents = level
    assert fallbacks == {5: 1, 6: 9, 7: 100}


def test_sweep_fails_when_the_new_top_miscounts_components(capsys, monkeypatch):
    from posetderiv.cli import main

    # the package's name homology is the function
    homology = importlib.import_module("posetderiv.homology")
    real = homology._components_meeting

    def off_by_one(seeds, mask, above, below):
        # c_Q(d) counts the parent's components that d meets; c(d) has mask d
        return real(seeds, mask, above, below) + (mask != seeds)

    monkeypatch.setattr(homology, "_components_meeting", off_by_one)
    report = sweep(7)
    assert report.identity_failures and not report.ok
    code, payload = main(["sweep", "--max-n", "7", "--jobs", "1"]), json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["identity_failures"] == list(report.identity_failures) and payload["ok"] is False


def test_sweep_seven_counts():
    report = sweep(7)
    assert report.counts_by_n[4:] == ((5, 63), (6, 318), (7, 2045))
    assert report.defective_by_n[4:] == ((5, 8), (6, 71), (7, 662))
    assert report.soluble_by_n[4:] == ((5, 55), (6, 247), (7, 1383))
    assert report.inconclusive_found == () and report.ok


def test_sweep_names_an_inconclusive_class(capsys, monkeypatch):
    from posetderiv.cli import main

    # the package's name homology is the function
    homology = importlib.import_module("posetderiv.homology")

    # the one class on 5 elements whose H1 the Mayer-Vietoris rule leaves
    # to classify
    (P,) = (
        P
        for parent in enumerate_posets(4)
        for P in enumerate_posets(5, (parent,))
        if survey._new_top_h1(homology.classify(parent), P) is None
    )
    name = canonical_form(P).decode("ascii")
    real = homology.classify

    def torsion(Q):
        verdict = real(Q)
        if Q.n == 5 and canonical_form(Q) == canonical_form(P):
            verdict = verdict._replace(torsion1=(2,), soluble=False, conclusive_torsion_free=False)
        return verdict

    monkeypatch.setattr(homology, "classify", torsion)
    report = sweep(5)
    # the relation route has no torsion, so the identity fails too
    assert report.inconclusive_found == (name,)
    assert report.identity_failures == (name,)
    assert not report.ok
    assert main(["sweep", "--max-n", "5"]) == 4
    capsys.readouterr()


def test_sweep_is_not_ok_when_a_level_misses_classes(capsys, monkeypatch):
    from posetderiv.cli import main

    assert sweep(7).count_failures == ()
    real = survey._children

    def dropping(P):
        # the last child of each class on 6 elements goes missing
        children = list(real(P))
        return children[:-1] if P.n == 6 else children

    monkeypatch.setattr(survey, "_children", dropping)
    report = sweep(7)
    assert report.count_failures == ((7, 1727, 2045),)
    assert report.identity_failures == ()
    assert not report.ok
    code, payload = main(["sweep", "--max-n", "7"]), json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["count_failures"] == [[7, 1727, 2045]] and payload["ok"] is False


def test_sweep_hands_inherited_verdicts_to_workers(monkeypatch, fake_pools):
    from posetderiv.homology import classify

    # the fake pool records the subtree roots and walks them in this process
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
    pooled = sweep_json(sweep(7, parallelism=2))
    [pool] = fake_pools
    roots = pool.items
    # roots are (class on 5 elements, its record, max_n)
    assert [P.n for P, _, _ in roots] == [5] * 63
    assert {canonical_form(P) for P, _, _ in roots} == {canonical_form(P) for P in enumerate_posets(5)}
    for P, record, max_n in roots:
        # the verdict that the root's children inherit, and its carried rows
        assert max_n == 7
        verdict, rows, divisors = record
        assert verdict == classify(P)
        assert sorted(rows) == sorted(consistency_matrix(P).matrix.sparse_rows)
        assert divisors == relation_divisors(P)
    serial = sweep_json(sweep(7))
    pooled.pop("elapsed_ms")
    serial.pop("elapsed_ms")
    assert pooled == serial


def test_sweep_carries_relation_rows_down_the_augmentation_tree(monkeypatch):
    triples = []
    real = survey._record

    def recording(parent, P, tally):
        smith = tally["smith", P.n]
        record = real(parent, P, tally)
        triples.append((parent, P, record, tally["smith", P.n] - smith))
        return record

    monkeypatch.setattr(survey, "_record", recording)
    assert sweep(7).ok
    assert len(triples) == sum(CLASS_COUNTS)
    for (_, rows, _), P, (_, child_rows, divisors), smith in triples:
        new = tuple(relation_rows_into(P, P.n - 1))
        assert child_rows == rows + new
        assert sorted(child_rows) == sorted(consistency_matrix(P).matrix.sparse_rows)
        assert divisors == relation_divisors(P)
        assert smith == bool(new)


def test_sweep_builds_no_relation_matrix_from_scratch(monkeypatch):
    calls = []

    def counting(P):
        calls.append(P.n)
        return consistency_matrix(P)

    monkeypatch.setattr(derivations, "consistency_matrix", counting)
    assert sweep(6).counts_by_n[-1] == (6, 318)
    assert calls == []
