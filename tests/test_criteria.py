from fractions import Fraction

import pytest

from posetderiv import (
    CrownReport,
    Poset,
    ShapeStats,
    beat_points,
    classify,
    co18_bound,
    co18_threshold,
    criteria_report,
    crown_obstruction_report,
    crowns_without_bounds,
    enumerate_posets,
    has_outer_derivation,
    prime_field,
    RATIONALS,
    table2_conflict,
    table2_lookup,
)
from posetderiv import fixtures as fx

from test_homology import chain_product


def beat_free_posets_up_to(n):
    for k in range(1, n + 1):
        for P in enumerate_posets(k):
            if not beat_points(P):
                yield P


def _beat_free_h3_poset():
    # three minimal, three maximal, one middle element, height 3, no beat points
    return Poset(
        ["b1", "b2", "b3", "c", "t1", "t2", "t3"],
        [
            ("b1", "c"),
            ("b2", "c"),
            ("c", "t1"),
            ("c", "t2"),
            ("b3", "t1"),
            ("b3", "t2"),
            ("b1", "t3"),
            ("b2", "t3"),
        ],
    )


# -- middle-layer bound -------------------------------------------------------


def test_threshold_values():
    assert co18_threshold(6, 6, 4) == Fraction(36, 16) + 1
    assert co18_threshold(3, 4, 3) == Fraction(6)
    with pytest.raises(ValueError):
        co18_threshold(2, 5, 3)


def test_threshold_height_flag_is_exactly_one():
    for n, m in ((3, 3), (3, 4), (5, 9)):
        assert co18_threshold(n, m, 4) - co18_threshold(n, m, 3) == 1
        assert co18_threshold(n, m, 5) == co18_threshold(n, m, 4)


def test_co18_applicable_and_satisfied():
    P = _beat_free_h3_poset()
    assert beat_points(P) == []
    result = co18_bound(P)
    assert result.applicable and result.satisfied
    # the certificate is honest: no torsion in degree-1 homology
    assert classify(P).torsion1 == ()


def test_co18_rp2_not_satisfied(rp2):
    result = co18_bound(rp2)
    assert result.applicable and result.satisfied is False


def test_co18_chain_not_applicable():
    result = co18_bound(fx.chain(3))
    assert not result.applicable and result.satisfied is None


def test_co18_s5_not_applicable(s5):
    # only two minimal and two maximal elements
    assert not co18_bound(s5).applicable


def test_co18_sound_on_small_posets():
    for P in beat_free_posets_up_to(6):
        result = co18_bound(P)
        if result.applicable and result.satisfied:
            assert classify(P).torsion1 == ()


# -- size bound ---------------------------------------------------------------


def test_size_bound_s5_sharp(s5):
    assert criteria_report(s5).size_bound_ok is True
    assert s5.n == 12 == 2 * 6


def test_size_bound_rp2(rp2):
    assert criteria_report(rp2).size_bound_ok is True


def test_size_bound_not_applicable():
    assert criteria_report(fx.chain(1)).size_bound_ok is None
    assert criteria_report(fx.chain(3)).size_bound_ok is None  # beat points


def test_size_bound_holds_on_all_cores():
    for P in beat_free_posets_up_to(7):
        assert criteria_report(P).size_bound_ok in (None, True)


# -- the 17-row table ---------------------------------------------------------


def _stats(v, h, mins, maxs, mids, edges=0, comps=1):
    return ShapeStats(
        vertex_count=v,
        edge_count=edges,
        component_count=comps,
        height=h,
        minimal_count=mins,
        maximal_count=maxs,
        middle_count=mids,
    )


def test_table2_case16():
    assert table2_lookup(_stats(15, 4, 3, 3, 9), True) == 16


def test_table2_rp2_matches_row_15(rp2):
    # the literal table matches the projective-plane fixture even though
    # that poset has torsion; the conflict is surfaced, not patched
    from posetderiv import shape_stats

    case = table2_lookup(shape_stats(rp2), True)
    assert case == 15
    message = table2_conflict(case, classify(rp2).torsion1)
    assert message is not None and "case 15" in message


def test_table2_requires_beat_point_freeness():
    assert table2_lookup(_stats(15, 4, 3, 3, 9), False) is None


def test_table2_small_or_short_posets_excluded():
    assert table2_lookup(_stats(12, 4, 3, 3, 6), True) is None
    assert table2_lookup(_stats(15, 2, 3, 3, 9), True) is None


def test_table2_unmatched_stats():
    assert table2_lookup(_stats(40, 4, 10, 10, 20), True) is None


def test_table2_first_match_wins():
    # d >= 6, l = 2, h = 4 hits case 1 even though case 2 needs d = 5
    assert table2_lookup(_stats(14, 4, 6, 6, 2), True) == 1


def test_no_conflict_without_torsion():
    assert table2_conflict(16, ()) is None
    assert table2_conflict(None, (2,)) is None


# -- crown obstruction --------------------------------------------------------


def test_crown_report_diamond(diamond):
    rep = crown_obstruction_report(diamond)
    assert rep.crowns_found == 0 and rep.all_have_join_or_meet


def test_crown_report_crown2():
    rep = crown_obstruction_report(fx.crown(2))
    assert rep.crowns_found == 1 and not rep.all_have_join_or_meet
    assert len(crowns_without_bounds(fx.crown(2))) == 1


def test_crown_report_rp2(rp2):
    rep = crown_obstruction_report(rp2)
    assert rep.crowns_found == 54
    assert rep.all_have_join_or_meet is False  # regression record


@pytest.mark.parametrize(
    "lengths, found",
    [((2, 2, 2, 2), 78), ((4, 5), 75), ((5, 5), 225), ((2, 2, 2, 2, 2), 5191)],
    ids=["B4", "grid4x5", "grid5x5", "B5"],
)
def test_crown_counts_on_lattices(lengths, found):
    # regression: every crown with n <= 6 of a lattice has a join and a meet
    rep = crown_obstruction_report(chain_product(*lengths))
    assert rep == CrownReport(crowns_found=found, all_have_join_or_meet=True)


def test_crown_theorem_contrapositive_small():
    # if every crown has a join or meet, no outer derivations over any field
    fields = (RATIONALS, prime_field(2), prime_field(3))
    checked = 0
    for P in (p for k in range(1, 7) for p in enumerate_posets(k)):
        rep = crown_obstruction_report(P)
        if rep.all_have_join_or_meet:
            checked += 1
            for k in fields:
                assert not has_outer_derivation(P, k)
    assert checked > 300


# -- assembled report ---------------------------------------------------------


def test_criteria_report_rp2(rp2):
    rep = criteria_report(rp2)
    assert rep.beat_point_free
    assert rep.co18.applicable and rep.co18.satisfied is False
    assert rep.size_bound_ok is True
    assert rep.table2_case == 15
    assert rep.crowns.crowns_found == 54


def test_criteria_report_invariants():
    for P in [fx.chain(4), fx.crown(3), fx.diamond(), fx.s5(), fx.rp2()]:
        rep = criteria_report(P)
        if rep.co18.applicable:
            assert rep.beat_point_free
            assert rep.stats.minimal_count > 2 and rep.stats.maximal_count > 2
        if rep.table2_case is not None:
            assert rep.beat_point_free
