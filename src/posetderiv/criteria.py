"""Combinatorial sufficient conditions for conclusiveness.

Two independent code paths are kept deliberately separate: the rational
bound on the middle-layer size, and a literal 17-row lookup table over
(min level size, max level size, middle count, height).  The table is
encoded exactly as published; its row 15 is known to clash with the
13-element projective-plane fixture, so reports surface the conflict
instead of silently editing the table (see table2_conflict).
"""

from __future__ import annotations

from collections import namedtuple

# poset.find_crowns is looked up at each call: this module may first load
# while bench/tracing.py has it wrapped, and a name bound then keeps the wrapper.
from . import poset
from .poset import Crown, Poset, ShapeStats, beat_points, shape_stats


class Co18Result(namedtuple("Co18Result", "applicable satisfied")):
    __slots__ = ()


class CrownReport(namedtuple("CrownReport", "crowns_found all_have_join_or_meet")):
    __slots__ = ()

    @classmethod
    def from_crowns(cls, crowns: list[Crown]) -> "CrownReport":
        """Summary of find_crowns output."""
        return cls(len(crowns), not any(map(_bare, crowns)))


class CriteriaReport(
    namedtuple(
        "CriteriaReport",
        "stats beat_point_free co18 size_bound_ok table2_case crowns",
    )
):
    __slots__ = ()


def co18_threshold(minimal: int, maximal: int, height: int):
    """Exact middle-layer bound as a Fraction: n*m / ((n-2)(m-2)), plus 1
    when height > 3."""
    from fractions import Fraction

    if minimal <= 2 or maximal <= 2:
        raise ValueError("bound needs more than two minimal and maximal elements")
    delta = 1 if height > 3 else 0
    return Fraction(minimal * maximal, (minimal - 2) * (maximal - 2)) + delta


def _co18(stats: ShapeStats, beat_point_free: bool) -> Co18Result:
    if not (beat_point_free and stats.minimal_count > 2 and stats.maximal_count > 2):
        return Co18Result(applicable=False, satisfied=None)
    bound = co18_threshold(stats.minimal_count, stats.maximal_count, stats.height)
    return Co18Result(applicable=True, satisfied=stats.middle_count < bound)


def _size_bound(stats: ShapeStats, beat_point_free: bool) -> bool | None:
    """V >= 2 * height for beat-point-free posets other than a single point,
    or None where the bound does not apply.  The bound is a theorem, so
    False would mean an internal bug."""
    if stats.vertex_count <= 1 or not beat_point_free:
        return None
    return stats.vertex_count >= 2 * stats.height


def co18_bound(P: Poset) -> Co18Result:
    """Middle-layer bound certifying conclusiveness for beat-point-free posets."""
    return _co18(shape_stats(P), not beat_points(P))


# One row per case: (case, d_lo, d_hi, e_lo, e_hi, l_lo, l_hi, h_lo, h_hi),
# where d = min(minimal_count, maximal_count), e = max of the two,
# l = middle_count, h = height; None means unbounded on that side.
_TABLE2 = (
    (1, 6, None, None, None, 2, 2, 4, 4),
    (2, 5, 5, 13, None, 2, 2, 4, 4),
    (3, 5, 5, None, 12, 2, 3, 4, 5),
    (4, 5, 5, None, 12, 2, 2, 3, 3),
    (5, 4, 4, 6, None, 2, 3, 4, 5),
    (6, 4, 4, None, None, 2, 2, 3, 3),
    (7, 3, 3, 9, None, 2, 4, 4, 6),
    (8, 3, 3, 9, None, 2, 3, 3, 3),
    (9, 3, 3, 6, 8, 3, 5, 4, 6),
    (10, 3, 3, 6, 8, 2, 5, 4, 5),
    (11, 3, 3, 6, 8, 2, 4, 3, 3),
    (12, 3, 3, 5, 5, 6, 6, 4, 6),
    (13, 3, 3, 5, 5, 5, 5, 3, 6),
    (14, 3, 3, 4, 4, 7, 7, 4, 6),
    (15, 3, 3, 4, 4, 6, 6, 3, 6),
    (16, 3, 3, 3, 3, 9, 9, 4, 8),
    (17, 3, 3, 3, 3, 7, 8, 3, 6),
)


def _in_range(value: int, lo: int | None, hi: int | None) -> bool:
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


def table2_lookup(stats: ShapeStats, beat_point_free: bool) -> int | None:
    """First matching row of the literal conclusiveness table, or None.

    The table only speaks about beat-point-free posets with more than 12
    elements and height at least 3 (element-count convention).
    """
    if not beat_point_free or stats.vertex_count <= 12 or stats.height < 3:
        return None
    d = min(stats.minimal_count, stats.maximal_count)
    e = max(stats.minimal_count, stats.maximal_count)
    for case, d_lo, d_hi, e_lo, e_hi, l_lo, l_hi, h_lo, h_hi in _TABLE2:
        if (
            _in_range(d, d_lo, d_hi)
            and _in_range(e, e_lo, e_hi)
            and _in_range(stats.middle_count, l_lo, l_hi)
            and _in_range(stats.height, h_lo, h_hi)
        ):
            return case
    return None


def _bare(crown: Crown) -> bool:
    """A crown whose element set has neither a join nor a meet."""
    return crown.join is None and crown.meet is None


def crown_obstruction_report(P: Poset) -> CrownReport:
    """Count crowns (n <= 6) and check each one for a join or a meet.

    If every crown has a join or a meet, the poset cannot be defective:
    an outer derivation would have nonzero circulation on some minimal
    cycle, which is a crown, and a join or meet telescopes that
    circulation to zero.  ``find_crowns`` finds each crown once, with its
    join and meet, so this only counts.
    """
    return CrownReport.from_crowns(poset.find_crowns(P))


def crowns_without_bounds(P: Poset) -> list[Crown]:
    """The crowns whose element set has neither a join nor a meet, in the
    walk order of ``find_crowns``, which is fixed but not sorted."""
    return [c for c in poset.find_crowns(P) if _bare(c)]


def criteria_report(P: Poset) -> CriteriaReport:
    stats = shape_stats(P)
    bpf = not beat_points(P)
    return CriteriaReport(
        stats=stats,
        beat_point_free=bpf,
        co18=_co18(stats, bpf),
        size_bound_ok=_size_bound(stats, bpf),
        table2_case=table2_lookup(stats, bpf),
        crowns=crown_obstruction_report(P),
    )


def table2_conflict(table2_case: int | None, torsion1) -> str | None:
    """Message naming the table row that clashes with computed torsion."""
    if table2_case is not None and torsion1:
        return (
            f"table2 case {table2_case} claims conclusiveness but homology "
            f"has torsion {list(torsion1)}"
        )
    return None
